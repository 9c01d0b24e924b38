//! The program executor: the root program thread's **tail retraction**,
//! and the lane that feeds it.
//!
//! The paper's Prometheus "uses the program thread to execute some of the
//! delegated methods" (§4) through a static ratio. Here the program thread
//! executes where it would otherwise wait: at the epoch barrier, at a full
//! ring and in a future wait outside any operation, once its spin phase
//! is spent, it pops whole runs back off the unclaimed end of a ring it
//! feeds and runs them inline ([`Runtime::retract`]) — Chase–Lev's owner
//! pop, inverted: the single producer pops from the end it pushes to while
//! the delegate claims from the other. A run is taken when its set is
//! *fresh* or *quiescent*: nothing of the set pushed before it is left to
//! run. A wait the delegates satisfy within the spin phase never
//! retracts. Five pieces make that sound:
//!
//! * **The claim** (`ss_queue`'s claim protocol): the delegate pops only
//!   below an index it has claimed, and a retraction holds the ring with a
//!   limit it publishes — a Dekker pair, so a held value is one the
//!   delegate has not claimed and never will.
//! * **The retired cursor** (`ss_queue`'s, published by the delegate
//!   loop): every ring entry below it has finished running, and a
//!   retraction's Acquire read of it orders those operations — effects,
//!   settles, audit records — before anything the retraction runs.
//! * **The record** ([`RouteRecord`]): the program thread's epoch-local
//!   memory of every set it routed on the ring lane — its executor, its
//!   latest contiguous run on the ring, and where its pushes before that
//!   run ended. A held run is retractable only if it is the unclaimed
//!   part of its set's latest run and every entry of the set before it
//!   lies below the retired cursor: then the operations taken are the
//!   set's next in program order and none before them is running, so the
//!   set runs on one executor at a time (the auditor's `TwoExecutors`,
//!   whose record a quiescent set hands over to the program thread). The
//!   set a full-ring wait is pushing is never retracted.
//! * **Program pins.** A retraction pins each set it takes to the program
//!   executor under the set's shard lock
//!   ([`Router::pin_program`](super::Router)), while it still holds the
//!   ring, and every nested submit in the root domain resolves through the
//!   same pin map: a retraction and a nested first touch of one set
//!   serialize on that lock, and whoever comes first owns the set for the
//!   epoch. A set a delegate nested into first ends the retraction there.
//! * **`Lane::Program`** ([`ProgramLane`]): a nested submit that finds a
//!   `Program` pin lands here — counted in the domain's `in_flight` before
//!   the push, with a notify of the domain's waiter after it — and the
//!   program thread runs it after each inline run and in every wait it
//!   makes (full ring, synchronization token, barrier, future).
//!
//! Every operation the program thread runs — retracted, routed to it, or
//! drained from the lane — runs with the program thread's own delegate
//! context (writer slot 0), so `delegate_scope` behaves the same on every
//! executor. Only the root domain on the SPSC transport retracts; session
//! program threads and the deque transport never do, but every domain has
//! a lane: on a runtime with no delegates every set runs on the program
//! thread, and nested submits from its operations travel there.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;

use ss_queue::{Consumer, Injector, Retraction, SpscQueue};

use crate::cell::ProgramOnly;
use crate::error::SsError;
use crate::invocation::{ExecCx, Invocation, TaskSlot};
use crate::serializer::SsId;
use crate::trace::TraceExecutor;

use super::domain::Domain;
use super::event::spin_until;
use super::router::Route;
use super::{Channels, Executor, Runtime};

// ----------------------------------------------------------------------
// the record

/// One record slot: a set key, `serial << 16 | choice`, where choice 0
/// is the program executor and `1 + i` delegate `i`, and where the set's
/// pushes this epoch landed on that delegate's ring: `[start, end)` is
/// its latest contiguous run, and `before` is one past its pushes before
/// that run (0 when there were none). A set not pushed yet reads
/// `(0, 0, 0)`. Serials start at 1, so a zero tag is a slot never written.
#[derive(Clone, Copy, Default)]
struct Entry {
    key: u64,
    tag: u64,
    before: u64,
    start: u64,
    end: u64,
}

impl Entry {
    fn serial(self) -> u64 {
        self.tag >> 16
    }

    fn executor(self) -> Executor {
        match self.tag & 0xFFFF {
            0 => Executor::Program,
            c => Executor::Delegate(c as usize - 1),
        }
    }

    /// One past the set's last entry before ring index `run`, where
    /// `[run, end)` is the unclaimed part of its latest run: the index
    /// the delegate must have retired before the run may be retracted.
    /// 0 for a set with no entry before `run` — a fresh one.
    fn earlier(self, run: u64) -> u64 {
        if self.start < run {
            run
        } else {
            self.before
        }
    }
}

/// Initial record size (slots); the table doubles while more than half of
/// it holds the current epoch's sets, and never shrinks.
const RECORD_SLOTS: usize = 64;

/// The program thread's epoch-local record of the sets it has routed on
/// the ring lane: each set's executor, and where its pushes landed (see
/// the module docs).
///
/// An open-addressing table whose entries are stamped with the epoch
/// serial: an entry of an earlier epoch reads as a free slot, so a new
/// epoch starts empty without clearing anything, and the table allocates
/// only when an epoch routes more sets than any before it. The last answer
/// is cached, so a run of one set's operations costs one comparison.
/// Program-thread state only: nothing here is read or written by a
/// delegate.
pub(crate) struct RouteRecord {
    /// The slot of the last answer.
    last: usize,
    slots: Box<[Entry]>,
    /// Entries stamped `live_serial`.
    live: usize,
    live_serial: u64,
}

impl RouteRecord {
    pub(crate) fn new() -> Self {
        RouteRecord {
            last: 0,
            slots: vec![Entry::default(); RECORD_SLOTS].into_boxed_slice(),
            live: 0,
            live_serial: 0,
        }
    }

    /// The slot holding `key` in epoch `serial`, or the free slot where it
    /// belongs. Entries of the current epoch are never removed, so a probe
    /// chain ends at the first slot of another epoch.
    fn find(&self, key: u64, serial: u64) -> usize {
        let mask = self.slots.len() - 1;
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut i = (h ^ (h >> 32)) as usize & mask;
        loop {
            let e = self.slots[i];
            if e.serial() != serial || e.key == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The executor recorded for `key` in epoch `serial`, if any.
    #[inline]
    pub(crate) fn get(&mut self, key: u64, serial: u64) -> Option<Executor> {
        self.entry(key, serial).map(Entry::executor)
    }

    #[inline]
    fn entry(&mut self, key: u64, serial: u64) -> Option<Entry> {
        self.slot(key, serial).map(|i| self.slots[i])
    }

    /// The slot holding `key`'s entry of epoch `serial`, if any: the last
    /// answer's slot when it still holds it, else a probe.
    #[inline]
    fn slot(&mut self, key: u64, serial: u64) -> Option<usize> {
        let holds = |e: Entry| e.key == key && e.serial() == serial;
        if holds(self.slots[self.last]) {
            return Some(self.last);
        }
        let i = self.find(key, serial);
        holds(self.slots[i]).then(|| {
            self.last = i;
            i
        })
    }

    /// Rewrites the entry of `key`, recorded in epoch `serial`.
    fn update(&mut self, key: u64, serial: u64, f: impl FnOnce(&mut Entry)) {
        if let Some(i) = self.slot(key, serial) {
            f(&mut self.slots[i]);
        }
    }

    /// Records that the program thread retracted `key`: it is the program
    /// executor's for the rest of epoch `serial`.
    pub(crate) fn retracted(&mut self, key: u64, serial: u64) {
        self.update(key, serial, |e| e.tag &= !0xFFFF);
    }

    /// Records that a run of `key` landed at ring indices `from..to`:
    /// it extends the set's latest run if it lands right behind it, and
    /// starts a new one otherwise.
    pub(crate) fn pushed(&mut self, key: u64, serial: u64, from: u64, to: u64) {
        self.update(key, serial, |e| {
            if e.end != from {
                (e.before, e.start) = (e.end, from);
            }
            e.end = to;
        });
    }

    /// Records the executor of a set first seen in epoch `serial`.
    pub(crate) fn insert(&mut self, key: u64, serial: u64, executor: Executor) {
        if self.live_serial != serial {
            (self.live, self.live_serial) = (0, serial);
        }
        if 2 * (self.live + 1) > self.slots.len() {
            self.grow(serial);
        }
        let choice = match executor {
            Executor::Program => 0,
            Executor::Delegate(i) => {
                debug_assert!(i < 0xFFFF);
                1 + i as u64
            }
        };
        let i = self.find(key, serial);
        self.slots[i] = Entry {
            key,
            tag: serial << 16 | choice,
            ..Entry::default()
        };
        self.live += 1;
        self.last = i;
    }

    fn grow(&mut self, serial: u64) {
        let bigger = vec![Entry::default(); 2 * self.slots.len()].into_boxed_slice();
        let old = std::mem::replace(&mut self.slots, bigger);
        for e in old.iter().filter(|e| e.serial() == serial) {
            let i = self.find(e.key, serial);
            self.slots[i] = *e;
        }
    }
}

// ----------------------------------------------------------------------
// the lane

/// `Lane::Program` of one domain: the operations nested submits route to
/// its program executor, which only that domain's program thread runs.
/// The multi-producer half is an SPSC queue's injector lane (its ring is
/// never used); entries popped while their set is on the program thread's
/// call stack wait in `deferred`, in order.
pub(crate) struct ProgramLane {
    injector: Injector<Invocation>,
    consumer: ProgramOnly<Consumer<Invocation>>,
    deferred: ProgramOnly<VecDeque<Invocation>>,
}

impl ProgramLane {
    pub(crate) fn new() -> Self {
        let (ring, consumer) = SpscQueue::with_capacity(1);
        ProgramLane {
            injector: ring.injector(),
            consumer: ProgramOnly::new(consumer),
            deferred: ProgramOnly::new(VecDeque::new()),
        }
    }

    /// Appends a run (any thread); returns how many landed.
    pub(super) fn push(&self, run: impl IntoIterator<Item = Invocation>) -> usize {
        self.injector.push_batch(run).unwrap_or(0)
    }

    /// Whether an entry arrived that the program thread has not popped:
    /// the lane's half of every program-side wait predicate. One load of a
    /// line only nested pushers write.
    #[inline]
    pub(super) fn has_arrivals(&self) -> bool {
        self.injector.injected_len() > 0
    }
}

impl Runtime {
    /// The route of a root program-origin submit on the ring lane: the
    /// record's answer for a set already routed this epoch, else static
    /// placement, recorded for the rest of the epoch.
    pub(super) fn route_ring(&self, d: &Domain, key: SsId) -> Route {
        // Only this thread writes the serial.
        let serial = d.epoch_serial.load(Ordering::Relaxed);
        // SAFETY: the root program thread (the ring lane's only user);
        // scoped borrows, with no user code in between.
        let routes = unsafe { self.inner.routes.get() };
        let executor = routes.get(key.0, serial).unwrap_or_else(|| {
            let executor = self.inner.router.home(key);
            routes.insert(key.0, serial, executor);
            executor
        });
        Route {
            executor,
            fresh_pin: false,
            fast_hit: false,
        }
    }

    /// Records that the last `n` entries on delegate `i`'s ring are a run
    /// of `key`. A run lands in one piece: once its first entry is at the
    /// ring's end, a retraction stops there (it never takes the set being
    /// pushed). Root program thread only.
    pub(super) fn ring_pushed(&self, d: &Domain, i: usize, key: SsId, n: usize) {
        let Channels::Spsc { producers, .. } = &self.inner.channels else {
            return;
        };
        let serial = d.epoch_serial.load(Ordering::Relaxed);
        // SAFETY: the root program thread; scoped borrows.
        let head = unsafe { producers[i].get() }.head();
        unsafe { self.inner.routes.get() }.pushed(key.0, serial, head - n as u64, head);
    }

    /// **Tail retraction** on delegate `i`'s ring (module docs): holds the
    /// ring, takes the whole fresh and quiescent runs at its unclaimed
    /// end — at least half the held values where the runs allow — and
    /// runs them inline, in push order. `pushing` is the set a full-ring
    /// wait is pushing, which is never taken. Returns whether anything
    /// ran. Root program thread only, outside any operation it runs.
    pub(super) fn retract(&self, i: usize, pushing: Option<u64>) -> bool {
        let Channels::Spsc { producers, .. } = &self.inner.channels else {
            return false;
        };
        let (core, d) = (&*self.inner.core, &self.inner.core.root);
        if self.executing_inline(d) {
            return false;
        }
        let serial = d.epoch_serial.load(Ordering::Relaxed);
        // SAFETY (all three): the root program thread, the rings' only
        // producer; the buffer is moved out, so the operations below may
        // re-enter the runtime, and the other borrows end before them.
        let mut taken = std::mem::take(unsafe { self.inner.retracted.get() });
        {
            let ring = unsafe { producers[i].get() };
            let routes = unsafe { self.inner.routes.get() };
            core.gate("retract", "p");
            if let Some(held) = ring.retract(ring.head().saturating_sub(ring.capacity() as u64)) {
                let cut = self.cut(&held, d, i, serial, pushing, routes);
                held.pop_from(cut, &mut taken);
            }
            core.gate("retract", "p");
        }
        let took = !taken.is_empty();
        if took {
            core.stats
                .ring_queued(i, (taken.len() as u64).wrapping_neg());
        }
        for inv in taken.drain(..) {
            let Invocation::Execute {
                task, ss, audit, ..
            } = inv
            else {
                unreachable!("a retraction takes operations only");
            };
            // Accepted on the uncounted ring lane: nothing to settle.
            self.run_on_program(d, ss, task, audit);
        }
        // SAFETY: as above; no other borrow of the buffer is live.
        *unsafe { self.inner.retracted.get() } = taken;
        if took {
            self.drain_program_lane(d);
        }
        took
    }

    /// Where a retraction of `held` cuts: walking back from the end, run
    /// by run, while the cut is above half the held values. A run is
    /// taken when it is the unclaimed part of its set's latest run, its
    /// set's entries before it have all retired (a fresh set has none),
    /// the set is not `pushing`, and the set's program pin holds; the walk
    /// stops at the first run that is not. A set that ran on the delegate
    /// this epoch hands its audit record over to the program executor, as
    /// a stolen tail does.
    fn cut(
        &self,
        held: &Retraction<'_, Invocation>,
        d: &Domain,
        i: usize,
        serial: u64,
        pushing: Option<u64>,
        routes: &mut RouteRecord,
    ) -> u64 {
        let key_at = |j: u64| match held.get(j) {
            Invocation::Execute { ss, .. } => Some(ss.0),
            Invocation::Token { .. } => None,
        };
        let (start, end, retired) = (held.start(), held.end(), held.retired());
        let half = end - (end - start).div_ceil(2);
        let mut cut = end;
        while cut > half {
            let Some(key) = key_at(cut - 1).filter(|&k| Some(k) != pushing) else {
                break;
            };
            let mut run = cut - 1;
            while run > start && key_at(run - 1) == Some(key) {
                run -= 1;
            }
            let Some(e) = routes.entry(key, serial) else {
                break;
            };
            let earlier = e.earlier(run);
            if e.executor() != Executor::Delegate(i)
                || e.end != cut
                || (earlier > retired && !self.inner.core.chaos_retract_unretired())
                || !self.inner.router.pin_program(d, SsId(key))
            {
                break;
            }
            if earlier > 0 {
                self.inner.core.audit_handover(d, SsId(key), 0);
            }
            routes.retracted(key, serial);
            cut = run;
        }
        cut
    }

    /// One retraction from every ring; whether anything ran.
    fn retract_all(&self) -> bool {
        (0..self.inner.n_delegates).fold(false, |took, i| self.retract(i, None) | took)
    }

    /// The barrier's first phase on the root's rings, before it pushes its
    /// tokens: waits until the delegates have claimed every entry pushed
    /// this epoch, and where the wait would park — its spin phase spent —
    /// retracts instead. Returns once everything is claimed, or when a
    /// retraction found nothing to take; the tokens' wait parks then.
    pub(super) fn retract_before_tokens(&self, d: &Domain) {
        let Channels::Spsc { producers, .. } = &self.inner.channels else {
            return;
        };
        // SAFETY: the root program thread; each borrow ends in the call.
        let claimed = || {
            producers
                .iter()
                .all(|p| unsafe { p.get() }.unclaimed() == 0)
        };
        self.inner.core.waiting(|| loop {
            self.drain_program_lane(d);
            if spin_until(|| claimed() || d.lane.has_arrivals()) {
                if claimed() {
                    return;
                }
                continue;
            }
            if !self.retract_all() {
                return;
            }
        })
    }

    /// The root program thread's future wait at top level, before it
    /// parks: the wait's spin phase on `done`, then a retraction from
    /// every ring. True when `done` held or an operation ran — the
    /// caller polls again — and false when the wait may park.
    pub(crate) fn retract_at_wait(&self, done: impl FnMut() -> bool) -> bool {
        spin_until(done) || self.retract_all()
    }

    /// True while the domain's program thread is running an operation
    /// (domain program thread only).
    #[inline]
    pub(crate) fn executing_inline(&self, d: &Domain) -> bool {
        // SAFETY: the domain's program thread (callers' contract); scoped.
        !unsafe { d.epoch.get() }.active.is_empty()
    }

    /// Runs a program-bound run inline on the domain's program thread, in
    /// order, then whatever reached `Lane::Program` meanwhile. On error
    /// (a re-entrant submit from an operation already running here) the
    /// run is dropped unrun and counted, with its audit tokens never drawn.
    pub(super) fn run_inline(
        &self,
        d: &Domain,
        key: SsId,
        run: &mut [Option<TaskSlot>],
    ) -> Result<(), (SsError, usize)> {
        let n = run.len();
        if self.executing_inline(d) {
            return Err((SsError::NestedDelegation, n));
        }
        let base = self.inner.core.audit_submit(d, key, 0, n);
        for (k, task) in run.iter_mut().enumerate() {
            let task = task.take().expect("run executed once");
            self.run_on_program(d, key, task, super::dispatch::run_tag(base, k as u64));
            d.submitted.fetch_add(1, Ordering::Relaxed);
            d.completed.fetch_add(1, Ordering::Relaxed);
        }
        self.drain_program_lane(d);
        Ok(())
    }

    /// Executes one operation on the domain's program thread: the program
    /// executor's `execute_op`. The set goes on the thread's active stack
    /// for the call — which is what makes the thread's delegate context
    /// available to the operation and keeps a future wait inside it from
    /// running another operation of the same set — and the audit record
    /// lands before the caller settles the drain counters.
    fn run_on_program(&self, d: &Domain, ss: SsId, task: TaskSlot, audit: u64) {
        let core = &self.inner.core;
        // SAFETY: the domain's program thread; scoped, so the task may
        // re-enter the runtime.
        unsafe { d.epoch.get() }.active.push(ss.0);
        let stats = self.program_stats();
        task.run(&ExecCx {
            core,
            executor: TraceExecutor::Program,
            stats,
        });
        unsafe { d.epoch.get() }.active.pop();
        core.audit_exec(d, ss, audit, 0);
        stats.bump(|c| &c.inline_executions);
        stats.bump(|c| &c.executed);
    }

    /// Runs one `Lane::Program` entry whose set is not on the program
    /// thread's call stack — deferred entries first, in order — and
    /// settles it. Returns false when there is none. Domain program thread
    /// only.
    pub(crate) fn program_help_one(&self, d: &Domain) -> bool {
        let lane = &d.lane;
        let op = {
            // SAFETY: the domain's program thread; scoped borrows, released
            // before the operation runs.
            let active = &unsafe { d.epoch.get() }.active;
            let deferred = unsafe { lane.deferred.get() };
            let runnable = |inv: &Invocation| matches!(inv, Invocation::Execute { ss, .. } if !active.contains(&ss.0));
            match deferred.iter().position(runnable) {
                Some(pos) => deferred.remove(pos),
                None => loop {
                    let Some(inv) = unsafe { lane.consumer.get() }.try_pop_injected() else {
                        return false;
                    };
                    if runnable(&inv) {
                        break Some(inv);
                    }
                    deferred.push_back(inv);
                },
            }
        };
        let Some(Invocation::Execute {
            task, ss, audit, ..
        }) = op
        else {
            unreachable!("only operations travel on the program lane");
        };
        self.run_on_program(d, ss, task, audit);
        d.settle(1);
        true
    }

    /// Runs every runnable `Lane::Program` entry.
    pub(crate) fn drain_program_lane(&self, d: &Domain) {
        while self.program_help_one(d) {}
    }

    /// The program thread's wait: returns once `done` holds, running
    /// `Lane::Program` entries meanwhile. Parks on the domain's waiter,
    /// which every notifier of `done` and every lane push notifies.
    /// Counted in `Core::waiters`, so no delegate slips meanwhile.
    pub(crate) fn program_wait(&self, d: &Domain, mut done: impl FnMut() -> bool) {
        self.inner.core.waiting(|| loop {
            self.drain_program_lane(d);
            if done() {
                return;
            }
            d.waiter.wait_until(|| done() || d.lane.has_arrivals());
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The record's view of `key`: executor, `before`, `start`, `end`.
    fn view(r: &mut RouteRecord, key: u64, serial: u64) -> Option<(Executor, u64, u64, u64)> {
        r.entry(key, serial)
            .map(|e| (e.executor(), e.before, e.start, e.end))
    }

    #[test]
    fn the_record_forgets_an_epoch_by_its_serial() {
        let mut r = RouteRecord::new();
        r.insert(7, 1, Executor::Program);
        r.insert(8, 1, Executor::Delegate(3));
        r.pushed(8, 1, 40, 42);
        assert_eq!(r.get(7, 1), Some(Executor::Program));
        assert_eq!(view(&mut r, 8, 1), Some((Executor::Delegate(3), 0, 40, 42)));
        assert_eq!(r.get(9, 1), None);
        // A new epoch starts empty, and reuses the slots.
        assert_eq!(r.get(7, 2), None);
        r.insert(7, 2, Executor::Delegate(0));
        assert_eq!(view(&mut r, 7, 2), Some((Executor::Delegate(0), 0, 0, 0)));
        assert_eq!(r.get(8, 2), None);
    }

    #[test]
    fn the_record_keeps_the_latest_run_and_what_came_before_it() {
        let mut r = RouteRecord::new();
        r.insert(7, 1, Executor::Delegate(1));
        r.insert(8, 1, Executor::Delegate(1));
        // A first run at index 0, and one behind it, are one run.
        r.pushed(7, 1, 0, 2);
        r.pushed(7, 1, 2, 3);
        assert_eq!(view(&mut r, 7, 1), Some((Executor::Delegate(1), 0, 0, 3)));
        // Fresh: nothing before any part of its run.
        let e = r.entry(7, 1).unwrap();
        assert_eq!((e.earlier(0), e.earlier(2)), (0, 2));
        // Another set between two runs starts a new one.
        r.pushed(8, 1, 3, 4);
        r.pushed(7, 1, 4, 6);
        assert_eq!(view(&mut r, 7, 1), Some((Executor::Delegate(1), 3, 4, 6)));
        let e = r.entry(7, 1).unwrap();
        assert_eq!((e.earlier(4), e.earlier(5)), (3, 5));
        // Through the cached last answer and through the table alike.
        r.retracted(8, 1);
        assert_eq!(r.get(8, 1), Some(Executor::Program));
        r.retracted(7, 1);
        assert_eq!(view(&mut r, 7, 1), Some((Executor::Program, 3, 4, 6)));
        // Another epoch's entry is never rewritten.
        r.insert(9, 1, Executor::Delegate(0));
        r.retracted(9, 2);
        r.pushed(9, 2, 0, 1);
        assert_eq!(view(&mut r, 9, 1), Some((Executor::Delegate(0), 0, 0, 0)));
    }

    #[test]
    fn the_record_grows_past_its_first_table_and_keeps_every_choice() {
        let mut r = RouteRecord::new();
        for serial in 1..=3u64 {
            for key in 0..1000u64 {
                let choice = if key % 3 == 0 {
                    Executor::Program
                } else {
                    Executor::Delegate((key % 5) as usize)
                };
                assert_eq!(r.get(key * 64, serial), None);
                r.insert(key * 64, serial, choice);
            }
            for key in 0..1000u64 {
                let want = if key % 3 == 0 {
                    Executor::Program
                } else {
                    Executor::Delegate((key % 5) as usize)
                };
                assert_eq!(r.get(key * 64, serial), Some(want));
            }
        }
        assert_eq!(r.slots.len(), 2048);
    }
}
