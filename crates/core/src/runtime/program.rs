//! The program executor: the root program thread as a load-chosen
//! executor, and the lane that feeds it.
//!
//! The paper's Prometheus "uses the program thread to execute some of the
//! delegated methods" (§4) through a static ratio. Here the program thread
//! chooses by load instead, once per set per epoch, at the set's **first
//! sight** on the ring lane: if the ring of the delegate the set routes to
//! cannot take the run, or is at least half full, the program thread
//! **takes** the set — it runs the set's operations inline for the rest of
//! the epoch. Otherwise the set is pushed as usual and cannot be taken
//! until the next epoch. Three pieces make that sound:
//!
//! * **The record** ([`RouteRecord`]): the program thread's epoch-local
//!   memory of every set it routed on the ring lane and what it chose. A
//!   set it has pushed is never taken in the same epoch, so no set runs on
//!   a delegate and then on the program thread within one epoch (the
//!   auditor's `TwoExecutors`). Fresh means untouched this epoch, not
//!   merely drained.
//! * **Program pins.** A take publishes a `Program` pin under the set's
//!   shard lock ([`Router::route_first_sight`](super::Router)), and every
//!   nested submit in the root domain resolves through the same pin map,
//!   so a take and a nested first touch of one set serialize on that lock:
//!   whichever comes first owns the set for the epoch.
//! * **`Lane::Program`** ([`ProgramLane`]): a nested submit that finds a
//!   `Program` pin lands here — counted in the domain's `in_flight` before
//!   the push, with a notify of the domain's waiter after it — and the
//!   program thread runs it after each inline run and in every wait it
//!   makes (full ring, synchronization token, barrier, future).
//!
//! Every operation the program thread runs — taken inline or drained from
//! the lane — runs with the program thread's own delegate context (writer
//! slot 0), so `delegate_scope` behaves the same on every executor. Only
//! the root domain on the SPSC transport takes; session program threads and
//! the deque transport never do, but every domain has a lane: on a runtime
//! with no delegates every set runs on the program thread, and nested
//! submits from its operations travel there.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;

use ss_queue::{Consumer, Injector, SpscQueue};

use crate::cell::ProgramOnly;
use crate::error::SsError;
use crate::invocation::{ExecCx, Invocation, TaskSlot};
use crate::serializer::SsId;
use crate::stats::StatsCell;
use crate::trace::TraceExecutor;

use super::domain::Domain;
use super::router::Route;
use super::{Channels, Executor, Runtime};

// ----------------------------------------------------------------------
// the record

/// One record slot: a set key and `serial << 16 | choice`, where choice 0
/// is the program executor and `1 + i` delegate `i`. Serials start at 1, so
/// a zero tag is a slot never written.
#[derive(Clone, Copy, Default)]
struct Entry {
    key: u64,
    tag: u64,
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
}

/// Initial record size (slots); the table doubles while more than half of
/// it holds the current epoch's sets, and never shrinks.
const RECORD_SLOTS: usize = 64;

/// The program thread's epoch-local record of the sets it has routed on
/// the ring lane, with the choice it made for each (see the module docs).
///
/// An open-addressing table whose entries are stamped with the epoch
/// serial: an entry of an earlier epoch reads as a free slot, so a new
/// epoch starts empty without clearing anything, and the table allocates
/// only when an epoch routes more sets than any before it. The last answer
/// is cached, so a run of one set's operations costs one comparison.
/// Program-thread state only: nothing here is read or written by a
/// delegate.
pub(crate) struct RouteRecord {
    last: Entry,
    slots: Box<[Entry]>,
    /// Entries stamped `live_serial`.
    live: usize,
    live_serial: u64,
}

impl RouteRecord {
    pub(crate) fn new() -> Self {
        RouteRecord {
            last: Entry::default(),
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

    /// The choice recorded for `key` in epoch `serial`, if any.
    #[inline]
    pub(crate) fn get(&mut self, key: u64, serial: u64) -> Option<Executor> {
        if self.last.key == key && self.last.serial() == serial {
            return Some(self.last.executor());
        }
        let e = self.slots[self.find(key, serial)];
        (e.serial() == serial && e.key == key).then(|| {
            self.last = e;
            e.executor()
        })
    }

    /// Records the choice for a set first seen in epoch `serial`.
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
        let e = Entry {
            key,
            tag: serial << 16 | choice,
        };
        let i = self.find(key, serial);
        self.slots[i] = e;
        self.live += 1;
        self.last = e;
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
    /// record's answer for a set already routed this epoch, else the
    /// first-sight decision — which takes the set when its delegate's ring
    /// is loaded for a run of `n` — recorded for the rest of the epoch.
    pub(super) fn route_ring(&self, d: &Domain, key: SsId, n: usize) -> Route {
        // Only this thread writes the serial.
        let serial = d.epoch_serial.load(Ordering::Relaxed);
        // SAFETY: the root program thread (the ring lane's only user);
        // scoped borrows, with no user code in between.
        if let Some(executor) = unsafe { self.inner.routes.get() }.get(key.0, serial) {
            return Route {
                executor,
                fresh_pin: false,
                fast_hit: false,
            };
        }
        let route = self
            .inner
            .router
            .route_first_sight(d, key, |i| self.ring_loaded(i, n));
        unsafe { self.inner.routes.get() }.insert(key.0, serial, route.executor);
        route
    }

    /// Whether delegate `i`'s ring is too loaded to push a fresh set's run
    /// of `n` onto: it cannot take the run (a run longer than the ring: it
    /// is not empty), or it is at least half full. O(1) probes of ring
    /// slots, which read lines the consumer writes — so they are skipped
    /// while `ring_fill`, the program thread's own bound on the ring's
    /// occupancy, says the ring cannot be that full, and a probe that
    /// finds the ring less than half full tightens the bound (a quarter
    /// ring, when the slot a quarter back is free: a delegate trailing
    /// its producer by a slip's lead costs a probe per quarter ring, not
    /// per set). Root program thread only.
    fn ring_loaded(&self, i: usize, n: usize) -> bool {
        let Channels::Spsc { producers, .. } = &self.inner.channels else {
            return false;
        };
        // SAFETY: root program thread (first sights happen on the ring
        // lane only); scoped borrows.
        let ring = unsafe { producers[i].get() };
        let fill = &mut unsafe { self.inner.ring_fill.get() }[i];
        let cap = ring.capacity();
        let (half, quarter, n) = ((cap / 2).max(1), cap / 4, n.min(cap));
        if *fill < half && *fill + n <= cap {
            return false;
        }
        if !ring.has_room(n) || ring.holds_at_least(half) {
            return true;
        }
        *fill = if quarter > 0 && !ring.holds_at_least(quarter) {
            quarter - 1
        } else {
            half - 1
        };
        false
    }

    /// Notes `n` operations pushed on delegate `i`'s ring, or — `None` —
    /// that the ring was drained (its token popped, with nothing pushed
    /// after it). Root program thread only.
    pub(super) fn note_ring_fill(&self, i: usize, n: Option<usize>) {
        // SAFETY: root program thread (the rings' only producer); scoped.
        let fill = &mut unsafe { self.inner.ring_fill.get() }[i];
        *fill = n.map_or(0, |n| *fill + n);
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
        task.run(&ExecCx {
            core,
            executor: TraceExecutor::Program,
        });
        unsafe { d.epoch.get() }.active.pop();
        core.audit_exec(d, ss, audit, 0);
        let stats = core.stats.program();
        StatsCell::bump(&stats.inline_executions);
        StatsCell::bump(&stats.executed);
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
    pub(crate) fn program_wait(&self, d: &Domain, mut done: impl FnMut() -> bool) {
        loop {
            self.drain_program_lane(d);
            if done() {
                return;
            }
            d.waiter.wait_until(|| done() || d.lane.has_arrivals());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_record_forgets_an_epoch_by_its_serial() {
        let mut r = RouteRecord::new();
        r.insert(7, 1, Executor::Program);
        r.insert(8, 1, Executor::Delegate(3));
        assert_eq!(r.get(7, 1), Some(Executor::Program));
        assert_eq!(r.get(8, 1), Some(Executor::Delegate(3)));
        assert_eq!(r.get(9, 1), None);
        // A new epoch starts empty, and reuses the slots.
        assert_eq!(r.get(7, 2), None);
        r.insert(7, 2, Executor::Delegate(0));
        assert_eq!(r.get(7, 2), Some(Executor::Delegate(0)));
        assert_eq!(r.get(8, 2), None);
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
