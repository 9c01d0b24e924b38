//! Delegation dispatch: submission and queue synchronization.
//!
//! This is the hot path between the wrappers and the delegate threads,
//! and the paper's one delegation mechanism (§4): the submitting context
//! pushes invocation objects into the owning delegate's queue, and a
//! synchronization object at the tail reclaims ownership. Every
//! submission — program-context or nested, one operation or a
//! `delegate_iter` run, void or future-returning, root or session —
//! goes through the single [`Runtime::submit`]:
//!
//! **route → reserve → audit token run → push → account.**
//!
//! What varies between callers is data, not code:
//!
//! * **Lane** ([`Lane`]). The root program thread owns the FastForward
//!   ring producers; every other producer on the SPSC transport (nested
//!   submits, session program threads) uses the rings' multi-producer
//!   injector lanes, which never block (a nested push must never wait on
//!   a full ring, or two delegates pushing into each other's queues could
//!   deadlock). A nested submit into a set pinned to the program executor
//!   uses the domain's `Lane::Program` ([`program`](super::program)). With
//!   stealing on, everyone pushes into the shared deques and the push
//!   happens *inside* [`Router::route_publish`]'s shard critical section,
//!   so a concurrent steal (which locks the same shard to rewrite the pin)
//!   can never observe or create a half-routed set.
//! * **Route.** A root program-origin submit on the ring lane routes
//!   through the program thread's record of the sets it has seen this
//!   epoch; at a set's first sight a loaded ring makes it **take** the set
//!   ([`program`](super::program)). Everyone else asks the router.
//! * **Drain proof.** Ring entries are covered by barrier tokens and stay
//!   uncounted. Lane and deque entries raise their domain's `in_flight`
//!   *before* the push — a nested child is counted before its parent
//!   completes — which is what lets the barrier wait for transitively
//!   spawned work with a single drain loop and no lost-wakeup window.
//! * **Program-routed sets** run inline for a program-origin submit and
//!   go to `Lane::Program` for a nested one.
//! * **Backpressure** stalls only the program thread of a domain with a
//!   queue cap; a full ring stalls the root program thread, which runs
//!   `Lane::Program` while it waits.
//!
//! Routing is the paper's static assignment, `SsId mod delegates`,
//! recomputed wherever no take or steal can override it: session submits
//! and the root program thread's own pushes. Root nested submits read the
//! root's pin map — lock-free in the common re-delegate case (pins are
//! immutable within an epoch when no thief can rewrite them), under the
//! set's shard lock on the first touch of a set in an epoch.

use std::sync::atomic::{fence, Ordering};

use ss_queue::{Backoff, Full};

use crate::error::{SsError, SsResult};
use crate::invocation::{Invocation, TaskSlot};
use crate::serializer::SsId;
use crate::stats::{Counters, StatsCell};
use crate::trace::TraceKind;

use super::assign::STEAL_BAR;
use super::delegate::current_domain_id;
use super::domain::Domain;
use super::router::Route;
use super::{Channels, Executor, Runtime};

/// Which context a submission comes from.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Origin {
    /// The domain's program thread, at a delegation point.
    Program,
    /// A delegate context running one of the domain's operations
    /// (recursive delegation).
    Nested,
}

/// The queue lane an invocation travels on — chosen at submit, known at
/// pop, and the only thing that decides how the entry's drain is proven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lane {
    /// A delegate's SPSC ring (root program-thread pushes).
    Ring,
    /// The ring's multi-producer injector lane.
    Injected,
    /// A shared steal deque (stealing transport; all producers).
    Deque,
    /// A domain's program-executor lane: nested submits into sets pinned
    /// to the program thread, which runs them.
    Program,
}

/// Audit producer of nested submits made by a program thread from inside
/// an operation it runs: a producer of its own, as a delegate's nested
/// submits are — no order is promised between them and the program
/// thread's program-origin submits, on any executor.
const PROGRAM_NESTED: usize = u16::MAX as usize - 1;

impl Lane {
    /// Whether entries on this lane carry a count in their domain's
    /// `in_flight`. Ring entries do not: FIFO queue tokens prove their
    /// drain.
    #[inline]
    pub(crate) fn counted(self) -> bool {
        self != Lane::Ring
    }
}

/// Audit tag of the k-th operation in a run whose first tag is `base`
/// (an unaudited run's 0 stays 0). Run tokens are consecutive, and the
/// producer lives in the low 16 bits, so the k-th token is `base + k`
/// shifted into the token field.
#[inline]
pub(super) fn run_tag(base: u64, k: u64) -> u64 {
    if base == 0 {
        0
    } else {
        base + (k << 16)
    }
}

impl Runtime {
    /// Records a routing decision's observability in the submitter's
    /// counter block: the lock-free-hit counter, and — for fresh pins —
    /// the pins counter and a `TraceKind::Pin` event in the log matching
    /// the call site (program-order log vs side-event buffer).
    fn note_route(&self, stats: &Counters, route: &Route, key: SsId, origin: Origin) {
        if route.fast_hit {
            StatsCell::bump(&stats.pin_fast_hits);
        }
        if route.fresh_pin {
            StatsCell::bump(&stats.pins);
            match origin {
                Origin::Program => {
                    if self.trace_enabled() {
                        self.trace_record(TraceKind::Pin, None, Some(key), Some(route.executor));
                    }
                }
                Origin::Nested => {
                    self.record_side_event(TraceKind::Pin, None, Some(key), route.executor);
                }
            }
        }
    }

    /// Cross-thread, read-only resolution of the executor that owns a
    /// routing key in the current epoch — the pin-lookup leg of the
    /// future-wait deadlock detector. **Non-blocking**: `Some(None)` when
    /// the key is not pinned, and `None` — *unknown* — when the answer
    /// could not be read without waiting on a lock holder (the detector
    /// then walks again), so this never creates pins and never blocks a
    /// routing operation. The caller may hold the `future_waits` mutex.
    ///
    /// `key` is **already domain-qualified**: waits-for entries store
    /// the keys operations were submitted under (composite for tenants,
    /// raw for the root), and one walk may cross domains, so each hop
    /// must consult the pin map the key actually lives in. Root sets may
    /// use raw ids whose high bits alias a tenant id; a miss in the
    /// tenant's map therefore falls through to the root's.
    pub(crate) fn executor_of_key(&self, key: u64) -> Option<Option<Executor>> {
        let core = &self.inner.core;
        let router = &self.inner.router;
        match core.session_of_key(key).map(|d| router.peek(&d, SsId(key))) {
            Some(Some(None)) | None => router.peek(&core.root, SsId(key)),
            tenant => tenant.flatten(),
        }
    }

    /// Counts submitted tasks against the inline/boxed storage split
    /// (`Stats::{tasks_inline,tasks_boxed}`): one `fetch_add` per kind.
    fn note_tasks(stats: &Counters, tasks: &[Option<TaskSlot>]) {
        let inline = tasks.iter().flatten().filter(|t| t.is_inline()).count() as u64;
        let boxed = tasks.len() as u64 - inline;
        if inline > 0 {
            stats.tasks_inline.fetch_add(inline, Ordering::Relaxed);
        }
        if boxed > 0 {
            stats.tasks_boxed.fetch_add(boxed, Ordering::Relaxed);
        }
    }

    /// Validates the calling context against `origin` and returns its
    /// writer slot (0 = program thread, `1 + i` = delegate `i`): the
    /// counter block it bumps and its audit producer.
    ///
    /// Program origin: the wrappers verified the program thread. Nested
    /// origin: the calling thread's identity is re-validated against the
    /// runtime's thread-local delegate marker, so a smuggled
    /// [`DelegateContext`](super::DelegateContext) cannot submit from a
    /// foreign thread; and the currently-executing operation's domain (a
    /// thread-local stamped by the delegate loop) must match this
    /// handle's. A session op re-delegating through a root-owned object
    /// (or another tenant's) would count its child against the wrong
    /// domain's drain counter, letting the spawning domain's barrier
    /// close with related work still in flight — reject it. A domain's
    /// program thread is a nested producer (slot 0) while it runs one of
    /// the domain's operations, which are the only ones it runs.
    fn producer(&self, origin: Origin, d: &Domain) -> SsResult<usize> {
        if origin == Origin::Program {
            return Ok(0);
        }
        match self.current_executor_slot() {
            Some(0) if self.executing_inline(d) => Ok(0),
            Some(slot) if slot >= 1 && current_domain_id() == d.id => Ok(slot),
            _ => Err(SsError::WrongContext),
        }
    }

    /// How many operations of a run of `n` may be pushed now: the
    /// fairness backpressure. A program-context submit stalls while its
    /// domain sits at its queue cap and is then admitted only as far as
    /// the cap has room, so one tenant cannot monopolize the shared pool's
    /// queues however long its run is. Never applied to nested submits: a
    /// delegate stalling mid-parent could be the very delegate the drain
    /// needs, and parents settle only after their nested submits return.
    fn admit(&self, origin: Origin, d: &Domain, n: usize) -> SsResult<usize> {
        let (Origin::Program, Some(cap)) = (origin, d.queue_cap) else {
            return Ok(n);
        };
        let mut queued = d.in_flight.load(Ordering::Relaxed);
        if queued >= cap {
            StatsCell::bump(&self.inner.core.stats.program().starvation_stalls);
            // The release that takes the count below the cap notifies.
            self.program_wait(d, || {
                queued = d.in_flight.load(Ordering::Acquire);
                queued < cap || self.check_live().is_err()
            });
            self.check_live()?;
        }
        Ok(n.min((cap - queued) as usize))
    }

    /// The lane a submission from `origin` travels on (see the module
    /// docs): only the root program thread owns ring producers.
    fn lane(&self, origin: Origin) -> Lane {
        match &self.inner.channels {
            Channels::Steal(_) => Lane::Deque,
            Channels::Spsc { .. } if origin == Origin::Program && self.is_root() => Lane::Ring,
            Channels::Spsc { .. } => Lane::Injected,
        }
    }

    /// Submits a run of packaged tasks bound for the **same**
    /// serialization set — a single delegation is a run of one
    /// (`&mut [Some(task)]`), `delegate_iter` passes its whole `Vec`; the
    /// tasks are taken out of the slice as they are pushed (or run
    /// inline), and whatever is left in it never executes. The route is
    /// resolved once for the run, the accounting counters are raised
    /// once by the run length, the invocations land through the
    /// transports' batch entry points (one critical section / one ring
    /// sweep), and the owning executor is woken once. A capped domain's
    /// program thread is the one exception: its run goes through all of
    /// that in pieces no larger than the room under the cap
    /// ([`admit`](Runtime::admit)), so its counted backlog never passes
    /// the cap.
    ///
    /// Every operation of the run counts in the submitter's
    /// `delegations`, whichever executor runs it.
    ///
    /// The caller (a wrapper's phase 1) has verified the calling context
    /// for `origin`, that an isolation epoch is open, and — for nested
    /// submits — has already marked the epoch nested and raised the
    /// object's pending count under the object's state lock. Returns the
    /// executor chosen.
    ///
    /// On failure the error is paired with the number of tasks that will
    /// **never execute** (dropped unsubmitted, or unrun on an inline
    /// error); the caller unwinds the object's pending count by exactly
    /// that amount — tasks already landed still run and decrement it
    /// themselves.
    pub(crate) fn submit(
        &self,
        origin: Origin,
        ss: SsId,
        run: &mut [Option<TaskSlot>],
    ) -> Result<Executor, (SsError, usize)> {
        let d = self.domain();
        let producer = match self.check_live().and_then(|()| self.producer(origin, d)) {
            Ok(producer) => producer,
            Err(e) => return Err((e, run.len())),
        };
        let stats = self.inner.core.stats.at(producer);
        Self::note_tasks(stats, run);
        let key = SsId(d.key(ss));
        let lane = self.lane(origin);
        let audit_producer = match (origin, producer) {
            (Origin::Nested, 0) => PROGRAM_NESTED,
            _ => producer,
        };
        let mut rest = run;
        loop {
            let room = match self.admit(origin, d, rest.len()) {
                Ok(room) => room,
                Err(e) => return Err((e, rest.len())),
            };
            let (run, later) = std::mem::take(&mut rest).split_at_mut(room);
            let n = run.len();
            let mut lost = 0;
            let route = match lane {
                Lane::Deque => self.inner.router.route_publish(d, key, |i| {
                    let to = Executor::Delegate(i);
                    lost = self.push(d, key, audit_producer, lane, to, run);
                }),
                Lane::Ring => self.route_ring(d, key, n),
                _ => self.inner.router.route(d, key),
            };
            self.note_route(stats, &route, key, origin);
            let ran = match (route.executor, origin) {
                (Executor::Delegate(i), _) => {
                    match &self.inner.channels {
                        Channels::Steal(_) => self.wake_thief(i),
                        Channels::Spsc { .. } => {
                            lost = self.push(d, key, audit_producer, lane, route.executor, run);
                        }
                    }
                    if n > lost {
                        self.inner.events[i].notify();
                        if lane.counted() {
                            d.submitted.fetch_add((n - lost) as u64, Ordering::Relaxed);
                        }
                    }
                    n - lost
                }
                (Executor::Program, Origin::Program) => {
                    if let Err((e, unrun)) = self.run_inline(d, key, run) {
                        return Err((e, unrun + later.len()));
                    }
                    n
                }
                (Executor::Program, Origin::Nested) => {
                    lost = self.push(d, key, audit_producer, Lane::Program, route.executor, run);
                    if n > lost {
                        d.submitted.fetch_add((n - lost) as u64, Ordering::Relaxed);
                        d.waiter.notify();
                    }
                    n - lost
                }
            } as u64;
            stats.delegations.fetch_add(ran, Ordering::Relaxed);
            if origin == Origin::Nested {
                stats.nested_delegations.fetch_add(ran, Ordering::Relaxed);
            }
            if lost > 0 {
                // What did land still runs (a consumer disconnects only
                // after draining) and keeps its accounting.
                return Err((SsError::Terminated, lost + later.len()));
            }
            if later.is_empty() {
                return Ok(route.executor);
            }
            rest = later;
        }
    }

    /// Stealing transport, after a push to delegate `i`: once `i`'s queue
    /// depth is past the steal bar, wakes one parked peer to come and
    /// steal. A parked thief hears of nothing else but pushes to its own
    /// queue; its re-check before parking reads the same depths, so
    /// either it sees this push or this sees it asleep.
    fn wake_thief(&self, i: usize) {
        if self.inner.core.stats.queue_depth(i) <= STEAL_BAR {
            return;
        }
        let (events, n) = (&self.inner.events, self.inner.events.len());
        fence(Ordering::SeqCst);
        // One sleeper, the first after `i`: `any` stops at it.
        (1..n).any(|k| events[(i + k) % n].wake_sleeper());
    }

    /// Reserve → audit token run → push, for a run of `n` bound for
    /// executor `to` on `lane`. Returns how many tasks of the run were
    /// **lost** (the consumer is gone: dropped unpushed, never to
    /// execute), with their reservations and tokens rolled back.
    ///
    /// The counter order is load-bearing: `queued` is raised before
    /// publishing, so a thief reading this queue's depth sees it grow and
    /// the delegate's `executed` never overtakes it; and `in_flight` must
    /// be visible before the entry exists, so the barrier's drain can
    /// never miss it. Audit tokens are drawn
    /// immediately before the push, so per-producer token order equals
    /// queue order. On the stealing transport this whole function runs
    /// inside the set's shard critical section.
    fn push(
        &self,
        d: &Domain,
        key: SsId,
        producer: usize,
        lane: Lane,
        to: Executor,
        run: &mut [Option<TaskSlot>],
    ) -> usize {
        let n = run.len();
        let core = &self.inner.core;
        if let Executor::Delegate(i) = to {
            debug_assert!(i < self.inner.n_delegates);
            core.stats.add_queued(i, n as u64);
        }
        if lane.counted() {
            d.in_flight.fetch_add(n as u64, Ordering::Relaxed);
        }
        let base = core.audit_submit(d, key, producer, n);
        let mut k = 0u64;
        let invocations = run.iter_mut().map(|task| {
            let task = task.take().expect("run pushed once");
            let audit = run_tag(base, k);
            k += 1;
            Invocation::Execute {
                task,
                ss: key,
                audit,
                // `None` for the root: no `Arc` traffic on its path.
                session: self.session.clone(),
            }
        });
        let pushed = match (&self.inner.channels, lane, to) {
            (_, Lane::Program, _) => d.lane.push(invocations),
            (_, Lane::Ring, Executor::Delegate(i)) => {
                let mut pushed = 0;
                for inv in invocations {
                    if self.push_ring(i, inv, pushed > 0).is_err() {
                        break;
                    }
                    pushed += 1;
                }
                self.note_ring_fill(i, Some(pushed));
                pushed
            }
            // The injector accepts or rejects a run whole (one lock).
            (Channels::Spsc { injectors, .. }, _, Executor::Delegate(i)) => {
                injectors[i].push_batch(invocations).unwrap_or(0)
            }
            (Channels::Steal(shared), _, Executor::Delegate(i)) => {
                shared.deques[i].push_keyed_batch(key.0, invocations)
            }
            (_, _, Executor::Program) => {
                unreachable!("program-bound runs run inline or travel on its lane")
            }
        };
        let lost = n - pushed;
        if lost > 0 {
            core.audit_unsubmit(d, key, base, lost);
            if let Executor::Delegate(i) = to {
                core.stats.sub_queued(i, lost as u64);
            }
            if lane.counted() {
                d.release(lost as u64);
            }
        }
        lost
    }

    /// Pushes one entry onto delegate `i`'s ring — the root program
    /// thread's one producer path, for operations and tokens alike. While
    /// the ring is full the program thread runs `Lane::Program` entries,
    /// spins and yields; it never parks on a full ring, whose consumer is
    /// awake with a ring of work — every earlier run notified it once it
    /// had landed. Only a run that filled the ring itself (`unnotified`:
    /// it has pushed entries nobody was told of) notifies first. Returns
    /// the entry if the consumer disconnected.
    fn push_ring(&self, i: usize, mut inv: Invocation, unnotified: bool) -> Result<(), Invocation> {
        let Channels::Spsc { producers, .. } = &self.inner.channels else {
            unreachable!("rings exist on the SPSC transport only");
        };
        let mut backoff = None;
        loop {
            // SAFETY: the root program thread (the ring lane is chosen for
            // it alone); borrowed afresh around the lane's user code.
            let ring = unsafe { producers[i].get() };
            match ring.try_push(inv) {
                Ok(()) => return Ok(()),
                Err(Full(back)) if ring.is_disconnected() => return Err(back),
                Err(Full(back)) => inv = back,
            }
            let backoff = backoff.get_or_insert_with(|| {
                if unnotified {
                    self.inner.events[i].notify();
                }
                Backoff::new()
            });
            if !self.program_help_one(&self.inner.core.root) {
                backoff.snooze();
            }
        }
    }

    /// The synchronization object for delegate `i`'s queue: the root
    /// program thread's reusable token for that delegate
    /// (`Inner::sync_tokens`), re-armed — so neither a reclaim nor an epoch
    /// boundary allocates. Root program thread only, and only after the
    /// token's previous `wait` returned.
    fn sync_object(&self, i: usize) -> Invocation {
        let token = &self.inner.sync_tokens[i];
        token.rearm();
        Invocation::sync(token)
    }

    /// Reclaims ownership of a set for the program context — the
    /// mechanism of §4 ("it will be the last object in the queue, since
    /// the program thread has ceased sending invocations"): sends a
    /// synchronization object to the queue that currently owns the set
    /// and waits until that queue has drained everything before it.
    ///
    /// `owner` is the executor recorded at delegation time; `ss` the set
    /// being reclaimed. Without stealing the two never disagree. With
    /// stealing, the set may have migrated since, so the *current* pin is
    /// resolved — and the token placed (as a fence) — inside the set's
    /// shard critical section ([`Router::with_current_pin`]), after which
    /// the set is frozen on that queue until the token pops. Returns the
    /// executor actually synchronized with.
    ///
    /// A per-queue token bounds the set's outstanding work only for ring
    /// and fence coverage with a single producer. It does not once the
    /// epoch has seen a **nested** delegation (any still-running parent,
    /// on any queue, could spawn another operation onto the set after the
    /// token popped), and it does not exist for a session (whose program
    /// thread owns no ring, and whose lanes carry no per-tenant fence). In
    /// both cases the reclaim escalates to the domain's full quiesce —
    /// the same barrier `end_isolation` uses — after which nothing of the
    /// domain is running anywhere and the program context may touch the
    /// value. Coarser than a per-set token (every queued op of the domain
    /// completes, a superset of "everything ordered before the reclaimed
    /// set's ops"), but it never waits on other domains' work. (New
    /// parents cannot appear: only the program thread starts roots, and
    /// it is here.)
    pub(crate) fn sync_owner(&self, owner: Executor, ss: Option<SsId>) -> SsResult<Executor> {
        self.check_live()?;
        let stats = self.inner.core.stats.program();
        if self.inner.core.chaos_skip_reclaim_fence() {
            // chaos weakening: claim the reclaim succeeded without
            // flushing anything. The auditor's access gate (which runs
            // before the caller touches the value) must catch this.
            return Ok(owner);
        }
        let d = self.domain();
        if !self.is_root() || self.nested_epoch_active() {
            self.barrier(d)?;
            if !self.is_root() {
                // Stands for the per-set token a session cannot send.
                StatsCell::bump(&stats.sync_objects);
            }
            return Ok(owner);
        }
        let executor = match (&self.inner.channels, ss) {
            (Channels::Steal(shared), Some(s)) => {
                // The reclaimed set is frozen on its current queue until
                // the token pops; resolving the pin and placing the fence
                // under the shard lock means no steal can move the set
                // between the two.
                self.inner.router.with_current_pin(d, s, owner, |executor| {
                    if let Executor::Delegate(i) = executor {
                        let sync = self.sync_object(i);
                        shared.deques[i].push_fence(ss_queue::FenceScope::Key(s.0), sync);
                    }
                    executor
                })
            }
            (Channels::Steal(shared), None) => {
                // Unreachable in practice (reclaims always name their
                // set); `All` is the conservative scope for a caller that
                // cannot.
                if let Executor::Delegate(i) = owner {
                    shared.deques[i].push_fence(ss_queue::FenceScope::All, self.sync_object(i));
                }
                owner
            }
            (Channels::Spsc { .. }, _) => {
                // Root program thread: reclaims are program-context only,
                // and this is the root branch.
                if let Executor::Delegate(i) = owner {
                    if self.push_ring(i, self.sync_object(i), false).is_err() {
                        return Err(SsError::Terminated);
                    }
                }
                owner
            }
        };
        let Executor::Delegate(i) = executor else {
            // A set the program thread ran has nothing queued outside
            // `Lane::Program`, whose entries are nested — and a nested
            // epoch took the barrier branch above.
            return Ok(Executor::Program);
        };
        self.inner.events[i].notify();
        StatsCell::bump(&stats.sync_objects);
        let token = &self.inner.sync_tokens[i];
        self.program_wait(d, || token.is_done());
        if let Channels::Spsc { .. } = &self.inner.channels {
            self.note_ring_fill(i, None);
        }
        Ok(executor)
    }

    /// The domain barrier: returns once every operation of `d`'s epoch —
    /// including transitively spawned ones — has executed. Used by
    /// `end_isolation`, by escalated reclaims and by `Session::drop`.
    ///
    /// Two proofs, chosen by what covers the domain's entries:
    ///
    /// * **Queue tokens** — the root only. Its program thread owns the
    ///   rings, whose entries are uncounted, so it sends a token to every
    ///   queue first, then awaits them all (delegates drain in parallel,
    ///   and the program thread runs `Lane::Program` meanwhile):
    ///   FIFO ⇒ when a token pops, everything pushed before it on that
    ///   queue has completed. On the stealing transport the tokens are
    ///   `Open` fences — stealing stays *enabled* while the barrier
    ///   drains, which is most of the epoch's remaining parallelism in
    ///   push-everything-then-end workloads — and the broadcast takes no
    ///   routing locks at all.
    /// * **The drain counter** — every domain. Tokens alone do not prove
    ///   quiescence for entries that can move or multiply: a batch stolen
    ///   mid-barrier can still be running on the thief after the victim's
    ///   token popped, and a running parent may spawn children onto
    ///   queues whose token has already popped (including its own
    ///   injector lane, which ring tokens do not cover at all). Every
    ///   such entry raised `in_flight` *before* it was pushed — a child
    ///   before its parent completes — and so did every `Lane::Program`
    ///   entry, which the waiting program thread runs itself. Once the
    ///   tokens have popped (⇒ every ring-borne root operation finished)
    ///   the counter can only drain, and zero means the whole spawn tree
    ///   has executed. A session's entries are all counted, so for it the
    ///   counter is the whole proof. No wake-up is lost: the count is
    ///   raised before the push, and the release that takes it to zero,
    ///   every token signal and every lane push notify the domain's waiter
    ///   (`docs/ARCHITECTURE.md`, "Waiting and waking").
    ///
    /// The counter is deliberately a *single* atomic per domain: it is
    /// raised at submit and lowered (with Release) only after an
    /// operation's effects are complete, and a steal never touches it —
    /// so one Acquire load is a sound everything-executed check.
    /// (The per-delegate depths `queued[i] − executed(1 + i)` would not
    /// be: a steal moves `queued` between two counters non-atomically with
    /// respect to a multi-counter scan, which could read the victim after
    /// the transfer and the thief before it and conclude quiescence with a
    /// stolen batch still running.)
    ///
    /// For the root without stealing and without nesting, `in_flight` is
    /// permanently zero and the drain is a single load. Errors only with
    /// [`SsError::Terminated`], when the pool was shut down under a
    /// waiting session.
    pub(crate) fn barrier(&self, d: &Domain) -> SsResult<()> {
        let tokens: &[_] = if self.is_root() {
            // A token whose push fails (consumer gone) is signalled here
            // instead, so the wait below needs no list of who was
            // actually sent to.
            let stats = self.inner.core.stats.program();
            let tokens = &self.inner.sync_tokens;
            for (i, token) in tokens.iter().enumerate() {
                let sync = self.sync_object(i);
                match &self.inner.channels {
                    Channels::Spsc { .. } => {
                        if self.push_ring(i, sync, false).is_err() {
                            token.signal();
                            continue;
                        }
                    }
                    Channels::Steal(shared) => {
                        shared.deques[i].push_fence(ss_queue::FenceScope::Open, sync);
                    }
                }
                self.inner.events[i].notify();
                StatsCell::bump(&stats.sync_objects);
            }
            tokens
        } else {
            &[]
        };
        let drained = || d.in_flight.load(Ordering::Acquire) == 0;
        self.program_wait(d, || {
            (tokens.iter().all(|t| t.is_done()) && drained()) || self.check_live().is_err()
        });
        if let Channels::Spsc { .. } = &self.inner.channels {
            (0..tokens.len()).for_each(|i| self.note_ring_fill(i, None));
        }
        drained().then_some(()).ok_or(SsError::Terminated)
    }

    /// Records reduction time (called by `Reducible`; Figure 5a component).
    pub(crate) fn add_reduction_time(&self, d: std::time::Duration) {
        let stats = self.inner.core.stats.program();
        StatsCell::add_nanos(&stats.reduction_nanos, d);
        StatsCell::bump(&stats.reductions);
    }
}
