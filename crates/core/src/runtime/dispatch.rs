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
//!   deadlock). With stealing on, everyone pushes into the shared deques
//!   and the push happens *inside* [`Router::route_publish`]'s shard
//!   critical section, so a concurrent steal (which locks the same shard
//!   to rewrite the pin) can never observe or create a half-routed set.
//! * **Drain proof.** Ring entries are covered by barrier tokens and stay
//!   uncounted. Lane and deque entries raise their domain's `in_flight`
//!   *before* the push — a nested child is counted before its parent
//!   completes — which is what lets the barrier wait for transitively
//!   spawned work with a single drain loop and no lost-wakeup window.
//! * **Program-routed sets** run inline for a program-origin submit and
//!   are rejected ([`SsError::NestedOnProgram`]) for a nested one: the
//!   program thread is not at a delegation point.
//! * **Backpressure** stalls only the program thread of a domain with a
//!   queue cap.
//!
//! Routing is a lock-free pin-map read in the common re-delegate case
//! (pins are immutable within an epoch when no thief can rewrite them),
//! with the assignment policy consulted — under the set's shard lock —
//! only on the first touch of a set in an epoch. Static assignment
//! without stealing bypasses even that: the inline modulo.

use std::sync::atomic::Ordering;

use crate::error::{SsError, SsResult};
use crate::invocation::{ExecCx, Invocation, TaskSlot};
use crate::serializer::SsId;
use crate::stats::{Counters, StatsCell};
use crate::trace::{TraceExecutor, TraceKind};

use super::delegate::current_domain_id;
use super::domain::Domain;
use super::router::Route;
use super::{Channels, DelegateLoads, Executor, Runtime};

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
}

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
fn run_tag(base: u64, k: u64) -> u64 {
    if base == 0 {
        0
    } else {
        base + (k << 16)
    }
}

impl Runtime {
    /// The load view handed to assignment policies: per-delegate queue
    /// depths, plus the cost-sample buffers when the active policy asked
    /// for runtime feedback.
    pub(crate) fn loads(&self) -> DelegateLoads<'_> {
        DelegateLoads {
            stats: &self.inner.core.stats,
            samples: self.inner.core.cost_samples.as_deref(),
        }
    }

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
    /// future-wait deadlock detector. Conservative and **non-blocking**:
    /// `None` whenever the answer is not already pinned *or* could not be
    /// read without waiting on a shard writer (the detector then simply
    /// retries later), so this never creates pins and never blocks a
    /// routing operation. The caller may hold the `future_waits` mutex.
    ///
    /// `key` is **already domain-qualified**: waits-for entries store
    /// the keys operations were submitted under (composite for tenants,
    /// raw for the root), and one walk may cross domains, so each hop
    /// must consult the pin map the key actually lives in. Root sets may
    /// use raw ids whose high bits alias a tenant id; a miss in the
    /// tenant's map therefore falls through to the root's.
    pub(crate) fn executor_of_key(&self, key: u64) -> Option<Executor> {
        let loads = self.loads();
        let core = &self.inner.core;
        let router = &self.inner.router;
        core.session_of_key(key)
            .and_then(|d| router.peek(&d, SsId(key), &loads))
            .or_else(|| router.peek(&core.root, SsId(key), &loads))
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
    /// close with related work still in flight — reject it.
    fn producer(&self, origin: Origin, d: &Domain) -> SsResult<usize> {
        if origin == Origin::Program {
            return Ok(0);
        }
        match self.current_executor_slot() {
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
            let backoff = ss_queue::Backoff::new();
            while queued >= cap {
                self.check_live()?;
                backoff.snooze();
                queued = d.in_flight.load(Ordering::Acquire);
            }
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
    /// inline), and whatever is left in it never executes. The router is
    /// consulted once for the run, the accounting counters are raised
    /// once by the run length, the invocations land through the
    /// transports' batch entry points (one critical section / one ring
    /// sweep), and the owning delegate is woken once. A capped domain's
    /// program thread is the one exception: its run goes through all of
    /// that in pieces no larger than the room under the cap
    /// ([`admit`](Runtime::admit)), so its counted backlog never passes
    /// the cap.
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
        let mut rest = run;
        loop {
            let room = match self.admit(origin, d, rest.len()) {
                Ok(room) => room,
                Err(e) => return Err((e, rest.len())),
            };
            let (run, later) = std::mem::take(&mut rest).split_at_mut(room);
            let n = run.len();
            let mut lost = 0;
            let route = if lane == Lane::Deque {
                self.inner.router.route_publish(d, key, &self.loads(), |i| {
                    lost = self.push(d, key, producer, lane, i, run);
                })
            } else {
                self.inner.router.route(d, key, &self.loads())
            };
            self.note_route(stats, &route, key, origin);
            match (route.executor, origin) {
                (Executor::Delegate(i), _) => {
                    if lane != Lane::Deque {
                        lost = self.push(d, key, producer, lane, i, run);
                    }
                    let pushed = (n - lost) as u64;
                    if pushed > 0 {
                        self.inner.wakeups[i].notify();
                        stats.delegations.fetch_add(pushed, Ordering::Relaxed);
                        if origin == Origin::Nested {
                            stats
                                .nested_delegations
                                .fetch_add(pushed, Ordering::Relaxed);
                        }
                        if lane.counted() {
                            d.submitted.fetch_add(pushed, Ordering::Relaxed);
                        }
                    }
                    if lost > 0 {
                        // What did land still runs (a consumer disconnects
                        // only after draining) and keeps its accounting.
                        return Err((SsError::Terminated, lost + later.len()));
                    }
                }
                (Executor::Program, Origin::Program) => {
                    // Runs after the shard lock dropped: no user code under
                    // a routing lock.
                    if let Err((e, unrun)) = self.run_inline(d, key, run) {
                        return Err((e, unrun + later.len()));
                    }
                }
                // The pin stays recorded (it is what the policy answered);
                // the run itself was never published.
                (Executor::Program, Origin::Nested) => {
                    return Err((SsError::NestedOnProgram { set: Some(ss) }, n + later.len()));
                }
            }
            if later.is_empty() {
                return Ok(route.executor);
            }
            rest = later;
        }
    }

    /// Reserve → audit token run → push, for a run of `n` bound for
    /// delegate `i`'s queue on `lane`. Returns how many tasks of the run
    /// were **lost** (the consumer is gone: dropped unpushed, never to
    /// execute), with their reservations and tokens rolled back.
    ///
    /// The counter order is load-bearing: `queued` is raised before
    /// publishing, so a `LeastLoaded` assignment racing with this submit
    /// sees the queue grow and the delegate's `executed` never overtakes
    /// it; and `in_flight` must be visible before the entry exists, so
    /// the barrier's drain can never miss it. Audit tokens are drawn
    /// immediately before the push, so per-producer token order equals
    /// queue order. On the stealing transport this whole function runs
    /// inside the set's shard critical section.
    fn push(
        &self,
        d: &Domain,
        key: SsId,
        producer: usize,
        lane: Lane,
        i: usize,
        run: &mut [Option<TaskSlot>],
    ) -> usize {
        debug_assert!(i < self.inner.topology.n_delegates);
        let n = run.len();
        let core = &self.inner.core;
        core.stats.add_queued(i, n as u64);
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
        let pushed = match (&self.inner.channels, lane) {
            (Channels::Spsc { producers, .. }, Lane::Ring) => {
                // SAFETY: the ring lane is chosen only for the root
                // program thread (`lane`), which owns the producers;
                // wrappers verified the calling context.
                let producer = unsafe { producers[i].get() };
                // Spins while the ring is full; stops short only if the
                // consumer disconnected.
                match producer.push_batch(invocations) {
                    Ok(pushed) | Err(pushed) => pushed,
                }
            }
            // The injector accepts or rejects a run whole (one lock).
            (Channels::Spsc { injectors, .. }, _) => {
                injectors[i].push_batch(invocations).unwrap_or(0)
            }
            (Channels::Steal(shared), _) => shared.deques[i].push_keyed_batch(key.0, invocations),
        };
        let lost = n - pushed;
        if lost > 0 {
            core.audit_unsubmit(d, key, base, lost);
            core.stats.sub_queued(i, lost as u64);
            if lane.counted() {
                d.in_flight.fetch_sub(lost as u64, Ordering::Relaxed);
            }
        }
        lost
    }

    /// Runs a program-bound run inline on the domain's program thread, in
    /// order (program-share virtual delegates and zero-delegate
    /// runtimes). On error the failed task and the rest of the run are
    /// dropped unrun and counted, and their audit tokens rolled back.
    fn run_inline(
        &self,
        d: &Domain,
        key: SsId,
        run: &mut [Option<TaskSlot>],
    ) -> Result<(), (SsError, usize)> {
        let n = run.len();
        let core = &self.inner.core;
        let stats = core.stats.program();
        let cx = ExecCx {
            core,
            executor: TraceExecutor::Program,
        };
        let base = core.audit_submit(d, key, 0, n);
        for (k, task) in run.iter_mut().enumerate() {
            let task = task.take().expect("run executed once");
            {
                // SAFETY: the domain's program thread (wrappers checked);
                // scoped so the task below may legally re-enter the
                // runtime.
                let epoch = unsafe { d.epoch.get() };
                if epoch.executing_inline {
                    core.audit_unsubmit(d, key, base, n - k);
                    return Err((SsError::NestedDelegation, n - k));
                }
                epoch.executing_inline = true;
            }
            task.run(&cx);
            // SAFETY: program thread; fresh scoped borrow after user code.
            unsafe { d.epoch.get() }.executing_inline = false;
            StatsCell::bump(&stats.inline_executions);
            StatsCell::bump(&stats.executed);
            core.audit_exec(d, key, run_tag(base, k as u64), 0);
            d.submitted.fetch_add(1, Ordering::Relaxed);
            d.completed.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
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
            (Channels::Spsc { producers, .. }, _) => {
                if let Executor::Delegate(i) = owner {
                    // SAFETY: root program thread (reclaims are
                    // program-context only, and this is the root branch).
                    let producer = unsafe { producers[i].get() };
                    if producer.push_blocking(self.sync_object(i)).is_err() {
                        return Err(SsError::Terminated);
                    }
                }
                owner
            }
        };
        let Executor::Delegate(i) = executor else {
            return Ok(Executor::Program); // inline sets are always drained
        };
        self.inner.wakeups[i].notify();
        StatsCell::bump(&stats.sync_objects);
        self.inner.sync_tokens[i].wait();
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
    ///   queue first, then awaits them all (delegates drain in parallel):
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
    ///   before its parent completes — so once the tokens have popped (⇒
    ///   every ring-borne root operation finished) the counter can only
    ///   drain, and zero means the whole spawn tree has executed. A
    ///   session's entries are all counted, so for it the counter is the
    ///   whole proof. No lost-wakeup window exists: the count is raised
    ///   before the push, and the waiter spins (it never parks).
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
        if self.is_root() {
            // A token whose push fails (consumer gone) is signalled here
            // instead, so the wait pass below needs no list of who was
            // actually sent to.
            let stats = self.inner.core.stats.program();
            let tokens = &self.inner.sync_tokens;
            for (i, token) in tokens.iter().enumerate() {
                let sync = self.sync_object(i);
                match &self.inner.channels {
                    Channels::Spsc { producers, .. } => {
                        // SAFETY: root program thread (callers checked).
                        if unsafe { producers[i].get() }.push_blocking(sync).is_err() {
                            token.signal();
                            continue;
                        }
                    }
                    Channels::Steal(shared) => {
                        shared.deques[i].push_fence(ss_queue::FenceScope::Open, sync);
                    }
                }
                self.inner.wakeups[i].notify();
                StatsCell::bump(&stats.sync_objects);
            }
            for token in tokens.iter() {
                token.wait();
            }
        }
        let backoff = ss_queue::Backoff::new();
        while d.in_flight.load(Ordering::Acquire) != 0 {
            self.check_live()?;
            backoff.snooze();
        }
        Ok(())
    }

    /// Records reduction time (called by `Reducible`; Figure 5a component).
    pub(crate) fn add_reduction_time(&self, d: std::time::Duration) {
        let stats = self.inner.core.stats.program();
        StatsCell::add_nanos(&stats.reduction_nanos, d);
        StatsCell::bump(&stats.reductions);
    }
}
