//! The routing layer: one authority for set→executor resolution.
//!
//! Every path that turns a serialization set into an executor — the
//! program thread delegating, a delegate context delegating recursively,
//! a future-returning delegation on either, a thief migrating batches, a
//! reclaim placing its fence token, the future-wait deadlock detector
//! resolving pins — goes through this [`Router`]. It owns the
//! **assignment policy** ([`Scheduler`]), behind a mutex that is held only
//! while a policy actually runs (first touch of a set in an epoch, or a
//! pure-policy recomputation) — never on the hot path of a set that is
//! already pinned — and resolves every key against the **sharded pin map**
//! ([`ss_queue::shardmap::ShardMap`]) of the [`Domain`] it is handed: the
//! epoch-stamped set→executor pins, with per-shard locks for writers and
//! lock-free reads for the re-delegate-to-a-pinned-set case. Pin maps are
//! per domain because a shard's serial gate wipes the whole shard on
//! mismatch: two domains' interleaved epochs sharing one map would erase
//! each other's live pins.
//!
//! # The sharded-pin protocol
//!
//! What the old design guarded with one global mutex (the scheduler
//! mutex on the non-stealing transports, the routing lock on the
//! stealing one) decomposes into three access modes:
//!
//! 1. **Lock-free resolution** ([`Router::route`]) — non-stealing
//!    transports only. Sound because without stealing a pin, once
//!    written, is *immutable for the rest of the epoch*: the only writes
//!    a reader can race are the initial publication (ordered by the
//!    shard map's release/acquire slot protocol) and the lazy epoch
//!    reset (ordered by the per-shard epoch stamp). A hit costs no lock
//!    and no read-modify-write; a miss falls back to the shard lock and
//!    consults the policy there.
//! 2. **Shard-locked resolve-and-publish** ([`Router::route_publish`])
//!    — the stealing transport. The pin lookup/insert and the queue
//!    push happen in one critical section *of the set's shard*, so a
//!    concurrent steal (which must lock the same shard to rewrite the
//!    pin, rule 3) can never migrate a set between "this submit decided
//!    queue i" and "the operation landed in queue i". This is the old
//!    routing-lock argument verbatim, with the lock's scope shrunk from
//!    "all sets" to "sets sharing this shard".
//! 3. **Multi-shard migration** ([`Router::migrate_keys`]) — the thief.
//!    Locks the shards of every candidate key (in ascending shard
//!    order, so concurrent thieves cannot deadlock), re-validates that
//!    each key is still pinned to the victim, removes the batches and
//!    re-pins under those locks. Submits of an affected set serialize
//!    with the migration on the shard lock; submits of unrelated sets
//!    proceed in parallel — the point of sharding.
//!
//! The deadlock detector's read ([`Router::peek`]) is the fourth mode:
//! strictly non-blocking (lock-free probe, `try_lock` for the overflow
//! map, conservative `None` when contended), so it can never block — or
//! be blocked by — a shard writer. See `docs/ARCHITECTURE.md` for the
//! full proof sketch tying these modes to the epoch-pinning invariant.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::serializer::SsId;
use crate::stats::StatsCell;

use super::assign::{static_executor, AssignTopology, CostBook, DelegateLoads, Scheduler};
use super::domain::Domain;
use super::Executor;

/// How a [`Router`] resolved a set (returned by the `route*` calls).
pub(crate) struct Route {
    pub(crate) executor: Executor,
    /// True when this call created the epoch's pin for the set (the
    /// caller records it: `Stats::pins` plus a `TraceKind::Pin` event).
    pub(crate) fresh_pin: bool,
    /// True when the resolution came from the lock-free fast path
    /// (`Stats::pin_fast_hits`).
    pub(crate) fast_hit: bool,
}

/// Executor ⇄ non-zero `u32` packing for the pin map.
#[inline]
fn encode(executor: Executor) -> u32 {
    match executor {
        Executor::Program => 1,
        Executor::Delegate(i) => {
            debug_assert!(i < (u32::MAX - 2) as usize);
            2 + i as u32
        }
    }
}

#[inline]
fn decode(code: u32) -> Executor {
    if code == 1 {
        Executor::Program
    } else {
        Executor::Delegate((code - 2) as usize)
    }
}

/// The routing layer. Shared (`Arc`) between the runtime's `Inner` and
/// the stealing-mode delegate threads; holds no reference back to the
/// runtime, so worker threads keep nothing alive.
pub(crate) struct Router {
    topology: AssignTopology,
    /// The seed fast path: `Assignment::Static` without stealing routes
    /// through the inline modulo — no pins, no locks, no policy calls —
    /// wherever no take can race the answer: session submits and the root
    /// program thread's own first sights.
    static_assignment: bool,
    /// Cached `policy.is_pure()`.
    pure: bool,
    /// True when pins are authoritative even for pure policies (stealing
    /// mode: a steal must be able to override any policy's answer).
    always_pin: bool,
    scheduler: Mutex<Scheduler>,
    /// The shared per-set cost model, `Some` only under
    /// [`crate::StealPolicy::CostAware`].
    costs: Option<Arc<CostBook>>,
}

impl Router {
    pub(crate) fn new(
        policy: Box<dyn super::DelegateAssignment>,
        topology: AssignTopology,
        static_assignment: bool,
        always_pin: bool,
        costs: Option<Arc<CostBook>>,
    ) -> Router {
        Router {
            topology,
            static_assignment,
            pure: policy.is_pure(),
            always_pin,
            scheduler: Mutex::new(Scheduler::new(policy)),
            costs,
        }
    }

    // ------------------------------------------------------------------
    // steal prices: nanoseconds from the shared cost model when the plan
    // keeps one (`CostAware`), one unit per operation otherwise.

    /// True when this router maintains the cost model (`CostAware`).
    pub(crate) fn cost_aware(&self) -> bool {
        self.costs.is_some()
    }

    /// Folds one observed operation runtime into the shared cost model.
    pub(crate) fn observe_cost(&self, key: u64, nanos: u64) {
        if let Some(book) = &self.costs {
            book.observe(key, nanos);
        }
    }

    /// Price of one operation of `key`: the model's estimate in ns,
    /// floored at 1, or 1 without a model.
    pub(crate) fn cost_estimate(&self, key: u64) -> u64 {
        self.costs
            .as_ref()
            .map_or(1, |book| (book.estimate(key) as u64).max(1))
    }

    /// Price of one typical operation: the imbalance unit thieves price
    /// steal decisions against (ns, floored at 1; 1 without a model).
    pub(crate) fn cost_typical(&self) -> u64 {
        self.costs
            .as_ref()
            .map_or(1, |book| (book.typical() as u64).max(1))
    }

    /// Price of delegate `i`'s queue — the thief's victim price, in place
    /// of per-deque scans: the delegate's queue depth (`queued −
    /// executed`, see [`StatsCell`]) times
    /// [`cost_typical`](Router::cost_typical), so a queue is never free
    /// before the model has samples; without a model the price is the
    /// depth itself. Under the model, pricing at read time rather than
    /// charging estimated nanoseconds at publish time keeps the price
    /// honest under EWMA drift in either direction: a backlog charged at
    /// warm-up-cheap estimates would price below one typical operation
    /// once the model learns the real costs (so the imbalance bar blinds
    /// every thief to a deep queue), and one charged expensive could not
    /// be drained back to zero by completions priced cheap. A depth
    /// cannot drift: it reaches zero exactly when the queue does,
    /// whichever path executed the operations.
    pub(crate) fn queued_cost(&self, stats: &StatsCell, i: usize) -> u64 {
        stats.queue_depth(i).saturating_mul(self.cost_typical())
    }

    /// Consults the policy (under its mutex) for a first touch.
    fn assign(&self, ss: SsId, serial: u64, loads: &DelegateLoads<'_>) -> Executor {
        self.scheduler
            .lock()
            .assign_raw(ss, serial, &self.topology, loads)
    }

    /// The policy's answer for a set — the inline modulo under static
    /// assignment, else the policy under its mutex.
    fn answer(&self, key: SsId, serial: u64, loads: &DelegateLoads<'_>) -> Executor {
        if self.static_assignment {
            static_executor(key, &self.topology)
        } else {
            self.assign(key, serial, loads)
        }
    }

    /// Resolves `key` in domain `d`'s current epoch — the non-publishing
    /// resolution used by the non-stealing transports (SPSC rings and
    /// injector lanes), where a pin can never change within an epoch and
    /// the queue push therefore does not need to be atomic with the
    /// lookup.
    ///
    /// Static assignment and other pure policies bypass the pin map in
    /// session domains (recomputed per call: no pin, no `Pin` trace). In
    /// the root domain they resolve through it like every policy: the
    /// root program thread may have **taken** the set
    /// ([`route_first_sight`](Router::route_first_sight)), and only the
    /// pin says so. A first touch there pins the policy's answer under the
    /// set's shard lock — the lock a take holds while it pins the program
    /// executor — and reports no fresh pin, since the pin merely records
    /// what the policy says anyway.
    pub(crate) fn route(&self, d: &Domain, key: SsId, loads: &DelegateLoads<'_>) -> Route {
        debug_assert!(!self.always_pin, "stealing submits must route_publish");
        if self.topology.n_delegates == 0 {
            // Serial mode / zero-delegate runtimes: everything runs inline.
            return Route {
                executor: Executor::Program,
                fresh_pin: false,
                fast_hit: false,
            };
        }
        let pure = self.static_assignment || self.pure;
        let serial = d.serial();
        if pure && d.id != 0 {
            return Route {
                executor: self.answer(key, serial, loads),
                fresh_pin: false,
                fast_hit: false,
            };
        }
        if let Some(code) = d.pins.get(key.0, serial) {
            return Route {
                executor: decode(code),
                fresh_pin: false,
                fast_hit: true,
            };
        }
        let mut shard = d.pins.lock_key(key.0);
        let (code, fresh_pin) =
            shard.get_or_insert_with(key.0, serial, || encode(self.answer(key, serial, loads)));
        Route {
            executor: decode(code),
            fresh_pin: fresh_pin && !pure,
            fast_hit: false,
        }
    }

    /// The root program thread's first sight of `key` in an epoch, on the
    /// ring lane: [`route`](Router::route), except that a first touch whose
    /// answer is a delegate `loaded` calls busy is **taken** — pinned to the
    /// program executor instead, under the set's shard lock, unless a
    /// nested first touch pinned the set first (the one who comes first
    /// owns it for the epoch). A take is a fresh pin. Static assignment and
    /// pure policies push without a pin: a nested first touch pins the
    /// same answer.
    pub(crate) fn route_first_sight(
        &self,
        d: &Domain,
        key: SsId,
        loads: &DelegateLoads<'_>,
        loaded: impl FnOnce(usize) -> bool,
    ) -> Route {
        if self.topology.n_delegates == 0 {
            return self.route(d, key, loads);
        }
        let serial = d.serial();
        let take = |executor| match executor {
            Executor::Delegate(i) if loaded(i) => Executor::Program,
            executor => executor,
        };
        let (code, fresh_pin) = if self.static_assignment || self.pure {
            let answer = self.answer(key, serial, loads);
            if take(answer) != Executor::Program {
                return Route {
                    executor: answer,
                    fresh_pin: false,
                    fast_hit: false,
                };
            }
            let mut shard = d.pins.lock_key(key.0);
            shard.get_or_insert_with(key.0, serial, || encode(Executor::Program))
        } else {
            if let Some(code) = d.pins.get(key.0, serial) {
                return Route {
                    executor: decode(code),
                    fresh_pin: false,
                    fast_hit: true,
                };
            }
            let mut shard = d.pins.lock_key(key.0);
            shard.get_or_insert_with(key.0, serial, || {
                encode(take(self.assign(key, serial, loads)))
            })
        };
        Route {
            executor: decode(code),
            fresh_pin,
            fast_hit: false,
        }
    }

    /// Resolves `key` and, if it routes to delegate `i`, runs
    /// `publish(i)` (the queue push plus its accounting) inside the set's
    /// shard critical section — the stealing transport's submit. Holding
    /// the shard lock across the push is what keeps a concurrent steal
    /// (which locks the same shard of the same domain's map) from
    /// migrating the set mid-publish; see the module docs, mode 2.
    ///
    /// Program-routed sets skip `publish` (no queue; the caller runs the
    /// task inline *after* the lock drops — no user code under a shard
    /// lock). Stealing always pins, even under pure policies: a steal
    /// must be able to override the policy's answer for the epoch.
    pub(crate) fn route_publish(
        &self,
        d: &Domain,
        key: SsId,
        loads: &DelegateLoads<'_>,
        publish: impl FnOnce(usize),
    ) -> Route {
        let serial = d.serial();
        let mut shard = d.pins.lock_key(key.0);
        let (code, fresh_pin) =
            shard.get_or_insert_with(key.0, serial, || encode(self.assign(key, serial, loads)));
        let executor = decode(code);
        if let Executor::Delegate(i) = executor {
            publish(i);
        }
        Route {
            executor,
            fresh_pin,
            fast_hit: false,
        }
    }

    /// Resolves the *current* pin of `key` (falling back to `fallback`
    /// when the set has no pin this epoch) and runs `f` with the answer
    /// while still holding the set's shard lock — the reclaim path's
    /// fence placement, which must be atomic with respect to a steal
    /// migrating the set out from under the token.
    pub(crate) fn with_current_pin<R>(
        &self,
        d: &Domain,
        key: SsId,
        fallback: Executor,
        f: impl FnOnce(Executor) -> R,
    ) -> R {
        let shard = d.pins.lock_key(key.0);
        let executor = shard.get(key.0, d.serial()).map(decode).unwrap_or(fallback);
        f(executor)
    }

    /// Read-only, **non-blocking** pin resolution — the future-wait
    /// deadlock detector's view of the routing state. Never creates
    /// pins, never waits on a shard writer (lock-free probe, `try_lock`
    /// overflow fallback): `Some(None)` for an unpinned set, and `None`
    /// whenever the truth is not observable without blocking. The
    /// detector reads `None` as *unknown* and walks again, without
    /// parking.
    pub(crate) fn peek(
        &self,
        d: &Domain,
        key: SsId,
        loads: &DelegateLoads<'_>,
    ) -> Option<Option<Executor>> {
        if self.topology.n_delegates == 0 {
            return Some(Some(Executor::Program));
        }
        if (self.static_assignment || self.pure) && !self.always_pin && d.id == 0 {
            // A root set may have been taken (or first touched by a
            // nested submit): its pin wins over the policy's answer.
            if let Some(code) = d.pins.read_nonblocking(key.0, d.serial())? {
                return Some(Some(decode(code)));
            }
        }
        if self.static_assignment {
            return Some(Some(static_executor(key, &self.topology)));
        }
        if self.pure && !self.always_pin {
            // Pure ⇒ side-effect-free recomputation, but the policy box
            // still sits behind the mutex; try_lock keeps the
            // non-blocking contract when a first touch is mid-flight.
            let mut scheduler = self.scheduler.try_lock()?;
            let executor = scheduler.assign_raw(key, d.serial(), &self.topology, loads);
            return Some(Some(executor));
        }
        let pin = d.pins.read_nonblocking(key.0, d.serial())?;
        Some(pin.map(decode))
    }

    /// Migrates `candidates` (keys of domain `d`) from executor `from` to
    /// executor `to`, with `transfer` performing the actual queue surgery
    /// (remove the batches from the victim, land them on the thief) under
    /// the candidates' shard locks. `transfer` receives the candidates
    /// that are still pinned to `from` (another thief may have won a key
    /// in the window before the locks were taken) and returns the keys it
    /// actually removed — only those are re-pinned. Returns the migrated
    /// keys.
    ///
    /// `repin: false` moves the batches but leaves the victim's pin in
    /// place — only the `cross_session_pin_leak` chaos knob passes it, to
    /// model a thief that republishes the pin in the wrong domain's
    /// namespace (see [`leak_pin`](Router::leak_pin)). The tenant's
    /// auditor must then see the set execute on two executors.
    pub(crate) fn migrate_keys(
        &self,
        d: &Domain,
        candidates: &[u64],
        from: Executor,
        to: Executor,
        repin: bool,
        transfer: impl FnOnce(&[u64]) -> Vec<u64>,
    ) -> Vec<u64> {
        if candidates.is_empty() {
            return Vec::new();
        }
        let serial = d.serial();
        let from_code = encode(from);
        let mut shards = d.pins.lock_keys(candidates);
        let valid: Vec<u64> = candidates
            .iter()
            .copied()
            .filter(|&key| shards.get(key, serial) == Some(from_code))
            .collect();
        if valid.is_empty() {
            return Vec::new();
        }
        let taken = transfer(&valid);
        if repin {
            let to_code = encode(to);
            for &key in &taken {
                shards.set(key, serial, to_code);
            }
        }
        taken
    }

    /// Chaos hook for `cross_session_pin_leak`: publishes a stolen
    /// session key's new pin into the **root** map (the wrong namespace)
    /// instead of the owning session's, stamped with the root serial so
    /// it even looks healthy there. The owning session's routing never
    /// reads the root map, so its stale victim pin keeps routing later
    /// same-set submits to the victim while the stolen batch runs on the
    /// thief — the two-executor overlap the per-session auditor exists to
    /// catch.
    #[cfg(feature = "chaos")]
    pub(crate) fn leak_pin(&self, root: &Domain, key: u64, to: Executor) {
        let mut shard = root.pins.lock_key(key);
        shard.set(key, root.serial(), encode(to));
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("static_assignment", &self.static_assignment)
            .field("pure", &self.pure)
            .field("always_pin", &self.always_pin)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    use super::super::assign::{LeastLoaded, RoundRobinFirstTouch, StaticAssignment};
    use super::*;

    fn topo(n: usize) -> AssignTopology {
        AssignTopology { n_delegates: n }
    }

    /// Counters whose delegate `i` has `values[i]` operations queued.
    fn depths(values: &[u64]) -> StatsCell {
        let stats = StatsCell::new(values.len());
        for (i, &v) in values.iter().enumerate() {
            stats.add_queued(i, v);
        }
        stats
    }

    fn loads_of(stats: &StatsCell) -> DelegateLoads<'_> {
        DelegateLoads {
            stats,
            samples: None,
        }
    }

    fn router(policy: Box<dyn super::super::DelegateAssignment>, n: usize) -> Router {
        Router::new(policy, topo(n), false, false, None)
    }

    /// A root-like domain whose current epoch serial is `serial`.
    fn epoch(serial: u64) -> Domain {
        let e = Domain::new(0, 4, None, Default::default());
        e.epoch_serial.store(serial, Ordering::Relaxed);
        e
    }

    #[test]
    fn pins_are_epoch_stable_for_stateful_policies() {
        // LeastLoaded would migrate a set as depths change; the pin map
        // must hold it on its first-touch executor within one epoch.
        let d = depths(&[0, 4]);
        let r = router(Box::new(LeastLoaded), 2);
        let e = epoch(1);
        let first = r.route(&e, SsId(7), &loads_of(&d));
        assert_eq!(first.executor, Executor::Delegate(0));
        assert!(first.fresh_pin);
        d.add_queued(0, 100);
        let again = r.route(&e, SsId(7), &loads_of(&d));
        assert_eq!(again.executor, Executor::Delegate(0));
        assert!(!again.fresh_pin);
        assert!(again.fast_hit, "second resolution must be lock-free");
        // A *different* set may go elsewhere.
        assert_eq!(
            r.route(&e, SsId(8), &loads_of(&d)).executor,
            Executor::Delegate(1)
        );
    }

    #[test]
    fn repins_only_at_epoch_boundary() {
        let d = depths(&[10, 0]);
        let r = router(Box::new(LeastLoaded), 2);
        let e = epoch(1);
        assert_eq!(
            r.route(&e, SsId(7), &loads_of(&d)).executor,
            Executor::Delegate(1)
        );
        d.add_queued(1, 50);
        // Same epoch: stays.
        assert_eq!(
            r.route(&e, SsId(7), &loads_of(&d)).executor,
            Executor::Delegate(1)
        );
        // New epoch: free to move to the now-shallow delegate 0.
        d.delegate(0).executed.store(10, Ordering::Relaxed);
        e.epoch_serial.store(2, Ordering::Relaxed);
        let moved = r.route(&e, SsId(7), &loads_of(&d));
        assert_eq!(moved.executor, Executor::Delegate(0));
        assert!(moved.fresh_pin);
    }

    #[test]
    fn pure_policies_bypass_the_pin_map_in_sessions() {
        let d = depths(&[0, 0]);
        let r = router(Box::new(StaticAssignment), 2);
        let session = Domain::new(1, 4, None, Default::default());
        session.epoch_serial.store(1, Ordering::Relaxed);
        for ss in 0..10u64 {
            for _ in 0..2 {
                let route = r.route(&session, SsId(ss), &loads_of(&d));
                assert!(!route.fresh_pin && !route.fast_hit);
            }
        }
    }

    #[test]
    fn a_take_and_a_nested_first_touch_serialize_on_the_pin() {
        let d = depths(&[0, 0]);
        for static_assignment in [true, false] {
            let r = Router::new(
                Box::new(StaticAssignment),
                topo(2),
                static_assignment,
                false,
                None,
            );
            let e = epoch(1);
            // A loaded ring: the program thread takes set 3, with a pin.
            let taken = r.route_first_sight(&e, SsId(3), &loads_of(&d), |_| true);
            assert_eq!((taken.executor, taken.fresh_pin), (Executor::Program, true));
            // A nested submit resolves through the pin, not the modulo.
            assert_eq!(
                r.route(&e, SsId(3), &loads_of(&d)).executor,
                Executor::Program
            );
            assert_eq!(
                r.peek(&e, SsId(3), &loads_of(&d)),
                Some(Some(Executor::Program))
            );
            // A nested first touch comes first: the set stays on its
            // delegate however loaded the ring is.
            let nested = r.route(&e, SsId(4), &loads_of(&d));
            assert_eq!(
                (nested.executor, nested.fresh_pin),
                (Executor::Delegate(0), false)
            );
            let late = r.route_first_sight(&e, SsId(4), &loads_of(&d), |_| true);
            assert_eq!(late.executor, Executor::Delegate(0));
            // An unloaded ring pushes without a pin.
            let pushed = r.route_first_sight(&e, SsId(5), &loads_of(&d), |_| false);
            assert_eq!(pushed.executor, Executor::Delegate(1));
            assert_eq!(
                r.peek(&e, SsId(5), &loads_of(&d)),
                Some(Some(Executor::Delegate(1)))
            );
        }
    }

    #[test]
    fn round_robin_is_epoch_stable_through_the_router() {
        let d = depths(&[0, 0, 0]);
        let r = router(Box::new(RoundRobinFirstTouch::default()), 3);
        let e = epoch(3);
        let first = r.route(&e, SsId(5), &loads_of(&d)).executor;
        for _ in 0..5 {
            r.route(&e, SsId(1), &loads_of(&d));
            r.route(&e, SsId(2), &loads_of(&d));
            assert_eq!(r.route(&e, SsId(5), &loads_of(&d)).executor, first);
        }
    }

    #[test]
    fn route_publish_runs_the_publish_under_the_pin() {
        let d = depths(&[0, 0]);
        let r = Router::new(
            Box::new(RoundRobinFirstTouch::default()),
            topo(2),
            false,
            true,
            None,
        );
        let e = epoch(1);
        let mut published = None;
        let route = r.route_publish(&e, SsId(3), &loads_of(&d), |i| published = Some(i));
        assert_eq!(published.map(Executor::Delegate), Some(route.executor));
        assert!(route.fresh_pin);
        // Second publish reuses the pin.
        let mut again = None;
        let route2 = r.route_publish(&e, SsId(3), &loads_of(&d), |i| again = Some(i));
        assert!(!route2.fresh_pin);
        assert_eq!(again.map(Executor::Delegate), Some(route.executor));
    }

    #[test]
    fn migrate_rewrites_only_taken_keys_still_pinned_to_victim() {
        let d = depths(&[0, 0, 0]);
        let r = Router::new(
            Box::new(RoundRobinFirstTouch::default()),
            topo(3),
            false,
            true,
            None,
        );
        let e = epoch(1);
        // Pin three sets to whatever the policy says, then force them
        // all onto delegate 0 by routing with a fresh map state.
        for ss in [10u64, 11, 12] {
            r.route_publish(&e, SsId(ss), &loads_of(&d), |_| {});
        }
        let pins: Vec<Executor> = [10u64, 11, 12]
            .iter()
            .map(|&ss| r.peek(&e, SsId(ss), &loads_of(&d)).flatten().unwrap())
            .collect();
        let victim = pins[0];
        let victims: Vec<u64> = [10u64, 11, 12]
            .iter()
            .zip(&pins)
            .filter(|(_, &p)| p == victim)
            .map(|(&ss, _)| ss)
            .collect();
        // Ask to migrate all three candidates; transfer only takes the
        // first valid one.
        let taken = r.migrate_keys(
            &e,
            &[10, 11, 12],
            victim,
            Executor::Delegate(2),
            true,
            |valid| {
                assert_eq!(valid, victims.as_slice());
                vec![valid[0]]
            },
        );
        assert_eq!(taken, vec![victims[0]]);
        assert_eq!(
            r.peek(&e, SsId(victims[0]), &loads_of(&d)),
            Some(Some(Executor::Delegate(2)))
        );
        // Untaken keys keep their pins.
        for (&ss, &pin) in [10u64, 11, 12].iter().zip(&pins).skip(1) {
            assert_eq!(r.peek(&e, SsId(ss), &loads_of(&d)), Some(Some(pin)));
        }
    }

    fn cost_aware_router(book: &Arc<CostBook>) -> Router {
        Router::new(
            Box::new(RoundRobinFirstTouch::default()),
            topo(2),
            false,
            true,
            Some(Arc::clone(book)),
        )
    }

    #[test]
    fn queued_cost_prices_the_queue_depth() {
        let book = Arc::new(CostBook::new());
        book.observe(7, 2_000);
        let r = cost_aware_router(&book);
        assert!(r.cost_aware());
        // One tracked set at 2µs → typical = 2000; the price is depth ×
        // typical, at read time.
        let stats = depths(&[3, 0]);
        stats.add_queued(0, 1);
        assert_eq!(r.queued_cost(&stats, 0), 4 * 2_000);
        assert_eq!(r.queued_cost(&stats, 1), 0);
        // A completion, on whichever path the delegate ran it.
        StatsCell::bump(&stats.delegate(0).executed);
        assert_eq!(r.queued_cost(&stats, 0), 3 * 2_000);
        // A steal moves depth, not executions.
        stats.move_queued(0, 1, 2);
        assert_eq!(r.queued_cost(&stats, 0), 2_000);
        assert_eq!(r.queued_cost(&stats, 1), 2 * 2_000);
        StatsCell::bump(&stats.delegate(0).executed);
        stats.delegate(1).executed.store(2, Ordering::Relaxed);
        assert_eq!(r.queued_cost(&stats, 0), 0);
        assert_eq!(r.queued_cost(&stats, 1), 0);
    }

    #[test]
    fn queued_cost_reprices_with_the_live_model() {
        // The starvation case read-time pricing exists for: a deep
        // backlog queued while the model thought operations cheap must
        // not price below one typical operation after the EWMA learns
        // they are expensive — the depth is the thief's only view of the
        // victim's remaining work, and the imbalance bar is one typical
        // op. Charging estimated nanoseconds at publish time freezes the
        // warm-up price; a depth priced at read time tracks the model
        // wherever it drifts.
        let book = Arc::new(CostBook::new());
        book.observe(7, 1_000);
        let r = cost_aware_router(&book);
        let stats = depths(&[500, 0]); // queued while ops look like ~1µs
        let warm_price = r.queued_cost(&stats, 0);
        // The model learns the ops actually cost ~100µs each.
        for _ in 0..64 {
            book.observe(7, 100_000);
        }
        stats.delegate(0).executed.store(5, Ordering::Relaxed);
        let live_price = r.queued_cost(&stats, 0);
        let typical = (book.typical() as u64).max(1);
        assert_eq!(live_price, 495 * typical);
        assert!(
            live_price > warm_price && live_price > 100 * typical,
            "backlog stuck at its warm-up price: {live_price} \
             (warm {warm_price}, typical {typical})"
        );
    }

    #[test]
    fn prices_are_unit_without_a_book() {
        let r = router(Box::new(RoundRobinFirstTouch::default()), 2);
        assert!(!r.cost_aware());
        r.observe_cost(7, 1_000); // no model to feed
        assert_eq!(r.queued_cost(&depths(&[5, 0]), 0), 5);
        assert_eq!(r.cost_estimate(7), 1);
        assert_eq!(r.cost_typical(), 1);
    }

    #[test]
    fn peek_never_blocks_while_a_first_touch_is_stuck_in_the_policy() {
        // A policy that blocks inside assign() holds the scheduler mutex
        // and a shard lock; a concurrent peek must still return (with a
        // conservative answer), never wait. This is the deadlock
        // detector's liveness contract.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        #[derive(Debug)]
        struct Stuck {
            entered: Arc<AtomicBool>,
            release: Arc<AtomicBool>,
        }
        impl super::super::DelegateAssignment for Stuck {
            fn name(&self) -> &'static str {
                "stuck"
            }
            fn assign(&mut self, _: SsId, _: &AssignTopology, _: &DelegateLoads<'_>) -> Executor {
                self.entered.store(true, Ordering::Release);
                while !self.release.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                Executor::Delegate(0)
            }
        }

        let entered = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let r = Arc::new(router(
            Box::new(Stuck {
                entered: Arc::clone(&entered),
                release: Arc::clone(&release),
            }),
            2,
        ));
        let e = Arc::new(epoch(1));
        let (r2, e2) = (Arc::clone(&r), Arc::clone(&e));
        let blocker = std::thread::spawn(move || {
            let d = depths(&[0, 0]);
            r2.route(&e2, SsId(1), &loads_of(&d));
        });
        while !entered.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        // The first touch of set 1 is wedged inside the policy. Peeks —
        // same set, different set, any shard — must all return promptly.
        let d = depths(&[0, 0]);
        let peeker = std::thread::spawn(move || {
            for ss in 0..200u64 {
                let _ = r.peek(&e, SsId(ss), &loads_of(&d));
            }
        });
        peeker.join().expect("peek blocked behind a shard writer");
        release.store(true, Ordering::Release);
        blocker.join().unwrap();
    }
}
