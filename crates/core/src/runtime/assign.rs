//! Delegate assignment: mapping serialization sets to executors.
//!
//! The paper uses **static assignment** — `SsId mod delegates` (§4; its
//! virtual delegates and program-thread share give way here to the
//! program thread's load-chosen takes, `docs/POLICIES.md`). Static
//! assignment is zero-coordination (any thread could compute it from the
//! id alone) but trades away load balance: under a skewed set
//! distribution a few delegates receive most of the work while others
//! idle.
//!
//! This module makes the mapping a pluggable layer. A
//! [`DelegateAssignment`] policy decides, at the *first* delegation of a
//! set in an isolation epoch, which executor owns the set; the runtime's
//! routing layer ([`router`](super::Router)) then **pins** that decision
//! — in a sharded, epoch-stamped pin map — for the remainder of the
//! epoch. Epoch stability is the correctness invariant: all operations
//! of one set must land in one FIFO queue so they execute in program
//! order, and the `end_isolation` barrier (which drains every queue) is
//! the only point where re-routing a set is safe. Pins therefore expire
//! only at epoch boundaries — lazily, per shard, when the first write of
//! the new epoch reaches the shard — never mid-epoch.
//!
//! Four built-in policies ship with the runtime (selectable via
//! [`RuntimeBuilder::assignment`](crate::RuntimeBuilder::assignment)):
//!
//! * [`StaticAssignment`] — the paper's default, bit-for-bit the seed
//!   behaviour. Pure (stateless), so the runtime skips the pin map.
//! * [`RoundRobinFirstTouch`] — first-touch order round-robins over the
//!   executors; robust to clustered id spaces (e.g. object serializers
//!   whose addresses share alignment, which alias badly under modulo).
//! * [`LeastLoaded`] — pins a first-seen set to the delegate with the
//!   shallowest queue at that instant, using the queue depths the
//!   runtime's counters keep (the ones
//!   [`Stats::queue_depths`](crate::Stats::queue_depths) reports).
//! * [`EwmaCost`] — pins a first-seen set to the delegate with the least
//!   *estimated committed cost*, where each set's cost is an
//!   exponentially-weighted moving average of its operations' observed
//!   runtimes (fed back from the delegate threads between epochs). Depth
//!   counts treat a 100 µs operation and a 100 ns one alike; cost
//!   estimates do not.

use std::collections::HashMap;

use parking_lot::Mutex;
use ss_queue::StealDeque;

use crate::config::StealPlan;
use crate::invocation::Invocation;
use crate::serializer::SsId;
use crate::stats::StatsCell;

/// Which executor runs a serialization set.
///
/// Returned by [`DelegateAssignment::assign`]; also used internally to
/// route every delegated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Executor {
    /// Inline on the program thread.
    Program,
    /// Delegate thread with this index.
    Delegate(usize),
}

/// The executor topology a policy assigns over.
#[derive(Debug, Clone, Copy)]
pub struct AssignTopology {
    /// Number of delegate threads (≥ 1 when a policy is consulted;
    /// zero-delegate runtimes bypass assignment entirely).
    pub n_delegates: usize,
}

/// A per-delegate buffer of `(set id, observed runtime in nanoseconds)`
/// samples, filled by the executing delegate and drained by cost-aware
/// assignment policies. Each buffer is touched by exactly one delegate
/// thread plus the (serialized) policy, so the mutexes are uncontended in
/// steady state.
pub(crate) type CostSamples = [Mutex<Vec<(u64, u64)>>];

/// Read-only view of per-delegate load, sampled at assignment time.
///
/// A delegate's depth counts the *delegated operations* enqueued on it or
/// executing there (synchronization tokens are not counted). It is read,
/// not kept: operations ever queued on the delegate — raised by every
/// submitter before its push, moved along by steals — minus the ones the
/// delegate has finished, which only the delegate itself counts. Each
/// reading is racy by design — delegates drain concurrently, and the two
/// counters are loaded one after the other (a reading that would go below
/// zero reads 0) — but a stale read only costs balance, never
/// correctness, because the chosen executor is pinned for the epoch
/// either way.
pub struct DelegateLoads<'a> {
    pub(crate) stats: &'a StatsCell,
    /// Observed-runtime sample buffers, present only when the active
    /// policy asked for cost feedback
    /// ([`DelegateAssignment::wants_cost_feedback`]).
    pub(crate) samples: Option<&'a CostSamples>,
}

impl DelegateLoads<'_> {
    /// Number of delegates with tracked load.
    pub fn delegates(&self) -> usize {
        self.stats.delegates()
    }

    /// Current queue depth of delegate `i` (enqueued + executing).
    pub fn queue_depth(&self, i: usize) -> u64 {
        self.stats.queue_depth(i)
    }

    /// Index of the delegate with the shallowest queue (lowest index on
    /// ties); `None` when there are no delegates.
    pub fn shallowest(&self) -> Option<usize> {
        (0..self.delegates()).min_by_key(|&i| (self.queue_depth(i), i))
    }

    /// Drains every pending `(set, runtime ns)` cost sample into `f`.
    /// No-op unless the active policy requested cost feedback. Samples
    /// arrive roughly in completion order per delegate; cross-delegate
    /// order is unspecified (EWMA folding is order-insensitive enough).
    pub fn drain_cost_samples(&self, mut f: impl FnMut(u64, u64)) {
        let Some(buffers) = self.samples else {
            return;
        };
        for buffer in buffers {
            for (set, nanos) in buffer.lock().drain(..) {
                f(set, nanos);
            }
        }
    }
}

/// A delegate-assignment policy: maps a serialization set to the executor
/// that will own it for the current isolation epoch.
///
/// The runtime consults the policy **once per set per epoch** (first
/// touch) and pins the answer until `end_isolation`; policies therefore
/// never see the same set twice within an epoch unless
/// [`is_pure`](DelegateAssignment::is_pure) is true. Policy calls are
/// always *serialized* (they happen under the routing layer's policy
/// mutex), but with recursive delegation a first touch can originate on a
/// delegate thread — so a policy may be consulted from different threads
/// over its life, never concurrently. `Send` covers that migration; no
/// synchronization is needed inside a policy.
///
/// ```
/// use ss_core::{AssignTopology, DelegateAssignment, DelegateLoads, Executor, SsId};
///
/// /// Everything on delegate 0 — a deliberately terrible policy.
/// #[derive(Debug)]
/// struct Pinhole;
/// impl DelegateAssignment for Pinhole {
///     fn name(&self) -> &'static str { "pinhole" }
///     fn assign(&mut self, _: SsId, _: &AssignTopology, _: &DelegateLoads<'_>) -> Executor {
///         Executor::Delegate(0)
///     }
/// }
/// ```
pub trait DelegateAssignment: Send + std::fmt::Debug + 'static {
    /// Short identifier used in traces, stats and bench output.
    fn name(&self) -> &'static str;

    /// True when `assign` is a pure function of `(ss, topology)` — the
    /// runtime then skips the per-epoch pin map (static assignment is
    /// already epoch-stable by construction). Read once at runtime
    /// construction; the answer must not change over the policy's life.
    fn is_pure(&self) -> bool {
        false
    }

    /// True when the runtime should measure delegated operations'
    /// runtimes and expose them to [`assign`](DelegateAssignment::assign)
    /// via [`DelegateLoads::drain_cost_samples`]. Costs one
    /// clock read + one uncontended buffer push per executed operation,
    /// so it is opt-in. Read once at runtime construction.
    fn wants_cost_feedback(&self) -> bool {
        false
    }

    /// Called with the new epoch serial immediately before the *first*
    /// `assign` of that epoch. The call is lazy: epochs that delegate
    /// nothing never reach the policy at all, so serials may skip values
    /// — treat the argument as an identifier, not a counter.
    fn begin_epoch(&mut self, _serial: u64) {}

    /// Chooses the owning executor for `ss`. `topology.n_delegates ≥ 1`
    /// is guaranteed; returning `Executor::Delegate(i)` with
    /// `i ≥ n_delegates` is a contract violation (debug-asserted by the
    /// runtime).
    fn assign(
        &mut self,
        ss: SsId,
        topology: &AssignTopology,
        loads: &DelegateLoads<'_>,
    ) -> Executor;
}

/// The paper's static assignment: `ss mod n_delegates` (§4). Pure and
/// zero-coordination.
#[derive(Debug, Default, Clone, Copy)]
pub struct StaticAssignment;

/// Shared by [`StaticAssignment`] and the runtime's inline fast path: the
/// exact seed routing function.
pub(crate) fn static_executor(ss: SsId, topo: &AssignTopology) -> Executor {
    Executor::Delegate((ss.0 % topo.n_delegates as u64) as usize)
}

impl DelegateAssignment for StaticAssignment {
    fn name(&self) -> &'static str {
        "static"
    }

    fn is_pure(&self) -> bool {
        true
    }

    fn assign(&mut self, ss: SsId, topo: &AssignTopology, _: &DelegateLoads<'_>) -> Executor {
        static_executor(ss, topo)
    }
}

/// First-touch round-robin: the `k`-th *distinct* set of the runtime's
/// lifetime goes to delegate `k mod n_delegates`. Immune to id-space
/// aliasing.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoundRobinFirstTouch {
    next: usize,
}

impl DelegateAssignment for RoundRobinFirstTouch {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn assign(&mut self, _ss: SsId, topo: &AssignTopology, _: &DelegateLoads<'_>) -> Executor {
        let slot = self.next % topo.n_delegates;
        self.next = (slot + 1) % topo.n_delegates;
        Executor::Delegate(slot)
    }
}

/// Depth-aware first touch: a first-seen set is pinned to the delegate
/// with the shallowest queue at that instant. Under skewed set
/// distributions this keeps hot sets from stacking onto one delegate the
/// way modulo hashing can.
#[derive(Debug, Default, Clone, Copy)]
pub struct LeastLoaded;

impl DelegateAssignment for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn assign(&mut self, _ss: SsId, topo: &AssignTopology, loads: &DelegateLoads<'_>) -> Executor {
        debug_assert_eq!(loads.delegates(), topo.n_delegates);
        Executor::Delegate(loads.shallowest().unwrap_or(0))
    }
}

/// Smoothing factor for [`EwmaCost`]: weight of the newest observation.
const EWMA_ALPHA: f64 = 0.25;

/// Fallback cost (ns) for sets never observed before, used until the
/// policy has any real observations to average instead.
const EWMA_DEFAULT_COST: f64 = 1_000.0;

/// Cap on the per-set cost map. Workloads that mint fresh set ids
/// forever (new `Writable`s every epoch) would otherwise grow it without
/// bound; beyond the cap, new sets are not tracked individually and just
/// cost the typical estimate — placement degrades gracefully to
/// count-balanced for the untracked tail.
const EWMA_MAX_TRACKED_SETS: usize = 65_536;

/// Cost-aware first touch (the ROADMAP's "assignment driven by observed
/// per-set cost"): each set's operations' runtimes feed an
/// exponentially-weighted moving average, and a first-seen set is pinned
/// to the delegate with the least cost *committed to it so far this
/// epoch*. Costs survive epoch boundaries (the whole point: epoch `n+1`
/// places the sets epoch `n` measured), while the committed-cost tally
/// resets per epoch. Sets never seen before cost the running mean of all
/// known sets (or a nominal 1 µs before any observation exists), which
/// degrades gracefully to count-balanced placement.
#[derive(Debug, Default)]
pub struct EwmaCost {
    /// Per-set EWMA of observed runtimes, in nanoseconds. Bounded by
    /// [`EWMA_MAX_TRACKED_SETS`].
    cost: HashMap<u64, f64>,
    /// Running sum of `cost`'s values, maintained incrementally so the
    /// typical-cost estimate is O(1) at assignment time (assignments run
    /// inside the routing critical section — no O(#sets) scans there).
    cost_sum: f64,
    /// Cost committed to each delegate in the current epoch.
    committed: Vec<f64>,
}

impl EwmaCost {
    fn fold_sample(&mut self, set: u64, nanos: u64) {
        let observed = nanos as f64;
        if let Some(estimate) = self.cost.get_mut(&set) {
            let delta = EWMA_ALPHA * (observed - *estimate);
            *estimate += delta;
            self.cost_sum += delta;
        } else if self.cost.len() < EWMA_MAX_TRACKED_SETS {
            self.cost.insert(set, observed);
            self.cost_sum += observed;
        }
        // Beyond the cap, new sets stay untracked and cost the typical
        // estimate — bounded memory over unbounded set churn.
    }

    /// Estimated cost of a set with no history: the mean of the known
    /// estimates (new sets in a workload tend to resemble old ones), or
    /// the nominal default before any observation. O(1) — see
    /// [`EwmaCost::cost_sum`].
    fn typical_cost(&self) -> f64 {
        if self.cost.is_empty() {
            EWMA_DEFAULT_COST
        } else {
            self.cost_sum / self.cost.len() as f64
        }
    }
}

impl DelegateAssignment for EwmaCost {
    fn name(&self) -> &'static str {
        "ewma-cost"
    }

    fn wants_cost_feedback(&self) -> bool {
        true
    }

    fn begin_epoch(&mut self, _serial: u64) {
        for c in &mut self.committed {
            *c = 0.0;
        }
    }

    fn assign(&mut self, ss: SsId, topo: &AssignTopology, loads: &DelegateLoads<'_>) -> Executor {
        loads.drain_cost_samples(|set, nanos| self.fold_sample(set, nanos));
        self.committed.resize(topo.n_delegates, 0.0);
        let estimate = self
            .cost
            .get(&ss.0)
            .copied()
            .unwrap_or_else(|| self.typical_cost());
        let target = self
            .committed
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        self.committed[target] += estimate;
        Executor::Delegate(target)
    }
}

/// Number of shards in the [`CostBook`] (keys spread by Fibonacci hash,
/// so delegates observing costs concurrently rarely contend).
const COST_BOOK_SHARDS: usize = 8;

/// One [`CostBook`] shard: per-set EWMA estimates plus their running sum
/// (for the O(1) typical-cost fallback, mirroring [`EwmaCost::cost_sum`]).
#[derive(Default)]
struct BookShard {
    cost: HashMap<u64, f64>,
    sum: f64,
}

/// The steal-pricing cost model behind
/// [`StealPolicy::CostAware`](crate::StealPolicy::CostAware): a shared,
/// sharded table of per-set operation-cost EWMAs, fed by every delegate
/// as it completes operations and read by thieves pricing victim queues
/// and sizing steals. The same model [`EwmaCost`] keeps privately for
/// first-touch *placement*, graduated to a concurrently-readable
/// structure so steal decisions can price work without the routing
/// policy mutex.
///
/// Same constants as [`EwmaCost`]: `EWMA_ALPHA` smoothing, the nominal
/// default before any observation, and a bounded per-shard map (untracked
/// sets cost the typical estimate — graceful degradation, never growth).
pub(crate) struct CostBook {
    shards: Box<[Mutex<BookShard>]>,
}

impl CostBook {
    pub(crate) fn new() -> Self {
        CostBook {
            shards: (0..COST_BOOK_SHARDS)
                .map(|_| Mutex::new(BookShard::default()))
                .collect(),
        }
    }

    fn shard(&self, set: u64) -> &Mutex<BookShard> {
        // Fibonacci hash, high bits — same spreading trick as the
        // auditor's shards.
        let h = (set.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61) as usize;
        &self.shards[h & (COST_BOOK_SHARDS - 1)]
    }

    /// Folds one observed runtime into the set's EWMA (capped like
    /// [`EwmaCost`]: beyond the cap, new sets stay untracked).
    pub(crate) fn observe(&self, set: u64, nanos: u64) {
        let observed = nanos as f64;
        let mut s = self.shard(set).lock();
        if let Some(estimate) = s.cost.get_mut(&set) {
            let delta = EWMA_ALPHA * (observed - *estimate);
            *estimate += delta;
            s.sum += delta;
        } else if s.cost.len() < EWMA_MAX_TRACKED_SETS / COST_BOOK_SHARDS {
            s.cost.insert(set, observed);
            s.sum += observed;
        }
    }

    /// Estimated cost (ns) of one operation of `set`: its EWMA, or the
    /// typical cost for sets never observed.
    pub(crate) fn estimate(&self, set: u64) -> f64 {
        let known = { self.shard(set).lock().cost.get(&set).copied() };
        known.unwrap_or_else(|| self.typical())
    }

    /// Mean of all known estimates (the cost of an unobserved set), or
    /// the nominal default before any observation exists.
    pub(crate) fn typical(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for shard in self.shards.iter() {
            let s = shard.lock();
            sum += s.sum;
            n += s.cost.len();
        }
        if n == 0 {
            EWMA_DEFAULT_COST
        } else {
            sum / n as f64
        }
    }
}

/// The assignment policy and its epoch bookkeeping, shared by all
/// routing paths behind the [`Router`](super::Router)'s policy mutex.
///
/// Pins live in each domain's sharded
/// [`ShardMap`](ss_queue::shardmap::ShardMap), not here, so the
/// scheduler mutex is held only for actual policy consultations
/// (first touches and pure-policy recomputations) — never on the
/// re-delegate-to-a-pinned-set hot path.
pub(crate) struct Scheduler {
    policy: Box<dyn DelegateAssignment>,
    /// Epoch serial of the last `begin_epoch` notification (lazy — an
    /// epoch that assigns nothing never notifies the policy).
    epoch_seen: u64,
}

impl Scheduler {
    pub(crate) fn new(policy: Box<dyn DelegateAssignment>) -> Self {
        Scheduler {
            policy,
            epoch_seen: 0,
        }
    }

    /// Consults the policy for `ss` in epoch `serial`, notifying
    /// `begin_epoch` exactly once per (assigning) epoch. The caller pins
    /// the answer; the scheduler itself keeps no per-set state.
    pub(crate) fn assign_raw(
        &mut self,
        ss: SsId,
        serial: u64,
        topo: &AssignTopology,
        loads: &DelegateLoads<'_>,
    ) -> Executor {
        if self.epoch_seen != serial {
            self.epoch_seen = serial;
            self.policy.begin_epoch(serial);
        }
        let executor = self.policy.assign(ss, topo, loads);
        if let Executor::Delegate(i) = executor {
            debug_assert!(
                i < topo.n_delegates,
                "policy returned delegate {i} of {}",
                topo.n_delegates
            );
        }
        executor
    }
}

// ----------------------------------------------------------------------
// work stealing (the stealing-mode transport state)

/// Everything the stealing mode shares between the program thread and the
/// delegate threads: one [`StealDeque`] per delegate (replacing the SPSC
/// channels) and the plan every thief steals by. Routing state — the
/// sharded pin map and the assignment policy — lives in the shared
/// [`Router`](super::Router), which thieves also hold; delegate-side
/// trace events live in the runtime's shared `Core`.
pub(crate) struct StealShared {
    pub(crate) deques: Box<[StealDeque<Invocation>]>,
    pub(crate) plan: StealPlan,
}

impl StealShared {
    pub(crate) fn new(n_delegates: usize, plan: StealPlan) -> Self {
        StealShared {
            deques: (0..n_delegates).map(|_| StealDeque::new()).collect(),
            plan,
        }
    }

    /// Epoch reset: forget started sets so the next epoch re-routes (and
    /// re-steals) freely. Only sound when every deque has drained (the
    /// `end_isolation` barrier guarantees it). Pins need no reset here —
    /// the router's pin map is epoch-stamped and expires lazily, shard
    /// by shard.
    pub(crate) fn reset_epoch(&self) {
        for d in self.deques.iter() {
            d.begin_epoch();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn topo(n: usize) -> AssignTopology {
        AssignTopology { n_delegates: n }
    }

    fn loads_of(stats: &StatsCell) -> DelegateLoads<'_> {
        DelegateLoads {
            stats,
            samples: None,
        }
    }

    /// Counters whose delegate `i` has `values[i]` operations queued.
    fn depths(values: &[u64]) -> StatsCell {
        let stats = StatsCell::new(values.len());
        for (i, &v) in values.iter().enumerate() {
            stats.add_queued(i, v);
        }
        stats
    }

    #[test]
    fn static_matches_paper_modulo() {
        let t = topo(3);
        let mut p = StaticAssignment;
        let d = depths(&[0, 0, 0]);
        assert_eq!(p.assign(SsId(0), &t, &loads_of(&d)), Executor::Delegate(0));
        assert_eq!(p.assign(SsId(4), &t, &loads_of(&d)), Executor::Delegate(1));
        assert_eq!(p.assign(SsId(2), &t, &loads_of(&d)), Executor::Delegate(2));
        assert_eq!(p.assign(SsId(5), &t, &loads_of(&d)), Executor::Delegate(2));
    }

    #[test]
    fn round_robin_cycles_executors_in_first_touch_order() {
        let t = topo(3);
        let mut p = RoundRobinFirstTouch::default();
        let d = depths(&[0, 0, 0]);
        // Ids are arbitrary — only touch order matters.
        assert_eq!(
            p.assign(SsId(900), &t, &loads_of(&d)),
            Executor::Delegate(0)
        );
        assert_eq!(p.assign(SsId(17), &t, &loads_of(&d)), Executor::Delegate(1));
        assert_eq!(p.assign(SsId(3), &t, &loads_of(&d)), Executor::Delegate(2));
        assert_eq!(p.assign(SsId(42), &t, &loads_of(&d)), Executor::Delegate(0));
    }

    #[test]
    fn least_loaded_picks_shallowest_queue_with_stable_ties() {
        let t = topo(3);
        let mut p = LeastLoaded;
        let d = depths(&[5, 2, 2]);
        assert_eq!(p.assign(SsId(1), &t, &loads_of(&d)), Executor::Delegate(1));
        d.add_queued(1, 7);
        assert_eq!(p.assign(SsId(2), &t, &loads_of(&d)), Executor::Delegate(2));
        d.add_queued(2, 7);
        d.delegate(0).executed.store(5, Ordering::Relaxed);
        assert_eq!(p.assign(SsId(3), &t, &loads_of(&d)), Executor::Delegate(0));
    }

    #[test]
    fn scheduler_notifies_begin_epoch_once_per_epoch() {
        #[derive(Debug, Default)]
        struct Counting {
            begins: Vec<u64>,
        }
        impl DelegateAssignment for Counting {
            fn name(&self) -> &'static str {
                "counting"
            }
            fn begin_epoch(&mut self, serial: u64) {
                self.begins.push(serial);
            }
            fn assign(&mut self, _: SsId, _: &AssignTopology, _: &DelegateLoads<'_>) -> Executor {
                Executor::Delegate(0)
            }
        }
        let t = topo(1);
        let d = depths(&[0]);
        let mut s = Scheduler::new(Box::<Counting>::default());
        s.assign_raw(SsId(1), 3, &t, &loads_of(&d));
        s.assign_raw(SsId(2), 3, &t, &loads_of(&d));
        s.assign_raw(SsId(1), 5, &t, &loads_of(&d)); // epoch 4 assigned nothing
        let policy = s.policy;
        let dbg = format!("{policy:?}");
        assert!(dbg.contains("begins: [3, 5]"), "{dbg}");
    }

    #[test]
    fn ewma_cost_balances_by_estimated_cost_not_count() {
        let t = topo(2);
        let d = depths(&[0, 0]);
        let buffers: Vec<Mutex<Vec<(u64, u64)>>> = (0..2).map(|_| Mutex::new(Vec::new())).collect();
        let mut p = EwmaCost::default();
        // Feed observations from a previous epoch: set 1 is 100x heavier.
        buffers[0].lock().push((1, 100_000));
        buffers[1].lock().push((2, 1_000));
        buffers[1].lock().push((3, 1_000));
        let loads = DelegateLoads {
            stats: &d,
            samples: Some(&buffers),
        };
        p.begin_epoch(7);
        // First touch of the heavy set: lands on delegate 0 (all zero).
        assert_eq!(p.assign(SsId(1), &t, &loads), Executor::Delegate(0));
        // The next two cheap sets must both avoid the loaded delegate —
        // a count-based policy would have alternated.
        assert_eq!(p.assign(SsId(2), &t, &loads), Executor::Delegate(1));
        assert_eq!(p.assign(SsId(3), &t, &loads), Executor::Delegate(1));
        // An unknown set costs the typical estimate, still ≪ the heavy one.
        assert_eq!(p.assign(SsId(9), &t, &loads), Executor::Delegate(1));
    }

    #[test]
    fn ewma_cost_updates_smoothly_and_resets_commitments_per_epoch() {
        let mut p = EwmaCost::default();
        p.fold_sample(5, 1_000);
        p.fold_sample(5, 2_000);
        // 1000 + 0.25 * (2000 - 1000) = 1250.
        assert_eq!(p.cost[&5], 1_250.0);
        let t = topo(2);
        let d = depths(&[0, 0]);
        let loads = loads_of(&d);
        p.begin_epoch(1);
        assert_eq!(p.assign(SsId(5), &t, &loads), Executor::Delegate(0));
        assert_eq!(p.assign(SsId(6), &t, &loads), Executor::Delegate(1));
        // New epoch: commitments cleared, placement starts over.
        p.begin_epoch(2);
        assert_eq!(p.assign(SsId(7), &t, &loads), Executor::Delegate(0));
    }

    #[test]
    fn cost_book_smooths_estimates_and_falls_back_to_typical() {
        let book = CostBook::new();
        assert_eq!(book.typical(), 1_000.0); // nominal default, no history
        book.observe(5, 1_000);
        book.observe(5, 2_000);
        // Same smoothing as EwmaCost: 1000 + 0.25 * (2000 - 1000).
        assert_eq!(book.estimate(5), 1_250.0);
        // An unobserved set prices at the mean of the known estimates.
        book.observe(6, 750);
        assert_eq!(book.estimate(999), (1_250.0 + 750.0) / 2.0);
    }

    #[test]
    fn ewma_cost_requests_feedback_and_others_do_not() {
        assert!(EwmaCost::default().wants_cost_feedback());
        assert!(!StaticAssignment.wants_cost_feedback());
        assert!(!LeastLoaded.wants_cost_feedback());
        assert!(!RoundRobinFirstTouch::default().wants_cost_feedback());
    }

    #[test]
    fn drain_cost_samples_empties_buffers() {
        let buffers: Vec<Mutex<Vec<(u64, u64)>>> = (0..2).map(|_| Mutex::new(Vec::new())).collect();
        buffers[0].lock().push((1, 10));
        buffers[1].lock().push((2, 20));
        let d = depths(&[0, 0]);
        let loads = DelegateLoads {
            stats: &d,
            samples: Some(&buffers),
        };
        let mut seen = Vec::new();
        loads.drain_cost_samples(|s, n| seen.push((s, n)));
        seen.sort_unstable();
        assert_eq!(seen, vec![(1, 10), (2, 20)]);
        assert!(buffers.iter().all(|b| b.lock().is_empty()));
        // Second drain: nothing left.
        loads.drain_cost_samples(|_, _| panic!("buffers were not emptied"));
    }
}
