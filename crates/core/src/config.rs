//! Runtime configuration: delegate-thread count, virtual delegates,
//! assignment ratio, assignment policy, queue capacity, execution mode.
//! How an idle delegate waits is not configurable: it spins, yields, then
//! parks until notified (`docs/POLICIES.md` says why).
//!
//! Mirrors the environment knobs of §4: "The number of delegate threads is
//! one less than the number of processors by default, but may be configured
//! to some other number"; "Virtual delegates allow runtime configuration of
//! the assignment ratio of serialization sets assigned to the program thread
//! and the delegate threads." The [`Assignment`] selector goes beyond the
//! paper: it swaps the set→executor mapping itself (see
//! [`DelegateAssignment`]).

use std::sync::Arc;

use crate::audit::AuditMode;
use crate::runtime::{
    DelegateAssignment, EwmaCost, LeastLoaded, RoundRobinFirstTouch, StaticAssignment,
};

/// Deliberate runtime weakenings used to prove the serializability auditor
/// has teeth (compiled only with the `chaos` feature; see
/// `tests/audit_oracle.rs`). Each knob removes one safeguard the execution
/// model depends on, in a way the auditor MUST catch.
#[cfg(feature = "chaos")]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosKnobs {
    /// Delegates swap the first two queued operations they pop in each
    /// run of their ring — breaking per-set FIFO order.
    pub reorder_drain: bool,
    /// `sync_owner` returns immediately without flushing the owning
    /// delegate's queue — an ownership reclaim without the fence.
    pub skip_reclaim_fence: bool,
    /// Steals migrate queued operations without re-pinning the set to the
    /// thief, so later submits still route to the victim — the same set
    /// executes on two delegates.
    pub steal_no_repin: bool,
    /// Steals of a session-owned set re-pin it in the *wrong* session's
    /// pin namespace (the root domain), so the owning session's later
    /// submits still route to the victim while the stolen batch runs on
    /// the thief — a cross-tenant variant of
    /// [`steal_no_repin`](ChaosKnobs::steal_no_repin) that the
    /// per-session auditor must catch.
    pub cross_session_pin_leak: bool,
    /// Cost-aware thieves skip the quiescence handshake: the queued tail
    /// of a *started* set migrates while the owner may still be executing
    /// an operation of the set, so the same set can run on two delegates
    /// at once and the stolen tail can overtake the owner's in-flight
    /// prefix — the exact races the handshake exists to exclude.
    pub steal_mid_set: bool,
    /// Memoized delegations serve a cached entry even when the set's
    /// generation has been bumped since publication — the result may
    /// derive from inputs invalidated by a non-memoized delegation or a
    /// program-context reclaim. The auditor's memo-hit event carries
    /// both generations, so a stale serve is reported as
    /// `AuditViolation::StaleMemoServe`.
    pub stale_memo_serve: bool,
}

/// Factory closure for custom assignment policies (kept in an `Arc` so
/// builders stay cloneable).
type PolicyFactory = Arc<dyn Fn() -> Box<dyn DelegateAssignment> + Send + Sync>;

/// Which delegate-assignment policy the runtime routes serialization sets
/// with (see [`DelegateAssignment`] for the epoch-stability contract all
/// policies operate under).
#[derive(Clone, Default)]
pub enum Assignment {
    /// The paper's static assignment: `SsId mod virtual_delegates` with a
    /// program-thread share (§4). Zero-coordination; the default.
    #[default]
    Static,
    /// First-touch round-robin over executors (immune to id aliasing).
    RoundRobinFirstTouch,
    /// First-touch pinning to the delegate with the shallowest queue.
    LeastLoaded,
    /// First-touch pinning to the delegate with the least *estimated
    /// committed cost*, where per-set costs are EWMAs of observed
    /// operation runtimes fed back from the delegate threads (see
    /// [`EwmaCost`]). Enables per-operation runtime measurement.
    EwmaCost,
    /// A user-supplied policy, built fresh for each runtime.
    Custom(PolicyFactory),
}

impl Assignment {
    /// Wraps a policy constructor as a custom assignment selector.
    ///
    /// ```
    /// use ss_core::{Assignment, Runtime, StaticAssignment};
    /// let rt = Runtime::builder()
    ///     .delegate_threads(1)
    ///     .assignment(Assignment::custom(|| Box::new(StaticAssignment)))
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(rt.assignment_name(), "static");
    /// ```
    pub fn custom(f: impl Fn() -> Box<dyn DelegateAssignment> + Send + Sync + 'static) -> Self {
        Assignment::Custom(Arc::new(f))
    }

    /// Builds the policy instance for a new runtime.
    pub(crate) fn instantiate(&self) -> Box<dyn DelegateAssignment> {
        match self {
            Assignment::Static => Box::new(StaticAssignment),
            Assignment::RoundRobinFirstTouch => Box::new(RoundRobinFirstTouch::default()),
            Assignment::LeastLoaded => Box::new(LeastLoaded),
            Assignment::EwmaCost => Box::new(EwmaCost::default()),
            Assignment::Custom(f) => f(),
        }
    }
}

impl std::fmt::Debug for Assignment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Assignment::Static => f.write_str("Static"),
            Assignment::RoundRobinFirstTouch => f.write_str("RoundRobinFirstTouch"),
            Assignment::LeastLoaded => f.write_str("LeastLoaded"),
            Assignment::EwmaCost => f.write_str("EwmaCost"),
            Assignment::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

/// When idle delegates may steal queued serialization sets from a loaded
/// peer (see [`RuntimeBuilder::stealing`]).
///
/// Under [`WhenIdle`](StealPolicy::WhenIdle) and
/// [`Threshold`](StealPolicy::Threshold), stealing migrates **whole
/// sets** and only sets that have not started executing on their current
/// delegate this epoch. [`CostAware`](StealPolicy::CostAware) also
/// migrates the queued **tail of a started set**, but only after a
/// quiescence handshake proves no operation of the set is in flight on
/// the owner. Either way the migration rewrites the set's pin atomically
/// with moving its queued operations, so same-set program order is
/// preserved under every policy (the full argument lives in
/// `docs/ARCHITECTURE.md`). Results are therefore identical to
/// [`StealPolicy::Off`] — stealing is a pure scheduling choice.
///
/// ```
/// use ss_core::{Runtime, StealPolicy};
/// let rt = Runtime::builder()
///     .delegate_threads(4)
///     .stealing(StealPolicy::WhenIdle)
///     .build()
///     .unwrap();
/// assert_eq!(rt.steal_policy(), StealPolicy::WhenIdle);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StealPolicy {
    /// No stealing. Delegate queues stay FastForward SPSC channels — the
    /// seed behaviour, bit for bit. The default.
    #[default]
    Off,
    /// An idle delegate (empty queue, nothing left to pop) steals from the
    /// deepest peer whenever that peer is deeper than itself. A depth
    /// counts the operations queued on a delegate *and* the one it is
    /// executing.
    WhenIdle,
    /// An idle delegate steals only from a peer at least `depth`
    /// operations deeper than itself (depths as for
    /// [`WhenIdle`](StealPolicy::WhenIdle)). Higher thresholds tolerate
    /// short bursts (which the victim will drain quickly anyway) and
    /// reserve migration for genuine skew; `Threshold(1)` behaves like
    /// [`StealPolicy::WhenIdle`].
    Threshold(usize),
    /// An idle delegate prices its steals with the runtime's cost model:
    /// per-set operation costs (EWMAs of observed runtimes, fed back from
    /// the delegate threads) price every queued batch, the victim is the
    /// peer with the largest estimated queued cost, and the steal moves
    /// roughly half the cost imbalance rather than half the batch count.
    /// Uniquely among the policies, started sets' queued *tails* are also
    /// eligible — after a quiescence handshake proves no operation of the
    /// set is in flight on the owner (operation-granularity stealing; see
    /// `docs/POLICIES.md` and the `Stats::op_steals` /
    /// `Stats::quiesce_fail` counters).
    CostAware,
}

/// A [`StealPolicy`] as the delegates' one thief reads it. Every policy
/// steals the same way — victim by queue price, half the priced
/// imbalance moved, most valuable batch first — and differs only here.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StealPlan {
    /// Price each queued operation by the shared cost model (its set's
    /// estimate, in ns) rather than at 1. The runtime keeps a cost model
    /// exactly when a plan asks for one.
    pub(crate) cost_model: bool,
    /// A steal must fix more than this many typical operations of
    /// imbalance: with unit prices, `d − 1` is a victim depth of `d`.
    pub(crate) bar_ops: u64,
    /// The quiescent tails of started sets may move, not only fresh sets.
    pub(crate) tails: bool,
}

impl StealPolicy {
    /// The thief's plan; `None` when stealing is off.
    pub(crate) fn plan(self) -> Option<StealPlan> {
        let unit = |depth: usize| StealPlan {
            cost_model: false,
            bar_ops: depth.max(1) as u64 - 1,
            tails: false,
        };
        match self {
            StealPolicy::Off => None,
            StealPolicy::WhenIdle => Some(unit(1)),
            StealPolicy::Threshold(d) => Some(unit(d)),
            StealPolicy::CostAware => Some(StealPlan {
                cost_model: true,
                bar_ops: 1,
                tails: true,
            }),
        }
    }
}

/// How delegated operations are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Real delegate threads; operations in different serialization sets run
    /// concurrently.
    Parallel,
    /// The paper's *debug build* (§3.3): no threads are spawned, every
    /// delegated operation executes inline on the program thread, in exactly
    /// the deterministic order the parallel execution is required to be
    /// indistinguishable from. All dynamic checks (serializer consistency,
    /// state machine, context) still run, so "all development and debugging
    /// is done on a sequential program".
    Serial,
}

/// Builder for [`Runtime`](crate::Runtime).
///
/// ```
/// use ss_core::{ExecutionMode, Runtime};
/// let rt = Runtime::builder()
///     .delegate_threads(2)
///     .virtual_delegates(8)
///     .program_share(1) // 1 of 8 virtual delegates executes inline
///     .queue_capacity(1024)
///     .mode(ExecutionMode::Parallel)
///     .build()
///     .unwrap();
/// assert_eq!(rt.delegate_threads(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RuntimeBuilder {
    pub(crate) delegate_threads: Option<usize>,
    pub(crate) virtual_delegates: Option<usize>,
    pub(crate) program_share: usize,
    pub(crate) queue_capacity: usize,
    pub(crate) mode: ExecutionMode,
    pub(crate) dynamic_checks: bool,
    pub(crate) trace: bool,
    pub(crate) assignment: Assignment,
    pub(crate) stealing: StealPolicy,
    pub(crate) audit: AuditMode,
    pub(crate) session_queue_cap: Option<u64>,
    pub(crate) memo_capacity: Option<usize>,
    /// Scripted-interleaving gates for the deterministic-schedule test
    /// harness; `None` (always, outside the harness tests) compiles the
    /// gate sites down to a tag check.
    pub(crate) test_gates: Option<Arc<crate::runtime::TestGates>>,
    #[cfg(feature = "chaos")]
    pub(crate) chaos: ChaosKnobs,
}

impl Default for RuntimeBuilder {
    fn default() -> Self {
        RuntimeBuilder {
            delegate_threads: None,
            virtual_delegates: None,
            program_share: 0,
            queue_capacity: 512,
            mode: ExecutionMode::Parallel,
            dynamic_checks: true,
            trace: false,
            assignment: Assignment::Static,
            stealing: StealPolicy::Off,
            audit: AuditMode::Off,
            session_queue_cap: None,
            memo_capacity: None,
            test_gates: None,
            #[cfg(feature = "chaos")]
            chaos: ChaosKnobs::default(),
        }
    }
}

impl RuntimeBuilder {
    /// Number of delegate threads. Default: `available_parallelism() - 1`
    /// (at least 1), the paper's default of "one less than the number of
    /// processors". `0` is allowed and makes every set execute inline on the
    /// program thread (equivalent to [`ExecutionMode::Serial`] but with the
    /// parallel bookkeeping paths).
    pub fn delegate_threads(mut self, n: usize) -> Self {
        self.delegate_threads = Some(n);
        self
    }

    /// Number of *virtual* delegates the static assignment hashes sets onto
    /// (§4). Must be ≥ `program_share`. Default: `program_share +
    /// delegate_threads`.
    pub fn virtual_delegates(mut self, n: usize) -> Self {
        self.virtual_delegates = Some(n);
        self
    }

    /// How many of the virtual delegates are executed by the program thread
    /// itself (the paper's *assignment ratio*: "Prometheus uses the program
    /// thread to execute some of the delegated methods"). Default 0.
    pub fn program_share(mut self, n: usize) -> Self {
        self.program_share = n;
        self
    }

    /// Capacity of each program→delegate communication queue (rounded up to
    /// a power of two). The queues "provide buffering to help tolerate
    /// bursts of operations mapped to the same serialization set" (§4).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n.max(2);
        self
    }

    /// Parallel or sequential-debug execution. Default parallel.
    pub fn mode(mut self, m: ExecutionMode) -> Self {
        self.mode = m;
        self
    }

    /// Enables/disables the dynamic protocol checks (serializer consistency,
    /// state machine). The paper disables them for performance measurements
    /// (§5); the checks that guard memory safety in Rust are *not* affected
    /// by this switch — only the purely diagnostic ones are.
    pub fn dynamic_checks(mut self, on: bool) -> Self {
        self.dynamic_checks = on;
        self
    }

    /// Selects the delegate-assignment policy routing serialization sets
    /// to executors. Default [`Assignment::Static`] — the paper's
    /// behaviour, preserved bit-for-bit. All policies pin a set to its
    /// first-touch executor for the remainder of the isolation epoch, so
    /// same-set program order holds under every policy.
    ///
    /// ```
    /// use ss_core::{Assignment, Runtime};
    /// let rt = Runtime::builder()
    ///     .delegate_threads(2)
    ///     .assignment(Assignment::LeastLoaded)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(rt.assignment_name(), "least-loaded");
    /// ```
    pub fn assignment(mut self, a: Assignment) -> Self {
        self.assignment = a;
        self
    }

    /// Lets idle delegates steal queued work from a loaded peer: whole
    /// never-started serialization sets under every policy, and under
    /// [`StealPolicy::CostAware`] also the queued tails of started sets
    /// once no operation of the set is in flight. Default
    /// [`StealPolicy::Off`], which keeps the paper's SPSC queues and
    /// routing unchanged.
    ///
    /// With stealing enabled the delegate queues become shared
    /// [`StealDeque`](ss_queue::StealDeque)s and every routing decision
    /// goes through a pinned set table, so per-delegation overhead is
    /// higher; the win is load balance under skewed set popularity (see
    /// the `ablation_stealing` bench and `docs/POLICIES.md`). Runtimes
    /// with fewer than two delegate threads have no one to steal from and
    /// fall back to [`StealPolicy::Off`].
    ///
    /// ```
    /// use ss_core::{Runtime, StealPolicy, Writable};
    /// let rt = Runtime::builder()
    ///     .delegate_threads(2)
    ///     .stealing(StealPolicy::Threshold(4))
    ///     .build()
    ///     .unwrap();
    /// let w: Writable<u64> = Writable::new(&rt, 0);
    /// rt.isolated(|| {
    ///     for _ in 0..10 { w.delegate(|n| *n += 1).unwrap(); }
    /// }).unwrap();
    /// assert_eq!(w.call(|n| *n).unwrap(), 10); // results identical to Off
    /// ```
    pub fn stealing(mut self, policy: StealPolicy) -> Self {
        self.stealing = policy;
        self
    }

    /// Enables the online serializability auditor: every submitted and
    /// executed operation reports to a per-epoch conflict-graph checker,
    /// and `end_isolation` either certifies the epoch serializable or
    /// returns [`SsError::SerializabilityViolation`](crate::SsError)
    /// naming the violating operation pair. Default
    /// [`AuditMode::Off`](crate::AuditMode) (zero overhead — the auditor
    /// is not constructed).
    ///
    /// ```
    /// use ss_core::{AuditMode, Runtime, Writable};
    /// let rt = Runtime::builder()
    ///     .delegate_threads(2)
    ///     .audit(AuditMode::Full)
    ///     .build()
    ///     .unwrap();
    /// let w: Writable<u64> = Writable::new(&rt, 0);
    /// rt.isolated(|| {
    ///     for _ in 0..10 { w.delegate(|n| *n += 1).unwrap(); }
    /// }).unwrap(); // epoch certified serializable
    /// assert_eq!(rt.stats().epochs_audited, 1);
    /// ```
    pub fn audit(mut self, mode: crate::AuditMode) -> Self {
        self.audit = mode;
        self
    }

    /// Installs deliberate runtime weakenings (test-only `chaos`
    /// feature). Exists solely so the audit test suite can prove the
    /// auditor detects real violations; never enable outside tests.
    #[cfg(feature = "chaos")]
    pub fn chaos(mut self, knobs: ChaosKnobs) -> Self {
        self.chaos = knobs;
        self
    }

    /// Arms a scripted interleaving for the deterministic-schedule test
    /// harness: `script` is an ordered list of gate names (e.g.
    /// `"popped@0"`, `"stole@1"` — scheduling point `@` delegate index),
    /// and each delegate blocks at a named gate site until that name is
    /// at the front of the script, forcing the owner/thief quiescence
    /// race to resolve the scripted way. Names absent from the remaining
    /// script pass through immediately; a gate waiting longer than the
    /// harness timeout also passes through, so a mis-scripted schedule
    /// degrades to a free-running (still correct) execution instead of a
    /// hung test. Test-harness plumbing only — not a public API.
    #[doc(hidden)]
    pub fn test_schedule<S: Into<String>>(mut self, script: impl IntoIterator<Item = S>) -> Self {
        self.test_gates = Some(Arc::new(crate::runtime::TestGates::new(
            script.into_iter().map(Into::into).collect(),
        )));
        self
    }

    /// Caps the number of operations any one [`Session`](crate::Session)
    /// may have in flight at once. A session at its cap stalls in
    /// `delegate` (bumping [`Stats::starvation_stalls`](crate::Stats))
    /// until the shared pool drains some of its backlog — fairness
    /// backpressure that keeps one greedy tenant from monopolizing every
    /// delegate queue. A `delegate_iter` run is admitted piecewise, never
    /// past the room left under the cap. Default: uncapped. Root-runtime
    /// submissions are never capped; see `docs/POLICIES.md` for guidance
    /// on sizing.
    pub fn session_queue_cap(mut self, cap: usize) -> Self {
        self.session_queue_cap = Some(cap.max(1) as u64);
        self
    }

    /// Enables the incremental-epochs memo layer with room for
    /// (approximately) `capacity` cached results, unlocking the
    /// `delegate_memo` family on [`Writable`](crate::Writable),
    /// [`DelegateContext`](crate::DelegateContext) and
    /// [`Runtime`](crate::Runtime): delegations carrying an input
    /// fingerprint whose result is already cached resolve instantly —
    /// the future is born ready, nothing is routed or queued. Results
    /// are invalidated per serialization set when a non-memoized
    /// delegation or a program-context reclaim touches the set (a
    /// generation bump; see `docs/ARCHITECTURE.md`). Default: disabled —
    /// `delegate_memo` then behaves exactly like `delegate_with` plus a
    /// counted miss, and no memo table is allocated.
    ///
    /// ```
    /// use ss_core::{fingerprint_of, Runtime, Writable};
    /// let rt = Runtime::builder()
    ///     .delegate_threads(1)
    ///     .memo_capacity(1024)
    ///     .build()
    ///     .unwrap();
    /// let w: Writable<u64> = Writable::new(&rt, 7);
    /// let fp = fingerprint_of(&7u64);
    /// rt.isolated(|| {
    ///     let f = w.delegate_memo(fp, |n| *n * 2).unwrap();
    ///     assert_eq!(f.wait().unwrap(), 14); // cold: executed
    /// }).unwrap();
    /// rt.isolated(|| {
    ///     let f = w.delegate_memo(fp, |n| *n * 2).unwrap();
    ///     assert_eq!(f.wait().unwrap(), 14); // warm: served from the memo
    /// }).unwrap();
    /// assert_eq!(rt.stats().memo_hits, 1);
    /// ```
    pub fn memo_capacity(mut self, capacity: usize) -> Self {
        self.memo_capacity = Some(capacity.max(1));
        self
    }

    /// Enables execution tracing (§3.3's debug facility): the runtime
    /// records every model-level operation — epoch boundaries, delegations
    /// with their serialization set and executor, ownership reclaims,
    /// program-context accesses, reductions — in program order, readable
    /// via [`Runtime::take_trace`](crate::Runtime::take_trace). Default off.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Spawns the delegate threads and returns the runtime handle.
    pub fn build(self) -> crate::SsResult<crate::Runtime> {
        crate::Runtime::from_builder(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let b = RuntimeBuilder::default();
        assert_eq!(b.program_share, 0);
        assert!(b.dynamic_checks);
        assert_eq!(b.mode, ExecutionMode::Parallel);
        assert!(matches!(b.assignment, Assignment::Static));
        assert_eq!(b.audit, AuditMode::Off);
    }

    #[test]
    fn assignment_selector_instantiates_named_policies() {
        assert_eq!(Assignment::Static.instantiate().name(), "static");
        assert_eq!(
            Assignment::RoundRobinFirstTouch.instantiate().name(),
            "round-robin"
        );
        assert_eq!(Assignment::LeastLoaded.instantiate().name(), "least-loaded");
        assert_eq!(Assignment::EwmaCost.instantiate().name(), "ewma-cost");
        assert_eq!(format!("{:?}", Assignment::LeastLoaded), "LeastLoaded");
        assert_eq!(format!("{:?}", Assignment::EwmaCost), "EwmaCost");
    }

    #[test]
    fn queue_capacity_has_floor() {
        let b = RuntimeBuilder::default().queue_capacity(0);
        assert_eq!(b.queue_capacity, 2);
    }
}
