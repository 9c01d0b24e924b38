//! Runtime configuration: delegate-thread count, queue capacity, stealing,
//! auditing, memoization, tracing. How an idle delegate waits is not
//! configurable: it spins, yields, then parks until notified
//! (`docs/POLICIES.md` says why), and neither is placement: a set runs on
//! delegate `SsId mod delegates`, the paper's static assignment.
//!
//! Mirrors the environment knobs of §4: "The number of delegate threads is
//! one less than the number of processors by default, but may be configured
//! to some other number". The paper's other knob, virtual delegates with a
//! static program-thread share ("the assignment ratio"), is not here: the
//! program thread runs sets where it would otherwise wait — it retracts
//! fresh and quiescent runs from the unclaimed end of its delegate's ring
//! at the barrier, at a full ring and in a future wait (`docs/POLICIES.md`,
//! "The program thread retracts fresh and quiescent tails at its waits").

use std::sync::Arc;

use crate::audit::AuditMode;

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
    /// Thieves skip the quiescence handshake: the queued tail
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
    /// The root program thread's tail retraction skips its retired check:
    /// it takes the queued tail of a set whose earlier operations its
    /// delegate may still be running, so the set runs on two executors
    /// at once and the retracted tail can overtake the delegate's
    /// prefix.
    pub retract_unretired: bool,
}

/// Builder for [`Runtime`](crate::Runtime).
///
/// ```
/// use ss_core::Runtime;
/// let rt = Runtime::builder()
///     .delegate_threads(2)
///     .queue_capacity(1024)
///     .build()
///     .unwrap();
/// assert_eq!(rt.delegate_threads(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RuntimeBuilder {
    pub(crate) delegate_threads: Option<usize>,
    pub(crate) queue_capacity: usize,
    pub(crate) trace: bool,
    pub(crate) stealing: bool,
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
            queue_capacity: 512,
            trace: false,
            stealing: false,
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
    /// processors". `0` is the paper's *debug build* (§3.3): no threads are
    /// spawned, and every delegated operation executes inline on the
    /// program thread, in exactly the deterministic order the parallel
    /// execution is required to be indistinguishable from. All dynamic
    /// checks (serializer consistency, state machine, context) still run,
    /// so "all development and debugging is done on a sequential program".
    pub fn delegate_threads(mut self, n: usize) -> Self {
        self.delegate_threads = Some(n);
        self
    }

    /// Capacity of each program→delegate communication queue (rounded up to
    /// a power of two). The queues "provide buffering to help tolerate
    /// bursts of operations mapped to the same serialization set" (§4). It
    /// also sets when the program thread runs a set itself: a set whose
    /// first operation of the epoch finds its delegate's ring at least half
    /// full runs on the program thread for the rest of the epoch.
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n.max(2);
        self
    }

    /// Lets an idle delegate steal queued work from a loaded peer. Default
    /// off, which keeps the paper's SPSC queues and routing unchanged.
    ///
    /// A delegate whose queue runs dry takes half the depth imbalance
    /// (`queued − executed`, at least two operations of it) from the
    /// deepest peer: first the queued tails of started sets that a
    /// quiescence handshake proves have no operation in flight on the
    /// owner, then never-started sets. Each migration rewrites the set's
    /// pin atomically with moving its queued operations, so same-set
    /// program order holds and results are identical to a runtime without
    /// stealing (the argument is in `docs/ARCHITECTURE.md`).
    ///
    /// With stealing on, the delegate queues become shared
    /// [`StealDeque`](ss_queue::StealDeque)s and every routing decision
    /// goes through a pinned set table, so per-delegation overhead is
    /// higher; the win is load balance when a few sets carry most of the
    /// work (see the `ablation_opsteal` bench and `docs/POLICIES.md`).
    /// Runtimes with fewer than two delegate threads have no one to steal
    /// from and run without stealing.
    ///
    /// ```
    /// use ss_core::{Runtime, Writable};
    /// let rt = Runtime::builder()
    ///     .delegate_threads(2)
    ///     .stealing(true)
    ///     .build()
    ///     .unwrap();
    /// assert!(rt.stealing());
    /// let w: Writable<u64> = Writable::new(&rt, 0);
    /// rt.isolated(|| {
    ///     for _ in 0..10 { w.delegate(|n| *n += 1).unwrap(); }
    /// }).unwrap();
    /// assert_eq!(w.call(|n| *n).unwrap(), 10); // identical without stealing
    /// ```
    pub fn stealing(mut self, on: bool) -> Self {
        self.stealing = on;
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
        assert_eq!(b.queue_capacity, 512);
        assert!(!b.stealing);
        assert_eq!(b.delegate_threads, None);
        assert_eq!(b.audit, AuditMode::Off);
    }

    #[test]
    fn queue_capacity_has_floor() {
        let b = RuntimeBuilder::default().queue_capacity(0);
        assert_eq!(b.queue_capacity, 2);
    }
}
