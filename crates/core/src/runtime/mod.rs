//! The serialization-sets runtime: program context, delegate contexts,
//! epochs, delegate assignment, synchronization and termination.
//!
//! Architecture (mirroring §4 of the paper):
//!
//! * The thread that constructs the [`Runtime`] is the **program thread**; it
//!   implements the *program context* and is the only thread allowed to
//!   delegate, call, or switch epochs. Epoch control lives in [`epoch`].
//!   Everything a program context owns — epoch state and serial, pin
//!   map, drain counter, trace clock — is one [`domain::Domain`] record;
//!   the root runtime is domain 0, and [`Runtime::session`] opens further
//!   domains (each with its own program thread) over the same delegate
//!   pool. Every path below is written once, over `&Domain`.
//! * `N` **delegate threads** implement the *delegate context*. Each owns the
//!   consumer side of a FastForward SPSC queue; the program thread owns all
//!   producer sides. The worker loop lives in [`delegate`]; every wait —
//!   an idle delegate's, a barrier's, a future's — is one [`event`].
//! * A delegated operation is packaged as an *invocation object* and routed
//!   by the paper's **static delegate assignment** (serialization-set id
//!   modulo the number of delegates; [`assign`], [`router`]).
//! * The program thread is a **load-chosen executor** ([`program`]): a set
//!   whose first operation of the epoch finds its delegate's ring at least
//!   half full runs on the program thread for the rest of the epoch, and
//!   nested submits into such a set reach it through `Lane::Program`.
//! * With [`RuntimeBuilder::stealing`] on, the SPSC channels are replaced
//!   by shared [`ss_queue::StealDeque`]s and an idle delegate migrates
//!   half the depth imbalance off the deepest peer: the queued tails of
//!   quiescent started sets, then never-started sets (whole batches, pins
//!   rewritten atomically). `docs/ARCHITECTURE.md` holds the steal-safety
//!   argument.
//! * **Recursive delegation** (the paper's §4 future work): a running
//!   delegated operation may itself delegate via the scoped
//!   [`DelegateContext`] handle ([`Runtime::delegate_scope`]). The
//!   transports become multi-producer — nested pushes go through the SPSC
//!   queues' injector lanes or the shared steal deques — and the
//!   `end_isolation` barrier waits for *transitively* spawned work via the
//!   `in_flight` counter (a child is counted before its parent completes).
//! * **Futures on delegated operations**: the `delegate_with` family
//!   returns a typed [`SsFuture`](crate::SsFuture) whose one-shot cell the
//!   executing context settles *before* publishing the operation's
//!   completion to the drain machinery — so every drain proof covers every
//!   future. A delegate blocked in `SsFuture::wait` executes **help-first**
//!   from its own queue ([`delegate`] module), deferring entries of sets on
//!   its call stack and all tokens; genuinely unresolvable waits are
//!   rejected via waits-for cycle detection
//!   ([`SsError::FutureDeadlock`](crate::SsError::FutureDeadlock)).
//! * **Synchronization objects** flush a delegate queue when the program
//!   context reclaims ownership of an object, or all queues at
//!   `end_isolation`; once any nested delegation happened in an epoch, a
//!   mid-epoch reclaim quiesces the whole runtime instead (any running
//!   parent could still spawn onto the reclaimed set). **Termination
//!   objects** shut the delegates down.

mod assign;
mod delegate;
mod dispatch;
mod domain;
mod epoch;
mod event;
mod gates;
mod program;
mod router;
mod session;
#[cfg(test)]
mod tests;

pub use assign::Executor;
pub(crate) use assign::StealShared;
pub(crate) use delegate::future_wait_turn;
pub use delegate::DelegateContext;
pub(crate) use dispatch::Origin;
pub(crate) use domain::Domain;
pub(crate) use event::Event;
pub(crate) use gates::TestGates;
pub(crate) use router::Router;
pub use session::{Session, SessionStats};

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::Mutex;
use ss_queue::slab::CellPool;
use ss_queue::{CachePadded, Injector, Producer, SpscQueue};

use delegate::{run_delegate, Queue, DELEGATE_CTX};
use domain::{key_domain, ROOT_SHARDS};

use crate::audit::{AuditMode, AuditReport, AuditState};
use crate::cell::ProgramOnly;
#[cfg(feature = "chaos")]
use crate::config::ChaosKnobs;
use crate::config::RuntimeBuilder;
use crate::error::{SsError, SsResult};
use crate::invocation::{Invocation, SyncToken};
use crate::serializer::SsId;
use crate::stats::{Stats, StatsCell};
use crate::trace::{SideEvent, TraceEvent, TraceExecutor, TraceKind, TraceLog};

/// Global runtime-id dispenser so multiple runtimes (e.g. in tests) never
/// confuse each other's delegate threads.
static NEXT_RUNTIME_ID: AtomicU64 = AtomicU64::new(1);

/// State shared between the runtime and the contexts that execute
/// invocations.
///
/// Kept in its own `Arc` so delegate threads hold no strong reference to
/// [`Inner`] (which joins them on drop). Queued invocation closures hold
/// no reference at all: whoever runs one lends it the `Core` for the call
/// ([`ExecCx`](crate::invocation::ExecCx)), so the queues' owners — the
/// delegate threads and `Inner` — are what keep it alive.
pub(crate) struct Core {
    pub(crate) stats: StatsCell,
    pub(crate) poisoned: AtomicBool,
    pub(crate) panic_msg: Mutex<Option<String>>,
    /// Domain 0: the root runtime's epoch serial, drain counter,
    /// nested-epoch flag, audit flag, trace clock and pin map — the same
    /// record every session owns one of (see [`domain`]). Lives here so
    /// delegate-side paths that hold no `Inner` reference (thieves,
    /// packaged closures) can reach it.
    pub(crate) root: Domain,
    /// Delegate-side trace events awaiting fold into the program-order
    /// log; `None` when tracing is disabled.
    pub(crate) side_events: Option<Mutex<Vec<SideEvent>>>,
    /// Waits-for table for blocking [`SsFuture`](crate::SsFuture) waits
    /// from executor contexts: slot `i` holds one [`FutureWait`] while
    /// delegate `i` is blocked with its help-first options exhausted, and
    /// the last slot the root program thread's, while it is blocked inside
    /// an operation it runs. The deadlock detector walks `set → pinned
    /// executor → that executor's wait` under this mutex; the pin
    /// resolution inside the walk is the router's strictly non-blocking
    /// `peek`, so no shard lock is ever *waited on* while this mutex is
    /// held.
    pub(crate) future_waits: Mutex<Vec<Option<FutureWait>>>,
    /// Threads blocked on delegate progress right now (see
    /// [`waiting`](Core::waiting)): while any is, no ring delegate slips.
    /// A line of its own, because slipping delegates poll it.
    waiters: CachePadded<AtomicU32>,
    /// Pool of one-shot completion cells for the `delegate_with` family.
    /// Recycled at `end_isolation` — the barrier's drain is exactly the
    /// quiescence point the pool's reuse contract requires (see
    /// `ss_queue::slab`).
    pub(crate) cell_pool: CellPool,
    /// The online serializability auditor, present only when
    /// [`RuntimeBuilder::audit`](crate::RuntimeBuilder::audit) selected a
    /// mode other than `Off` — the `None` fast path keeps the default
    /// hot path free of audit atomics.
    pub(crate) audit: Option<AuditState>,
    /// Live tenant registry: domain id → session domain. Written by
    /// `Runtime::session` / `Session::drop` (rare); read by thieves and
    /// the deadlock detector to resolve which domain's pin map and epoch
    /// serial a key belongs to. Never touched on the root hot path.
    pub(crate) sessions: Mutex<HashMap<u32, Arc<Domain>>>,
    /// Tenant-id dispenser (ids start at 1; the root is domain 0).
    pub(crate) next_session_id: AtomicU32,
    /// The memo table backing the `delegate_memo` family, present only
    /// when [`RuntimeBuilder::memo_capacity`] was set — the `None` fast
    /// path keeps non-memoizing runtimes free of every memo atomic.
    /// Keyed by `(set key, input fingerprint)`; root wrappers use the raw
    /// set id, session handles the session-qualified route key, so each
    /// tenant gets a private memo domain for free. Invalidation is the
    /// generation stamp: non-memoized delegation and ownership reclaim
    /// bump a set's generation, lazily killing its cached entries.
    pub(crate) memo: Option<ss_queue::memomap::MemoMap>,
    /// Scripted-interleaving gates for the deterministic-schedule test
    /// harness ([`RuntimeBuilder::test_schedule`]); `None` outside the
    /// harness tests, so the gate sites cost one branch.
    pub(crate) test_gates: Option<Arc<TestGates>>,
    /// Deliberate runtime weakenings (test-only `chaos` feature).
    #[cfg(feature = "chaos")]
    pub(crate) chaos: ChaosKnobs,
}

/// One registered blocked future wait: the waited-on serialization set, a
/// settlement probe for the wait's cell, and a snapshot of the waiter's
/// active-set stack (the sets whose operations are on its call stack)
/// taken at registration. The snapshot is what lets the deadlock
/// detector read *other* delegates' stacks without any hot-path sharing:
/// a registered waiter is parked or walking — not executing — so its
/// stack cannot change while the entry exists, and the detector only
/// follows edges through registered delegates.
pub(crate) type FutureWait = (u64, ss_queue::oneshot::WaitSignal, Vec<u64>);

impl Core {
    /// Runs `wait` — a wait on delegate progress — counted in `waiters`.
    pub(crate) fn waiting<R>(&self, wait: impl FnOnce() -> R) -> R {
        self.waiters.fetch_add(1, Ordering::Relaxed);
        let out = wait();
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        out
    }

    /// Whether some thread waits on delegate progress: a slipping
    /// delegate stops slipping. A hint; it orders nothing.
    pub(crate) fn anyone_waits(&self) -> bool {
        self.waiters.load(Ordering::Relaxed) != 0
    }

    /// Records the first delegated panic; later ones are dropped (the run is
    /// already non-deterministic at that point).
    pub(crate) fn poison(&self, msg: String) {
        let mut slot = self.panic_msg.lock();
        if slot.is_none() {
            *slot = Some(msg);
        }
        self.poisoned.store(true, Ordering::Release);
    }

    pub(crate) fn poison_error(&self) -> SsError {
        let msg = self
            .panic_msg
            .lock()
            .clone()
            .unwrap_or_else(|| "<unknown panic>".to_string());
        SsError::DelegatePanicked(msg)
    }

    // --------------------------------------------------------------
    // serializability audit (no-ops when auditing is off). One recorder
    // for every domain: each call is gated on the *domain's* sampling
    // flag and stamped with the domain's `audit_serial`
    // (`id << 48 | epoch serial`), so each tenant's epochs are audited
    // independently of the root epoch and of every other tenant. `key` is
    // the domain-qualified routing key.

    /// The auditor, when it is observing `d`'s current epoch.
    #[inline]
    pub(crate) fn auditing(&self, d: &Domain) -> Option<&AuditState> {
        self.audit
            .as_ref()
            .filter(|_| d.audit_on.load(Ordering::Relaxed))
    }

    /// Draws `n` consecutive audit tokens for operations being pushed by
    /// `producer` (0 = program thread, `1 + i` = delegate `i`), returning
    /// the first tag (the k-th op's tag is `base + (k << 16)`); 0 when
    /// unaudited. Must be called on the producing thread immediately
    /// before the queue push / inline run so per-producer token order
    /// equals queue order.
    #[inline]
    pub(crate) fn audit_submit(&self, d: &Domain, key: SsId, producer: usize, n: usize) -> u64 {
        self.auditing(d).map_or(0, |a| {
            a.submit(key, producer as u16, n as u64, d.audit_serial())
        })
    }

    /// Rolls back `n` consecutive tagged submissions starting at `tag`
    /// (the queue push failed after the tokens were drawn). No-op when
    /// `tag` is 0.
    #[inline]
    pub(crate) fn audit_unsubmit(&self, d: &Domain, key: SsId, tag: u64, n: usize) {
        if tag == 0 {
            return;
        }
        if let Some(a) = &self.audit {
            a.unsubmit(key, tag, n as u64, d.audit_serial());
        }
    }

    /// Records the execution of operation `tag` on executor `slot`
    /// (0 = program thread, `1 + i` = delegate `i`). Call right after the
    /// task body runs, *before* the drain counters are decremented, so
    /// every epoch-barrier drain proof covers the audit record too.
    #[inline]
    pub(crate) fn audit_exec(&self, d: &Domain, key: SsId, tag: u64, slot: usize) {
        if tag == 0 {
            return;
        }
        if let Some(a) = &self.audit {
            a.exec(key, tag, slot, d.audit_serial());
        }
    }

    /// Records an executor handover for `key` after a *legal* steal: the
    /// auditor's one-executor-per-set record is re-pointed at the thief's
    /// slot so subsequent executions of the migrated operations do not
    /// read as a second executor. Called for every successful migration —
    /// whole-batch and quiescent-tail alike — because a steal *chain*
    /// (owner executes a prefix, thief B takes the tail, thief C takes
    /// the still-unstarted batch from B) would otherwise trip
    /// `TwoExecutors` on C. Sound because every legal migration happens
    /// with no operation of the set in flight anywhere.
    #[inline]
    pub(crate) fn audit_handover(&self, d: &Domain, key: SsId, slot: usize) {
        if let Some(a) = self.auditing(d) {
            a.handover(key, d.audit_serial(), slot);
        }
    }

    /// Records a memo hit for `key`: the served entry's generation is
    /// checked against the set's live generation and a stale serve is
    /// reported as [`AuditViolation::StaleMemoServe`]. Deliberately
    /// touches no submitted/executed/executor state — a memo hit is *not*
    /// an operation (nothing was queued, nothing will execute), so it
    /// must not perturb the conservation or ordering checks.
    ///
    /// [`AuditViolation::StaleMemoServe`]: crate::AuditViolation::StaleMemoServe
    #[inline]
    pub(crate) fn audit_memo_hit(&self, d: &Domain, key: SsId, entry_gen: u64, live_gen: u64) {
        if let Some(a) = self.auditing(d) {
            a.memo_hit(key, d.audit_serial(), entry_gen, live_gen);
        }
    }

    /// The ownership-reclaim gate: certifies every program-submitted
    /// operation of `key` has executed and stamps a reclaim barrier.
    /// Returns the violation, if any, so the caller can refuse the
    /// access before touching the value.
    #[inline]
    pub(crate) fn audit_access_gate(&self, d: &Domain, key: SsId) -> Option<AuditReport> {
        self.auditing(d)
            .and_then(|a| a.access_gate(key, d.audit_serial()))
    }

    /// Opens an audit epoch (called from `begin_isolation`): samples on
    /// the domain's *own* epoch serial, so sparse tenants still get
    /// audited epochs under `AuditMode::Sample`. The domain is quiescent
    /// here (its previous epoch drained), so the decision is published
    /// before any event of this epoch can be recorded.
    #[inline]
    pub(crate) fn audit_begin_epoch(&self, d: &Domain, serial: u64) {
        if let Some(a) = &self.audit {
            d.audit_on.store(a.should_audit(serial), Ordering::Relaxed);
        }
    }

    /// Closes the domain's audit epoch after its `end_isolation` barrier:
    /// runs the conservation check over this domain's entries, sweeps
    /// them, bumps `epochs_audited`, and returns the first violation (if
    /// any).
    #[inline]
    pub(crate) fn audit_end_epoch(&self, d: &Domain) -> Option<AuditReport> {
        let a = self.audit.as_ref()?;
        if !d.audit_on.swap(false, Ordering::Relaxed) {
            return None;
        }
        StatsCell::bump(&self.stats.program().epochs_audited);
        a.close_domain(d.audit_serial())
    }

    // --------------------------------------------------------------
    // chaos knobs (compiled out without the `chaos` feature)

    /// Whether delegates deliberately reorder their ring drains. (Only
    /// called from chaos-gated code, unlike the fence knob below, so the
    /// accessor itself is compiled out.)
    #[cfg(feature = "chaos")]
    #[inline(always)]
    pub(crate) fn chaos_reorder_drain(&self) -> bool {
        self.chaos.reorder_drain
    }

    /// Whether `sync_owner` deliberately skips the reclaim fence.
    #[inline(always)]
    pub(crate) fn chaos_skip_reclaim_fence(&self) -> bool {
        #[cfg(feature = "chaos")]
        {
            self.chaos.skip_reclaim_fence
        }
        #[cfg(not(feature = "chaos"))]
        {
            false
        }
    }

    /// Whether memo lookups deliberately serve entries whose generation
    /// has been invalidated (the stale result the auditor must catch).
    #[inline(always)]
    pub(crate) fn chaos_stale_memo_serve(&self) -> bool {
        #[cfg(feature = "chaos")]
        {
            self.chaos.stale_memo_serve
        }
        #[cfg(not(feature = "chaos"))]
        {
            false
        }
    }

    /// Whether steals deliberately skip re-pinning the stolen set.
    #[cfg(feature = "chaos")]
    #[inline(always)]
    pub(crate) fn chaos_steal_no_repin(&self) -> bool {
        self.chaos.steal_no_repin
    }

    /// Whether thieves deliberately skip the quiescence
    /// handshake and steal started sets' tails mid-execution.
    #[cfg(feature = "chaos")]
    #[inline(always)]
    pub(crate) fn chaos_steal_mid_set(&self) -> bool {
        self.chaos.steal_mid_set
    }

    /// Deterministic-schedule harness gate: blocks at scheduling point
    /// `point` on delegate `idx` until the armed script reaches it
    /// (no-op when no script is armed — the usual case).
    #[inline]
    pub(crate) fn gate(&self, point: &str, idx: u32) {
        if let Some(g) = &self.test_gates {
            g.hit(&format!("{point}@{idx}"));
        }
    }

    /// Whether a thief deliberately publishes a stolen session key's new
    /// pin into the root (wrong) namespace instead of the owning
    /// session's map.
    #[cfg(feature = "chaos")]
    #[inline(always)]
    pub(crate) fn chaos_cross_session_pin_leak(&self) -> bool {
        self.chaos.cross_session_pin_leak
    }

    /// Resolves a routing key's high 16 bits to the live session domain
    /// that owns it — the thief's and the deadlock detector's way into a
    /// tenant's pin map and epoch serial. `None` for root keys (callers
    /// fall back to [`Core::root`]), for dropped sessions, and for root
    /// keys whose raw bits merely alias an id nobody holds.
    pub(crate) fn session_of_key(&self, key: u64) -> Option<Arc<Domain>> {
        match key_domain(key) {
            0 => None,
            id => self.sessions.lock().get(&id).cloned(),
        }
    }

    /// Records one delegate-side trace event directly against the shared
    /// core (no-op when tracing is disabled). The `Runtime`-level
    /// [`record_side_event`](Runtime::record_side_event) wrapper is
    /// preferred where a runtime handle exists; this form is for packaged
    /// task closures, which are lent only the `Core` (see the [`Core`]
    /// docs).
    pub(crate) fn record_side(
        &self,
        serial: u64,
        kind: TraceKind,
        object: Option<u64>,
        set: Option<SsId>,
        executor: TraceExecutor,
    ) {
        let Some(buf) = &self.side_events else {
            return;
        };
        let event = SideEvent {
            order: self.root.trace_clock.fetch_add(1, Ordering::Relaxed),
            serial,
            kind,
            object,
            set,
            executor,
        };
        buf.lock().push(event);
    }
}

/// The program→delegate transport, chosen at build time.
///
/// Without stealing, the paper's FastForward SPSC channels (program
/// thread owns every producer handle; nested delegations from delegate
/// contexts go through the rings' shared injector lanes); stealing swaps
/// in shared [`ss_queue::StealDeque`]s plus the routing lock that lets
/// idle delegates migrate queued sets —
/// the deques are multi-producer already, so nested pushes join the
/// program thread's under the same routing lock.
pub(crate) enum Channels {
    Spsc {
        producers: Box<[ProgramOnly<Producer<Invocation>>]>,
        injectors: Box<[Injector<Invocation>]>,
    },
    Steal(Arc<StealShared>),
}

pub(crate) struct Inner {
    id: u64,
    n_delegates: usize,
    /// The routing layer: static placement, resolving against each
    /// domain's pin map. Shared (`Arc`) with the stealing-mode delegate
    /// threads, which rewrite pins when they migrate batches; holds no
    /// reference back to this `Inner`.
    pub(crate) router: Arc<Router>,
    pub(crate) channels: Channels,
    /// Delegate `i`'s [`Event`]: every push to its queue notifies it.
    events: Box<[Arc<Event>]>,
    /// One reusable synchronization token per delegate, waited on by the
    /// root program thread only (its epoch barrier uses all of them, a
    /// reclaim the owner's): created here, on that thread, and re-armed
    /// before every push, so neither allocates. Termination keeps its own
    /// tokens — it may run on whichever thread drops the last handle.
    sync_tokens: Box<[Arc<SyncToken>]>,
    /// The root program thread's record of the sets it routed on the ring
    /// lane this epoch and what it chose for each ([`program`]).
    routes: ProgramOnly<program::RouteRecord>,
    /// Per delegate, the operations the root program thread pushed on its
    /// ring since the ring was last known empty (a barrier or a reclaim
    /// of that ring): an upper bound on the ring's occupancy, kept without
    /// reading a line the consumer writes ([`program`]).
    ring_fill: ProgramOnly<Box<[usize]>>,
    join_handles: Mutex<Vec<JoinHandle<()>>>,
    started_at: Instant,
    terminated: AtomicBool,
    force_sleep: Arc<AtomicBool>,
    next_instance: AtomicU64,
    /// Cross-thread epoch generation: bumped at `begin_isolation` (odd while
    /// isolating) and again at `end_isolation` (even during aggregation).
    /// Readable by any executor — stable for the duration of any delegated
    /// task, because epochs only change when all queues are drained.
    /// Root-domain state: sessions' epochs do not move it.
    epoch_gen: AtomicU64,
    /// §3.3 execution trace, when enabled (program-thread-only).
    trace_log: Option<ProgramOnly<TraceLog>>,
    /// Per-session in-flight cap handed to every session this runtime
    /// opens (`RuntimeBuilder::session_queue_cap`).
    pub(crate) session_queue_cap: Option<u64>,
    pub(crate) core: Arc<Core>,
}

/// Handle to a serialization-sets runtime.
///
/// Cloning is cheap (an `Arc` bump); all clones refer to the same program
/// context and delegate threads. The thread that called
/// [`Runtime::builder`]`.build()` is the program context; epoch control and
/// delegation are restricted to it, as in the paper (§4 — recursive
/// delegation is listed as future work).
///
/// Dropping the last handle (including those held by live `Writable` /
/// `Reducible` wrappers) terminates the delegate threads.
#[derive(Clone)]
pub struct Runtime {
    pub(crate) inner: Arc<Inner>,
    /// `Some` when this handle is a [`Session`]'s view of the runtime:
    /// epoch control, routing, auditing and drain accounting then act on
    /// the session's [`Domain`] instead of [`Core::root`] (see
    /// [`Runtime::domain`]). `None` for every root handle.
    pub(crate) session: Option<Arc<Domain>>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("id", &self.inner.id)
            .field("delegates", &self.inner.n_delegates)
            .field("stealing", &self.stealing())
            .finish()
    }
}

impl Runtime {
    /// Starts configuring a runtime (the paper's `initialize`).
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// Builds a runtime with all defaults: `available_parallelism() - 1`
    /// delegate threads (the paper's default of one less than the number of
    /// processors), static assignment, no stealing.
    pub fn new() -> SsResult<Runtime> {
        Self::builder().build()
    }

    pub(crate) fn from_builder(b: RuntimeBuilder) -> SsResult<Runtime> {
        let n_delegates = b.delegate_threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get().saturating_sub(1).max(1))
                .unwrap_or(1)
        });

        // Stealing needs at least two delegates (someone to steal *from*);
        // below that, fall back to the plain SPSC transport.
        let stealing = b.stealing && n_delegates >= 2;
        // Stealing always pins: a steal overrides the modulo.
        let router = Arc::new(Router::new(n_delegates, stealing));

        let id = NEXT_RUNTIME_ID.fetch_add(1, Ordering::Relaxed);
        let core = Arc::new(Core {
            stats: StatsCell::new(n_delegates),
            poisoned: AtomicBool::new(false),
            panic_msg: Mutex::new(None),
            root: Domain::new(0, ROOT_SHARDS, None, Event::scripted(&b.test_gates, "p")),
            side_events: b.trace.then(|| Mutex::new(Vec::new())),
            future_waits: Mutex::new((0..=n_delegates).map(|_| None).collect()),
            waiters: CachePadded::default(),
            cell_pool: CellPool::new(),
            audit: (b.audit != AuditMode::Off).then(|| AuditState::new(b.audit)),
            sessions: Mutex::new(HashMap::new()),
            next_session_id: AtomicU32::new(1),
            memo: b.memo_capacity.map(ss_queue::memomap::MemoMap::new),
            test_gates: b.test_gates.clone(),
            #[cfg(feature = "chaos")]
            chaos: b.chaos,
        });
        let force_sleep = Arc::new(AtomicBool::new(false));

        let mut consumers = Vec::with_capacity(n_delegates);
        let channels = if stealing {
            Channels::Steal(Arc::new(StealShared::new(n_delegates)))
        } else {
            let mut producers = Vec::with_capacity(n_delegates);
            let mut injectors = Vec::with_capacity(n_delegates);
            for _ in 0..n_delegates {
                let (tx, rx) = SpscQueue::with_capacity(b.queue_capacity);
                injectors.push(tx.injector());
                producers.push(ProgramOnly::new(tx));
                consumers.push(rx);
            }
            Channels::Spsc {
                producers: producers.into_boxed_slice(),
                injectors: injectors.into_boxed_slice(),
            }
        };
        let events: Box<[Arc<Event>]> = (0..n_delegates)
            .map(|i| Arc::new(Event::scripted(&b.test_gates, &i.to_string())))
            .collect();

        let inner = Arc::new(Inner {
            id,
            n_delegates,
            router,
            channels,
            events,
            sync_tokens: (0..n_delegates)
                .map(|_| SyncToken::rearmable(Arc::clone(&core.root.waiter)))
                .collect(),
            routes: ProgramOnly::new(program::RouteRecord::new()),
            ring_fill: ProgramOnly::new(vec![0; n_delegates].into_boxed_slice()),
            join_handles: Mutex::new(Vec::new()),
            started_at: Instant::now(),
            terminated: AtomicBool::new(false),
            force_sleep,
            next_instance: AtomicU64::new(0),
            epoch_gen: AtomicU64::new(0),
            trace_log: b.trace.then(|| ProgramOnly::new(TraceLog::default())),
            session_queue_cap: b.session_queue_cap,
            core,
        });

        let mut handles = inner.join_handles.lock();
        let mut consumers = consumers.into_iter();
        for idx in 0..n_delegates {
            let queue = match &inner.channels {
                Channels::Spsc { .. } => {
                    Queue::Ring(consumers.next().expect("one consumer per delegate"))
                }
                Channels::Steal(shared) => {
                    Queue::Deque(Arc::clone(shared), Arc::clone(&inner.router))
                }
            };
            let core = Arc::clone(&inner.core);
            let event = Arc::clone(&inner.events[idx]);
            let force_sleep = Arc::clone(&inner.force_sleep);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ss-delegate-{idx}"))
                    .spawn(move || run_delegate(id, idx, queue, core, event, force_sleep))
                    .expect("failed to spawn delegate thread"),
            );
        }
        drop(handles);

        Ok(Runtime {
            inner,
            session: None,
        })
    }

    // ------------------------------------------------------------------
    // introspection

    /// Number of delegate threads.
    pub fn delegate_threads(&self) -> usize {
        self.inner.n_delegates
    }

    /// Whether idle delegates steal. May differ from the builder's
    /// request: runtimes with fewer than two delegate threads run without
    /// stealing (there is no one to steal from).
    pub fn stealing(&self) -> bool {
        matches!(self.inner.channels, Channels::Steal(_))
    }

    /// True once a delegated operation has panicked.
    pub fn is_poisoned(&self) -> bool {
        self.inner.core.poisoned.load(Ordering::Acquire)
    }

    /// Instrumentation snapshot (Figure 5a components, operation counts and
    /// per-delegate load).
    pub fn stats(&self) -> Stats {
        let core = &self.inner.core;
        let mut s = core.stats.snapshot(self.inner.started_at);
        s.in_flight = core.root.in_flight.load(Ordering::Acquire);
        if let Some(a) = &core.audit {
            s.audit_edges = a.edges();
        }
        s
    }

    /// The serializability-audit mode this runtime was built with
    /// ([`AuditMode::Off`] when auditing is disabled).
    pub fn audit_mode(&self) -> AuditMode {
        self.inner
            .core
            .audit
            .as_ref()
            .map_or(AuditMode::Off, |a| a.mode())
    }

    /// Number of serialization sets the auditor is currently tracking —
    /// the live conflict-graph size. Bounded by a fixed cap regardless of
    /// how many distinct sets an epoch touches (sets beyond the cap go
    /// untracked); 0 when auditing is off and after every `end_isolation`.
    pub fn audit_graph_size(&self) -> usize {
        self.inner.core.audit.as_ref().map_or(0, |a| a.graph_size())
    }

    /// Unconsumed gate names of the armed deterministic-schedule script,
    /// `None` when no script was armed. A harness test asserting
    /// `Some(0)` proves every scripted scheduling point was actually
    /// reached (test-harness plumbing only — not a public API).
    #[doc(hidden)]
    pub fn test_gates_remaining(&self) -> Option<usize> {
        self.inner.core.test_gates.as_ref().map(|g| g.remaining())
    }

    /// Diagnostic view of the completion-cell pool backing the
    /// `delegate_with` family: `(free, in_flight, created)`. `free` cells
    /// are quiescent and ready for reuse; `in_flight` cells were issued
    /// since their last recycle (a future held across epochs keeps its
    /// cell here); `created` is the number of cells ever allocated, so
    /// `created` staying flat while futures are issued is the proof that
    /// the pool is recycling.
    pub fn cell_pool_stats(&self) -> (usize, usize, u64) {
        let pool = &self.inner.core.cell_pool;
        let (free, in_flight) = pool.counts();
        (free, in_flight, pool.created())
    }

    /// Next instance number for a new wrapped object (the *sequence*
    /// serializer's identifying information).
    pub(crate) fn next_instance(&self) -> u64 {
        self.inner.next_instance.fetch_add(1, Ordering::Relaxed)
    }

    // ------------------------------------------------------------------
    // tracing (§3.3 debug facility)

    /// Whether execution tracing is enabled.
    pub fn trace_enabled(&self) -> bool {
        self.inner.trace_log.is_some()
    }

    /// Records one trace event (program thread only; no-op when disabled).
    pub(crate) fn trace_record(
        &self,
        kind: TraceKind,
        object: Option<u64>,
        set: Option<SsId>,
        executor: Option<Executor>,
    ) {
        let Some(log) = &self.inner.trace_log else {
            return;
        };
        let d = self.domain();
        if !self.is_root() {
            // The program-order log belongs to the root program thread.
            // A session's own logical clock still advances per
            // trace-worthy event, so tenants keep an ordered event count
            // (`SessionStats::trace_events`) without writing into it.
            d.trace_clock.fetch_add(1, Ordering::Relaxed);
            return;
        }
        debug_assert!(self.is_program_thread());
        let executor = executor.map(|e| match e {
            Executor::Program => TraceExecutor::Program,
            Executor::Delegate(i) => TraceExecutor::Delegate(i),
        });
        // SAFETY: program thread (all call sites are program-thread paths);
        // scoped borrow.
        unsafe { log.get() }.record(d.serial(), kind, object, set, executor);
    }

    /// Folds delegate-side trace events (steals, nested delegations, pins
    /// made on the nested path) into the program-order trace log (program
    /// thread only; no-op when tracing is disabled). The drained buffer is
    /// sorted by each event's logical-order token, so the folded sub-trace
    /// is a linearization of the delegate threads' scheduling actions.
    /// Called at epoch boundaries and before
    /// [`take_trace`](Runtime::take_trace) so the events appear near the
    /// epoch they happened in.
    pub(crate) fn flush_side_trace(&self) {
        let Some(log) = &self.inner.trace_log else {
            return;
        };
        let Some(buf) = &self.inner.core.side_events else {
            return;
        };
        if !self.is_root() {
            return;
        }
        let mut events = std::mem::take(&mut *buf.lock());
        if events.is_empty() {
            return;
        }
        events.sort_by_key(|e| e.order);
        debug_assert!(self.is_program_thread());
        // SAFETY: program thread (all call sites are program-thread paths).
        let log = unsafe { log.get() };
        for e in events {
            log.record(e.serial, e.kind, e.object, e.set, Some(e.executor));
        }
    }

    /// Records one delegate-side trace event into the shared side buffer,
    /// stamped with a fresh logical-order token (no-op when tracing is
    /// disabled). Callable from any thread.
    pub(crate) fn record_side_event(
        &self,
        kind: TraceKind,
        object: Option<u64>,
        set: Option<SsId>,
        executor: Executor,
    ) {
        if !self.is_root() {
            // The side-event buffer drains into the root-domain trace log;
            // tenant events would pollute it with composite set ids.
            return;
        }
        let executor = match executor {
            Executor::Program => TraceExecutor::Program,
            Executor::Delegate(i) => TraceExecutor::Delegate(i),
        };
        self.inner
            .core
            .record_side(self.inner.core.root.serial(), kind, object, set, executor);
    }

    /// Removes and returns the recorded trace (program thread only; empty
    /// when tracing is disabled). Sequence numbers continue across takes.
    pub fn take_trace(&self) -> SsResult<Vec<TraceEvent>> {
        if !self.is_root() {
            // The program-order trace log is root-domain state.
            return Err(SsError::WrongContext);
        }
        self.require_program_thread()?;
        self.flush_side_trace();
        match &self.inner.trace_log {
            // SAFETY: program thread (checked above).
            Some(log) => Ok(unsafe { log.get() }.take()),
            None => Ok(Vec::new()),
        }
    }

    // ------------------------------------------------------------------
    // context checks

    /// The epoch domain this handle acts on: the session's for a
    /// [`Session`]'s handle, the root's otherwise. Everything
    /// domain-scoped — program thread, epoch state, serial, routing keys
    /// and pins, drain counter, audit stamps — is read through here.
    #[inline]
    pub(crate) fn domain(&self) -> &Domain {
        match &self.session {
            Some(d) => d,
            None => &self.inner.core.root,
        }
    }

    /// True for handles on the root domain — the domain whose program
    /// thread owns the SPSC ring producers, the program-order trace log,
    /// the completion-cell pool's recycle point and the pool lifecycle
    /// (`sleep`/`shutdown`/`session`).
    #[inline]
    pub(crate) fn is_root(&self) -> bool {
        self.session.is_none()
    }

    #[inline]
    pub(crate) fn is_program_thread(&self) -> bool {
        std::thread::current().id() == self.domain().program_thread
    }

    /// Executor identity of the calling thread, if it belongs to this
    /// runtime. Slot 0 is the program context; `1 + i` is delegate `i`
    /// (the indices `Reducible` views use).
    pub(crate) fn current_executor_slot(&self) -> Option<usize> {
        if self.is_program_thread() {
            return Some(0);
        }
        DELEGATE_CTX.with(|c| match c.get() {
            Some((rt, idx)) if rt == self.inner.id => Some(1 + idx as usize),
            _ => None,
        })
    }

    /// Total executor slots: program + delegates.
    pub(crate) fn executor_slots(&self) -> usize {
        1 + self.inner.n_delegates
    }

    /// Public form of the executor identity: `Some(0)` on the program
    /// thread, `Some(1 + i)` on delegate `i`, `None` on foreign threads.
    /// Used by ownership-tracking data structures built on top of the
    /// runtime (e.g. `ss-collections::OwnerTracked`).
    pub fn executor_slot(&self) -> Option<usize> {
        self.current_executor_slot()
    }

    /// True once a nested delegation has happened in the domain's current
    /// isolation epoch (cleared by `end_isolation` after the barrier).
    #[inline]
    pub(crate) fn nested_epoch_active(&self) -> bool {
        self.domain().nested_in_epoch.load(Ordering::Acquire)
    }

    /// Marks the current isolation epoch as containing nested delegations.
    /// Called under the target object's state lock, before raising the
    /// object's pending count (see [`Domain::nested_in_epoch`] for why
    /// that ordering matters).
    #[inline]
    pub(crate) fn mark_nested_epoch(&self) {
        self.domain().nested_in_epoch.store(true, Ordering::Release);
    }

    #[inline]
    pub(crate) fn require_program_thread(&self) -> SsResult<()> {
        if self.is_program_thread() {
            Ok(())
        } else {
            Err(SsError::WrongContext)
        }
    }

    pub(crate) fn check_live(&self) -> SsResult<()> {
        if self.inner.terminated.load(Ordering::Acquire) {
            return Err(SsError::Terminated);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // lifecycle

    /// Releases delegate processor resources during a long aggregation epoch
    /// (Table 1 `sleep`): until the next `begin_isolation`, a delegate
    /// whose queue is empty parks at once instead of spinning and yielding
    /// first.
    pub fn sleep(&self) -> SsResult<()> {
        if !self.is_root() {
            // Pool-wide lifecycle stays with the root handle: one tenant
            // must not park the delegates out from under the others.
            return Err(SsError::WrongContext);
        }
        self.require_program_thread()?;
        self.check_live()?;
        if self.in_isolation() {
            return Err(SsError::NotInAggregation);
        }
        self.inner.force_sleep.store(true, Ordering::Release);
        Ok(())
    }

    /// Terminates the delegate threads after they drain their queues (Table 1
    /// `terminate`). Idempotent; also implied by dropping the last handle.
    pub fn shutdown(&self) -> SsResult<()> {
        if !self.is_root() {
            return Err(SsError::WrongContext);
        }
        self.require_program_thread()?;
        if self.in_isolation() {
            return Err(SsError::NotIsolating); // must end the epoch first
        }
        self.inner.terminate_and_join();
        Ok(())
    }
}

impl Inner {
    /// Sends termination objects, wakes and joins all delegates. Called from
    /// `shutdown` (program thread) or from `Drop` (sole owner) — both give
    /// exclusive access to the producers.
    fn terminate_and_join(&self) {
        if !self.terminated.swap(true, Ordering::AcqRel) {
            for i in 0..self.n_delegates {
                let terminate = Invocation::Token {
                    token: SyncToken::new(),
                    terminate: true,
                };
                match &self.channels {
                    Channels::Spsc { producers, .. } => {
                        // SAFETY: exclusive by the method contract above.
                        let producer = unsafe { producers[i].get() };
                        let _ = producer.push_blocking(terminate);
                    }
                    Channels::Steal(shared) => {
                        // Queues are already drained at shutdown (an open
                        // isolation epoch forbids it), so the scope is moot;
                        // `Open` keeps a stuck-at-exit thief from being
                        // frozen out of a peer's leftovers.
                        shared.deques[i].push_fence(ss_queue::FenceScope::Open, terminate);
                    }
                }
                self.events[i].notify();
            }
            // A session barrier or capped submit waiting on work that can
            // no longer run must see the flag: it is part of both waits'
            // predicates.
            self.core.root.waiter.notify();
            for d in self.core.sessions.lock().values() {
                d.waiter.notify();
            }
        }
        let mut handles = self.join_handles.lock();
        for h in handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.terminate_and_join();
    }
}
