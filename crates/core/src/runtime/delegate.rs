//! The delegate context: worker threads, their wakeup channel and wait
//! policy (§4) — and the scoped [`DelegateContext`] handle that makes
//! **recursive delegation** (the paper's §4 future work) a safe public
//! API.
//!
//! Each delegate thread owns one incoming queue and repeatedly reads
//! invocation objects from it. While the queue is empty the thread follows
//! the configured [`WaitPolicy`]: spin, spin-then-yield, or spin-then-park
//! — plus the `force_sleep` override that
//! [`Runtime::sleep`](super::Runtime::sleep) raises during long
//! aggregation epochs.
//!
//! Two worker loops exist, matching the two transports:
//!
//! * [`delegate_main`] — the seed's loop over a FastForward SPSC consumer,
//!   extended to drain the ring's multi-producer **injector lane** (where
//!   nested delegations from other delegates land) whenever the ring runs
//!   dry.
//! * [`delegate_main_stealing`] — pops the delegate's own
//!   [`StealDeque`](ss_queue::StealDeque) (which receives both program and
//!   nested pushes) and, when it runs dry, attempts to steal never-started
//!   serialization sets from the deepest peer queue ([`try_steal`]) before
//!   falling back to the wait policy. A parked thief re-checks for steal
//!   opportunities on its bounded-wait wakeups (≤ 1 ms), so a victim that
//!   becomes loaded while peers sleep is relieved within a millisecond
//!   even if no push ever wakes them.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use ss_queue::oneshot::WaitSignal;
use ss_queue::{Consumer, Pop};

use crate::config::WaitPolicy;
use crate::error::{SsError, SsResult};
use crate::future::SsFuture;
use crate::invocation::{ExecCx, Invocation, SyncToken, TaskSlot};
use crate::serializer::{Serializer, SsId};
use crate::stats::StatsCell;
use crate::trace::{SideEvent, TraceExecutor, TraceKind};
use crate::wrappers::{Memo, NoMemo, Submitter, Void, Writable};

use super::dispatch::Lane;
use super::domain::{key_domain, Domain};
use super::{Core, Executor, Router, Runtime, StealShared};

thread_local! {
    /// `(runtime id, delegate index)` for delegate threads; `None` elsewhere.
    pub(super) static DELEGATE_CTX: Cell<Option<(u64, u32)>> = const { Cell::new(None) };

    /// Domain id of the operation currently executing on this thread
    /// (0 = root). Stamped around `task.run` by [`execute_op`] —
    /// save/restore, because help-first waits nest executions — and read
    /// by nested submits to reject cross-domain re-delegation.
    static CURRENT_DOMAIN: Cell<u32> = const { Cell::new(0) };
}

/// Domain id of the operation currently executing on the calling thread
/// (0 when none, or a root operation, is running).
pub(super) fn current_domain_id() -> u32 {
    CURRENT_DOMAIN.with(|c| c.get())
}

/// Sleep/wake channel for one delegate thread (used by the `SpinPark` wait
/// policy and by [`Runtime::sleep`](super::Runtime::sleep)). Every
/// submitter reads `sleeping` once per operation, so the channel gets a
/// cache-line pair of its own rather than whatever neighbour the
/// allocator gives an object of a few words.
#[repr(align(128))]
pub(super) struct Wakeup {
    mutex: Mutex<()>,
    condvar: Condvar,
    /// Set by the delegate *before* it re-checks its queue and parks; the
    /// program thread checks it *after* publishing an invocation. SeqCst
    /// fences on both sides close the store-buffer race (see `park_if_empty`
    /// / `notify`).
    sleeping: AtomicBool,
}

impl Wakeup {
    pub(super) fn new() -> Self {
        Wakeup {
            mutex: Mutex::new(()),
            condvar: Condvar::new(),
            sleeping: AtomicBool::new(false),
        }
    }

    /// Producer side: wake the delegate if it is (or is about to be) parked.
    pub(super) fn notify(&self) {
        // Pairs with the fence in `park_if_empty`. The preceding queue push
        // used Release; the SeqCst fences on both sides forbid the
        // store-buffer outcome where the delegate misses the new item *and*
        // we miss `sleeping == true`.
        fence(Ordering::SeqCst);
        if self.sleeping.load(Ordering::Relaxed) {
            let _g = self.mutex.lock();
            self.condvar.notify_one();
        }
    }

    /// Delegate side: park until notified, unless `queue_nonempty` observes
    /// work after the sleeping flag is raised. A bounded wait is used as a
    /// belt-and-suspenders guard so a missed wakeup degrades to latency,
    /// never deadlock.
    fn park_if_empty(&self, queue_nonempty: impl Fn() -> bool) {
        let mut guard = self.mutex.lock();
        self.sleeping.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        if !queue_nonempty() {
            self.condvar
                .wait_for(&mut guard, std::time::Duration::from_millis(1));
        }
        self.sleeping.store(false, Ordering::Relaxed);
    }
}

// ----------------------------------------------------------------------
// temporal slipping (the ring transport's consumer)
//
// A delegate that pops an operation the instant its producer publishes it
// shares that operation's cache lines with the producer *while both use
// them*: the ring slot, and — because a program thread's consecutive
// delegations usually target the same object — the object's state mutex,
// pending count and reference count, which the producer is already
// raising for the next operation. Every operation then costs both threads
// several core-to-core transfers, and the pair runs at one of two speeds
// a factor of two apart: *lockstep* (ring empty, each side slowed by the
// other, so the producer never gets away) or *run-ahead* (the delegate a
// few objects behind, neither side waiting on a line the other holds).
// Which one an epoch lands in is decided by timer ticks and wake-up
// latencies — that is what made tiny-operation throughput bimodal from
// one run to the next.
//
// FastForward's answer (Giacomoni et al., PPoPP 2008) is *temporal
// slipping*: a consumer that catches up with a streaming producer holds
// off until the producer is a margin ahead again. Here a delegate that
// finds its ring dry and then sees an entry waits, before popping it,
// until `SLIP_LEAD` entries are there. Three rules keep the wait off
// every path where somebody is waiting for the delegate:
//
// * **Streams only.** The slip is armed once the delegate has drained
//   `SLIP_ARM` ring operations in a row; a token, or an idle spell long
//   enough to leave the backoff's first spin rounds, disarms it. Small
//   epochs and sparse operations (a `delegate_with` → `wait` round trip)
//   never slip.
// * **Never against a waiting program thread.** The root program thread
//   re-arms its per-delegate `SyncToken` before it pushes it (barrier,
//   ownership reclaim); a slip ends the moment that token is pending, so
//   the tail of an epoch is drained at once.
// * **Bounded.** `SLIP_SPINS` spin hints end a slip whatever happens — a
//   producer that stopped without pushing a token (a program-thread
//   future wait) is kept waiting for microseconds, not more.
//
// Nothing is reordered: a slip only delays popping an entry that is
// already in the ring.

/// Ring operations a delegate must drain in a row before it slips.
const SLIP_ARM: u32 = 64;
/// The lead a slipping delegate lets its producer rebuild: four objects'
/// worth of a 16-operations-per-object stream, an eighth of the default
/// ring.
const SLIP_LEAD: usize = 64;
/// Upper bound on one slip, in spin hints (a dozen microseconds).
const SLIP_SPINS: u32 = 1024;
/// Consecutive empty polls after which the delegate counts as idle, not
/// as trailing a stream: the backoff's spin rounds, before it yields.
const SLIP_IDLE_POLLS: u32 = 8;

/// The ring consumer's slip state (see the section comment above).
#[derive(Default)]
struct Slip {
    /// Ring operations popped since the last token or idle spell.
    streak: u32,
    /// Empty ring polls since the last pop.
    dry: u32,
}

impl Slip {
    /// A ring operation was popped.
    fn popped(&mut self) {
        self.streak = self.streak.saturating_add(1);
        self.dry = 0;
    }

    /// A ring poll came back empty.
    fn ran_dry(&mut self) {
        self.dry = self.dry.saturating_add(1);
        if self.dry == SLIP_IDLE_POLLS {
            self.streak = 0;
        }
    }

    /// A token was popped: the program thread is waiting on this delegate.
    fn disarm(&mut self) {
        *self = Slip::default();
    }

    /// Called before each ring pop. If the delegate has just caught up
    /// with a streaming producer (armed, last poll empty, an entry there
    /// now), lets the producer get `SLIP_LEAD` entries ahead, unless
    /// `sync` — the program thread's token for this delegate — is pending.
    /// Returns the spin hints spent.
    fn before_pop(&mut self, consumer: &Consumer<Invocation>, sync: &SyncToken) -> u32 {
        if self.dry == 0 || self.streak < SLIP_ARM || !consumer.has_pending() {
            return 0;
        }
        self.dry = 0;
        let lead = SLIP_LEAD.min(consumer.capacity());
        let mut spins = 0;
        while spins < SLIP_SPINS && !consumer.has_lead(lead) && !sync.is_pending() {
            core::hint::spin_loop();
            spins += 1;
        }
        spins
    }
}

// ----------------------------------------------------------------------
// help-first execution (futures on delegated operations)
//
// A delegate blocked in `SsFuture::wait` must not simply park: the
// operation it waits on may sit in its *own* queue (it transitively
// spawned it there), in which case parking deadlocks. Instead the waiter
// executes entries from its own queue — "help-first", the nested-reclaim
// protocol the ROADMAP sketches, scoped to futures — with two carve-outs
// that keep the execution model's invariants intact:
//
// * **Entries of an *active* set are deferred, not executed.** The
//   delegate keeps a stack of the serialization sets whose operations are
//   currently on its call stack; executing another operation of such a
//   set would alias the live `&mut` borrow of the object (and would break
//   per-set program order — those entries are ordered *after* the running
//   operation). Deferred entries are re-queued locally and run, in their
//   original FIFO order, once the stack unwinds.
// * **Synchronization/termination tokens are always deferred.** A token's
//   contract is "when signaled, everything ordered before it has
//   completed" — but the operation the help loop is nested inside has
//   not completed, so signaling from inside the loop would let a reclaim
//   or epoch barrier observe a half-executed queue. The main loop drains
//   the deferred buffer (tokens included, in order) before popping
//   anything new, so the contract holds exactly.

/// An entry parked in the help-first deferred buffer (see the module
/// comment above for the two reasons an entry gets deferred).
struct DeferredEntry {
    inv: Invocation,
    /// Where the entry was popped from (decides which counters settle
    /// after execution: see [`Lane::counted`]).
    lane: Lane,
}

/// A ring entry deliberately held back by the chaos `reorder_drain`
/// weakening, waiting for the next entry to overtake it.
#[cfg(feature = "chaos")]
type ChaosHold = (TaskSlot, SsId, u64, Option<Arc<Domain>>);

/// Raw handles onto the queue the owning delegate thread pops from.
/// Pointers into `delegate_main{,_stealing}`'s stack frame; valid for the
/// lifetime of the installed [`HelpState`] (the loops uninstall before
/// returning) and only ever dereferenced on the owning thread.
#[derive(Clone, Copy)]
enum SourcePtr {
    Spsc(*const Consumer<Invocation>),
    Steal(*const StealShared),
}

/// Per-delegate-thread help-first state, installed for the duration of
/// the worker loop. Entirely thread-private — the deadlock detector sees
/// other delegates' active stacks only through the snapshots they
/// register in `Core::future_waits` when they block, so the per-op
/// push/pop below costs no synchronization.
struct HelpState {
    rt_id: u64,
    idx: usize,
    source: SourcePtr,
    core: *const Core,
    /// Serialization sets whose operations are currently on this
    /// thread's call stack (outermost first). Grows past one element
    /// only when a help-executed operation itself blocks on a future.
    active: Vec<u64>,
    /// Entries popped by the help loop that may not run yet.
    deferred: VecDeque<DeferredEntry>,
}

thread_local! {
    /// The owning delegate loop's help state; `None` on non-delegate
    /// threads and outside the loop.
    static HELP: RefCell<Option<HelpState>> = const { RefCell::new(None) };
}

/// Installs the thread's [`HelpState`] and removes it on drop, so a
/// worker loop that exits by any path leaves no dangling frame pointers
/// behind in the thread-local.
struct HelpInstall;

impl HelpInstall {
    fn new(state: HelpState) -> Self {
        HELP.with(|h| *h.borrow_mut() = Some(state));
        HelpInstall
    }
}

impl Drop for HelpInstall {
    fn drop(&mut self) {
        HELP.with(|h| *h.borrow_mut() = None);
    }
}

/// True when `set` is on the calling thread's active-set stack (an
/// operation of that set is currently on this call stack).
fn active_contains(set: u64) -> bool {
    HELP.with(|h| h.borrow().as_ref().is_some_and(|s| s.active.contains(&set)))
}

/// A copy of the calling thread's active-set stack (registered alongside
/// a blocked wait so the deadlock detector can read it).
fn active_snapshot() -> Vec<u64> {
    HELP.with(|h| {
        h.borrow()
            .as_ref()
            .map(|s| s.active.clone())
            .unwrap_or_default()
    })
}

/// Pops the front of the deferred buffer (main-loop use: the active stack
/// is empty at the loop's top level, so everything is runnable and tokens
/// may be signaled).
fn deferred_pop_front() -> Option<DeferredEntry> {
    HELP.with(|h| h.borrow_mut().as_mut().and_then(|s| s.deferred.pop_front()))
}

fn deferred_push_back(entry: DeferredEntry) {
    HELP.with(|h| {
        if let Some(s) = h.borrow_mut().as_mut() {
            s.deferred.push_back(entry);
        }
    });
}

/// Removes the first *runnable* deferred entry: an `Execute` whose set is
/// not on the active stack (help-loop use). Same-set entries keep their
/// relative order, so per-set FIFO survives the out-of-order removal of
/// entries belonging to different sets.
fn deferred_take_runnable() -> Option<DeferredEntry> {
    HELP.with(|h| {
        let mut b = h.borrow_mut();
        let s = b.as_mut()?;
        let pos = s.deferred.iter().position(
            |d| matches!(&d.inv, Invocation::Execute { ss, .. } if !s.active.contains(&ss.0)),
        )?;
        s.deferred.remove(pos)
    })
}

/// Cap on each per-delegate cost-sample buffer: bounds memory if the
/// policy goes a long time without an assignment to drain them at.
const COST_SAMPLE_CAP: usize = 4096;

/// Executes one `Execute` invocation with active-set tracking and
/// origin-correct counter settlement. Shared by the worker loops and the
/// help loop so every path maintains identical accounting. The task slot
/// never unwinds (`Writable::package` traps panics), so the push/pop pair
/// stays balanced.
///
/// When the assignment policy asked for cost feedback
/// (`Core::cost_samples` present), the operation's wall time is recorded
/// into this delegate's sample buffer — an uncontended mutex push, off
/// unless a cost-aware policy (e.g. `EwmaCost`) is active.
///
/// `steal` carries the stealing transport's router and the executing
/// delegate's own deque. When present, the operation's wall time also
/// feeds the router's shared steal-pricing cost model
/// (`StealPolicy::CostAware` only), and — for deque-origin entries — the
/// deque's per-key in-flight count is settled (`StealDeque::finish`)
/// once the operation's effects and audit record are complete. That
/// settle is the owner's half of the quiescence handshake: a thief may
/// migrate the queued tail of a started set only after every popped
/// operation of the set has been finished here.
#[allow(clippy::too_many_arguments)]
fn execute_op(
    core: &Core,
    idx: usize,
    ss: SsId,
    task: TaskSlot,
    audit: u64,
    session: Option<Arc<Domain>>,
    lane: Lane,
    steal: Option<(&Router, &ss_queue::StealDeque<Invocation>)>,
) {
    HELP.with(|h| {
        if let Some(s) = h.borrow_mut().as_mut() {
            s.active.push(ss.0);
        }
    });
    let d: &Domain = session.as_deref().unwrap_or(&core.root);
    // Stamp the domain marker for the duration of the user code, so a
    // nested re-delegation from inside it can verify it targets the same
    // domain. Saved/restored, not set/cleared: help-first waits nest
    // executions of (possibly) different domains on one stack.
    let prev_domain = CURRENT_DOMAIN.with(|c| c.replace(d.id));
    let want_timer =
        core.cost_samples.is_some() || steal.is_some_and(|(router, _)| router.cost_aware());
    let timer = want_timer.then(std::time::Instant::now);
    task.run(&ExecCx {
        core,
        executor: TraceExecutor::Delegate(idx),
    });
    CURRENT_DOMAIN.with(|c| c.set(prev_domain));
    // Audit record lands *before* the drain counters settle below, so the
    // domain barrier's token/`in_flight` drain proves every record of the
    // epoch has been delivered by the time the auditor closes it.
    core.audit_exec(d, ss, audit, 1 + idx);
    let elapsed = timer.map(|t0| t0.elapsed().as_nanos() as u64);
    if let (Some(buffers), Some(nanos)) = (&core.cost_samples, elapsed) {
        let mut buffer = buffers[idx].lock();
        if buffer.len() < COST_SAMPLE_CAP {
            buffer.push((ss.0, nanos));
        }
    }
    HELP.with(|h| {
        if let Some(s) = h.borrow_mut().as_mut() {
            s.active.pop();
        }
    });
    if let Some((router, deque)) = steal {
        if let Some(nanos) = elapsed {
            router.observe_cost(ss.0, nanos); // no-op unless cost-aware
        }
        // Two harness gates bracket the owner's half of the quiescence
        // handshake: "ran" holds the op *complete but unfinished* (set
        // still busy to thieves), "done" fires after `finish` (set
        // quiescent if nothing else is in flight) — so a script can force
        // the owner/thief race to either outcome by name.
        core.gate("ran", idx as u32);
        // Only after the audit record above is delivered may the set look
        // quiescent to a thief's tail-steal — so a stolen tail is provably
        // ordered after every completed operation of the owner's prefix.
        if lane == Lane::Deque {
            deque.finish(ss.0);
        }
        core.gate("done", idx as u32);
    }
    // Counted in this delegate's own block, which no other thread writes;
    // the queue depth `queued − executed` drops with it. Lane/deque
    // entries additionally carry a count in their *domain's* `in_flight`,
    // whose Release pairs with the barrier's Acquire drain load (and so
    // publishes this bump to it) — only the owning domain's barrier
    // observes this op.
    StatsCell::bump(&core.stats.delegate(idx).executed);
    if lane.counted() {
        d.settle(1);
    }
}

/// One help-first step by the calling delegate thread: execute a runnable
/// deferred entry, or pop entries from the own queue until one is
/// runnable (deferring the rest). Returns whether an operation executed.
fn help_one(rt_id: u64) -> bool {
    let Some((idx, source, core)) = HELP.with(|h| {
        h.borrow()
            .as_ref()
            .filter(|s| s.rt_id == rt_id)
            .map(|s| (s.idx, s.source, s.core))
    }) else {
        return false;
    };
    // SAFETY: the pointers were installed by this thread's worker loop,
    // which is still on the stack below us; dereferenced only here, on
    // the owning thread.
    let core = unsafe { &*core };
    // Help-executed deque entries settle their per-key in-flight count
    // here rather than through `execute_op`'s steal path: the helper has
    // no router in hand, and cost observation is deliberately skipped for
    // these nested executions (conservative — the model just sees fewer
    // samples). The settle itself must still happen, or the set would
    // never look quiescent again.
    let finish_deque = |lane: Lane, set: u64| {
        if lane == Lane::Deque {
            if let SourcePtr::Steal(shared) = source {
                // SAFETY: owning thread, worker frame alive (as above).
                unsafe { &*shared }.deques[idx].finish(set);
            }
        }
    };
    if let Some(d) = deferred_take_runnable() {
        let Invocation::Execute {
            task,
            ss,
            audit,
            session,
        } = d.inv
        else {
            unreachable!("deferred_take_runnable only returns Execute entries");
        };
        execute_op(core, idx, ss, task, audit, session, d.lane, None);
        finish_deque(d.lane, ss.0);
        return true;
    }
    loop {
        let popped = match source {
            // SAFETY: as above — owning thread, frame alive.
            SourcePtr::Spsc(consumer) => {
                let consumer = unsafe { &*consumer };
                match consumer.try_pop() {
                    Pop::Value(inv) => Some((inv, Lane::Ring)),
                    _ => consumer.try_pop_injected().map(|inv| (inv, Lane::Injected)),
                }
            }
            SourcePtr::Steal(shared) => {
                let shared = unsafe { &*shared };
                shared.deques[idx].pop().map(|(_, inv)| (inv, Lane::Deque))
            }
        };
        let Some((inv, lane)) = popped else {
            return false;
        };
        match inv {
            Invocation::Execute {
                task,
                ss,
                audit,
                session,
            } if !active_contains(ss.0) => {
                execute_op(core, idx, ss, task, audit, session, lane, None);
                finish_deque(lane, ss.0);
                return true;
            }
            inv => deferred_push_back(DeferredEntry { inv, lane }),
        }
    }
}

/// Outcome of one turn of a delegate-context future wait (see
/// [`future_wait_turn`]).
pub(crate) enum WaitTurn {
    /// The calling thread is not a delegate of this runtime; the caller
    /// should block conventionally.
    NotDelegate,
    /// A help-first step executed an operation; poll again.
    Progress,
    /// No local work; the waiter registered in the waits-for table and
    /// parked briefly.
    Waited,
    /// The wait can never complete ([`SsError::FutureDeadlock`]).
    Deadlock,
}

/// One turn of `SsFuture::wait` on a (potential) delegate thread:
/// self-cycle rejection, then help-first, then a registered bounded park
/// with waits-for cycle detection. `park` must be a bounded wait that
/// returns early when `signal` settles (the future's receiver provides
/// exactly that).
pub(crate) fn future_wait_turn(
    rt: &Runtime,
    set: SsId,
    signal: &WaitSignal,
    park: &mut dyn FnMut(),
) -> WaitTurn {
    let me = DELEGATE_CTX.with(|c| match c.get() {
        Some((id, idx)) if id == rt.inner.id => Some(idx as usize),
        _ => None,
    });
    let Some(me) = me else {
        return WaitTurn::NotDelegate;
    };
    // Operations are submitted under their domain's routing key, and
    // that is what the active stacks and queue entries carry — qualify the
    // set once here so every check below compares like with like.
    let set = SsId(rt.domain().key(set));
    // Immediate self-cycle: the waited-on operation belongs to a set this
    // thread is currently executing, so per-set FIFO orders it after the
    // operation doing the waiting. Deterministic, no timing involved.
    if active_contains(set.0) {
        return WaitTurn::Deadlock;
    }
    if help_one(rt.inner.id) {
        return WaitTurn::Progress;
    }
    {
        let mut waits = rt.inner.core.future_waits.lock();
        waits[me] = Some((set.0, signal.clone(), active_snapshot()));
        if wait_cycle_closes(rt, me, set.0, &waits) {
            waits[me] = None;
            return WaitTurn::Deadlock;
        }
    }
    park();
    rt.inner.core.future_waits.lock()[me] = None;
    WaitTurn::Waited
}

/// Walks the waits-for graph from `first_set` and reports whether it
/// closes back on delegate `me` — the only configuration no amount of
/// helping or waiting can resolve.
///
/// A hop `set → delegate j` is a *stuck* edge only when **both** hold:
///
/// * `set` is on `j`'s active-set stack — an operation of `set` is
///   (transitively) on `j`'s call stack, so per-set FIFO orders the
///   waited-on operation behind frames that cannot unwind until `j`'s
///   own wait resolves. (A set merely *queued* at `j` is not stuck: `j`
///   help-executes it on its next turn, even while blocked — this is
///   exactly what distinguishes a deadlock from an in-progress help.)
/// * `j` is registered blocked on an unsettled future (or `j == me`,
///   closing the cycle — `me`'s stack cannot unwind until this very
///   wait resolves).
///
/// Soundness of the positive answer: while the `future_waits` mutex is
/// held, registered waiters cannot deregister (deregistration takes the
/// mutex) and are parked or walking — not executing — so the active-set
/// snapshots they registered are still their live stacks; started sets
/// never migrate, so the pins along the chain are stable too. Every edge
/// of a reported cycle is therefore simultaneously stuck, and no member
/// can ever run. Chains that end anywhere else (a program-owned or
/// unpinned set, a merely-queued operation, an unregistered — i.e.
/// running — delegate, a settled future) return `false` and the waiter
/// retries after a bounded park.
fn wait_cycle_closes(
    rt: &Runtime,
    me: usize,
    first_set: u64,
    waits: &[Option<super::FutureWait>],
) -> bool {
    let mut set = first_set;
    // A simple cycle visits each delegate at most once; the hop cap
    // bounds the walk without a visited set (longer chains revisit a
    // delegate, whose wait entry would just be followed again — the cap
    // cuts the walk with a conservative `false`).
    for _ in 0..=waits.len() {
        // Keys in the graph are namespace-qualified; resolve each hop in
        // the pin map its domain owns.
        let Some(Executor::Delegate(j)) = rt.executor_of_key(set) else {
            return false;
        };
        if j == me {
            // Closing hop: `me` is walking, so its live (thread-local)
            // stack is the authority.
            return active_contains(set);
        }
        match &waits[j] {
            Some((next, sig, stack)) if !sig.is_settled() => {
                if !stack.contains(&set) {
                    return false; // queued at j, not stuck: j will help
                }
                set = *next;
            }
            _ => return false, // j is running; its stack will unwind
        }
    }
    false
}

/// Delegate thread main loop (§4): repeatedly read invocation objects from
/// the communication queue and execute them.
///
/// The thread receives only the pieces it needs (consumer, wakeup,
/// force-sleep flag, the shared [`Core`] for stats) — deliberately *not*
/// an `Arc` of the runtime's `Inner`, which would keep the runtime alive
/// forever (threads are joined by `Inner::drop`).
#[allow(clippy::too_many_arguments)]
pub(super) fn delegate_main(
    rt_id: u64,
    idx: u32,
    consumer: Consumer<Invocation>,
    wakeup: Arc<Wakeup>,
    sync: Arc<SyncToken>,
    policy: WaitPolicy,
    force_sleep: Arc<AtomicBool>,
    core: Arc<Core>,
) {
    DELEGATE_CTX.with(|c| c.set(Some((rt_id, idx))));
    let _help = HelpInstall::new(HelpState {
        rt_id,
        idx: idx as usize,
        source: SourcePtr::Spsc(&consumer),
        core: Arc::as_ptr(&core),
        active: Vec::new(),
        deferred: VecDeque::new(),
    });
    let backoff = ss_queue::Backoff::new();
    let mut slip = Slip::default();
    // Chaos `reorder_drain`: at most one ring entry is held back so its
    // successor overtakes it — an adjacent swap in the drain order. The
    // hold is flushed before any token is signaled (and before the ring
    // goes idle), so barrier drains still cover every operation; only the
    // per-set FIFO order is weakened.
    #[cfg(feature = "chaos")]
    let mut chaos_hold: Option<ChaosHold> = None;
    #[cfg(feature = "chaos")]
    macro_rules! chaos_flush {
        () => {
            if let Some((task, ss, audit, session)) = chaos_hold.take() {
                execute_op(
                    &core,
                    idx as usize,
                    ss,
                    task,
                    audit,
                    session,
                    Lane::Ring,
                    None,
                );
            }
        };
    }
    loop {
        // Entries a nested future wait deferred come first: they were
        // popped before anything still queued, and the active stack is
        // empty at the loop's top level, so every entry is runnable and
        // tokens may finally be signaled (their "everything before me has
        // completed" contract now holds).
        if let Some(d) = deferred_pop_front() {
            backoff.reset();
            match d.inv {
                Invocation::Execute {
                    task,
                    ss,
                    audit,
                    session,
                } => execute_op(&core, idx as usize, ss, task, audit, session, d.lane, None),
                Invocation::Token { token, terminate } => {
                    #[cfg(feature = "chaos")]
                    chaos_flush!();
                    slip.disarm();
                    token.signal();
                    if terminate {
                        break;
                    }
                }
            }
            continue;
        }
        let _ = slip.before_pop(&consumer, &sync);
        match consumer.try_pop() {
            Pop::Value(inv) => {
                backoff.reset();
                match inv {
                    Invocation::Execute {
                        task,
                        ss,
                        audit,
                        session,
                    } => {
                        slip.popped();
                        #[cfg(feature = "chaos")]
                        let (task, ss, audit, session) = if core.chaos_reorder_drain() {
                            match chaos_hold.take() {
                                // A predecessor is parked: run the newer
                                // entry now and let the older one fall
                                // through below — the swap is complete.
                                Some(held) => {
                                    execute_op(
                                        &core,
                                        idx as usize,
                                        ss,
                                        task,
                                        audit,
                                        session,
                                        Lane::Ring,
                                        None,
                                    );
                                    held
                                }
                                None => {
                                    chaos_hold = Some((task, ss, audit, session));
                                    continue;
                                }
                            }
                        } else {
                            (task, ss, audit, session)
                        };
                        execute_op(
                            &core,
                            idx as usize,
                            ss,
                            task,
                            audit,
                            session,
                            Lane::Ring,
                            None,
                        )
                    }
                    Invocation::Token { token, terminate } => {
                        #[cfg(feature = "chaos")]
                        chaos_flush!();
                        slip.disarm();
                        token.signal();
                        if terminate {
                            break;
                        }
                    }
                }
            }
            Pop::Disconnected => {
                #[cfg(feature = "chaos")]
                chaos_flush!();
                break;
            }
            Pop::Empty => {
                #[cfg(feature = "chaos")]
                chaos_flush!();
                // Ring dry: drain the multi-producer injector lane, where
                // nested delegations from other delegate threads land.
                // Lane operations carry their own `in_flight` count (the
                // transitive-drain signal the epoch barrier waits on),
                // because ring tokens say nothing about the lane.
                if let Some(inv) = consumer.try_pop_injected() {
                    backoff.reset();
                    match inv {
                        Invocation::Execute {
                            task,
                            ss,
                            audit,
                            session,
                        } => execute_op(
                            &core,
                            idx as usize,
                            ss,
                            task,
                            audit,
                            session,
                            Lane::Injected,
                            None,
                        ),
                        Invocation::Token { token, terminate } => {
                            slip.disarm();
                            token.signal();
                            if terminate {
                                break;
                            }
                        }
                    }
                    continue;
                }
                slip.ran_dry();
                let force = force_sleep.load(Ordering::Acquire);
                match policy {
                    WaitPolicy::Spin if !force => backoff.spin(),
                    WaitPolicy::SpinYield if !force => backoff.snooze(),
                    _ => {
                        if force || backoff.is_completed() {
                            wakeup.park_if_empty(|| {
                                consumer.has_pending() || consumer.has_injected()
                            });
                            backoff.reset();
                        } else {
                            backoff.snooze();
                        }
                    }
                }
            }
        }
    }
    DELEGATE_CTX.with(|c| c.set(None));
}

/// Delegate thread main loop for the stealing transport: drain the own
/// deque FIFO; when it runs dry, try to steal a batch of never-started
/// sets from the deepest peer; otherwise idle per the wait policy.
#[allow(clippy::too_many_arguments)]
pub(super) fn delegate_main_stealing(
    rt_id: u64,
    idx: u32,
    shared: Arc<StealShared>,
    router: Arc<Router>,
    wakeup: Arc<Wakeup>,
    policy: WaitPolicy,
    force_sleep: Arc<AtomicBool>,
    core: Arc<Core>,
) {
    DELEGATE_CTX.with(|c| c.set(Some((rt_id, idx))));
    let me = idx as usize;
    let _help = HelpInstall::new(HelpState {
        rt_id,
        idx: me,
        source: SourcePtr::Steal(Arc::as_ptr(&shared)),
        core: Arc::as_ptr(&core),
        active: Vec::new(),
        deferred: VecDeque::new(),
    });
    let deque = &shared.deques[me];
    let backoff = ss_queue::Backoff::new();
    // Per-victim, per-push-shard counts at the last *failed* steal: a
    // victim none of whose shard counters moved since then has nothing
    // new to offer, so skip the O(queue) scan entirely; if only some
    // shards moved, scan just those (see `StealDeque::pushes_by_shard` —
    // an unchanged shard saw neither a push nor a quiescence edge, so its
    // keys' eligibility cannot have improved).
    let mut stale_at: Vec<Option<[usize; ss_queue::PUSH_SHARDS]>> = vec![None; shared.deques.len()];
    'main: loop {
        // Deferred-first, as in `delegate_main`: entries a nested future
        // wait parked were popped before anything still in the deque.
        while let Some(d) = deferred_pop_front() {
            backoff.reset();
            match d.inv {
                Invocation::Execute {
                    task,
                    ss,
                    audit,
                    session,
                } => execute_op(
                    &core,
                    me,
                    ss,
                    task,
                    audit,
                    session,
                    d.lane,
                    Some((&router, deque)),
                ),
                Invocation::Token { token, terminate } => {
                    token.signal();
                    if terminate {
                        break 'main;
                    }
                }
            }
        }
        // Popping marks the entry's set *started* here (inside the deque's
        // critical section) and raises its in-flight count — the point of
        // no return for whole-set migration. The queued tail behind a
        // started set stays stealable (CostAware only) once the count
        // settles back to zero: see the quiescence handshake in
        // `try_steal_cost_aware` / `execute_op`.
        loop {
            // The "poll" gate lets the deterministic-schedule harness
            // order this owner's next pop against a thief's scan. Gated
            // on a script being armed so the hot path stays a plain pop;
            // the empty-check keeps a free-running owner from consuming
            // script steps meant for a loop that still has work.
            if core.test_gates.is_some() {
                if deque.is_empty() {
                    break;
                }
                core.gate("poll", idx);
            }
            let Some((_tag, inv)) = deque.pop() else {
                break;
            };
            backoff.reset();
            match inv {
                Invocation::Execute {
                    task,
                    ss,
                    audit,
                    session,
                } => {
                    core.gate("popped", idx);
                    // The Release inside pairs with the barrier's Acquire
                    // load: `in_flight == 0` must imply every operation's
                    // effects are visible to the program thread.
                    execute_op(
                        &core,
                        me,
                        ss,
                        task,
                        audit,
                        session,
                        Lane::Deque,
                        Some((&router, deque)),
                    );
                    // A nested wait inside the op may have deferred
                    // entries; surface them before draining further.
                    if HELP.with(|h| h.borrow().as_ref().is_some_and(|s| !s.deferred.is_empty())) {
                        continue 'main;
                    }
                }
                Invocation::Token { token, terminate } => {
                    token.signal();
                    if terminate {
                        break 'main;
                    }
                }
            }
        }
        if try_steal(&shared, &router, me, &core, &mut stale_at) {
            backoff.reset();
            continue;
        }
        let force = force_sleep.load(Ordering::Acquire);
        match policy {
            WaitPolicy::Spin if !force => backoff.spin(),
            WaitPolicy::SpinYield if !force => backoff.snooze(),
            _ => {
                if force || backoff.is_completed() {
                    // The bounded park (≤ 1 ms) doubles as the steal
                    // retry tick for delegates whose own queue stays
                    // empty while a peer's grows.
                    wakeup.park_if_empty(|| !deque.is_empty());
                    backoff.reset();
                } else {
                    backoff.snooze();
                }
            }
        }
    }
    DELEGATE_CTX.with(|c| c.set(None));
}

/// One steal attempt by delegate `me`: pick the deepest peer queue that
/// clears the policy's depth bar, then migrate roughly half of its
/// never-started, unfenced set batches into our own deque and rewrite
/// their pins. Returns true if any work arrived.
///
/// The migration is **two-phase** against the sharded pin map:
///
/// 1. *Candidate selection* — `stealable_keys` lists the victim's
///    eligible batches (one deque critical section, no routing locks),
///    and the newest half are chosen, matching `steal_half_into`'s
///    keep-the-oldest-for-the-owner heuristic.
/// 2. *Validated migration* — [`Router::migrate_keys`] locks the chosen
///    keys' shards (ascending shard order: concurrent thieves cannot
///    deadlock), re-checks each key is still pinned to the victim
///    (another thief may have won it meanwhile), and only then removes
///    the batches, lands them here, and rewrites the pins — all inside
///    those shard locks. A submit of an affected set serializes with the
///    migration on its shard, so no operation can be routed to either
///    queue mid-flight and a reclaim token can never chase a set to a
///    queue it has already left; submits of unrelated sets proceed in
///    parallel. `steal_keys_into` re-validates started/fence status
///    under the deque lock, so a key the owner popped between the phases
///    is skipped whole (and its pin left alone).
fn try_steal(
    shared: &StealShared,
    router: &Router,
    me: usize,
    core: &Core,
    stale_at: &mut [Option<[usize; ss_queue::PUSH_SHARDS]>],
) -> bool {
    if router.cost_aware() {
        return try_steal_cost_aware(shared, router, me, core, stale_at);
    }
    let Some(min_depth) = shared.policy.min_victim_depth() else {
        return false;
    };
    // Victim selection is lock-free: scan the cache-padded length counters
    // and take the deepest qualifying peer, skipping victims none of whose
    // per-shard push counters moved since our last failed scan of them (a
    // failed scan proves everything they held was started or fenced, and
    // only new pushes — or, under CostAware, quiescence edges, which bump
    // the key's shard counter too — can add stealable batches).
    let mut victim: Option<(usize, usize, [usize; ss_queue::PUSH_SHARDS])> = None;
    for (j, d) in shared.deques.iter().enumerate() {
        if j == me {
            continue;
        }
        let len = d.len();
        if len < min_depth {
            continue;
        }
        let pushes = d.pushes_by_shard();
        if stale_at[j] == Some(pushes) {
            continue;
        }
        if victim.is_none_or(|(_, best, _)| len > best) {
            victim = Some((j, len, pushes));
        }
    }
    let Some((victim, _, victim_pushes)) = victim else {
        return false; // nothing met the bar — not an attempt, no failure
    };

    // Phase 1: list eligible batches; take the newest half (the owner
    // reaches the oldest soonest). When a previous failed scan left a
    // shard memo, only the shards whose push counters moved since are
    // scanned — an unchanged shard's keys cannot have become eligible.
    let mut candidates = match stale_at[victim] {
        Some(memo) => {
            let mut changed = [false; ss_queue::PUSH_SHARDS];
            for (c, (now, then)) in changed
                .iter_mut()
                .zip(victim_pushes.iter().zip(memo.iter()))
            {
                *c = now != then;
            }
            shared.deques[victim].stealable_keys_in(&changed)
        }
        None => shared.deques[victim].stealable_keys(),
    };
    let keep = candidates.len() / 2;
    let chosen = candidates.split_off(keep);
    let serial = core.root.serial();
    let stats = core.stats.delegate(me);
    let mut batch: Vec<(u64, Invocation)> = Vec::new();
    // Chaos `steal_no_repin`: skip phase 2 entirely — lift the chosen
    // batches straight out of the victim's deque without validating or
    // rewriting their pins. Later submits of a stolen set keep routing to
    // the victim while its stolen prefix runs here: exactly the
    // two-executor overlap the auditor must catch.
    #[cfg(feature = "chaos")]
    if core.chaos_steal_no_repin() {
        let taken = shared.deques[victim].steal_keys_into(&chosen, &mut batch);
        if !batch.is_empty() {
            core.stats.move_queued(victim, me, batch.len() as u64);
            shared.deques[me].extend_keyed(std::mem::take(&mut batch));
        }
        record_steal_events(core, serial, &taken, me, TraceKind::Steal);
        if taken.is_empty() {
            stale_at[victim] = Some(victim_pushes);
            StatsCell::bump(&stats.steal_failures);
            return false;
        }
        stale_at[victim] = None;
        StatsCell::bump(&stats.steals);
        return true;
    }
    // Phase 2: validate pins and migrate under the keys' shard locks,
    // domain by domain (see `for_each_domain`).
    let mut taken_total = 0usize;
    for_each_domain(core, &chosen, |d, keys| {
        let transfer = |valid: &[u64]| {
            let taken = shared.deques[victim].steal_keys_into(valid, &mut batch);
            if !batch.is_empty() {
                // Depths are stats + victim-selection signals; `in_flight`
                // (which the barrier's drain check reads) is untouched by
                // steals. Moved before the batch lands here, so the
                // thief's depth never reads below what it then executes.
                core.stats.move_queued(victim, me, batch.len() as u64);
                shared.deques[me].extend_keyed(std::mem::take(&mut batch));
            }
            record_steal_events(core, serial, &taken, me, TraceKind::Steal);
            taken
        };
        // Chaos `cross_session_pin_leak`: move a tenant's batches but
        // "publish" the rewritten pin into the *root* namespace instead
        // of the tenant's — the wrong-map write a buggy thief would make.
        // The tenant's own pin still names the victim, so later submits
        // of the set keep routing there while its stolen prefix runs
        // here: a two-executor overlap confined to (and caught by) that
        // tenant's audit domain.
        #[cfg(feature = "chaos")]
        let leak = core.chaos_cross_session_pin_leak() && d.id != 0;
        #[cfg(not(feature = "chaos"))]
        let leak = false;
        let taken = router.migrate_keys(
            d,
            keys,
            Executor::Delegate(victim),
            Executor::Delegate(me),
            !leak,
            transfer,
        );
        #[cfg(feature = "chaos")]
        if leak {
            for &key in &taken {
                router.leak_pin(&core.root, key, Executor::Delegate(me));
            }
        }
        taken_total += taken.len();
    });
    if taken_total == 0 {
        // The victim looked deep but had nothing migratable (all started,
        // fenced, drained, or re-pinned since the depth check). Remember
        // the push count we scanned at so we do not rescan an unchanged
        // queue.
        stale_at[victim] = Some(victim_pushes);
        StatsCell::bump(&stats.steal_failures);
        return false;
    }
    stale_at[victim] = None;
    StatsCell::bump(&stats.steals);
    true
}

/// One cost-aware steal attempt by delegate `me` (`StealPolicy::CostAware`):
/// pick the victim by *queued cost* rather than queue depth, price the
/// migration against the cost model, and take both never-started sets and
/// the **quiescent tails of started sets** until roughly half the cost
/// imbalance has moved.
///
/// The tail steal relaxes the epoch-pinning invariant through a
/// quiescence handshake, in three locks:
///
/// 1. *Owner side* — every pop raises the set's in-flight count inside
///    the deque lock; `execute_op` settles it (`StealDeque::finish`)
///    only after the operation's effects and audit record land.
/// 2. *Thief side, scan* — `scan_candidates` (deque lock) classifies each
///    queued set as fresh, quiescent tail, or busy; busy sets are counted
///    in `Stats::quiesce_fail` and left alone.
/// 3. *Thief side, migrate* — under the keys' pin-shard locks the deque
///    is re-entered (`steal_tail_into`) and the quiescence check re-run;
///    a set the owner re-popped meanwhile is skipped whole. Taken tails
///    have their started marks cleared and their audit executor re-pointed
///    (`Core::audit_handover`) *before* the pin rewrite publishes them,
///    so no operation of the set can execute anywhere between the
///    owner's completed prefix and the thief's stolen tail.
///
/// Per-set program order is preserved: the tail is the entire queued
/// remainder, taken in FIFO order, and the handshake proves the prefix
/// has fully executed — so the stolen tail is ordered after it exactly
/// as on the owner.
fn try_steal_cost_aware(
    shared: &StealShared,
    router: &Router,
    me: usize,
    core: &Core,
    stale_at: &mut [Option<[usize; ss_queue::PUSH_SHARDS]>],
) -> bool {
    // Victim selection prices each delegate's queue depth
    // (`queued − executed`, kept at submit, completion and steal time)
    // instead of scanning deques: the heaviest peer whose price exceeds
    // ours.
    let stats = core.stats.delegate(me);
    let my_cost = router.queued_cost(&core.stats, me);
    let mut victim: Option<(usize, u64, [usize; ss_queue::PUSH_SHARDS])> = None;
    for (j, d) in shared.deques.iter().enumerate() {
        if j == me || d.is_empty() {
            continue;
        }
        let qc = router.queued_cost(&core.stats, j);
        if qc <= my_cost {
            continue;
        }
        let pushes = d.pushes_by_shard();
        if stale_at[j] == Some(pushes) {
            continue;
        }
        if victim.is_none_or(|(_, best, _)| qc > best) {
            victim = Some((j, qc, pushes));
        }
    }
    let Some((victim, victim_cost, victim_pushes)) = victim else {
        return false;
    };
    // Pricing: a migration pays shard locks on both deques plus a pin
    // rewrite, so it must move at least one typical operation's worth of
    // imbalance to be worth it. `max(1)` keeps the bar positive before
    // the model has seen any sample.
    let imbalance = victim_cost - my_cost;
    if imbalance <= router.cost_typical().max(1) {
        return false;
    }
    core.gate("scan", me as u32);
    // Steal-half sizing in cost units: move half the imbalance, so the
    // pair converges instead of ping-ponging work.
    let target = imbalance / 2;
    let scan = shared.deques[victim].scan_candidates();
    // Harness gate *after* the advisory scan completed: a script that
    // wants the owner to re-pop between scan and migration must order
    // the re-pop after this point, not after "scan" (which precedes the
    // scan itself — releasing the owner there races it against the scan).
    core.gate("scanned", me as u32);
    if !scan.busy.is_empty() {
        // Started sets with an operation in flight: the handshake fails
        // for them this attempt (the owner may quiesce them any moment).
        stats
            .quiesce_fail
            .fetch_add(scan.busy.len() as u64, Ordering::Relaxed);
    }
    // Greedy selection, priced per set by the cost model. Quiescent
    // tails first: they are the sets the owner is demonstrably stuck
    // behind (it started them and still has their work queued). Within
    // each class, most valuable first — the scan reports candidates in
    // deque order, and taking them as found would let a cheap shallow
    // tail satisfy the target while the deep tail the victim is
    // actually drowning under stays put.
    // Each candidate's price is snapshotted ONCE before sorting: the
    // cost model is concurrently updated by executing delegates, so a
    // sort key that re-reads the live estimate is not a total order —
    // the stdlib sort detects the inconsistency and panics, killing the
    // thief thread (and with it every operation queued behind it).
    let price =
        |&(key, n): &(u64, usize)| router.cost_estimate(key).max(1).saturating_mul(n as u64);
    let mut tails: Vec<(u64, u64)> = scan.tails.iter().map(|c| (c.0, price(c))).collect();
    tails.sort_by_key(|&(_, p)| std::cmp::Reverse(p));
    let mut fresh: Vec<(u64, u64)> = scan.fresh.iter().map(|c| (c.0, price(c))).collect();
    fresh.sort_by_key(|&(_, p)| std::cmp::Reverse(p));
    let mut moved_est = 0u64;
    let mut tail_keys: Vec<u64> = Vec::new();
    let mut fresh_keys: Vec<u64> = Vec::new();
    for &(key, p) in &tails {
        if moved_est >= target {
            break;
        }
        tail_keys.push(key);
        moved_est = moved_est.saturating_add(p);
    }
    for &(key, p) in &fresh {
        if moved_est >= target {
            break;
        }
        fresh_keys.push(key);
        moved_est = moved_est.saturating_add(p);
    }
    // Chaos `steal_mid_set`: the thief skips the quiescence check and
    // rips tails of sets whose owner is mid-operation — the auditor must
    // report the resulting two-executor overlap / order inversion.
    #[cfg(feature = "chaos")]
    let chaos_mid_set = core.chaos_steal_mid_set();
    #[cfg(feature = "chaos")]
    if chaos_mid_set {
        tail_keys.extend(scan.busy.iter().map(|&(k, _)| k));
    }
    if tail_keys.is_empty() && fresh_keys.is_empty() {
        // Busy sets are a *transient* obstacle — the owner is mid-
        // operation and settles the in-flight mark at its next finish,
        // which bumps no push counter. Rate-limiting on the push memo
        // here would blacklist the victim until its next submit, i.e.
        // potentially forever once the workload's publish phase is over.
        // Only a deque with nothing stealable and nothing in flight is
        // memoized as futile.
        if scan.busy.is_empty() {
            stale_at[victim] = Some(victim_pushes);
        }
        StatsCell::bump(&stats.steal_failures);
        core.gate("nosteal", me as u32);
        return false;
    }
    // Harness gate between the advisory scan and the validated migration:
    // a script can park the thief here and let the owner re-pop a chosen
    // tail, forcing the phase-2 re-validation branch (`steal_tail_into`
    // finds the set busy again and skips it whole).
    core.gate("migrate", me as u32);
    let serial = core.root.serial();
    let mut batch: Vec<(u64, Invocation)> = Vec::new();
    let chosen: Vec<u64> = tail_keys.iter().chain(&fresh_keys).copied().collect();
    let mut taken_total = 0usize;
    let mut tails_taken = 0u64;
    for_each_domain(core, &chosen, |d, keys| {
        let transfer = |valid: &[u64]| {
            let tail_req: Vec<u64> = valid
                .iter()
                .copied()
                .filter(|k| tail_keys.contains(k))
                .collect();
            let fresh_req: Vec<u64> = valid
                .iter()
                .copied()
                .filter(|k| !tail_keys.contains(k))
                .collect();
            // Re-entering the deque re-runs the quiescence check under
            // the pin-shard locks a concurrent submit of these sets
            // would need: a set the owner re-popped since the scan is
            // skipped whole (counted as a failed handshake).
            #[cfg(feature = "chaos")]
            let (mut taken, busy) = if chaos_mid_set {
                (
                    shared.deques[victim].steal_tail_unchecked_into(&tail_req, &mut batch),
                    0,
                )
            } else {
                shared.deques[victim].steal_tail_into(&tail_req, &mut batch)
            };
            #[cfg(not(feature = "chaos"))]
            let (mut taken, busy) = shared.deques[victim].steal_tail_into(&tail_req, &mut batch);
            if busy > 0 {
                stats.quiesce_fail.fetch_add(busy as u64, Ordering::Relaxed);
            }
            tails_taken += taken.len() as u64;
            record_steal_events(core, serial, &taken, me, TraceKind::OpSteal);
            let fresh_taken = shared.deques[victim].steal_keys_into(&fresh_req, &mut batch);
            record_steal_events(core, serial, &fresh_taken, me, TraceKind::Steal);
            taken.extend_from_slice(&fresh_taken);
            // The audit handover must precede the pin rewrite (and so
            // every future execution of these sets): any op-steal may be
            // the middle link of a steal chain, where the set already
            // executed on some delegate this epoch. Inert for sets that
            // have not executed yet.
            for &key in &taken {
                core.audit_handover(d, SsId(key), 1 + me);
            }
            if !batch.is_empty() {
                core.stats.move_queued(victim, me, batch.len() as u64);
                shared.deques[me].extend_keyed(std::mem::take(&mut batch));
            }
            taken
        };
        taken_total += router
            .migrate_keys(
                d,
                keys,
                Executor::Delegate(victim),
                Executor::Delegate(me),
                true,
                transfer,
            )
            .len();
    });
    if taken_total == 0 {
        // Every chosen key failed phase-2 re-validation: the owner
        // re-popped it between scan and migrate. That is a race lost,
        // not a futile deque — the sets are still queued and quiesce at
        // the owner's next finish, so no push-memo rate limit applies.
        StatsCell::bump(&stats.steal_failures);
        core.gate("nosteal", me as u32);
        return false;
    }
    if tails_taken > 0 {
        stats.op_steals.fetch_add(tails_taken, Ordering::Relaxed);
    }
    stale_at[victim] = None;
    StatsCell::bump(&stats.steals);
    core.gate("stole", me as u32);
    true
}

/// Runs `f(domain, keys)` once per epoch domain owning some of `keys`.
///
/// Stolen keys are domain-qualified (high bits = domain id), and each
/// domain owns a private pin map stamped with its own epoch serial — so
/// a thief's chosen keys are grouped by domain and each group is
/// validated against the map and serial its domain actually routes
/// through. Groups whose session closed since the candidates were listed
/// are skipped (its batches stay for the owner's drain). A root set whose
/// raw id aliases a tenant id fails safe: the revalidation in that
/// tenant's map misses, the key is skipped whole and its pin left alone.
fn for_each_domain(core: &Core, keys: &[u64], mut f: impl FnMut(&Domain, &[u64])) {
    let mut groups: Vec<(u32, Vec<u64>)> = Vec::new();
    for &key in keys {
        let id = key_domain(key);
        match groups.iter_mut().find(|(d, _)| *d == id) {
            Some((_, group)) => group.push(key),
            None => groups.push((id, vec![key])),
        }
    }
    for (id, group) in groups {
        if id == 0 {
            f(&core.root, &group);
        } else if let Some(session) = core.session_of_key(group[0]) {
            f(&session, &group);
        }
    }
}

/// Records one steal side event per migrated set (no-op when tracing is
/// disabled) — `TraceKind::Steal` for whole never-started sets,
/// `TraceKind::OpSteal` for the quiescent tail of a started set. Factored
/// out of [`try_steal`] so the lock scope stays readable.
fn record_steal_events(core: &Core, serial: u64, sets: &[u64], thief: usize, kind: TraceKind) {
    if let Some(buf) = &core.side_events {
        let mut buf = buf.lock();
        for &key in sets {
            buf.push(SideEvent {
                order: core.root.trace_clock.fetch_add(1, Ordering::Relaxed),
                serial,
                kind,
                object: None,
                set: Some(SsId(key)),
                executor: TraceExecutor::Delegate(thief),
            });
        }
    }
}

// ----------------------------------------------------------------------
// recursive delegation: the scoped delegate-context handle

/// Scoped handle to the calling **delegate context**, enabling recursive
/// delegation — a running delegated operation submitting further
/// operations (the paper's §4 future work).
///
/// Obtained only inside [`Runtime::delegate_scope`], so a handle can
/// exist exclusively on a delegate thread of its runtime, for the
/// duration of the scope closure (it is `!Send`/`!Sync` and borrows the
/// runtime handle, so it cannot escape to other threads; the submit path
/// additionally re-validates the calling thread's identity). Nested
/// delegations preserve every model guarantee:
///
/// * **Per-set program order.** A nested operation routes through the
///   same pin table the program thread uses, under the same lock; all
///   operations of one set land in one FIFO queue regardless of who
///   delegated them. (The interleaving of *different producers'*
///   operations within one set is scheduling-dependent — determinism is
///   per producer, as it is for the program thread alone.)
/// * **Barrier coverage.** A nested operation counts against the
///   `end_isolation` barrier from the instant it is submitted — before
///   its parent completes — so the epoch waits for the whole spawn tree.
/// * **Reclaim soundness.** Once an epoch contains nested delegations, a
///   mid-epoch `call`/`call_mut` reclaim quiesces the runtime instead of
///   flushing one queue.
///
/// Sets assigned to the *program* context cannot receive nested
/// operations ([`SsError::NestedOnProgram`]): the program thread is not
/// at a delegation point.
///
/// A nested delegation runs the same per-epoch state machine as the
/// program thread's, so with `dynamic_checks` on it gets the same §3.3
/// consistency check: re-delegating an object already tagged this epoch
/// reports [`SsError::InconsistentSerializer`] when the external set
/// supplied — or, once the object's earlier operations have completed,
/// its recomputed internal serializer — disagrees with the tag.
///
/// ```
/// use ss_core::{Runtime, SequenceSerializer, Writable};
///
/// let rt = Runtime::builder().delegate_threads(2).build().unwrap();
/// let parent: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
/// let child: Writable<Vec<u64>, SequenceSerializer> = Writable::new(&rt, Vec::new());
///
/// rt.isolated(|| {
///     let (rt2, child2) = (rt.clone(), child.clone());
///     parent
///         .delegate(move |n| {
///             *n = 7;
///             // From inside the running operation, delegate three more
///             // operations into the child's serialization set.
///             rt2.delegate_scope(|cx| {
///                 for i in 0..3 {
///                     cx.delegate(&child2, move |v| v.push(i)).unwrap();
///                 }
///             })
///             .unwrap();
///         })
///         .unwrap();
/// })
/// .unwrap();
///
/// assert_eq!(parent.call(|n| *n).unwrap(), 7);
/// assert_eq!(child.call(|v| v.clone()).unwrap(), vec![0, 1, 2]);
/// ```
pub struct DelegateContext<'rt> {
    rt: &'rt Runtime,
    index: usize,
    /// Pins the handle to the thread it was created on.
    _not_send: PhantomData<*mut ()>,
}

impl std::fmt::Debug for DelegateContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DelegateContext")
            .field("delegate", &self.index)
            .finish()
    }
}

impl<'rt> DelegateContext<'rt> {
    /// Index of the delegate thread this context runs on.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The runtime this context belongs to.
    pub fn runtime(&self) -> &'rt Runtime {
        self.rt
    }

    /// True when this context belongs to `rt` (used by the wrappers to
    /// reject handles from a different runtime).
    pub(crate) fn belongs_to(&self, rt: &Runtime) -> bool {
        Arc::ptr_eq(&self.rt.inner, &rt.inner)
    }

    /// Delegates an operation on `target` from this delegate context, in
    /// the set computed by the target's internal serializer — the nested
    /// form of [`Writable::delegate`].
    pub fn delegate<T, S, F>(&self, target: &Writable<T, S>, f: F) -> SsResult<()>
    where
        T: Send + 'static,
        S: Serializer<T>,
        F: FnOnce(&mut T) + Send + 'static,
    {
        target
            .delegate_run(
                Submitter::Nested(self),
                None,
                &mut [target.package(f, Void)],
            )
            .map(drop)
    }

    /// Delegates in an explicitly supplied serialization set — the nested
    /// form of [`Writable::delegate_in`].
    pub fn delegate_in<T, S, F>(
        &self,
        target: &Writable<T, S>,
        ss: impl Into<SsId>,
        f: F,
    ) -> SsResult<()>
    where
        T: Send + 'static,
        S: Serializer<T>,
        F: FnOnce(&mut T) + Send + 'static,
    {
        let run = &mut [target.package(f, Void)];
        target
            .delegate_run(Submitter::Nested(self), Some(ss.into()), run)
            .map(drop)
    }

    /// Delegates a whole run of operations on `target` from this delegate
    /// context — the nested form of [`Writable::delegate_iter`]. The run
    /// is routed once and published to the owning executor's queue as one
    /// batch, so per-operation submit overhead (routing, pending/depth
    /// accounting, wakeup) is paid once per run instead of once per
    /// operation. Returns the number of operations submitted.
    ///
    /// ```
    /// use ss_core::{Runtime, SequenceSerializer, Writable};
    ///
    /// let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    /// let parent: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
    /// let child: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
    ///
    /// rt.isolated(|| {
    ///     let (rt2, child2) = (rt.clone(), child.clone());
    ///     parent
    ///         .delegate(move |n| {
    ///             *n = 1;
    ///             rt2.delegate_scope(|cx| {
    ///                 cx.delegate_iter(&child2, (1..=10u64).map(|i| move |c: &mut u64| *c += i))
    ///                     .unwrap();
    ///             })
    ///             .unwrap();
    ///         })
    ///         .unwrap();
    /// })
    /// .unwrap();
    ///
    /// assert_eq!(child.call(|c| *c).unwrap(), 55);
    /// ```
    pub fn delegate_iter<T, S, I, F>(&self, target: &Writable<T, S>, fs: I) -> SsResult<usize>
    where
        T: Send + 'static,
        S: Serializer<T>,
        I: IntoIterator<Item = F>,
        F: FnOnce(&mut T) + Send + 'static,
    {
        target.delegate_run(Submitter::Nested(self), None, &mut target.package_all(fs))
    }

    /// Batch nested delegation in an explicitly supplied serialization
    /// set — the nested form of [`Writable::delegate_iter_in`].
    pub fn delegate_iter_in<T, S, I, F>(
        &self,
        target: &Writable<T, S>,
        ss: impl Into<SsId>,
        fs: I,
    ) -> SsResult<usize>
    where
        T: Send + 'static,
        S: Serializer<T>,
        I: IntoIterator<Item = F>,
        F: FnOnce(&mut T) + Send + 'static,
    {
        let run = &mut target.package_all(fs);
        target.delegate_run(Submitter::Nested(self), Some(ss.into()), run)
    }

    /// Delegates a *future-returning* operation on `target` from this
    /// delegate context — the nested form of [`Writable::delegate_with`].
    /// The returned [`SsFuture`] may be waited on right here, inside the
    /// running operation: a delegate blocked on a future it transitively
    /// spawned executes help-first from its own queue instead of
    /// deadlocking, and a wait that genuinely can never complete (an
    /// operation ordered behind the waiter itself) is rejected with
    /// [`SsError::FutureDeadlock`].
    ///
    /// ```
    /// use ss_core::{Runtime, SequenceSerializer, Writable};
    ///
    /// let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    /// let parent: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
    /// let child: Writable<u64, SequenceSerializer> = Writable::new(&rt, 10);
    ///
    /// rt.isolated(|| {
    ///     let (rt2, child2) = (rt.clone(), child.clone());
    ///     parent
    ///         .delegate(move |n| {
    ///             // Spawn a future-returning child operation and consume
    ///             // its result right here, in the parent operation.
    ///             let fut = rt2
    ///                 .delegate_scope(|cx| cx.delegate_with(&child2, |c| *c * 3))
    ///                 .unwrap()
    ///                 .unwrap();
    ///             *n = fut.wait().unwrap();
    ///         })
    ///         .unwrap();
    /// })
    /// .unwrap();
    ///
    /// assert_eq!(parent.call(|n| *n).unwrap(), 30);
    /// ```
    pub fn delegate_with<T, S, R, F>(&self, target: &Writable<T, S>, f: F) -> SsResult<SsFuture<R>>
    where
        T: Send + 'static,
        S: Serializer<T>,
        R: Send + 'static,
        F: FnOnce(&mut T) -> R + Send + 'static,
    {
        target.delegate_future(Submitter::Nested(self), None, NoMemo, f)
    }

    /// Future-returning nested delegation in an explicitly supplied
    /// serialization set — the nested form of
    /// [`Writable::delegate_in_with`].
    pub fn delegate_in_with<T, S, R, F>(
        &self,
        target: &Writable<T, S>,
        ss: impl Into<SsId>,
        f: F,
    ) -> SsResult<SsFuture<R>>
    where
        T: Send + 'static,
        S: Serializer<T>,
        R: Send + 'static,
        F: FnOnce(&mut T) -> R + Send + 'static,
    {
        target.delegate_future(Submitter::Nested(self), Some(ss.into()), NoMemo, f)
    }

    /// Memoized future-returning delegation from this delegate context —
    /// the nested form of [`Writable::delegate_memo`]. Hits are served
    /// from the memo table without routing or queueing anything; misses
    /// delegate under the nested rules and publish their result.
    pub fn delegate_memo<T, S, R, F>(
        &self,
        target: &Writable<T, S>,
        fingerprint: u64,
        f: F,
    ) -> SsResult<SsFuture<R>>
    where
        T: Send + 'static,
        S: Serializer<T>,
        R: crate::fingerprint::MemoValue,
        F: FnOnce(&mut T) -> R + Send + 'static,
    {
        target.delegate_future(Submitter::Nested(self), None, Memo(fingerprint), f)
    }

    /// Memoized nested delegation in an explicitly supplied
    /// serialization set — the nested form of
    /// [`Writable::delegate_in_memo`].
    pub fn delegate_in_memo<T, S, R, F>(
        &self,
        target: &Writable<T, S>,
        ss: impl Into<SsId>,
        fingerprint: u64,
        f: F,
    ) -> SsResult<SsFuture<R>>
    where
        T: Send + 'static,
        S: Serializer<T>,
        R: crate::fingerprint::MemoValue,
        F: FnOnce(&mut T) -> R + Send + 'static,
    {
        target.delegate_future(
            Submitter::Nested(self),
            Some(ss.into()),
            Memo(fingerprint),
            f,
        )
    }
}

impl Runtime {
    /// Runs `f` with the [`DelegateContext`] of the calling delegate
    /// thread — the entry point for recursive delegation. Errors with
    /// [`SsError::WrongContext`] unless the calling thread is a delegate
    /// of *this* runtime currently executing a delegated operation (the
    /// program thread, foreign threads, and inline-executing operations
    /// all fail; inline execution additionally reports
    /// [`SsError::NestedDelegation`] from `Writable::delegate` itself).
    ///
    /// See [`DelegateContext`] for an example and the guarantees nested
    /// delegation preserves.
    pub fn delegate_scope<R>(&self, f: impl FnOnce(&DelegateContext<'_>) -> R) -> SsResult<R> {
        let index = DELEGATE_CTX
            .with(|c| match c.get() {
                Some((rt, idx)) if rt == self.inner.id => Some(idx as usize),
                _ => None,
            })
            .ok_or(SsError::WrongContext)?;
        let cx = DelegateContext {
            rt: self,
            index,
            _not_send: PhantomData,
        };
        Ok(f(&cx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_queue::SpscQueue;

    fn op() -> Invocation {
        Invocation::Execute {
            task: TaskSlot::new(|_| {}),
            ss: SsId(1),
            audit: 0,
            session: None,
        }
    }

    /// A slip state that has just caught up with a stream of `n` pops.
    fn caught_up_after(n: u32) -> Slip {
        let mut slip = Slip::default();
        (0..n).for_each(|_| slip.popped());
        slip.ran_dry();
        slip
    }

    #[test]
    fn only_an_armed_delegate_that_just_caught_up_slips() {
        let (tx, rx) = SpscQueue::with_capacity(512);
        let sync = SyncToken::idle();
        // Nothing in the ring: nothing to hold back.
        assert_eq!(caught_up_after(SLIP_ARM).before_pop(&rx, &sync), 0);
        tx.try_push(op()).unwrap();
        // A short streak is a small epoch, not a stream.
        assert_eq!(caught_up_after(SLIP_ARM - 1).before_pop(&rx, &sync), 0);
        // Mid-stream (the last poll found an entry): pop on.
        let mut streaming = caught_up_after(SLIP_ARM);
        streaming.popped();
        assert_eq!(streaming.before_pop(&rx, &sync), 0);
        // Caught up, armed, one entry, a producer that has stopped: the
        // slip runs out its bound, once.
        let mut slip = caught_up_after(SLIP_ARM);
        assert_eq!(slip.before_pop(&rx, &sync), SLIP_SPINS);
        assert_eq!(slip.before_pop(&rx, &sync), 0);
    }

    #[test]
    fn a_slip_ends_at_the_lead_or_at_a_pending_token() {
        let (tx, rx) = SpscQueue::with_capacity(512);
        let sync = SyncToken::idle();
        (0..SLIP_LEAD).for_each(|_| tx.try_push(op()).unwrap());
        // The producer is already the whole margin ahead.
        assert_eq!(caught_up_after(SLIP_ARM).before_pop(&rx, &sync), 0);
        assert!(matches!(rx.try_pop(), Pop::Value(_)));
        // One short of it — but the program thread has re-armed its
        // token (it is at a barrier or a reclaim): drain at once.
        sync.rearm();
        assert_eq!(caught_up_after(SLIP_ARM).before_pop(&rx, &sync), 0);
        sync.signal();
        assert_eq!(caught_up_after(SLIP_ARM).before_pop(&rx, &sync), SLIP_SPINS);
    }

    #[test]
    fn tokens_and_idle_spells_disarm() {
        let (tx, rx) = SpscQueue::with_capacity(8);
        let sync = SyncToken::idle();
        tx.try_push(op()).unwrap();
        let mut slip = caught_up_after(4 * SLIP_ARM);
        slip.disarm();
        slip.ran_dry();
        assert_eq!(slip.before_pop(&rx, &sync), 0);
        // An idle spell (the backoff left its spin rounds) ends the streak;
        // a shorter one does not.
        let mut slip = caught_up_after(4 * SLIP_ARM);
        (1..SLIP_IDLE_POLLS - 1).for_each(|_| slip.ran_dry());
        assert!(slip.streak >= SLIP_ARM);
        slip.ran_dry();
        assert_eq!(slip.streak, 0);
        assert_eq!(slip.before_pop(&rx, &sync), 0);
        // The margin is capped by the ring: a tiny ring still slips, and
        // stops as soon as it is full.
        (0..7).for_each(|_| tx.try_push(op()).unwrap());
        assert_eq!(caught_up_after(SLIP_ARM).before_pop(&rx, &sync), 0);
    }
}
