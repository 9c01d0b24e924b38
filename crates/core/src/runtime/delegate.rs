//! The delegate context: worker threads and how they idle (§4) — and the
//! scoped [`DelegateContext`] handle that makes **recursive delegation**
//! (the paper's §4 future work) a safe public API.
//!
//! Each delegate thread runs one loop, [`delegate_loop`]: read an
//! invocation object from its queue, execute it, settle it, repeat. While
//! the queue is empty the thread waits on its [`Event`] — spin, then
//! yield, then park until a push notifies it — or, while
//! [`Runtime::sleep`](super::Runtime::sleep) is in force during a long
//! aggregation epoch, parks at once.
//!
//! The loop is generic over the queue it drains, a [`Transport`], of which
//! there are two:
//!
//! * [`Ring`] — the seed's FastForward SPSC consumer, plus the ring's
//!   multi-producer **injector lane** (where nested delegations from
//!   other delegates land), drained whenever the ring runs dry. Its hooks
//!   carry the consumer's temporal slip.
//! * [`Deque`] — the delegate's own [`StealDeque`](ss_queue::StealDeque),
//!   which receives both program and nested pushes. When it runs dry the
//!   delegate turns thief ([`try_steal`]). The thief is part of the idle
//!   predicate, so it tries at every step of the wait and once more
//!   before parking; a push that takes a peer's queue past the steal bar
//!   wakes one parked thief.
//!
//! A delegate blocked on a future helps through the same transport and
//! the same execute-and-settle body ([`help_one`]), and waits on the same
//! event, so a push to its own queue wakes it there too.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use ss_queue::{Backoff, Consumer, Pop, StealDeque, StealTag, PUSH_SHARDS};

use crate::error::{SsError, SsResult};
use crate::future::SsFuture;
#[cfg(test)]
use crate::invocation::TaskSlot;
use crate::invocation::{ExecCx, Invocation};
use crate::serializer::{Serializer, SsId};
use crate::stats::Counters;
use crate::trace::{SideEvent, TraceExecutor, TraceKind};
use crate::wrappers::{Memo, NoMemo, Submitter, Void, Writable};

use super::assign::STEAL_BAR;
use super::dispatch::Lane;
use super::domain::{key_domain, Domain};
use super::{Core, Event, Executor, Router, Runtime, StealShared, WaitSignal};

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
// * **Streams and plain bursts only.** The slip is armed once the
//   delegate has drained `SLIP_ARM` ring operations in a row; a token, a
//   slip ended by a waiting thread (below), or an idle spell long enough
//   to leave the wait's spin hints, disarms it. Unarmed, it still holds an entry that no future awaits
//   (a plain `delegate`): an epoch of a few such operations per set, too
//   short to be a stream, is then published whole before the delegate
//   drains it, instead of running at whichever of the two speeds it
//   happened to start in. An awaited entry (`delegate_with`,
//   `delegate_memo`) is popped at once, so a lone `delegate_with` →
//   `wait` round trip never slips.
// * **Never against a waiting thread.** A thread blocked on delegate
//   progress — a program thread's barrier, ownership reclaim or
//   admission wait (`Runtime::program_wait`), any thread's future wait
//   ([`future_wait_turn`]) — is counted in `Core::waiters` for the
//   length of the wait, and a slip ends the moment that count is not
//   zero, so the tail of an epoch is drained at once.
// * **Bounded.** `SLIP_SPINS` spin hints end a slip whatever happens — a
//   producer that delegates a few operations and then goes on with
//   sequential work is kept waiting for microseconds, not more.
//
// Nothing is reordered: a slip only delays popping an entry that is
// already in the ring. It claims no more than a pop would — half what it
// sees when it reads whether a future awaits the head entry — so the
// entries it lets its producer push stay retractable (`program.rs`).

/// Ring operations a delegate must drain in a row before it slips on an
/// awaited entry.
const SLIP_ARM: u32 = 64;
/// The lead a slipping delegate lets its producer rebuild: four objects'
/// worth of a 16-operations-per-object stream, an eighth of the default
/// ring, and the largest batch the ring's consumer claims
/// ([`ss_queue::MAX_CLAIM`]), so a delegate that has slipped claims half
/// of it and leaves the rest retractable. A smaller ring caps it at a
/// quarter ring.
const SLIP_LEAD: usize = ss_queue::MAX_CLAIM;
/// Upper bound on one slip, in spin hints (a dozen microseconds).
const SLIP_SPINS: u32 = 1024;
/// Consecutive empty polls after which the delegate counts as idle, not
/// as trailing a stream: the wait's spin hints, before it yields.
const SLIP_IDLE_POLLS: u32 = 128;

/// The ring consumer's slip state (see the section comment above).
#[derive(Default, Clone, Copy)]
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
    /// with its producer (last poll empty, an entry there now) and the
    /// slip is armed or the entry is not awaited, lets the producer get
    /// `SLIP_LEAD` entries (at most a quarter ring) ahead, unless
    /// `waiting` — some thread waits on delegate progress, which also
    /// disarms. Returns the spin hints spent.
    fn before_pop(&mut self, consumer: &Consumer<Invocation>, waiting: impl Fn() -> bool) -> u32 {
        if self.dry == 0 || !consumer.has_pending() {
            return 0;
        }
        // SAFETY: `Invocation::awaited` reads the entry and pops nothing.
        if self.streak < SLIP_ARM && unsafe { consumer.head_is(Invocation::awaited) } {
            return 0;
        }
        self.dry = 0;
        let lead = SLIP_LEAD.min(consumer.capacity() / 4).max(1);
        let mut spins = 0;
        while spins < SLIP_SPINS && !consumer.has_lead(lead) {
            if waiting() {
                // Somebody waits on this delegate, as at a token: disarm,
                // so a run of round trips slips once, not every time.
                self.streak = 0;
                break;
            }
            core::hint::spin_loop();
            spins += 1;
        }
        spins
    }
}

// ----------------------------------------------------------------------
// transports: what the one delegate loop needs from the queue it drains

/// The queue a delegate drains, as [`delegate_loop`] sees it. Every method
/// takes `&self` and runs on the owning delegate thread only, so a
/// help-first wait can pop through the very transport the loop holds
/// (`HelpState::source`) without aliasing a mutable borrow. The loop is
/// monomorphised per transport: a hook left at its default compiles to
/// nothing.
trait Transport {
    /// The runtime core this delegate executes against.
    fn core(&self) -> &Core;
    /// This delegate's index.
    fn idx(&self) -> usize;
    /// What this delegate waits on; every push to its queue notifies it.
    fn event(&self) -> &Event;
    /// Pops the next entry with the lane it travelled on.
    fn pop(&self) -> Pop<(Invocation, Lane)>;
    /// Whether the own queue holds an entry: part of every wait's
    /// predicate on this thread, re-checked after the sleeping flag is
    /// raised.
    fn has_work(&self) -> bool;
    /// Slip hook: before each pop from the queue.
    fn before_pop(&self) {}
    /// Slip hook: an entry was popped from `lane`.
    fn popped(&self, _lane: Lane) {}
    /// Slip hook: a token was popped (a program thread waits on us).
    fn on_token(&self) {}
    /// Everything popped so far has finished running: the ring publishes
    /// it as its retired cursor, which lets the program thread retract a
    /// started set's tail (`program.rs`).
    fn retire(&self) {}
    /// An operation of `set` ran and its audit record landed; its
    /// counters settle after this returns.
    fn after_exec(&self, _set: u64) {}
    /// An idle poll found the queue empty: look for work elsewhere (the
    /// thief), or count the idle spell (the slip). True if work arrived.
    /// Called at every step of the idle wait and in its last re-check, so
    /// whatever it reads is part of the idle predicate.
    fn on_dry(&self) -> bool;
}

/// The ring transport: the FastForward SPSC consumer and its injector
/// lane. Its slip hooks run the [`Slip`] above.
struct Ring {
    core: Arc<Core>,
    idx: usize,
    event: Arc<Event>,
    consumer: Consumer<Invocation>,
    slip: Cell<Slip>,
}

impl Ring {
    fn with_slip(&self, f: impl FnOnce(&mut Slip)) {
        let mut slip = self.slip.get();
        f(&mut slip);
        self.slip.set(slip);
    }

    /// Under an armed test script, makes the consumer's next batch claim
    /// here, between two `claim@i` gates, so a script can order a whole
    /// claim before or after a whole retraction (`retract@p`, likewise
    /// hit on both sides of the hold).
    fn gate_claim(&self) {
        if self.core.test_gates.is_some()
            && !self.consumer.holds_claim()
            && self.consumer.has_pending()
        {
            self.core.gate("claim", self.idx);
            self.consumer.claim();
            self.core.gate("claim", self.idx);
        }
    }
}

impl Transport for Ring {
    fn core(&self) -> &Core {
        &self.core
    }

    fn idx(&self) -> usize {
        self.idx
    }

    fn event(&self) -> &Event {
        &self.event
    }

    fn pop(&self) -> Pop<(Invocation, Lane)> {
        self.gate_claim();
        let dry = match self.consumer.try_pop() {
            Pop::Value(inv) => return Pop::Value((inv, Lane::Ring)),
            Pop::Empty => Pop::Empty,
            Pop::Disconnected => Pop::Disconnected,
        };
        // Ring dry: drain the multi-producer injector lane, where nested
        // delegations from other delegate threads land. Lane operations
        // carry their own `in_flight` count (the transitive-drain signal
        // the epoch barrier waits on), because ring tokens say nothing
        // about the lane.
        match self.consumer.try_pop_injected() {
            Some(inv) => Pop::Value((inv, Lane::Injected)),
            None => dry,
        }
    }

    fn has_work(&self) -> bool {
        self.consumer.has_pending() || self.consumer.has_injected()
    }

    fn before_pop(&self) {
        self.gate_claim();
        self.with_slip(|slip| {
            slip.before_pop(&self.consumer, || self.core.anyone_waits());
        });
    }

    fn popped(&self, lane: Lane) {
        if lane == Lane::Ring {
            self.with_slip(Slip::popped);
        }
    }

    fn on_dry(&self) -> bool {
        self.with_slip(Slip::ran_dry);
        false
    }

    fn on_token(&self) {
        self.with_slip(Slip::disarm);
    }

    /// Under an armed test script, a retirement that moves the cursor
    /// lands between two `retire@i` gates, so a script can order it
    /// before or after a retraction's read of the cursor.
    fn retire(&self) {
        let c = &self.consumer;
        let gated = self.core.test_gates.is_some() && c.retired() < c.popped();
        if gated {
            self.core.gate("retire", self.idx);
        }
        c.retire(c.popped());
        if gated {
            self.core.gate("retire", self.idx);
        }
    }
}

/// The stealing transport: the delegate's own deque, and the thief for
/// when it runs dry.
struct Deque {
    core: Arc<Core>,
    idx: usize,
    event: Arc<Event>,
    shared: Arc<StealShared>,
    router: Arc<Router>,
    /// Per-victim, per-push-shard counts at the last futile scan of that
    /// victim (see [`try_steal`]).
    stale_at: RefCell<Vec<Option<[usize; PUSH_SHARDS]>>>,
}

impl Deque {
    fn own(&self) -> &StealDeque<Invocation> {
        &self.shared.deques[self.idx]
    }
}

impl Transport for Deque {
    fn core(&self) -> &Core {
        &self.core
    }

    fn idx(&self) -> usize {
        self.idx
    }

    fn event(&self) -> &Event {
        &self.event
    }

    /// Popping marks the entry's set *started* (inside the deque's
    /// critical section) and raises its in-flight count — the point of no
    /// return for whole-set migration. A started set's queued tail stays
    /// stealable once the count settles back to zero (`after_exec`).
    fn pop(&self) -> Pop<(Invocation, Lane)> {
        let me = self.idx as u32;
        // The "poll" gate lets the deterministic-schedule harness order
        // this owner's next pop against a thief's scan. Gated on a script
        // being armed so the hot path stays a plain pop; the empty check
        // keeps a free-running owner from consuming script steps meant
        // for a loop that still has work.
        if self.core.test_gates.is_some() {
            if self.own().is_empty() {
                return Pop::Empty;
            }
            self.core.gate("poll", me);
        }
        match self.own().pop() {
            Some((tag, inv)) => {
                if let StealTag::Key(_) = tag {
                    self.core.gate("popped", me);
                }
                Pop::Value((inv, Lane::Deque))
            }
            None => Pop::Empty,
        }
    }

    fn has_work(&self) -> bool {
        !self.own().is_empty()
    }

    /// The owner's half of the quiescence handshake: a thief may migrate
    /// the queued tail of a started set only after every popped operation
    /// of the set has been finished here. Two harness gates bracket it:
    /// "ran" holds the op *complete but unfinished* (set still busy to
    /// thieves), "done" fires after `finish` (set quiescent if nothing
    /// else is in flight) — so a script can force the owner/thief race to
    /// either outcome by name.
    fn after_exec(&self, set: u64) {
        self.core.gate("ran", self.idx as u32);
        // Only after the audit record is delivered may the set look
        // quiescent to a thief's tail steal — so a stolen tail is provably
        // ordered after every completed operation of the owner's prefix.
        self.own().finish(set);
        self.core.gate("done", self.idx as u32);
    }

    /// The thief. A push that takes a peer's queue depth past the steal
    /// bar wakes one parked delegate (`Runtime::wake_thief`); the depths
    /// it read there are the ones `try_steal` reads here.
    fn on_dry(&self) -> bool {
        try_steal(self)
    }
}

/// The queue a new delegate thread drains, as the runtime hands it over.
pub(super) enum Queue {
    /// The ring's consumer.
    Ring(Consumer<Invocation>),
    /// The stealing deques (this delegate's is its index) and the router
    /// a thief migrates through.
    Deque(Arc<StealShared>, Arc<Router>),
}

/// Delegate `idx`'s thread body: [`delegate_loop`] over its queue's
/// transport. The thread receives only the pieces it needs — deliberately
/// *not* an `Arc` of the runtime's `Inner`, which would keep the runtime
/// alive forever (threads are joined by `Inner::drop`). `started` is
/// passed once the loop's own state is in place, so the thread's start-up
/// allocations are behind the runtime's `build`.
pub(super) fn run_delegate(
    rt_id: u64,
    idx: usize,
    queue: Queue,
    core: Arc<Core>,
    event: Arc<Event>,
    force_sleep: Arc<AtomicBool>,
    started: Arc<Barrier>,
) {
    DELEGATE_CTX.with(|c| c.set(Some((rt_id, idx as u32))));
    match queue {
        Queue::Ring(consumer) => {
            let ring = Ring {
                core,
                idx,
                event,
                consumer,
                slip: Cell::default(),
            };
            delegate_loop(rt_id, ring, &force_sleep, &started);
        }
        Queue::Deque(shared, router) => {
            let deque = Deque {
                core,
                idx,
                event,
                stale_at: RefCell::new(vec![None; shared.deques.len()]),
                shared,
                router,
            };
            delegate_loop(rt_id, deque, &force_sleep, &started);
        }
    }
    DELEGATE_CTX.with(|c| c.set(None));
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

/// Per-delegate-thread help-first state, installed for the duration of
/// the worker loop. Entirely thread-private — the deadlock detector sees
/// other delegates' active stacks only through the snapshots they
/// register in `Core::future_waits` when they block, so the per-op
/// push/pop below costs no synchronization.
struct HelpState {
    rt_id: u64,
    /// The worker loop's transport: a pointer into [`delegate_loop`]'s
    /// stack frame, valid while this state is installed (the loop
    /// uninstalls it before returning) and dereferenced only on the
    /// owning thread. Type-erased because help is the cold path.
    source: *const dyn Transport,
    /// Serialization sets whose operations are currently on this
    /// thread's call stack (outermost first). Grows past one element
    /// only when a help-executed operation itself blocks on a future.
    active: Vec<u64>,
    /// Entries popped by the help loop that may not run yet (see the
    /// section comment for the two reasons an entry gets deferred), each
    /// with the lane it was popped from, which decides how it settles
    /// ([`Lane::counted`]).
    deferred: VecDeque<(Invocation, Lane)>,
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

/// Runs `f` on the calling thread's help state; `None` outside a
/// delegate loop.
fn with_help<R>(f: impl FnOnce(&mut HelpState) -> R) -> Option<R> {
    HELP.with(|h| h.borrow_mut().as_mut().map(f))
}

/// The calling delegate's transport, when it runs `rt_id`'s loop.
fn own_transport<'a>(rt_id: u64) -> Option<&'a dyn Transport> {
    let source = with_help(|s| (s.rt_id == rt_id).then_some(s.source)).flatten()?;
    // SAFETY: installed by this thread's worker loop, which is still on
    // the stack below every caller; dereferenced only on the owning
    // thread, and every transport method takes `&self`.
    Some(unsafe { &*source })
}

/// True when `set` is on the calling thread's active-set stack (an
/// operation of that set is currently on this call stack).
fn active_contains(set: u64) -> bool {
    with_help(|s| s.active.contains(&set)) == Some(true)
}

/// Whether `inv` may run on a help-first stack: an operation whose set is
/// not on it. Tokens never may.
fn runnable(inv: &Invocation, active: &[u64]) -> bool {
    matches!(inv, Invocation::Execute { ss, .. } if !active.contains(&ss.0))
}

/// Executes one `Execute` invocation popped from `lane` and settles it —
/// the one body behind the worker loop and help-first waits, so every
/// path keeps identical accounting: active-set tracking, the domain
/// marker, the audit record, the transport's
/// [`after_exec`](Transport::after_exec), then the counters. The task
/// slot never unwinds (`Writable::package` traps panics), so the push/pop
/// pair stays balanced.
fn execute_op<T: Transport + ?Sized>(t: &T, op: Invocation, lane: Lane) {
    let Invocation::Execute {
        task,
        ss,
        audit,
        session,
    } = op
    else {
        unreachable!("tokens are signaled, never executed");
    };
    let (core, idx) = (t.core(), t.idx());
    with_help(|s| s.active.push(ss.0));
    let d: &Domain = session.as_deref().unwrap_or(&core.root);
    // Stamp the domain marker for the duration of the user code, so a
    // nested re-delegation from inside it can verify it targets the same
    // domain. Saved/restored, not set/cleared: help-first waits nest
    // executions of (possibly) different domains on one stack.
    let prev_domain = CURRENT_DOMAIN.with(|c| c.replace(d.id));
    let stats = core.stats.delegate(idx);
    task.run(&ExecCx {
        core,
        executor: TraceExecutor::Delegate(idx),
        stats,
    });
    CURRENT_DOMAIN.with(|c| c.set(prev_domain));
    // Audit record lands *before* the drain counters settle below, so the
    // domain barrier's token/`in_flight` drain proves every record of the
    // epoch has been delivered by the time the auditor closes it.
    core.audit_exec(d, ss, audit, 1 + idx);
    with_help(|s| s.active.pop());
    t.after_exec(ss.0);
    // Counted in this delegate's own block, which no other thread writes
    // (a load and a store); the queue depth drops with it. Lane/deque
    // entries additionally carry a count in their *domain's* `in_flight`,
    // whose Release pairs with the barrier's Acquire drain load (and so
    // publishes this bump to it) — only the owning domain's barrier
    // observes this op.
    stats.bump(|c| &c.executed);
    if lane.counted() {
        d.settle(1);
    }
}

/// One help-first step by the calling delegate thread: execute the first
/// runnable deferred entry, or pop entries from the own queue until one
/// is runnable (deferring the rest). Same-set entries keep their relative
/// order, so per-set FIFO survives the out-of-order removal of entries
/// belonging to different sets. Returns whether an operation executed.
fn help_one(t: &dyn Transport) -> bool {
    let deferred = with_help(|s| {
        let pos = s
            .deferred
            .iter()
            .position(|(inv, _)| runnable(inv, &s.active))?;
        s.deferred.remove(pos)
    });
    let (inv, lane) = match deferred.flatten() {
        Some(entry) => entry,
        None => loop {
            let Pop::Value(entry) = t.pop() else {
                return false;
            };
            if with_help(|s| runnable(&entry.0, &s.active)) == Some(true) {
                break entry;
            }
            with_help(|s| s.deferred.push_back(entry));
        },
    };
    execute_op(t, inv, lane);
    true
}

/// One turn of `SsFuture::wait` on the unsettled slot behind `signal`:
/// returns `true` to poll the future again — its slot may have settled,
/// or the waiter helped, or has work to help with — and `false` when the
/// wait can never complete ([`SsError::FutureDeadlock`]).
///
/// Off this runtime's executors, the calling thread waits on its own
/// event until the slot settles. On a delegate, or on a domain's program
/// thread: self-cycle rejection, then help-first (from the own queue, or
/// `Lane::Program`), then a wait — on the executor's own event, with
/// "work arrived" beside "slot settled" in the predicate, so a push to its
/// queue wakes it as surely as the settle does. A wait that can be part
/// of a cycle — any delegate's, or the root program thread's inside an
/// operation — registers first and walks the waits-for graph. The
/// waiter is counted in `Core::waiters` throughout, so no delegate slips
/// while it waits.
pub(crate) fn future_wait_turn(rt: &Runtime, set: SsId, signal: &WaitSignal) -> bool {
    rt.inner.core.waiting(|| wait_turn(rt, set, signal))
}

/// The body of [`future_wait_turn`].
fn wait_turn(rt: &Runtime, set: SsId, signal: &WaitSignal) -> bool {
    if let Some(t) = own_transport(rt.inner.id) {
        // Operations are submitted under their domain's routing key, and
        // that is what the active stacks and queue entries carry — qualify
        // the set once here so every check below compares like with like.
        let set = rt.domain().key(set);
        let active = |s: u64| active_contains(s);
        let stack = || with_help(|s| s.active.clone()).unwrap_or_default();
        let help = || help_one(t);
        let arrived = || t.has_work();
        return blocked_turn(
            rt,
            t.idx(),
            set,
            signal,
            active,
            stack,
            help,
            arrived,
            t.event(),
        );
    }
    if !rt.is_program_thread() {
        // The slot's send wakes this thread; nobody else notifies. The
        // event goes back to the runtime's pool, not away: a send may
        // still wake it after the wait returns.
        let core = &rt.inner.core;
        let event = core.foreign_events.lock().pop().unwrap_or_default();
        event.wait_on_slot(signal, || signal.is_settled());
        core.foreign_events.lock().push(event);
        return true;
    }
    let d = rt.domain();
    let set = d.key(set);
    // SAFETY (all three): the domain's program thread; scoped borrows.
    let active = |s: u64| unsafe { d.epoch.get() }.active.contains(&s);
    let stack = || unsafe { d.epoch.get() }.active.clone();
    let at_top = unsafe { d.epoch.get() }.active.is_empty();
    let help = || rt.program_help_one(d);
    let arrived = || d.lane.has_arrivals();
    if at_top || !rt.is_root() {
        // No cycle runs through a program thread that runs no operation,
        // and only the root's has a node in the graph.
        if active(set) {
            return false;
        }
        if help() {
            return true;
        }
        // The root's wait outside any operation retracts before it parks.
        if at_top && rt.is_root() && rt.retract_at_wait(|| signal.is_settled() || arrived()) {
            return true;
        }
        d.waiter
            .wait_on_slot(signal, || signal.is_settled() || arrived());
        return true;
    }
    let me = rt.inner.n_delegates;
    blocked_turn(rt, me, set, signal, active, stack, help, arrived, &d.waiter)
}

/// One blocking turn of an executor that can be part of a waits-for
/// cycle — node `me` of the graph (delegate `i`, or the root program
/// thread after the delegates): self-cycle rejection, help-first, then a
/// registered wait with cycle detection, parked on `event` until the slot
/// settles or work `arrived`.
#[allow(clippy::too_many_arguments)]
fn blocked_turn(
    rt: &Runtime,
    me: usize,
    set: u64,
    signal: &WaitSignal,
    active: impl Fn(u64) -> bool,
    stack: impl FnOnce() -> Vec<u64>,
    help: impl FnOnce() -> bool,
    arrived: impl Fn() -> bool,
    event: &Event,
) -> bool {
    // Immediate self-cycle: the waited-on operation belongs to a set this
    // thread is currently executing, so per-set FIFO orders it after the
    // operation doing the waiting. Deterministic, no timing involved.
    if active(set) {
        return false;
    }
    if help() {
        return true;
    }
    let core = &rt.inner.core;
    let mut waits = core.future_waits.lock();
    // A snapshot of the active stack, for the deadlock detector.
    waits[me] = Some((set, *signal, stack()));
    // An unknown walk stays in the ladder and walks again: parking on it
    // could sleep through a cycle no other waiter will ever walk.
    let backoff = Backoff::new();
    let walk = loop {
        let walk = wait_cycle(rt, me, set, &waits, &active);
        if walk.is_some() || signal.is_settled() || arrived() {
            break walk;
        }
        drop(waits);
        backoff.snooze();
        waits = core.future_waits.lock();
    };
    drop(waits);
    if walk == Some(false) {
        event.wait_on_slot(signal, || signal.is_settled() || arrived());
    }
    core.future_waits.lock()[me] = None;
    walk != Some(true)
}

/// Walks the waits-for graph from `first_set` and reports whether it
/// closes back on node `me` — the only configuration no amount of helping
/// or waiting can resolve — or `None` when a pin read could not finish
/// without waiting on a lock holder: *unknown*. `mine` is `me`'s live
/// active stack. Nodes are the delegates and, after them, the root
/// program thread, which owns the root sets pinned to the program
/// executor (taken sets): it helps them from `Lane::Program` in every
/// wait, exactly as a delegate helps its own queue.
///
/// A hop `set → executor j` is a *stuck* edge only when **both** hold:
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
/// Soundness of a cycle: while the `future_waits` mutex is held,
/// registered waiters cannot deregister (deregistration takes the mutex)
/// and are parked or walking — not executing — so the active-set
/// snapshots they registered are still their live stacks; a set on such
/// a stack has an operation in flight, so not even its queued tail can
/// migrate, and the pins along the chain are stable too. Every edge
/// of a reported cycle is therefore simultaneously stuck, and no member
/// can ever run. Chains that end anywhere else (a program-owned or
/// unpinned set, a merely-queued operation, an unregistered — i.e.
/// running — delegate, a settled future) answer "no cycle", which stays
/// true until the next registration: a cycle closes only when some
/// delegate registers the wait that closes it, and that delegate walks
/// it.
fn wait_cycle(
    rt: &Runtime,
    me: usize,
    first_set: u64,
    waits: &[Option<super::FutureWait>],
    mine: impl Fn(u64) -> bool,
) -> Option<bool> {
    let program = waits.len() - 1;
    let mut set = first_set;
    // A simple cycle visits each delegate at most once; the hop cap
    // bounds the walk without a visited set (a longer chain revisits a
    // delegate: it runs into a cycle without `me`, which that cycle's
    // own closer reports).
    for _ in 0..=waits.len() {
        // Keys in the graph are namespace-qualified; resolve each hop in
        // the pin map its domain owns.
        let j = match rt.executor_of_key(set)? {
            Some(Executor::Delegate(j)) => j,
            Some(Executor::Program) if key_domain(set) == 0 => program,
            _ => return Some(false),
        };
        if j == me {
            // Closing hop: `me` is walking, so its live stack is the
            // authority.
            return Some(mine(set));
        }
        match &waits[j] {
            Some((next, sig, stack)) if !sig.is_settled() => {
                if !stack.contains(&set) {
                    return Some(false); // queued at j, not stuck: j will help
                }
                set = *next;
            }
            _ => return Some(false), // j is running; its stack will unwind
        }
    }
    Some(false)
}

/// The delegate loop (§4), written once for both transports: read an
/// invocation object, execute it, settle it, repeat; when the queue is
/// empty, wait on the delegate's event until it is not, letting the
/// transport look elsewhere (a thief) at every step.
fn delegate_loop<T: Transport + 'static>(
    rt_id: u64,
    t: T,
    force_sleep: &AtomicBool,
    started: &Barrier,
) {
    let _help = HelpInstall::new(HelpState {
        rt_id,
        source: &t as &(dyn Transport + 'static),
        active: Vec::with_capacity(4),
        deferred: VecDeque::new(),
    });
    started.wait();
    let idle = || t.has_work() || t.on_dry();
    #[cfg(feature = "chaos")]
    let mut hold: Option<Invocation> = None;
    loop {
        // Entries a nested future wait deferred come first: they were
        // popped before anything still queued, and the active stack is
        // empty at the loop's top level, so every entry is runnable and
        // tokens may finally be signaled (their "everything before me has
        // completed" contract now holds).
        let (inv, lane) = match with_help(|s| s.deferred.pop_front()).flatten() {
            Some(entry) => entry,
            None => {
                // Nothing deferred and nothing on the stack: everything
                // popped has finished — unless chaos holds an entry back.
                #[cfg(feature = "chaos")]
                let done = hold.is_none();
                #[cfg(not(feature = "chaos"))]
                let done = true;
                if done {
                    t.retire();
                }
                t.before_pop();
                match t.pop() {
                    Pop::Value((inv, lane)) => {
                        t.popped(lane);
                        (inv, lane)
                    }
                    dry => {
                        #[cfg(feature = "chaos")]
                        chaos_flush(&t, &mut hold);
                        if let Pop::Disconnected = dry {
                            break;
                        }
                        if force_sleep.load(Ordering::Acquire) {
                            t.event().sleep(idle);
                        } else {
                            t.event().wait_until(idle);
                        }
                        continue;
                    }
                }
            }
        };
        match inv {
            Invocation::Token { token, terminate } => {
                #[cfg(feature = "chaos")]
                chaos_flush(&t, &mut hold);
                t.on_token();
                token.signal();
                if terminate {
                    break;
                }
            }
            op => {
                #[cfg(feature = "chaos")]
                let Some(op) = chaos_reorder(&t, &mut hold, lane, op) else {
                    continue;
                };
                execute_op(&t, op, lane);
            }
        }
    }
}

/// Chaos `reorder_drain`: at most one ring entry is held back so its
/// successor overtakes it — an adjacent swap in the drain order. Returns
/// the entry to run now, if any. The hold is flushed before any other
/// lane's entry runs, before any token is signaled and when the queue
/// goes idle, so barrier drains still cover every operation; only the
/// per-set FIFO order is weakened.
#[cfg(feature = "chaos")]
fn chaos_reorder<T: Transport>(
    t: &T,
    hold: &mut Option<Invocation>,
    lane: Lane,
    op: Invocation,
) -> Option<Invocation> {
    if !t.core().chaos_reorder_drain() || lane != Lane::Ring {
        chaos_flush(t, hold);
        return Some(op);
    }
    match hold.take() {
        // A predecessor is parked: run the newer entry now and hand back
        // the older one — the swap is complete.
        Some(held) => {
            execute_op(t, op, Lane::Ring);
            Some(held)
        }
        None => {
            *hold = Some(op);
            None
        }
    }
}

#[cfg(feature = "chaos")]
fn chaos_flush<T: Transport>(t: &T, hold: &mut Option<Invocation>) {
    if let Some(op) = hold.take() {
        execute_op(t, op, Lane::Ring);
    }
}

// ----------------------------------------------------------------------
// the thief

/// One steal attempt by a deque delegate that ran dry. Returns true if
/// any work arrived.
///
/// 1. *Victim.* The peer whose queue depth
///    ([`StatsCell::queue_depth`](crate::stats::StatsCell::queue_depth))
///    most exceeds ours, skipping peers none of whose push shards moved
///    since a futile scan of them (`stale_at`). The imbalance must exceed
///    [`STEAL_BAR`].
/// 2. *Candidates.* One advisory scan of the victim (only the push shards
///    that moved since a futile scan) buckets its sets as fresh,
///    quiescent tails or busy. Half the imbalance is chosen, so the pair
///    converges instead of ping-ponging work: tails first (the sets the
///    owner is demonstrably stuck behind), then fresh sets, each class
///    deepest first, so a shallow batch cannot satisfy the target while
///    the deep one the victim is drowning under stays put.
/// 3. *Validated migration.* [`Router::migrate_keys`] locks the chosen
///    keys' shards (ascending shard order: concurrent thieves cannot
///    deadlock), re-checks each is still pinned to the victim, and only
///    then removes the batches — the deque's removal re-checks started,
///    fence and in-flight status under its lock, skipping whole a set the
///    owner popped meanwhile — lands them here, hands their audit record
///    over and rewrites their pins, all inside those shard locks. A
///    submit of an affected set serializes with the migration on its
///    shard, so no operation can be routed to either queue mid-flight and
///    a reclaim token can never chase a set to a queue it has left.
///
/// A tail moves only through the quiescence handshake: every pop raises
/// the set's in-flight count inside the deque lock, and the owner's
/// `after_exec` settles it only after the operation's effects and audit
/// record land — so a tail taken whole at count zero is ordered after
/// the owner's entire prefix, exactly as on the owner
/// (`docs/ARCHITECTURE.md`).
fn try_steal(q: &Deque) -> bool {
    let (core, router, me) = (&*q.core, &*q.router, q.idx);
    let deques = &q.shared.deques;
    let stats = core.stats.delegate(me);
    let mut stale_at = q.stale_at.borrow_mut();
    let my_depth = core.stats.queue_depth(me);
    let mut victim: Option<(usize, u64, [usize; PUSH_SHARDS])> = None;
    for (j, d) in deques.iter().enumerate() {
        if j == me || d.is_empty() {
            continue;
        }
        let depth = core.stats.queue_depth(j);
        if depth <= my_depth {
            continue;
        }
        let pushes = d.pushes_by_shard();
        if stale_at[j] == Some(pushes) {
            continue;
        }
        if victim.is_none_or(|(_, best, _)| depth > best) {
            victim = Some((j, depth, pushes));
        }
    }
    let Some((victim, victim_depth, pushes)) = victim else {
        return false; // nothing to take — not an attempt, no failure
    };
    let imbalance = victim_depth - my_depth;
    if imbalance <= STEAL_BAR {
        return false;
    }
    core.gate("scan", me as u32);
    let shards = match stale_at[victim] {
        Some(memo) => std::array::from_fn(|s| pushes[s] != memo[s]),
        None => [true; PUSH_SHARDS],
    };
    let mut scan = deques[victim].scan_candidates(&shards);
    // Harness gate *after* the advisory scan completed: a script that
    // wants the owner to re-pop between scan and migration must order
    // the re-pop after this point, not after "scan" (which precedes the
    // scan itself — releasing the owner there races it against the scan).
    core.gate("scanned", me as u32);
    if !scan.busy.is_empty() {
        // Started sets with an operation in flight: the handshake fails
        // for them this attempt (the owner may quiesce them any moment).
        stats.add(|c| &c.quiesce_fail, scan.busy.len() as u64);
    }
    // Chaos `steal_mid_set`: the thief skips the quiescence check and
    // rips tails of sets whose owner is mid-operation — the auditor must
    // report the resulting two-executor overlap / order inversion.
    #[cfg(feature = "chaos")]
    let mid_set = core.chaos_steal_mid_set();
    #[cfg(feature = "chaos")]
    if mid_set {
        scan.tails.append(&mut scan.busy);
    }
    let target = imbalance / 2;
    let mut moved = 0u64;
    let mut pick = |candidates: &mut Vec<(u64, usize)>| {
        candidates.sort_by_key(|&(_, n)| Reverse(n));
        let mut keys = Vec::new();
        for &(key, n) in candidates.iter() {
            if moved >= target {
                break;
            }
            keys.push(key);
            moved += n as u64;
        }
        keys
    };
    let tail_keys = pick(&mut scan.tails);
    let fresh_keys = pick(&mut scan.fresh);
    if tail_keys.is_empty() && fresh_keys.is_empty() {
        // Busy sets are a *transient* obstacle — the owner is mid-
        // operation and settles the in-flight mark at its next finish,
        // which bumps no push counter. Rate-limiting on the push memo
        // here would blacklist the victim until its next submit, i.e.
        // potentially forever once the workload's publish phase is over.
        // Only a deque with nothing stealable and nothing in flight is
        // memoized as futile.
        if scan.busy.is_empty() {
            stale_at[victim] = Some(pushes);
        }
        stats.bump(|c| &c.steal_failures);
        core.gate("nosteal", me as u32);
        return false;
    }
    // Harness gate between the advisory scan and the validated migration:
    // a script can park the thief here and let the owner re-pop a chosen
    // tail, forcing the re-validation branch (`steal_tail_into` finds the
    // set busy again and skips it whole).
    core.gate("migrate", me as u32);
    let serial = core.root.serial();
    let chosen: Vec<u64> = tail_keys.iter().chain(&fresh_keys).copied().collect();
    let mut batch: Vec<(u64, Invocation)> = Vec::new();
    let (mut taken_total, mut tails_taken) = (0usize, 0u64);
    for_each_domain(core, &chosen, |d, keys| {
        // Chaos `steal_no_repin` moves the batches but leaves every pin on
        // the victim; `cross_session_pin_leak` moves a tenant's batches
        // but "publishes" the rewritten pin into the *root* namespace
        // instead of the tenant's — the wrong-map write a buggy thief
        // would make. Either way later submits of a stolen set keep
        // routing to the victim while its stolen prefix runs here: a
        // two-executor overlap that (the tenant's) auditor must catch.
        #[cfg(feature = "chaos")]
        let (no_repin, leak) = (
            core.chaos_steal_no_repin(),
            core.chaos_cross_session_pin_leak() && d.id != 0,
        );
        #[cfg(not(feature = "chaos"))]
        let (no_repin, leak) = (false, false);
        let transfer = |valid: &[u64]| {
            let (tail_req, fresh_req): (Vec<u64>, Vec<u64>) =
                valid.iter().copied().partition(|k| tail_keys.contains(k));
            let from = &deques[victim];
            // Re-entering the deque re-runs the quiescence check under
            // the pin-shard locks a concurrent submit of these sets would
            // need: a set the owner re-popped since the scan is skipped
            // whole (counted as a failed handshake).
            #[cfg(feature = "chaos")]
            let (mut taken, busy) = if mid_set {
                (from.steal_tail_unchecked_into(&tail_req, &mut batch), 0)
            } else {
                from.steal_tail_into(&tail_req, &mut batch)
            };
            #[cfg(not(feature = "chaos"))]
            let (mut taken, busy) = from.steal_tail_into(&tail_req, &mut batch);
            if busy > 0 {
                stats.add(|c| &c.quiesce_fail, busy as u64);
            }
            tails_taken += taken.len() as u64;
            record_steal_events(core, serial, &taken, me, TraceKind::OpSteal);
            let fresh = from.steal_keys_into(&fresh_req, &mut batch);
            record_steal_events(core, serial, &fresh, me, TraceKind::Steal);
            taken.extend_from_slice(&fresh);
            // The audit handover must precede the pin rewrite (and so
            // every future execution of these sets): any steal may be the
            // middle link of a steal chain, where the set already
            // executed on some delegate this epoch. Inert for sets that
            // have not executed yet.
            for &key in &taken {
                core.audit_handover(d, SsId(key), 1 + me);
            }
            if !batch.is_empty() {
                // Depths are stats + victim-selection signals; `in_flight`
                // (which the barrier's drain check reads) is untouched by
                // steals. Moved before the batch lands here, so the
                // thief's depth never reads below what it then executes.
                core.stats.move_queued(victim, me, batch.len() as u64);
                deques[me].extend_keyed(std::mem::take(&mut batch));
            }
            taken
        };
        let taken = router.migrate_keys(
            d,
            keys,
            Executor::Delegate(victim),
            Executor::Delegate(me),
            !(no_repin || leak),
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
        // Every chosen key failed the re-validation: the owner re-popped
        // it, or another thief won it, between scan and migrate. That is
        // a race lost, not a futile deque — the sets are still queued and
        // quiesce at the owner's next finish, so no push-memo rate limit
        // applies.
        stats.bump(|c| &c.steal_failures);
        core.gate("nosteal", me as u32);
        return false;
    }
    if tails_taken > 0 {
        stats.add(|c| &c.op_steals, tails_taken);
    }
    stale_at[victim] = None;
    stats.bump(|c| &c.steals);
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
/// exist exclusively on a thread executing one of its runtime's
/// operations — a delegate thread, or the program thread running an
/// operation itself — for the duration of the scope closure (it is
/// `!Send`/`!Sync` and borrows the runtime handle, so it cannot escape to
/// other threads; the submit path additionally re-validates the calling
/// thread's identity). Nested delegations preserve every model
/// guarantee:
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
/// A set the program thread runs this epoch — one it retracted, or any
/// set of a runtime without delegates — receives nested operations on
/// `Lane::Program`, which the program thread runs after each inline run and
/// in every wait. Only an *object* claimed by a program-context mutation
/// this epoch rejects them ([`SsError::NestedOnProgram`]).
///
/// A nested delegation runs the same per-epoch state machine as the
/// program thread's, so it gets the same §3.3 consistency check:
/// re-delegating an object already tagged this epoch reports
/// [`SsError::InconsistentSerializer`] when the external set supplied —
/// or, once the object's earlier operations have completed, its
/// recomputed internal serializer — disagrees with the tag.
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
    /// Writer slot of the executing thread: 0 for a program thread,
    /// `1 + i` for delegate `i`.
    slot: usize,
    /// Pins the handle to the thread it was created on.
    _not_send: PhantomData<*mut ()>,
}

impl std::fmt::Debug for DelegateContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DelegateContext")
            .field("executor", &self.executor())
            .finish()
    }
}

impl<'rt> DelegateContext<'rt> {
    /// Index of the delegate thread this context runs on; on a program
    /// thread, the runtime's delegate count (one past the last delegate).
    pub fn index(&self) -> usize {
        match self.executor() {
            Executor::Delegate(i) => i,
            Executor::Program => self.rt.delegate_threads(),
        }
    }

    /// The executor this context runs on: a delegate, or the program
    /// thread running an operation itself.
    pub fn executor(&self) -> Executor {
        match self.slot {
            0 => Executor::Program,
            slot => Executor::Delegate(slot - 1),
        }
    }

    /// The executing thread's counter block.
    pub(crate) fn stats(&self) -> &'rt Counters {
        self.rt
            .inner
            .core
            .stats
            .writer(self.slot, self.rt.is_root())
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
    /// Runs `f` with the [`DelegateContext`] of the calling thread — the
    /// entry point for recursive delegation. Works inside every operation,
    /// whichever executor runs it: on a delegate of *this* runtime, and on
    /// this handle's program thread while it executes an operation itself
    /// (a set it retracted, or drained from `Lane::Program`). Errors with
    /// [`SsError::WrongContext`] anywhere else — a program thread at a
    /// delegation point, foreign threads. (The program-context
    /// `Writable::delegate` inside an operation the program thread runs
    /// still reports [`SsError::NestedDelegation`].)
    ///
    /// See [`DelegateContext`] for an example and the guarantees nested
    /// delegation preserves.
    pub fn delegate_scope<R>(&self, f: impl FnOnce(&DelegateContext<'_>) -> R) -> SsResult<R> {
        let slot = if self.is_program_thread() {
            self.executing_inline(self.domain()).then_some(0)
        } else {
            DELEGATE_CTX.with(|c| match c.get() {
                Some((rt, idx)) if rt == self.inner.id => Some(1 + idx as usize),
                _ => None,
            })
        }
        .ok_or(SsError::WrongContext)?;
        let cx = DelegateContext {
            rt: self,
            slot,
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

    /// An operation a future awaits (`delegate_with`'s kind).
    fn awaited_op() -> Invocation {
        Invocation::Execute {
            task: TaskSlot::with_awaited(|_| {}, true),
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

    const NOBODY: fn() -> bool = || false;

    #[test]
    fn an_awaited_entry_slips_only_when_armed() {
        let (tx, rx) = SpscQueue::with_capacity(512);
        // Nothing in the ring: nothing to hold back.
        assert_eq!(caught_up_after(SLIP_ARM).before_pop(&rx, NOBODY), 0);
        tx.try_push(awaited_op()).unwrap();
        // A short streak is a small epoch or a round trip, not a stream.
        assert_eq!(caught_up_after(SLIP_ARM - 1).before_pop(&rx, NOBODY), 0);
        // Mid-stream (the last poll found an entry): pop on.
        let mut streaming = caught_up_after(SLIP_ARM);
        streaming.popped();
        assert_eq!(streaming.before_pop(&rx, NOBODY), 0);
        // Caught up, armed, one entry, a producer that has stopped: the
        // slip runs out its bound, once.
        let mut slip = caught_up_after(SLIP_ARM);
        assert_eq!(slip.before_pop(&rx, NOBODY), SLIP_SPINS);
        assert_eq!(slip.before_pop(&rx, NOBODY), 0);
    }

    #[test]
    fn a_plain_entry_slips_after_any_catch_up() {
        let (tx, rx) = SpscQueue::with_capacity(512);
        tx.try_push(op()).unwrap();
        // Fresh from idle, no streak: the burst is held all the same.
        assert_eq!(caught_up_after(0).before_pop(&rx, NOBODY), SLIP_SPINS);
        // But not mid-burst.
        let mut popping = caught_up_after(0);
        popping.popped();
        assert_eq!(popping.before_pop(&rx, NOBODY), 0);
    }

    #[test]
    fn a_slip_ends_at_the_lead_or_when_a_thread_waits() {
        let (tx, rx) = SpscQueue::with_capacity(512);
        (0..SLIP_LEAD).for_each(|_| tx.try_push(op()).unwrap());
        // The producer is already the whole margin ahead.
        assert_eq!(caught_up_after(0).before_pop(&rx, NOBODY), 0);
        assert!(matches!(rx.try_pop(), Pop::Value(_)));
        // One short of it — but a thread waits on delegate progress (a
        // barrier, a reclaim, a future): drain at once.
        assert_eq!(caught_up_after(0).before_pop(&rx, || true), 0);
        assert_eq!(caught_up_after(0).before_pop(&rx, NOBODY), SLIP_SPINS);
    }

    #[test]
    fn tokens_and_idle_spells_disarm() {
        let (tx, rx) = SpscQueue::with_capacity(8);
        tx.try_push(awaited_op()).unwrap();
        let mut slip = caught_up_after(4 * SLIP_ARM);
        slip.disarm();
        slip.ran_dry();
        assert_eq!(slip.before_pop(&rx, NOBODY), 0);
        // An idle spell (the backoff left its spin rounds) ends the streak;
        // a shorter one does not.
        let mut slip = caught_up_after(4 * SLIP_ARM);
        (1..SLIP_IDLE_POLLS - 1).for_each(|_| slip.ran_dry());
        assert!(slip.streak >= SLIP_ARM);
        slip.ran_dry();
        assert_eq!(slip.streak, 0);
        assert_eq!(slip.before_pop(&rx, NOBODY), 0);
        // The margin is capped at a quarter ring: a tiny ring still slips,
        // and stops as soon as two of its eight slots are full.
        assert_eq!(
            caught_up_after(SLIP_ARM).before_pop(&rx, NOBODY),
            SLIP_SPINS
        );
        tx.try_push(op()).unwrap();
        assert_eq!(caught_up_after(SLIP_ARM).before_pop(&rx, NOBODY), 0);
    }
}
