//! The `writable` wrapper: privately-writable data domains.
//!
//! A [`Writable<T, S>`] owns a `T` and mediates every access through the
//! serialization-sets protocol:
//!
//! * [`delegate`](Writable::delegate) assigns a potentially independent
//!   operation to the delegate context, in the serialization set computed by
//!   the internal serializer `S`;
//! * [`delegate_in`](Writable::delegate_in) is the external-serializer form
//!   (the set is supplied at the delegation site);
//! * [`call`](Writable::call) / [`call_mut`](Writable::call_mut) execute in
//!   the program context, implicitly *reclaiming ownership* (flushing the
//!   owning delegate's queue) when delegated operations are outstanding;
//! * a per-epoch state machine rejects using the same object as both
//!   read-only and privately-writable within one isolation epoch, and a
//!   per-epoch tag detects serializers that map one object to two sets
//!   (§3.3).
//!
//! # Safety model
//!
//! The single `unsafe` kernel is the access to `UnsafeCell<T>`. It is sound
//! because, at any instant, exactly one executor may touch the value:
//!
//! 1. All delegations of an object within an epoch carry the same
//!    serialization set (enforced *before* enqueueing — the first tag of the
//!    epoch is authoritative), and one set maps to one executor whose queue
//!    executes serially in FIFO order. With
//!    recursive delegation, operations may be *submitted* by multiple
//!    producers (program thread and delegate contexts), but the per-epoch
//!    state machine lives under a mutex, so tagging and state transitions are
//!    serialized, and every producer's operations still funnel into the one
//!    owning queue.
//! 2. The program context only touches the value when no delegated operation
//!    can be in flight: during aggregation epochs (every `end_isolation`
//!    drains all queues — transitively, once nested delegation is involved),
//!    or after reclaiming ownership via a synchronization object (FIFO ⇒ all
//!    prior operations on the object completed, with the token's
//!    Release/Acquire edge ordering their effects; once the epoch has seen a
//!    nested delegation the reclaim escalates to a full quiesce, because a
//!    running parent on any queue could still spawn onto the set). While the
//!    program context's access closure runs, the `accessing` flag rejects
//!    racing delegations ([`SsError::AccessInProgress`]) instead of letting
//!    them alias the live borrow.
//! 3. `pending` gives the cheap "no outstanding work" fast path. It is
//!    three counters, each with one writer at a time ([`Pending`]), so
//!    that neither the delegating nor the executing thread issues an
//!    atomic read-modify-write on it:
//!
//!    * `raised` is written only under the state mutex, with a plain load
//!      and store, by nested delegations: each raises it in the critical
//!      section that tags the object, after raising the domain's
//!      nested-epoch flag, and a failed submit unwinds what will never run
//!      under the mutex again.
//!    * `program` is written only by the domain's program thread, with a
//!      plain load and store: under the mutex on the locked path, and
//!      without it on a *repeat* delegation — one on an object whose
//!      **stamp** (an epoch serial the program thread writes under the
//!      mutex when it records the object's owner, `Record`) is this
//!      epoch's, with operations outstanding. A failed submit unwinds it
//!      without the mutex: it only takes back operations that never run.
//!    * `settled` is written only by the executor that runs the object's
//!      operations, after each one (load, then a Release store). Within an
//!      epoch every operation of the object is in its one set, whose
//!      operations run on one executor at a time (point 1), and
//!      consecutive executors of a set are ordered by happens-before in
//!      one of three ways: the epoch barrier (the old executor's token or
//!      drain-counter release, the program thread's Acquire, its push to
//!      the new one); a tail retraction, which takes a set before any of
//!      its operations ran in the epoch; or the stealing transport's
//!      quiescence handshake — the owner's `finish` of the set's last
//!      popped operation, which follows that operation's settle, and the
//!      thief's steal read the deque's in-flight record under the same
//!      deque lock. So each settle's load sees the previous settle's
//!      store, and no settle is lost.
//!
//!    A read loads `settled` with Acquire, then `raised` and `program`.
//!    Each operation settles after its raise and an unwound operation is
//!    never settled, so the difference never wraps, and a zero proves
//!    that every raise the reader sees settled with its effects visible.
//!    A reader that holds the mutex sees every nested raise, and every
//!    program raise if it is the program thread or the stamp is stale —
//!    a stale stamp is renewed only under the mutex, so the program
//!    thread cannot raise until the reader lets go. So a mutex holder
//!    that reads `pending == 0` with `accessing == false` and is the
//!    program thread, or sees a stale stamp, knows that no executor holds
//!    the value and that none can take it before the mutex is released.
//!    That is what lets the delegation state machine hand `&T` to the
//!    internal serializer (for the first tag of an epoch and for the §3.3
//!    re-check of a later delegation, from either context; a nested one
//!    skips the re-check while the stamp is current), and what orders a
//!    program-context access against a nested submission: the submission
//!    either precedes the access's critical section (which then sees its
//!    `pending` count or the nested flag and quiesces) or follows it (and
//!    is rejected by `accessing`, or queues behind the state the access
//!    left). An access clears the stamp in that critical section, so a
//!    repeat never races it either.
//! 4. An operation holds a pointer to its object, not a counted
//!    reference: the object's handles keep it alive, and a handle dropped
//!    while operations raised through it may be outstanding hands a
//!    reference to its domain, which releases it after its next barrier
//!    (`ObjectPtr`, and `Writable`'s `Drop`).

use std::mem::ManuallyDrop;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use ss_queue::slab::SlotSender;
use ss_queue::Pending;

use crate::error::{SsError, SsResult};
use crate::fingerprint::MemoValue;
use crate::future::SsFuture;
use crate::invocation::{ExecCx, TaskSlot};
use crate::runtime::{DelegateContext, Event, Executor, Origin, Runtime};
use crate::serializer::{ObjectSerializer, SerializeCx, Serializer, SsId};
use crate::stats::Counters;
use crate::trace::{TraceExecutor, TraceKind};
use crate::wrappers::panic_message;

/// Per-epoch use of a writable object (the §3.1 state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UseState {
    /// Not yet used in this isolation epoch.
    Unused,
    /// Used as a read-only object this epoch: const calls allowed, delegation
    /// and mutation are errors.
    ReadShared,
    /// Used as a privately-writable object this epoch: owned by one
    /// serialization set (or by the program context after reclaim).
    PrivateWritable,
}

/// Epoch-local bookkeeping. Guarded by a mutex (not a program-only cell)
/// because recursive delegation lets delegate contexts tag objects and
/// record owners too; the mutex is what serializes the state machine
/// across producers. The set and the owner it tags and records live in
/// the object's [`Record`], beside it.
struct EpochLocal {
    /// Isolation-epoch serial this state belongs to (lazy reset).
    serial: u64,
    use_state: UseState,
    /// Whether the first delegation of the epoch has tagged the object
    /// with a set (`Record::tag`).
    tagged: bool,
    /// True while a program-context access closure (`call`/`call_mut`)
    /// runs on the value. Delegations observing it are rejected
    /// ([`SsError::AccessInProgress`]) — they would otherwise race the
    /// live borrow.
    accessing: bool,
}

impl EpochLocal {
    /// Moves the state to epoch `serial`, if it is not there yet. Under
    /// the mutex.
    fn refresh(&mut self, serial: u64, record: &Record) {
        if self.serial != serial {
            self.serial = serial;
            self.use_state = UseState::Unused;
            self.tagged = false;
            record.set_owner(None);
        }
    }
}

struct Shared<T> {
    value: core::cell::UnsafeCell<T>,
    instance: u64,
    /// Outstanding delegated operations on this object, in three halves:
    /// raised under `local` by nested delegations, raised by the domain's
    /// program thread, settled by the executor that owns the object's set
    /// (module safety model, point 3).
    pending: Pending,
    record: Record,
    local: Mutex<EpochLocal>,
}

/// The object's one record of the set it is tagged with and the executor
/// that owns it in `EpochLocal`'s epoch, and the program thread's
/// **stamp**. Atomics, so that the program thread can read them without
/// the state mutex; every field is written only under the mutex.
///
/// * `tag` is the epoch's set while `EpochLocal::tagged`; the first
///   delegation of the epoch writes it, and nothing rewrites it before
///   the next epoch.
/// * `owner` is the executor the last submit was routed to, or none
///   before the first; every submit records it, from either submitter.
/// * `stamp` is the epoch serial in which the program thread may delegate
///   the object without the mutex, 0 for none. Only the program thread
///   writes it: its locked submit sets it, after the tag and the owner,
///   and `access` clears it.
///
/// While the stamp is the current serial the object is tagged
/// privately-writable with `tag`, and no `access` has run since, so a
/// repeat program-thread delegation reads `tag` without the mutex
/// (`Writable::repeat`) and reads `owner` to take the mutex only when it
/// would change it. That skipped write keeps the record single: the
/// program thread skips it only when `owner` already holds the executor
/// it would write, so the record ends as if that submit had taken the
/// mutex and written it there, whatever a nested submit wrote before.
struct Record {
    tag: AtomicU64,
    /// [`Executor::Program`] as `u64::MAX`, delegate `i` as `i`, none as
    /// [`Record::NO_OWNER`].
    owner: AtomicU64,
    stamp: AtomicU64,
}

impl Record {
    const NO_OWNER: u64 = u64::MAX - 1;

    fn new() -> Self {
        Record {
            tag: AtomicU64::new(0),
            owner: AtomicU64::new(Self::NO_OWNER),
            stamp: AtomicU64::new(0),
        }
    }

    fn owner_bits(owner: Option<Executor>) -> u64 {
        match owner {
            Some(Executor::Program) => u64::MAX,
            Some(Executor::Delegate(i)) => i as u64,
            None => Self::NO_OWNER,
        }
    }

    /// The set, if `local` says the object is tagged. Under the mutex.
    fn tag(&self, local: &EpochLocal) -> Option<SsId> {
        local.tagged.then(|| SsId(self.tag.load(Ordering::Relaxed)))
    }

    /// Under the mutex.
    fn set_tag(&self, local: &mut EpochLocal, tag: SsId) {
        self.tag.store(tag.0, Ordering::Relaxed);
        local.tagged = true;
    }

    /// The recorded owner. Under the mutex.
    fn owner(&self) -> Option<Executor> {
        match self.owner.load(Ordering::Relaxed) {
            u64::MAX => Some(Executor::Program),
            Self::NO_OWNER => None,
            i => Some(Executor::Delegate(i as usize)),
        }
    }

    /// Under the mutex.
    fn set_owner(&self, owner: Option<Executor>) {
        self.owner.store(Self::owner_bits(owner), Ordering::Relaxed);
    }

    /// Whether the stamp is `serial`'s.
    #[inline]
    fn stamped(&self, serial: u64) -> bool {
        self.stamp.load(Ordering::Relaxed) == serial
    }

    /// Whether the stamp is `serial`'s and the recorded owner is `owner`.
    /// The program thread, with or without the mutex.
    #[inline]
    fn owned_by(&self, serial: u64, owner: Executor) -> bool {
        self.stamped(serial) && self.owner.load(Ordering::Relaxed) == Self::owner_bits(Some(owner))
    }
}

/// What a completion [`Sink`] may ask about its operation's receiver —
/// the object half of a `FutureResolve` trace event.
pub(crate) struct Receiver<'a> {
    instance: u64,
    record: &'a Record,
    local: &'a Mutex<EpochLocal>,
}

impl Receiver<'_> {
    /// The epoch serial and the set the running operation was delegated
    /// in: the object's epoch state (the first tag is authoritative, and
    /// the epoch cannot close before the operation settles). The set is
    /// not recoverable from the routing key the executor popped — a
    /// session's is composite, and folds ids above 2^48.
    fn delegated_in(&self) -> (u64, Option<SsId>) {
        let local = self.local.lock();
        (local.serial, self.record.tag(&local))
    }
}

// SAFETY: `value` is accessed under the executor-exclusivity protocol
// documented at module level; `local` is mutex-guarded; `pending`'s halves
// and the record are atomic. `T: Send` because the value migrates between
// executor threads.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

/// Clears `accessing` when the program-context access closure finishes —
/// including by unwinding, so a panicking closure does not wedge the
/// object into permanent [`SsError::AccessInProgress`].
struct AccessGuard<'a>(&'a Mutex<EpochLocal>);

impl Drop for AccessGuard<'_> {
    fn drop(&mut self) {
        self.0.lock().accessing = false;
    }
}

/// Who is delegating: the domain's program thread at a delegation point,
/// or a delegate context running one of the domain's operations (recursive
/// delegation). Both drive the same state machine; the branches on this
/// value are the only places they differ — the context check, the
/// [`SsError::NestedOnProgram`] rule and the nested-epoch mark in
/// [`Writable::prepare`], and which trace log records the event (`prepare`
/// for a memo hit, [`Writable::submit_and_record`] otherwise).
#[derive(Clone, Copy)]
pub(crate) enum Submitter<'a> {
    Program,
    Nested(&'a DelegateContext<'a>),
}

impl<'a> Submitter<'a> {
    fn origin(self) -> Origin {
        match self {
            Submitter::Program => Origin::Program,
            Submitter::Nested(_) => Origin::Nested,
        }
    }

    /// The submitting thread's counter block; `rt` is the handle a
    /// program-context delegation was made through.
    fn stats<'s>(self, rt: &'s Runtime) -> &'s Counters
    where
        'a: 's,
    {
        match self {
            Submitter::Program => rt.program_stats(),
            Submitter::Nested(cx) => cx.stats(),
        }
    }
}

/// Where a delegated operation's result goes once it has run: the
/// completion kind, which is all that the void, future and memo forms of
/// a delegation differ in after [`Writable::prepare`]. Captured by value
/// in the invocation closure and dispatched statically.
pub(crate) trait Sink<R>: Send + 'static {
    /// Whether a future waits on what this sink delivers (a slipping
    /// delegate pops such an operation at once).
    const AWAITED: bool = true;
    /// Whether the delegator abandoned the result before the operation
    /// was popped (drop-to-cancel): the body is then skipped.
    fn cancelled(&self) -> bool;
    /// Delivers the result, before the object's `pending` count settles.
    /// `object` is the operation's receiver, for the trace.
    fn resolve(self, out: R, cx: &ExecCx<'_>, object: Receiver<'_>);
}

/// Void delegation (Table 1 `delegate`): nothing to deliver. Zero-sized,
/// so a void invocation closure is the object pointer plus the user
/// closure — it fits `TaskSlot`'s three inline words whenever the user
/// capture fits two.
pub(crate) struct Void;

impl Sink<()> for Void {
    const AWAITED: bool = false;
    #[inline]
    fn cancelled(&self) -> bool {
        false
    }
    #[inline]
    fn resolve(self, _: (), _: &ExecCx<'_>, _: Receiver<'_>) {}
}

/// Future-returning delegation: the sending half of the completion slot
/// behind the [`SsFuture`] — one word, so the invocation closure (object
/// pointer + sender + user closure) fits `TaskSlot`'s three inline words
/// whenever the user capture fits one. What the `FutureResolve` trace
/// event reports is not carried: the epoch serial and the set are the
/// receiver's epoch state, and the executor comes with the execution
/// context.
pub(crate) struct Cell<R>(SlotSender<R, Event>);

impl<R: Send + 'static> Sink<R> for Cell<R> {
    fn cancelled(&self) -> bool {
        self.0.is_cancelled()
    }
    fn resolve(self, out: R, cx: &ExecCx<'_>, object: Receiver<'_>) {
        gate(cx, "send");
        self.0.send(out);
        gate(cx, "sent");
        cx.stats.bump(|c| &c.futures_resolved);
        if cx.core.side_events.is_some() {
            let (serial, set) = object.delegated_in();
            cx.core.record_side(
                serial,
                TraceKind::FutureResolve,
                Some(object.instance),
                set,
                cx.executor,
            );
        }
    }
}

/// The deterministic-schedule harness's gate `point@…` for the executor
/// running the operation (its delegate index, or `p`).
fn gate(cx: &ExecCx<'_>, point: &str) {
    if cx.core.test_gates.is_some() {
        match cx.executor {
            TraceExecutor::Delegate(i) => cx.core.gate(point, i),
            TraceExecutor::Program => cx.core.gate(point, "p"),
        }
    }
}

/// Memoized delegation that missed: the slot, whose header holds the
/// `(key, fingerprint, generation)` stamp the executed result publishes
/// under — so the record is as small as a plain future's.
pub(crate) struct MemoCell<R>(Cell<R>);

impl<R: MemoValue> Sink<R> for MemoCell<R> {
    fn cancelled(&self) -> bool {
        self.0.cancelled()
    }
    fn resolve(self, out: R, cx: &ExecCx<'_>, object: Receiver<'_>) {
        // Publish before settle: the result lands in the memo table before
        // the slot and `pending` settle, so every drain proof (epoch
        // barrier, reclaim quiesce) covers the publication and a
        // re-submission after any barrier observes it. `publish` re-checks
        // the generation under the shard lock and drops a publication
        // whose set was invalidated while the operation was queued or ran.
        if let Some(memo) = &cx.core.memo {
            let [key, fp, generation] = self.0 .0.header();
            memo.publish(key, fp, generation, out.to_memo_bits());
        }
        self.0.resolve(out, cx, object);
    }
}

/// Whether a future-returning delegation consults the memo table: the
/// `delegate_with` family passes [`NoMemo`], the `delegate_memo` family
/// [`Memo`] with the caller's input fingerprint. A trait and not an
/// `Option<u64>` because only the memoized form needs `R: MemoValue` — to
/// decode a hit and to publish a miss.
pub(crate) trait MemoUse<R>: Copy {
    type Sink: Sink<R>;
    fn fingerprint(self) -> Option<u64>;
    fn decode(bits: u64) -> R;
    /// The slot header a miss publishes under: `(key, fingerprint,
    /// generation)`.
    fn header(self, key: u64, generation: u64) -> [u64; 3];
    fn sink(cell: Cell<R>) -> Self::Sink;
}

#[derive(Clone, Copy)]
pub(crate) struct NoMemo;

impl<R: Send + 'static> MemoUse<R> for NoMemo {
    type Sink = Cell<R>;
    fn fingerprint(self) -> Option<u64> {
        None
    }
    fn decode(_: u64) -> R {
        unreachable!("a delegation without a fingerprint cannot hit the memo table")
    }
    fn header(self, _: u64, _: u64) -> [u64; 3] {
        [0; 3]
    }
    fn sink(cell: Cell<R>) -> Cell<R> {
        cell
    }
}

#[derive(Clone, Copy)]
pub(crate) struct Memo(pub(crate) u64);

impl<R: MemoValue> MemoUse<R> for Memo {
    type Sink = MemoCell<R>;
    fn fingerprint(self) -> Option<u64> {
        Some(self.0)
    }
    fn decode(bits: u64) -> R {
        R::from_memo_bits(bits)
    }
    fn header(self, key: u64, generation: u64) -> [u64; 3] {
        [key, self.0, generation]
    }
    fn sink(cell: Cell<R>) -> MemoCell<R> {
        MemoCell(cell)
    }
}

/// Outcome of [`Writable::prepare`].
struct Prepared {
    /// The effective serialization set.
    ss: SsId,
    /// The domain's isolation-epoch serial.
    serial: u64,
    /// `Some(bits)` when the memo table held a servable entry: the future
    /// is born ready from `bits` and **nothing was committed** (no tag, no
    /// claim, no `pending` raise — the operation will not run).
    hit: Option<u64>,
    /// On a memoized miss, the set's live generation at lookup time — the
    /// stamp the executed result must publish under.
    generation: u64,
}

/// A privately-writable data domain (Prometheus `writable<T, S>`).
///
/// `S` is the *internal serializer* type; it defaults to
/// [`ObjectSerializer`] (each object its own set). Handles are cheap to
/// clone and share the underlying object, like the C++ wrapper references.
///
/// ```
/// use ss_core::{Runtime, SequenceSerializer, Writable};
///
/// let rt = Runtime::builder().delegate_threads(2).build().unwrap();
/// let words: Vec<Writable<Vec<String>, SequenceSerializer>> =
///     (0..4).map(|_| Writable::new(&rt, Vec::new())).collect();
///
/// rt.begin_isolation().unwrap();
/// for i in 0..100usize {
///     words[i % 4].delegate(move |v| v.push(format!("item-{i}"))).unwrap();
/// }
/// rt.end_isolation().unwrap();
///
/// let total: usize = words.iter().map(|w| w.call(|v| v.len()).unwrap()).sum();
/// assert_eq!(total, 100);
/// ```
pub struct Writable<T: Send + 'static, S: Serializer<T> = ObjectSerializer> {
    shared: Arc<Shared<T>>,
    serializer: Arc<S>,
    rt: Runtime,
}

impl<T: Send + 'static, S: Serializer<T>> Clone for Writable<T, S> {
    fn clone(&self) -> Self {
        Writable {
            shared: Arc::clone(&self.shared),
            serializer: Arc::clone(&self.serializer),
            rt: self.rt.clone(),
        }
    }
}

/// The object keep-alive: a handle dropped while operations raised on
/// the object may still be outstanding hands a reference to its domain's
/// kept list, which `end_isolation` releases after its barrier — by when
/// every one of them has run (ARCHITECTURE, "The allocation lifecycle of
/// an operation").
impl<T: Send + 'static, S: Serializer<T>> Drop for Writable<T, S> {
    fn drop(&mut self) {
        if self.shared.pending.outstanding() != 0 {
            let object: Arc<Shared<T>> = Arc::clone(&self.shared);
            self.rt.domain().keep(object);
        }
    }
}

/// An invocation's pointer to its object, in place of a counted
/// reference. The object outlives every operation raised on it: each
/// raise is made through a handle and happens-before that handle's drop
/// (a borrow of the handle ends before it is dropped, and a borrow shared
/// with another thread ends through a synchronization: a join, a lock,
/// an `Arc` count). So the drop's `outstanding()` — `settled` with
/// Acquire, then both raised halves — sees the raise, and reads zero
/// only if the operation's settle, its last access to the object, has
/// happened-before it. Otherwise the drop keeps the object (`Drop for
/// Writable`) until its domain's barrier, which every operation raised
/// on the object in the epoch precedes.
struct ObjectPtr<T>(NonNull<Shared<T>>);

// SAFETY: the pointee is `Send + Sync` for `T: Send` and outlives the
// pointer (above).
unsafe impl<T: Send> Send for ObjectPtr<T> {}

impl<T> ObjectPtr<T> {
    /// # Safety
    /// The operation holding the pointer has not settled.
    unsafe fn get(&self) -> &Shared<T> {
        // SAFETY: the object outlives every unsettled operation (above).
        unsafe { self.0.as_ref() }
    }
}

impl<T: Send + 'static, S: Serializer<T>> std::fmt::Debug for Writable<T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Writable")
            .field("instance", &self.shared.instance)
            .field("pending", &self.shared.pending.outstanding())
            .finish()
    }
}

impl<T: Send + 'static, S: Serializer<T> + Default> Writable<T, S> {
    /// Wraps `value` in a writable domain using the default-constructed
    /// internal serializer.
    pub fn new(rt: &Runtime, value: T) -> Self {
        Self::with_serializer(rt, value, S::default())
    }
}

impl<T: Send + 'static, S: Serializer<T>> Writable<T, S> {
    /// Wraps `value` using an explicit serializer instance (for stateful /
    /// closure serializers).
    pub fn with_serializer(rt: &Runtime, value: T, serializer: S) -> Self {
        Writable {
            shared: Arc::new(Shared {
                value: core::cell::UnsafeCell::new(value),
                instance: rt.next_instance(),
                pending: Pending::new(),
                record: Record::new(),
                local: Mutex::new(EpochLocal {
                    serial: 0,
                    use_state: UseState::Unused,
                    tagged: false,
                    accessing: false,
                }),
            }),
            serializer: Arc::new(serializer),
            rt: rt.clone(),
        }
    }

    /// This object's sequence number (the *sequence* serializer's key).
    pub fn instance(&self) -> u64 {
        self.shared.instance
    }

    /// The runtime this object belongs to.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// Outstanding delegated operations (diagnostic).
    pub fn pending_operations(&self) -> u32 {
        self.shared.pending.outstanding()
    }

    /// Serialization set this object was tagged with in the current epoch,
    /// if it has been delegated (program thread only).
    pub fn current_set(&self) -> SsResult<Option<SsId>> {
        self.rt.require_program_thread()?;
        let (in_iso, serial, _) = self.rt.epoch_flags();
        if !in_iso {
            return Ok(None);
        }
        let local = self.shared.local.lock();
        if local.serial != serial {
            return Ok(None);
        }
        Ok(self.shared.record.tag(&local))
    }

    // ------------------------------------------------------------------
    // delegation

    /// Assigns a potentially independent operation to the delegate context,
    /// in the set computed by the internal serializer (Table 1 `delegate`).
    ///
    /// The operation's "return type must be void" (results should be stored
    /// in the object and read later via [`call`](Writable::call)); its
    /// captures must be `Send` — the Rust analogue of the paper's
    /// "arguments … passed by value, or pointers/references to classes
    /// derived from `shared`".
    pub fn delegate<F>(&self, f: F) -> SsResult<()>
    where
        F: FnOnce(&mut T) + Send + 'static,
    {
        self.delegate_run(Submitter::Program, None, &mut [self.package(f, Void)])
            .map(drop)
    }

    /// Delegates in an explicitly supplied serialization set — the external
    /// serializer form (Table 1 `delegate(ss_t serializer, …)`).
    pub fn delegate_in<F>(&self, ss: impl Into<SsId>, f: F) -> SsResult<()>
    where
        F: FnOnce(&mut T) + Send + 'static,
    {
        let run = &mut [self.package(f, Void)];
        self.delegate_run(Submitter::Program, Some(ss.into()), run)
            .map(drop)
    }

    /// Future-returning delegation (Table 1 `delegate`, minus the "return
    /// type must be void" restriction the paper imposes): the operation's
    /// closure returns a value, which flows back to the delegator through
    /// the returned [`SsFuture`] instead of being smuggled through the
    /// shared object and reclaimed later.
    ///
    /// Routing, ordering and drain semantics are identical to
    /// [`delegate`](Writable::delegate); the future adds only the result
    /// channel (see [`SsFuture`] and the [`future`](crate::SsFuture)
    /// module docs for the drain/drop/deadlock guarantees).
    ///
    /// ```
    /// use ss_core::{Runtime, Writable};
    ///
    /// let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    /// let w: Writable<Vec<u64>> = Writable::new(&rt, vec![3, 4]);
    /// rt.begin_isolation().unwrap();
    /// let fut = w.delegate_with(|v| { v.push(5); v.iter().product::<u64>() }).unwrap();
    /// assert_eq!(fut.wait().unwrap(), 60);
    /// rt.end_isolation().unwrap();
    /// ```
    pub fn delegate_with<R, F>(&self, f: F) -> SsResult<SsFuture<R>>
    where
        R: Send + 'static,
        F: FnOnce(&mut T) -> R + Send + 'static,
    {
        self.delegate_future(Submitter::Program, None, NoMemo, f)
    }

    /// Future-returning delegation in an explicitly supplied
    /// serialization set — the external-serializer form of
    /// [`delegate_with`](Writable::delegate_with).
    pub fn delegate_in_with<R, F>(&self, ss: impl Into<SsId>, f: F) -> SsResult<SsFuture<R>>
    where
        R: Send + 'static,
        F: FnOnce(&mut T) -> R + Send + 'static,
    {
        self.delegate_future(Submitter::Program, Some(ss.into()), NoMemo, f)
    }

    /// Memoized future-returning delegation: like
    /// [`delegate_with`](Writable::delegate_with), but keyed by
    /// `(serialization set, fingerprint)` in the runtime's memo table
    /// (present when built with
    /// [`RuntimeBuilder::memo_capacity`](crate::RuntimeBuilder::memo_capacity);
    /// without it this is exactly `delegate_with`).
    ///
    /// `fingerprint` names the inputs the closure depends on — compute
    /// it with [`fingerprint_of`](crate::fingerprint_of) or supply your
    /// own `u64`. **The caller promises** that two submissions with
    /// equal fingerprints on the same set compute the same result; the
    /// runtime does not check this, exactly as it does not check a
    /// serializer's independence promise (the serializability auditor
    /// verifies what it can: generation freshness of every served
    /// entry).
    ///
    /// A **hit** — a cached result from an earlier epoch whose set has
    /// not been invalidated since — returns a future born ready holding
    /// the cached value: no routing, no queue reservation, no delegate
    /// wakeup, no allocation, and the object's epoch state is untouched
    /// (the operation does not run, so the object is not claimed). A
    /// **miss** delegates normally and publishes the result into the
    /// memo table before the operation's completion settles the drain
    /// counters. Any non-memoized delegation on the set, and any
    /// mutating ownership reclaim, invalidates the set's entries in one
    /// generation bump.
    ///
    /// Results must implement [`MemoValue`] (round-trip through a
    /// `u64`): cache a key or summary and keep wide data in the object.
    ///
    /// ```
    /// use ss_core::{fingerprint_of, Runtime, Writable};
    ///
    /// let rt = Runtime::builder()
    ///     .delegate_threads(1)
    ///     .memo_capacity(1024)
    ///     .build()
    ///     .unwrap();
    /// let w: Writable<Vec<u64>> = Writable::new(&rt, (1..=100).collect());
    ///
    /// for _ in 0..3 {
    ///     rt.begin_isolation().unwrap();
    ///     let fp = fingerprint_of(&(1u64, 100u64)); // the inputs
    ///     let f = w.delegate_memo(fp, |v| v.iter().sum::<u64>()).unwrap();
    ///     assert_eq!(f.wait().unwrap(), 5050);
    ///     rt.end_isolation().unwrap();
    /// }
    /// // First submission executed; the re-submissions were served from
    /// // the memo table without executing anything.
    /// assert_eq!(rt.stats().memo_misses, 1);
    /// assert_eq!(rt.stats().memo_hits, 2);
    /// ```
    pub fn delegate_memo<R, F>(&self, fingerprint: u64, f: F) -> SsResult<SsFuture<R>>
    where
        R: MemoValue,
        F: FnOnce(&mut T) -> R + Send + 'static,
    {
        self.delegate_future(Submitter::Program, None, Memo(fingerprint), f)
    }

    /// Memoized delegation in an explicitly supplied serialization set —
    /// the external-serializer form of
    /// [`delegate_memo`](Writable::delegate_memo).
    pub fn delegate_in_memo<R, F>(
        &self,
        ss: impl Into<SsId>,
        fingerprint: u64,
        f: F,
    ) -> SsResult<SsFuture<R>>
    where
        R: MemoValue,
        F: FnOnce(&mut T) -> R + Send + 'static,
    {
        self.delegate_future(Submitter::Program, Some(ss.into()), Memo(fingerprint), f)
    }

    /// Batch delegation: assigns a whole run of operations on this object
    /// to the delegate context in **one** submission — the serialization
    /// set is computed once, the router consulted once, queue space
    /// claimed once and the owning delegate woken once for the entire
    /// run, instead of per operation. Semantically identical to calling
    /// [`delegate`](Writable::delegate) once per closure, in iterator
    /// order (the queue is FIFO, so the operations execute in exactly
    /// that order); the amortization only changes the constant factor.
    ///
    /// Returns the number of operations submitted. An empty iterator is a
    /// no-op (`Ok(0)`) that does not touch the epoch state machine.
    ///
    /// ```
    /// use ss_core::{Runtime, Writable};
    ///
    /// let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    /// let w: Writable<u64> = Writable::new(&rt, 0);
    /// rt.begin_isolation().unwrap();
    /// let n = w.delegate_iter((1..=100u64).map(|i| move |n: &mut u64| *n += i)).unwrap();
    /// assert_eq!(n, 100);
    /// rt.end_isolation().unwrap();
    /// assert_eq!(w.call(|n| *n).unwrap(), 5050);
    /// ```
    pub fn delegate_iter<I, F>(&self, fs: I) -> SsResult<usize>
    where
        I: IntoIterator<Item = F>,
        F: FnOnce(&mut T) + Send + 'static,
    {
        self.delegate_run(Submitter::Program, None, &mut self.package_all(fs))
    }

    /// Batch delegation in an explicitly supplied serialization set — the
    /// external-serializer form of
    /// [`delegate_iter`](Writable::delegate_iter).
    pub fn delegate_iter_in<I, F>(&self, ss: impl Into<SsId>, fs: I) -> SsResult<usize>
    where
        I: IntoIterator<Item = F>,
        F: FnOnce(&mut T) + Send + 'static,
    {
        let run = &mut self.package_all(fs);
        self.delegate_run(Submitter::Program, Some(ss.into()), run)
    }

    /// Void delegation of a packaged run, for either submitter: every
    /// `delegate`, `delegate_in`, `delegate_iter` and `delegate_iter_in`
    /// (here and on [`DelegateContext`]) is this — a single delegation is
    /// a run of one on the caller's stack. Packaging came first because
    /// it touches no shared state: an empty run must not tag the object
    /// or flip its epoch state. Returns the run's length.
    pub(crate) fn delegate_run(
        &self,
        by: Submitter<'_>,
        external: Option<SsId>,
        run: &mut [Option<TaskSlot>],
    ) -> SsResult<usize> {
        let n = run.len();
        if n == 0 {
            return Ok(0);
        }
        let p = self.prepare(by, external, n as u32, None)?;
        self.submit_and_record(by.origin(), &p, run)?;
        Ok(n)
    }

    /// Future-returning delegation, for either submitter and with or
    /// without the memo table: every `delegate_with`, `delegate_in_with`,
    /// `delegate_memo` and `delegate_in_memo` is this. A memo hit is
    /// served here, born ready, with nothing packaged or submitted.
    pub(crate) fn delegate_future<R, F, M>(
        &self,
        by: Submitter<'_>,
        external: Option<SsId>,
        memo: M,
        f: F,
    ) -> SsResult<SsFuture<R>>
    where
        R: Send + 'static,
        F: FnOnce(&mut T) -> R + Send + 'static,
        M: MemoUse<R>,
    {
        let rt = &self.rt;
        let p = self.prepare(by, external, 1, memo.fingerprint())?;
        if let Some(bits) = p.hit {
            let value = M::decode(bits);
            return Ok(SsFuture::new_memo_hit(value, rt.clone(), p.ss, p.serial));
        }
        let d = rt.domain();
        // The issuing thread's lane of the domain's result slab, checked
        // before anything is issued on it; what `submit` re-checks.
        let lane = match rt.producer(by.origin(), d) {
            Ok(lane) => lane,
            Err(e) => {
                self.unwind(by.origin(), 1);
                return Err(e);
            }
        };
        let header = memo.header(d.key(p.ss), p.generation);
        // SAFETY: `producer` resolved the calling thread's own lane: the
        // domain's program thread (lane 0) or delegate `lane - 1` running
        // one of the domain's operations, so the domain's barrier, which
        // reclaims the slab, follows this issue. The future keeps the
        // runtime — and with it the domain — alive; a queued sender is
        // dropped before its domain (`Domain::results`).
        let (tx, rx) = unsafe { d.results.issue(lane, header) };
        let sink = M::sink(Cell(tx));
        let executor = self.submit_and_record(by.origin(), &p, &mut [self.package(f, sink)])?;
        Ok(SsFuture::new(rx, rt.clone(), p.ss, executor, p.serial))
    }

    /// Delegation, phase 1 — the one per-epoch state machine (§3.1/§3.3)
    /// behind every `delegate*` entry point: context, epoch and poison
    /// checks, then, under the object's state mutex (nothing there may run
    /// user code other than the serializer), the effective set, the
    /// optional memo lookup and the commit of a run of `count` operations.
    ///
    /// A **memo hit returns without committing anything**: no tag, no
    /// claim, no `pending` raise, because no operation will run. Otherwise
    /// the commit — tag, privately-writable claim, nested-epoch mark and
    /// the `pending` raise by `count` — happens inside the critical
    /// section for both submitters (module safety model, point 3), with
    /// one exception: a **repeat** program-thread delegation
    /// ([`repeat`](Writable::repeat)) finds everything but the raise
    /// already committed this epoch, and raises without the mutex.
    ///
    /// Three rules apply to a delegate context only:
    ///
    /// * its [`DelegateContext`] must belong to this runtime, and it has
    ///   no epoch flags to consult: the domain's epoch cannot end while
    ///   the parent operation runs, so its serial is stable;
    /// * an object claimed by a program-context mutation this epoch
    ///   (privately-writable with no set tag) rejects it
    ///   ([`SsError::NestedOnProgram`]) — the program thread owns the
    ///   value itself, outside any serialization set;
    /// * the domain's nested-epoch flag is raised *before* `pending`, so a
    ///   program-context access under the same mutex either sees the work
    ///   coming (and quiesces) or strictly precedes it (and `accessing` /
    ///   the state it leaves protect the access).
    fn prepare(
        &self,
        by: Submitter<'_>,
        external: Option<SsId>,
        count: u32,
        fp: Option<u64>,
    ) -> SsResult<Prepared> {
        let rt = &self.rt;
        let core = &rt.inner.core;
        let d = rt.domain();
        let instance = self.shared.instance;
        let serial = match by {
            Submitter::Program => {
                rt.require_program_thread()?;
                let (in_iso, serial, inline) = rt.epoch_flags();
                if inline {
                    return Err(SsError::NestedDelegation);
                }
                if !in_iso {
                    return Err(SsError::NotInIsolation);
                }
                serial
            }
            Submitter::Nested(cx) => {
                if !cx.belongs_to(rt) {
                    return Err(SsError::WrongContext);
                }
                rt.check_live()?;
                d.serial()
            }
        };
        if rt.is_poisoned() {
            return Err(core.poison_error());
        }
        // Without a memo table a memoized delegation is a plain future.
        let memo = core.memo.as_ref().zip(fp);
        if let (Submitter::Program, None) = (by, memo) {
            if let Some(ss) = self.repeat(serial, external)? {
                // Between the read that found work outstanding and the
                // raise: where a nested `prepare` that trusted a zero
                // would race this delegation (`tests/repeat_delegation.rs`).
                core.gate("repeat", "p");
                self.shared.pending.raise_program(count);
                self.invalidate_memo(ss, by);
                return Ok(Prepared {
                    ss,
                    serial,
                    hit: None,
                    generation: 0,
                });
            }
        }

        let record = &self.shared.record;
        let mut local = self.shared.local.lock();
        local.refresh(serial, record);
        if local.accessing {
            // Delegating from inside this object's own `call`/`call_mut`
            // closure, or racing it, would alias the live borrow.
            return Err(SsError::AccessInProgress { instance });
        }
        if local.use_state == UseState::ReadShared {
            return Err(SsError::StateConflict {
                instance,
                was_read_shared: true,
            });
        }
        let tag = record.tag(&local);
        if tag.is_none()
            && local.use_state == UseState::PrivateWritable
            && matches!(by, Submitter::Nested(_))
        {
            return Err(SsError::NestedOnProgram { set: None });
        }
        // What the serializers say now: the external set when one was
        // supplied, else the internal serializer — which needs `&T`, so it
        // is consulted only while no delegated operation is in flight. A
        // nested reader trusts a zero only while the program thread's
        // stamp is stale: while it is current, the program thread raises
        // without this mutex.
        let idle = self.shared.pending.outstanding() == 0
            && (matches!(by, Submitter::Program) || !record.stamped(serial));
        let computed = match external {
            Some(e) => Some(e),
            None if idle => {
                // SAFETY: `pending == 0` and `accessing == false`, both read
                // under the state mutex, which every nested raise, every
                // program access's `accessing` claim and every program
                // raise made while the stamp is stale also hold (the
                // caller is the program thread, or the stamp is stale and
                // can be renewed only under this mutex): no executor has
                // the value and none can take it before the mutex is
                // released.
                let value = unsafe { &*self.shared.value.get() };
                self.serializer.serialize(value, self.cx())
            }
            None => None,
        };
        let ss = match tag {
            // Already tagged this epoch. The first tag is authoritative for
            // routing (this keeps executor exclusivity even when a buggy
            // serializer would disagree); consistency is verified as in
            // §3.3.
            Some(tag) => {
                if let Some(got) = computed.filter(|&got| got != tag) {
                    return Err(SsError::InconsistentSerializer {
                        instance,
                        tagged: tag,
                        got,
                    });
                }
                tag
            }
            // First delegation of the epoch: untagged ⇒ every earlier
            // epoch's work drained at its barrier.
            None => {
                debug_assert!(idle);
                computed.ok_or(SsError::MissingSerializer)?
            }
        };
        let mut generation = 0;
        if let Some((table, fp)) = memo {
            let key = d.key(ss);
            // Normal mode serves only live-generation entries; the chaos
            // `stale_memo_serve` weakening serves any entry but reports both
            // generations honestly, so the auditor can catch the lie.
            match table.lookup_entry(key, fp) {
                Some((bits, entry_gen, live_gen))
                    if entry_gen == live_gen || core.chaos_stale_memo_serve() =>
                {
                    drop(local);
                    by.stats(rt).bump(|c| &c.memo_hits);
                    core.audit_memo_hit(d, SsId(key), entry_gen, live_gen);
                    // `MemoHit` is a program-order, delegation-site record.
                    if matches!(by, Submitter::Program) && rt.trace_enabled() {
                        rt.trace_record(TraceKind::MemoHit, Some(instance), Some(ss), None);
                    }
                    return Ok(Prepared {
                        ss,
                        serial,
                        hit: Some(bits),
                        generation,
                    });
                }
                _ => {
                    by.stats(rt).bump(|c| &c.memo_misses);
                    generation = table.generation(key);
                }
            }
        }
        record.set_tag(&mut local, ss);
        local.use_state = UseState::PrivateWritable;
        match by {
            Submitter::Program => self.shared.pending.raise_program(count),
            Submitter::Nested(_) => {
                rt.mark_nested_epoch();
                self.shared.pending.raise(count);
            }
        }
        drop(local);
        if memo.is_none() {
            // A non-memoized delegation mutates the set's object outside
            // the memo protocol: invalidate the set's cached results.
            self.invalidate_memo(ss, by);
        }
        Ok(Prepared {
            ss,
            serial,
            hit: None,
            generation,
        })
    }

    /// The lock-free branch of `prepare`: `Some(set)` when this
    /// program-thread delegation is a **repeat** — the object's stamp is
    /// this epoch's, so the object is tagged privately-writable with its
    /// record's set and no `access` has run since, and operations are
    /// still outstanding, so the locked path would not consult the
    /// internal serializer either. Nothing under the mutex can then reject
    /// it: `accessing` is set only inside an `access`, which clears the
    /// stamp first, and a privately-writable object never turns
    /// read-shared within an epoch. An external set is still checked
    /// against the tag (§3.3). `None` sends the delegation down the locked
    /// path: the first of an epoch, one after an `access`, and one on an
    /// idle object, whose set the internal serializer re-checks.
    #[inline]
    fn repeat(&self, serial: u64, external: Option<SsId>) -> SsResult<Option<SsId>> {
        let shared = &*self.shared;
        if !shared.record.stamped(serial) || shared.pending.outstanding() == 0 {
            return Ok(None);
        }
        let tag = SsId(shared.record.tag.load(Ordering::Relaxed));
        match external {
            Some(got) if got != tag => Err(SsError::InconsistentSerializer {
                instance: shared.instance,
                tagged: tag,
                got,
            }),
            _ => Ok(Some(tag)),
        }
    }

    /// Invalidates the set's memoized results: one generation bump
    /// lazily kills every `(set, fingerprint)` entry. Called wherever a
    /// non-memoized mutation of the set's object commits — plain
    /// delegation (`prepare`) and mutating ownership reclaim (`access`).
    #[inline]
    fn invalidate_memo(&self, ss: SsId, by: Submitter<'_>) {
        let core = &self.rt.inner.core;
        if let Some(memo) = &core.memo {
            memo.bump_generation(self.rt.domain().key(ss));
            by.stats(&self.rt).bump(|c| &c.memo_invalidations);
        }
    }

    /// Delegation, phase 3, for either origin: submit the packaged run
    /// (`prepare` has already raised `pending` by its length) and record
    /// the owning executor for later reclaims — one router resolution and
    /// one queue publish however long the run. The program thread takes
    /// the state mutex for the owner record only when its stamp is stale
    /// or the record names another executor (a first delegation of the
    /// epoch, one after an `access`, a retracted set, an owner a nested
    /// submit recorded), and renews the stamp there (`Record`). A failed
    /// submit unwinds `pending` by exactly the number of tasks that will
    /// never execute (tasks already landed still run and settle their own
    /// share). With tracing on, one event is recorded per operation — in
    /// the program-order log for program origin, as a side event for
    /// nested — so the log of a run is indistinguishable from the
    /// equivalent single-op calls.
    fn submit_and_record(
        &self,
        origin: Origin,
        p: &Prepared,
        run: &mut [Option<TaskSlot>],
    ) -> SsResult<Executor> {
        let rt = &self.rt;
        let (n, ss) = (run.len(), p.ss);
        let executor = match rt.submit(origin, ss, run) {
            Ok(e) => e,
            Err((e, unsubmitted)) => {
                self.unwind(origin, unsubmitted);
                return Err(e);
            }
        };
        let record = &self.shared.record;
        match origin {
            Origin::Program if record.owned_by(p.serial, executor) => {}
            _ => {
                let _local = self.shared.local.lock();
                record.set_owner(Some(executor));
                if let Origin::Program = origin {
                    record.stamp.store(p.serial, Ordering::Relaxed);
                }
            }
        }
        let instance = Some(self.shared.instance);
        match origin {
            Origin::Program if rt.trace_enabled() => {
                let kind = if executor == Executor::Program {
                    TraceKind::InlineExecute
                } else {
                    TraceKind::Delegate
                };
                for _ in 0..n {
                    rt.trace_record(kind, instance, Some(ss), Some(executor));
                }
            }
            Origin::Program => {}
            Origin::Nested => {
                for _ in 0..n {
                    rt.record_side_event(TraceKind::NestedDelegate, instance, Some(ss), executor);
                }
            }
        }
        Ok(executor)
    }

    /// Takes back the `pending` raise of `n` operations that will never
    /// run (a submit that failed after `prepare`), on the half `origin`
    /// raised.
    fn unwind(&self, origin: Origin, n: usize) {
        match origin {
            Origin::Program => self.shared.pending.unwind_program(n as u32),
            Origin::Nested => {
                // `raised` is written under the state mutex only.
                let _local = self.shared.local.lock();
                self.shared.pending.unwind(n as u32);
            }
        }
    }

    /// Delegation, phase 2: packages `f` and its completion `sink` as the
    /// self-contained invocation closure shipped through the queues. The
    /// closure performs the unsafe receiver access, traps panics into the
    /// runtime poison flag, delivers the result and settles the object's
    /// `pending` count. Its order is load-bearing:
    ///
    /// * **Cancellation check first.** A future dropped before this pop
    ///   abandoned the result and, explicitly, the effects: the body is
    ///   skipped and only [`Stats::ops_cancelled`](crate::Stats::ops_cancelled)
    ///   and the settle counters move, so the drain accounting is exactly
    ///   that of an executed operation.
    /// * **Poison before close.** On the panic and poisoned-skip paths the
    ///   poison flag is set before the unsent sink drops (closing its slot
    ///   and waking the waiter), so a waiter that wakes on a closed slot
    ///   and consults the flag cannot miss the panic.
    /// * **Sink before settle.** The sink resolves or drops before
    ///   `pending` (and the caller-side queue counters) settle, so every
    ///   drain proof (`end_isolation`, reclaim quiesce) transitively
    ///   proves all futures of the epoch are resolved.
    ///
    /// The closure holds a pointer to the object and nothing of the
    /// runtime: the [`Core`](crate::runtime::Core) it counts and poisons
    /// against is lent by whoever runs it ([`ExecCx`]), and the object is
    /// kept alive by its handles and, once the last handle that raised it
    /// is gone, by its domain's kept list ([`ObjectPtr`]). So packaging
    /// touches no reference count, and the program thread and the
    /// delegate share none per operation.
    ///
    /// Returned as `Some` because a run slice is what consumes it.
    pub(crate) fn package<R, F, K>(&self, f: F, sink: K) -> Option<TaskSlot>
    where
        F: FnOnce(&mut T) -> R + Send + 'static,
        K: Sink<R>,
    {
        let object = ObjectPtr(NonNull::from(&*self.shared));
        let run = move |cx: &ExecCx<'_>| {
            // SAFETY: this operation settles last, below.
            let shared = unsafe { object.get() };
            let core = cx.core;
            let out = if sink.cancelled() {
                cx.stats.bump(|c| &c.ops_cancelled);
                None
            } else if core.poisoned.load(Ordering::Acquire) {
                None
            } else {
                let body = std::panic::AssertUnwindSafe(|| {
                    // SAFETY: executor exclusivity — see the module-level
                    // safety model. This closure runs on the single executor
                    // that owns this object's serialization set, serially
                    // with all other operations on the object.
                    f(unsafe { &mut *shared.value.get() })
                });
                match std::panic::catch_unwind(body) {
                    Ok(out) => Some(out),
                    Err(p) => {
                        core.poison(panic_message(p.as_ref()));
                        None
                    }
                }
            };
            match out {
                Some(out) => {
                    let object = Receiver {
                        instance: shared.instance,
                        record: &shared.record,
                        local: &shared.local,
                    };
                    sink.resolve(out, cx, object)
                }
                None => drop(sink),
            }
            shared.pending.settle();
        };
        Some(TaskSlot::with_awaited(run, K::AWAITED))
    }

    /// Packages a whole `delegate_iter` run of void operations.
    pub(crate) fn package_all<I, F>(&self, fs: I) -> Vec<Option<TaskSlot>>
    where
        I: IntoIterator<Item = F>,
        F: FnOnce(&mut T) + Send + 'static,
    {
        fs.into_iter().map(|f| self.package(f, Void)).collect()
    }

    // ------------------------------------------------------------------
    // program-context access

    /// Executes a read ("const method") in the program context
    /// (Table 1 `call`).
    ///
    /// * Aggregation epoch: always allowed.
    /// * Isolation epoch, object unused or read-only: allowed; first such use
    ///   marks the object read-only for the epoch.
    /// * Isolation epoch, object privately-writable: the program context
    ///   first *reclaims ownership* — a synchronization object flushes the
    ///   owning delegate's queue — then reads.
    pub fn call<R>(&self, f: impl FnOnce(&T) -> R) -> SsResult<R> {
        self.access(false, |v| f(v))
    }

    /// Executes a mutation ("non-const method") in the program context.
    ///
    /// * Aggregation epoch: always allowed.
    /// * Isolation epoch, object read-only this epoch: error
    ///   ([`SsError::StateConflict`]).
    /// * Isolation epoch, otherwise: reclaims ownership if needed, then
    ///   mutates; the object is privately-writable for the rest of the epoch.
    pub fn call_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> SsResult<R> {
        self.access(true, f)
    }

    fn access<R>(&self, mutate: bool, f: impl FnOnce(&mut T) -> R) -> SsResult<R> {
        let rt = &self.rt;
        rt.require_program_thread()?;
        let (in_iso, serial, inline) = rt.epoch_flags();
        if inline {
            return Err(SsError::WrongContext);
        }
        if rt.is_poisoned() {
            return Err(rt.inner.core.poison_error());
        }
        if !in_iso {
            // Aggregation epoch: "any method may be called" (Table 1); all
            // queues were drained at end_isolation.
            debug_assert_eq!(self.shared.pending.outstanding(), 0);
            // SAFETY: program context is the sole accessor in aggregation.
            return Ok(f(unsafe { &mut *self.shared.value.get() }));
        }
        // Phase 1 — the state machine, under the object mutex. Paths that
        // will not reclaim claim `accessing` atomically with their state
        // transition, so a racing nested delegation is either ordered
        // before this critical section (and changes what we see) or after
        // it (and is rejected by the flag / the state it left behind).
        let (owner, tag, mid_submit) = {
            let record = &self.shared.record;
            let mut local = self.shared.local.lock();
            local.refresh(serial, record);
            // The next program-thread delegation takes the locked path,
            // and nested ones trust a zero `pending` again.
            record.stamp.store(0, Ordering::Relaxed);
            match local.use_state {
                UseState::Unused => {
                    local.use_state = if mutate {
                        UseState::PrivateWritable
                    } else {
                        UseState::ReadShared
                    };
                    local.accessing = true;
                    (None, None, false)
                }
                UseState::ReadShared if mutate => {
                    return Err(SsError::StateConflict {
                        instance: self.shared.instance,
                        was_read_shared: true,
                    });
                }
                UseState::ReadShared => {
                    local.accessing = true;
                    (None, None, false)
                }
                UseState::PrivateWritable => match (record.owner(), record.tag(&local)) {
                    (Some(owner), tag) => (Some(owner), tag, false),
                    (None, Some(tag)) => {
                        // Tagged but owner-less: a nested delegation is
                        // mid-submit (the owner is recorded only after the
                        // queue publish), so an operation may already be
                        // queued or executing. The nested-epoch flag was
                        // raised under this mutex before the pending
                        // count, so the reclaim below can escalate
                        // straight to the full quiesce.
                        (None, Some(tag), true)
                    }
                    (None, None) => {
                        // Claimed by a program-context mutation: no
                        // delegated operation can exist (nested delegation
                        // rejects tag-less privately-writable objects).
                        local.accessing = true;
                        (None, None, false)
                    }
                },
            }
        };
        if owner.is_some() || mid_submit {
            // Phase 2 — ownership reclaim, then claim `accessing` under the
            // mutex. The loop exists for recursive delegation: a nested
            // producer may appear *between* our pending/flag check and the
            // claim (its flag-raise and our claim serialize on the object
            // mutex), in which case we escalate once to the full quiesce
            // and re-claim — after a quiesce nothing runs, so nothing can
            // appear again. The `mid_submit` entry (owner unknown) starts
            // escalated: the nested flag is set whenever a nested submit
            // is in flight, so `sync_owner` goes straight to its quiesce
            // branch and the fallback executor below is never consulted.
            // (The only tag-Some/owner-None state with the flag clear is
            // the husk of a failed submit on a dying runtime, where
            // `sync_owner` reports `Terminated` before any access.)
            let sync_target = owner.unwrap_or(Executor::Program);
            let mut escalated = mid_submit;
            let mut synced: Option<Executor> = None;
            // `pending` settles inside the operation's closure, but its audit
            // record lands after the closure returns: in an audited epoch
            // `pending == 0` does not yet prove the record the gate below
            // checks is in, so the reclaim always flushes the queue.
            let audited = rt.inner.core.auditing(rt.domain()).is_some();
            loop {
                if escalated || audited || self.shared.pending.outstanding() > 0 {
                    // With stealing enabled the set may have migrated since
                    // delegation, so the reclaim resolves the *current*
                    // owner from the router's sharded pin map — fence
                    // placement atomic with the resolution under the set's
                    // shard lock; the recorded owner is the fallback — and
                    // with nesting active it quiesces the whole runtime
                    // instead.
                    synced = Some(rt.sync_owner(sync_target, tag)?);
                }
                let mut local = self.shared.local.lock();
                if rt.nested_epoch_active() && !escalated {
                    escalated = true;
                    continue;
                }
                // Under the chaos `skip_reclaim_fence` weakening the
                // reclaim above is a lie, so operations may still be
                // pending here — the audit gate below is what catches it.
                #[cfg(not(feature = "chaos"))]
                debug_assert_eq!(self.shared.pending.outstanding(), 0);
                local.accessing = true;
                break;
            }
            if let Some(synced) = synced {
                rt.trace_record(
                    TraceKind::Reclaim,
                    Some(self.shared.instance),
                    None,
                    Some(synced),
                );
            }
            if rt.is_poisoned() {
                self.shared.local.lock().accessing = false;
                return Err(rt.inner.core.poison_error());
            }
            // Audit gate: the reclaim above claimed every delegated
            // operation on this set has executed; refuse the access (and
            // report the program-order edge it would cut) if the trace
            // disagrees. Runs *before* the closure touches the value, so
            // a weakened reclaim fails loudly instead of racing.
            if let Some(ss) = tag {
                let d = rt.domain();
                if let Some(report) = rt.inner.core.audit_access_gate(d, SsId(d.key(ss))) {
                    self.shared.local.lock().accessing = false;
                    return Err(SsError::SerializabilityViolation(report));
                }
            }
            // A mutating reclaim is about to change the value behind the
            // memoized results' backs: invalidate the set's entries
            // before the closure runs (conservative — entries die even
            // if the closure ends up not mutating the cached inputs).
            if mutate {
                if let Some(ss) = tag {
                    self.invalidate_memo(ss, Submitter::Program);
                }
            }
        }
        let _guard = AccessGuard(&self.shared.local);
        if rt.trace_enabled() {
            let kind = if mutate {
                TraceKind::CallMut
            } else {
                TraceKind::Call
            };
            rt.trace_record(kind, Some(self.shared.instance), None, None);
        }
        // SAFETY: read-shared (no writer can exist this epoch — the state
        // machine rejects delegation/mutation) or reclaimed/unused private
        // (pending == 0 with Acquire edge ⇒ delegate effects visible);
        // `accessing` rejects any delegation racing the closure below.
        Ok(f(unsafe { &mut *self.shared.value.get() }))
    }

    /// Consumes this handle and returns the value if it is the only handle,
    /// no work is outstanding, and no isolation epoch is open.
    pub fn try_unwrap(self) -> Result<T, Self> {
        if !self.rt.is_program_thread()
            || self.rt.in_isolation()
            || self.shared.pending.outstanding() != 0
        {
            return Err(self);
        }
        // Nothing is outstanding, so the handle's drop would keep nothing.
        let this = ManuallyDrop::new(self);
        // SAFETY: each field is moved out exactly once, and `this` is
        // neither used nor dropped again.
        let (shared, serializer, rt) = unsafe {
            (
                std::ptr::read(&this.shared),
                std::ptr::read(&this.serializer),
                std::ptr::read(&this.rt),
            )
        };
        match Arc::try_unwrap(shared) {
            Ok(shared) => Ok(shared.value.into_inner()),
            Err(shared) => Err(Writable {
                shared,
                serializer,
                rt,
            }),
        }
    }
}

/// Executes `method` on every object in `objects` via delegation — the
/// Table 1 `doall` embarrassingly-parallel helper.
///
/// ```
/// use ss_core::{doall, Runtime, SequenceSerializer, Writable};
/// let rt = Runtime::builder().delegate_threads(2).build().unwrap();
/// let cells: Vec<Writable<u64, SequenceSerializer>> =
///     (0..16).map(|_| Writable::new(&rt, 0)).collect();
/// rt.isolated(|| doall(&cells, |n| *n += 1).unwrap()).unwrap();
/// assert!(cells.iter().all(|c| c.call(|n| *n).unwrap() == 1));
/// ```
pub fn doall<T, S, F>(objects: &[Writable<T, S>], method: F) -> SsResult<()>
where
    T: Send + 'static,
    S: Serializer<T>,
    F: Fn(&mut T) + Send + Sync + 'static,
{
    let method = Arc::new(method);
    for obj in objects {
        let m = Arc::clone(&method);
        obj.delegate(move |t| m(t))?;
    }
    Ok(())
}

impl<T: Send + 'static, S: Serializer<T>> Writable<T, S> {
    fn cx(&self) -> SerializeCx {
        SerializeCx {
            address: self.shared.value.get() as usize,
            instance: self.shared.instance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serializer::{FnSerializer, NullSerializer, SequenceSerializer};

    fn rt(delegates: usize) -> Runtime {
        Runtime::builder()
            .delegate_threads(delegates)
            .build()
            .unwrap()
    }

    #[test]
    fn delegate_then_read_back() {
        let rt = rt(2);
        let w: Writable<u64> = Writable::new(&rt, 0);
        rt.begin_isolation().unwrap();
        for _ in 0..100 {
            w.delegate(|n| *n += 1).unwrap();
        }
        rt.end_isolation().unwrap();
        assert_eq!(w.call(|n| *n).unwrap(), 100);
    }

    #[test]
    fn call_during_isolation_reclaims_ownership() {
        let rt = rt(2);
        let w: Writable<Vec<u32>> = Writable::new(&rt, Vec::new());
        rt.begin_isolation().unwrap();
        for i in 0..50 {
            w.delegate(move |v| v.push(i)).unwrap();
        }
        // Dependent read mid-epoch: implicit ownership reclaim.
        let len = w.call(|v| v.len()).unwrap();
        assert_eq!(len, 50);
        // Re-delegation after reclaim (Figure 1, second epoch).
        w.delegate(|v| v.push(999)).unwrap();
        rt.end_isolation().unwrap();
        assert_eq!(w.call(|v| v.len()).unwrap(), 51);
    }

    #[test]
    fn read_then_delegate_same_epoch_conflicts() {
        let rt = rt(1);
        let w: Writable<u64> = Writable::new(&rt, 7);
        rt.begin_isolation().unwrap();
        assert_eq!(w.call(|n| *n).unwrap(), 7); // marks read-only this epoch
        let err = w.delegate(|n| *n += 1).unwrap_err();
        assert!(matches!(err, SsError::StateConflict { .. }));
        rt.end_isolation().unwrap();
        // Fresh epoch: usable as privately-writable again.
        rt.begin_isolation().unwrap();
        w.delegate(|n| *n += 1).unwrap();
        rt.end_isolation().unwrap();
        assert_eq!(w.call(|n| *n).unwrap(), 8);
    }

    #[test]
    fn call_mut_on_read_shared_conflicts() {
        let rt = rt(1);
        let w: Writable<u64> = Writable::new(&rt, 7);
        rt.begin_isolation().unwrap();
        w.call(|_| ()).unwrap();
        assert!(matches!(
            w.call_mut(|n| *n = 0),
            Err(SsError::StateConflict { .. })
        ));
        rt.end_isolation().unwrap();
    }

    #[test]
    fn call_mut_then_delegate_is_fine() {
        let rt = rt(1);
        let w: Writable<u64> = Writable::new(&rt, 0);
        rt.begin_isolation().unwrap();
        w.call_mut(|n| *n = 10).unwrap();
        w.delegate(|n| *n += 5).unwrap();
        rt.end_isolation().unwrap();
        assert_eq!(w.call(|n| *n).unwrap(), 15);
    }

    #[test]
    fn external_serializer_with_null_internal() {
        let rt = rt(2);
        let w: Writable<u64, NullSerializer> = Writable::new(&rt, 0);
        rt.begin_isolation().unwrap();
        // Implicit delegation has no serializer:
        assert_eq!(w.delegate(|n| *n += 1), Err(SsError::MissingSerializer));
        // External works:
        w.delegate_in(42u64, |n| *n += 1).unwrap();
        rt.end_isolation().unwrap();
        assert_eq!(w.call(|n| *n).unwrap(), 1);
    }

    #[test]
    fn inconsistent_external_serializer_detected() {
        let rt = rt(2);
        let w: Writable<u64, NullSerializer> = Writable::new(&rt, 0);
        rt.begin_isolation().unwrap();
        w.delegate_in(1u64, |n| *n += 1).unwrap();
        let err = w.delegate_in(2u64, |n| *n += 1).unwrap_err();
        assert!(matches!(err, SsError::InconsistentSerializer { .. }));
        rt.end_isolation().unwrap();
    }

    /// §3.3 from a delegate context: the first delegation tags the object
    /// with set 1 and moves the value its serializer keys on; once that
    /// operation has run (`pending == 0`), a nested re-delegation
    /// recomputes the internal serializer and reports the disagreement.
    #[test]
    fn inconsistent_internal_serializer_detected_on_nested_redelegation() {
        let rt = rt(2);
        let parent: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
        let w = Writable::with_serializer(&rt, 1u64, FnSerializer::new(|v: &u64| *v));
        rt.begin_isolation().unwrap();
        w.delegate(|n| *n = 2).unwrap();
        assert_eq!(w.call(|n| *n).unwrap(), 2);
        let (rt2, w2) = (rt.clone(), w.clone());
        let err = parent
            .delegate_with(move |_| rt2.delegate_scope(|cx| cx.delegate(&w2, |n| *n += 1)))
            .unwrap()
            .wait()
            .unwrap()
            .unwrap()
            .unwrap_err();
        assert_eq!(
            err,
            SsError::InconsistentSerializer {
                instance: w.instance(),
                tagged: SsId(1),
                got: SsId(2),
            }
        );
        rt.end_isolation().unwrap();
        assert_eq!(w.call(|n| *n).unwrap(), 2);
    }

    #[test]
    fn fn_serializer_groups_objects() {
        let rt = rt(2);
        struct Row {
            row: u64,
            hits: u64,
        }
        let mk = |row| {
            Writable::with_serializer(
                &rt,
                Row { row, hits: 0 },
                FnSerializer::new(|r: &Row| r.row),
            )
        };
        let a = mk(1);
        let b = mk(1); // same set as a
        let c = mk(2);
        rt.begin_isolation().unwrap();
        for w in [&a, &b, &c] {
            w.delegate(|r| r.hits += 1).unwrap();
        }
        rt.end_isolation().unwrap();
        assert_eq!(a.current_set().unwrap(), None); // aggregation: tag cleared view
        rt.begin_isolation().unwrap();
        a.delegate(|r| r.hits += 1).unwrap();
        b.delegate(|r| r.hits += 1).unwrap();
        assert_eq!(a.current_set().unwrap(), b.current_set().unwrap());
        rt.end_isolation().unwrap();
    }

    #[test]
    fn sequence_serializer_uses_instance_numbers() {
        let rt = rt(2);
        let a: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
        let b: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
        assert_ne!(a.instance(), b.instance());
        rt.begin_isolation().unwrap();
        a.delegate(|n| *n += 1).unwrap();
        b.delegate(|n| *n += 1).unwrap();
        assert_eq!(a.current_set().unwrap(), Some(SsId(a.instance())));
        assert_eq!(b.current_set().unwrap(), Some(SsId(b.instance())));
        rt.end_isolation().unwrap();
    }

    #[test]
    fn wrong_thread_operations_rejected() {
        let rt = rt(1);
        let w: Writable<u64> = Writable::new(&rt, 0);
        let w2 = w.clone();
        std::thread::spawn(move || {
            assert_eq!(w2.delegate(|n| *n += 1), Err(SsError::WrongContext));
            assert_eq!(w2.call(|n| *n), Err(SsError::WrongContext));
            assert_eq!(w2.call_mut(|n| *n = 1), Err(SsError::WrongContext));
        })
        .join()
        .unwrap();
        assert_eq!(w.call(|n| *n).unwrap(), 0);
    }

    #[test]
    fn panic_in_delegate_poisons_runtime() {
        let rt = rt(1);
        let w: Writable<u64> = Writable::new(&rt, 0);
        rt.begin_isolation().unwrap();
        w.delegate(|_| panic!("boom")).unwrap();
        let err = rt.end_isolation().unwrap_err();
        assert!(matches!(err, SsError::DelegatePanicked(ref m) if m.contains("boom")));
        assert!(rt.is_poisoned());
        // Everything afterwards reports the panic.
        assert!(matches!(w.call(|n| *n), Err(SsError::DelegatePanicked(_))));
        assert!(matches!(
            rt.begin_isolation(),
            Err(SsError::DelegatePanicked(_))
        ));
    }

    #[test]
    fn panic_skips_remaining_work_but_does_not_deadlock() {
        let rt = rt(1);
        let w: Writable<u64> = Writable::new(&rt, 0);
        rt.begin_isolation().unwrap();
        w.delegate(|_| panic!("first")).unwrap();
        for _ in 0..100 {
            // Some of these may be rejected once the poison flag is seen by
            // the program thread; both outcomes are fine as long as nothing
            // hangs.
            let _ = w.delegate(|n| *n += 1);
        }
        assert!(rt.end_isolation().is_err());
    }

    #[test]
    fn doall_covers_every_object() {
        let rt = rt(2);
        let objs: Vec<Writable<u64, SequenceSerializer>> =
            (0..32).map(|_| Writable::new(&rt, 0)).collect();
        rt.begin_isolation().unwrap();
        doall(&objs, |n| *n += 3).unwrap();
        rt.end_isolation().unwrap();
        for o in &objs {
            assert_eq!(o.call(|n| *n).unwrap(), 3);
        }
    }

    #[test]
    fn try_unwrap_rules() {
        let rt = rt(1);
        let w: Writable<String> = Writable::new(&rt, "x".into());
        let w2 = w.clone();
        let w = w.try_unwrap().unwrap_err(); // two handles
        drop(w2);
        rt.begin_isolation().unwrap();
        let w = w.try_unwrap().unwrap_err(); // isolation open
        rt.end_isolation().unwrap();
        assert_eq!(w.try_unwrap().unwrap(), "x");
    }

    #[test]
    fn zero_delegate_runtime_is_fully_inline_and_deterministic() {
        let rt = rt(0);
        let w: Writable<Vec<u32>> = Writable::new(&rt, Vec::new());
        rt.begin_isolation().unwrap();
        for i in 0..10 {
            w.delegate(move |v| v.push(i)).unwrap();
        }
        rt.end_isolation().unwrap();
        assert_eq!(w.call(|v| v.clone()).unwrap(), (0..10).collect::<Vec<_>>());
        assert_eq!(rt.stats().inline_executions, 10);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let mut outputs = Vec::new();
        for delegates in [0, 1, 2, 3] {
            let rt = rt(delegates);
            let objs: Vec<Writable<Vec<u64>, SequenceSerializer>> =
                (0..8).map(|_| Writable::new(&rt, Vec::new())).collect();
            rt.begin_isolation().unwrap();
            for i in 0..500u64 {
                objs[(i % 8) as usize]
                    .delegate(move |v| v.push(i * i))
                    .unwrap();
            }
            rt.end_isolation().unwrap();
            let snapshot: Vec<Vec<u64>> = objs
                .iter()
                .map(|o| o.call(|v| v.clone()).unwrap())
                .collect();
            outputs.push(snapshot);
        }
        for w in outputs.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }

    // ------------------------------------------------------------------
    // one state machine behind all sixteen entry points

    /// The eight `delegate*` forms; each exists on [`Writable`] (program
    /// thread) and on [`DelegateContext`] (delegate context).
    #[derive(Debug, Clone, Copy)]
    enum Form {
        Delegate,
        DelegateIn,
        Iter,
        IterIn,
        With,
        InWith,
        Memo,
        InMemo,
    }
    const ALL: [Form; 8] = [
        Form::Delegate,
        Form::DelegateIn,
        Form::Iter,
        Form::IterIn,
        Form::With,
        Form::InWith,
        Form::Memo,
        Form::InMemo,
    ];
    /// The forms that consult the internal serializer.
    const INTERNAL: [Form; 4] = [Form::Delegate, Form::Iter, Form::With, Form::Memo];

    /// A rejected call: the form, its error, and the object's `pending`
    /// count right after.
    type Rejected = (Form, Option<SsError>, u32);

    /// Calls one entry point — `cx` picks the `DelegateContext` method
    /// over the `Writable` one, `ss` is what the `_in` forms pass.
    fn enter<S: Serializer<u64>>(
        form: Form,
        cx: Option<&DelegateContext<'_>>,
        w: &Writable<u64, S>,
        ss: u64,
    ) -> Rejected {
        let op = |n: &mut u64| *n += 1;
        let get = |n: &mut u64| *n;
        let err = match (cx, form) {
            (None, Form::Delegate) => w.delegate(op).err(),
            (None, Form::DelegateIn) => w.delegate_in(ss, op).err(),
            (None, Form::Iter) => w.delegate_iter([op]).err(),
            (None, Form::IterIn) => w.delegate_iter_in(ss, [op]).err(),
            (None, Form::With) => w.delegate_with(get).err(),
            (None, Form::InWith) => w.delegate_in_with(ss, get).err(),
            (None, Form::Memo) => w.delegate_memo(7, get).err(),
            (None, Form::InMemo) => w.delegate_in_memo(ss, 7, get).err(),
            (Some(cx), Form::Delegate) => cx.delegate(w, op).err(),
            (Some(cx), Form::DelegateIn) => cx.delegate_in(w, ss, op).err(),
            (Some(cx), Form::Iter) => cx.delegate_iter(w, [op]).err(),
            (Some(cx), Form::IterIn) => cx.delegate_iter_in(w, ss, [op]).err(),
            (Some(cx), Form::With) => cx.delegate_with(w, get).err(),
            (Some(cx), Form::InWith) => cx.delegate_in_with(w, ss, get).err(),
            (Some(cx), Form::Memo) => cx.delegate_memo(w, 7, get).err(),
            (Some(cx), Form::InMemo) => cx.delegate_in_memo(w, ss, 7, get).err(),
        };
        (form, err, w.pending_operations())
    }

    /// `forms` from the calling (program) thread.
    fn from_program<S: Serializer<u64>>(
        forms: &[Form],
        w: &Writable<u64, S>,
        ss: u64,
    ) -> Vec<Rejected> {
        forms.iter().map(|&f| enter(f, None, w, ss)).collect()
    }

    /// `forms` from a delegate context: a parent operation on `parent`
    /// (an object of `prt`, which must be isolating) runs `pre`, then
    /// makes the calls.
    fn from_delegate<S: Serializer<u64>>(
        forms: &'static [Form],
        prt: &Runtime,
        parent: &Writable<u64>,
        w: &Writable<u64, S>,
        ss: u64,
        pre: impl FnOnce() + Send + 'static,
    ) -> Vec<Rejected> {
        let (tx, rx) = std::sync::mpsc::channel();
        let (prt2, w2) = (prt.clone(), w.clone());
        parent
            .delegate(move |_| {
                pre();
                let calls = |cx: &DelegateContext<'_>| -> Vec<Rejected> {
                    forms.iter().map(|&f| enter(f, Some(cx), &w2, ss)).collect()
                };
                tx.send(prt2.delegate_scope(calls).unwrap()).unwrap();
            })
            .unwrap();
        rx.recv().expect("the parent operation ran")
    }

    /// Every call was rejected with the expected error, raised nothing,
    /// and left the object's tag where it was.
    fn assert_rejected<S: Serializer<u64>>(
        what: &str,
        w: &Writable<u64, S>,
        set: Option<SsId>,
        calls: &[Rejected],
        expect: fn(&SsError) -> bool,
    ) {
        assert!(!calls.is_empty());
        for (form, err, pending) in calls {
            let err = err
                .as_ref()
                .unwrap_or_else(|| panic!("{what}: {form:?} was accepted"));
            assert!(expect(err), "{what}: {form:?} returned {err:?}");
            assert_eq!(*pending, 0, "{what}: {form:?} left operations pending");
        }
        assert_eq!(w.current_set().unwrap(), set, "{what}: the tag moved");
    }

    fn memo_rt() -> Runtime {
        Runtime::builder()
            .delegate_threads(2)
            .memo_capacity(64)
            .build()
            .unwrap()
    }

    /// All sixteen public entry points run the one `prepare`: in each
    /// rejecting state every one of them returns the same error and
    /// commits nothing.
    #[test]
    fn every_entry_point_rejects_alike_and_commits_nothing() {
        type Obj = Writable<u64, SequenceSerializer>;

        // Read-shared this epoch.
        {
            let rt = memo_rt();
            let (parent, w): (Writable<u64>, Obj) = (Writable::new(&rt, 0), Writable::new(&rt, 0));
            let expect = |e: &SsError| matches!(e, SsError::StateConflict { .. });
            rt.begin_isolation().unwrap();
            w.call(|_| ()).unwrap();
            assert_rejected("read-shared", &w, None, &from_program(&ALL, &w, 9), expect);
            let nested = from_delegate(&ALL, &rt, &parent, &w, 9, || ());
            assert_rejected("read-shared, nested", &w, None, &nested, expect);
            rt.end_isolation().unwrap();
        }

        // A program-context access closure is live.
        {
            let rt = memo_rt();
            let (parent, w): (Writable<u64>, Obj) = (Writable::new(&rt, 0), Writable::new(&rt, 0));
            let expect = |e: &SsError| matches!(e, SsError::AccessInProgress { .. });
            rt.begin_isolation().unwrap();
            w.call_mut(|_| {
                assert_rejected("accessing", &w, None, &from_program(&ALL, &w, 9), expect);
                let nested = from_delegate(&ALL, &rt, &parent, &w, 9, || ());
                assert_rejected("accessing, nested", &w, None, &nested, expect);
            })
            .unwrap();
            rt.end_isolation().unwrap();
        }

        // The serializers disagree with the epoch's tag: the object was
        // tagged with set 1 by an operation that moved the value its
        // internal serializer keys on to 2, and the `_in` forms pass 3.
        {
            let rt = memo_rt();
            let parent: Writable<u64> = Writable::new(&rt, 0);
            let w = Writable::with_serializer(&rt, 1u64, FnSerializer::new(|v: &u64| *v));
            let expect = |e: &SsError| matches!(e, SsError::InconsistentSerializer { tagged, .. } if *tagged == SsId(1));
            rt.begin_isolation().unwrap();
            w.delegate(|n| *n = 2).unwrap();
            assert_eq!(w.call(|n| *n).unwrap(), 2);
            let tag = Some(SsId(1));
            assert_rejected("set ≠ tag", &w, tag, &from_program(&ALL, &w, 3), expect);
            let nested = from_delegate(&ALL, &rt, &parent, &w, 3, || ());
            assert_rejected("set ≠ tag, nested", &w, tag, &nested, expect);
            rt.end_isolation().unwrap();
        }

        // `NullSerializer` and no external set (the `_in` forms supply
        // one, so only the internal forms apply).
        {
            let rt = memo_rt();
            let parent: Writable<u64> = Writable::new(&rt, 0);
            let w: Writable<u64, NullSerializer> = Writable::new(&rt, 0);
            let expect = |e: &SsError| matches!(e, SsError::MissingSerializer);
            rt.begin_isolation().unwrap();
            assert_rejected("null", &w, None, &from_program(&INTERNAL, &w, 9), expect);
            let nested = from_delegate(&INTERNAL, &rt, &parent, &w, 9, || ());
            assert_rejected("null, nested", &w, None, &nested, expect);
            rt.end_isolation().unwrap();
        }

        // Poisoned runtime. A poisoned pool skips operation bodies, so the
        // parent operation poisons the runtime itself, mid-body.
        {
            let rt = memo_rt();
            let (parent, w): (Writable<u64>, Obj) = (Writable::new(&rt, 0), Writable::new(&rt, 0));
            let expect = |e: &SsError| matches!(e, SsError::DelegatePanicked(_));
            rt.begin_isolation().unwrap();
            let core = Arc::clone(&rt.inner.core);
            let nested = from_delegate(&ALL, &rt, &parent, &w, 9, move || {
                core.poison("table".into())
            });
            assert_rejected("poisoned, nested", &w, None, &nested, expect);
            assert_rejected("poisoned", &w, None, &from_program(&ALL, &w, 9), expect);
            assert!(rt.end_isolation().is_err());
        }

        // The wrong place to delegate from: outside isolation for the
        // program thread, another runtime's context for a delegate.
        {
            let (rt, other) = (memo_rt(), memo_rt());
            let parent: Writable<u64> = Writable::new(&other, 0);
            let w: Obj = Writable::new(&rt, 0);
            let outside = from_program(&ALL, &w, 9);
            assert_rejected("aggregation", &w, None, &outside, |e| {
                *e == SsError::NotInIsolation
            });
            other.begin_isolation().unwrap();
            let nested = from_delegate(&ALL, &other, &parent, &w, 9, || ());
            assert_rejected("foreign context", &w, None, &nested, |e| {
                *e == SsError::WrongContext
            });
            other.end_isolation().unwrap();
        }
    }
}
