//! Invocation objects — the unit of work shipped through the communication
//! queues (§4).
//!
//! Prometheus instantiates a typed *invocation object* per delegated call
//! (holding the object pointer, method pointer, arguments and serialization
//! set) — a monomorphized capture struct per call site, not a heap cell. The
//! Rust analogue is [`TaskSlot`]: the compiler still monomorphizes a capture
//! struct per delegation site (so argument type errors stay compile-time,
//! exactly like the C++ template instantiation the paper describes), but the
//! capture is stored *by value* in a fixed inline buffer whenever it fits.
//! Only oversized captures fall back to a heap `Box`, so the steady-state
//! delegation hot path performs no allocation per operation.
//! `Stats::{tasks_inline,tasks_boxed}` report the split.
//!
//! Besides ordinary executions, the runtime uses two *special* invocation
//! kinds, mirroring §4:
//!
//! * **synchronization objects** — sent by the program thread to reclaim
//!   ownership of a data domain (or, at `end_isolation`, of all domains).
//!   Because the queues are FIFO, when the delegate reaches the token every
//!   earlier operation on that queue has completed.
//! * **termination objects** — sent by `terminate` to shut delegate threads
//!   down after draining their queues.

use core::mem::{self, MaybeUninit};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ss_queue::slab::SlotSender;

use crate::runtime::{Core, Domain, Event};
use crate::serializer::SsId;
use crate::stats::Counters;
use crate::trace::TraceExecutor;

/// What the executing context lends a packaged operation for the duration
/// of its run: the runtime's shared [`Core`] and the executor's identity.
/// The record *borrows* these instead of owning an `Arc<Core>` — whoever
/// runs a record (a delegate loop, the help-first loop, the program
/// thread's inline path) already holds the core, and a record that is
/// dropped unrun needs none of it.
pub(crate) struct ExecCx<'a> {
    pub(crate) core: &'a Core,
    /// Who is executing (what a `FutureResolve` trace event reports).
    pub(crate) executor: TraceExecutor,
    /// The executing thread's counter block.
    pub(crate) stats: &'a Counters,
}

/// Words in the [`TaskSlot`] inline buffer. Three words fit the common
/// packaged shapes — the object's `Arc` plus a two-word user capture for a
/// void operation, or plus a completion-slot sender and a one-word user
/// capture for a future-returning one, memoized or not.
const TASK_INLINE_WORDS: usize = 3;
/// Byte capacity of the inline buffer.
const TASK_INLINE_BYTES: usize = TASK_INLINE_WORDS * mem::size_of::<usize>();

// The layout the ring depends on: a record is the inline buffer plus one
// vtable pointer, an invocation niche-packs to 56 bytes — so its SPSC ring
// slot (payload + `full` flag, `ss_queue::spsc`) is exactly one 64-byte
// cache line — and a future's sender is one word, which is what lets a
// `delegate_with` record ride inline. A field added to any of them fails
// the build here instead of silently straddling lines again.
const _: () = assert!(mem::size_of::<TaskSlot>() == 32);
const _: () = assert!(mem::size_of::<Invocation>() <= 56);
const _: () = assert!(mem::size_of::<SlotSender<u64, Event>>() == mem::size_of::<usize>());

/// How to run or drop the capture a [`TaskSlot`] holds; one static
/// instance per capture type.
struct TaskVTable {
    /// Reads the capture out of the buffer and invokes it.
    call: unsafe fn(*mut u8, &ExecCx<'_>),
    /// Drops the capture in place without invoking it.
    drop: unsafe fn(*mut u8),
    /// Whether the capture is stored inline (false: boxed fallback).
    inline: bool,
    /// Whether a future awaits the operation's result (a slipping
    /// delegate pops such an entry at once).
    awaited: bool,
}

type BoxedTask = Box<dyn FnOnce(&ExecCx<'_>) + Send>;

/// # Safety
/// `p` must point at an initialized `F` written by [`TaskSlot::new`]; the
/// capture is moved out, so the caller must not touch it again.
unsafe fn call_inline<F: FnOnce(&ExecCx<'_>)>(p: *mut u8, cx: &ExecCx<'_>) {
    // SAFETY: per the contract above.
    (unsafe { (p as *mut F).read() })(cx);
}

/// # Safety
/// As [`call_inline`], but the capture is dropped, not run.
unsafe fn drop_inline<F>(p: *mut u8) {
    // SAFETY: per the contract above.
    unsafe { (p as *mut F).drop_in_place() }
}

/// # Safety
/// `p` must point at an initialized [`BoxedTask`] written by
/// [`TaskSlot::new`]; the box is moved out.
unsafe fn call_boxed(p: *mut u8, cx: &ExecCx<'_>) {
    // SAFETY: per the contract above.
    (unsafe { (p as *mut BoxedTask).read() })(cx);
}

/// # Safety
/// As [`call_boxed`], but the box is dropped, not run.
unsafe fn drop_boxed(p: *mut u8) {
    // SAFETY: per the contract above.
    unsafe { (p as *mut BoxedTask).drop_in_place() }
}

/// Carrier for the vtable of an inline capture of type `F`.
struct InlineTask<F>(PhantomData<F>);

impl<F: FnOnce(&ExecCx<'_>)> InlineTask<F> {
    const VTABLE: TaskVTable = TaskVTable {
        call: call_inline::<F>,
        drop: drop_inline::<F>,
        inline: true,
        awaited: false,
    };
    const AWAITED_VTABLE: TaskVTable = TaskVTable {
        awaited: true,
        ..Self::VTABLE
    };
}

const fn boxed_vtable(awaited: bool) -> TaskVTable {
    TaskVTable {
        call: call_boxed,
        drop: drop_boxed,
        inline: false,
        awaited,
    }
}

/// The boxed fallback's vtables, indexed by `awaited`.
static BOXED_VTABLES: [TaskVTable; 2] = [boxed_vtable(false), boxed_vtable(true)];

/// A packaged delegated operation: a fixed 3-word buffer that stores small
/// closures by value and falls back to boxing only for large captures,
/// plus one pointer to the static vtable that knows the capture's type.
///
/// The slot is the paper's invocation object with the C++ layout discipline
/// restored: a per-call-site monomorphized capture lives directly in the
/// queue slot. The boxed fallback stores the `Box<dyn FnOnce>` fat pointer
/// *in* the same buffer, so consumers are non-generic either way. The
/// operation takes its execution context ([`ExecCx`]) as an argument, so
/// the capture holds nothing the executor already has.
pub(crate) struct TaskSlot {
    /// Inline storage for the capture (or for the fallback `Box`'s fat
    /// pointer). `usize`-aligned; captures needing stricter alignment take
    /// the boxed path.
    data: MaybeUninit<[usize; TASK_INLINE_WORDS]>,
    vtable: &'static TaskVTable,
}

// SAFETY: construction requires `F: Send` (or boxes into `dyn FnOnce +
// Send`), and the slot owns the capture exclusively.
unsafe impl Send for TaskSlot {}

impl TaskSlot {
    /// Packages `f`, an operation no future awaits.
    #[cfg(test)]
    pub(crate) fn new<F: FnOnce(&ExecCx<'_>) + Send + 'static>(f: F) -> Self {
        Self::with_awaited(f, false)
    }

    /// Packages `f`, storing it inline when it fits the buffer and is no
    /// more aligned than a word; otherwise boxes it. `awaited`: a future
    /// waits on its result.
    pub(crate) fn with_awaited<F: FnOnce(&ExecCx<'_>) + Send + 'static>(
        f: F,
        awaited: bool,
    ) -> Self {
        let mut data = MaybeUninit::<[usize; TASK_INLINE_WORDS]>::uninit();
        if mem::size_of::<F>() <= TASK_INLINE_BYTES
            && mem::align_of::<F>() <= mem::align_of::<usize>()
        {
            // SAFETY: size/alignment checked above; the buffer is exclusively
            // ours.
            unsafe { (data.as_mut_ptr() as *mut F).write(f) };
            TaskSlot {
                data,
                vtable: if awaited {
                    &InlineTask::<F>::AWAITED_VTABLE
                } else {
                    &InlineTask::<F>::VTABLE
                },
            }
        } else {
            let boxed: BoxedTask = Box::new(f);
            // SAFETY: a `Box<dyn ...>` fat pointer is two words, within the
            // buffer, at word alignment.
            unsafe { (data.as_mut_ptr() as *mut BoxedTask).write(boxed) };
            TaskSlot {
                data,
                vtable: &BOXED_VTABLES[awaited as usize],
            }
        }
    }

    /// Whether the capture is stored inline (feeds `Stats::tasks_inline` /
    /// `tasks_boxed`).
    pub(crate) fn is_inline(&self) -> bool {
        self.vtable.inline
    }

    /// Runs the packaged operation in `cx`, consuming the slot.
    pub(crate) fn run(mut self, cx: &ExecCx<'_>) {
        let call = self.vtable.call;
        let p = self.data.as_mut_ptr() as *mut u8;
        // SAFETY: the capture is initialized (only `run`/`Drop` consume it,
        // each at most once); `call` moves it out, so forget the slot to
        // keep `Drop` from double-dropping it.
        unsafe { call(p, cx) };
        mem::forget(self);
    }
}

impl Drop for TaskSlot {
    fn drop(&mut self) {
        // Reached only for slots never run (queue teardown after
        // termination); `run` forgets the slot before this could fire.
        // SAFETY: the capture is still initialized and dropped exactly once.
        unsafe { (self.vtable.drop)(self.data.as_mut_ptr() as *mut u8) }
    }
}

/// One message on a program→delegate communication queue.
pub(crate) enum Invocation {
    /// Execute a delegated operation. The packaged task is self-contained:
    /// it performs the unsafe receiver access, decrements the object's
    /// pending count, and traps panics into the runtime poison flag.
    Execute {
        /// The packaged operation.
        task: TaskSlot,
        /// Serialization set, kept for diagnostics/tracing.
        ss: SsId,
        /// Serializability-audit tag (token + producer) drawn at submit,
        /// or 0 when the epoch is not being audited.
        audit: u64,
        /// The owning domain of a session operation; `None` for the root's
        /// (the executor then settles against `Core::root`, and the
        /// submit path clones no `Arc`). The executing delegate records
        /// the audit entry and settles the drain counter of *this* domain,
        /// which is what keeps one tenant's epoch barrier from observing
        /// another tenant's operations.
        session: Option<Arc<Domain>>,
    },
    /// Synchronization or termination object: signal the token, and — for
    /// a termination object — exit the delegate loop. One variant, so the
    /// enum's tag hides in the vtable pointer's niche.
    Token {
        token: Arc<SyncToken>,
        terminate: bool,
    },
}

impl Invocation {
    /// Whether someone waits on this entry: a future on an operation's
    /// result, a program thread on a token.
    pub(crate) fn awaited(&self) -> bool {
        match self {
            Invocation::Execute { task, .. } => task.vtable.awaited,
            Invocation::Token { .. } => true,
        }
    }

    /// A synchronization object signalling `token`.
    pub(crate) fn sync(token: &Arc<SyncToken>) -> Self {
        Invocation::Token {
            token: Arc::clone(token),
            terminate: false,
        }
    }
}

impl std::fmt::Debug for Invocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Invocation::Execute { ss, .. } => f.debug_struct("Execute").field("ss", ss).finish(),
            Invocation::Token {
                terminate: false, ..
            } => f.write_str("Sync"),
            Invocation::Token {
                terminate: true, ..
            } => f.write_str("Terminate"),
        }
    }
}

/// A one-shot completion flag the program thread can block on: its
/// `done` flag is part of the predicate of the waiter's [`Event`], and
/// `signal` notifies it — the waiter spins and yields while delegation
/// queues drain in microseconds, and parks if they do not. The root
/// program thread's tokens share its domain's waiter, the one event all of
/// its waits park on (so a push to `Lane::Program` wakes a token wait
/// too). Reusable: the root program thread keeps one per delegate and
/// [`rearm`](SyncToken::rearm)s it before each push, and a previous use's
/// `unpark`, should it land late, is one more spurious wake-up the event
/// re-checks past.
///
/// Aligned to a cache-line pair of its own: the flag is written by both
/// threads once per epoch and spun on by the waiter, and as a heap object
/// of a few words it would otherwise share its line with whatever the
/// allocator placed next to it (measured: `epoch-churn` at 1.2 or 2.2 M
/// ops/s from run to run, by the luck of that neighbour).
#[repr(align(128))]
pub(crate) struct SyncToken {
    done: AtomicBool,
    waiter: Arc<Event>,
}

impl SyncToken {
    /// A pending token nobody waits on: termination objects, whose
    /// senders join the delegate threads instead.
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(SyncToken {
            done: AtomicBool::new(false),
            waiter: Arc::default(),
        })
    }

    /// A token for [`rearm`](SyncToken::rearm)-and-reuse, whose signal
    /// notifies `waiter`; born signalled: nobody waits on it until its
    /// first `rearm`.
    pub(crate) fn rearmable(waiter: Arc<Event>) -> Arc<Self> {
        Arc::new(SyncToken {
            done: AtomicBool::new(true),
            waiter,
        })
    }

    /// A [`rearmable`](SyncToken::rearmable) token outside any scripted
    /// schedule.
    #[cfg(test)]
    pub(crate) fn idle() -> Arc<Self> {
        Self::rearmable(Arc::default())
    }

    /// Readies a token whose previous `wait` has returned for another
    /// round trip. Called by the waiter before it pushes the token; the
    /// push's Release publishes the store to the signalling delegate.
    pub(crate) fn rearm(&self) {
        self.done.store(false, Ordering::Relaxed);
    }

    /// Marks the token complete and wakes the waiter.
    pub(crate) fn signal(&self) {
        self.done.store(true, Ordering::Release);
        self.waiter.notify();
    }

    /// Blocks until `signal` is called. One waiter at a time.
    #[cfg(test)]
    pub(crate) fn wait(&self) {
        self.waiter.wait_until(|| self.is_done());
    }

    /// Whether `signal` has been called since the last `rearm`.
    pub(crate) fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_signals_across_threads() {
        let token = SyncToken::new();
        assert!(!token.is_done());
        let t2 = Arc::clone(&token);
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(10));
                t2.signal();
            });
            token.wait();
        });
        assert!(token.is_done());
    }

    #[test]
    fn a_reusable_token_is_undone_from_rearm_to_signal() {
        let token = SyncToken::idle();
        assert!(token.is_done());
        token.wait(); // born signalled: must not block
        token.rearm();
        assert!(!token.is_done());
        token.signal();
        assert!(token.is_done());
        token.wait();
    }

    #[test]
    fn wait_returns_immediately_if_signalled() {
        let token = SyncToken::new();
        token.signal();
        token.wait(); // must not block
    }

    #[test]
    fn invocation_debug_format() {
        let inv = Invocation::Execute {
            task: TaskSlot::new(|_| {}),
            ss: SsId(3),
            audit: 0,
            session: None,
        };
        assert!(format!("{inv:?}").contains("SsId(3)"));
        let token = SyncToken::new();
        assert_eq!(format!("{:?}", Invocation::sync(&token)), "Sync");
        let terminate = Invocation::Token {
            token,
            terminate: true,
        };
        assert_eq!(format!("{terminate:?}"), "Terminate");
    }

    #[test]
    fn rearmed_token_makes_a_second_round_trip() {
        let token = SyncToken::new();
        for _ in 0..2 {
            token.rearm();
            assert!(!token.is_done());
            let t2 = Arc::clone(&token);
            std::thread::scope(|s| {
                s.spawn(move || t2.signal());
                token.wait();
            });
            assert!(token.is_done());
        }
    }

    /// An execution context for running slots outside a runtime.
    fn with_cx(f: impl FnOnce(&ExecCx<'_>)) {
        let rt = crate::Runtime::builder()
            .delegate_threads(0)
            .build()
            .unwrap();
        f(&ExecCx {
            core: &rt.inner.core,
            executor: TraceExecutor::Program,
            stats: rt.program_stats(),
        });
    }

    #[test]
    fn small_capture_is_stored_inline_and_runs() {
        let hit = Arc::new(AtomicBool::new(false));
        let h = Arc::clone(&hit);
        let slot = TaskSlot::new(move |_| h.store(true, Ordering::Relaxed));
        assert!(slot.is_inline());
        with_cx(|cx| slot.run(cx));
        assert!(hit.load(Ordering::Relaxed));
    }

    #[test]
    fn large_capture_falls_back_to_boxing() {
        let sink = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let s = Arc::clone(&sink);
        let payload = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let slot = TaskSlot::new(move |_| {
            s.store(payload.iter().sum(), Ordering::Relaxed);
        });
        assert!(!slot.is_inline());
        with_cx(|cx| slot.run(cx));
        assert_eq!(sink.load(Ordering::Relaxed), 36);
    }

    #[test]
    fn dropped_slot_drops_capture_without_running() {
        struct Probe(Arc<AtomicBool>, Arc<AtomicBool>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.1.store(true, Ordering::Relaxed);
            }
        }
        for force_boxed in [false, true] {
            let ran = Arc::new(AtomicBool::new(false));
            let dropped = Arc::new(AtomicBool::new(false));
            let probe = Probe(Arc::clone(&ran), Arc::clone(&dropped));
            let slot = if force_boxed {
                let pad = [0u64; 8];
                TaskSlot::new(move |_| {
                    probe.0.store(pad[0] == 0, Ordering::Relaxed);
                })
            } else {
                TaskSlot::new(move |_| probe.0.store(true, Ordering::Relaxed))
            };
            assert_eq!(slot.is_inline(), !force_boxed);
            drop(slot);
            assert!(!ran.load(Ordering::Relaxed));
            assert!(dropped.load(Ordering::Relaxed));
        }
    }
}
