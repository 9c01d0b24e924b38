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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::Thread;

use crate::runtime::Domain;
use crate::serializer::SsId;

/// Words in the [`TaskSlot`] inline buffer. Three words fit the common
/// packaged shape — two `Arc`s (object + runtime core) plus a small user
/// capture — while keeping an `Invocation` within a cache line in the
/// SPSC ring slots.
const TASK_INLINE_WORDS: usize = 3;
/// Byte capacity of the inline buffer.
const TASK_INLINE_BYTES: usize = TASK_INLINE_WORDS * mem::size_of::<usize>();

/// A packaged delegated operation: a fixed ~3-word buffer that stores small
/// closures by value and falls back to boxing only for large captures.
///
/// The slot is the paper's invocation object with the C++ layout discipline
/// restored: a per-call-site monomorphized capture lives directly in the
/// queue slot. The boxed fallback stores the `Box<dyn FnOnce() + Send>` fat
/// pointer *in* the same buffer, so consumers are non-generic either way —
/// one `call` function pointer runs the operation, one `drop` function
/// pointer handles slots that are dropped without running (queue teardown).
pub(crate) struct TaskSlot {
    /// Inline storage for the capture (or for the fallback `Box`'s fat
    /// pointer). `usize`-aligned; captures needing stricter alignment take
    /// the boxed path.
    data: MaybeUninit<[usize; TASK_INLINE_WORDS]>,
    /// Reads the capture out of `data` and invokes it (consuming the slot).
    call: unsafe fn(*mut u8),
    /// Drops the capture in place without invoking it.
    drop_fn: unsafe fn(*mut u8),
    /// Whether the capture is stored inline (false: boxed fallback).
    inline: bool,
}

// SAFETY: construction requires `F: Send` (or boxes into `dyn FnOnce() +
// Send`), and the slot owns the capture exclusively.
unsafe impl Send for TaskSlot {}

impl TaskSlot {
    /// Packages `f`, storing it inline when it fits the buffer and is no
    /// more aligned than a word; otherwise boxes it.
    pub(crate) fn new<F: FnOnce() + Send + 'static>(f: F) -> Self {
        if mem::size_of::<F>() <= TASK_INLINE_BYTES
            && mem::align_of::<F>() <= mem::align_of::<usize>()
        {
            unsafe fn call_inline<F: FnOnce()>(p: *mut u8) {
                // SAFETY: `p` points at a valid, initialized `F` written by
                // `new`; `read` moves it out and the caller forgets the slot.
                (unsafe { (p as *mut F).read() })();
            }
            unsafe fn drop_inline<F>(p: *mut u8) {
                // SAFETY: as above, but the capture is dropped, not run.
                unsafe { (p as *mut F).drop_in_place() }
            }
            let mut data = MaybeUninit::<[usize; TASK_INLINE_WORDS]>::uninit();
            // SAFETY: size/alignment checked above; the buffer is exclusively
            // ours.
            unsafe { (data.as_mut_ptr() as *mut F).write(f) };
            TaskSlot {
                data,
                call: call_inline::<F>,
                drop_fn: drop_inline::<F>,
                inline: true,
            }
        } else {
            type Boxed = Box<dyn FnOnce() + Send>;
            unsafe fn call_boxed(p: *mut u8) {
                // SAFETY: `p` holds a valid `Boxed` written by `new`.
                (unsafe { (p as *mut Boxed).read() })();
            }
            unsafe fn drop_boxed(p: *mut u8) {
                // SAFETY: as above.
                unsafe { (p as *mut Boxed).drop_in_place() }
            }
            let boxed: Boxed = Box::new(f);
            let mut data = MaybeUninit::<[usize; TASK_INLINE_WORDS]>::uninit();
            // SAFETY: a `Box<dyn ...>` fat pointer is two words, within the
            // buffer, at word alignment.
            unsafe { (data.as_mut_ptr() as *mut Boxed).write(boxed) };
            TaskSlot {
                data,
                call: call_boxed,
                drop_fn: drop_boxed,
                inline: false,
            }
        }
    }

    /// Whether the capture is stored inline (feeds `Stats::tasks_inline` /
    /// `tasks_boxed`).
    pub(crate) fn is_inline(&self) -> bool {
        self.inline
    }

    /// Runs the packaged operation, consuming the slot.
    pub(crate) fn run(mut self) {
        let call = self.call;
        let p = self.data.as_mut_ptr() as *mut u8;
        // SAFETY: the capture is initialized (only `run`/`Drop` consume it,
        // each at most once); `call` moves it out, so forget the slot to
        // keep `Drop` from double-dropping it.
        unsafe { call(p) };
        mem::forget(self);
    }
}

impl Drop for TaskSlot {
    fn drop(&mut self) {
        // Reached only for slots never run (queue teardown after
        // termination); `run` forgets the slot before this could fire.
        // SAFETY: the capture is still initialized and dropped exactly once.
        unsafe { (self.drop_fn)(self.data.as_mut_ptr() as *mut u8) }
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
    /// Synchronization object: signal the token and continue.
    Sync(Arc<SyncToken>),
    /// Termination object: signal and exit the delegate loop.
    Terminate(Arc<SyncToken>),
}

impl std::fmt::Debug for Invocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Invocation::Execute { ss, .. } => f.debug_struct("Execute").field("ss", ss).finish(),
            Invocation::Sync(_) => f.write_str("Sync"),
            Invocation::Terminate(_) => f.write_str("Terminate"),
        }
    }
}

/// A one-shot completion flag the program thread can block on.
///
/// The program thread spins briefly (delegation queues drain in microseconds
/// when the system is healthy) and then parks; the delegate unparks it on
/// signal. Parking tolerates spurious wakeups by re-checking the flag.
pub(crate) struct SyncToken {
    done: AtomicBool,
    waiter: Thread,
}

impl SyncToken {
    /// Creates a token whose `wait` will be called by the current thread.
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(SyncToken {
            done: AtomicBool::new(false),
            waiter: std::thread::current(),
        })
    }

    /// Marks the token complete and wakes the waiter.
    pub(crate) fn signal(&self) {
        self.done.store(true, Ordering::Release);
        self.waiter.unpark();
    }

    /// Blocks until `signal` is called. Must only be invoked by the thread
    /// that created the token.
    pub(crate) fn wait(&self) {
        debug_assert_eq!(std::thread::current().id(), self.waiter.id());
        let mut spins = 0u32;
        while !self.done.load(Ordering::Acquire) {
            if spins < 64 {
                core::hint::spin_loop();
                spins += 1;
            } else {
                std::thread::park();
            }
        }
    }

    /// Non-blocking check (used by tests).
    #[cfg(test)]
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
    fn wait_returns_immediately_if_signalled() {
        let token = SyncToken::new();
        token.signal();
        token.wait(); // must not block
    }

    #[test]
    fn invocation_debug_format() {
        let inv = Invocation::Execute {
            task: TaskSlot::new(|| {}),
            ss: SsId(3),
            audit: 0,
            session: None,
        };
        assert!(format!("{inv:?}").contains("SsId(3)"));
        assert_eq!(format!("{:?}", Invocation::Sync(SyncToken::new())), "Sync");
    }

    #[test]
    fn small_capture_is_stored_inline_and_runs() {
        let hit = Arc::new(AtomicBool::new(false));
        let h = Arc::clone(&hit);
        let slot = TaskSlot::new(move || h.store(true, Ordering::Relaxed));
        assert!(slot.is_inline());
        slot.run();
        assert!(hit.load(Ordering::Relaxed));
    }

    #[test]
    fn large_capture_falls_back_to_boxing() {
        let sink = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let s = Arc::clone(&sink);
        let payload = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let slot = TaskSlot::new(move || {
            s.store(payload.iter().sum(), Ordering::Relaxed);
        });
        assert!(!slot.is_inline());
        slot.run();
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
                TaskSlot::new(move || {
                    probe.0.store(pad[0] == 0, Ordering::Relaxed);
                })
            } else {
                TaskSlot::new(move || probe.0.store(true, Ordering::Relaxed))
            };
            assert_eq!(slot.is_inline(), !force_boxed);
            drop(slot);
            assert!(!ran.load(Ordering::Relaxed));
            assert!(dropped.load(Ordering::Relaxed));
        }
    }
}
