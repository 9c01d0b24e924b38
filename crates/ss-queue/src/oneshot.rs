//! One-shot completion cells — the substrate of the runtime's futures on
//! delegated operations.
//!
//! A [`oneshot`] channel carries exactly one value from the executor that
//! completes a delegated operation back to the context that spawned it.
//! The design constraints come from the serialization-sets runtime rather
//! than from generality:
//!
//! * **Completion is never lost.** [`OneshotSender::send`] succeeds
//!   unconditionally — even when the receiver has already been dropped,
//!   the value is stored in the cell and dropped with it. The runtime's
//!   drain argument needs this: a delegated operation's completion
//!   protocol must not depend on whether anyone still holds the future.
//! * **Cancellation is observable.** Dropping the sender without sending
//!   transitions the cell to *closed* ([`OneshotPoll::Closed`]), waking
//!   any parked waiter, so a waiter behind a panicked or never-executed
//!   operation unblocks with an error instead of hanging.
//! * **Waiting composes with external work loops.** The receiver exposes
//!   a non-consuming poll, and a [`WaitSignal`] probe — non-generic,
//!   cloneable — observes settlement without access to the value (the
//!   runtime's deadlock detector reads it) and registers a waiter
//!   ([`WaitSignal::waiting`]) that the settle unparks. The caller owns
//!   the wait loop, parks without a timeout, and may interleave other
//!   work (the runtime's help-first execution) between polls.
//! * **Epoch awareness.** Every cell carries a `u64` tag; the runtime
//!   stamps it with the isolation-epoch serial the operation was
//!   delegated in, so diagnostics can relate a pending future to the
//!   epoch whose barrier guarantees its resolution.
//! * **Recyclability.** The synchronization core (`Signal`) is
//!   *non-generic*: the value is stored in a fixed three-word inline
//!   buffer (larger payloads are boxed by the sender), and the typed
//!   sender/receiver handles are phantom-typed views over an
//!   `Arc<Signal>`. A runtime can therefore keep settled cells in a pool
//!   ([`CellPool`](crate::slab::CellPool)) and re-issue them — for any
//!   value type — without allocating on the delegation hot path.
//!
//! ```
//! use ss_queue::oneshot::{oneshot, OneshotPoll};
//!
//! let (tx, rx) = oneshot::<u64>(7);
//! assert_eq!(rx.tag(), 7);
//! assert!(matches!(rx.poll(), OneshotPoll::Pending));
//! tx.send(42);
//! assert!(matches!(rx.poll(), OneshotPoll::Ready(42)));
//! // One-shot: a second poll observes the value as already taken.
//! assert!(matches!(rx.poll(), OneshotPoll::Closed));
//! ```

use core::cell::UnsafeCell;
use core::marker::PhantomData;
use core::mem::{ManuallyDrop, MaybeUninit};
use core::ptr;
use core::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::Thread;

/// Cell states (monotonic within one use: `EMPTY` → `READY`/`CLOSED`,
/// `READY` → `TAKEN`; a pool [`reset`](Signal::reset) returns a quiescent
/// cell to `EMPTY`).
const EMPTY: u8 = 0;
/// A value is stored and may be taken by the receiver.
const READY: u8 = 1;
/// The receiver took the value.
const TAKEN: u8 = 2;
/// The sender was dropped without sending; no value will ever arrive.
const CLOSED: u8 = 3;

/// Words in a cell's inline value buffer. Three words cover the runtime's
/// common future payloads (scalars, small aggregates, `Vec`) without
/// growing the cell past one cache line.
const VALUE_INLINE_WORDS: usize = 3;

/// True when `T` may be stored by value in the inline buffer; larger or
/// over-aligned payloads are boxed by the sender.
const fn fits_inline<T>() -> bool {
    size_of::<T>() <= size_of::<[usize; VALUE_INLINE_WORDS]>()
        && align_of::<T>() <= align_of::<usize>()
}

/// Drops an inline `T` in place inside the value buffer.
///
/// # Safety
/// `p` must point at an initialized `T` written by [`OneshotSender::send`].
unsafe fn drop_inline<T>(p: *mut u8) {
    unsafe { ptr::drop_in_place(p.cast::<T>()) }
}

/// Drops a boxed `T` whose raw pointer is stored in the value buffer.
///
/// # Safety
/// `p` must point at a valid `*mut T` written by [`OneshotSender::send`].
unsafe fn drop_boxed<T>(p: *mut u8) {
    unsafe { drop(Box::from_raw(ptr::read(p.cast::<*mut T>()))) }
}

/// The non-generic core of a cell: the settlement state machine, a single
/// parked-waiter slot, a restampable epoch tag, and the value storage (a
/// three-word inline buffer plus the drop shim for whatever currently
/// occupies it). Shared by the sender, the receiver, any number of
/// [`WaitSignal`] probes — and, because nothing here mentions the value
/// type, by the [`CellPool`](crate::slab::CellPool) across uses with
/// *different* value types.
pub(crate) struct Signal {
    state: AtomicU8,
    /// Spinlock for the waiter slot (held for a handful of instructions).
    waiter_lock: AtomicBool,
    waiter: UnsafeCell<Option<Thread>>,
    /// Epoch tag; atomic so the pool can restamp a recycled cell while
    /// old [`WaitSignal`] probes may still read it.
    tag: AtomicU64,
    /// Cancellation request, set by the receiver side (a dropped
    /// `SsFuture` in the runtime). Advisory: the executor checks it
    /// pop-side and may skip the operation's body, but a send that
    /// races the request still wins (completion is never lost).
    cancelled: AtomicBool,
    /// Value storage: a `T` by value when [`fits_inline`], else the raw
    /// pointer of a `Box<T>`.
    value: UnsafeCell<MaybeUninit<[usize; VALUE_INLINE_WORDS]>>,
    /// `Some` exactly while an un-taken value occupies `value`; knows how
    /// to drop it in place. Written by the sender before the `READY`
    /// release-store, cleared by the receiver that wins the take, and run
    /// by [`reset`](Signal::reset)/`Drop` for values nobody took.
    value_drop: UnsafeCell<Option<unsafe fn(*mut u8)>>,
}

// SAFETY: `waiter` is only accessed under `waiter_lock`; `state` and the
// lock are atomics; `value`/`value_drop` are written by the (unique)
// sender before the `READY` release-store and read by the unique winner
// of the `READY → TAKEN` acquire-CAS (or by an exclusive reset/drop).
// Payloads are `T: Send` (enforced by the constructors), so dropping an
// orphaned value from another thread is sound.
unsafe impl Send for Signal {}
unsafe impl Sync for Signal {}

impl Signal {
    pub(crate) fn new(tag: u64) -> Self {
        Signal {
            state: AtomicU8::new(EMPTY),
            waiter_lock: AtomicBool::new(false),
            waiter: UnsafeCell::new(None),
            tag: AtomicU64::new(tag),
            cancelled: AtomicBool::new(false),
            value: UnsafeCell::new(MaybeUninit::uninit()),
            value_drop: UnsafeCell::new(None),
        }
    }

    fn value_ptr(&self) -> *mut u8 {
        self.value.get().cast::<u8>()
    }

    fn with_waiter<R>(&self, f: impl FnOnce(&mut Option<Thread>) -> R) -> R {
        while self
            .waiter_lock
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            core::hint::spin_loop();
        }
        // SAFETY: the spinlock is held, giving exclusive access.
        let out = f(unsafe { &mut *self.waiter.get() });
        self.waiter_lock.store(false, Ordering::Release);
        out
    }

    /// Settles the cell into `to` (READY or CLOSED) and wakes the waiter.
    fn settle(&self, to: u8) {
        self.state.store(to, Ordering::Release);
        if let Some(t) = self.with_waiter(|w| w.take()) {
            t.unpark();
        }
    }

    pub(crate) fn is_settled(&self) -> bool {
        self.state.load(Ordering::Acquire) != EMPTY
    }

    pub(crate) fn tag(&self) -> u64 {
        self.tag.load(Ordering::Relaxed)
    }

    /// Drops whatever un-taken value currently occupies the buffer.
    ///
    /// # Safety
    /// The caller must have exclusive access to the cell's value protocol
    /// (last handle, or a pool holding the only reference).
    unsafe fn drop_orphan(&self) {
        // SAFETY: exclusivity per the caller; `value_drop` is `Some` iff
        // an initialized value is present.
        unsafe {
            if let Some(f) = (*self.value_drop.get()).take() {
                f(self.value_ptr());
            }
        }
    }

    /// Returns the cell to `EMPTY` with a fresh tag, dropping any value
    /// nobody took. Pool-only: the caller must hold the *sole* reference
    /// to the cell (`Arc::strong_count == 1`, observed with `Acquire`, so
    /// every prior handle's accesses happened-before this call).
    pub(crate) fn reset(&self, tag: u64) {
        // SAFETY: sole-reference precondition gives exclusivity.
        unsafe { self.drop_orphan() };
        self.with_waiter(|w| *w = None);
        self.tag.store(tag, Ordering::Relaxed);
        self.cancelled.store(false, Ordering::Relaxed);
        self.state.store(EMPTY, Ordering::Release);
    }
}

impl Drop for Signal {
    fn drop(&mut self) {
        // SAFETY: `&mut self` — this is the last reference.
        unsafe { self.drop_orphan() };
    }
}

/// Builds a typed sender/receiver pair over an existing (empty) signal.
/// Used by [`oneshot`] for fresh cells and by
/// [`CellPool`](crate::slab::CellPool) for recycled ones.
pub(crate) fn pair_from_signal<T: Send>(
    signal: Arc<Signal>,
) -> (OneshotSender<T>, OneshotReceiver<T>) {
    debug_assert!(!signal.is_settled());
    (
        OneshotSender {
            signal: Arc::clone(&signal),
            _value: PhantomData,
        },
        OneshotReceiver {
            signal,
            _value: PhantomData,
        },
    )
}

/// Creates a one-shot cell tagged with `tag` (the runtime uses the
/// isolation-epoch serial) and returns the sender/receiver handle pair.
pub fn oneshot<T: Send>(tag: u64) -> (OneshotSender<T>, OneshotReceiver<T>) {
    pair_from_signal(Arc::new(Signal::new(tag)))
}

/// Result of polling a [`OneshotReceiver`].
#[derive(Debug)]
pub enum OneshotPoll<T> {
    /// No value yet; the sender is still live.
    Pending,
    /// The value arrived (each cell yields it exactly once).
    Ready(T),
    /// No value will ever arrive: the sender was dropped without sending,
    /// or the value was already taken by an earlier poll.
    Closed,
}

/// Completing half of a one-shot cell; owned by the executor that runs
/// the delegated operation. A phantom-typed view over the non-generic
/// `Signal` — the value type exists only in the handles. One word: a
/// delegated operation's record carries it next to its other captures, so
/// "already sent" is not a field but the absence of the sender
/// ([`send`](OneshotSender::send) consumes it without running `Drop`).
pub struct OneshotSender<T> {
    signal: Arc<Signal>,
    _value: PhantomData<T>,
}

impl<T> OneshotSender<T> {
    /// Stores the value and wakes the waiter. Infallible: a dropped
    /// receiver does not reject the completion (the value is dropped with
    /// the cell, or at the pool's next recycle) — see the module docs for
    /// why the runtime needs that. Values up to three words land in the
    /// cell's inline buffer; larger ones are boxed here.
    pub fn send(self, value: T) {
        // Take the handle apart instead of dropping it: `Drop` is the
        // unsent path and would settle the cell `CLOSED`.
        // SAFETY: `self` is wrapped in `ManuallyDrop`, so its only
        // non-trivial field is read out exactly once and never dropped in
        // place.
        let signal = unsafe { ptr::read(&ManuallyDrop::new(self).signal) };
        // SAFETY: state is still EMPTY (only `send`/`Drop` of this unique
        // sender move it out of EMPTY), so no reader touches the slot
        // before the `READY` release-store below.
        unsafe {
            let p = signal.value_ptr();
            if fits_inline::<T>() {
                ptr::write(p.cast::<T>(), value);
                *signal.value_drop.get() = Some(drop_inline::<T>);
            } else {
                ptr::write(p.cast::<*mut T>(), Box::into_raw(Box::new(value)));
                *signal.value_drop.get() = Some(drop_boxed::<T>);
            }
        }
        signal.settle(READY);
    }

    /// The tag the cell currently carries.
    pub fn tag(&self) -> u64 {
        self.signal.tag()
    }

    /// True once the receiver side requested cancellation
    /// ([`OneshotReceiver::request_cancel`]). The executor that owns
    /// this sender checks it immediately after popping the operation:
    /// a `true` answer means nobody can observe the result, so the
    /// operation's body (and any memo publication) may be skipped —
    /// the sender is then dropped unsent, settling the cell closed.
    pub fn is_cancelled(&self) -> bool {
        self.signal.cancelled.load(Ordering::Acquire)
    }
}

impl<T> Drop for OneshotSender<T> {
    /// Reached only by a sender that never sent.
    fn drop(&mut self) {
        self.signal.settle(CLOSED);
    }
}

/// Receiving half of a one-shot cell.
pub struct OneshotReceiver<T> {
    signal: Arc<Signal>,
    _value: PhantomData<T>,
}

impl<T> OneshotReceiver<T> {
    /// Non-blocking poll; takes the value on the first `Ready`.
    pub fn poll(&self) -> OneshotPoll<T> {
        let signal = &self.signal;
        // READY → TAKEN must be a CAS, not load+store: `poll` takes
        // `&self` on a `Sync` cell, so two threads may race it — exactly
        // one may win the transition and touch the value slot.
        match signal
            .state
            .compare_exchange(READY, TAKEN, Ordering::Acquire, Ordering::Acquire)
        {
            Ok(_) => {
                // SAFETY: the Acquire CAS on READY ordered the sender's
                // writes (value and drop shim) before these accesses, and
                // winning the transition makes us the slot's sole
                // accessor; TAKEN keeps it one-shot. Clearing the shim
                // marks the buffer vacated so reset/drop won't touch it.
                unsafe {
                    *signal.value_drop.get() = None;
                    let p = signal.value_ptr();
                    let v = if fits_inline::<T>() {
                        ptr::read(p.cast::<T>())
                    } else {
                        *Box::from_raw(ptr::read(p.cast::<*mut T>()))
                    };
                    OneshotPoll::Ready(v)
                }
            }
            Err(EMPTY) => OneshotPoll::Pending,
            Err(_) => OneshotPoll::Closed,
        }
    }

    /// True once the cell is settled (ready, taken, or closed).
    pub fn is_settled(&self) -> bool {
        self.signal.is_settled()
    }

    /// The tag the cell currently carries.
    pub fn tag(&self) -> u64 {
        self.signal.tag()
    }

    /// A cloneable, value-blind settlement probe onto this cell.
    pub fn signal(&self) -> WaitSignal {
        WaitSignal(Arc::clone(&self.signal))
    }

    /// Requests cancellation of the operation behind this cell. Purely
    /// advisory — a skip-if-not-started handshake: an executor that
    /// pops the operation *after* this store observes it
    /// ([`OneshotSender::is_cancelled`]) and skips the body; one
    /// already running (or that raced the store) completes normally.
    /// Either way the cell still settles (ready or closed), so drain
    /// accounting is untouched.
    pub fn request_cancel(&self) {
        self.signal.cancelled.store(true, Ordering::Release);
    }
}

/// A non-generic, cloneable probe that observes whether a one-shot cell
/// has settled — without access to the value. The runtime's deadlock
/// detector stores these in its waits-for table so one delegate can check
/// whether another delegate's pending future is genuinely still pending.
#[derive(Clone)]
pub struct WaitSignal(Arc<Signal>);

impl WaitSignal {
    /// True once the underlying cell is settled (ready, taken or closed).
    pub fn is_settled(&self) -> bool {
        self.0.is_settled()
    }

    /// The tag the underlying cell currently carries.
    pub fn tag(&self) -> u64 {
        self.0.tag()
    }

    /// Runs `wait` with the calling thread registered as the cell's
    /// waiter: settling the cell unparks it. `wait` may park with no
    /// timeout provided it checks [`is_settled`](WaitSignal::is_settled)
    /// before each park — the registration comes first, so a settle
    /// either finds the waiter registered or is seen by that check.
    pub fn waiting<R>(&self, wait: impl FnOnce() -> R) -> R {
        let signal = &self.0;
        signal.with_waiter(|w| *w = Some(std::thread::current()));
        let out = wait();
        signal.with_waiter(|w| *w = None);
        out
    }
}

impl std::fmt::Debug for WaitSignal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WaitSignal")
            .field("settled", &self.is_settled())
            .field("tag", &self.tag())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip_and_one_shot() {
        let (tx, rx) = oneshot::<String>(3);
        assert!(!rx.is_settled());
        tx.send("hi".into());
        assert!(rx.is_settled());
        assert!(matches!(rx.poll(), OneshotPoll::Ready(ref s) if s == "hi"));
        assert!(matches!(rx.poll(), OneshotPoll::Closed));
    }

    #[test]
    fn large_value_roundtrips_via_box() {
        // Five words — exceeds the inline buffer, exercising the boxed
        // value path.
        let payload = [1u64, 2, 3, 4, 5];
        let (tx, rx) = oneshot::<[u64; 5]>(0);
        tx.send(payload);
        assert!(matches!(rx.poll(), OneshotPoll::Ready(v) if v == payload));
        assert!(matches!(rx.poll(), OneshotPoll::Closed));
    }

    #[test]
    fn dropped_sender_closes_cell() {
        let (tx, rx) = oneshot::<u32>(0);
        assert_eq!(Arc::strong_count(&rx.signal), 2);
        drop(tx);
        assert_eq!(rx.signal.state.load(Ordering::Acquire), CLOSED);
        assert_eq!(Arc::strong_count(&rx.signal), 1);
        assert!(rx.is_settled());
        assert!(matches!(rx.poll(), OneshotPoll::Closed));
    }

    #[test]
    fn send_survives_dropped_receiver() {
        struct Bomb<'a>(&'a AtomicU8);
        impl Drop for Bomb<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = AtomicU8::new(0);
        let (tx, rx) = oneshot::<Bomb<'_>>(0);
        let probe = rx.signal();
        drop(rx);
        tx.send(Bomb(&drops)); // must not panic or leak
        assert!(probe.is_settled());
        // The value now lives in the cell itself, so it survives as long
        // as any handle — including a probe — does…
        assert_eq!(drops.load(Ordering::Relaxed), 0);
        drop(probe);
        // …and is dropped with the cell.
        assert_eq!(drops.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn send_leaves_ready_and_hands_the_value_over_once() {
        struct Bomb<'a>(&'a AtomicU8);
        impl Drop for Bomb<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = AtomicU8::new(0);
        let (tx, rx) = oneshot::<Bomb<'_>>(0);
        // `send` consumes the sender; were its `Drop` to run as well, the
        // cell would end `CLOSED` and the value would be unreachable.
        tx.send(Bomb(&drops));
        assert_eq!(rx.signal.state.load(Ordering::Acquire), READY);
        let OneshotPoll::Ready(bomb) = rx.poll() else {
            panic!("sent value must be ready");
        };
        assert_eq!(rx.signal.state.load(Ordering::Acquire), TAKEN);
        // The consumed sender still released its reference.
        assert_eq!(Arc::strong_count(&rx.signal), 1);
        assert_eq!(drops.load(Ordering::Relaxed), 0);
        drop(bomb);
        drop(rx);
        assert_eq!(drops.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn untaken_large_value_drops_with_cell() {
        // An un-taken boxed value must be freed by the cell's drop glue
        // (under miri/asan this doubles as a leak check).
        let (tx, rx) = oneshot::<[u64; 8]>(0);
        tx.send([7; 8]);
        drop(rx);
    }

    #[test]
    fn a_registered_waiter_is_unparked_by_the_send() {
        let (tx, rx) = oneshot::<u64>(9);
        let probe = rx.signal();
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                tx.send(11);
            });
            probe.waiting(|| {
                while !probe.is_settled() {
                    std::thread::park();
                }
            });
        });
        assert!(matches!(rx.poll(), OneshotPoll::Ready(11)));
    }

    #[test]
    fn cancel_request_is_visible_to_sender_but_send_still_wins() {
        let (tx, rx) = oneshot::<u64>(0);
        assert!(!tx.is_cancelled());
        rx.request_cancel();
        assert!(tx.is_cancelled());
        // A send that raced the request still lands: completion is
        // never lost, cancellation only licenses skipping.
        tx.send(5);
        assert!(matches!(rx.poll(), OneshotPoll::Ready(5)));
    }

    #[test]
    fn reset_clears_the_cancel_flag() {
        let (tx, rx) = oneshot::<u64>(1);
        rx.request_cancel();
        drop(tx);
        assert!(matches!(rx.poll(), OneshotPoll::Closed));
        let signal = Arc::clone(&rx.signal);
        drop(rx);
        signal.reset(2);
        assert!(!signal.cancelled.load(Ordering::Relaxed));
        assert_eq!(signal.tag(), 2);
    }

    #[test]
    fn signal_probe_tracks_settlement() {
        let (tx, rx) = oneshot::<u8>(42);
        let probe = rx.signal();
        let probe2 = probe.clone();
        assert!(!probe.is_settled());
        assert_eq!(probe.tag(), 42);
        tx.send(1);
        assert!(probe.is_settled());
        assert!(probe2.is_settled());
        assert!(format!("{probe:?}").contains("settled: true"));
    }
}
