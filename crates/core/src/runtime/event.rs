//! The one wait primitive: spin, then yield, then park until an exact
//! notify.
//!
//! Every thread that waits on a runtime condition waits through an
//! [`Event`]: a delegate on its queue, the program thread on a
//! synchronization token or on its domain's drain counter, any thread on
//! a future. [`wait_until`](Event::wait_until) checks its predicate at
//! every spin hint for `SPIN_HINTS` hints — the paper's spin loop — then
//! at each of `YIELDS` `yield_now`s, and only then parks, with no
//! timeout. Polling at every hint, not at the steps of a doubling
//! backoff, makes how soon a waiter notices its condition independent of
//! how long it has already waited: with doubling rounds a round trip ran
//! at whichever of two speeds its wake-up fell into. Whoever makes the
//! predicate true calls [`notify`](Event::notify). Nothing is polled on a
//! timer, so a missing notify is a hang rather than a millisecond of
//! latency; the argument that none is missing is in
//! `docs/ARCHITECTURE.md`, "Waiting and waking".

use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::Thread;

use parking_lot::Mutex;

use super::{TestGates, WaitSignal};

/// Spin hints a waiter polls through before it yields: the budget of
/// seven doubling backoff rounds (1 + 2 + … + 64).
pub(crate) const SPIN_HINTS: u32 = 127;
/// `yield_now`s after the spin hints, before the waiter parks.
const YIELDS: u32 = 4;

/// The spin phase of every wait: true as soon as `pred` holds, checked at
/// every one of `SPIN_HINTS` spin hints and `YIELDS` yields; false once
/// they are spent, where [`Event::wait_until`] would park.
pub(crate) fn spin_until(mut pred: impl FnMut() -> bool) -> bool {
    for _ in 0..SPIN_HINTS {
        if pred() {
            return true;
        }
        core::hint::spin_loop();
    }
    for _ in 0..YIELDS {
        if pred() {
            return true;
        }
        std::thread::yield_now();
    }
    pred()
}

/// A sleep/wake channel for one waiting thread at a time. Every
/// submitter reads `sleeping` once per push, so the event gets a
/// cache-line pair of its own rather than whatever neighbour the
/// allocator gives an object of a few words.
#[derive(Default)]
#[repr(align(128))]
pub(crate) struct Event {
    /// Raised by the waiter *before* its last re-check of the predicate;
    /// read by [`notify`](Event::notify) *after* the notifier published
    /// what makes the predicate true. The SeqCst fences on both sides
    /// forbid the outcome where both miss.
    sleeping: AtomicBool,
    /// The thread that last slept here: what `notify` unparks. Written
    /// only on the way to a park and read only on the way to an unpark,
    /// so the lock stays off the notify path proper.
    sleeper: Mutex<Option<Thread>>,
    /// Scripted-interleaving gates (`sleep@…`, `wake@…`) and this
    /// event's label — the delegate's index, or `p` for a program
    /// thread's events; `None` outside the harness tests.
    gate: Option<(Arc<TestGates>, String)>,
}

impl Event {
    /// An event whose gates are named `…@label` in `gates`' script, if
    /// one is armed.
    pub(crate) fn scripted(gates: &Option<Arc<TestGates>>, label: &str) -> Self {
        let gate = gates.clone().map(|g| (g, label.to_owned()));
        Event {
            gate,
            ..Event::default()
        }
    }

    /// Returns once `pred` holds: `pred` checked at every one of
    /// `SPIN_HINTS` spin hints and `YIELDS` yields, then
    /// [`sleep`](Event::sleep) until notified, re-checking after every
    /// wake-up (spurious ones included).
    pub(crate) fn wait_until(&self, mut pred: impl FnMut() -> bool) {
        if spin_until(&mut pred) {
            return;
        }
        while !pred() {
            self.sleep(&mut pred);
        }
    }

    /// [`wait_until`](Event::wait_until) for a future's completion slot:
    /// after the spin phase the event registers on the slot, so that the
    /// slot's send wakes it, for the sleeps. The registration is one store
    /// before [`sleep`](Event::sleep)'s fence — the other half of the
    /// send's Dekker pair (`ss_queue::slab`). `pred` must include
    /// `signal.is_settled()`. Gates: `await@…` once the spin phase is
    /// spent, `register@…` just before the registration.
    pub(crate) fn wait_on_slot(&self, signal: &WaitSignal, mut pred: impl FnMut() -> bool) {
        if spin_until(&mut pred) {
            return;
        }
        self.hit("await");
        self.hit("register");
        // SAFETY: every event a future is waited on with outlives every
        // executor: a domain's waiter lives while the domain does (an
        // operation in flight holds its session's domain), a delegate's
        // as long as the runtime's delegates, and a foreign thread's
        // stays in `Core::foreign_events` until the runtime goes.
        unsafe {
            signal.waiting(self, || {
                while !pred() {
                    self.sleep(&mut pred);
                }
            })
        };
    }

    /// Parks once, unless `pred` holds after the sleeping flag is raised.
    /// Skips the ladder: [`Runtime::sleep`](super::Runtime::sleep) forces
    /// it on idle delegates, and [`wait_until`](Event::wait_until) ends in
    /// it. May return without a notify; callers re-check.
    pub(crate) fn sleep(&self, pred: impl FnOnce() -> bool) {
        *self.sleeper.lock() = Some(std::thread::current());
        self.sleeping.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        if !pred() {
            self.hit("sleep");
            std::thread::park();
        }
        self.sleeping.store(false, Ordering::Relaxed);
    }

    /// Wakes the waiter if it sleeps, or is about to: call after
    /// publishing what its predicate checks. One fence and one load when
    /// nobody sleeps.
    pub(crate) fn notify(&self) {
        fence(Ordering::SeqCst);
        self.wake_sleeper();
    }

    /// The half of [`notify`](Event::notify) after its fence, for a
    /// caller that has just issued one and polls several events. Returns
    /// whether a sleeper was unparked.
    pub(crate) fn wake_sleeper(&self) -> bool {
        if !self.sleeping.load(Ordering::Relaxed) {
            return false;
        }
        self.hit("wake");
        if let Some(thread) = &*self.sleeper.lock() {
            thread.unpark();
        }
        true
    }

    fn hit(&self, point: &str) {
        if let Some((gates, label)) = &self.gate {
            gates.hit(&format!("{point}@{label}"));
        }
    }
}

impl ss_queue::slab::Wake for Event {
    /// A completion slot's send, after its fence.
    fn wake(&self) {
        self.wake_sleeper();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn a_notify_after_the_flag_wakes_a_parked_waiter() {
        let event = Arc::new(Event::default());
        let value = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            let (e, v) = (Arc::clone(&event), Arc::clone(&value));
            s.spawn(move || {
                // Let the waiter reach its park.
                std::thread::sleep(std::time::Duration::from_millis(20));
                v.store(7, Ordering::Relaxed);
                e.notify();
            });
            event.wait_until(|| value.load(Ordering::Relaxed) == 7);
        });
        assert!(!event.sleeping.load(Ordering::Relaxed));
    }

    #[test]
    fn a_true_predicate_never_sleeps() {
        let event = Event::default();
        event.wait_until(|| true);
        event.sleep(|| true);
        assert!(event.sleeper.lock().is_some());
        assert!(!event.wake_sleeper());
    }
}
