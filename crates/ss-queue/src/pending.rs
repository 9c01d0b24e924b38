//! An outstanding-work count in two single-writer halves.
//!
//! A runtime object counts the operations delegated on it and not yet
//! finished, and reads "none outstanding" as proof that every one of them
//! ran and that its effects are visible. One counter raised by the
//! delegating thread and lowered by the executing one is a word two
//! threads read-modify-write per operation. [`Pending`] splits it: the
//! delegating side only ever raises `raised` and the executing side only
//! ever raises `settled`, each with a plain load and store, and a reader
//! takes the difference.
//!
//! The halves carry two contracts that the caller keeps:
//!
//! * **One raiser at a time.** Every [`raise`](Pending::raise) and
//!   [`unwind`](Pending::unwind) holds one lock (the runtime: the object's
//!   state mutex).
//! * **One settler at a time.** Consecutive settlers are ordered by
//!   happens-before: each [`settle`](Pending::settle) must see the
//!   previous one's store (the runtime: the executor that owns the
//!   object's set, handed over only at a barrier, by a retraction or by a
//!   steal's quiescence handshake).
//!
//! Settles follow raises, and an unwound operation is never settled, so
//! `settled ≤ raised` in every state and `raised − settled` never wraps,
//! even when the halves themselves wrap around `u32`.
//! [`outstanding`](Pending::outstanding) loads `settled` first, with
//! Acquire, then `raised`: a zero means every operation raised by the
//! second load had settled by the first, and the Acquire makes their
//! effects visible.

use core::sync::atomic::{AtomicU32, Ordering};

/// Operations raised and not yet settled (see the module docs).
#[derive(Debug, Default)]
pub struct Pending {
    /// Operations committed, net of unwinds; written by one raiser at a
    /// time.
    raised: AtomicU32,
    /// Operations finished; written by one settler at a time.
    settled: AtomicU32,
}

impl Pending {
    /// A count with nothing outstanding.
    pub const fn new() -> Self {
        Pending {
            raised: AtomicU32::new(0),
            settled: AtomicU32::new(0),
        }
    }

    /// Commits `n` operations. The caller holds the lock every raise and
    /// unwind holds.
    #[inline]
    pub fn raise(&self, n: u32) {
        let raised = self.raised.load(Ordering::Relaxed);
        self.raised.store(raised.wrapping_add(n), Ordering::Relaxed);
    }

    /// Takes back `n` raised operations that will never run, so never
    /// settle. The caller holds the lock every raise and unwind holds.
    #[inline]
    pub fn unwind(&self, n: u32) {
        let raised = self.raised.load(Ordering::Relaxed);
        self.raised.store(raised.wrapping_sub(n), Ordering::Relaxed);
    }

    /// One raised operation finished; call after its effects. The caller
    /// is the one settler, ordered after the previous one.
    #[inline]
    pub fn settle(&self) {
        let settled = self.settled.load(Ordering::Relaxed);
        self.settled
            .store(settled.wrapping_add(1), Ordering::Release);
    }

    /// Operations raised and not yet settled: exact for a reader that
    /// holds the raisers' lock. A zero proves that every raise the reader
    /// has seen settled, with its effects visible to the reader.
    #[inline]
    pub fn outstanding(&self) -> u32 {
        let settled = self.settled.load(Ordering::Acquire);
        self.raised.load(Ordering::Relaxed).wrapping_sub(settled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_raise_then_its_settles_read_zero() {
        let p = Pending::new();
        assert_eq!(p.outstanding(), 0);
        p.raise(3);
        assert_eq!(p.outstanding(), 3);
        p.settle();
        p.settle();
        assert_eq!(p.outstanding(), 1);
        p.settle();
        assert_eq!(p.outstanding(), 0);
    }

    #[test]
    fn an_outstanding_operation_never_reads_zero() {
        let p = Pending::new();
        for k in 1..=100u32 {
            p.raise(1);
            assert_eq!(p.outstanding(), 1, "operation {k}");
            p.settle();
            assert_eq!(p.outstanding(), 0, "operation {k}");
        }
        p.raise(2);
        p.settle();
        assert_ne!(p.outstanding(), 0);
    }

    #[test]
    fn an_unwind_takes_back_what_never_runs() {
        let p = Pending::new();
        // A run of four of which one landed and three were dropped.
        p.raise(4);
        p.unwind(3);
        assert_eq!(p.outstanding(), 1);
        p.settle();
        assert_eq!(p.outstanding(), 0);
        // A whole run lost before anything settled.
        p.raise(2);
        p.unwind(2);
        assert_eq!(p.outstanding(), 0);
    }

    #[test]
    fn the_difference_survives_both_halves_wrapping() {
        let start = u32::MAX - 2;
        let p = Pending {
            raised: AtomicU32::new(start),
            settled: AtomicU32::new(start),
        };
        assert_eq!(p.outstanding(), 0);
        p.raise(5); // `raised` wraps past zero
        assert_eq!(p.outstanding(), 5);
        p.unwind(1);
        assert_eq!(p.outstanding(), 4);
        for left in (0..4).rev() {
            p.settle(); // `settled` wraps on the third
            assert_eq!(p.outstanding(), left);
        }
        assert!(p.raised.load(Ordering::Relaxed) < start);
        assert!(p.settled.load(Ordering::Relaxed) < start);
    }
}
