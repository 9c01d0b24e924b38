//! An outstanding-work count in three single-writer halves.
//!
//! A runtime object counts the operations delegated on it and not yet
//! finished, and reads "none outstanding" as proof that every one of them
//! ran and that its effects are visible. One counter raised by the
//! delegating threads and lowered by the executing one is a word several
//! threads read-modify-write per operation. [`Pending`] splits it: the
//! delegating side only ever raises `raised` or `program`, the executing
//! side only ever raises `settled`, each with a plain load and store, and
//! a reader takes the difference.
//!
//! The halves carry three contracts that the caller keeps:
//!
//! * **One locked raiser at a time.** Every [`raise`](Pending::raise) and
//!   [`unwind`](Pending::unwind) holds one lock (the runtime: the object's
//!   state mutex, held by nested delegations).
//! * **One program raiser.** Every
//!   [`raise_program`](Pending::raise_program) and
//!   [`unwind_program`](Pending::unwind_program) runs on one thread (the
//!   runtime: the domain's program thread), with or without the lock.
//! * **One settler at a time.** Consecutive settlers are ordered by
//!   happens-before: each [`settle`](Pending::settle) must see the
//!   previous one's store (the runtime: the executor that owns the
//!   object's set, handed over only at a barrier, by a retraction or by a
//!   steal's quiescence handshake).
//!
//! Each operation settles after its raise, and an unwound operation is
//! never settled, so `settled ≤ raised + program` in every state and the
//! difference never wraps, even when the halves themselves wrap around
//! `u32`. [`outstanding`](Pending::outstanding) loads `settled` first,
//! with Acquire, then the two raised halves: a zero means every operation
//! whose raise the reader sees had settled by the first load, and the
//! Acquire makes their effects visible. Which raises a reader sees is its
//! contract's business: the lock holder sees every locked raise, the
//! program raiser its own, and the lock holder sees the program raiser's
//! only while that thread raises under the lock too.

use core::sync::atomic::{AtomicU32, Ordering};

/// Operations raised and not yet settled (see the module docs).
#[derive(Debug, Default)]
pub struct Pending {
    /// Operations committed under the lock, net of unwinds; written by
    /// one locked raiser at a time.
    raised: AtomicU32,
    /// Operations committed by the program raiser, net of unwinds;
    /// written by that thread alone.
    program: AtomicU32,
    /// Operations finished; written by one settler at a time.
    settled: AtomicU32,
}

/// `half += n`, wrapping, by the half's one writer.
#[inline]
fn bump(half: &AtomicU32, n: u32) {
    half.store(
        half.load(Ordering::Relaxed).wrapping_add(n),
        Ordering::Relaxed,
    );
}

impl Pending {
    /// A count with nothing outstanding.
    pub const fn new() -> Self {
        Pending {
            raised: AtomicU32::new(0),
            program: AtomicU32::new(0),
            settled: AtomicU32::new(0),
        }
    }

    /// Commits `n` operations. The caller holds the lock every locked
    /// raise and unwind holds.
    #[inline]
    pub fn raise(&self, n: u32) {
        bump(&self.raised, n);
    }

    /// Takes back `n` locked-raised operations that will never run, so
    /// never settle. The caller holds the lock.
    #[inline]
    pub fn unwind(&self, n: u32) {
        bump(&self.raised, n.wrapping_neg());
    }

    /// Commits `n` operations on the program raiser's half. The caller is
    /// the program raiser; it need not hold the lock.
    #[inline]
    pub fn raise_program(&self, n: u32) {
        bump(&self.program, n);
    }

    /// Takes back `n` operations the program raiser raised that will never
    /// run. The caller is the program raiser.
    #[inline]
    pub fn unwind_program(&self, n: u32) {
        bump(&self.program, n.wrapping_neg());
    }

    /// One raised operation finished; call after its effects. The caller
    /// is the one settler, ordered after the previous one.
    #[inline]
    pub fn settle(&self) {
        let settled = self.settled.load(Ordering::Relaxed);
        self.settled
            .store(settled.wrapping_add(1), Ordering::Release);
    }

    /// Operations raised and not yet settled, as far as the reader sees
    /// the raises (module docs). A zero proves that every raise the
    /// reader sees settled, with its effects visible to the reader.
    #[inline]
    pub fn outstanding(&self) -> u32 {
        let settled = self.settled.load(Ordering::Acquire);
        let raised = self.raised.load(Ordering::Relaxed);
        let program = self.program.load(Ordering::Relaxed);
        raised.wrapping_add(program).wrapping_sub(settled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A raising half's raise or unwind.
    type Move = fn(&Pending, u32);

    /// A raising half's counter.
    type Half = fn(&Pending) -> &AtomicU32;

    /// The two raising halves, each driven through its raise and unwind.
    const HALVES: [(&str, Move, Move, Half); 2] = [
        ("locked", Pending::raise, Pending::unwind, |p| &p.raised),
        (
            "program",
            Pending::raise_program,
            Pending::unwind_program,
            |p| &p.program,
        ),
    ];

    #[test]
    fn a_raise_then_its_settles_read_zero() {
        for (half, raise, _, _) in HALVES {
            let p = Pending::new();
            assert_eq!(p.outstanding(), 0, "{half}");
            raise(&p, 3);
            assert_eq!(p.outstanding(), 3, "{half}");
            p.settle();
            p.settle();
            assert_eq!(p.outstanding(), 1, "{half}");
            p.settle();
            assert_eq!(p.outstanding(), 0, "{half}");
        }
    }

    #[test]
    fn an_outstanding_operation_never_reads_zero() {
        for (half, raise, _, _) in HALVES {
            let p = Pending::new();
            for k in 1..=100u32 {
                raise(&p, 1);
                assert_eq!(p.outstanding(), 1, "{half}, operation {k}");
                p.settle();
                assert_eq!(p.outstanding(), 0, "{half}, operation {k}");
            }
            raise(&p, 2);
            p.settle();
            assert_ne!(p.outstanding(), 0, "{half}");
        }
    }

    #[test]
    fn both_halves_settle_through_one_count() {
        let p = Pending::new();
        p.raise(2);
        p.raise_program(3);
        assert_eq!(p.outstanding(), 5);
        for left in (0..5).rev() {
            p.settle();
            assert_eq!(p.outstanding(), left);
        }
    }

    #[test]
    fn an_unwind_takes_back_what_never_runs() {
        for (half, raise, unwind, _) in HALVES {
            let p = Pending::new();
            // A run of four of which one landed and three were dropped.
            raise(&p, 4);
            unwind(&p, 3);
            assert_eq!(p.outstanding(), 1, "{half}");
            p.settle();
            assert_eq!(p.outstanding(), 0, "{half}");
            // A whole run lost before anything settled.
            raise(&p, 2);
            unwind(&p, 2);
            assert_eq!(p.outstanding(), 0, "{half}");
        }
        // One half's unwind leaves the other half's operations counted.
        let p = Pending::new();
        p.raise(1);
        p.raise_program(2);
        p.unwind_program(2);
        assert_eq!(p.outstanding(), 1);
        p.settle();
        assert_eq!(p.outstanding(), 0);
    }

    #[test]
    fn the_difference_survives_every_half_wrapping() {
        for (half, raise, unwind, counter) in HALVES {
            // The half under test and `settled` start just below the
            // wrap; the other raising half stays at zero.
            let start = u32::MAX - 2;
            let p = Pending::new();
            counter(&p).store(start, Ordering::Relaxed);
            p.settled.store(start, Ordering::Relaxed);
            assert_eq!(p.outstanding(), 0, "{half}");
            raise(&p, 5); // this half wraps past zero
            assert_eq!(p.outstanding(), 5, "{half}");
            unwind(&p, 1);
            assert_eq!(p.outstanding(), 4, "{half}");
            for left in (0..4).rev() {
                p.settle(); // `settled` wraps on the way
                assert_eq!(p.outstanding(), left, "{half}");
            }
            assert!(counter(&p).load(Ordering::Relaxed) < start, "{half}");
            assert!(p.settled.load(Ordering::Relaxed) < start, "{half}");
        }
    }
}
