//! Cross-thread stress test for [`Pending`]'s two halves: one thread
//! raises under a mutex (and sometimes unwinds part of what it raised)
//! while another settles, and a third reads the count under the same
//! mutex. A reading of zero must mean nothing is outstanding: every
//! operation raised so far has run, and its effect is visible to the
//! reader. No reading may exceed what is raised (the difference never
//! wraps).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use ss_queue::{Pending, Pop, SpscQueue};

/// Operations raised per run.
const N: u64 = 200_000;

/// xorshift64*: a seeded, dependency-free generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

/// What the raisers' mutex guards: operations raised, net of unwinds.
struct Ledger {
    issued: u64,
}

/// Checks one reading taken under the ledger's mutex against the ground
/// truth: `effects` counts operations whose effect the settler wrote
/// before settling them.
fn check(pending: &Pending, ledger: &Ledger, effects: &AtomicU64) -> bool {
    let outstanding = pending.outstanding() as u64;
    let seen = effects.load(Ordering::Relaxed);
    assert!(
        outstanding <= ledger.issued,
        "{outstanding} > {}",
        ledger.issued
    );
    // Every settled operation's effect is visible behind the Acquire.
    assert!(
        seen + outstanding >= ledger.issued,
        "{seen} + {outstanding} < {}",
        ledger.issued
    );
    if outstanding == 0 {
        assert_eq!(seen, ledger.issued, "read zero with work outstanding");
    }
    outstanding == 0
}

fn run(seed: u64) {
    let pending = Pending::new();
    let ledger = Mutex::new(Ledger { issued: 0 });
    let effects = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let (tx, rx) = SpscQueue::with_capacity(64);
    let (p, e) = (&pending, &effects);
    std::thread::scope(|s| {
        // The settler: runs each operation — its effect, written by this
        // thread alone — then settles it.
        s.spawn(move || loop {
            match rx.try_pop() {
                Pop::Value(()) => {
                    e.store(e.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
                    p.settle();
                }
                Pop::Empty => std::hint::spin_loop(),
                Pop::Disconnected => return,
            }
        });
        // The reader.
        let reader = s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                check(&pending, &ledger.lock().unwrap(), &effects);
            }
        });
        // The raiser: runs of 1–4 operations raised under the mutex and
        // pushed after it, some with a tail lost and unwound under the
        // mutex again. Every 256 runs it waits for the settler to catch
        // up, so readings of zero are sure to happen.
        let mut rng = Rng(seed);
        let mut raised = 0;
        let mut k = 0u64;
        while raised < N {
            let n = 1 + rng.below(4);
            let lost = if rng.below(8) == 0 {
                rng.below(n + 1)
            } else {
                0
            };
            {
                let mut l = ledger.lock().unwrap();
                pending.raise(n as u32);
                l.issued += n;
            }
            for _ in 0..n - lost {
                tx.push_blocking(()).unwrap();
            }
            if lost > 0 {
                let mut l = ledger.lock().unwrap();
                pending.unwind(lost as u32);
                l.issued -= lost;
            }
            raised += n;
            k += 1;
            if k.is_multiple_of(256) {
                while pending.outstanding() != 0 {
                    std::hint::spin_loop();
                }
                assert!(check(&pending, &ledger.lock().unwrap(), &effects));
            }
        }
        drop(tx);
        done.store(true, Ordering::Relaxed);
        reader.join().unwrap();
    });
    let l = ledger.into_inner().unwrap();
    assert!(
        check(&pending, &l, &effects),
        "work left after the settler exited"
    );
}

#[test]
fn a_zero_reading_means_nothing_is_outstanding() {
    for seed in 1..=4u64 {
        run(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
}
