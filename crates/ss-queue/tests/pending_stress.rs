//! Cross-thread stress test for [`Pending`]'s three halves, in the shape
//! the runtime uses them: a *program raiser* raises its half without a
//! lock while its stamp is current and under the mutex while it is not; a
//! *mutex raiser* raises the locked half under the mutex (both sometimes
//! unwind part of what they raised); a settler runs and settles both
//! raisers' operations; and a reader reads the count under the mutex.
//!
//! * The program raiser's own reading of zero must mean that every one of
//!   *its* operations has run, with its effect visible.
//! * The mutex reader's reading of zero, taken while no stamp is current,
//!   must mean that every operation raised so far has run.
//! * No reading wraps.
//!
//! Every 256 of the mutex raiser's runs the program raiser clears its
//! stamp, pauses the mutex raiser between runs and holds the mutex until
//! the settler has drained everything, so readings of zero under the mutex
//! are sure to happen and each is checked.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use ss_queue::{Pending, Pop, Producer, SpscQueue};

/// Operations the mutex raiser raises per seed, unwound ones included;
/// the program raiser keeps at least as many and goes on until the mutex
/// raiser is done.
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

/// What the mutex guards.
struct Ledger {
    /// Operations raised, net of unwinds: every locked raise, and the
    /// program raiser's unlocked raises up to its last stamp clear.
    issued: u64,
    /// Whether the program raiser's stamp is current: it raises without
    /// the mutex, so a zero read under the mutex proves nothing.
    stamped: bool,
}

/// Effects the settler wrote before settling, per raiser.
#[derive(Default)]
struct Effects {
    program: AtomicU64,
    locked: AtomicU64,
}

impl Effects {
    fn total(&self) -> u64 {
        self.program.load(Ordering::Relaxed) + self.locked.load(Ordering::Relaxed)
    }
}

/// Checks one reading taken under the mutex while no stamp is current.
fn check_locked(pending: &Pending, ledger: &Ledger, effects: &Effects) -> bool {
    let outstanding = pending.outstanding() as u64;
    let seen = effects.total();
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

/// Checks the program raiser's own reading against its operations:
/// `mine` raised, net of unwinds.
fn check_program(pending: &Pending, mine: u64, effects: &Effects) -> bool {
    let outstanding = pending.outstanding() as u64;
    let seen = effects.program.load(Ordering::Relaxed);
    assert!(outstanding < u32::MAX as u64 / 2, "wrapped: {outstanding}");
    assert!(
        seen + outstanding >= mine,
        "{seen} + {outstanding} < {mine}"
    );
    if outstanding == 0 {
        assert_eq!(seen, mine, "read zero with its own work outstanding");
    }
    outstanding == 0
}

/// One run of 1–4 operations: raised by `raise`, pushed, with a tail
/// sometimes lost and unwound by `unwind`. Returns what stays raised.
fn one_run(
    rng: &mut Rng,
    tx: &Producer<()>,
    raise: impl FnOnce(u64),
    unwind: impl FnOnce(u64),
) -> u64 {
    let n = 1 + rng.below(4);
    let lost = if rng.below(8) == 0 {
        rng.below(n + 1)
    } else {
        0
    };
    raise(n);
    for _ in 0..n - lost {
        tx.push_blocking(()).unwrap();
    }
    if lost > 0 {
        unwind(lost);
    }
    n - lost
}

fn run(seed: u64) {
    let pending = Pending::new();
    let ledger = Mutex::new(Ledger {
        issued: 0,
        stamped: false,
    });
    let effects = Effects::default();
    let turn = Mutex::new(());
    let done = AtomicBool::new(false);
    // The mutex raiser's runs so far; `u64::MAX` once it is done.
    let locked_runs = AtomicU64::new(0);
    let (ptx, prx) = SpscQueue::with_capacity(64);
    let (ltx, lrx) = SpscQueue::with_capacity(64);
    let (p, e, l, t) = (&pending, &effects, &ledger, &turn);
    let locked_runs = &locked_runs;
    let unpublished = std::thread::scope(|s| {
        // The settler: runs each operation — its effect, written by this
        // thread alone — then settles it, from either raiser's queue.
        s.spawn(move || {
            let mut open = [true, true];
            while open.iter().any(|&o| o) {
                for (k, (rx, effect)) in [(&prx, &e.program), (&lrx, &e.locked)]
                    .into_iter()
                    .enumerate()
                {
                    match rx.try_pop() {
                        Pop::Value(()) => {
                            effect.store(effect.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
                            p.settle();
                        }
                        Pop::Empty => std::hint::spin_loop(),
                        Pop::Disconnected => open[k] = false,
                    }
                }
            }
        });
        // The mutex reader.
        let reader = s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                let ledger = l.lock().unwrap();
                if ledger.stamped {
                    assert!(p.outstanding() < u32::MAX / 2, "wrapped");
                } else {
                    check_locked(p, &ledger, e);
                }
            }
        });
        // The mutex raiser: every raise and unwind under the mutex, each
        // run inside `turn`, so that a sync point never finds one of its
        // runs half-pushed or with a lost tail not yet unwound.
        let locked = s.spawn(move || {
            let mut rng = Rng(seed ^ 0x5555);
            let mut raised = 0;
            while raised < N {
                let raise = |n| {
                    let mut ledger = l.lock().unwrap();
                    p.raise(n as u32);
                    ledger.issued += n;
                    raised += n;
                };
                let unwind = |n| {
                    let mut ledger = l.lock().unwrap();
                    p.unwind(n as u32);
                    ledger.issued -= n;
                };
                {
                    let _turn = t.lock().unwrap();
                    one_run(&mut rng, &ltx, raise, unwind);
                }
                locked_runs.fetch_add(1, Ordering::Relaxed);
            }
            locked_runs.store(u64::MAX, Ordering::Relaxed);
        });
        // The program raiser: toggles its stamp now and then; while it is
        // current it raises and unwinds without the mutex and publishes
        // the count when it clears the stamp, as the runtime's program
        // thread does between its locked and its lock-free delegations.
        let mut rng = Rng(seed);
        let (mut mine, mut unpublished, mut stamped) = (0u64, 0u64, false);
        let mut synced = 0u64;
        loop {
            let runs = locked_runs.load(Ordering::Relaxed);
            if mine >= N && runs == u64::MAX {
                break;
            }
            if rng.below(64) == 0 {
                let mut ledger = ledger.lock().unwrap();
                stamped = !stamped;
                ledger.stamped = stamped;
                ledger.issued += std::mem::take(&mut unpublished);
            }
            let stays = if stamped {
                let raise = |n| pending.raise_program(n as u32);
                let unwind = |n| pending.unwind_program(n as u32);
                let stays = one_run(&mut rng, &ptx, raise, unwind);
                unpublished += stays;
                stays
            } else {
                let raise = |n| {
                    let mut ledger = ledger.lock().unwrap();
                    pending.raise_program(n as u32);
                    ledger.issued += n;
                };
                let unwind = |n| {
                    let mut ledger = ledger.lock().unwrap();
                    pending.unwind_program(n as u32);
                    ledger.issued -= n;
                };
                one_run(&mut rng, &ptx, raise, unwind)
            };
            mine += stays;
            check_program(&pending, mine, &effects);
            if runs != u64::MAX && runs >= synced + 256 {
                synced = runs;
                // Clear the stamp, pause the mutex raiser between runs and
                // hold the mutex while the settler drains: the mutex
                // holder's reading of zero, with no stamp current.
                let _turn = turn.lock().unwrap();
                let mut ledger = ledger.lock().unwrap();
                stamped = false;
                ledger.stamped = false;
                ledger.issued += std::mem::take(&mut unpublished);
                while pending.outstanding() != 0 {
                    std::hint::spin_loop();
                }
                assert!(check_locked(&pending, &ledger, &effects));
                assert!(check_program(&pending, mine, &effects));
            }
        }
        drop(ptx);
        locked.join().unwrap();
        done.store(true, Ordering::Relaxed);
        reader.join().unwrap();
        unpublished
    });
    let mut l = ledger.into_inner().unwrap();
    l.issued += unpublished;
    assert!(
        check_locked(&pending, &l, &effects),
        "work left after the settler exited"
    );
}

#[test]
fn a_zero_reading_means_nothing_is_outstanding() {
    for seed in 1..=4u64 {
        run(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
}
