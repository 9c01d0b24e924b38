//! Cross-thread stress test for the SPSC ring's claim protocol: a producer
//! that retracts at random from the unclaimed end while its consumer claims
//! batches from the other. Every value must be delivered exactly once —
//! to the consumer by a pop, or back to the producer by a retraction — and
//! in push order on each side: the consumer's stream, and every retracted
//! run. (Runs need not ascend across retractions: a later one may take an
//! older value that an earlier one left in place.)
//!
//! The consumer also retires as it goes, now and then holding a popped
//! value back for a few pops and retiring only below it. The producer
//! checks the cursor at every retraction: it never moves back, never
//! passes a held value's index, and whatever the consumer finished before
//! retiring is visible to the producer that reads it.

use std::sync::atomic::{AtomicU64, Ordering};

use ss_queue::{Full, Pop, SpscQueue};

/// Values pushed per run.
const N: u64 = 200_000;

/// xorshift64*: a seeded, dependency-free generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One run: returns (popped by the consumer, retracted by the producer).
fn run(capacity: usize, seed: u64, retract_one_in: u64) -> (Vec<u64>, Vec<u64>) {
    let (mut tx, rx) = SpscQueue::with_capacity(capacity);
    // Values the consumer has finished with: stored before each retire.
    let finished = AtomicU64::new(0);
    std::thread::scope(|s| {
        let finished = &finished;
        let consumer = s.spawn(move || {
            let mut got = Vec::with_capacity(N as usize);
            let mut rng = Rng(seed ^ 0x5EED);
            // A popped value held back: its index and when it is done.
            let mut held: Option<(u64, u64)> = None;
            loop {
                let index = rx.popped();
                match rx.try_pop() {
                    Pop::Value(v) => {
                        got.push(v);
                        if held.is_none() && rng.below(8) == 0 {
                            held = Some((index, got.len() as u64 + rng.below(4)));
                        }
                    }
                    Pop::Empty => std::hint::spin_loop(),
                    Pop::Disconnected => return got,
                }
                if held.is_some_and(|(_, until)| got.len() as u64 >= until) {
                    held = None;
                }
                let done = got.len() as u64 - u64::from(held.is_some());
                finished.store(done, Ordering::Relaxed);
                rx.retire(held.map_or(rx.popped(), |(index, _)| index));
            }
        });
        let mut rng = Rng(seed);
        let mut back = Vec::new();
        let mut taken = Vec::new();
        let mut next = 0;
        let mut retired = 0;
        while next < N {
            if rng.below(retract_one_in) == 0 {
                let r = tx.retired();
                assert!(r >= retired, "the retired cursor moved back");
                assert!(r <= tx.head(), "retired past the head");
                // Every value below the cursor was finished before the
                // Release that published it.
                assert!(finished.load(Ordering::Relaxed) >= r, "retired unfinished");
                retired = r;
                let from = tx.head().saturating_sub(tx.capacity() as u64);
                if let Some(held) = tx.retract(from) {
                    // Nothing retired is retractable: the consumer popped it.
                    assert!(retired <= held.start(), "retired past the claim");
                    let (start, end) = (held.start(), held.end());
                    // The held values are still in push order.
                    assert!((start + 1..end).all(|i| held.get(i - 1) < held.get(i)));
                    let cut = start + rng.below(end - start + 1);
                    held.pop_from(cut, &mut taken);
                    assert!(taken.windows(2).all(|w| w[0] < w[1]), "run out of order");
                    back.append(&mut taken);
                }
                continue;
            }
            match tx.try_push(next) {
                Ok(()) => next += 1,
                Err(Full(_)) => std::hint::spin_loop(),
            }
        }
        drop(tx);
        (consumer.join().expect("consumer panicked"), back)
    })
}

fn check(capacity: usize, seed: u64, retract_one_in: u64) {
    let (popped, mut back) = run(capacity, seed, retract_one_in);
    assert!(
        popped.windows(2).all(|w| w[0] < w[1]),
        "consumer out of order"
    );
    assert!(!popped.is_empty() && !back.is_empty(), "no race was run");
    back.sort_unstable();
    let (mut i, mut j) = (0, 0);
    for v in 0..N {
        match (popped.get(i), back.get(j)) {
            (Some(&p), _) if p == v => i += 1,
            (_, Some(&b)) if b == v => j += 1,
            _ => panic!("value {v} lost (seed {seed}, capacity {capacity})"),
        }
    }
    assert_eq!(
        (i, j),
        (popped.len(), back.len()),
        "a value delivered twice"
    );
}

#[test]
fn every_value_is_delivered_once_on_a_small_ring() {
    for seed in 1..=4 {
        check(8, seed, 16);
    }
}

#[test]
fn every_value_is_delivered_once_on_a_claim_sized_ring() {
    for seed in 1..=4 {
        check(128, seed * 7919, 64);
    }
}

#[test]
fn every_value_is_delivered_once_under_constant_retraction() {
    check(32, 42, 2);
}
