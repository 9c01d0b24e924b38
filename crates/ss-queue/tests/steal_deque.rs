//! Seeded-interleaving stress tests for [`StealDeque`]: producers (one in
//! the classic schedule, several in the multi-producer schedule that
//! models recursive delegation), one owner and thieves hammer a single
//! deque under per-seed jitter schedules, and the full event logs are
//! checked post-hoc against the deque's contracts:
//!
//! 1. **conservation** — every pushed item is consumed exactly once, by
//!    the owner or by exactly one steal batch;
//! 2. **owner FIFO per key** — the owner observes each key's items in
//!    push order;
//! 3. **steal batches preserve order** — within a batch, each key's items
//!    appear in push order;
//! 4. **started keys never migrate** — once the owner has popped an item
//!    of key `k`, no later steal may take `k`; post-hoc this means every
//!    stolen sequence number of `k` is smaller than every owner-popped
//!    one (steals can only precede the owner's first touch of a key).
//!
//! (The vendored toolchain has no loom; seeded schedules across several
//! seeds are the deterministic-ish substitute, and each seed runs the
//! full protocol thousands of times.)

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use ss_queue::{Backoff, StealDeque, StealTag, PUSH_SHARDS};

/// A thief's two-phase steal: scan for never-started batches, take the
/// newest half of them (the owner reaches the oldest soonest), and remove
/// those keys — re-validated under the deque lock, so a key the owner
/// started in between is skipped whole. Returns the entries taken.
fn steal_half(deque: &StealDeque<u64>, out: &mut Vec<(u64, u64)>) -> usize {
    let mut keys: Vec<u64> = deque
        .scan_candidates(&[true; PUSH_SHARDS])
        .fresh
        .iter()
        .map(|&(k, _)| k)
        .collect();
    let newest = keys.split_off(keys.len() / 2);
    deque.steal_keys_into(&newest, out);
    out.len()
}

/// Tiny xorshift so the schedules are reproducible per seed without
/// pulling the rand shim into ss-queue's dev-deps.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Jitter: mostly nothing, sometimes a yield, rarely a micro-sleep —
    /// enough scheduling noise to shake out interleavings.
    fn jitter(&mut self) {
        match self.next() % 64 {
            0 => std::thread::sleep(std::time::Duration::from_micros(50)),
            1..=6 => std::thread::yield_now(),
            _ => {}
        }
    }
}

const KEYS: u64 = 12;
const PER_KEY: u64 = 400;

/// Runs the 1-producer / 1-owner / 2-thief schedule for one seed and
/// returns `(owner_log, steal_batches)` of `(key, seq)` pairs.
#[allow(clippy::type_complexity)]
fn run_schedule(seed: u64) -> (Vec<(u64, u64)>, Vec<Vec<(u64, u64)>>) {
    let total = (KEYS * PER_KEY) as usize;
    let deque: Arc<StealDeque<u64>> = Arc::new(StealDeque::new());
    let consumed = Arc::new(AtomicUsize::new(0));
    let producer_done = Arc::new(AtomicBool::new(false));

    let mut owner_log: Vec<(u64, u64)> = Vec::new();
    let mut steal_batches: Vec<Vec<(u64, u64)>> = Vec::new();

    std::thread::scope(|s| {
        // Producer: per-key sequence numbers, key order shuffled by seed.
        {
            let deque = Arc::clone(&deque);
            let done = Arc::clone(&producer_done);
            s.spawn(move || {
                let mut rng = XorShift(seed | 1);
                let mut next_seq = [0u64; KEYS as usize];
                for _ in 0..total {
                    // Zipf-flavoured skew: low keys get most pushes, but
                    // every key gets exactly PER_KEY items overall.
                    let mut key = rng.next() % KEYS;
                    let mut probes = 0;
                    while next_seq[key as usize] == PER_KEY {
                        key = (key + 1) % KEYS;
                        probes += 1;
                        assert!(probes <= KEYS);
                    }
                    let seq = next_seq[key as usize];
                    next_seq[key as usize] += 1;
                    deque.push_keyed(key, seq);
                    rng.jitter();
                }
                done.store(true, Ordering::Release);
            });
        }

        // Two thieves, each stealing into a private batch list.
        let mut thief_handles = Vec::new();
        for t in 0..2u64 {
            let deque = Arc::clone(&deque);
            let consumed = Arc::clone(&consumed);
            let done = Arc::clone(&producer_done);
            thief_handles.push(s.spawn(move || {
                let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9) ^ (t + 1));
                let mut batches = Vec::new();
                loop {
                    rng.jitter();
                    let mut out = Vec::new();
                    let n = steal_half(&deque, &mut out);
                    if n > 0 {
                        consumed.fetch_add(n, Ordering::AcqRel);
                        batches.push(out);
                    } else if done.load(Ordering::Acquire) && deque.is_empty() {
                        break;
                    }
                }
                batches
            }));
        }

        // Owner: pops until everything produced has been consumed.
        {
            let deque = Arc::clone(&deque);
            let consumed = Arc::clone(&consumed);
            let mut rng = XorShift(seed ^ 0xDEAD_BEEF);
            let backoff = Backoff::new();
            while consumed.load(Ordering::Acquire) < total {
                match deque.pop() {
                    Some((StealTag::Key(k), seq)) => {
                        owner_log.push((k, seq));
                        consumed.fetch_add(1, Ordering::AcqRel);
                        backoff.reset();
                    }
                    Some((StealTag::Fence, _)) => unreachable!("no fences pushed"),
                    None => backoff.snooze(),
                }
                rng.jitter();
            }
        }

        for h in thief_handles {
            steal_batches.extend(h.join().unwrap());
        }
    });

    (owner_log, steal_batches)
}

#[test]
fn stress_push_pop_steal_invariants() {
    for seed in [3, 7, 0x5EED, 0xBAD_CAFE] {
        let (owner_log, steal_batches) = run_schedule(seed);

        // 1. Conservation: exactly one consumption per pushed item.
        let mut seen: HashMap<(u64, u64), u32> = HashMap::new();
        for &(k, s) in owner_log.iter().chain(steal_batches.iter().flatten()) {
            *seen.entry((k, s)).or_insert(0) += 1;
        }
        assert_eq!(seen.len() as u64, KEYS * PER_KEY, "seed {seed}: items lost");
        assert!(
            seen.values().all(|&c| c == 1),
            "seed {seed}: items duplicated"
        );

        // 2. Owner FIFO per key.
        let mut last: HashMap<u64, u64> = HashMap::new();
        for &(k, s) in &owner_log {
            if let Some(prev) = last.insert(k, s) {
                assert!(prev < s, "seed {seed}: owner reordered key {k}");
            }
        }

        // 3. Steal batches preserve per-key push order.
        for batch in &steal_batches {
            let mut last: HashMap<u64, u64> = HashMap::new();
            for &(k, s) in batch {
                if let Some(prev) = last.insert(k, s) {
                    assert!(prev < s, "seed {seed}: batch reordered key {k}");
                }
            }
        }

        // 4. Started keys never migrate: all stolen seqs of a key precede
        // all owner-popped seqs of that key.
        let mut max_stolen: HashMap<u64, u64> = HashMap::new();
        for &(k, s) in steal_batches.iter().flatten() {
            let e = max_stolen.entry(k).or_insert(0);
            *e = (*e).max(s);
        }
        let mut min_owner: HashMap<u64, u64> = HashMap::new();
        for &(k, s) in &owner_log {
            let e = min_owner.entry(k).or_insert(u64::MAX);
            *e = (*e).min(s);
        }
        for (k, &hi) in &max_stolen {
            if let Some(&lo) = min_owner.get(k) {
                assert!(
                    hi < lo,
                    "seed {seed}: key {k} was stolen (seq {hi}) after the owner started it (seq {lo})"
                );
            }
        }
    }
}

/// Multi-producer stress (the recursive-delegation shape): N producers —
/// the runtime's program thread plus delegate contexts — race a thief and
/// the owner on one deque, each producer pushing its own disjoint key
/// space under seeded jitter. Checked post-hoc:
///
/// 1. conservation — every pushed item consumed exactly once;
/// 2. per-key FIFO — each key's items are observed in push order, whether
///    the owner popped them or a steal batch carried them (a key's items
///    come from one producer, so push order is well defined);
/// 3. started keys never migrate — every stolen sequence number of a key
///    precedes every owner-popped one.
#[test]
fn stress_multi_producer_racing_thief() {
    const PRODUCERS: u64 = 3;
    const KEYS_PER_PRODUCER: u64 = 6;
    const PER_KEY_MP: u64 = 250;
    for seed in [11, 0xFEED, 0xABCDEF] {
        let total = (PRODUCERS * KEYS_PER_PRODUCER * PER_KEY_MP) as usize;
        let deque: Arc<StealDeque<u64>> = Arc::new(StealDeque::new());
        let consumed = Arc::new(AtomicUsize::new(0));
        let producers_done = Arc::new(AtomicUsize::new(0));

        let mut owner_log: Vec<(u64, u64)> = Vec::new();
        let mut steal_batches: Vec<Vec<(u64, u64)>> = Vec::new();

        std::thread::scope(|s| {
            // N producers, each with a private key range [p*K, (p+1)*K).
            for p in 0..PRODUCERS {
                let deque = Arc::clone(&deque);
                let done = Arc::clone(&producers_done);
                s.spawn(move || {
                    let mut rng = XorShift((seed + p) | 1);
                    let mut next_seq = [0u64; KEYS_PER_PRODUCER as usize];
                    for _ in 0..KEYS_PER_PRODUCER * PER_KEY_MP {
                        let mut slot = rng.next() % KEYS_PER_PRODUCER;
                        while next_seq[slot as usize] == PER_KEY_MP {
                            slot = (slot + 1) % KEYS_PER_PRODUCER;
                        }
                        let key = p * KEYS_PER_PRODUCER + slot;
                        let seq = next_seq[slot as usize];
                        next_seq[slot as usize] += 1;
                        deque.push_keyed(key, seq);
                        rng.jitter();
                    }
                    done.fetch_add(1, Ordering::AcqRel);
                });
            }

            // One thief.
            let thief = {
                let deque = Arc::clone(&deque);
                let consumed = Arc::clone(&consumed);
                let done = Arc::clone(&producers_done);
                s.spawn(move || {
                    let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9) | 1);
                    let mut batches = Vec::new();
                    loop {
                        rng.jitter();
                        let mut out = Vec::new();
                        let n = steal_half(&deque, &mut out);
                        if n > 0 {
                            consumed.fetch_add(n, Ordering::AcqRel);
                            batches.push(out);
                        } else if done.load(Ordering::Acquire) == PRODUCERS as usize
                            && deque.is_empty()
                        {
                            break;
                        }
                    }
                    batches
                })
            };

            // Owner pops until everything produced has been consumed.
            {
                let mut rng = XorShift(seed ^ 0xDEAD_BEEF);
                let backoff = Backoff::new();
                while consumed.load(Ordering::Acquire) < total {
                    match deque.pop() {
                        Some((StealTag::Key(k), seq)) => {
                            owner_log.push((k, seq));
                            consumed.fetch_add(1, Ordering::AcqRel);
                            backoff.reset();
                        }
                        Some((StealTag::Fence, _)) => unreachable!("no fences pushed"),
                        None => backoff.snooze(),
                    }
                    rng.jitter();
                }
            }

            steal_batches.extend(thief.join().unwrap());
        });

        // 1. Conservation.
        let mut seen: HashMap<(u64, u64), u32> = HashMap::new();
        for &(k, s) in owner_log.iter().chain(steal_batches.iter().flatten()) {
            *seen.entry((k, s)).or_insert(0) += 1;
        }
        assert_eq!(
            seen.len(),
            total,
            "seed {seed}: items lost under multi-producer push"
        );
        assert!(seen.values().all(|&c| c == 1), "seed {seed}: duplicated");

        // 2. Per-key FIFO across owner pops and steal batches combined:
        // a key's consumption order is owner pops (in order) plus stolen
        // batches (in batch order); both subsequences must be increasing,
        // and (3) stolen seqs must all precede owner-popped ones.
        let mut last_owner: HashMap<u64, u64> = HashMap::new();
        let mut min_owner: HashMap<u64, u64> = HashMap::new();
        for &(k, s) in &owner_log {
            if let Some(prev) = last_owner.insert(k, s) {
                assert!(prev < s, "seed {seed}: owner reordered key {k}");
            }
            let e = min_owner.entry(k).or_insert(u64::MAX);
            *e = (*e).min(s);
        }
        // Batches come from a single thief, so their vec order is temporal
        // order: per-key seqs must increase within *and across* batches.
        let mut max_stolen: HashMap<u64, u64> = HashMap::new();
        let mut last_stolen: HashMap<u64, u64> = HashMap::new();
        for batch in &steal_batches {
            for &(k, s) in batch {
                if let Some(prev) = last_stolen.insert(k, s) {
                    assert!(prev < s, "seed {seed}: steals reordered key {k}");
                }
                let e = max_stolen.entry(k).or_insert(0);
                *e = (*e).max(s);
            }
        }
        for (k, &hi) in &max_stolen {
            if let Some(&lo) = min_owner.get(k) {
                assert!(
                    hi < lo,
                    "seed {seed}: key {k} stolen (seq {hi}) after the owner started it (seq {lo})"
                );
            }
        }
    }
}

/// Epoch boundaries under concurrency: after `begin_epoch`, previously
/// started keys become stealable again — and the whole protocol still
/// conserves items.
#[test]
fn stress_epoch_rollover_reopens_started_keys() {
    let deque: Arc<StealDeque<u64>> = Arc::new(StealDeque::new());
    for epoch in 0..50u64 {
        // Owner starts key 1, leaving a tail; key 2 queued untouched.
        for i in 0..4 {
            deque.push_keyed(1, epoch * 10 + i);
            deque.push_keyed(2, epoch * 10 + i);
        }
        assert!(matches!(deque.pop(), Some((StealTag::Key(1), _))));
        let mut out = Vec::new();
        steal_half(&deque, &mut out);
        assert!(
            out.iter().all(|(k, _)| *k == 2),
            "started key stolen mid-epoch"
        );
        // Drain the rest as the owner would, then roll the epoch.
        while deque.pop().is_some() {}
        deque.begin_epoch();
        // Fresh epoch: key 1 is stealable again.
        deque.push_keyed(1, 999);
        let mut out = Vec::new();
        assert_eq!(steal_half(&deque, &mut out), 1);
        deque.begin_epoch();
    }
}
