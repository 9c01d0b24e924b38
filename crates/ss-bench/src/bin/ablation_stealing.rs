//! Ablation: work stealing between delegate queues under skewed set
//! popularity.
//!
//! The serialization effect this repairs: with static assignment, a
//! Zipf-distributed set popularity can pile most of an epoch's work onto
//! one delegate queue while the others idle — delegates may not execute
//! operations outside their own queue, so the idle capacity is simply
//! lost. `StealPolicy::WhenIdle` / `Threshold(d)` let an idle delegate
//! migrate *never-started* sets (whole batches, pins rewritten atomically)
//! off the deepest peer queue.
//!
//! Because only *never-started* sets may migrate, stealing pays off when
//! sets arrive as **batches** (all of set A's operations, then set B's —
//! the natural shape of per-file / per-object processing and of `doall`):
//! the victim is stuck inside its first batch while the batches queued
//! behind it are never-started and free to move. With finely interleaved
//! arrival the owner "starts" every set within its first few pops and
//! correctly keeps them — the pinning invariant, working as designed.
//!
//! Three workload shapes over 64 sets, all with ≥ 4 delegates:
//!
//! * `uniform` — equal popularity, interleaved arrival, ids spread across
//!   all queues: the overhead control. Nothing is ever stealable, so any
//!   gap vs `off` is the price of the routing lock.
//! * `zipf-skew` — Zipf(s = 1.1) popularity, batched arrival, ids aliased
//!   so **every** set routes to delegate 0 (the pathological hot queue).
//!   Pure CPU work. On a single-core host the win shows up as load
//!   spread, not wall time; with real cores it is wall time too.
//! * `zipf-stall` — same hot-queue skew, but the hottest set's operations
//!   *stall* (a `sleep` models long-latency work: a page fault, an IO
//!   wait, a remote fetch). Under `off`, every other set is trapped
//!   behind the stalls in the same queue; with stealing, idle delegates
//!   pull the ready sets out and overlap them with the stalls — a wall
//!   clock win even on one core.
//!
//! Reported per (shape, policy): wall time, speedup vs `off`, delegate
//! load spread (`max/mean` of executed ops; 1.00 = perfect balance),
//! steals, and failed steal attempts. A final gate asserts every policy
//! produced the identical fingerprint per shape — stealing must be a pure
//! scheduling choice.

use ss_bench::*;
use ss_core::{NullSerializer, Runtime, StealPolicy, Writable};
use ss_workloads::rng::{rng, Zipf};

const SETS: usize = 64;
const DELEGATES: usize = 4;

/// CPU component of one operation: a few thousand rounds of a cheap mix,
/// so operations are chunky enough that scheduling (not queue traffic)
/// dominates.
fn work(seed: u64, rounds: u32) -> u64 {
    let mut x = seed | 1;
    for _ in 0..rounds {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ seed;
    }
    x
}

struct Shape {
    name: &'static str,
    /// Set-index → serialization-set id multiplier. `DELEGATES` aliases
    /// every id onto delegate 0 under the static modulus (ids stay
    /// distinct, so sets stay distinct — only the *routing* collides).
    id_stride: usize,
    /// op i → set index.
    schedule: Vec<usize>,
    /// CPU rounds per op.
    rounds: u32,
    /// Sets whose operations stall (sleep) instead of computing.
    stall_sets: Vec<usize>,
    /// Stall length per op, microseconds.
    stall_us: u64,
}

fn shapes(ops: usize) -> Vec<Shape> {
    let mut r = rng(0x57EA_1157, 0);
    let zipf = Zipf::new(SETS, 1.1);
    // Batched arrival: draw the per-set op counts from the Zipf, then
    // emit each set's operations contiguously, hottest set first.
    let mut counts = [0usize; SETS];
    for _ in 0..ops {
        counts[zipf.sample(&mut r)] += 1;
    }
    let zipf_batched: Vec<usize> = (0..SETS).flat_map(|s| vec![s; counts[s]]).collect();
    vec![
        Shape {
            name: "uniform",
            id_stride: 1,
            schedule: (0..ops).map(|i| i % SETS).collect(),
            rounds: 2_000,
            stall_sets: vec![],
            stall_us: 0,
        },
        Shape {
            name: "zipf-skew",
            id_stride: DELEGATES,
            schedule: zipf_batched.clone(),
            rounds: 2_000,
            stall_sets: vec![],
            stall_us: 0,
        },
        Shape {
            name: "zipf-stall",
            id_stride: DELEGATES,
            schedule: zipf_batched,
            rounds: 16_000,
            // Rank 0 is the Zipf head (~25% of all ops at s = 1.1).
            stall_sets: vec![0],
            stall_us: 100,
        },
    ]
}

/// Runs one (shape, policy) pair; returns `(fingerprint, spread, steals,
/// steal_failures)`.
fn run(rt: &Runtime, shape: &Shape) -> (u64, f64, u64, u64) {
    let cells: Vec<Writable<u64, NullSerializer>> =
        (0..SETS).map(|_| Writable::new(rt, 0u64)).collect();
    let stall = std::time::Duration::from_micros(shape.stall_us);
    rt.begin_isolation().unwrap();
    for (i, &s) in shape.schedule.iter().enumerate() {
        let seed = i as u64;
        let rounds = shape.rounds;
        let stalls = shape.stall_sets.contains(&s);
        cells[s]
            .delegate_in((s * shape.id_stride) as u64, move |acc| {
                if stalls {
                    std::thread::sleep(stall);
                    *acc = acc.wrapping_add(seed);
                } else {
                    *acc = acc.wrapping_add(work(seed, rounds));
                }
            })
            .unwrap();
    }
    rt.end_isolation().unwrap();
    let fp = cells
        .iter()
        .map(|c| c.call(|v| *v).unwrap())
        .fold(0u64, |a, b| a.rotate_left(7) ^ b);
    let stats = rt.stats();
    let executed = &stats.delegate_executed;
    let total: u64 = executed.iter().sum();
    let spread = if total == 0 {
        1.0
    } else {
        let mean = total as f64 / executed.len() as f64;
        executed.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0)
    };
    (fp, spread, stats.steals, stats.steal_failures)
}

fn main() {
    let reps = env_reps();
    let ops = match env_scale() {
        ss_workloads::scale::Scale::S => 4_000,
        ss_workloads::scale::Scale::M => 16_000,
        ss_workloads::scale::Scale::L => 64_000,
    };
    println!(
        "Ablation: work stealing between delegate queues \
         ({DELEGATES} delegates = {DELEGATES} virtual, {SETS} sets, {ops} ops/run, \
         host threads: {})\n",
        host_threads()
    );

    let policies: [(&str, StealPolicy); 4] = [
        ("off", StealPolicy::Off),
        ("when-idle", StealPolicy::WhenIdle),
        ("threshold-8", StealPolicy::Threshold(8)),
        ("threshold-64", StealPolicy::Threshold(64)),
    ];

    let mut table = Table::new(&[
        "shape",
        "policy",
        "time",
        "vs off",
        "load max/mean",
        "steals",
        "failed",
    ]);
    let mut fingerprints: Vec<(String, u64)> = Vec::new();
    for shape in shapes(ops) {
        let mut off_time = None;
        for (name, policy) in &policies {
            let mut spread = 1.0;
            let mut steals = 0;
            let mut failures = 0;
            let mut fp = 0;
            let (t, _) = measure(reps, || {
                let rt = Runtime::builder()
                    .delegate_threads(DELEGATES)
                    .queue_capacity(8192) // keep SPSC backpressure out of the comparison
                    .stealing(*policy)
                    .build()
                    .unwrap();
                let (f, s, st, fl) = run(&rt, &shape);
                fp = f;
                spread = s;
                steals = st;
                failures = fl;
                f
            });
            let baseline = *off_time.get_or_insert(t);
            table.row(vec![
                shape.name.to_string(),
                name.to_string(),
                fmt_dur(t),
                format!("{:.2}x", baseline.as_secs_f64() / t.as_secs_f64()),
                format!("{spread:.2}"),
                steals.to_string(),
                failures.to_string(),
            ]);
            fingerprints.push((format!("{}/{}", shape.name, name), fp));
        }
    }
    println!("{}", table.render());

    // Correctness gate: stealing must be observationally free.
    for chunk in fingerprints.chunks(policies.len()) {
        let first = chunk[0].1;
        for (label, fp) in chunk {
            assert_eq!(*fp, first, "{label} fingerprint diverged");
        }
    }
    println!(
        "\nAll policies produced identical fingerprints per shape.\n\
         Expected: `uniform` ties (steals ≈ 0 — the routing lock is the\n\
         only cost); `zipf-skew` recovers load balance (max/mean → ~1)\n\
         and, on multi-core hosts, wall time; `zipf-stall` shows the\n\
         full serialization effect — ready sets trapped behind a stalled\n\
         hot queue — which stealing repairs on any host."
    );
}
