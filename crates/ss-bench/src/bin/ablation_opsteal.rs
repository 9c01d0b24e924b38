//! Ablation: work stealing between delegate queues, off vs on.
//!
//! The serialization effect this prices (Niethammer et al.): static
//! assignment can pile most of an epoch's work onto one delegate while
//! the others idle, and delegates may not execute operations outside
//! their own queue. With stealing on, an idle delegate takes half the
//! depth imbalance off the deepest peer — first the queued tails of
//! started sets (after a quiescence handshake proves no operation of the
//! set is in flight on the owner), then never-started sets
//! (`docs/ARCHITECTURE.md`, "Work stealing").
//!
//! Four shapes, each run with stealing `off` and on (`steal`):
//!
//! * `uniform` — interleaved arrival, ids spread across both queues,
//!   pure CPU: the overhead control. Nothing is worth stealing, so any
//!   gap vs `off` is the price of the stealing transport.
//! * `zipf-skew` — Zipf-popular sets, ids aliased onto delegate 0, every
//!   set *started* via a streamed warm-up before its body queues. Pure
//!   CPU work: only a started set's tail can move.
//! * `zipf-stall` — the same started hot queue, but every operation
//!   stalls (sleep, modelling IO-ish latency): the tails are pure overlap
//!   opportunity, a wall-clock win on any host.
//! * `hot-stall` — the only shape with unequal per-operation costs:
//!   batched Zipf arrival onto delegate 0, and only the hottest set
//!   stalls. Under `off` every other set is trapped behind the stalls;
//!   a thief pulls the ready sets out and overlaps them with the stalls.
//!
//! Output: a table plus `bench ablation_opsteal/<shape>/<policy>
//! median_ns=<n>` lines that `scripts/record_baseline.sh` folds into
//! `BENCH_baseline.json`. Two gates: identical result fingerprints per
//! shape with stealing off and on (stealing must be a pure scheduling
//! choice), and `steal` ≥ 1.15x over `off` on `zipf-stall`.

use ss_bench::*;
use ss_core::{NullSerializer, Runtime, Writable};
use ss_workloads::rng::{rng, Zipf};

const DELEGATES: usize = 2;

/// CPU component of one operation.
fn work(seed: u64, rounds: u32) -> u64 {
    let mut x = seed | 1;
    for _ in 0..rounds {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ seed;
    }
    x
}

struct Shape {
    name: &'static str,
    sets: usize,
    /// Set-index → set-id multiplier; `DELEGATES` aliases every set onto
    /// delegate 0 under the static modulus.
    id_stride: usize,
    /// Body schedule: op i → set index (the warm-up prefix is implicit).
    schedule: Vec<usize>,
    /// Whether to *start* every set before its body queues, so only
    /// tails can move: delegates 1..n are first occupied with a stall
    /// filler each (an idle thief could otherwise race the owner for the
    /// warm-up ops), then one cheap op per set is delegated and
    /// **waited** — at most one set is ever fresh at an instant, and once
    /// its future resolves the set is started wherever it ran.
    warm_start: bool,
    /// CPU rounds per body op of a set that does not stall.
    rounds: u32,
    /// Sets whose body ops stall (sleep) instead of computing.
    stall_sets: Vec<usize>,
    /// Stall length per op, microseconds.
    stall_us: u64,
}

fn shapes(ops: usize) -> Vec<Shape> {
    let mut r = rng(0x0057_EA17, 0);
    // Interleaved Zipf arrival: ops of hot and cold sets mingle, so the
    // owner starts every set almost immediately even without the
    // explicit warm-up — the anti-batched shape.
    let zipf = Zipf::new(16, 1.1);
    let zipf_interleaved: Vec<usize> = (0..ops).map(|_| zipf.sample(&mut r)).collect();
    // Batched arrival: per-set op counts drawn from a Zipf over 64 sets,
    // each set's operations emitted contiguously, hottest set first.
    let mut r = rng(0x57EA_1157, 0);
    let zipf = Zipf::new(64, 1.1);
    let mut counts = [0usize; 64];
    for _ in 0..ops {
        counts[zipf.sample(&mut r)] += 1;
    }
    let zipf_batched: Vec<usize> = (0..64).flat_map(|s| vec![s; counts[s]]).collect();
    vec![
        Shape {
            name: "uniform",
            sets: 64,
            id_stride: 1,
            schedule: (0..ops).map(|i| i % 64).collect(),
            warm_start: false,
            rounds: 2_000,
            stall_sets: vec![],
            stall_us: 0,
        },
        Shape {
            name: "zipf-skew",
            sets: 16,
            id_stride: DELEGATES,
            schedule: zipf_interleaved,
            warm_start: true,
            rounds: 2_000,
            stall_sets: vec![],
            stall_us: 0,
        },
        Shape {
            name: "zipf-stall",
            sets: 16,
            id_stride: DELEGATES,
            // Uniform round-robin tails: per-set FIFO bounds how much one
            // set's serial chain can dominate, so the overlap headroom is
            // delegate-count, not Zipf-head, limited.
            schedule: (0..16 * 32).map(|i| i % 16).collect(),
            warm_start: true,
            rounds: 0,
            stall_sets: (0..16).collect(),
            stall_us: 100,
        },
        Shape {
            name: "hot-stall",
            sets: 64,
            id_stride: DELEGATES,
            schedule: zipf_batched,
            warm_start: false,
            rounds: 16_000,
            // Rank 0 is the Zipf head (~25% of all ops at s = 1.1).
            stall_sets: vec![0],
            stall_us: 100,
        },
    ]
}

/// Runs one (shape, policy) pair; returns `(fingerprint, spread, steals,
/// op_steals)`.
fn run(rt: &Runtime, shape: &Shape) -> (u64, f64, u64, u64) {
    let cells: Vec<Writable<u64, NullSerializer>> =
        (0..shape.sets).map(|_| Writable::new(rt, 0u64)).collect();
    let fillers: Vec<Writable<u64, NullSerializer>> = (0..DELEGATES - 1)
        .map(|_| Writable::new(rt, 0u64))
        .collect();
    let stall = std::time::Duration::from_micros(shape.stall_us);
    rt.begin_isolation().unwrap();
    if shape.warm_start {
        // Occupy every non-owner delegate with one 10ms stall (ids 1..n
        // route past the aliased stride-0 queue), so no thief is idle —
        // and racing the owner — while the sets warm up below.
        for (d, f) in fillers.iter().enumerate() {
            f.delegate_in((d + 1) as u64, |acc| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                *acc += 1;
            })
            .unwrap();
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        // One waited cheap op per set: when the future resolves the set
        // is *started* (wherever it ran), and waiting keeps at most one
        // set fresh at any instant — a lucky thief can re-place single
        // fresh sets one at a time, never sweep half the pool.
        for (s, cell) in cells.iter().enumerate() {
            cell.delegate_in_with((s * shape.id_stride) as u64, |acc| {
                *acc = acc.wrapping_add(1);
            })
            .unwrap()
            .wait()
            .unwrap();
        }
    }
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
        .chain(fillers.iter())
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
    (fp, spread, stats.steals, stats.op_steals)
}

fn main() {
    let reps = env_reps();
    let ops = match env_scale() {
        ss_workloads::scale::Scale::S => 4_000,
        ss_workloads::scale::Scale::M => 16_000,
        ss_workloads::scale::Scale::L => 64_000,
    };
    println!(
        "Ablation: work stealing off vs on \
         ({DELEGATES} delegates, {ops} ops/run, host threads: {})\n",
        host_threads()
    );

    let policies = [("off", false), ("steal", true)];
    let mut table = Table::new(&[
        "shape",
        "policy",
        "time",
        "vs off",
        "load max/mean",
        "steals",
        "op-steals",
    ]);
    let mut gate: Vec<(String, u64)> = Vec::new();
    let mut bench_lines: Vec<String> = Vec::new();
    let mut stall_times = Vec::new();
    for shape in shapes(ops) {
        let mut off_time = None;
        for (name, stealing) in policies {
            let mut spread = 1.0;
            let mut steals = 0;
            let mut op_steals = 0;
            let mut fp = 0;
            let (t, _) = measure(reps, || {
                let rt = Runtime::builder()
                    .delegate_threads(DELEGATES)
                    .queue_capacity(8192) // keep SPSC backpressure out of the comparison
                    .stealing(stealing)
                    .build()
                    .unwrap();
                let (f, s, st, ost) = run(&rt, &shape);
                fp = f;
                spread = s;
                steals = st;
                op_steals = ost;
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
                op_steals.to_string(),
            ]);
            gate.push((format!("{}/{}", shape.name, name), fp));
            bench_lines.push(format!(
                "bench ablation_opsteal/{}/{} median_ns={}",
                shape.name,
                name,
                t.as_nanos()
            ));
            if shape.name == "zipf-stall" {
                stall_times.push(t);
            }
        }
    }
    println!("{}", table.render());

    // Correctness gate: stealing must be observationally free.
    for chunk in gate.chunks(policies.len()) {
        let first = chunk[0].1;
        for (label, fp) in chunk {
            assert_eq!(*fp, first, "{label} fingerprint diverged");
        }
    }
    println!("Stealing off and on produced identical fingerprints per shape.\n");
    for line in &bench_lines {
        println!("{line}");
    }

    // Acceptance gate: stealing earns its transport on the shape it was
    // built for. Sleep overlap does not need extra cores, so this holds
    // on any host; the 1.15x bar leaves a wide noise margin.
    let (off, steal) = (stall_times[0], stall_times[1]);
    let ratio = off.as_secs_f64() / steal.as_secs_f64();
    println!("\nzipf-stall: steal {ratio:.2}x over off (acceptance bar: ≥ 1.15x).");
    assert!(
        ratio >= 1.15,
        "stealing under-delivered on zipf-stall: {ratio:.2}x < 1.15x \
         (off {off:?}, steal {steal:?})"
    );
    println!(
        "Expected: `uniform` ties (the stealing transport is the only\n\
         cost); `zipf-skew` and `zipf-stall` spread the started hot\n\
         queue's tails (max/mean → ~1), `zipf-stall` and `hot-stall` win\n\
         wall clock on any host. Guidance: docs/POLICIES.md."
    );
}
