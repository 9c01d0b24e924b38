//! Runs one workload in this process and reduces it to metrics.
//!
//! Every workload is a closed loop on one program thread over
//! `Runtime::builder()`'s defaults (`nproc - 1` delegates), threads placed
//! by [`crate::pin`]. Work comes in fixed blocks, so counts repeat
//! exactly; blocks repeat, alternating with the sequential interpreter
//! and interleaved with the future round-trip probe, until the run's time
//! is spent. Every timing is a median, over epochs or over blocks.

use std::hint::black_box;
use std::time::{Duration, Instant};

use prometheus_rs::prelude::{Runtime, Stats};

use crate::apps;
use crate::host;
use crate::metrics::Metrics;
use crate::pin;
use crate::probes;
use crate::rtt::RoundTrips;
use crate::stats::{median, median_ns, percentile_ns};
use crate::synth::{Input, Mirror, Mode, Program, Shape, COUNTED, MUTATE_PERIOD, PLAIN, TRACED};
use crate::trace::Recorder;

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `smoke`: every size divided by about fifty.
    pub smoke: bool,
    /// `smoke`'s proof that the oracle bites: a deliberately wrong
    /// expectation, which must come back as failed operations.
    pub sabotage: bool,
}

impl Opts {
    /// The part of `--seconds` the measuring loop may use; the rest pays
    /// for the counted block and for reading results back.
    pub fn loop_budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * 0.95)
    }

    pub fn probe_scale(&self) -> probes::Scale {
        probes::Scale(if self.smoke { 50 } else { 1 })
    }
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// An oracle mismatch fails every operation of the workload.
    pub fn new(attempted: u64, failed: u64, mismatches: u64, metrics: Metrics) -> Outcome {
        let failed = if mismatches > 0 { attempted } else { failed };
        Outcome {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        }
    }
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "apps" => Ok(apps::run(opts)),
        name => match spec(name, opts.smoke) {
            Some(spec) => Ok(run_synth(opts, &spec)),
            None => Err(format!("unknown workload {name}")),
        },
    }
}

/// A synthetic workload.
struct Spec {
    shape: Shape,
    /// Share of the measuring loop given to future round trips.
    rtt_share: f64,
    /// Sequential blocks per timing sample: a block of multiply-adds takes
    /// half a millisecond, too short to time alone.
    seq_reps: u32,
}

fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let shape = |sets, ops_per_set, epochs_per_block, rounds, mode| Shape {
        sets,
        ops_per_set,
        epochs_per_block,
        rounds,
        mode,
    };
    // Block lengths give 0.1-0.3 s of work on the 2-CPU reference host.
    let (mut shape, rtt_share, seq_reps) = match name {
        "wide-tiny" => (shape(4096, 16, 8, 0, Mode::Void), 0.1, 32),
        "chunky" => (shape(64, 16, 4, 20_000, Mode::Void), 0.1, 1),
        "epoch-churn" => (shape(8, 4, 10_000, 0, Mode::Void), 0.1, 32),
        "futures" => (shape(4096, 4, 10, 0, Mode::Future), 0.4, 32),
        "incremental" => (shape(64, 4, 50, 8_000, Mode::Memo), 0.1, 1),
        _ => return None,
    };
    if smoke {
        // Memo blocks stay a multiple of the mutation period.
        let floor = if shape.mode == Mode::Memo {
            MUTATE_PERIOD as usize
        } else {
            1
        };
        shape.epochs_per_block = (shape.epochs_per_block / 50).max(floor);
    }
    Some(Spec {
        shape,
        rtt_share,
        seq_reps,
    })
}

pub fn build_runtime(memo: bool) -> Runtime {
    let b = Runtime::builder();
    pin::build(if memo { b.memo_capacity(4096) } else { b })
}

/// Sets up `reps` times and returns the last set-up with the median time.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        // The previous set-up (and its delegate threads) goes first, so
        // set-ups never overlap and tear-down is not timed.
        drop(kept.take());
        let start = Instant::now();
        kept = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), median(&mut times))
}

/// The counters that must repeat exactly from block to block.
fn counts(s: &Stats) -> [u64; 8] {
    [
        s.delegations,
        s.executed,
        s.futures_resolved,
        s.memo_hits,
        s.memo_misses,
        s.isolation_epochs,
        s.tasks_boxed,
        s.tasks_inline,
    ]
}

/// Per-layer counts of a fixed piece of work, from `Runtime::stats()`
/// taken before and after it.
pub fn layer_counts(m: &mut Metrics, after: &Stats, before: &Stats) {
    type Counter = fn(&Stats) -> u64;
    let delta = |field: Counter| (field(after) - field(before)) as f64;
    let counters: [(&str, Counter); 16] = [
        ("core.wrappers.tasks_inline", |s| s.tasks_inline),
        ("core.wrappers.tasks_boxed", |s| s.tasks_boxed),
        ("core.runtime.epoch.isolation_epochs", |s| {
            s.isolation_epochs
        }),
        ("core.runtime.dispatch.delegations", |s| s.delegations),
        ("core.runtime.dispatch.inline_executions", |s| {
            s.inline_executions
        }),
        ("core.runtime.dispatch.sync_objects", |s| s.sync_objects),
        ("core.runtime.router.pins", |s| s.pins),
        ("core.runtime.router.pin_fast_hits", |s| s.pin_fast_hits),
        ("core.runtime.delegate.executed", |s| s.executed),
        ("core.runtime.delegate.steals", |s| s.steals),
        ("core.runtime.delegate.op_steals", |s| s.op_steals),
        ("core.future.futures_resolved", |s| s.futures_resolved),
        ("core.future.ops_cancelled", |s| s.ops_cancelled),
        ("core.fingerprint.memo_hits", |s| s.memo_hits),
        ("core.fingerprint.memo_misses", |s| s.memo_misses),
        ("core.fingerprint.memo_invalidations", |s| {
            s.memo_invalidations
        }),
    ];
    for (name, field) in counters {
        m.set(name, delta(field));
    }
    let (hits, misses) = (delta(|s| s.memo_hits), delta(|s| s.memo_misses));
    if hits + misses > 0.0 {
        m.set("core.fingerprint.memo_hit_ratio", hits / (hits + misses));
    }
    let per_delegate: Vec<f64> = after
        .delegate_executed
        .iter()
        .zip(&before.delegate_executed)
        .map(|(a, b)| (a - b) as f64)
        .collect();
    let mean = per_delegate.iter().sum::<f64>() / per_delegate.len().max(1) as f64;
    if mean > 0.0 {
        let max = per_delegate.iter().copied().fold(0.0, f64::max);
        m.set("core.runtime.delegate.exec_imbalance", max / mean);
    }
}

/// What a traced run adds whatever the workload: the raw round trips, the
/// layer probes, the span count, and the trace file.
pub fn finish_traced(
    opts: &Opts,
    rec: &Recorder,
    rtt: &RoundTrips,
    m: &mut Metrics,
) -> probes::ProbeTally {
    rtt.layer_metrics(m);
    let tally = probes::run_all(opts.seed, &opts.probe_scale(), m);
    m.set("trace.spans_recorded", rec.tracer.recorded() as f64);
    let path = host::package_dir()
        .join("out")
        .join(format!("trace-{}.jsonl", opts.workload));
    if let Err(e) = rec.tracer.write_jsonl(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    tally
}

/// The sequential side of `harness.speedup_vs_seq`: the interpreter alone,
/// back to back for `budget`, before any runtime exists in the process —
/// as the sequential program it stands for would run. Returns the median
/// time of one block.
fn sequential_block_s(spec: &Spec, seed: u64, budget: Duration) -> f64 {
    let input = Input::generate(&spec.shape, seed);
    let mut mirror = Mirror::new(&input);
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.is_empty() || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..spec.seq_reps {
            mirror.block(&spec.shape, &input);
        }
        black_box(mirror.take_fold());
        samples.push(t.elapsed().as_secs_f64() / spec.seq_reps as f64);
    }
    median(&mut samples)
}

/// A synthetic workload set up: input generated, runtime built, objects
/// created, one warm-up block run on both sides.
struct Ready {
    program: Program,
    mirror: Mirror,
    gen_s: f64,
}

fn setup_synth(spec: &Spec, seed: u64, rec: &mut Recorder) -> Ready {
    let start = Instant::now();
    let input = Input::generate(&spec.shape, seed);
    let gen_s = start.elapsed().as_secs_f64();
    let rt = build_runtime(spec.shape.mode == Mode::Memo);
    let mut mirror = Mirror::new(&input);
    let mut program = Program::new(&rt, spec.shape, input);
    program.block::<PLAIN>(rec);
    mirror.block(&program.shape, &program.input);
    rec.epoch_ns.clear();
    Ready {
        program,
        mirror,
        gen_s,
    }
}

fn run_synth(opts: &Opts, spec: &Spec) -> Outcome {
    let shape = spec.shape;
    let mut rec = Recorder::new(opts.trace);
    rec.epoch_stride = (shape.epochs_per_block as u64 / 1024).max(1);
    let mut m = Metrics::default();

    let seq_block_s = if opts.trace {
        sequential_block_s(spec, opts.seed, opts.loop_budget().mul_f64(0.05))
    } else {
        0.0
    };
    let reps = if opts.trace || opts.smoke { 1 } else { 5 };
    let (ready, setup_s) = repeat_setup(reps, || setup_synth(spec, opts.seed, &mut rec));
    let Ready {
        mut program,
        mut mirror,
        gen_s,
    } = ready;
    let rt = program.runtime().clone();
    let mut rtt = RoundTrips::new(&rt);
    if opts.sabotage {
        mirror.sabotage();
    }

    // The measuring loop. In a traced run plain and traced blocks
    // alternate, so the two rates behind `trace.overhead_ratio` see the
    // same machine.
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut mismatches = 0u64;
    let mut block_counts = None;
    let mut last_block = (rt.stats(), rt.stats());
    let start = Instant::now();
    while plain_s.len() < 3 || start.elapsed() < opts.loop_budget() {
        let traced = opts.trace && plain_s.len() > traced_s.len();
        let before = rt.stats();
        let t = Instant::now();
        if traced {
            program.block::<TRACED>(&mut rec);
            traced_s.push(t.elapsed().as_secs_f64());
        } else {
            program.block::<PLAIN>(&mut rec);
            plain_s.push(t.elapsed().as_secs_f64());
        }
        let after = rt.stats();

        mirror.block(&shape, &program.input);
        mismatches += (program.take_fold() != mirror.take_fold()) as u64;
        let c: Vec<u64> = counts(&after)
            .iter()
            .zip(counts(&before))
            .map(|(a, b)| a - b)
            .collect();
        if *block_counts.get_or_insert_with(|| c.clone()) != c {
            eprintln!("warning: Runtime::stats() deltas differ between blocks of equal work");
        }
        last_block = (before, after);
        rtt.catch_up(start.elapsed().mul_f64(spec.rtt_share));
    }

    // The counted block: steady state, every harness buffer already there.
    mirror.block(&shape, &program.input);
    program.block::<COUNTED>(&mut rec);
    mismatches += (program.take_fold() != mirror.take_fold()) as u64;

    let mut attempted = program.calls + rtt.attempted;
    let mut failed = program.fails + rtt.failed;

    if opts.trace {
        let epochs = shape.epochs_per_block as f64;
        m.set(
            "harness.allocs_per_op",
            rec.inner_allocs as f64 / shape.ops_per_block() as f64,
        );
        m.set(
            "harness.allocs_per_epoch_boundary",
            rec.boundary_allocs as f64 / epochs,
        );
        m.set(
            "harness.speedup_vs_seq",
            seq_block_s / (median_ns(&rec.epoch_ns) / 1e9 * epochs),
        );
        m.set("ss-workloads.gen_s", gen_s);
        m.set("ss-workloads.input_bytes", program.input.bytes() as f64);
        layer_counts(&mut m, &last_block.1, &last_block.0);

        // Shares of the traced epochs' time. The stamps are contiguous:
        // the four phases tile the epoch, so the shares sum to 1.
        let tr = &rec.tracer;
        let epoch_ns = tr.total("epoch").ns as f64;
        let calls_per_epoch = program.calls as f64 / program.epochs() as f64;
        let submit_share =
            median_ns(&rec.call_ns) * calls_per_epoch / median_ns(&rec.traced_epoch_ns);
        m.set("core.runtime.epoch.begin_p50_ns", median_ns(&rec.begin_ns));
        m.set(
            "core.runtime.epoch.begin_share",
            tr.total("begin_isolation").ns as f64 / epoch_ns,
        );
        m.set("core.runtime.epoch.end_wait_p50_ns", median_ns(&rec.end_ns));
        m.set(
            "core.runtime.epoch.end_wait_p99_ns",
            percentile_ns(&rec.end_ns, 0.99),
        );
        m.set(
            "core.runtime.epoch.epoch_p99_us",
            percentile_ns(&rec.traced_epoch_ns, 0.99) / 1e3,
        );
        m.set("core.runtime.dispatch.submit_share", submit_share);
        m.set(
            "core.runtime.dispatch.submit_blocked_share",
            (tr.total("submit").ns as f64 / epoch_ns - submit_share).max(0.0),
        );
        m.set(
            "core.runtime.delegate.drain_share",
            tr.total("end_isolation").ns as f64 / epoch_ns,
        );
        if shape.mode != Mode::Void {
            let waited = tr.total("wait_all");
            m.set(
                "core.future.wait_all_ns_per_op",
                waited.ns as f64 / (waited.count * shape.ops_per_epoch()) as f64,
            );
        }
        m.set(
            "trace.overhead_ratio",
            median(&mut traced_s) / median(&mut plain_s),
        );
        let tally = finish_traced(opts, &rec, &rtt, &mut m);
        attempted += tally.attempted;
        failed += tally.failed;
    } else {
        // Throughput and time to solution follow the median epoch: the
        // mean is at the mercy of the few epochs that end in a futex sleep
        // (on epoch-churn, a quarter of them, at three times the median).
        let epoch_s = median_ns(&rec.epoch_ns) / 1e9;
        let wall_s = epoch_s * shape.epochs_per_block as f64;
        m.set("setup_s", setup_s);
        m.set("ops_per_s", shape.ops_per_epoch() as f64 / epoch_s);
        m.set("wall_s", wall_s);
        m.set("epoch_p50_us", epoch_s * 1e6);
        m.set("future_rtt_vs_handoff", rtt.vs_handoff());
        m.set("peak_rss_mb", host::peak_rss_mb());
        println!(
            "samples: {} blocks (median {:.6} s), {} epochs, {} future round trips",
            plain_s.len(),
            median(&mut plain_s),
            rec.epoch_ns.len(),
            rtt.samples.len()
        );
    }
    Outcome::new(attempted, failed, mismatches, m)
}
