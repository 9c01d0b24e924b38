//! The `apps` workload: the paper's eight Table 2 kernels at `Scale::M`,
//! inputs generated from the benchmark's seed. The sequential
//! implementation is both the baseline of `speedup_vs_seq` and the oracle
//! for the serialization-sets one. A round runs every kernel on both
//! sides; rounds repeat until the run's time is spent.

use std::sync::Arc;
use std::time::{Duration, Instant};

use prometheus_rs::prelude::{ReadOnly, Runtime, Stats};
use prometheus_rs::ss_apps::{
    barnes_hut, blackscholes, dedup, freqmine, histogram, kmeans, reverse_index, word_count,
};
use prometheus_rs::ss_workloads::scale::{self, Scale};
use prometheus_rs::ss_workloads::{
    bitmap, bodies, html, options, points, stream, text, transactions,
};

use crate::host;
use crate::metrics::Metrics;
use crate::rtt::RoundTrips;
use crate::stats::{harmonic_mean, median};
use crate::trace::Recorder;
use crate::workload::{build_runtime, finish_traced, layer_counts, repeat_setup, Opts, Outcome};

/// A kernel's output, reduced for comparison.
pub enum Out {
    Fingerprint(u64),
    /// kmeans sums floats in a different order per implementation, so its
    /// outputs are compared with a tolerance, as the repo's own tests do.
    Clusters(kmeans::Clustering),
}

impl Out {
    pub fn agrees(&self, other: &Out) -> bool {
        match (self, other) {
            (Out::Fingerprint(a), Out::Fingerprint(b)) => a == b,
            (Out::Clusters(a), Out::Clusters(b)) => a.approx_eq(b, 1e-9),
            _ => false,
        }
    }
}

pub struct Kernel {
    pub name: &'static str,
    /// Back-to-back seq/ss pairs per round: the millisecond kernels are
    /// repeated so each contributes enough samples for a steady median.
    pub reps: usize,
    pub input_bytes: usize,
    /// What `seq` takes on the 2-CPU reference host at `Scale::M`, in a
    /// quiet minute: the weight of this kernel in the suite's time.
    pub nominal_seq_s: f64,
    pub seq: Box<dyn Fn() -> Timed>,
    pub ss: Box<dyn Fn(&Runtime) -> Timed>,
}

/// A kernel's wall time and its reduced output.
pub type Timed = (Duration, Out);

/// Times the kernel alone; reducing its output for comparison is outside.
fn timed<T>(kernel: impl FnOnce() -> T, reduce: impl FnOnce(&T) -> Out) -> Timed {
    let start = Instant::now();
    let output = kernel();
    let wall = start.elapsed();
    (wall, reduce(&output))
}

/// Generates every kernel's input. `ss_workloads::scale` fixes the
/// sizes; only the seed is overridden.
pub fn kernels(seed: u64, scale: Scale) -> Vec<Kernel> {
    use Out::Fingerprint as Fp;
    let mut all = Vec::with_capacity(8);

    let (n, steps) = scale::barnes_hut(scale);
    let input = Arc::new(bodies::plummer(n, seed));
    let shared = Arc::clone(&input);
    all.push(Kernel {
        name: "barnes-hut",
        reps: 1,
        input_bytes: std::mem::size_of_val(&input[..]),
        nominal_seq_s: 0.1485,
        seq: Box::new(move || {
            timed(
                || barnes_hut::seq(&input, steps),
                |o| Fp(barnes_hut::fingerprint(o)),
            )
        }),
        ss: Box::new(move |rt| {
            timed(
                || barnes_hut::ss(&shared, steps, rt),
                |o| Fp(barnes_hut::fingerprint(o)),
            )
        }),
    });

    let input = ReadOnly::new(options::options(scale::blackscholes(scale), seed));
    let shared = input.clone();
    all.push(Kernel {
        name: "blackscholes",
        reps: 8,
        input_bytes: std::mem::size_of_val(&input[..]),
        nominal_seq_s: 0.00286,
        seq: Box::new(move || {
            timed(
                || blackscholes::seq(&input),
                |o| Fp(blackscholes::fingerprint(o)),
            )
        }),
        ss: Box::new(move |rt| {
            timed(
                || blackscholes::ss(&shared, rt),
                |o| Fp(blackscholes::fingerprint(o)),
            )
        }),
    });

    let params = stream::StreamParams {
        seed,
        ..scale::dedup(scale)
    };
    let input = ReadOnly::new(stream::stream(&params));
    let shared = input.clone();
    all.push(Kernel {
        name: "dedup",
        reps: 1,
        input_bytes: input.len(),
        nominal_seq_s: 0.4208,
        seq: Box::new(move || timed(|| dedup::seq(&input), |o| Fp(dedup::fingerprint(o)))),
        ss: Box::new(move |rt| timed(|| dedup::ss(&shared, rt), |o| Fp(dedup::fingerprint(o)))),
    });

    let params = transactions::TxParams {
        seed,
        ..scale::freqmine(scale)
    };
    let input = Arc::new(transactions::transactions(&params));
    let shared = Arc::clone(&input);
    all.push(Kernel {
        name: "freqmine",
        reps: 1,
        input_bytes: input.iter().map(|t| t.len() * 4).sum(),
        nominal_seq_s: 0.0657,
        seq: Box::new(move || timed(|| freqmine::seq(&input), |o| Fp(freqmine::fingerprint(o)))),
        ss: Box::new(move |rt| {
            timed(
                || freqmine::ss(&shared, rt),
                |o| Fp(freqmine::fingerprint(o)),
            )
        }),
    });

    let (w, h) = scale::histogram(scale);
    let input = ReadOnly::new(bitmap::bitmap(w, h, seed));
    let shared = input.clone();
    all.push(Kernel {
        name: "histogram",
        reps: 8,
        input_bytes: input.data.len(),
        nominal_seq_s: 0.0048,
        seq: Box::new(move || timed(|| histogram::seq(&input), |o| Fp(histogram::fingerprint(o)))),
        ss: Box::new(move |rt| {
            timed(
                || histogram::ss(&shared, rt),
                |o| Fp(histogram::fingerprint(o)),
            )
        }),
    });

    let (params, k) = scale::kmeans(scale);
    let input = ReadOnly::new(points::points(&points::PointParams { seed, ..params }));
    let shared = input.clone();
    all.push(Kernel {
        name: "kmeans",
        reps: 1,
        input_bytes: input.coords.len() * 8,
        nominal_seq_s: 0.0411,
        seq: Box::new(move || timed(|| kmeans::seq(&input, k), |o| Out::Clusters(o.clone()))),
        ss: Box::new(move |rt| timed(|| kmeans::ss(&shared, k, rt), |o| Out::Clusters(o.clone()))),
    });

    let params = html::HtmlParams {
        seed,
        ..scale::reverse_index(scale)
    };
    let input = Arc::new(html::tree(&params));
    let shared = Arc::clone(&input);
    all.push(Kernel {
        name: "reverse_index",
        reps: 4,
        input_bytes: input.total_bytes(),
        nominal_seq_s: 0.0079,
        seq: Box::new(move || {
            timed(
                || reverse_index::seq(&input),
                |o| Fp(reverse_index::fingerprint(o)),
            )
        }),
        ss: Box::new(move |rt| {
            timed(
                || reverse_index::ss(&shared, rt),
                |o| Fp(reverse_index::fingerprint(o)),
            )
        }),
    });

    let params = text::TextParams {
        seed,
        ..scale::word_count(scale)
    };
    let input = ReadOnly::new(text::corpus(&params));
    let shared = input.clone();
    all.push(Kernel {
        name: "word_count",
        reps: 1,
        input_bytes: input.len(),
        nominal_seq_s: 0.0365,
        seq: Box::new(move || {
            timed(
                || word_count::seq(&input),
                |o| Fp(word_count::fingerprint(o)),
            )
        }),
        ss: Box::new(move |rt| {
            timed(
                || word_count::ss(&shared, rt),
                |o| Fp(word_count::fingerprint(o)),
            )
        }),
    });

    all
}

/// Share of the measuring loop given to future round trips.
const RTT_SHARE: f64 = 0.1;

/// One kernel's samples over the rounds, and its (constant) counts.
#[derive(Default)]
struct Samples {
    seq_s: Vec<f64>,
    ss_s: Vec<f64>,
    isolation_s: Vec<f64>,
    reduction_s: Vec<f64>,
    epochs: u64,
    delegations: u64,
}

struct Ready {
    rt: Runtime,
    kernels: Vec<Kernel>,
    gen_s: f64,
}

/// Set-up: inputs generated, runtime built, each kernel run once on it.
fn setup(seed: u64, scale: Scale) -> Ready {
    let start = Instant::now();
    let kernels = kernels(seed, scale);
    let gen_s = start.elapsed().as_secs_f64();
    let rt = build_runtime(false);
    for k in &kernels {
        (k.ss)(&rt);
    }
    Ready { rt, kernels, gen_s }
}

/// One seq/ss pair of `kernel`; returns whether the outputs agree.
fn pair(
    kernel: &Kernel,
    rt: &Runtime,
    seq_first: bool,
    samples: &mut Samples,
    trace: Option<(&mut Recorder, u32)>,
) -> bool {
    let pair_start = Instant::now();
    let seq = |samples: &mut Samples| {
        let start = Instant::now();
        let (wall, out) = (kernel.seq)();
        samples.seq_s.push(wall.as_secs_f64());
        (out, start, Instant::now())
    };
    let mut seq_run = seq_first.then(|| seq(samples));
    let before = rt.stats();
    let ss_start = Instant::now();
    let (wall, ss_out) = (kernel.ss)(rt);
    let ss_end = Instant::now();
    let after = rt.stats();
    let delta = |field: fn(&Stats) -> Duration| (field(&after) - field(&before)).as_secs_f64();
    samples.ss_s.push(wall.as_secs_f64());
    samples.isolation_s.push(delta(|s| s.isolation));
    samples.reduction_s.push(delta(|s| s.reduction));
    samples.epochs = after.isolation_epochs - before.isolation_epochs;
    samples.delegations = after.delegations - before.delegations;
    let (seq_out, seq_start, seq_end) = seq_run.take().unwrap_or_else(|| seq(samples));
    if let Some((rec, round)) = trace {
        let tr = &mut rec.tracer;
        let id = tr.alloc_id();
        for (name, start, end) in [("seq", seq_start, seq_end), ("ss", ss_start, ss_end)] {
            let child = tr.alloc_id();
            tr.record(child, id, name, start, end);
        }
        tr.record(id, round, kernel.name, pair_start, Instant::now());
    }
    seq_out.agrees(&ss_out)
}

pub fn run(opts: &Opts) -> Outcome {
    let mut rec = Recorder::new(opts.trace);
    let mut m = Metrics::default();
    let scale = if opts.smoke { Scale::S } else { Scale::M };
    let reps = if opts.trace || opts.smoke { 1 } else { 3 };
    let (ready, setup_s) = repeat_setup(reps, || setup(opts.seed, scale));
    let Ready { rt, kernels, gen_s } = ready;
    let mut rtt = RoundTrips::new(&rt);

    let mut samples: Vec<Samples> = kernels.iter().map(|_| Samples::default()).collect();
    let mut mismatches = 0u64;
    let (mut plain_round_s, mut traced_round_s) = (Vec::new(), Vec::new());
    let mut last_round = (rt.stats(), rt.stats());
    let mut delegated = 0;
    let min_rounds = if opts.smoke { 1 } else { 3 };
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed() < opts.loop_budget() {
        let traced = opts.trace && rounds % 2 == 1;
        let round_id = rec.tracer.alloc_id();
        let before = rt.stats();
        let round_start = Instant::now();
        for (kernel, samples) in kernels.iter().zip(&mut samples) {
            for rep in 0..if opts.smoke { 1 } else { kernel.reps } {
                // Alternate which side goes first.
                let seq_first = (rounds + rep) % 2 == 0;
                let trace = traced.then_some((&mut rec, round_id));
                mismatches += !pair(kernel, &rt, seq_first, samples, trace) as u64;
            }
        }
        let round_end = Instant::now();
        if traced {
            rec.tracer
                .record(round_id, 0, "round", round_start, round_end);
            traced_round_s.push((round_end - round_start).as_secs_f64());
        } else {
            plain_round_s.push((round_end - round_start).as_secs_f64());
        }
        last_round = (before, rt.stats());
        delegated += last_round.1.delegations - last_round.0.delegations;
        rounds += 1;
        rtt.catch_up(start.elapsed().mul_f64(RTT_SHARE));
    }

    // Raw medians, reported per layer. They drift with the host: over
    // three minutes `dedup` alone went from 0.59 s to 0.42 s, on both
    // sides alike.
    let medians = |field: fn(&mut Samples) -> &mut Vec<f64>, samples: &mut [Samples]| {
        samples
            .iter_mut()
            .map(|s| median(field(s)))
            .collect::<Vec<f64>>()
    };
    let seq_s = medians(|s| &mut s.seq_s, &mut samples);
    let ss_s = medians(|s| &mut s.ss_s, &mut samples);
    // What does not drift is a pair: `ss` against the `seq` run beside
    // it. The end-to-end times are therefore each kernel's median
    // ss/seq ratio times its nominal sequential time — seconds on a host
    // where the sequential kernels take what they take on the reference
    // host in a quiet minute. One pass = each kernel once.
    let paired = |series: fn(&Samples) -> &Vec<f64>, s: &Samples| {
        let mut ratios: Vec<f64> = series(s).iter().zip(&s.seq_s).map(|(x, q)| x / q).collect();
        median(&mut ratios)
    };
    let slowdowns: Vec<f64> = samples.iter().map(|s| paired(|s| &s.ss_s, s)).collect();
    let nominal = |series: fn(&Samples) -> &Vec<f64>| -> f64 {
        kernels
            .iter()
            .zip(&samples)
            .map(|(k, s)| k.nominal_seq_s * paired(series, s))
            .sum()
    };
    let wall_s = nominal(|s| &s.ss_s);
    let pass_ops: u64 = samples.iter().map(|s| s.delegations).sum();
    let pass_epochs: u64 = samples.iter().map(|s| s.epochs).sum();

    let mut attempted = delegated + rtt.attempted;
    let mut failed = rtt.failed;
    if opts.trace {
        // The paper's Fig. 4 statistic.
        let speedups: Vec<f64> = slowdowns.iter().map(|r| 1.0 / r).collect();
        m.set("harness.speedup_vs_seq", harmonic_mean(&speedups));
        m.set("ss-workloads.gen_s", gen_s);
        m.set(
            "ss-workloads.input_bytes",
            kernels.iter().map(|k| k.input_bytes as f64).sum(),
        );
        let isolation_s = medians(|s| &mut s.isolation_s, &mut samples);
        let reduction_s = medians(|s| &mut s.reduction_s, &mut samples);
        for (i, k) in kernels.iter().enumerate() {
            m.set(format!("ss-apps.{}.seq_s", k.name), seq_s[i]);
            m.set(format!("ss-apps.{}.ss_s", k.name), ss_s[i]);
            m.set(format!("ss-apps.{}.isolation_s", k.name), isolation_s[i]);
            m.set(format!("ss-apps.{}.reduction_s", k.name), reduction_s[i]);
        }
        // Counts of the last round: each kernel `reps` times.
        layer_counts(&mut m, &last_round.1, &last_round.0);
        if !traced_round_s.is_empty() {
            m.set(
                "trace.overhead_ratio",
                median(&mut traced_round_s) / median(&mut plain_round_s),
            );
        }
        let tally = finish_traced(opts, &rec, &rtt, &mut m);
        attempted += tally.attempted;
        failed += tally.failed;
    } else {
        m.set("setup_s", setup_s);
        m.set("ops_per_s", pass_ops as f64 / wall_s);
        m.set("wall_s", wall_s);
        // The kernels' epochs are inside `ss()`, out of the harness's
        // sight: this is the mean epoch of one pass, from `Stats`.
        m.set(
            "epoch_p50_us",
            nominal(|s| &s.isolation_s) / pass_epochs as f64 * 1e6,
        );
        m.set("future_rtt_vs_handoff", rtt.vs_handoff());
        m.set("peak_rss_mb", host::peak_rss_mb());
        println!(
            "samples: {rounds} rounds, {} future round trips",
            rtt.samples.len()
        );
        for (i, k) in kernels.iter().enumerate() {
            println!(
                "kernel {:<14} seq {:.6} s  ss {:.6} s  paired speedup {:.4}",
                k.name,
                seq_s[i],
                ss_s[i],
                1.0 / slowdowns[i]
            );
        }
    }
    Outcome::new(attempted, failed, mismatches, m)
}
