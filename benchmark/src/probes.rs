//! Layer probes: direct calls into single layers' public functions, timed
//! from outside. They run in every traced run, on runtimes of their own
//! with `Runtime::builder()`'s defaults, and do not depend on the
//! workload — what a workload adds to the per-layer metrics comes from its
//! own spans and `Runtime::stats()` deltas.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use prometheus_rs::prelude::{fingerprint_of, AuditMode, Runtime, SsFuture, Writable};
use prometheus_rs::ss_core::SsResult;
use prometheus_rs::ss_queue::memomap::MemoMap;
use prometheus_rs::ss_queue::SpscQueue;

use crate::metrics::Metrics;
use crate::pin;
use crate::stats::{median, median_ns, percentile_ns};
use crate::synth::{Input, Mode, Obj, Program, Shape, PLAIN};
use crate::trace::{clock_overhead, Recorder};

/// Probe sizes are divided by this in `smoke`.
pub struct Scale(pub usize);

impl Scale {
    fn of(&self, n: usize) -> usize {
        (n / self.0).max(1)
    }
}

/// Errors the probes' own operations returned; they count as failed
/// operations of the run.
#[derive(Default)]
pub struct ProbeTally {
    pub attempted: u64,
    pub failed: u64,
}

impl ProbeTally {
    fn note<T, E>(&mut self, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        self.failed += r.is_err() as u64;
        r.ok()
    }
}

pub fn run_all(seed: u64, scale: &Scale, out: &mut Metrics) -> ProbeTally {
    let mut tally = ProbeTally::default();
    queue(scale, out);
    memomap(scale, out);
    calls(scale, out, &mut tally);
    nested(scale, out, &mut tally);
    session(seed, scale, out, &mut tally);
    audit(seed, scale, out, &mut tally);
    tally
}

fn default_runtime() -> Runtime {
    Runtime::builder().build().expect("default runtime builds")
}

/// `ss-queue`'s ring alone: a push/pop pair on one thread, and items
/// streamed from a producer thread to this one.
fn queue(scale: &Scale, out: &mut Metrics) {
    let n = scale.of(2_000_000) as u64;
    let (tx, rx) = SpscQueue::<u64>::with_capacity(512);
    let start = Instant::now();
    for i in 0..n {
        black_box(tx.try_push(black_box(i)).is_ok());
        black_box(rx.try_pop().value());
    }
    out.set(
        "ss-queue.spsc.push_pop_ns",
        start.elapsed().as_nanos() as f64 / n as f64,
    );

    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            pin::this_thread(1);
            for i in 0..n {
                while tx.try_push(i).is_err() {
                    std::hint::spin_loop();
                }
            }
        });
        let mut next = 0;
        while next < n {
            match rx.try_pop().value() {
                Some(v) => {
                    assert_eq!(v, next, "ring delivered out of order");
                    next += 1;
                }
                None => std::hint::spin_loop(),
            }
        }
    });
    out.set(
        "ss-queue.spsc.xthread_ns_per_item",
        start.elapsed().as_nanos() as f64 / n as f64,
    );
}

/// `ss-queue`'s memo table alone: a live-generation hit, and a miss
/// followed by the publish that fills it.
fn memomap(scale: &Scale, out: &mut Metrics) {
    const KEYS: u64 = 1024;
    let n = scale.of(1_000_000) as u64;
    let map = MemoMap::new(4096);
    for k in 0..KEYS {
        map.publish(k, k * 7, map.generation(k), k);
    }
    let start = Instant::now();
    for i in 0..n {
        let k = i % KEYS;
        black_box(map.lookup(black_box(k), k * 7));
    }
    out.set(
        "ss-queue.memomap.hit_ns",
        start.elapsed().as_nanos() as f64 / n as f64,
    );

    let start = Instant::now();
    for i in 0..n {
        let k = i % KEYS;
        if k == 0 {
            // A new generation per sweep turns the last sweep's entries
            // into husks, so publishes reuse slots instead of overflowing.
            for key in 0..KEYS {
                map.bump_generation(key);
            }
        }
        let fp = KEYS * 7 + i;
        black_box(map.lookup(k, fp));
        black_box(map.publish(k, fp, map.generation(k), i));
    }
    out.set(
        "ss-queue.memomap.miss_publish_ns",
        start.elapsed().as_nanos() as f64 / n as f64,
    );
}

/// Objects and operations per epoch of the call probes: 256 operations,
/// half the default 512-slot ring, so no timed call waits for a slot.
const CALL_SETS: usize = 16;
const CALL_OPS: u64 = 16;

/// Times each call of `op` over `epochs` epochs of 256 calls. Futures
/// are dropped once their epoch has ended, so their pooled completion
/// cells recycle as they do in a program that consumes its results.
fn call_samples(
    rt: &Runtime,
    epochs: usize,
    tally: &mut ProbeTally,
    op: impl Fn(&Obj, u64, u64) -> SsResult<Option<SsFuture<u64>>>,
) -> Vec<u32> {
    let objs: Vec<Obj> = (0..CALL_SETS)
        .map(|i| Writable::new(rt, i as u64))
        .collect();
    let per_epoch = CALL_SETS * CALL_OPS as usize;
    let mut samples = Vec::with_capacity(epochs * per_epoch);
    let mut futures = Vec::with_capacity(per_epoch);
    let clock = clock_overhead();
    for e in 0..epochs as u64 {
        tally.note(rt.begin_isolation());
        for o in &objs {
            for k in 0..CALL_OPS {
                let start = Instant::now();
                let r = op(o, e, k);
                samples.push((start.elapsed().saturating_sub(clock)).as_nanos() as u32);
                futures.extend(tally.note(r).flatten());
            }
        }
        tally.note(rt.end_isolation());
        futures.clear();
    }
    samples
}

fn step(s: &mut u64, k: u64) {
    *s = s.wrapping_mul(31).wrapping_add(k);
}

/// `core::wrappers`' entry points one call at a time, and the cost of an
/// empty epoch.
fn calls(scale: &Scale, out: &mut Metrics, tally: &mut ProbeTally) {
    let rt = pin::build(Runtime::builder().memo_capacity(4096));
    let epochs = scale.of(200);

    let s = call_samples(&rt, epochs, tally, |o, _, k| {
        o.delegate(move |s| step(s, k)).map(|()| None)
    });
    out.set("core.wrappers.delegate_call_p50_ns", median_ns(&s));
    out.set(
        "core.wrappers.delegate_call_p99_ns",
        percentile_ns(&s, 0.99),
    );

    let s = call_samples(&rt, epochs, tally, |o, _, k| {
        o.delegate_with(move |s| {
            step(s, k);
            *s
        })
        .map(Some)
    });
    out.set("core.wrappers.delegate_with_call_p50_ns", median_ns(&s));

    // The same fingerprints every epoch: all but the first epoch hit.
    let s = call_samples(&rt, epochs + 1, tally, |o, _, k| {
        o.delegate_memo(fingerprint_of(&k), move |s| *s ^ k)
            .map(Some)
    });
    let cold = CALL_SETS * CALL_OPS as usize;
    out.set("core.wrappers.memo_hit_call_p50_ns", median_ns(&s[cold..]));

    // A fresh fingerprint per call: every call misses.
    let s = call_samples(&rt, epochs, tally, |o, e, k| {
        o.delegate_memo(fingerprint_of(&(e, k)), move |s| *s ^ k)
            .map(Some)
    });
    out.set("core.wrappers.memo_miss_call_p50_ns", median_ns(&s));

    let objs: Vec<Obj> = (0..CALL_SETS)
        .map(|i| Writable::new(&rt, i as u64))
        .collect();
    let mut iter_ns = Vec::with_capacity(epochs * CALL_SETS);
    let mut reclaim_ns = Vec::with_capacity(epochs * CALL_SETS);
    for _ in 0..epochs {
        tally.note(rt.begin_isolation());
        for o in &objs {
            let start = Instant::now();
            let r = o.delegate_iter((0..CALL_OPS).map(|k| move |s: &mut u64| step(s, k)));
            iter_ns.push(start.elapsed().as_nanos() as f64 / CALL_OPS as f64);
            tally.note(r);
        }
        // Reading a privately-writable object reclaims it: the program
        // thread waits until the owning delegate has flushed the set.
        for o in &objs {
            let start = Instant::now();
            let r = o.call(|s| *s);
            reclaim_ns.push(start.elapsed().as_nanos() as u32);
            tally.note(r);
        }
        tally.note(rt.end_isolation());
    }
    out.set(
        "core.wrappers.delegate_iter_ns_per_op",
        median(&mut iter_ns),
    );
    out.set("core.wrappers.reclaim_call_p50_ns", median_ns(&reclaim_ns));

    let mut empty = Vec::with_capacity(scale.of(20_000));
    for _ in 0..scale.of(20_000) {
        let start = Instant::now();
        let began = rt.begin_isolation();
        let ended = rt.end_isolation();
        empty.push(start.elapsed().as_nanos() as u32);
        tally.note(began);
        tally.note(ended);
    }
    out.set("core.runtime.epoch.empty_epoch_p50_ns", median_ns(&empty));
}

/// Recursive delegation: each of 512 parent operations fans 8 children
/// out through `delegate_scope`.
fn nested(scale: &Scale, out: &mut Metrics, tally: &mut ProbeTally) {
    const FAN: usize = 8;
    let parents_n = scale.of(512);
    let epochs = scale.of(20);
    let rt = default_runtime();
    let parents: Vec<Obj> = (0..parents_n)
        .map(|i| Writable::new(&rt, i as u64))
        .collect();
    let children: Arc<Vec<Obj>> = Arc::new(
        (0..parents_n * FAN)
            .map(|_| Writable::new(&rt, 0u64))
            .collect(),
    );
    let before = rt.stats().nested_delegations;
    let mut per_op = Vec::with_capacity(epochs);
    for e in 0..epochs as u64 {
        let start = Instant::now();
        tally.note(rt.begin_isolation());
        for (p, parent) in parents.iter().enumerate() {
            let (rt2, kids) = (rt.clone(), Arc::clone(&children));
            let r = parent.delegate(move |s| {
                *s = s.wrapping_add(e);
                rt2.delegate_scope(|cx| {
                    for kid in &kids[p * FAN..(p + 1) * FAN] {
                        cx.delegate(kid, move |c| *c += e + 1)
                            .expect("nested delegation into a delegate-owned set");
                    }
                })
                .expect("a delegated operation runs in a delegate context");
            });
            tally.note(r);
        }
        tally.note(rt.end_isolation());
        per_op.push(start.elapsed().as_nanos() as f64 / (parents_n * FAN) as f64);
    }
    let delivered = rt.stats().nested_delegations - before;
    let expected: u64 = (1..=epochs as u64).sum();
    tally.attempted += delivered;
    for kid in children.iter() {
        if tally.note(kid.call(|c| *c)) != Some(expected) {
            tally.failed += 1;
        }
    }
    out.set(
        "core.runtime.dispatch.nested_ns_per_op",
        median(&mut per_op),
    );
    out.set(
        "core.runtime.dispatch.nested_delegations",
        delivered as f64 / epochs as f64,
    );
}

/// The same generated program on two runtimes, `base` and `other`: after a
/// warm-up block each, single blocks alternate, and the median block time
/// of each side comes back, in nanoseconds. Same seed, same program: the
/// two sides must also end in the same state.
fn paired_blocks(
    shape: Shape,
    seed: u64,
    base: &Runtime,
    other: &Runtime,
    tally: &mut ProbeTally,
) -> (f64, f64) {
    const ROUNDS: usize = 7;
    let mut rec = Recorder::new(false);
    let mut sides = [base, other].map(|rt| {
        let mut program = Program::new(rt, shape, Input::generate(&shape, seed));
        program.block::<PLAIN>(&mut rec);
        (program, Vec::with_capacity(ROUNDS))
    });
    for _ in 0..ROUNDS {
        for (program, walls) in &mut sides {
            let start = Instant::now();
            program.block::<PLAIN>(&mut rec);
            walls.push(start.elapsed().as_nanos() as f64);
        }
    }
    let [(base, base_ns), (other, other_ns)] = &mut sides;
    for program in [&*base, &*other] {
        tally.attempted += program.calls;
        tally.failed += program.fails;
    }
    if base.take_fold() != other.take_fold() {
        tally.failed += 1;
    }
    (median(base_ns), median(other_ns))
}

/// `wide-tiny`'s shape at a quarter of its width through one `Session`
/// on this thread, against the same program on a root runtime: the
/// parity "root = session 0" has to keep.
fn session(seed: u64, scale: &Scale, out: &mut Metrics, tally: &mut ProbeTally) {
    let shape = Shape {
        sets: scale.of(1024),
        ops_per_set: 16,
        epochs_per_block: 4,
        rounds: 0,
        mode: Mode::Void,
    };
    let root = default_runtime();
    let shared = default_runtime();
    let Some(tenant) = tally.note(shared.session()) else {
        return;
    };
    let (root_ns, session_ns) = paired_blocks(shape, seed, &root, &tenant, tally);
    out.set(
        "core.runtime.session.ns_per_op",
        session_ns / shape.ops_per_block() as f64,
    );
    out.set("core.runtime.session.vs_root_ratio", session_ns / root_ns);
}

/// `wide-tiny` at one-eighth width under `AuditMode::Full` against the
/// same program unaudited.
fn audit(seed: u64, scale: &Scale, out: &mut Metrics, tally: &mut ProbeTally) {
    let shape = Shape {
        sets: scale.of(512),
        ops_per_set: 16,
        epochs_per_block: 8,
        rounds: 0,
        mode: Mode::Void,
    };
    let plain = default_runtime();
    let audited = pin::build(Runtime::builder().audit(AuditMode::Full));
    let (plain_ns, audited_ns) = paired_blocks(shape, seed, &plain, &audited, tally);
    out.set("core.audit.full_overhead_ratio", audited_ns / plain_ns);
    // One record per executed operation while an audited epoch is open.
    let blocks = audited.stats().isolation_epochs / shape.epochs_per_block as u64;
    out.set(
        "core.audit.audit_edges",
        audited.stats().audit_edges as f64 / blocks as f64,
    );
}
