//! Ablation: recursive delegation vs program-thread expansion.
//!
//! The same fan-out workload — R roots, each expanding into C child
//! updates and C×G grandchild folds, on per-root-owned objects — can be
//! delegated two ways:
//!
//! * `flat` — the program thread expands the whole tree itself and
//!   delegates every operation top-level (the only option before
//!   recursive delegation landed). The delegation loop is serial: the
//!   program thread performs R + R·C + R·C·G submits.
//! * `nested` — the program thread delegates only the R roots; each root
//!   spawns its children from its delegate context, and each child its
//!   grandchildren (`Runtime::delegate_scope`). Submission work itself is
//!   distributed across the delegates, and expansion overlaps execution.
//!
//! Both strategies produce identical results (gated below) — recursive
//! delegation is a scheduling/expressiveness choice, not a semantic one.
//! Shapes:
//!
//! * `wide-tiny` — many roots, tiny operations: measures the nested
//!   path's per-delegation overhead (injector lane + routing) against the
//!   seed SPSC fast path, with the program thread as the bottleneck.
//! * `chunky` — fewer roots, real per-op CPU work: the delegation path
//!   stops mattering and the two should tie.
//! * `expand-stall` — the *root* operations stall before expanding
//!   (modelling work that must run before its children are known, e.g.
//!   parse-then-process). `flat` cannot express this dependence and must
//!   expand everything up front on the program thread; `nested` discovers
//!   children where the data is. Reported for completeness: on a 1-CPU
//!   container the difference is mostly visible in the delegation counts
//!   and load spread, not wall time.
//!
//! Reported per (shape, strategy): wall time, ratio vs `flat`, nested
//! delegations, and delegate load spread (`max/mean` of executed ops).

use std::sync::Arc;

use ss_bench::*;
use ss_core::{Runtime, SequenceSerializer, Writable};

const DELEGATES: usize = 4;

fn work(seed: u64, rounds: u32) -> u64 {
    let mut x = seed | 1;
    for _ in 0..rounds {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ seed;
    }
    x
}

#[derive(Clone, Copy)]
struct Shape {
    name: &'static str,
    roots: usize,
    children: usize,
    grands: usize,
    rounds: u32,
    /// Stall inside each root op before expansion, microseconds.
    root_stall_us: u64,
}

fn shapes(scale_mul: usize) -> Vec<Shape> {
    vec![
        Shape {
            name: "wide-tiny",
            roots: 192 * scale_mul,
            children: 4,
            grands: 2,
            rounds: 64,
            root_stall_us: 0,
        },
        Shape {
            name: "chunky",
            roots: 48 * scale_mul,
            children: 4,
            grands: 2,
            rounds: 4_000,
            root_stall_us: 0,
        },
        Shape {
            name: "expand-stall",
            roots: 48 * scale_mul,
            children: 4,
            grands: 2,
            rounds: 256,
            root_stall_us: 50,
        },
    ]
}

struct Objects {
    roots: Vec<Writable<u64, SequenceSerializer>>,
    kids: Vec<Writable<u64, SequenceSerializer>>,
    grands: Vec<Writable<u64, SequenceSerializer>>,
}

impl Objects {
    fn new(rt: &Runtime, shape: Shape) -> Self {
        Objects {
            roots: (0..shape.roots).map(|_| Writable::new(rt, 0)).collect(),
            kids: (0..shape.roots).map(|_| Writable::new(rt, 0)).collect(),
            grands: (0..shape.roots).map(|_| Writable::new(rt, 0)).collect(),
        }
    }

    fn fingerprint(&self) -> u64 {
        let mut fp = 0u64;
        for set in [&self.roots, &self.kids, &self.grands] {
            for w in set.iter() {
                fp = fp.rotate_left(7) ^ w.call(|v| *v).unwrap();
            }
        }
        fp
    }
}

/// Program-thread expansion: every operation delegated top-level.
fn run_flat(rt: &Runtime, shape: Shape) -> u64 {
    let objs = Objects::new(rt, shape);
    let stall = std::time::Duration::from_micros(shape.root_stall_us);
    rt.begin_isolation().unwrap();
    for i in 0..shape.roots {
        let rounds = shape.rounds;
        objs.roots[i]
            .delegate(move |v| {
                if !stall.is_zero() {
                    std::thread::sleep(stall);
                }
                *v = v.wrapping_add(work(i as u64, rounds));
            })
            .unwrap();
        for j in 0..shape.children {
            let seed = (i * 100 + j) as u64;
            objs.kids[i]
                .delegate(move |v| *v = v.wrapping_add(work(seed, rounds)))
                .unwrap();
            for k in 0..shape.grands {
                let seed = (i * 10_000 + j * 100 + k) as u64;
                objs.grands[i]
                    .delegate(move |v| *v = v.wrapping_mul(31).wrapping_add(work(seed, rounds)))
                    .unwrap();
            }
        }
    }
    rt.end_isolation().unwrap();
    objs.fingerprint()
}

/// Recursive expansion: children and grandchildren delegated from the
/// delegate contexts that discover them.
fn run_nested(rt: &Runtime, shape: Shape) -> u64 {
    let objs = Arc::new(Objects::new(rt, shape));
    let stall = std::time::Duration::from_micros(shape.root_stall_us);
    rt.begin_isolation().unwrap();
    for i in 0..shape.roots {
        let rounds = shape.rounds;
        let (rt1, objs1) = (rt.clone(), Arc::clone(&objs));
        objs.roots[i]
            .delegate(move |v| {
                if !stall.is_zero() {
                    std::thread::sleep(stall);
                }
                *v = v.wrapping_add(work(i as u64, rounds));
                rt1.delegate_scope(|cx| {
                    for j in 0..shape.children {
                        let seed = (i * 100 + j) as u64;
                        cx.delegate(&objs1.kids[i], move |v| {
                            *v = v.wrapping_add(work(seed, rounds))
                        })
                        .unwrap();
                        let (rt2, objs2) = (rt1.clone(), Arc::clone(&objs1));
                        cx.delegate(&objs1.kids[i], move |_| {
                            rt2.delegate_scope(|cx| {
                                for k in 0..shape.grands {
                                    let seed = (i * 10_000 + j * 100 + k) as u64;
                                    cx.delegate(&objs2.grands[i], move |v| {
                                        *v = v.wrapping_mul(31).wrapping_add(work(seed, rounds))
                                    })
                                    .unwrap();
                                }
                            })
                            .unwrap();
                        })
                        .unwrap();
                    }
                })
                .unwrap();
            })
            .unwrap();
    }
    rt.end_isolation().unwrap();
    objs.fingerprint()
}

fn main() {
    let reps = env_reps();
    let scale_mul = match env_scale() {
        ss_workloads::scale::Scale::S => 1,
        ss_workloads::scale::Scale::M => 4,
        ss_workloads::scale::Scale::L => 16,
    };
    println!(
        "Ablation: recursive delegation vs program-thread expansion \
         ({DELEGATES} delegates, host threads: {})\n",
        host_threads()
    );

    let mut table = Table::new(&[
        "shape",
        "strategy",
        "time",
        "vs flat",
        "nested delegations",
        "load max/mean",
    ]);
    let mut gate: Vec<(String, u64)> = Vec::new();
    for shape in shapes(scale_mul) {
        let mut flat_time = None;
        for strategy in ["flat", "nested"] {
            let mut fp = 0;
            let mut nested_count = 0;
            let mut spread = 1.0;
            let (t, _) = measure(reps, || {
                let rt = Runtime::builder()
                    .delegate_threads(DELEGATES)
                    .queue_capacity(8192)
                    .build()
                    .unwrap();
                fp = match strategy {
                    "flat" => run_flat(&rt, shape),
                    _ => run_nested(&rt, shape),
                };
                let stats = rt.stats();
                nested_count = stats.nested_delegations;
                let executed = &stats.delegate_executed;
                let total: u64 = executed.iter().sum();
                spread = if total == 0 {
                    1.0
                } else {
                    let mean = total as f64 / executed.len() as f64;
                    executed.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0)
                };
                fp
            });
            let baseline = *flat_time.get_or_insert(t);
            table.row(vec![
                shape.name.to_string(),
                strategy.to_string(),
                fmt_dur(t),
                format!("{:.2}x", baseline.as_secs_f64() / t.as_secs_f64()),
                nested_count.to_string(),
                format!("{spread:.2}"),
            ]);
            gate.push((format!("{}/{}", shape.name, strategy), fp));
        }
    }
    println!("{}", table.render());

    // Correctness gate: recursive delegation must be observationally free.
    for chunk in gate.chunks(2) {
        assert_eq!(
            chunk[0].1, chunk[1].1,
            "{} and {} fingerprints diverged",
            chunk[0].0, chunk[1].0
        );
    }
    println!(
        "\nBoth strategies produced identical fingerprints per shape.\n\
         Expected: `wide-tiny` bounds the nested path's per-delegation\n\
         overhead (injector lane + scope bookkeeping vs the SPSC fast\n\
         path); `chunky` ties — per-op work dominates; `expand-stall`\n\
         shows expansion overlapping execution once roots must run\n\
         before their children are known."
    );
}
