//! The routing trajectory: what one routing decision costs on the
//! default runtime, on the program thread's path and on the nested path
//! through the sharded pin map.
//!
//! Placement is static (`SsId mod delegates`); the routing layer keeps
//! pins only where something may override that (a set the program thread
//! takes, a steal) in a sharded, epoch-stamped map
//! (`ss_queue::shardmap`): per-shard locks for writers, lock-free
//! resolution for the common re-delegate-to-a-pinned-set case. This bin
//! tracks both paths at 2/4/8 delegates:
//!
//! * `flat` — the program thread delegates every operation top-level.
//!   Routing is the program thread's own: its epoch record of the sets it
//!   has seen, and the modulo at each set's first sight — no pin, no lock.
//! * `nested` — the program thread delegates only roots; every child and
//!   grandchild is routed *from a delegate context* through the root's pin
//!   map (a take could have pinned any set), so up to `delegates + 1`
//!   threads hit the routing layer concurrently: a shard lock at each
//!   set's first touch, lock-free reads after it.
//!
//! Stealing is off (isolating these paths; the stealing transport pins
//! every set and publishes inside the shard's critical section).
//!
//! Output: a table plus `bench ablation_routing/<shape>-<n>d/sharded
//! median_ns=<n>` lines that `scripts/record_baseline.sh` folds into
//! `BENCH_baseline.json`; a fingerprint gate asserts the delegate count
//! is observationally invisible. Measured numbers and guidance live in
//! `docs/POLICIES.md`.

use std::sync::Arc;

use ss_bench::*;
use ss_core::{Runtime, SequenceSerializer, Writable};

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
    /// Roots delegated by the program thread.
    roots: usize,
    /// Nested children per root (0 = flat: everything top-level).
    children: usize,
    /// Operations per object (re-delegations exercising the pinned-set
    /// hot path).
    ops_per_set: usize,
    rounds: u32,
}

fn shapes(scale_mul: usize) -> Vec<Shape> {
    vec![
        Shape {
            name: "flat",
            roots: 64 * scale_mul,
            children: 0,
            ops_per_set: 24,
            rounds: 32,
        },
        Shape {
            name: "nested",
            roots: 48 * scale_mul,
            children: 4,
            ops_per_set: 8,
            rounds: 32,
        },
    ]
}

struct Objects {
    roots: Vec<Writable<u64, SequenceSerializer>>,
    kids: Vec<Writable<u64, SequenceSerializer>>,
}

impl Objects {
    fn new(rt: &Runtime, shape: Shape) -> Self {
        Objects {
            roots: (0..shape.roots).map(|_| Writable::new(rt, 0)).collect(),
            kids: (0..shape.roots * shape.children.max(1))
                .map(|_| Writable::new(rt, 0))
                .collect(),
        }
    }

    fn fingerprint(&self) -> u64 {
        let mut fp = 0u64;
        for set in [&self.roots, &self.kids] {
            for w in set.iter() {
                fp = fp.rotate_left(7) ^ w.call(|v| *v).unwrap();
            }
        }
        fp
    }
}

/// Runs one epoch of the shape: roots delegated top-level (several
/// operations each — the re-delegation hot path), children delegated
/// from the delegate contexts that discover them (several operations
/// each, concurrently from every delegate).
fn run(rt: &Runtime, shape: Shape) -> u64 {
    let objs = Arc::new(Objects::new(rt, shape));
    rt.begin_isolation().unwrap();
    for i in 0..shape.roots {
        let rounds = shape.rounds;
        for op in 0..shape.ops_per_set {
            let expand = op == 0 && shape.children > 0;
            let (rt1, objs1) = (rt.clone(), Arc::clone(&objs));
            objs.roots[i]
                .delegate(move |v| {
                    *v = v.wrapping_add(work((i * 31 + op) as u64, rounds));
                    if expand {
                        rt1.delegate_scope(|cx| {
                            for j in 0..shape.children {
                                let kid = &objs1.kids[i * shape.children + j];
                                for k in 0..shape.ops_per_set {
                                    let seed = (i * 1000 + j * 10 + k) as u64;
                                    cx.delegate(kid, move |v| {
                                        *v = v.wrapping_add(work(seed, rounds))
                                    })
                                    .unwrap();
                                }
                            }
                        })
                        .unwrap();
                    }
                })
                .unwrap();
        }
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
        "Ablation: routing on the program thread and through the sharded \
         pin map (host threads: {})\n",
        host_threads()
    );

    let mut table = Table::new(&["shape", "delegates", "time", "pins", "lock-free hits"]);
    let mut bench_lines: Vec<String> = Vec::new();
    for shape in shapes(scale_mul) {
        let mut reference = None;
        for delegates in [2usize, 4, 8] {
            let mut fp = 0;
            let mut pins = 0;
            let mut fast_hits = 0;
            let (t, _) = measure(reps, || {
                let rt = Runtime::builder()
                    .delegate_threads(delegates)
                    .queue_capacity(8192)
                    .build()
                    .unwrap();
                fp = run(&rt, shape);
                let stats = rt.stats();
                pins = stats.pins;
                fast_hits = stats.pin_fast_hits;
                fp
            });
            table.row(vec![
                shape.name.to_string(),
                delegates.to_string(),
                fmt_dur(t),
                pins.to_string(),
                fast_hits.to_string(),
            ]);
            // Correctness gate: where a set is pinned must be
            // observationally invisible — identical fingerprints per
            // shape at every delegate count.
            assert_eq!(
                *reference.get_or_insert(fp),
                fp,
                "{} fingerprint diverged at {delegates} delegates",
                shape.name
            );
            bench_lines.push(format!(
                "bench ablation_routing/{}-{}d/sharded median_ns={}",
                shape.name,
                delegates,
                t.as_nanos()
            ));
        }
    }
    println!("{}", table.render());
    println!("Every delegate count produced identical fingerprints per shape.\n");
    for line in &bench_lines {
        println!("{line}");
    }
    println!(
        "\nExpected: `flat` routes on the program thread alone (no pins,\n\
         no lock-free hits); `nested` adds routing contention from every\n\
         delegate context (lock-free hits ≈ nested re-delegations), which\n\
         the per-shard locks bound. On a\n\
         1-2 CPU container the higher delegate counts are oversubscribed\n\
         — see docs/POLICIES.md for the recorded numbers."
    );
}
