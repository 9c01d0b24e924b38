//! nested_fanout — a recursive-delegation kernel (beyond Table 2).
//!
//! The paper names recursive delegation — a delegate that itself delegates
//! nested serialization sets — as its key future-work item (§4). This
//! kernel exercises exactly that shape: a sharded expansion where every
//! *root* record, while executing on a delegate, fans out *child* updates
//! into its own child shard, and every child fans out *grandchild* folds
//! (delegation depth 3). Ownership is strictly layered so results are
//! deterministic under any scheduler:
//!
//! * root results fold into `A_SHARDS` shard accumulators, produced only
//!   by the program thread's delegations (program order per shard);
//! * root `i`'s children land in `children[i]`, produced only by root
//!   `i`'s delegate context (submission order = root `i`'s program order);
//! * root `i`'s grandchildren fold into `grands[i]`, produced only by the
//!   child operations of `children[i]` — which execute serially on one
//!   executor, so the grandchild arrival order is the `(j, k)` order the
//!   sequential oracle uses.
//!
//! Every executor hosts a delegate context — a delegate thread, or the
//! program thread running an operation itself (serial mode, zero
//! delegates, a set it took) — so the kernel runs unchanged on every
//! runtime shape.

use std::sync::Arc;

use ss_core::{Runtime, SequenceSerializer, Writable};
use ss_workloads::rng::rng;
use ss_workloads::scale::Scale;

use crate::common::Fingerprint;

/// Number of root-result shard accumulators.
pub const A_SHARDS: usize = 8;

/// Kernel geometry: roots, children per root, grandchildren per child.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Root records (depth-1 delegations, one per record).
    pub roots: usize,
    /// Child updates each root spawns from its delegate context.
    pub children: usize,
    /// Grandchild folds each child spawns.
    pub grands: usize,
}

/// Scale presets: S/M/L keep the 1:4:16 ratio of the Table 2 presets.
pub fn shape(scale: Scale) -> Shape {
    match scale {
        Scale::S => Shape {
            roots: 32,
            children: 4,
            grands: 2,
        },
        Scale::M => Shape {
            roots: 128,
            children: 4,
            grands: 2,
        },
        Scale::L => Shape {
            roots: 512,
            children: 4,
            grands: 2,
        },
    }
}

/// Deterministic per-root input seeds.
pub fn seeds(n: usize, seed: u64) -> Vec<u64> {
    use rand::Rng;
    let mut r = rng(seed, 0xF0);
    (0..n).map(|_| r.next_u64() | 1).collect()
}

fn mix(x: u64, salt: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(29)
        .wrapping_add(salt)
}

fn root_val(seed: u64) -> u64 {
    mix(seed, 1)
}

fn child_val(seed: u64, j: usize) -> u64 {
    mix(seed, 100 + j as u64)
}

fn grand_val(seed: u64, j: usize, k: usize) -> u64 {
    mix(seed, 10_000 + j as u64 * 100 + k as u64)
}

/// Full kernel output: shard folds, per-root child logs, per-root
/// grandchild folds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// `A_SHARDS` root-result accumulators (order-sensitive folds).
    pub shards: Vec<u64>,
    /// Per-root child value logs (order-sensitive).
    pub children: Vec<Vec<u64>>,
    /// Per-root grandchild folds (order-sensitive).
    pub grands: Vec<u64>,
}

fn fold_shard(acc: u64, v: u64) -> u64 {
    acc.rotate_left(7) ^ v
}

fn fold_grand(acc: u64, v: u64) -> u64 {
    acc.wrapping_mul(31).wrapping_add(v)
}

/// Sequential oracle: depth-first expansion of every root.
pub fn seq(seeds: &[u64], shape: Shape) -> Output {
    let mut out = Output {
        shards: vec![0; A_SHARDS],
        children: vec![Vec::new(); seeds.len()],
        grands: vec![0; seeds.len()],
    };
    for (i, &seed) in seeds.iter().enumerate() {
        out.shards[i % A_SHARDS] = fold_shard(out.shards[i % A_SHARDS], root_val(seed));
        for j in 0..shape.children {
            out.children[i].push(child_val(seed, j));
            for k in 0..shape.grands {
                out.grands[i] = fold_grand(out.grands[i], grand_val(seed, j, k));
            }
        }
    }
    out
}

/// Conventional-parallel baseline: the per-root expansions are
/// independent, so threads each take a contiguous root range; the
/// order-sensitive shard folds run sequentially afterwards.
pub fn cp(seeds: &[u64], shape: Shape, threads: usize) -> Output {
    let ranges = crate::common::even_ranges(seeds.len(), threads.max(1));
    let mut out = Output {
        shards: vec![0; A_SHARDS],
        children: vec![Vec::new(); seeds.len()],
        grands: vec![0; seeds.len()],
    };
    let locals: Vec<Vec<(usize, Vec<u64>, u64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|r| {
                let base = r.start;
                let seeds = &seeds[r];
                s.spawn(move || {
                    seeds
                        .iter()
                        .enumerate()
                        .map(|(o, &seed)| {
                            let mut kids = Vec::with_capacity(shape.children);
                            let mut g = 0u64;
                            for j in 0..shape.children {
                                kids.push(child_val(seed, j));
                                for k in 0..shape.grands {
                                    g = fold_grand(g, grand_val(seed, j, k));
                                }
                            }
                            (base + o, kids, g)
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for per_thread in locals {
        for (i, kids, g) in per_thread {
            out.children[i] = kids;
            out.grands[i] = g;
        }
    }
    for (i, &seed) in seeds.iter().enumerate() {
        out.shards[i % A_SHARDS] = fold_shard(out.shards[i % A_SHARDS], root_val(seed));
    }
    out
}

/// Everything the delegated closures need, in one `Arc`.
struct Cx {
    rt: Runtime,
    seeds: Vec<u64>,
    shape: Shape,
    children: Vec<Writable<Vec<u64>, SequenceSerializer>>,
    grands: Vec<Writable<u64, SequenceSerializer>>,
}

fn run_child(cx: &Arc<Cx>, v: &mut Vec<u64>, i: usize, j: usize) {
    v.push(child_val(cx.seeds[i], j));
    for k in 0..cx.shape.grands {
        dispatch_grand(cx, i, j, k);
    }
}

fn dispatch_child(cx: &Arc<Cx>, i: usize, j: usize) {
    let cx2 = Arc::clone(cx);
    cx.rt
        .delegate_scope(|scope| scope.delegate(&cx.children[i], move |v| run_child(&cx2, v, i, j)))
        .expect("an operation runs in a delegate context")
        .expect("delegate child");
}

fn dispatch_grand(cx: &Arc<Cx>, i: usize, j: usize, k: usize) {
    let val = grand_val(cx.seeds[i], j, k);
    cx.rt
        .delegate_scope(|scope| scope.delegate(&cx.grands[i], move |g| *g = fold_grand(*g, val)))
        .expect("an operation runs in a delegate context")
        .expect("delegate grandchild");
}

/// Serialization-sets implementation: roots delegated by the program
/// thread; children and grandchildren delegated recursively from the
/// contexts the operations run in.
pub fn ss(seeds: &[u64], shape: Shape, rt: &Runtime) -> Output {
    let shards: Vec<Writable<u64, SequenceSerializer>> =
        (0..A_SHARDS).map(|_| Writable::new(rt, 0)).collect();
    let cx = Arc::new(Cx {
        rt: rt.clone(),
        seeds: seeds.to_vec(),
        shape,
        children: (0..seeds.len())
            .map(|_| Writable::new(rt, Vec::new()))
            .collect(),
        grands: (0..seeds.len()).map(|_| Writable::new(rt, 0)).collect(),
    });

    rt.begin_isolation().expect("begin_isolation");
    for (i, &seed) in seeds.iter().enumerate() {
        let cx2 = Arc::clone(&cx);
        shards[i % A_SHARDS]
            .delegate(move |s| {
                *s = fold_shard(*s, root_val(seed));
                for j in 0..cx2.shape.children {
                    dispatch_child(&cx2, i, j);
                }
            })
            .expect("delegate root");
    }
    rt.end_isolation().expect("end_isolation");

    Output {
        shards: shards.iter().map(|w| w.call(|s| *s).unwrap()).collect(),
        children: cx
            .children
            .iter()
            .map(|w| w.call(|v| v.clone()).unwrap())
            .collect(),
        grands: cx.grands.iter().map(|w| w.call(|g| *g).unwrap()).collect(),
    }
}

/// Canonical output fingerprint.
pub fn fingerprint(out: &Output) -> u64 {
    let mut fp = Fingerprint::new();
    for &s in &out.shards {
        fp.update_u64(s);
    }
    for kids in &out.children {
        for &v in kids {
            fp.update_u64(v);
        }
    }
    for &g in &out.grands {
        fp.update_u64(g);
    }
    fp.finish()
}

/// Harness wiring.
pub struct Bench {
    seeds: Vec<u64>,
    shape: Shape,
}

impl Bench {
    /// Generates the input for `scale`.
    pub fn at(scale: Scale) -> Self {
        let shape = shape(scale);
        Bench {
            seeds: seeds(shape.roots, ss_workloads::scale::DEFAULT_SEED),
            shape,
        }
    }
}

impl crate::common::BenchInstance for Bench {
    fn name(&self) -> &'static str {
        "nested_fanout"
    }
    fn run_seq(&self) -> u64 {
        fingerprint(&seq(&self.seeds, self.shape))
    }
    fn run_cp(&self, threads: usize) -> u64 {
        fingerprint(&cp(&self.seeds, self.shape, threads))
    }
    fn run_ss(&self, rt: &Runtime) -> u64 {
        fingerprint(&ss(&self.seeds, self.shape, rt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Vec<u64>, Shape) {
        let shape = Shape {
            roots: 12,
            children: 3,
            grands: 2,
        };
        (seeds(shape.roots, 42), shape)
    }

    #[test]
    fn implementations_agree_exactly() {
        let (seeds, shape) = small();
        let a = seq(&seeds, shape);
        assert_eq!(a, cp(&seeds, shape, 3));
        let rt = Runtime::builder().delegate_threads(2).build().unwrap();
        assert_eq!(a, ss(&seeds, shape, &rt));
    }

    #[test]
    fn ss_agrees_across_runtime_shapes_including_program_executed_roots() {
        let (seeds, shape) = small();
        let expected = seq(&seeds, shape);
        for delegates in [0, 1, 2, 4] {
            let rt = Runtime::builder()
                .delegate_threads(delegates)
                .build()
                .unwrap();
            assert_eq!(ss(&seeds, shape, &rt), expected, "delegates = {delegates}");
        }
        // Zero delegates (the loop's first shape) run every level on the
        // program thread; a four-slot ring makes it take roots and nest
        // from them.
        let rt = Runtime::builder()
            .delegate_threads(2)
            .queue_capacity(4)
            .build()
            .unwrap();
        assert_eq!(ss(&seeds, shape, &rt), expected);
    }

    #[test]
    fn parallel_runtimes_use_real_nested_delegation() {
        let (seeds, shape) = small();
        let rt = Runtime::builder().delegate_threads(2).build().unwrap();
        let _ = ss(&seeds, shape, &rt);
        let stats = rt.stats();
        assert!(
            stats.nested_delegations > 0,
            "expected nested delegations, got {stats:?}"
        );
    }
}
