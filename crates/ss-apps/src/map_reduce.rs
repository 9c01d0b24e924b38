//! map_reduce — a future-returning kernel (beyond Table 2).
//!
//! Every Table 2 program routes results back through the shared objects
//! themselves: delegated methods "must be void", so a reduction means
//! either a `Reducible` or a reclaim-and-read of each shard object. This
//! kernel exercises the repo's extension past that restriction: the map
//! phase delegates one **future-returning** operation per shard
//! (`Writable::delegate_with`), and the reduce phase consumes the
//! [`ss_core::SsFuture`]s *in shard order, mid-epoch* — an order-sensitive
//! fold with no shared accumulator, no reclaim, and no second epoch.
//!
//! Determinism: each shard object has a single producer (the program
//! thread) and one operation per epoch; futures are waited in shard
//! order, so the fold order is the sequential order regardless of which
//! delegate finishes first.
//!
//! The three implementations (`seq`/`cp`/`ss`) are output-identical, as
//! for every registry kernel; `ss` additionally reports real future
//! traffic (`Stats::futures_resolved` ≥ shard count on every runtime
//! shape, inline ones included — inline futures are born ready).

use ss_core::{Runtime, SequenceSerializer, Writable};
use ss_workloads::rng::rng;
use ss_workloads::scale::Scale;

use crate::common::Fingerprint;

/// Kernel geometry: shards × elements per shard, plus fold rounds that
/// give the map phase real per-element work.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Number of shard objects (one future-returning map op each).
    pub shards: usize,
    /// Elements per shard.
    pub elems: usize,
}

/// Scale presets following the Table 2 S/M/L ratio.
pub fn shape(scale: Scale) -> Shape {
    match scale {
        Scale::S => Shape {
            shards: 16,
            elems: 256,
        },
        Scale::M => Shape {
            shards: 32,
            elems: 1024,
        },
        Scale::L => Shape {
            shards: 64,
            elems: 4096,
        },
    }
}

/// Deterministic input: `shards` vectors of `elems` pseudo-random words.
pub fn input(shape: Shape, seed: u64) -> Vec<Vec<u64>> {
    use rand::Rng;
    let mut r = rng(seed, 0xF7);
    (0..shape.shards)
        .map(|_| (0..shape.elems).map(|_| r.next_u64()).collect())
        .collect()
}

/// Per-shard map result: an order-sensitive digest plus summary stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partial {
    /// Order-sensitive fold over the shard's elements.
    pub digest: u64,
    /// Wrapping sum of the shard's elements.
    pub sum: u64,
    /// Maximum element.
    pub max: u64,
}

/// The map function: one pass over a shard. Mutates the shard in place
/// (each element is salted) so the operation is a genuine writable-domain
/// method, and returns the [`Partial`] — the value that rides the future.
pub fn map_shard(data: &mut [u64]) -> Partial {
    let mut p = Partial {
        digest: 0xcbf2_9ce4_8422_2325,
        sum: 0,
        max: 0,
    };
    for x in data.iter_mut() {
        *x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23) ^ 0x5bd1;
        p.digest = (p.digest ^ *x).wrapping_mul(0x1_0000_01b3);
        p.sum = p.sum.wrapping_add(*x);
        p.max = p.max.max(*x);
    }
    p
}

/// The reduce function: order-sensitive fold of the partials.
pub fn reduce(partials: impl IntoIterator<Item = Partial>) -> Partial {
    let mut acc = Partial {
        digest: 0,
        sum: 0,
        max: 0,
    };
    for p in partials {
        acc.digest = acc.digest.rotate_left(9) ^ p.digest;
        acc.sum = acc.sum.wrapping_add(p.sum);
        acc.max = acc.max.max(p.max);
    }
    acc
}

/// Sequential oracle: map each shard, fold in shard order.
pub fn seq(input: &[Vec<u64>]) -> Partial {
    let mut shards = input.to_vec();
    reduce(shards.iter_mut().map(|s| map_shard(s)))
}

/// Conventional-parallel baseline: threads map contiguous shard ranges;
/// the order-sensitive reduction runs sequentially afterwards, exactly
/// like the shared-accumulator pattern the paper's CP codes use.
pub fn cp(input: &[Vec<u64>], threads: usize) -> Partial {
    let ranges = crate::common::even_ranges(input.len(), threads.max(1));
    let partials: Vec<Vec<(usize, Partial)>> = std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|r| {
                let base = r.start;
                let chunk = &input[r];
                s.spawn(move || {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(o, shard)| {
                            let mut shard = shard.clone();
                            (base + o, map_shard(&mut shard))
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut ordered = vec![None; input.len()];
    for per_thread in partials {
        for (i, p) in per_thread {
            ordered[i] = Some(p);
        }
    }
    reduce(ordered.into_iter().map(|p| p.unwrap()))
}

/// Serialization-sets implementation: delegate one future-returning map
/// operation per shard, then reduce by waiting the futures in shard order
/// — all inside a single isolation epoch. Works unchanged on every
/// runtime shape (serial mode and sets the program thread takes execute
/// inline and hand back ready futures).
pub fn ss(input: &[Vec<u64>], rt: &Runtime) -> Partial {
    let shards: Vec<Writable<Vec<u64>, SequenceSerializer>> =
        input.iter().map(|s| Writable::new(rt, s.clone())).collect();
    rt.begin_isolation().expect("begin_isolation");
    let futs: Vec<ss_core::SsFuture<Partial>> = shards
        .iter()
        .map(|w| w.delegate_with(|v| map_shard(v)).expect("delegate_with"))
        .collect();
    let out = reduce(futs.into_iter().map(|f| f.wait().expect("future wait")));
    rt.end_isolation().expect("end_isolation");
    out
}

/// Canonical output fingerprint.
pub fn fingerprint(p: &Partial) -> u64 {
    let mut fp = Fingerprint::new();
    fp.update_u64(p.digest);
    fp.update_u64(p.sum);
    fp.update_u64(p.max);
    fp.finish()
}

/// Harness wiring.
pub struct Bench {
    input: Vec<Vec<u64>>,
}

impl Bench {
    /// Generates the input for `scale`.
    pub fn at(scale: Scale) -> Self {
        Bench {
            input: input(shape(scale), ss_workloads::scale::DEFAULT_SEED),
        }
    }
}

impl crate::common::BenchInstance for Bench {
    fn name(&self) -> &'static str {
        "map_reduce"
    }
    fn run_seq(&self) -> u64 {
        fingerprint(&seq(&self.input))
    }
    fn run_cp(&self, threads: usize) -> u64 {
        fingerprint(&cp(&self.input, threads))
    }
    fn run_ss(&self, rt: &Runtime) -> u64 {
        fingerprint(&ss(&self.input, rt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Vec<Vec<u64>> {
        input(
            Shape {
                shards: 7,
                elems: 40,
            },
            99,
        )
    }

    #[test]
    fn implementations_agree_exactly() {
        let data = small();
        let expect = seq(&data);
        assert_eq!(cp(&data, 3), expect);
        let rt = Runtime::builder().delegate_threads(2).build().unwrap();
        assert_eq!(ss(&data, &rt), expect);
    }

    #[test]
    fn ss_agrees_across_runtime_shapes() {
        let data = small();
        let expect = seq(&data);
        for delegates in [0, 1, 2, 4] {
            let rt = Runtime::builder()
                .delegate_threads(delegates)
                .build()
                .unwrap();
            assert_eq!(ss(&data, &rt), expect, "delegates = {delegates}");
        }
        // A four-slot ring: the program thread takes sets and runs them.
        let rt = Runtime::builder()
            .delegate_threads(2)
            .queue_capacity(4)
            .build()
            .unwrap();
        assert_eq!(ss(&data, &rt), expect);
    }

    #[test]
    fn ss_uses_real_futures() {
        let data = small();
        let rt = Runtime::builder().delegate_threads(2).build().unwrap();
        let _ = ss(&data, &rt);
        assert_eq!(rt.stats().futures_resolved as usize, data.len());
    }
}
