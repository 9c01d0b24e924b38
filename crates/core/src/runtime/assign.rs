//! Placement: which executor runs a serialization set.
//!
//! The paper's one rule is **static assignment** — `SsId mod delegates`
//! (§4) — and it is the only rule here ([`static_executor`]). It is
//! zero-coordination (any thread computes it from the id alone), so
//! every routing path can recompute it instead of remembering it. What
//! static placement cannot see is load: the root program thread **takes**
//! a fresh set whose delegate's ring is loaded (`runtime/program.rs`), and
//! idle delegates **steal** from loaded peers under a
//! [`StealPolicy`](crate::StealPolicy) (the [`StealShared`] transport,
//! priced by the [`CostBook`] under `CostAware`). Ids that alias under
//! modulo are repaired where they are made: the object serializer mixes
//! the address it serializes on (`serializer.rs`).

use std::collections::HashMap;

use parking_lot::Mutex;
use ss_queue::StealDeque;

use crate::config::StealPlan;
use crate::invocation::Invocation;
use crate::serializer::SsId;

/// Which executor runs a serialization set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Executor {
    /// Inline on the program thread.
    Program,
    /// Delegate thread with this index.
    Delegate(usize),
}

/// The paper's static assignment, the one placement rule:
/// `ss mod n_delegates` (§4). `n_delegates ≥ 1`.
#[inline]
pub(crate) fn static_executor(ss: SsId, n_delegates: usize) -> Executor {
    Executor::Delegate((ss.0 % n_delegates as u64) as usize)
}

/// Smoothing factor for the [`CostBook`]: weight of the newest
/// observation.
const EWMA_ALPHA: f64 = 0.25;

/// Fallback cost (ns) for sets never observed before, used until the
/// book has any real observations to average instead.
const EWMA_DEFAULT_COST: f64 = 1_000.0;

/// Cap on the per-set cost map. Workloads that mint fresh set ids
/// forever (new `Writable`s every epoch) would otherwise grow it without
/// bound; beyond the cap, new sets are not tracked individually and just
/// cost the typical estimate.
const EWMA_MAX_TRACKED_SETS: usize = 65_536;

/// Number of shards in the [`CostBook`] (keys spread by Fibonacci hash,
/// so delegates observing costs concurrently rarely contend).
const COST_BOOK_SHARDS: usize = 8;

/// One [`CostBook`] shard: per-set EWMA estimates plus their running sum
/// (for the O(1) typical-cost fallback).
#[derive(Default)]
struct BookShard {
    cost: HashMap<u64, f64>,
    sum: f64,
}

/// The steal-pricing cost model behind
/// [`StealPolicy::CostAware`](crate::StealPolicy::CostAware): a shared,
/// sharded table of per-set operation-cost EWMAs, fed by every delegate
/// as it completes operations and read by thieves pricing victim queues
/// and sizing steals.
///
/// `EWMA_ALPHA` smoothing, the nominal default before any observation,
/// and a bounded per-shard map (untracked sets cost the typical estimate
/// — graceful degradation, never growth).
pub(crate) struct CostBook {
    shards: Box<[Mutex<BookShard>]>,
}

impl CostBook {
    pub(crate) fn new() -> Self {
        CostBook {
            shards: (0..COST_BOOK_SHARDS)
                .map(|_| Mutex::new(BookShard::default()))
                .collect(),
        }
    }

    fn shard(&self, set: u64) -> &Mutex<BookShard> {
        // Fibonacci hash, high bits — same spreading trick as the
        // auditor's shards.
        let h = (set.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61) as usize;
        &self.shards[h & (COST_BOOK_SHARDS - 1)]
    }

    /// Folds one observed runtime into the set's EWMA (beyond the cap,
    /// new sets stay untracked).
    pub(crate) fn observe(&self, set: u64, nanos: u64) {
        let observed = nanos as f64;
        let mut s = self.shard(set).lock();
        if let Some(estimate) = s.cost.get_mut(&set) {
            let delta = EWMA_ALPHA * (observed - *estimate);
            *estimate += delta;
            s.sum += delta;
        } else if s.cost.len() < EWMA_MAX_TRACKED_SETS / COST_BOOK_SHARDS {
            s.cost.insert(set, observed);
            s.sum += observed;
        }
    }

    /// Estimated cost (ns) of one operation of `set`: its EWMA, or the
    /// typical cost for sets never observed.
    pub(crate) fn estimate(&self, set: u64) -> f64 {
        let known = { self.shard(set).lock().cost.get(&set).copied() };
        known.unwrap_or_else(|| self.typical())
    }

    /// Mean of all known estimates (the cost of an unobserved set), or
    /// the nominal default before any observation exists.
    pub(crate) fn typical(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for shard in self.shards.iter() {
            let s = shard.lock();
            sum += s.sum;
            n += s.cost.len();
        }
        if n == 0 {
            EWMA_DEFAULT_COST
        } else {
            sum / n as f64
        }
    }
}

// ----------------------------------------------------------------------
// work stealing (the stealing-mode transport state)

/// Everything the stealing mode shares between the program thread and the
/// delegate threads: one [`StealDeque`] per delegate (replacing the SPSC
/// channels) and the plan every thief steals by. Routing state — each
/// domain's sharded pin map, resolved through the shared
/// [`Router`](super::Router), which thieves also hold — and delegate-side
/// trace events live in the runtime's shared `Core`.
pub(crate) struct StealShared {
    pub(crate) deques: Box<[StealDeque<Invocation>]>,
    pub(crate) plan: StealPlan,
}

impl StealShared {
    pub(crate) fn new(n_delegates: usize, plan: StealPlan) -> Self {
        StealShared {
            deques: (0..n_delegates).map(|_| StealDeque::new()).collect(),
            plan,
        }
    }

    /// Epoch reset: forget started sets so the next epoch re-routes (and
    /// re-steals) freely. Only sound when every deque has drained (the
    /// `end_isolation` barrier guarantees it). Pins need no reset here —
    /// the router's pin map is epoch-stamped and expires lazily, shard
    /// by shard.
    pub(crate) fn reset_epoch(&self) {
        for d in self.deques.iter() {
            d.begin_epoch();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_matches_paper_modulo() {
        assert_eq!(static_executor(SsId(0), 3), Executor::Delegate(0));
        assert_eq!(static_executor(SsId(4), 3), Executor::Delegate(1));
        assert_eq!(static_executor(SsId(2), 3), Executor::Delegate(2));
        assert_eq!(static_executor(SsId(5), 3), Executor::Delegate(2));
    }

    #[test]
    fn cost_book_smooths_estimates_and_falls_back_to_typical() {
        let book = CostBook::new();
        assert_eq!(book.typical(), 1_000.0); // nominal default, no history
        book.observe(5, 1_000);
        book.observe(5, 2_000);
        // EWMA smoothing: 1000 + 0.25 * (2000 - 1000).
        assert_eq!(book.estimate(5), 1_250.0);
        // An unobserved set prices at the mean of the known estimates.
        book.observe(6, 750);
        assert_eq!(book.estimate(999), (1_250.0 + 750.0) / 2.0);
    }
}
