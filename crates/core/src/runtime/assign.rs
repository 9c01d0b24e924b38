//! Placement: which executor runs a serialization set.
//!
//! The paper's one rule is **static assignment** — `SsId mod delegates`
//! (§4) — and it is the only rule here ([`static_executor`]). It is
//! zero-coordination (any thread computes it from the id alone), so
//! every routing path can recompute it instead of remembering it. What
//! static placement cannot see is load: the root program thread **takes**
//! a fresh set whose delegate's ring is loaded (`runtime/program.rs`), and
//! with stealing on, idle delegates **steal** from loaded peers (the
//! [`StealShared`] transport). Ids that alias under modulo are repaired
//! where they are made: the object serializer mixes the address it
//! serializes on (`serializer.rs`).

use ss_queue::StealDeque;

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

// ----------------------------------------------------------------------
// work stealing (the stealing-mode transport state)

/// Depth imbalance (operations) a steal must exceed: a migration pays
/// shard locks on both deques plus a pin rewrite, which one operation of
/// imbalance does not repay.
pub(crate) const STEAL_BAR: u64 = 1;

/// Everything the stealing mode shares between the program thread and the
/// delegate threads: one [`StealDeque`] per delegate (replacing the SPSC
/// channels). Routing state — each domain's sharded pin map, resolved
/// through the shared [`Router`](super::Router), which thieves also hold —
/// and delegate-side trace events live in the runtime's shared `Core`.
pub(crate) struct StealShared {
    pub(crate) deques: Box<[StealDeque<Invocation>]>,
}

impl StealShared {
    pub(crate) fn new(n_delegates: usize) -> Self {
        StealShared {
            deques: (0..n_delegates).map(|_| StealDeque::new()).collect(),
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
}
