//! Cache-optimized lock-free single-producer / single-consumer queues.
//!
//! This crate is the communication substrate of the serialization-sets
//! runtime, reproducing the queue design the paper builds on:
//!
//! > "The communication queue is based on FastForward \[6\], a cache-optimized
//! > lock-free concurrent queue, which performs very low overhead data
//! > transfers between processors. … the only synchronization required is
//! > checking the full condition on the producer side, and the empty
//! > condition on the consumer side. … these conditions are checked in a spin
//! > loop rather than using blocking OS synchronization." — §4
//!
//! Two queue implementations are provided:
//!
//! * [`SpscQueue`] — FastForward-style: *no shared head/tail indices*.
//!   Each slot carries its own full/empty flag; the producer and consumer
//!   keep purely thread-local cursors, so in steady state they touch disjoint
//!   cache lines and never contend on index words. The shared indices are
//!   for **tail retraction** ([`Producer::retract`]): the consumer
//!   publishes a claim once per batch of pops, and the producer, at its
//!   waits, may take values back past it; the consumer also publishes a
//!   retired cursor ([`Consumer::retire`]), below which everything it
//!   popped has finished. Every ring also carries a
//!   multi-producer **injector lane** ([`Producer::injector`] →
//!   [`Injector`]): an unbounded spinlocked FIFO that turns the pair into an
//!   MPSC queue when extra producers (the runtime's recursive-delegation
//!   path) need to reach the same consumer without risking a
//!   bounded-ring deadlock.
//! * [`StealDeque`] — the work-stealing substrate of the runtime's stealing
//!   mode: keyed entries, whole-batch steals, epoch-aware started-key
//!   filtering, per-key in-flight counts that gate quiescent-tail
//!   (operation-granularity) steals, and fence entries that freeze
//!   everything before them. This is what replaces the SPSC channel when
//!   idle delegates are allowed to steal never-started serialization sets
//!   — or the queued tails of quiescent started sets — from a loaded peer.
//!
//! Beside the queues, the [`slab`] module provides the result slab: the
//! completion slots behind the runtime's futures on delegated operations
//! (`SsFuture` in ss-core), issued by index from one lane per issuing
//! thread and reclaimed wholesale at an epoch barrier. A send never fails
//! (a dropped receiver's value is dropped exactly once), a dropped
//! receiver cancels, and a value-blind probe lets the runtime's deadlock
//! detector watch a slot and a waiter register to be woken. The
//! [`shardmap`] module provides the sharded, epoch-stamped pin map the
//! runtime's routing layer keys serialization sets with: per-shard locks
//! for writers, lock-free reads for the re-delegate-to-a-pinned-set hot
//! path. The
//! [`memomap`] module reuses the same sharding recipe for the
//! incremental-epochs result cache: fingerprinted results stamped with
//! per-set generations, invalidated by a counter bump instead of a walk.
//! [`Pending`] is the runtime objects' outstanding-operation count, in
//! three halves — locked raises, the program thread's raises, settles —
//! that each have one writer at a time.
//!
//! The SPSC queues are bounded, lock-free, and split statically into a
//! [`Producer`]/[`Consumer`] handle pair so the single-producer /
//! single-consumer contract is enforced by the type system rather than by
//! convention. The steal deque is unbounded and shared (`&self` API): the
//! stealing protocol needs producer, owner and thieves to reach the same
//! structure.
//!
//! # Example
//!
//! ```
//! let (tx, rx) = ss_queue::SpscQueue::with_capacity(64);
//! std::thread::scope(|s| {
//!     s.spawn(move || {
//!         for i in 0..1000u64 {
//!             tx.push_blocking(i);
//!         }
//!     });
//!     s.spawn(move || {
//!         for i in 0..1000u64 {
//!             assert_eq!(rx.pop_blocking(), Some(i));
//!         }
//!     });
//! });
//! ```

mod backoff;
mod deque;
pub mod memomap;
mod pad;
mod pending;
pub mod shardmap;
pub mod slab;
mod spsc;

pub use backoff::Backoff;
pub use deque::{push_shard_of, FenceScope, StealDeque, StealScan, StealTag, PUSH_SHARDS};
pub use pad::CachePadded;
pub use pending::Pending;
pub use spsc::{Consumer, Injector, Producer, Retraction, SpscQueue, MAX_CLAIM};

/// Error returned by `try_push` when the ring is full; carries the rejected
/// value so the caller can retry without cloning.
#[derive(Debug, PartialEq, Eq)]
pub struct Full<T>(pub T);

/// Result of a `try_pop` on a queue whose producer may disconnect.
#[derive(Debug, PartialEq, Eq)]
pub enum Pop<T> {
    /// A value was dequeued.
    Value(T),
    /// The queue is currently empty but the producer is still connected.
    Empty,
    /// The queue is empty and the producer handle has been dropped; no more
    /// values will ever arrive.
    Disconnected,
}

impl<T> Pop<T> {
    /// Converts to `Option`, mapping both `Empty` and `Disconnected` to `None`.
    #[inline]
    pub fn value(self) -> Option<T> {
        match self {
            Pop::Value(v) => Some(v),
            _ => None,
        }
    }
}
