//! A recycling pool of one-shot completion cells.
//!
//! Every future-returning delegation needs a completion cell, and the
//! naive implementation allocates one (two `Arc`s in the original design)
//! per operation — a steady drip of allocator traffic on the runtime's
//! hot path. Because the cell core ([`Signal`](crate::oneshot)) is
//! non-generic — the value lives in a fixed inline buffer, with large
//! payloads boxed by the *sender* — settled cells are reusable for any
//! future value type, and a runtime can keep a pool of them.
//!
//! The pool's correctness leans on a property only the runtime can
//! provide: a **quiescence point**. [`CellPool::recycle`] may reset a
//! cell only when no sender, receiver, or [`WaitSignal`](crate::oneshot::WaitSignal) probe for its
//! previous use still exists, which the pool detects structurally as
//! `Arc::strong_count == 1` (its own reference). The serialization-sets
//! runtime calls `recycle` at epoch boundaries, after `end_isolation`'s
//! barrier has drained every delegate queue — senders are gone because
//! every operation completed, and receivers are gone unless the user
//! still holds the future, in which case the cell simply stays in flight
//! until a later recycle finds it released. A cell is therefore returned
//! to the free list **exactly once** per use: return happens only on the
//! in-flight → free move, and a cell is in exactly one list at a time.
//!
//! Dropped futures need no special path: cancelling a future just drops
//! an `Arc`, and the next recycle observes the count. The value of a
//! completed-but-never-polled future is dropped inside
//! [`reset`](crate::oneshot), at the recycle point.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::backoff::Backoff;
use crate::oneshot::{pair_from_signal, OneshotReceiver, OneshotSender, Signal};

/// Floor of the free list's cap. The cap itself follows demand: each
/// recycle keeps as many free cells as the busiest of the last
/// [`DEMAND_WINDOW`] epochs issued (or this floor, if more), so a program
/// that issues N futures per epoch allocates none after its first epoch
/// whatever N is — also when a few small epochs separate its large ones —
/// while a one-off burst does not pin its high-water mark of memory
/// forever: once it has left the window, the next recycle drops the
/// excess.
const FREE_LIST_FLOOR: usize = 1024;

/// Epochs (recycle-to-recycle spans) whose demand sets the cap. Wide
/// enough that a handful of small epochs between large ones (a probe, a
/// reduction phase) costs the large ones nothing; the price is that a
/// burst's cells — about a hundred bytes each — outlive it by this many
/// epochs.
const DEMAND_WINDOW: usize = 8;

/// The two lists, guarded by the pool's spinlock.
struct Lists {
    /// Quiescent cells ready to be re-issued.
    free: Vec<Arc<Signal>>,
    /// Cells issued since their last recycle; may still have live handles.
    in_flight: Vec<Arc<Signal>>,
    /// Cells issued since the previous recycle.
    issued: usize,
    /// `issued` of the epochs closed before that, newest first.
    demand: [usize; DEMAND_WINDOW - 1],
}

/// A pool of recyclable one-shot cells (see the module docs for the
/// quiescence contract).
///
/// Lock discipline: a single spinlock guards both lists. Acquisition is
/// one delegation-rate pop (`oneshot`) or one epoch-rate scan
/// (`recycle`); the critical sections are tiny and the runtime's
/// delegation paths are already serialized per producer, so contention is
/// negligible and a full mutex would be overkill for this crate's
/// dependency budget.
pub struct CellPool {
    locked: AtomicBool,
    lists: std::cell::UnsafeCell<Lists>,
    /// Total cells ever allocated (diagnostic; reuse = issues − created).
    created: AtomicU64,
}

// SAFETY: `lists` is only accessed under `locked` (see `with_lists`).
unsafe impl Send for CellPool {}
unsafe impl Sync for CellPool {}

impl CellPool {
    /// Creates an empty pool; cells are allocated on demand.
    pub fn new() -> Self {
        CellPool {
            locked: AtomicBool::new(false),
            lists: std::cell::UnsafeCell::new(Lists {
                free: Vec::new(),
                in_flight: Vec::new(),
                issued: 0,
                demand: [0; DEMAND_WINDOW - 1],
            }),
            created: AtomicU64::new(0),
        }
    }

    fn with_lists<R>(&self, f: impl FnOnce(&mut Lists) -> R) -> R {
        let backoff = Backoff::new();
        while self
            .locked
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            backoff.snooze();
        }
        // SAFETY: the spinlock is held, giving exclusive access.
        let out = f(unsafe { &mut *self.lists.get() });
        self.locked.store(false, Ordering::Release);
        out
    }

    /// Issues a one-shot cell tagged `tag`, reusing a quiescent cell when
    /// one is available and allocating otherwise. The steady-state path —
    /// pool warm, futures resolved within their epoch — performs no heap
    /// allocation and takes the lock once.
    pub fn oneshot<T: Send>(&self, tag: u64) -> (OneshotSender<T>, OneshotReceiver<T>) {
        let reused = self.with_lists(|l| {
            l.issued += 1;
            let s = l.free.pop()?;
            // Popped off `free` and not yet re-registered: ours is the sole
            // reference, so the reset — which only needs to restamp the
            // tag; the value was already dropped at recycle — is exclusive.
            s.reset(tag);
            l.in_flight.push(Arc::clone(&s));
            Some(s)
        });
        let signal = reused.unwrap_or_else(|| {
            // Allocate outside the lock, then register.
            self.created.fetch_add(1, Ordering::Relaxed);
            let s = Arc::new(Signal::new(tag));
            self.with_lists(|l| l.in_flight.push(Arc::clone(&s)));
            s
        });
        pair_from_signal(signal)
    }

    /// Scans the in-flight list and moves every released cell (no live
    /// sender/receiver/probe — `Arc::strong_count == 1`) to the free
    /// list, resetting it; then trims the free list to what the busiest
    /// of the last eight epochs issued (at least 1024 cells stay). Returns
    /// the number of cells recycled.
    ///
    /// Must only be called at a quiescence point (the runtime's epoch
    /// boundary): the count observation is an `Acquire` load pairing with
    /// the `Release` decrements of the dropped handles, so all of their
    /// accesses happened-before the reset.
    pub fn recycle(&self) -> usize {
        self.with_lists(|l| {
            let Lists {
                free,
                in_flight,
                issued,
                demand,
            } = l;
            let closing = std::mem::take(issued);
            let cap = demand
                .iter()
                .fold(FREE_LIST_FLOOR.max(closing), |c, &d| c.max(d));
            demand.rotate_right(1);
            demand[0] = closing;
            let before = in_flight.len();
            in_flight.retain(|cell| {
                if Arc::strong_count(cell) > 1 {
                    return true; // a handle survives (future held across epochs)
                }
                cell.reset(0);
                if free.len() < cap {
                    free.push(Arc::clone(cell));
                }
                false
            });
            free.truncate(cap);
            before - in_flight.len()
        })
    }

    /// `(free, in_flight)` list lengths — diagnostics and tests.
    pub fn counts(&self) -> (usize, usize) {
        self.with_lists(|l| (l.free.len(), l.in_flight.len()))
    }

    /// Total cells ever allocated by this pool.
    pub fn created(&self) -> u64 {
        self.created.load(Ordering::Relaxed)
    }
}

impl Default for CellPool {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oneshot::OneshotPoll;

    #[test]
    fn pool_reuses_cells_across_recycles() {
        let pool = CellPool::new();
        let (tx, rx) = pool.oneshot::<u64>(1);
        tx.send(5);
        assert!(matches!(rx.poll(), OneshotPoll::Ready(5)));
        drop(rx);
        assert_eq!(pool.counts(), (0, 1));
        assert_eq!(pool.recycle(), 1);
        assert_eq!(pool.counts(), (1, 0));
        // Second use: no new allocation, tag restamped, works for a
        // *different* value type.
        let (tx, rx) = pool.oneshot::<String>(2);
        assert_eq!(pool.created(), 1);
        assert_eq!(rx.tag(), 2);
        tx.send("hi".into());
        assert!(matches!(rx.poll(), OneshotPoll::Ready(ref s) if s == "hi"));
    }

    #[test]
    fn live_handles_keep_cells_in_flight() {
        let pool = CellPool::new();
        let (tx, rx) = pool.oneshot::<u64>(0);
        assert_eq!(pool.recycle(), 0); // both handles live
        tx.send(1);
        assert_eq!(pool.recycle(), 0); // receiver still live
        let probe = rx.signal();
        drop(rx);
        assert_eq!(pool.recycle(), 0); // probe still live
        drop(probe);
        assert_eq!(pool.recycle(), 1);
        assert_eq!(pool.counts(), (1, 0));
    }

    #[test]
    fn dropped_future_value_is_freed_at_recycle() {
        static DROPS: AtomicU64 = AtomicU64::new(0);
        struct Bomb;
        impl Drop for Bomb {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let pool = CellPool::new();
        let (tx, rx) = pool.oneshot::<Bomb>(0);
        tx.send(Bomb);
        drop(rx); // cancelled future: value never taken
        assert_eq!(DROPS.load(Ordering::Relaxed), 0);
        assert_eq!(pool.recycle(), 1);
        assert_eq!(DROPS.load(Ordering::Relaxed), 1); // dropped exactly once
        assert_eq!(pool.recycle(), 0); // no double-recycle
        assert_eq!(DROPS.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn free_list_cap_follows_demand_and_decays() {
        const BURST: usize = 5_000;
        let pool = CellPool::new();
        let epoch = |n: usize| {
            drop((0..n).map(|_| pool.oneshot::<u64>(0)).collect::<Vec<_>>());
            assert_eq!(pool.recycle(), n);
        };
        // A burst well past the floor is kept whole: the next epoch of
        // the same size reuses every cell.
        epoch(BURST);
        assert_eq!(pool.counts(), (BURST, 0));
        epoch(BURST);
        assert_eq!(pool.created(), BURST as u64);
        assert_eq!(pool.counts(), (BURST, 0));
        // Small epochs in between do not cost a recurring large one its
        // cells while it is still inside the demand window…
        for _ in 1..DEMAND_WINDOW {
            epoch(10);
        }
        epoch(BURST);
        assert_eq!(pool.created(), BURST as u64);
        // …but demand that stays down lets the burst's cells go: a
        // window of small epochs later the list is back at the floor.
        for _ in 0..DEMAND_WINDOW {
            epoch(10);
        }
        assert_eq!(pool.created(), BURST as u64);
        let (free, in_flight) = pool.counts();
        assert!(free <= FREE_LIST_FLOOR, "free list still holds {free}");
        assert_eq!(in_flight, 0);
    }
}
