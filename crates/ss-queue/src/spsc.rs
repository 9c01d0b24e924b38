//! FastForward-style SPSC ring buffer, extensible to MPSC via an
//! **injector lane**.
//!
//! The defining property of FastForward (Giacomoni et al., PPoPP 2008) is
//! that the producer and consumer share **no index variables**: each slot
//! carries its own full/empty flag, and each side keeps a purely thread-local
//! cursor. In steady state the producer's and consumer's working sets are
//! disjoint cache lines, so an enqueue/dequeue pair costs two uncontended
//! atomic operations. This is the queue the serialization-sets runtime uses
//! for program-thread → delegate-thread communication.
//!
//! # The multi-producer push path
//!
//! The ring itself stays single-producer — that is what makes it cheap —
//! but every queue also carries an **injector lane**: an unbounded,
//! spinlock-guarded FIFO that any number of [`Injector`] handles
//! (obtained via [`Producer::injector`]) may push into concurrently. The
//! consumer drains the ring first and falls back to the lane
//! ([`Consumer::try_pop_injected`]), so the two sides together form an
//! MPSC queue: per-producer FIFO order holds on both paths, and the hot
//! single-producer path is untouched when no injector is ever used.
//!
//! The lane is deliberately *unbounded* where the ring is bounded. The
//! runtime's recursive-delegation path pushes from delegate threads; if
//! those pushes could block on a full ring, two delegates pushing into
//! each other's full queues would deadlock (each is the only thread that
//! could drain the other). An unbounded side lane makes the nested push
//! wait-free with respect to the consumer.

use core::cell::{Cell, UnsafeCell};
use core::mem::MaybeUninit;
use core::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::collections::VecDeque;
use std::sync::Arc;

use crate::{Backoff, Full, Pop};

/// One ring slot: the `full` flag doubles as the synchronization variable
/// (FastForward uses the data word itself; we need a separate flag to support
/// arbitrary `T`, but the cache behaviour is the same — flag and payload live
/// on the same line for small `T`).
struct Slot<T> {
    full: AtomicBool,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Unbounded multi-producer side lane attached to every ring (see the
/// module docs). Guarded by a tiny [`Backoff`] spinlock; `len` is a
/// lock-free emptiness probe so the consumer's hot loop costs one relaxed
/// load when the lane is unused.
struct Lane<T> {
    locked: AtomicBool,
    len: AtomicUsize,
    items: UnsafeCell<VecDeque<T>>,
}

impl<T> Lane<T> {
    fn new() -> Self {
        Lane {
            locked: AtomicBool::new(false),
            len: AtomicUsize::new(0),
            items: UnsafeCell::new(VecDeque::new()),
        }
    }

    /// Runs `f` with the lane queue under the spinlock.
    fn with<R>(&self, f: impl FnOnce(&mut VecDeque<T>, &AtomicUsize) -> R) -> R {
        let backoff = Backoff::new();
        while self
            .locked
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            backoff.snooze();
        }
        // SAFETY: the spinlock is held, giving exclusive access to `items`;
        // its Acquire/Release edges order all lane accesses.
        let out = f(unsafe { &mut *self.items.get() }, &self.len);
        self.locked.store(false, Ordering::Release);
        out
    }
}

/// Bounded lock-free SPSC queue with slot-local signalling, plus the
/// multi-producer injector lane described in the module docs.
///
/// Construct with [`SpscQueue::with_capacity`], which returns the
/// statically-split [`Producer`] / [`Consumer`] handle pair;
/// [`Producer::injector`] mints shareable multi-producer handles.
pub struct SpscQueue<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    lane: Lane<T>,
    producer_alive: AtomicBool,
    consumer_alive: AtomicBool,
}

// SAFETY: slots are only accessed according to the SPSC protocol — the
// producer writes a slot only while `full == false` and the consumer reads it
// only while `full == true`, with Release/Acquire edges on `full` ordering
// the payload accesses. The injector lane is only touched under its spinlock
// (`Lane::with`). Values of `T` move between threads, hence `T: Send`.
unsafe impl<T: Send> Send for SpscQueue<T> {}
unsafe impl<T: Send> Sync for SpscQueue<T> {}

impl<T> SpscQueue<T> {
    /// Creates a queue with at least `capacity` slots (rounded up to a power
    /// of two) and returns the producer and consumer handles.
    pub fn with_capacity(capacity: usize) -> (Producer<T>, Consumer<T>) {
        let cap = capacity.max(1).next_power_of_two();
        let slots = (0..cap)
            .map(|_| Slot {
                full: AtomicBool::new(false),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let shared = Arc::new(SpscQueue {
            slots,
            mask: cap - 1,
            lane: Lane::new(),
            producer_alive: AtomicBool::new(true),
            consumer_alive: AtomicBool::new(true),
        });
        (
            Producer {
                shared: Arc::clone(&shared),
                head: Cell::new(0),
            },
            Consumer {
                shared,
                tail: Cell::new(0),
            },
        )
    }

    /// Number of slots in the ring.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Approximate number of occupied slots (O(capacity) scan; diagnostic
    /// use only — the whole point of FastForward is *not* maintaining a
    /// shared length).
    pub fn occupied_slots(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.full.load(Ordering::Relaxed))
            .count()
    }
}

impl<T> Drop for SpscQueue<T> {
    fn drop(&mut self) {
        // Sole owner at this point: both handles are gone. Drop any values
        // still in flight.
        for slot in self.slots.iter() {
            if slot.full.load(Ordering::Relaxed) {
                // SAFETY: `full == true` means the producer fully initialized
                // this slot and the consumer never took it.
                unsafe { (*slot.value.get()).assume_init_drop() };
            }
        }
    }
}

/// Sending half of an [`SpscQueue`]; owned by exactly one thread.
pub struct Producer<T> {
    shared: Arc<SpscQueue<T>>,
    head: Cell<usize>,
}

// The `Cell` cursor makes `Producer` `!Sync`, which is exactly the
// single-producer contract; it may still move between threads.
unsafe impl<T: Send> Send for Producer<T> {}

impl<T> Producer<T> {
    /// Attempts to enqueue without blocking. Returns the value back inside
    /// [`Full`] if the ring has no free slot.
    #[inline]
    pub fn try_push(&self, value: T) -> Result<(), Full<T>> {
        let q = &*self.shared;
        let idx = self.head.get() & q.mask;
        let slot = &q.slots[idx];
        if slot.full.load(Ordering::Acquire) {
            return Err(Full(value));
        }
        // SAFETY: `full == false` and we are the only producer, so no one
        // else touches the payload until we publish it below.
        unsafe { (*slot.value.get()).write(value) };
        slot.full.store(true, Ordering::Release);
        self.head.set(self.head.get().wrapping_add(1));
        Ok(())
    }

    /// Enqueues, spinning (then yielding) while the ring is full.
    ///
    /// Returns `Err(value)` if the consumer has disconnected, since the value
    /// would otherwise never be received.
    pub fn push_blocking(&self, mut value: T) -> Result<(), T> {
        let backoff = Backoff::new();
        loop {
            match self.try_push(value) {
                Ok(()) => return Ok(()),
                Err(Full(v)) => {
                    if !self.shared.consumer_alive.load(Ordering::Acquire) {
                        return Err(v);
                    }
                    value = v;
                    backoff.snooze();
                }
            }
        }
    }

    /// True if the ring has room for `n` more values — an O(1) probe of
    /// the one slot the `n`-th value would land in. The consumer empties
    /// slots in order and only this handle fills them, so that slot being
    /// empty means every slot before it is. `false` when `n` exceeds the
    /// capacity.
    #[inline]
    pub fn has_room(&self, n: usize) -> bool {
        let q = &*self.shared;
        (1..=q.capacity()).contains(&n)
            && !q.slots[self.head.get().wrapping_add(n - 1) & q.mask]
                .full
                .load(Ordering::Acquire)
    }

    /// True if at least `n` values sit in the ring (`1 <= n <= capacity`)
    /// — an O(1) occupancy probe of the slot `n` behind the head: the
    /// occupied slots are the ones just behind it, so that slot is full
    /// exactly when the `n - 1` after it are too.
    #[inline]
    pub fn holds_at_least(&self, n: usize) -> bool {
        let q = &*self.shared;
        debug_assert!((1..=q.capacity()).contains(&n));
        q.slots[self.head.get().wrapping_sub(n) & q.mask]
            .full
            .load(Ordering::Acquire)
    }

    /// True if the consumer handle has been dropped.
    #[inline]
    pub fn is_disconnected(&self) -> bool {
        !self.shared.consumer_alive.load(Ordering::Acquire)
    }

    /// Ring capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.shared.capacity()
    }

    /// Mints a shareable multi-producer handle onto this queue's injector
    /// lane (see the module docs). Any number of injectors may coexist and
    /// push concurrently; the ring producer keeps its exclusive fast path.
    pub fn injector(&self) -> Injector<T> {
        Injector {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.shared.producer_alive.store(false, Ordering::Release);
    }
}

/// Shareable multi-producer handle onto a queue's injector lane.
///
/// Obtained from [`Producer::injector`]; clones freely. Pushes are
/// unbounded (they never wait on the consumer) and FIFO within the lane,
/// so each injecting thread's items are delivered in its push order.
/// Injector handles do not participate in the ring's disconnect protocol:
/// dropping them says nothing about the stream.
pub struct Injector<T> {
    shared: Arc<SpscQueue<T>>,
}

impl<T> Clone for Injector<T> {
    fn clone(&self) -> Self {
        Injector {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Injector<T> {
    /// Appends a value to the injector lane. Never blocks. Returns the
    /// value back if the consumer handle is already observed dropped (the
    /// value would otherwise never be received); the check is best-effort
    /// — a push racing the consumer's drop may still be accepted, in
    /// which case the value sits in the lane and is dropped with the
    /// queue. Callers needing a hard delivery guarantee must order pushes
    /// before the consumer's shutdown themselves (the runtime does: the
    /// epoch protocol forbids shutdown with work in flight).
    pub fn push(&self, value: T) -> Result<(), T> {
        if !self.shared.consumer_alive.load(Ordering::Acquire) {
            return Err(value);
        }
        self.shared.lane.with(|items, len| {
            items.push_back(value);
            len.fetch_add(1, Ordering::Release);
        });
        Ok(())
    }

    /// Appends a whole batch to the injector lane under a **single**
    /// spinlock acquisition — the multi-producer batch entry point for
    /// nested `delegate_iter` submission. All-or-nothing: if the consumer
    /// handle is already observed dropped, `None` is returned and no item
    /// is pushed (the batch is dropped); the disconnect check is
    /// best-effort exactly as in [`Injector::push`]. On success, returns
    /// the number of items pushed.
    pub fn push_batch<I: IntoIterator<Item = T>>(&self, items: I) -> Option<usize> {
        if !self.shared.consumer_alive.load(Ordering::Acquire) {
            return None;
        }
        Some(self.shared.lane.with(|lane, len| {
            let before = lane.len();
            lane.extend(items);
            let n = lane.len() - before;
            len.fetch_add(n, Ordering::Release);
            n
        }))
    }

    /// Number of values currently waiting in the lane (lock-free read).
    #[inline]
    pub fn injected_len(&self) -> usize {
        self.shared.lane.len.load(Ordering::Acquire)
    }

    /// Grows the lane's backing buffer to hold at least `total` items
    /// without reallocating. The lane is unbounded, so `push` grows the
    /// buffer amortized whenever the backlog exceeds every previous peak;
    /// a caller that bounds its own backlog (the runtime caps a session's
    /// in-flight work) can reserve up to that bound once, outside its hot
    /// path, and `push` then never touches the allocator while the bound
    /// holds.
    pub fn reserve(&self, total: usize) {
        self.shared.lane.with(|items, _| {
            items.reserve(total.saturating_sub(items.len()));
        });
    }
}

/// Receiving half of an [`SpscQueue`]; owned by exactly one thread.
pub struct Consumer<T> {
    shared: Arc<SpscQueue<T>>,
    tail: Cell<usize>,
}

unsafe impl<T: Send> Send for Consumer<T> {}

impl<T> Consumer<T> {
    #[inline]
    fn take_slot(&self, idx: usize) -> T {
        let slot = &self.shared.slots[idx];
        // SAFETY: caller observed `full == true` with Acquire, so the
        // producer's initialization happens-before this read, and the
        // producer will not rewrite the slot until we clear `full`.
        let value = unsafe { (*slot.value.get()).assume_init_read() };
        slot.full.store(false, Ordering::Release);
        self.tail.set(self.tail.get().wrapping_add(1));
        value
    }

    /// Attempts to dequeue without blocking.
    #[inline]
    pub fn try_pop(&self) -> Pop<T> {
        let q = &*self.shared;
        let idx = self.tail.get() & q.mask;
        if q.slots[idx].full.load(Ordering::Acquire) {
            return Pop::Value(self.take_slot(idx));
        }
        if !q.producer_alive.load(Ordering::Acquire) {
            // The producer may have pushed and then disconnected between our
            // two loads; the Acquire on `producer_alive` makes that final
            // push visible, so re-check before declaring the stream over.
            if q.slots[idx].full.load(Ordering::Acquire) {
                return Pop::Value(self.take_slot(idx));
            }
            return Pop::Disconnected;
        }
        Pop::Empty
    }

    /// Dequeues, spinning (then yielding) while the ring is empty.
    ///
    /// Returns `None` once the producer has disconnected *and* the ring has
    /// drained — i.e. after the last value has been delivered.
    pub fn pop_blocking(&self) -> Option<T> {
        let backoff = Backoff::new();
        loop {
            match self.try_pop() {
                Pop::Value(v) => return Some(v),
                Pop::Disconnected => return None,
                Pop::Empty => backoff.snooze(),
            }
        }
    }

    /// Attempts to dequeue from the injector lane (the multi-producer side
    /// path; see the module docs). The consumer should drain the ring
    /// first — [`try_pop`](Consumer::try_pop) — and fall back to this, so
    /// the single-producer fast path stays hot.
    #[inline]
    pub fn try_pop_injected(&self) -> Option<T> {
        let lane = &self.shared.lane;
        if lane.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        lane.with(|items, len| {
            let v = items.pop_front();
            if v.is_some() {
                len.fetch_sub(1, Ordering::Release);
            }
            v
        })
    }

    /// True if the injector lane holds a value (lock-free read).
    #[inline]
    pub fn has_injected(&self) -> bool {
        self.shared.lane.len.load(Ordering::Acquire) > 0
    }

    /// True if a value is immediately available, without consuming it.
    /// (Consumer-side peek; the slot cannot be emptied by anyone else.)
    #[inline]
    pub fn has_pending(&self) -> bool {
        self.has_lead(1)
    }

    /// True if at least `n` values are immediately available in the ring
    /// (`1 <= n <= capacity`), without consuming any: the producer fills
    /// slots in order and only this handle empties them, so the `n`-th
    /// slot from the tail being full means the `n - 1` before it are.
    /// What a consumer that wants to trail its producer by a margin —
    /// FastForward's *temporal slipping* — polls.
    #[inline]
    pub fn has_lead(&self, n: usize) -> bool {
        debug_assert!((1..=self.capacity()).contains(&n));
        let q = &*self.shared;
        q.slots[self.tail.get().wrapping_add(n - 1) & q.mask]
            .full
            .load(Ordering::Acquire)
    }

    /// True if the producer handle has been dropped (values may still remain
    /// in the ring).
    #[inline]
    pub fn is_disconnected(&self) -> bool {
        !self.shared.producer_alive.load(Ordering::Acquire)
    }

    /// Ring capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.shared.capacity()
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.shared.consumer_alive.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// The runtime sizes its invocation record to 56 bytes so that a slot
    /// — payload plus the `full` flag — is exactly one cache line
    /// (`ss_core::invocation` asserts the payload side at compile time).
    #[test]
    fn slot_of_a_56_byte_payload_is_one_cache_line() {
        assert_eq!(size_of::<Slot<[u64; 7]>>(), 64);
    }

    #[test]
    fn fifo_order_single_thread() {
        let (tx, rx) = SpscQueue::with_capacity(8);
        for i in 0..8 {
            tx.try_push(i).unwrap();
        }
        assert!(matches!(tx.try_push(99), Err(Full(99))));
        for i in 0..8 {
            assert_eq!(rx.try_pop().value(), Some(i));
        }
        assert!(matches!(rx.try_pop(), Pop::Empty));
    }

    #[test]
    fn has_lead_counts_from_the_tail_across_the_wrap() {
        let (tx, rx) = SpscQueue::with_capacity(4);
        assert!(!rx.has_lead(1));
        for lap in 0..3 {
            for i in 0..3 {
                tx.try_push(lap * 10 + i).unwrap();
            }
            assert!(rx.has_pending() && rx.has_lead(3) && !rx.has_lead(4));
            assert_eq!(rx.try_pop().value(), Some(lap * 10));
            // The freed slot is the 4th from the new tail: still empty.
            assert!(rx.has_lead(2) && !rx.has_lead(3) && !rx.has_lead(4));
            assert_eq!(rx.try_pop().value(), Some(lap * 10 + 1));
            assert_eq!(rx.try_pop().value(), Some(lap * 10 + 2));
            assert!(!rx.has_lead(1));
        }
    }

    #[test]
    fn wraparound_many_times() {
        let (tx, rx) = SpscQueue::with_capacity(4);
        for round in 0..100u64 {
            for i in 0..3 {
                tx.try_push(round * 10 + i).unwrap();
            }
            for i in 0..3 {
                assert_eq!(rx.try_pop().value(), Some(round * 10 + i));
            }
        }
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let (tx, _rx) = SpscQueue::<u8>::with_capacity(5);
        assert_eq!(tx.capacity(), 8);
        let (tx, _rx) = SpscQueue::<u8>::with_capacity(0);
        assert_eq!(tx.capacity(), 1);
    }

    #[test]
    fn capacity_one_alternates() {
        let (tx, rx) = SpscQueue::with_capacity(1);
        for i in 0..10 {
            tx.try_push(i).unwrap();
            assert!(matches!(tx.try_push(999), Err(Full(999))));
            assert_eq!(rx.try_pop().value(), Some(i));
        }
    }

    #[test]
    fn disconnect_drains_then_reports() {
        let (tx, rx) = SpscQueue::with_capacity(8);
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        drop(tx);
        assert_eq!(rx.pop_blocking(), Some(1));
        assert_eq!(rx.pop_blocking(), Some(2));
        assert_eq!(rx.pop_blocking(), None);
        assert!(matches!(rx.try_pop(), Pop::Disconnected));
    }

    #[test]
    fn push_fails_after_consumer_drop() {
        let (tx, rx) = SpscQueue::with_capacity(1);
        tx.try_push(1).unwrap();
        drop(rx);
        assert_eq!(tx.push_blocking(2), Err(2));
        assert!(tx.is_disconnected());
    }

    #[test]
    fn non_copy_values() {
        let (tx, rx) = SpscQueue::with_capacity(4);
        tx.try_push(String::from("hello")).unwrap();
        tx.try_push(String::from("world")).unwrap();
        assert_eq!(rx.try_pop().value().unwrap(), "hello");
        assert_eq!(rx.try_pop().value().unwrap(), "world");
    }

    #[derive(Debug)]
    struct DropCounter<'a>(&'a AtomicUsize);
    impl Drop for DropCounter<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn queue_drop_releases_in_flight_values() {
        let drops = AtomicUsize::new(0);
        {
            let (tx, rx) = SpscQueue::with_capacity(8);
            for _ in 0..5 {
                tx.try_push(DropCounter(&drops)).unwrap();
            }
            let taken = rx.try_pop().value().unwrap();
            drop(taken);
            assert_eq!(drops.load(Ordering::Relaxed), 1);
            // tx, rx dropped here with 4 values still queued.
        }
        assert_eq!(drops.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn cross_thread_stream_integrity() {
        const N: u64 = 200_000;
        let (tx, rx) = SpscQueue::with_capacity(256);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..N {
                    tx.push_blocking(i).unwrap();
                }
            });
            s.spawn(move || {
                let mut expected = 0;
                while let Some(v) = rx.pop_blocking() {
                    assert_eq!(v, expected);
                    expected += 1;
                }
                assert_eq!(expected, N);
            });
        });
    }

    #[test]
    fn occupied_slots_reflects_contents() {
        let (tx, rx) = SpscQueue::with_capacity(8);
        assert_eq!(tx.shared.occupied_slots(), 0);
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        assert_eq!(tx.shared.occupied_slots(), 2);
        rx.try_pop().value().unwrap();
        assert_eq!(tx.shared.occupied_slots(), 1);
    }

    #[test]
    fn injector_lane_is_fifo_and_independent_of_the_ring() {
        let (tx, rx) = SpscQueue::with_capacity(2);
        let inj = tx.injector();
        tx.try_push(1).unwrap();
        inj.push(10).unwrap();
        inj.push(11).unwrap();
        assert_eq!(inj.injected_len(), 2);
        assert!(rx.has_injected());
        // Ring and lane drain independently; lane keeps its own FIFO.
        assert_eq!(rx.try_pop().value(), Some(1));
        assert_eq!(rx.try_pop_injected(), Some(10));
        assert_eq!(rx.try_pop_injected(), Some(11));
        assert_eq!(rx.try_pop_injected(), None);
        assert!(!rx.has_injected());
    }

    #[test]
    fn injector_never_blocks_on_a_full_ring() {
        let (tx, rx) = SpscQueue::with_capacity(1);
        let inj = tx.injector();
        tx.try_push(1).unwrap();
        assert!(matches!(tx.try_push(2), Err(Full(2))));
        // The lane is unbounded: pushes succeed while the ring is full.
        for i in 0..1_000 {
            inj.push(i).unwrap();
        }
        assert_eq!(inj.injected_len(), 1_000);
        assert_eq!(rx.try_pop().value(), Some(1));
        for i in 0..1_000 {
            assert_eq!(rx.try_pop_injected(), Some(i));
        }
    }

    #[test]
    fn room_and_occupancy_probes_track_the_ring() {
        let (tx, rx) = SpscQueue::with_capacity(8);
        assert!(tx.has_room(8) && !tx.has_room(9) && !tx.has_room(0));
        assert!(!tx.holds_at_least(1));
        for i in 0..4 {
            tx.try_push(i).unwrap();
        }
        assert!(tx.holds_at_least(4) && !tx.holds_at_least(5));
        assert!(tx.has_room(4) && !tx.has_room(5));
        // The consumer frees slots in order; the probes follow it across
        // the wrap.
        for i in 0..3 {
            assert_eq!(rx.try_pop().value(), Some(i));
        }
        for i in 4..10 {
            tx.try_push(i).unwrap();
        }
        assert!(tx.holds_at_least(7) && !tx.holds_at_least(8));
        assert!(tx.has_room(1) && !tx.has_room(2));
        tx.try_push(10).unwrap();
        assert!(!tx.has_room(1) && tx.holds_at_least(8));
    }

    #[test]
    fn injector_push_batch_is_one_critical_section_and_fifo() {
        let (tx, rx) = SpscQueue::with_capacity(2);
        let inj = tx.injector();
        assert_eq!(inj.push_batch(0..100), Some(100));
        assert_eq!(inj.injected_len(), 100);
        for i in 0..100 {
            assert_eq!(rx.try_pop_injected(), Some(i));
        }
        drop(rx);
        assert_eq!(inj.push_batch(0..5), None);
        assert_eq!(inj.injected_len(), 0);
    }

    #[test]
    fn injector_push_fails_after_consumer_drop() {
        let (tx, rx) = SpscQueue::<u32>::with_capacity(4);
        let inj = tx.injector();
        drop(rx);
        assert_eq!(inj.push(7), Err(7));
    }

    #[test]
    fn concurrent_injectors_preserve_per_producer_fifo() {
        const PRODUCERS: u64 = 4;
        const PER: u64 = 20_000;
        let (tx, rx) = SpscQueue::with_capacity(8);
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let inj = tx.injector();
                s.spawn(move || {
                    for i in 0..PER {
                        inj.push(p * PER + i).unwrap();
                    }
                });
            }
            let mut next = [0u64; PRODUCERS as usize];
            let mut got = 0;
            while got < PRODUCERS * PER {
                if let Some(v) = rx.try_pop_injected() {
                    let (p, i) = (v / PER, v % PER);
                    assert_eq!(i, next[p as usize], "producer {p} reordered");
                    next[p as usize] += 1;
                    got += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
            for (p, n) in next.iter().enumerate() {
                assert_eq!(*n, PER, "producer {p} lost items");
            }
        });
    }
}
