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
//!
//! # Tail retraction: the claim protocol
//!
//! The producer may take values back off the end it pushes to
//! ([`Producer::retract`]) — Chase–Lev's owner pop, inverted: here the
//! single producer pops from its own end while the consumer takes from the
//! other. The two ends meet at one shared index pair, each on a line of
//! its own:
//!
//! * **`claim`**, written by the consumer. The consumer pops an index only
//!   below its claim. When it reaches its claim it claims a batch — half
//!   the visible lead, at least 1 and at most [`MAX_CLAIM`] — by storing
//!   the new claim, issuing a `SeqCst` fence and reading `limit`. Inside a
//!   claimed batch popping is FastForward's plain slot protocol, so the
//!   fence is paid once per batch.
//! * **`limit`**, written by the producer. A retraction stores the index it
//!   holds the ring at, issues a `SeqCst` fence and reads `claim`. It owns
//!   every index at or past both; a claim that reads a held `limit` backs
//!   off to it. The hold ends when the retraction is released.
//!
//! The two store–fence–load sequences are a Dekker pair: of the two loads
//! at least one sees the other side's store, so either the producer
//! retracts past the consumer's new claim, or the consumer's claim stops
//! at the limit, or both back off. Never do both sides own one index. A
//! claim is a reservation of indices, not a count of values: a slot below
//! the claim is popped only once its flag says it is full.
//!
//! # The retired cursor
//!
//! A claim says which values the consumer *will* take; **`retired`** says
//! which it is done with. The consumer publishes, with a Release store on
//! a line of its own, an index below which every value it popped has
//! finished being used ([`Consumer::retire`]); the producer reads it with
//! Acquire ([`Producer::retired`]). It never moves back and never passes
//! the consumer's pop index, and a consumer that still holds a popped
//! value retires only below it. Whatever the consumer did with a value
//! below the cursor happens-before the producer's read: a producer that
//! retracts a value may run it after everything it sees retired.

use core::cell::{Cell, UnsafeCell};
use core::mem::MaybeUninit;
use core::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::collections::VecDeque;
use std::sync::Arc;

use crate::pad::prefetch_write;
use crate::{Backoff, CachePadded, Full, Pop};

/// The largest batch a consumer claims at once: the runtime's temporal
/// slip lead, so a consumer that has let its producer get a slip ahead
/// claims half of it.
pub const MAX_CLAIM: usize = 64;

/// `limit` while no retraction holds the ring.
const UNHELD: u64 = u64::MAX;

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
    /// The consumer's claim: the index below which it may pop (module
    /// docs, "Tail retraction").
    claim: CachePadded<AtomicU64>,
    /// The index a retraction holds the ring at, or `UNHELD`.
    limit: CachePadded<AtomicU64>,
    /// The consumer's retired cursor (module docs, "The retired cursor").
    retired: CachePadded<AtomicU64>,
    lane: Lane<T>,
    producer_alive: AtomicBool,
    consumer_alive: AtomicBool,
}

// SAFETY: slots are only accessed according to the SPSC protocol — the
// producer writes a slot only while `full == false` and the consumer reads it
// only while `full == true`, with Release/Acquire edges on `full` ordering
// the payload accesses; a retraction touches full slots only at or past the
// consumer's claim, which the consumer never pops (the claim protocol). The
// injector lane is only touched under its spinlock (`Lane::with`). Values
// of `T` move between threads, hence `T: Send`.
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
            claim: CachePadded::new(AtomicU64::new(0)),
            limit: CachePadded::new(AtomicU64::new(UNHELD)),
            retired: CachePadded::new(AtomicU64::new(0)),
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
                claimed: Cell::new(0),
                retired: Cell::new(0),
            },
        )
    }

    /// Number of slots in the ring.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The slot of ring index `index`.
    #[inline]
    fn slot(&self, index: u64) -> &Slot<T> {
        &self.slots[index as usize & self.mask]
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
    /// The ring index the next push lands at. Indices count every push
    /// and never wrap in practice (64 bits); a slot is `index & mask`.
    head: Cell<u64>,
}

// The `Cell` cursor makes `Producer` `!Sync`, which is exactly the
// single-producer contract; it may still move between threads.
unsafe impl<T: Send> Send for Producer<T> {}

impl<T> Producer<T> {
    /// Attempts to enqueue without blocking. Returns the value back inside
    /// [`Full`] if the ring has no free slot.
    #[inline]
    pub fn try_push(&self, value: T) -> Result<(), Full<T>> {
        let head = self.head.get();
        let slot = self.shared.slot(head);
        // The slot two pushes on was last written by the consumer, which
        // emptied it: fetch it for writing now, so that push does not
        // wait for the line behind this one's store.
        prefetch_write(self.shared.slot(head + 2));
        if slot.full.load(Ordering::Acquire) {
            return Err(Full(value));
        }
        // SAFETY: `full == false` and we are the only producer, so no one
        // else touches the payload until we publish it below.
        unsafe { (*slot.value.get()).write(value) };
        slot.full.store(true, Ordering::Release);
        self.head.set(head + 1);
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

    /// The ring index the next push lands at: the count of values ever
    /// pushed, less those retracted.
    #[inline]
    pub fn head(&self) -> u64 {
        self.head.get()
    }

    /// How many pushed values lie at or past the consumer's claim: the
    /// ones a retraction could still take back. Reads the line the
    /// consumer claims on, so it is for waits, not for every push.
    #[inline]
    pub fn unclaimed(&self) -> u64 {
        let claim = self.shared.claim.load(Ordering::Relaxed);
        self.head.get().saturating_sub(claim)
    }

    /// The consumer's retired cursor (module docs, "The retired cursor"):
    /// every value it popped below this index has finished being used,
    /// and that happens-before this read.
    #[inline]
    pub fn retired(&self) -> u64 {
        self.shared.retired.load(Ordering::Acquire)
    }

    /// Holds the ring at index `from` for a retraction (module docs, "Tail
    /// retraction"): stores the limit, fences, and reads the consumer's
    /// claim. The hold owns every value at or past both; `None`, with the
    /// hold released, when there is none. While the returned
    /// [`Retraction`] lives the consumer claims nothing past `from`, and —
    /// it borrows the producer mutably — nothing is pushed and no second
    /// hold is taken.
    pub fn retract(&mut self, from: u64) -> Option<Retraction<'_, T>> {
        let held = self.hold(from);
        (held.start < held.end()).then_some(held)
    }

    /// [`retract`](Producer::retract)'s side of the Dekker pair: the store
    /// and the fence, then [`read_claim`](Producer::read_claim). The
    /// claim's own fence orders the other side; the release of the hold
    /// (`Retraction`'s drop) pairs with the claim's Acquire load.
    fn hold(&mut self, from: u64) -> Retraction<'_, T> {
        self.shared.limit.store(from, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        self.read_claim(from)
    }

    fn read_claim(&mut self, from: u64) -> Retraction<'_, T> {
        let claim = self.shared.claim.load(Ordering::Relaxed);
        Retraction {
            producer: self,
            start: from.max(claim),
        }
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

/// A producer's hold on the unclaimed end of its ring, from
/// [`Producer::retract`]: the values from [`start`](Retraction::start) to
/// the producer's head are the producer's until the hold is released —
/// by [`pop_from`](Retraction::pop_from), or by dropping it.
pub struct Retraction<'a, T> {
    producer: &'a mut Producer<T>,
    /// At or past both the hold's `from` and the consumer's claim.
    start: u64,
}

impl<T> Retraction<'_, T> {
    /// The first index the hold owns.
    #[inline]
    pub fn start(&self) -> u64 {
        self.start
    }

    /// One past the last held index: the producer's head.
    #[inline]
    pub fn end(&self) -> u64 {
        self.producer.head.get()
    }

    /// The consumer's retired cursor, read as [`Producer::retired`] does:
    /// at most the hold's start, since nothing held was popped.
    #[inline]
    pub fn retired(&self) -> u64 {
        self.producer.retired()
    }

    /// The held value at `index` (`start <= index < end`).
    #[inline]
    pub fn get(&self, index: u64) -> &T {
        assert!((self.start..self.end()).contains(&index), "index not held");
        // SAFETY: a pushed slot the consumer has not claimed: full, and
        // read by nobody but this hold until it is released.
        unsafe { (*self.producer.shared.slot(index).value.get()).assume_init_ref() }
    }

    /// Takes back the values from `cut` (`start <= cut <= end`) to the
    /// head into `out`, oldest first, moves the head back to `cut` and
    /// releases the hold.
    pub fn pop_from(self, cut: u64, out: &mut Vec<T>) {
        let end = self.end();
        assert!((self.start..=end).contains(&cut), "cut outside the hold");
        out.reserve((end - cut) as usize);
        for index in cut..end {
            let slot = self.producer.shared.slot(index);
            // SAFETY: as in `get`; the flag is cleared after the move, and
            // the release below publishes both before the consumer can
            // claim the index again.
            out.push(unsafe { (*slot.value.get()).assume_init_read() });
            slot.full.store(false, Ordering::Relaxed);
        }
        self.producer.head.set(cut);
    }
}

impl<T> Drop for Retraction<'_, T> {
    fn drop(&mut self) {
        self.producer.shared.limit.store(UNHELD, Ordering::Release);
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
    /// The ring index the next pop takes.
    tail: Cell<u64>,
    /// This handle's copy of its published claim; never below `tail`.
    claimed: Cell<u64>,
    /// This handle's copy of its published retired cursor; never above
    /// `tail`.
    retired: Cell<u64>,
}

unsafe impl<T: Send> Send for Consumer<T> {}

impl<T> Consumer<T> {
    /// Pops the value at `tail`, if it is claimed and there.
    #[inline]
    fn take_next(&self) -> Option<T> {
        let slot = self.shared.slot(self.tail.get());
        if !self.claim() || !slot.full.load(Ordering::Acquire) {
            return None;
        }
        // SAFETY: `full == true` observed with Acquire, so the producer's
        // initialization happens-before this read; the index is claimed, so
        // no retraction moves it, and the producer will not rewrite the
        // slot until we clear `full`.
        let value = unsafe { (*slot.value.get()).assume_init_read() };
        slot.full.store(false, Ordering::Release);
        self.tail.set(self.tail.get() + 1);
        Some(value)
    }

    /// Whether the next index is claimed (module docs, "Tail
    /// retraction"). At the end of its claim the consumer claims a batch
    /// of half the visible lead, at least 1 and at most [`MAX_CLAIM`]:
    /// one `SeqCst` fence against the producer's `limit`. False when
    /// nothing is visible to claim, or a retraction holds the ring at
    /// the tail.
    #[inline]
    pub fn claim(&self) -> bool {
        self.tail.get() < self.claimed.get() || self.claim_batch()
    }

    /// Whether the next index was claimed before this call: a pop takes
    /// it without touching `claim` or `limit`.
    #[inline]
    pub fn holds_claim(&self) -> bool {
        self.tail.get() < self.claimed.get()
    }

    fn claim_batch(&self) -> bool {
        let lead = self.visible_lead();
        if lead == 0 {
            return false;
        }
        let want = self.tail.get() + (lead / 2).clamp(1, MAX_CLAIM) as u64;
        self.publish_claim(want);
        fence(Ordering::SeqCst);
        self.check_limit(want)
    }

    /// A lower bound on the values waiting from the tail, by doubling
    /// probes up to twice [`MAX_CLAIM`]: full slots are contiguous from
    /// the tail, so the `n`-th being full means the ones before it are.
    fn visible_lead(&self) -> usize {
        let cap = self.capacity().min(2 * MAX_CLAIM);
        let mut lead = 0;
        while lead < cap && self.has_lead((2 * lead).clamp(1, cap)) {
            lead = (2 * lead).clamp(1, cap);
        }
        lead
    }

    fn publish_claim(&self, want: u64) {
        self.shared.claim.store(want, Ordering::Relaxed);
    }

    /// The claim's read of `limit`: backs off to a held limit (never
    /// below the tail). The Acquire pairs with a retraction's release, so
    /// what it moved or cleared is visible before any claimed slot is
    /// read.
    fn check_limit(&self, want: u64) -> bool {
        let tail = self.tail.get();
        let limit = self.shared.limit.load(Ordering::Acquire);
        let got = if limit < want {
            let got = limit.max(tail);
            self.shared.claim.store(got, Ordering::Relaxed);
            got
        } else {
            want
        };
        self.claimed.set(got);
        got > tail
    }

    /// The ring index the next pop takes: how many values were popped.
    #[inline]
    pub fn popped(&self) -> u64 {
        self.tail.get()
    }

    /// This handle's retired cursor (module docs, "The retired cursor").
    #[inline]
    pub fn retired(&self) -> u64 {
        self.retired.get()
    }

    /// Publishes that every value popped below `index` has finished
    /// being used: the retired cursor moves to `index`, held at the pop
    /// index, with one Release store — or not at all if it is there
    /// already, for it never moves back. A consumer that still holds a
    /// popped value passes that value's index, or does not call.
    #[inline]
    pub fn retire(&self, index: u64) {
        let to = index.min(self.tail.get());
        if to > self.retired.get() {
            self.retired.set(to);
            self.shared.retired.store(to, Ordering::Release);
        }
    }

    /// Attempts to dequeue without blocking.
    #[inline]
    pub fn try_pop(&self) -> Pop<T> {
        if let Some(v) = self.take_next() {
            return Pop::Value(v);
        }
        if !self.shared.producer_alive.load(Ordering::Acquire) {
            // The producer may have pushed and then disconnected between our
            // two loads; the Acquire on `producer_alive` makes that final
            // push visible, so re-check before declaring the stream over.
            return self.take_next().map_or(Pop::Disconnected, Pop::Value);
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

    /// True if the ring's next value — the one [`try_pop`](Consumer::try_pop)
    /// would return — exists and satisfies `pred`; it stays in place, but
    /// claimed, so no retraction moves it while `pred` reads it.
    ///
    /// # Safety
    /// `pred` must not pop from this consumer: the value it is handed
    /// lives in the slot a pop would empty.
    #[inline]
    pub unsafe fn head_is(&self, pred: fn(&T) -> bool) -> bool {
        let slot = self.shared.slot(self.tail.get());
        // SAFETY: `full == true` observed with Acquire, so the producer's
        // initialization happens-before this read; the index is claimed,
        // only this handle empties the slot, and the caller guarantees
        // `pred` does not.
        self.claim()
            && slot.full.load(Ordering::Acquire)
            && pred(unsafe { (*slot.value.get()).assume_init_ref() })
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
        self.shared
            .slot(self.tail.get() + n as u64 - 1)
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

    /// Pushes `values` and returns the pair.
    fn ring_of(
        cap: usize,
        values: impl IntoIterator<Item = u32>,
    ) -> (Producer<u32>, Consumer<u32>) {
        let (tx, rx) = SpscQueue::with_capacity(cap);
        for v in values {
            tx.try_push(v).unwrap();
        }
        (tx, rx)
    }

    fn drain(rx: &Consumer<u32>) -> Vec<u32> {
        std::iter::from_fn(|| rx.try_pop().value()).collect()
    }

    #[test]
    fn a_claim_takes_half_the_visible_lead() {
        let (tx, rx) = ring_of(512, 0..300);
        assert!(rx.claim());
        // 256 visible by doubling probes, capped at twice the claim bound:
        // the batch is the bound.
        assert_eq!(rx.claimed.get(), MAX_CLAIM as u64);
        assert_eq!(tx.unclaimed(), 300 - MAX_CLAIM as u64);
        let (tx, rx) = ring_of(8, 0..3);
        assert!(rx.claim() && rx.holds_claim());
        assert_eq!((rx.claimed.get(), tx.unclaimed()), (1, 2));
        let (_tx, rx) = ring_of(8, []);
        assert!(!rx.claim() && !rx.holds_claim());
    }

    #[test]
    fn the_retraction_wins() {
        let (mut tx, rx) = ring_of(8, 0..8);
        let held = tx.retract(0).expect("nothing claimed");
        assert_eq!((held.start(), held.end(), *held.get(5)), (0, 8, 5));
        // The consumer's claim reads the held limit and backs off to it.
        assert!(!rx.claim());
        assert!(matches!(rx.try_pop(), Pop::Empty));
        let mut back = Vec::new();
        held.pop_from(4, &mut back);
        assert_eq!(back, [4, 5, 6, 7]);
        // Released: the consumer claims the rest, and the producer pushes
        // into the slots it took back.
        tx.try_push(40).unwrap();
        assert_eq!(drain(&rx), [0, 1, 2, 3, 40]);
    }

    #[test]
    fn the_claim_wins() {
        let (mut tx, rx) = ring_of(8, 0..8);
        assert!(rx.claim());
        assert_eq!(rx.claimed.get(), 4);
        let held = tx.retract(0).expect("four unclaimed");
        assert_eq!(held.start(), 4);
        let mut back = Vec::new();
        held.pop_from(6, &mut back);
        assert_eq!(back, [6, 7]);
        assert_eq!(drain(&rx), [0, 1, 2, 3, 4, 5]);
        // Everything pushed is claimed: nothing to hold.
        assert!(tx.retract(0).is_none());
        assert_eq!(tx.shared.limit.load(Ordering::Relaxed), UNHELD);
    }

    #[test]
    fn both_back_off() {
        let (mut tx, rx) = ring_of(8, 0..8);
        // Both stores land before either load: each side sees the other.
        rx.publish_claim(4);
        let held = tx.hold(2);
        fence(Ordering::SeqCst);
        assert!(rx.check_limit(4));
        // The producer owns from the consumer's claim, the consumer stops
        // at the limit; [2, 4) belongs to neither until the release.
        assert_eq!((held.start(), rx.claimed.get()), (4, 2));
        let mut back = Vec::new();
        held.pop_from(4, &mut back);
        assert_eq!(back, [4, 5, 6, 7]);
        assert_eq!(drain(&rx), [0, 1, 2, 3]);
    }

    #[test]
    fn a_retraction_wraps_around_the_ring() {
        let (mut tx, rx) = ring_of(8, 0..2);
        assert_eq!(drain(&rx), [0, 1]);
        // Indices 2 … 9 fill slots 2 … 7, 0, 1.
        for v in 2..10 {
            tx.try_push(v).unwrap();
        }
        assert_eq!(rx.try_pop().value(), Some(2));
        // The consumer claimed [2, 6); the hold's run, slots 6, 7, 0, 1,
        // crosses the end of the slot array.
        let held = tx.retract(0).unwrap();
        assert_eq!((held.start(), held.end(), *held.get(8)), (6, 10, 8));
        let mut back = Vec::new();
        held.pop_from(7, &mut back);
        assert_eq!(back, [7, 8, 9]);
        for v in 100..104 {
            tx.try_push(v).unwrap();
        }
        assert!(matches!(tx.try_push(0), Err(Full(0))));
        assert_eq!(drain(&rx), [3, 4, 5, 6, 100, 101, 102, 103]);
        assert_eq!(tx.shared.occupied_slots(), 0);
    }

    #[test]
    fn a_retraction_finds_the_consumer_past_its_limit() {
        let (mut tx, rx) = ring_of(16, 0..12);
        assert!(rx.claim());
        assert_eq!(rx.claimed.get(), 4);
        assert_eq!(rx.try_pop().value(), Some(0));
        // Held at 1, but the consumer has claimed up to 4: the hold owns
        // only what lies past the claim.
        let held = tx.retract(1).unwrap();
        assert_eq!(held.start(), 4);
        // Its next claim reads a limit below its tail and claims nothing.
        assert_eq!(drain(&rx), [1, 2, 3]);
        assert!(!rx.claim());
        let mut back = Vec::new();
        held.pop_from(8, &mut back);
        assert_eq!(back, [8, 9, 10, 11]);
        assert_eq!(drain(&rx), [4, 5, 6, 7]);
    }

    #[test]
    fn a_dropped_hold_releases_the_ring_untouched() {
        let (mut tx, rx) = ring_of(8, 0..4);
        drop(tx.retract(0).unwrap());
        assert_eq!(tx.head(), 4);
        assert_eq!(drain(&rx), [0, 1, 2, 3]);
    }

    #[test]
    fn the_retired_cursor_is_monotone_and_stops_at_the_pop_index() {
        let (tx, rx) = ring_of(8, 0..6);
        rx.retire(3);
        assert_eq!(tx.retired(), 0, "nothing popped yet");
        for v in 0..4 {
            assert_eq!(rx.try_pop().value(), Some(v));
        }
        rx.retire(u64::MAX);
        assert_eq!((tx.retired(), rx.retired()), (4, 4));
        rx.retire(2);
        assert_eq!(tx.retired(), 4, "never moves back");
        // Across the wrap: indices count pushes, not slots.
        assert_eq!(drain(&rx), [4, 5]);
        for v in 6..14 {
            tx.try_push(v).unwrap();
        }
        assert_eq!(drain(&rx), (6..14).collect::<Vec<_>>());
        rx.retire(rx.popped());
        assert_eq!(tx.retired(), 14);
    }

    #[test]
    fn the_retired_cursor_never_passes_a_held_value() {
        let (tx, rx) = ring_of(8, 0..5);
        assert_eq!(drain(&rx), [0, 1, 2, 3, 4]);
        // The value at index 1 is still held: retire only below it.
        rx.retire(1);
        assert_eq!(tx.retired(), 1);
        // Done with it; the one at index 3 is held now.
        rx.retire(3);
        assert_eq!(tx.retired(), 3);
        rx.retire(rx.popped());
        assert_eq!(tx.retired(), 5);
    }

    #[test]
    fn a_retraction_leaves_the_retired_cursor_below_the_head() {
        let (mut tx, rx) = ring_of(8, 0..6);
        // Six visible: the claim covers half of the four its probes see.
        assert!(rx.claim());
        assert_eq!(rx.claimed.get(), 2);
        assert_eq!(rx.try_pop().value(), Some(0));
        assert_eq!(rx.try_pop().value(), Some(1));
        rx.retire(rx.popped());
        let held = tx.retract(0).unwrap();
        assert_eq!((held.start(), held.retired()), (2, 2));
        let mut back = Vec::new();
        held.pop_from(2, &mut back);
        assert_eq!(back, [2, 3, 4, 5]);
        assert_eq!((tx.head(), tx.retired()), (2, 2));
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
