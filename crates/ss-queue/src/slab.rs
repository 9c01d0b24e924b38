//! The result slab: completion slots for the runtime's futures on
//! delegated operations, issued by index and reclaimed wholesale at an
//! epoch barrier.
//!
//! A future-returning delegation needs one place where the executor that
//! runs the operation leaves its value and where the future picks it up.
//! A [`ResultSlab`] keeps those places — fixed-size 64-byte slots in
//! chunks of 64 — in one *lane* per issuing thread: a lane's
//! slots are handed out in order by bumping a cursor, with no lock and no
//! atomic read-modify-write. The protocol the slab assumes, and which the
//! serialization-sets runtime provides, is an **epoch**:
//!
//! * **Issue** ([`ResultSlab::issue`]): only the lane's own thread issues
//!   on it, and every operation whose slot was issued in an epoch has run
//!   (its sender sent or was dropped) before the epoch's barrier.
//! * **Send** ([`SlotSender::send`]): the executor writes the value, does
//!   a Release store of the slot's state, a SeqCst fence, and then reads
//!   two words on the line it just wrote: the waiter registered on the
//!   slot, which it [`wake`](Wake::wake)s, and whether the receiver is
//!   gone. No lock, no reference count.
//! * **Wait** ([`WaitSignal::waiting`]): a waiter that is about to park
//!   registers itself on the slot with one store before its own SeqCst
//!   fence and last re-check — the other half of the send's Dekker pair:
//!   either the send sees the registration or the re-check sees the value.
//! * **Release**: a [`SlotReceiver`] counts itself out of its chunk when it
//!   is consumed or dropped — one uncontended increment, on a line the
//!   executor never writes.
//! * **Reclaim** ([`ResultSlab::reclaim`], at the barrier): every chunk
//!   whose receivers are all released is reused as it stands, its cursor
//!   rewound — no per-slot walk. A chunk with a receiver still held (a
//!   future carried across the barrier) is set aside whole and replaced,
//!   and comes back once its last receiver is released.
//!
//! A receiver dropped before its value arrived *cancels*: it raises the
//! slot's flag (the executor may skip an operation it has not started,
//! [`SlotSender::is_cancelled`]; [`SlotReceiver::detach`] gives a slot up
//! without that licence) and the value, should it still arrive, is
//! dropped exactly once — by the receiver if it sees the value after
//! raising the flag, by the sender if it sees the flag after storing the
//! value, by whichever wins a compare-exchange if both do.
//!
//! Handles are `(slot, generation)`: every issue bumps the slot's
//! generation, so a [`WaitSignal`] read after its slot was reissued reads
//! "settled" instead of another operation's state. The runtime never
//! reads a probe past its future's lifetime, but the check costs nothing.
//!
//! ```
//! use ss_queue::slab::{ResultSlab, SlotPoll, Wake};
//!
//! struct NoWaiter;
//! impl Wake for NoWaiter {
//!     fn wake(&self) {}
//! }
//!
//! let slab = ResultSlab::<NoWaiter>::new(1);
//! // SAFETY: lane 0 is issued on by this thread only; the slab outlives
//! // both handles.
//! let (tx, mut rx) = unsafe { slab.issue::<u64>(0, [0; 3]) };
//! assert!(matches!(rx.poll(), SlotPoll::Pending));
//! tx.send(42);
//! assert!(matches!(rx.poll(), SlotPoll::Ready(42)));
//! drop(rx);
//! // SAFETY: every sender issued since the last reclaim is consumed.
//! unsafe { slab.reclaim() };
//! assert_eq!(slab.counts(), (1, 0, 1));
//! ```

use core::cell::UnsafeCell;
use core::marker::PhantomData;
use core::mem::{self, ManuallyDrop, MaybeUninit};
use core::ptr::{self, NonNull};
use core::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use core::sync::atomic::{fence, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize};

use crate::pad::CachePadded;

/// What a waiter registers on a slot: the send wakes it after its fence.
pub trait Wake {
    /// Wakes the registered waiter. Called after the sender's SeqCst
    /// fence, so an implementation need only check whether the waiter
    /// sleeps and unpark it.
    fn wake(&self);
}

/// Slot states, in the low two bits of the state word; the generation
/// is the rest. `EMPTY` → `READY` (a value) or `CLOSED` (none will come);
/// `READY` → `TAKEN` only on the cancellation race.
const EMPTY: u32 = 0;
const READY: u32 = 1;
const CLOSED: u32 = 2;
const TAKEN: u32 = 3;
const STATE_BITS: u32 = 2;
const STATE_MASK: u32 = (1 << STATE_BITS) - 1;

/// The receiver is gone: a value that still arrives is the sender's to
/// drop.
const ABANDONED: u8 = 1;
/// The operation behind the slot may be skipped.
const SKIP: u8 = 2;

/// Words of a slot's inline value buffer; larger or over-aligned values
/// are boxed by the sender.
const VALUE_WORDS: usize = 3;

/// Words of a slot's header: opaque to the slab, written at issue and
/// readable by the sender (the runtime keeps a memoized operation's
/// `(key, fingerprint, generation)` stamp there).
pub const HEADER_WORDS: usize = 3;

/// Slots per chunk.
const CHUNK_SLOTS: usize = 64;

/// Chunks a lane keeps whatever its demand: 1024 slots.
const FLOOR_CHUNKS: usize = 16;

/// Epochs per demand window. A lane keeps the chunks that the busiest
/// epoch of the current or the previous window used, so a demand that
/// recurs at least once every this many epochs never reallocates — also
/// with long runs of small epochs between its large ones — and one that
/// stops is released within two windows.
const DEMAND_WINDOW: u32 = 128;

fn fits_inline<T>() -> bool {
    mem::size_of::<T>() <= mem::size_of::<[usize; VALUE_WORDS]>()
        && mem::align_of::<T>() <= mem::align_of::<usize>()
}

/// One completion slot: a cache line of its own.
#[repr(C, align(64))]
struct Slot<W> {
    /// `generation << STATE_BITS | state`.
    state: AtomicU32,
    /// Raised by a receiver gone before its value arrived:
    /// [`ABANDONED`], plus [`SKIP`] unless it was [`detach`]ed.
    ///
    /// [`detach`]: SlotReceiver::detach
    gone: AtomicU8,
    /// The waiter to wake, registered only around a park.
    waiter: AtomicPtr<W>,
    /// A `T` by value when it [`fits_inline`], else a `Box<T>`'s pointer.
    value: UnsafeCell<MaybeUninit<[usize; VALUE_WORDS]>>,
    header: UnsafeCell<[u64; HEADER_WORDS]>,
}

const _: () = assert!(mem::size_of::<Slot<()>>() == 64);

impl<W> Slot<W> {
    fn new() -> Self {
        Slot {
            state: AtomicU32::new(EMPTY),
            gone: AtomicU8::new(0),
            waiter: AtomicPtr::new(ptr::null_mut()),
            value: UnsafeCell::new(MaybeUninit::uninit()),
            header: UnsafeCell::new([0; HEADER_WORDS]),
        }
    }

    /// Moves the value out of the buffer.
    ///
    /// # Safety
    /// A `T` was stored by [`SlotSender::send`], the caller is ordered
    /// after that store, and no one else reads it out.
    unsafe fn take<T>(&self) -> T {
        let p = self.value.get().cast::<u8>();
        unsafe {
            if fits_inline::<T>() {
                ptr::read(p.cast::<T>())
            } else {
                *Box::from_raw(ptr::read(p.cast::<*mut T>()))
            }
        }
    }

    /// Drops the value of a `READY` slot if this caller wins it on the
    /// cancellation race (both the dropped receiver and the sender may
    /// try).
    ///
    /// # Safety
    /// As [`take`](Slot::take), minus the exclusivity the CAS provides.
    unsafe fn drop_if_won<T>(&self, ready: u32) {
        let taken = (ready & !STATE_MASK) | TAKEN;
        if self
            .state
            .compare_exchange(ready, taken, Acquire, Relaxed)
            .is_ok()
        {
            drop(unsafe { self.take::<T>() });
        }
    }
}

/// Per-chunk bookkeeping, on a line the executors never write.
#[repr(C, align(64))]
struct ChunkHead {
    /// Receivers of the chunk's current use released so far.
    released: AtomicU32,
    /// Slots issued in that use: written when the chunk is set aside.
    issued: AtomicU32,
    /// Slots of this chunk ever issued (they are constructed lazily, in
    /// order): written by the lane that owns the chunk.
    constructed: AtomicU32,
}

struct Chunk<W> {
    slots: [Slot<W>; CHUNK_SLOTS],
    head: ChunkHead,
}

type ChunkPtr<W> = NonNull<Chunk<W>>;

fn alloc_chunk<W>() -> ChunkPtr<W> {
    let chunk = Box::new(Chunk {
        slots: core::array::from_fn(|_| Slot::new()),
        head: ChunkHead {
            released: AtomicU32::new(0),
            issued: AtomicU32::new(0),
            constructed: AtomicU32::new(0),
        },
    });
    NonNull::from(Box::leak(chunk))
}

/// # Safety
/// `c` came from [`alloc_chunk`], is in no list and no handle points into it.
unsafe fn free_chunk<W>(c: ChunkPtr<W>) {
    drop(unsafe { Box::from_raw(c.as_ptr()) });
}

/// Recent demand, in chunks: the busiest epoch of the current and the
/// previous [`DEMAND_WINDOW`].
#[derive(Default)]
struct Demand {
    current: usize,
    previous: usize,
    epochs: u32,
}

impl Demand {
    /// Records one epoch's use and returns the recent peak.
    fn record(&mut self, used: usize) -> usize {
        self.current = self.current.max(used);
        self.epochs += 1;
        let keep = self.current.max(self.previous);
        if self.epochs == DEMAND_WINDOW {
            self.previous = mem::take(&mut self.current);
            self.epochs = 0;
        }
        keep
    }
}

/// One issuing thread's slots.
struct Lane<W> {
    /// Slots issued since the last reclaim, counted from the first slot
    /// of `chunks[0]`. Written by the lane's thread only (load + store).
    next: AtomicUsize,
    /// Slots ever constructed on this lane (monotonic; lane's thread).
    created: AtomicU64,
    /// The chunks in issue order: the lane's thread appends, the
    /// reclaimer rewinds, replaces and trims.
    chunks: UnsafeCell<Vec<ChunkPtr<W>>>,
    /// Reclaimer only.
    demand: UnsafeCell<Demand>,
}

/// Reclaimer-only state.
struct Reclaim<W> {
    /// Chunks set aside with receivers still held.
    held: Vec<ChunkPtr<W>>,
    /// Chunks whose held receivers have all been released, ready to
    /// replace the next chunks set aside.
    spare: Vec<ChunkPtr<W>>,
    /// Chunks set aside per epoch, which bounds `spare`.
    demand: Demand,
}

/// Per-domain completion slots, one lane per issuing thread (see the
/// module docs for the protocol).
pub struct ResultSlab<W> {
    lanes: Box<[CachePadded<Lane<W>>]>,
    reclaim: UnsafeCell<Reclaim<W>>,
    /// Receivers in set-aside chunks not yet released, as of the last
    /// reclaim.
    held_live: AtomicU64,
    /// Constructed slots freed with their chunks (reclaimer only).
    dropped: AtomicU64,
}

// SAFETY: lane fields are written by the lane's one thread during an
// epoch and by the reclaimer at the barrier, which the issue/reclaim
// contracts order; everything else shared is atomic.
unsafe impl<W: Sync> Send for ResultSlab<W> {}
unsafe impl<W: Sync> Sync for ResultSlab<W> {}

impl<W> ResultSlab<W> {
    /// A slab with `lanes` issuing lanes and no chunks yet.
    pub fn new(lanes: usize) -> Self {
        ResultSlab {
            lanes: (0..lanes)
                .map(|_| {
                    CachePadded::new(Lane {
                        next: AtomicUsize::new(0),
                        created: AtomicU64::new(0),
                        chunks: UnsafeCell::new(Vec::new()),
                        demand: UnsafeCell::new(Demand::default()),
                    })
                })
                .collect(),
            reclaim: UnsafeCell::new(Reclaim {
                held: Vec::new(),
                spare: Vec::new(),
                demand: Demand::default(),
            }),
            held_live: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }
}

impl<W: Wake> ResultSlab<W> {
    /// Issues the next slot of `lane` for a value of type `T`, with
    /// `header` in its header words: no lock and no read-modify-write
    /// (one chunk allocation when the lane grows).
    ///
    /// # Safety
    /// Only one thread issues on `lane` between two reclaims, and none
    /// while [`reclaim`](ResultSlab::reclaim) runs; that thread's issues
    /// happen-before the next reclaim, which happens-before the next
    /// epoch's issues. The slab outlives both handles and every probe
    /// taken from the receiver.
    pub unsafe fn issue<T: Send>(
        &self,
        lane: usize,
        header: [u64; HEADER_WORDS],
    ) -> (SlotSender<T, W>, SlotReceiver<T, W>) {
        let l = &self.lanes[lane];
        let n = l.next.load(Relaxed);
        let (k, s) = (n / CHUNK_SLOTS, n % CHUNK_SLOTS);
        // SAFETY: the lane's thread (contract); nobody else touches the
        // list until the reclaim.
        let chunks = unsafe { &mut *l.chunks.get() };
        if k == chunks.len() {
            chunks.push(alloc_chunk());
        }
        // SAFETY: chunks in a list are live.
        let chunk = unsafe { chunks[k].as_ref() };
        let constructed = &chunk.head.constructed;
        if s as u32 == constructed.load(Relaxed) {
            constructed.store(s as u32 + 1, Relaxed);
            l.created.store(l.created.load(Relaxed) + 1, Relaxed);
        }
        let slot = &chunk.slots[s];
        // Generations wrap within the state word's upper bits.
        let generation = ((slot.state.load(Relaxed) >> STATE_BITS) + 1) & (u32::MAX >> STATE_BITS);
        slot.state.store(generation << STATE_BITS | EMPTY, Relaxed);
        slot.gone.store(0, Relaxed);
        slot.waiter.store(ptr::null_mut(), Relaxed);
        // SAFETY: the slot is quiescent: no handle of an earlier issue
        // survives the reclaim that rewound this lane.
        unsafe { *slot.header.get() = header };
        l.next.store(n + 1, Relaxed);
        let slot = NonNull::from(slot);
        (
            SlotSender {
                slot,
                _value: PhantomData,
            },
            SlotReceiver {
                slot,
                head: NonNull::from(&chunk.head),
                generation,
                done: false,
                _value: PhantomData,
            },
        )
    }
}

impl<W> ResultSlab<W> {
    /// The barrier's reclaim: rewinds every lane to its first slot,
    /// reusing each chunk whose receivers are all released as it stands
    /// and setting aside, whole, each chunk with a receiver still held
    /// (a replacement takes its place); brings set-aside chunks whose
    /// last receiver is gone back for reuse; and trims each lane to the
    /// chunks its recent demand needs. Returns the receivers still held.
    ///
    /// # Safety
    /// A quiescence point: every sender issued since the last reclaim has
    /// sent or been dropped, and no issue runs concurrently — both ordered
    /// before this call. No probe of a receiver released before this call
    /// is used after it.
    pub unsafe fn reclaim(&self) -> u64 {
        // SAFETY: the reclaimer is the only thread here (contract).
        let r = unsafe { &mut *self.reclaim.get() };
        let mut live = 0u64;
        // Set-aside chunks whose last receiver is gone become spares.
        let Reclaim { held, spare, .. } = r;
        held.retain(|&c| {
            // SAFETY: chunks in a list are live.
            let head = unsafe { &c.as_ref().head };
            let released = head.released.load(Acquire);
            let issued = head.issued.load(Relaxed);
            if released == issued {
                head.released.store(0, Relaxed);
                spare.push(c);
                return false;
            }
            live += u64::from(issued - released);
            true
        });
        let mut set_aside = 0;
        for l in self.lanes.iter() {
            let n = l.next.load(Relaxed);
            l.next.store(0, Relaxed);
            // SAFETY: quiescence: the lane's thread is not issuing.
            let (chunks, demand) = unsafe { (&mut *l.chunks.get(), &mut *l.demand.get()) };
            let used = n.div_ceil(CHUNK_SLOTS);
            for (k, chunk) in chunks.iter_mut().enumerate().take(used) {
                let issued = (n - k * CHUNK_SLOTS).min(CHUNK_SLOTS) as u32;
                // SAFETY: chunks in a list are live.
                let head = unsafe { &chunk.as_ref().head };
                let released = head.released.load(Acquire);
                if released == issued {
                    head.released.store(0, Relaxed);
                    continue;
                }
                head.issued.store(issued, Relaxed);
                live += u64::from(issued - released);
                r.held.push(*chunk);
                *chunk = r.spare.pop().unwrap_or_else(alloc_chunk);
                set_aside += 1;
            }
            let keep = demand.record(used).max(FLOOR_CHUNKS);
            while chunks.len() > keep {
                let c = chunks.pop().expect("longer than keep");
                // SAFETY: rewound and unheld: no handle points into it.
                unsafe { self.free(c) };
            }
        }
        let keep = r.demand.record(set_aside);
        while r.spare.len() > keep {
            let c = r.spare.pop().expect("longer than keep");
            // SAFETY: a spare chunk has no receiver left.
            unsafe { self.free(c) };
        }
        self.held_live.store(live, Relaxed);
        live
    }

    /// # Safety
    /// As [`free_chunk`].
    unsafe fn free(&self, c: ChunkPtr<W>) {
        // SAFETY: live until freed below, then as the caller guarantees.
        let constructed = unsafe { c.as_ref() }.head.constructed.load(Relaxed);
        self.dropped
            .store(self.dropped.load(Relaxed) + u64::from(constructed), Relaxed);
        unsafe { free_chunk(c) };
    }

    /// `(free, live, created)`: slots not held by a receiver (reusable
    /// now, or once their set-aside chunk's last receiver goes), slots
    /// issued since the last reclaim plus those still held at it, and
    /// slots ever constructed. Exact between epochs; `free + live` falls
    /// short of `created` by the slots whose chunks were trimmed.
    pub fn counts(&self) -> (usize, usize, u64) {
        let issued: usize = self.lanes.iter().map(|l| l.next.load(Relaxed)).sum();
        let live = issued as u64 + self.held_live.load(Relaxed);
        let created: u64 = self.lanes.iter().map(|l| l.created.load(Relaxed)).sum();
        let resident = created - self.dropped.load(Relaxed);
        // (Read mid-epoch, the sums may straddle a reclaim.)
        (
            resident.saturating_sub(live) as usize,
            live as usize,
            created,
        )
    }
}

impl<W> Drop for ResultSlab<W> {
    fn drop(&mut self) {
        let r = self.reclaim.get_mut();
        let lanes = self
            .lanes
            .iter_mut()
            .flat_map(|l| l.chunks.get_mut().drain(..));
        for c in lanes.chain(r.held.drain(..)).chain(r.spare.drain(..)) {
            // SAFETY: the slab outlives every handle (issue contract).
            unsafe { free_chunk(c) };
        }
    }
}

/// Result of polling a [`SlotReceiver`].
#[derive(Debug)]
pub enum SlotPoll<T> {
    /// No value yet; the sender is still live.
    Pending,
    /// The value (each slot yields it once).
    Ready(T),
    /// No value will come: the sender was dropped without sending.
    Closed,
}

/// The executor's half: one word, so a delegated operation's record
/// carries it beside its other captures. [`send`](SlotSender::send)
/// consumes it; dropping it unsent closes the slot.
pub struct SlotSender<T, W: Wake> {
    slot: NonNull<Slot<W>>,
    _value: PhantomData<T>,
}

// SAFETY: the sender hands a `T` to another thread and wakes a `W`
// through a shared reference.
unsafe impl<T: Send, W: Wake + Sync> Send for SlotSender<T, W> {}

impl<T, W: Wake> SlotSender<T, W> {
    fn slot(&self) -> &Slot<W> {
        // SAFETY: the slab outlives its handles (issue contract).
        unsafe { self.slot.as_ref() }
    }

    /// Publishes `state` (a value stored, or none coming), fences, and
    /// wakes a registered waiter — the send's half of the Dekker pairs
    /// with [`WaitSignal::waiting`] and with a receiver's drop. Returns
    /// whether the receiver is gone, as read after the fence.
    fn settle(&self, state: u32) -> bool {
        let slot = self.slot();
        let to = (slot.state.load(Relaxed) & !STATE_MASK) | state;
        slot.state.store(to, Release);
        fence(SeqCst);
        let waiter = slot.waiter.load(Relaxed);
        if !waiter.is_null() {
            // SAFETY: a registered waiter outlives every sender of the
            // slots it registers on (the `waiting` contract).
            unsafe { (*waiter).wake() };
        }
        slot.gone.load(Relaxed) & ABANDONED != 0
    }

    /// Stores the value and wakes a registered waiter. Infallible: a
    /// dropped receiver does not refuse it (the value is then dropped
    /// here or by the receiver, exactly once). Values up to three words
    /// stay inline; larger ones are boxed.
    pub fn send(self, value: T) {
        let this = ManuallyDrop::new(self);
        let slot = this.slot();
        let p = slot.value.get().cast::<u8>();
        // SAFETY: the slot is EMPTY and only this sender moves it out of
        // EMPTY, so no one reads the buffer before `settle`'s Release.
        unsafe {
            if fits_inline::<T>() {
                ptr::write(p.cast::<T>(), value);
            } else {
                ptr::write(p.cast::<*mut T>(), Box::into_raw(Box::new(value)));
            }
        }
        if this.settle(READY) {
            let ready = (slot.state.load(Relaxed) & !STATE_MASK) | READY;
            // SAFETY: the value was stored above; the CAS arbitrates with
            // the dropping receiver.
            unsafe { slot.drop_if_won::<T>(ready) };
        }
    }

    /// Whether the receiver was dropped before the value arrived: the
    /// executor may then skip the operation and drop the sender unsent.
    /// Advisory: a send that races the drop still lands.
    pub fn is_cancelled(&self) -> bool {
        self.slot().gone.load(Relaxed) & SKIP != 0
    }

    /// The header words given at issue.
    pub fn header(&self) -> [u64; HEADER_WORDS] {
        // SAFETY: written at issue, which happens-before this handle
        // reached its thread.
        unsafe { *self.slot().header.get() }
    }
}

impl<T, W: Wake> Drop for SlotSender<T, W> {
    /// Reached only by a sender that never sent.
    fn drop(&mut self) {
        self.settle(CLOSED);
    }
}

/// The future's half: `(slot, generation)` plus the chunk it counts
/// itself out of when consumed or dropped.
pub struct SlotReceiver<T, W> {
    slot: NonNull<Slot<W>>,
    head: NonNull<ChunkHead>,
    generation: u32,
    /// Set once the value was taken or the slot seen closed.
    done: bool,
    _value: PhantomData<T>,
}

// SAFETY: the receiver takes a `T` sent from another thread; its `&self`
// methods read only the state word.
unsafe impl<T: Send, W> Send for SlotReceiver<T, W> {}
unsafe impl<T: Send, W> Sync for SlotReceiver<T, W> {}

impl<T, W> SlotReceiver<T, W> {
    fn slot(&self) -> &Slot<W> {
        // SAFETY: the slab outlives its handles (issue contract).
        unsafe { self.slot.as_ref() }
    }

    /// Non-blocking poll: takes the value on the first `Ready`.
    pub fn poll(&mut self) -> SlotPoll<T> {
        if self.done {
            return SlotPoll::Closed;
        }
        let state = self.slot().state.load(Acquire);
        debug_assert_eq!(
            state >> STATE_BITS,
            self.generation,
            "slot reissued under its receiver"
        );
        match state & STATE_MASK {
            EMPTY => SlotPoll::Pending,
            READY => {
                self.done = true;
                // SAFETY: the Acquire load saw READY; the sender takes the
                // value back only after seeing the flag a drop raises.
                SlotPoll::Ready(unsafe { self.slot().take::<T>() })
            }
            _ => {
                self.done = true;
                SlotPoll::Closed
            }
        }
    }

    /// True once the value arrived or the slot closed.
    pub fn is_settled(&self) -> bool {
        self.signal().is_settled()
    }

    /// A value-blind settlement probe onto this slot.
    pub fn signal(&self) -> WaitSignal<W> {
        WaitSignal {
            slot: self.slot,
            generation: self.generation,
        }
    }

    /// Gives the slot up without cancelling: the operation behind it
    /// still runs, and its value is dropped when it arrives.
    pub fn detach(self) {
        let mut this = ManuallyDrop::new(self);
        this.release(ABANDONED);
    }

    /// Marks the receiver gone with `flags` if the value has not arrived
    /// (and drops it if it then does — the receiver's half of the Dekker
    /// pair with the send), drops an untaken value, and counts the
    /// receiver out of its chunk.
    fn release(&mut self, flags: u8) {
        if !self.done {
            let slot = self.slot();
            let state = slot.state.load(Acquire);
            match state & STATE_MASK {
                // SAFETY: READY seen with Acquire, no flag raised: the
                // value is this receiver's alone.
                READY => drop(unsafe { slot.take::<T>() }),
                EMPTY => {
                    slot.gone.store(flags, Relaxed);
                    fence(SeqCst);
                    let now = slot.state.load(Acquire);
                    if now & STATE_MASK == READY {
                        // SAFETY: the CAS arbitrates with the sender.
                        unsafe { slot.drop_if_won::<T>(now) };
                    }
                }
                _ => {}
            }
        }
        // SAFETY: the chunk lives while any of its receivers does.
        unsafe { self.head.as_ref() }.released.fetch_add(1, Release);
    }
}

impl<T, W> Drop for SlotReceiver<T, W> {
    /// Cancels: the operation may be skipped if it has not started.
    fn drop(&mut self) {
        self.release(ABANDONED | SKIP);
    }
}

/// A cloneable, value-blind probe onto a slot: whether it settled, and a
/// way to wait for it. The runtime's deadlock detector keeps these in its
/// waits-for table; every probe is dropped before its receiver.
pub struct WaitSignal<W> {
    slot: NonNull<Slot<W>>,
    generation: u32,
}

impl<W> Clone for WaitSignal<W> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<W> Copy for WaitSignal<W> {}

// SAFETY: a probe reads the state word and stores the waiter pointer,
// both atomics.
unsafe impl<W: Sync> Send for WaitSignal<W> {}
unsafe impl<W: Sync> Sync for WaitSignal<W> {}

impl<W> WaitSignal<W> {
    fn slot(&self) -> &Slot<W> {
        // SAFETY: a probe does not outlive its receiver.
        unsafe { self.slot.as_ref() }
    }

    /// True once the value arrived, was taken, or the slot closed — or
    /// the slot was reissued, which implies all three are long past.
    pub fn is_settled(&self) -> bool {
        let state = self.slot().state.load(Acquire);
        state >> STATE_BITS != self.generation || state & STATE_MASK != EMPTY
    }

    /// Runs `park` with `waiter` registered on the slot: a send wakes it.
    /// `park` may sleep with no timeout provided it re-checks
    /// [`is_settled`](WaitSignal::is_settled) after a SeqCst fence that
    /// follows its own "I sleep" store — the registration comes first, so
    /// a send either sees it or is seen by that check.
    ///
    /// # Safety
    /// `waiter` outlives every sender of this slot: a send may read the
    /// registration just before `waiting` clears it, and wake it after.
    pub unsafe fn waiting<R>(&self, waiter: &W, park: impl FnOnce() -> R) -> R {
        let slot = self.slot();
        slot.waiter.store(ptr::from_ref(waiter).cast_mut(), Relaxed);
        let out = park();
        slot.waiter.store(ptr::null_mut(), Relaxed);
        out
    }
}

impl<W> core::fmt::Debug for WaitSignal<W> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("WaitSignal")
            .field("settled", &self.is_settled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::thread::Thread;

    /// A waiter that unparks a thread when woken.
    struct Unpark(Thread);

    impl Wake for Unpark {
        fn wake(&self) {
            self.0.unpark();
        }
    }

    fn slab() -> ResultSlab<Unpark> {
        ResultSlab::new(1)
    }

    /// Counts its drops.
    struct Bomb<'a>(&'a AtomicUsize);

    impl Drop for Bomb<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Relaxed);
        }
    }

    #[test]
    fn value_roundtrips_once() {
        let slab = slab();
        let (tx, mut rx) = unsafe { slab.issue::<String>(0, [0; 3]) };
        assert!(!rx.is_settled());
        tx.send("hi".into());
        assert!(rx.is_settled());
        assert!(matches!(rx.poll(), SlotPoll::Ready(ref s) if s == "hi"));
        assert!(matches!(rx.poll(), SlotPoll::Closed));
    }

    #[test]
    fn large_value_roundtrips_via_box() {
        let slab = slab();
        let (tx, mut rx) = unsafe { slab.issue::<[u64; 5]>(0, [0; 3]) };
        tx.send([1, 2, 3, 4, 5]);
        assert!(matches!(rx.poll(), SlotPoll::Ready([1, 2, 3, 4, 5])));
    }

    #[test]
    fn dropped_sender_closes_the_slot() {
        let slab = slab();
        let (tx, mut rx) = unsafe { slab.issue::<u32>(0, [7, 8, 9]) };
        assert_eq!(tx.header(), [7, 8, 9]);
        drop(tx);
        assert!(rx.is_settled());
        assert!(matches!(rx.poll(), SlotPoll::Closed));
    }

    #[test]
    fn an_untaken_value_is_dropped_once_by_its_receiver() {
        let drops = AtomicUsize::new(0);
        let slab = slab();
        let (tx, rx) = unsafe { slab.issue::<Bomb<'_>>(0, [0; 3]) };
        tx.send(Bomb(&drops));
        assert_eq!(drops.load(Relaxed), 0);
        drop(rx);
        assert_eq!(drops.load(Relaxed), 1);
        unsafe { slab.reclaim() };
        assert_eq!(drops.load(Relaxed), 1);
    }

    #[test]
    fn a_send_after_the_receiver_dropped_is_dropped_by_the_sender() {
        let drops = AtomicUsize::new(0);
        let slab = slab();
        let (tx, rx) = unsafe { slab.issue::<Bomb<'_>>(0, [0; 3]) };
        drop(rx);
        assert!(tx.is_cancelled());
        tx.send(Bomb(&drops));
        assert_eq!(drops.load(Relaxed), 1);
    }

    #[test]
    fn a_detached_receiver_cancels_nothing_and_its_value_is_dropped() {
        let drops = AtomicUsize::new(0);
        let slab = slab();
        let (tx, rx) = unsafe { slab.issue::<Bomb<'_>>(0, [0; 3]) };
        rx.detach();
        assert!(!tx.is_cancelled());
        tx.send(Bomb(&drops));
        assert_eq!(drops.load(Relaxed), 1);
        assert_eq!(unsafe { slab.reclaim() }, 0);
    }

    #[test]
    fn a_registered_waiter_is_woken_by_the_send() {
        let slab = slab();
        let (tx, mut rx) = unsafe { slab.issue::<u64>(0, [0; 3]) };
        let probe = rx.signal();
        let me = Unpark(std::thread::current());
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                tx.send(11);
            });
            // SAFETY: `me` outlives the scope, and with it the sender.
            unsafe {
                probe.waiting(&me, || {
                    while !probe.is_settled() {
                        std::thread::park();
                    }
                })
            };
        });
        assert!(matches!(rx.poll(), SlotPoll::Ready(11)));
    }

    #[test]
    fn reclaim_reuses_released_chunks_and_sets_held_ones_aside() {
        let slab = slab();
        let (tx, mut rx) = unsafe { slab.issue::<u64>(0, [0; 3]) };
        tx.send(1);
        let (tx2, rx2) = unsafe { slab.issue::<u64>(0, [0; 3]) };
        tx2.send(2);
        assert!(matches!(rx.poll(), SlotPoll::Ready(1)));
        drop(rx);
        // `rx2` is carried across the reclaim: its chunk is set aside.
        assert_eq!(unsafe { slab.reclaim() }, 1);
        assert_eq!(slab.counts(), (1, 1, 2));
        // The lane issues from a replacement chunk meanwhile; the probe of
        // the carried receiver still reads its own slot.
        let (tx3, rx3) = unsafe { slab.issue::<u64>(0, [0; 3]) };
        assert!(rx2.is_settled());
        assert!(!rx3.is_settled());
        drop((tx3, rx3));
        drop(rx2);
        assert_eq!(unsafe { slab.reclaim() }, 0);
        assert_eq!(slab.counts(), (3, 0, 3));
        // The set-aside chunk came back as a spare; nothing was lost.
        let (tx4, mut rx4) = unsafe { slab.issue::<u64>(0, [0; 3]) };
        tx4.send(4);
        assert!(matches!(rx4.poll(), SlotPoll::Ready(4)));
        drop(rx4);
        unsafe { slab.reclaim() };
        assert_eq!(slab.counts().2, 3, "a reused slot is not created again");
    }

    #[test]
    fn a_probe_of_a_reissued_slot_reads_settled() {
        let slab = slab();
        let (tx, rx) = unsafe { slab.issue::<u64>(0, [0; 3]) };
        let stale = rx.signal();
        drop((tx, rx));
        unsafe { slab.reclaim() };
        let (_tx, rx) = unsafe { slab.issue::<u64>(0, [0; 3]) };
        assert!(!rx.is_settled());
        assert!(stale.is_settled());
    }

    #[test]
    fn the_generation_wraps_within_the_state_word() {
        let slab = slab();
        let (tx, rx) = unsafe { slab.issue::<u64>(0, [0; 3]) };
        let last = u32::MAX >> STATE_BITS;
        // SAFETY: the slot is this test's alone.
        unsafe { rx.slot.as_ref() }
            .state
            .store(last << STATE_BITS | EMPTY, Relaxed);
        drop((tx, rx));
        unsafe { slab.reclaim() };
        let (tx, rx) = unsafe { slab.issue::<u64>(0, [0; 3]) };
        assert_eq!(rx.generation, 0);
        assert!(!rx.is_settled());
        tx.send(1);
        assert!(rx.is_settled());
    }

    #[test]
    fn demand_is_kept_across_small_epochs_and_decays() {
        const BURST: usize = 5_000;
        let slab = slab();
        let epoch = |n: usize| {
            drop(
                (0..n)
                    .map(|_| unsafe { slab.issue::<u64>(0, [0; 3]) })
                    .collect::<Vec<_>>(),
            );
            assert_eq!(unsafe { slab.reclaim() }, 0);
        };
        // A burst well past the floor is kept whole: the next epoch of
        // the same size constructs nothing.
        epoch(BURST);
        assert_eq!(slab.counts(), (BURST, 0, BURST as u64));
        epoch(BURST);
        assert_eq!(slab.counts().2, BURST as u64);
        // Small epochs in between cost a recurring burst nothing…
        for _ in 0..32 {
            epoch(1);
        }
        epoch(BURST);
        assert_eq!(slab.counts().2, BURST as u64);
        // …but a burst that never recurs is let go: 1000 small epochs
        // later the slab holds no more than its floor.
        for _ in 0..1_000 {
            epoch(1);
        }
        let (free, live, _) = slab.counts();
        assert!(
            free <= FLOOR_CHUNKS * CHUNK_SLOTS,
            "still holds {free} slots"
        );
        assert_eq!(live, 0);
    }
}
