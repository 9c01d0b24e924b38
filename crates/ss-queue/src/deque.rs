//! Epoch-aware stealable work deque.
//!
//! The FastForward [`SpscQueue`](crate::SpscQueue) gives the
//! serialization-sets runtime its cheap program→delegate channel, but its
//! single-consumer contract is exactly what forbids work stealing: when
//! set popularity is skewed, one delegate's queue grows while the others
//! idle (the *serialization effect*). [`StealDeque`] is the substrate the
//! runtime's stealing mode replaces it with. It trades the FastForward
//! zero-sharing property for a short critical section (a [`Backoff`]-based
//! spinlock around a ring of entries) in exchange for three operations the
//! SPSC queue cannot express:
//!
//! * **keyed entries** — every item carries a `u64` key (the runtime uses
//!   the serialization-set id), and the deque understands *batches*: all
//!   entries sharing a key form one migration unit;
//! * **epoch-aware steal filtering** — the deque remembers which keys the
//!   owner has already popped since the last [`begin_epoch`]
//!   ([`StealDeque::begin_epoch`]). A thief lists candidates with one
//!   scan ([`scan_candidates`](StealDeque::scan_candidates)) and removes
//!   them through one removal loop, which re-checks eligibility under the
//!   lock: [`steal_keys_into`](StealDeque::steal_keys_into) refuses keys
//!   the owner has *started* — burned onto the owner, the caller-side
//!   pinning invariant enforced at the queue — and
//!   [`steal_tail_into`](StealDeque::steal_tail_into) takes a started
//!   key's queued *tail* only once the key is **quiescent**, every popped
//!   operation of it [`finish`](StealDeque::finish)ed (the
//!   operation-granularity steal's quiescence handshake);
//! * **scoped fences** — entries pushed with [`push_fence`]
//!   ([`StealDeque::push_fence`]) carry a [`FenceScope`] naming the keys
//!   that must provably drain *on this queue* while the fence is queued.
//!   The runtime's ownership-reclaim tokens are `Key`-scoped fences (the
//!   reclaimed set is frozen in place, so "the token popped" keeps
//!   implying "every operation of that set the token was ordered after
//!   has executed here"); epoch-barrier tokens are `Open` fences, because
//!   the barrier has its own all-queues-drained check that covers batches
//!   stolen mid-barrier.
//!
//! Unlike the bounded SPSC ring, the deque is unbounded: a thief must be
//! able to land a whole stolen batch without blocking, or a full queue
//! could deadlock two delegates against each other.
//!
//! # Example
//!
//! ```
//! use ss_queue::{StealDeque, StealTag, PUSH_SHARDS};
//!
//! let q: StealDeque<&'static str> = StealDeque::new();
//! q.push_keyed(7, "a1");
//! q.push_keyed(9, "b1");
//! q.push_keyed(7, "a2");
//!
//! // The owner pops FIFO and thereby *starts* key 7 …
//! assert_eq!(q.pop(), Some((StealTag::Key(7), "a1")));
//!
//! // … so a thief's scan lists only key 9 as a fresh batch …
//! let scan = q.scan_candidates(&[true; PUSH_SHARDS]);
//! assert_eq!(scan.fresh, vec![(9, 1)]);
//!
//! // … and a whole-set steal takes key 9's batch and refuses key 7.
//! let mut batch = Vec::new();
//! assert_eq!(q.steal_keys_into(&[7, 9], &mut batch), vec![9]);
//! assert_eq!(batch, vec![(9, "b1")]);
//!
//! // Key 7's remaining entries stayed with the owner.
//! assert_eq!(q.pop(), Some((StealTag::Key(7), "a2")));
//! assert!(q.pop().is_none());
//! ```

use core::cell::UnsafeCell;
use core::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::collections::{HashMap, HashSet, VecDeque};

use crate::{Backoff, CachePadded};

/// Number of push-counter shards. The futile-scan rate-limit counter
/// ([`StealDeque::pushes_by_shard`]) is maintained per *tenant shard* — derived
/// from a key's high 16 bits, the runtime's session id — so one hot
/// tenant's push churn cannot invalidate thieves' scan memos for every
/// other tenant on the same deque.
pub const PUSH_SHARDS: usize = 8;

/// The push-counter shard a key belongs to. All keys of one tenant
/// (same high 16 bits) share a shard.
#[inline]
pub fn push_shard_of(key: u64) -> usize {
    ((key >> 48) as usize) & (PUSH_SHARDS - 1)
}

/// What kind of entry a [`StealDeque::pop`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StealTag {
    /// A keyed entry — part of the batch identified by this key.
    Key(u64),
    /// A fence entry pushed with [`push_fence`](StealDeque::push_fence).
    Fence,
}

/// How much a fence entry protects from stealing while it is queued.
///
/// A fence models a synchronization token the producer is blocked waiting
/// on; the scope states which keys must *provably drain on this queue*
/// before the token is reached, and therefore may not migrate while the
/// fence is queued:
///
/// * [`FenceScope::Key`] — an ownership reclaim of one serialization set:
///   that set is frozen here, everything else stays fair game.
/// * [`FenceScope::All`] — freeze every key (the conservative scope for
///   callers that cannot name the set they are reclaiming).
/// * [`FenceScope::Open`] — freeze nothing. Used by epoch barriers whose
///   caller has its own "all queues drained" check that covers migrated
///   work (tokens alone say nothing about batches stolen mid-barrier).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FenceScope {
    /// Freeze nothing.
    Open,
    /// Freeze exactly this key.
    Key(u64),
    /// Freeze every key.
    All,
}

enum Entry {
    Key(u64),
    Fence(FenceScope),
}

/// Which requested keys the removal loop may take (see `StealDeque::take`).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Take {
    /// Never-started, unfenced keys: a whole-set steal.
    Fresh,
    /// Started, quiescent, unfenced keys: a tail steal.
    Tail,
    /// Started keys, fenced or in flight alike (chaos only).
    TailUnchecked,
}

struct State<T> {
    entries: VecDeque<(Entry, T)>,
    /// Keys the owner has popped since the last `begin_epoch` — these are
    /// *started*: excluded from whole-batch steals until the epoch rolls
    /// over, and tail-stealable only while quiescent (below).
    started: HashSet<u64>,
    /// Per-key count of popped-but-not-yet-[`finish`](StealDeque::finish)ed
    /// operations. A started key absent from this map is **quiescent**: no
    /// operation of the key is executing (or deferred) anywhere, so its
    /// queued tail may migrate. Entries are removed when the count reaches
    /// zero, keeping the map at O(concurrently executing keys).
    in_flight: HashMap<u64, u32>,
}

impl<T> State<T> {
    /// Scans queued fences and returns the keys they freeze, or `None`
    /// when an `All` fence freezes the entire deque. The single
    /// definition of fence semantics, shared by the scan and the removal
    /// loop, so listing and removing can never disagree about it.
    fn frozen_keys(&self) -> Option<HashSet<u64>> {
        let mut frozen: HashSet<u64> = HashSet::new();
        for (entry, _) in self.entries.iter() {
            match entry {
                Entry::Fence(FenceScope::All) => return None,
                Entry::Fence(FenceScope::Key(k)) => {
                    frozen.insert(*k);
                }
                _ => {}
            }
        }
        Some(frozen)
    }
}

/// Unbounded keyed deque with owner-FIFO pops and whole-batch steals.
///
/// All methods take `&self`; a [`Backoff`]-based spinlock serializes
/// structural access (critical sections are a handful of `VecDeque` and
/// hash operations). [`len`](StealDeque::len) and
/// [`is_empty`](StealDeque::is_empty) read a cache-padded atomic without
/// taking the lock, so idle thieves can scan for victims without
/// disturbing them.
///
/// Role protocol (by convention, not by type): any number of *producers*
/// push, one *owner* pops, any number of *thieves* steal. The deque is
/// safe under any concurrent mix — all structural access serializes on
/// the internal spinlock — and per-producer FIFO order holds because each
/// push is a single critical section. Multi-producer pushing is what the
/// runtime's recursive-delegation path relies on: the program thread and
/// any delegate may push keyed entries concurrently (racing thieves),
/// with the caller's routing lock making the pin-lookup + push atomic.
/// The single-owner convention is what makes the started-key bookkeeping
/// meaningful.
pub struct StealDeque<T> {
    locked: CachePadded<AtomicBool>,
    len: CachePadded<AtomicUsize>,
    /// Monotonic per-tenant-shard counts of keyed entries ever pushed,
    /// plus quiescence edges (see
    /// [`pushes_by_shard`](StealDeque::pushes_by_shard)).
    pushes: [CachePadded<AtomicUsize>; PUSH_SHARDS],
    state: UnsafeCell<State<T>>,
}

// SAFETY: `state` is only touched while `locked` is held (see `Guard`),
// whose Acquire/Release edges order all accesses. `T: Send` because values
// move between the pushing, popping, and stealing threads.
unsafe impl<T: Send> Send for StealDeque<T> {}
unsafe impl<T: Send> Sync for StealDeque<T> {}

/// Scoped spinlock guard over the deque state.
struct Guard<'a, T> {
    deque: &'a StealDeque<T>,
}

impl<T> Guard<'_, T> {
    fn state(&mut self) -> &mut State<T> {
        // SAFETY: the lock is held for the guard's lifetime, giving this
        // thread exclusive access to `state`.
        unsafe { &mut *self.deque.state.get() }
    }
}

impl<T> Drop for Guard<'_, T> {
    fn drop(&mut self) {
        self.deque.locked.store(false, Ordering::Release);
    }
}

impl<T> Default for StealDeque<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> StealDeque<T> {
    /// Creates an empty deque.
    pub fn new() -> Self {
        StealDeque {
            locked: CachePadded::new(AtomicBool::new(false)),
            len: CachePadded::new(AtomicUsize::new(0)),
            pushes: std::array::from_fn(|_| CachePadded::new(AtomicUsize::new(0))),
            state: UnsafeCell::new(State {
                entries: VecDeque::new(),
                started: HashSet::new(),
                in_flight: HashMap::new(),
            }),
        }
    }

    fn lock(&self) -> Guard<'_, T> {
        let backoff = Backoff::new();
        while self
            .locked
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            backoff.snooze();
        }
        Guard { deque: self }
    }

    /// Number of entries currently enqueued (keyed + fences). Lock-free
    /// approximate read — exact only at quiescent points.
    #[inline]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// True when no entries are enqueued (lock-free approximate read).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Monotonic per-tenant-shard counts of keyed entries ever pushed
    /// (including batch re-insertions) plus quiescence edges, lock-free:
    /// slot [`push_shard_of`]`(key)` moves when an entry for `key` is
    /// pushed or `key` becomes quiescent. Thieves use it to rate-limit
    /// futile steal scans: a failed steal means every queued batch was
    /// started or fenced, and only a *new push*, a key *becoming
    /// quiescent* (its tail just turned stealable), or an epoch roll can
    /// change that. A thief that memoizes this array after a futile scan
    /// skips a victim none of whose shards moved and re-scans only the
    /// shards that did, so one hot tenant's churn cannot starve steal
    /// scans targeting the other tenants on the same deque.
    #[inline]
    pub fn pushes_by_shard(&self) -> [usize; PUSH_SHARDS] {
        std::array::from_fn(|i| self.pushes[i].load(Ordering::Acquire))
    }

    /// Appends a keyed entry at the back (producer side).
    pub fn push_keyed(&self, key: u64, value: T) {
        let mut g = self.lock();
        g.state().entries.push_back((Entry::Key(key), value));
        self.len.fetch_add(1, Ordering::Release);
        self.pushes[push_shard_of(key)].fetch_add(1, Ordering::Release);
    }

    /// Appends a fence entry at the back. While the fence is queued, the
    /// keys its [`FenceScope`] names are excluded from stealing; the fence
    /// itself is popped by the owner like any other entry (at which point
    /// its protection lifts — the producer it was blocking has resumed).
    pub fn push_fence(&self, scope: FenceScope, value: T) {
        let mut g = self.lock();
        g.state().entries.push_back((Entry::Fence(scope), value));
        self.len.fetch_add(1, Ordering::Release);
    }

    /// Appends a whole batch of keyed entries at the back, preserving
    /// order — the thief side of a migration. The caller must ensure new
    /// pushes for the batch's keys are routed here *before* releasing
    /// whatever lock made the steal atomic, or batch entries could be
    /// overtaken by newer ones.
    pub fn extend_keyed(&self, batch: impl IntoIterator<Item = (u64, T)>) {
        let mut g = self.lock();
        let mut n = 0;
        for (key, value) in batch {
            g.state().entries.push_back((Entry::Key(key), value));
            self.pushes[push_shard_of(key)].fetch_add(1, Ordering::Release);
            n += 1;
        }
        self.len.fetch_add(n, Ordering::Release);
    }

    /// Appends a whole run of entries sharing one key at the back, in
    /// order, under a **single** lock acquisition — the *producer* side
    /// of the batch granularity the deque has always had on the thief
    /// side ([`extend_keyed`](StealDeque::extend_keyed)): a run pushed
    /// together forms one migration unit that a later steal moves
    /// whole. Returns the number of entries appended.
    pub fn push_keyed_batch(&self, key: u64, values: impl IntoIterator<Item = T>) -> usize {
        let mut g = self.lock();
        let mut n = 0;
        for value in values {
            g.state().entries.push_back((Entry::Key(key), value));
            n += 1;
        }
        self.len.fetch_add(n, Ordering::Release);
        self.pushes[push_shard_of(key)].fetch_add(n, Ordering::Release);
        n
    }

    /// Pops the oldest entry (owner side). Popping a keyed entry marks its
    /// key *started* for the current epoch (excluding it from whole-batch
    /// steals until [`begin_epoch`](StealDeque::begin_epoch)) and raises
    /// the key's in-flight count — the key stays non-quiescent, and its
    /// tail unstealable, until a matching [`finish`](StealDeque::finish).
    pub fn pop(&self) -> Option<(StealTag, T)> {
        let mut g = self.lock();
        let state = g.state();
        let (entry, value) = state.entries.pop_front()?;
        let tag = match entry {
            Entry::Key(k) => {
                state.started.insert(k);
                *state.in_flight.entry(k).or_insert(0) += 1;
                StealTag::Key(k)
            }
            Entry::Fence(_) => StealTag::Fence,
        };
        self.len.fetch_sub(1, Ordering::Release);
        Some((tag, value))
    }

    /// Records that one previously-popped operation of `key` finished
    /// executing. The owner calls this after every keyed operation it
    /// runs (including deferred help-first entries — a popped-but-parked
    /// operation keeps its key in flight until it actually executes).
    /// When the last in-flight operation of a key finishes, the key
    /// becomes *quiescent*: its queued tail turns stealable, and the
    /// key's push-shard counter is bumped so thieves' futile-scan memos
    /// expire. A `finish` with no matching pop (the epoch rolled while
    /// the operation ran) is ignored.
    pub fn finish(&self, key: u64) {
        let mut g = self.lock();
        let state = g.state();
        let became_quiescent = match state.in_flight.get_mut(&key) {
            Some(n) if *n > 1 => {
                *n -= 1;
                false
            }
            Some(_) => {
                state.in_flight.remove(&key);
                true
            }
            None => false,
        };
        drop(g);
        if became_quiescent {
            self.pushes[push_shard_of(key)].fetch_add(1, Ordering::Release);
        }
    }

    /// One scan of the deque on a thief's behalf — the *candidate
    /// selection* phase of the two-phase steal. Buckets every unfenced
    /// queued key whose push shard (see [`push_shard_of`]) is marked in
    /// `shards`: never-started batches (`fresh`) and quiescent started
    /// tails (`tails`), each with its queued entry count for steal
    /// sizing, in first-appearance order; `busy` lists started keys whose
    /// queued tails are blocked by an in-flight operation. Unmarked
    /// shards are the consumer side of the per-shard futile-scan memo
    /// ([`pushes_by_shard`](StealDeque::pushes_by_shard)): a thief that
    /// already proved a shard's keys unstealable skips them untouched.
    ///
    /// The answer is advisory: eligibility can change the instant the
    /// deque lock drops (the owner may start a key, a fence may arrive),
    /// so the caller must re-validate through
    /// [`steal_keys_into`](StealDeque::steal_keys_into) /
    /// [`steal_tail_into`](StealDeque::steal_tail_into) once it holds
    /// whatever locks make the migration atomic.
    pub fn scan_candidates(&self, shards: &[bool; PUSH_SHARDS]) -> StealScan {
        let mut g = self.lock();
        let state = g.state();
        let Some(frozen) = state.frozen_keys() else {
            return StealScan::default(); // an `All` fence freezes everything
        };
        let mut order: Vec<u64> = Vec::new();
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for (entry, _) in state.entries.iter() {
            if let Entry::Key(k) = entry {
                if shards[push_shard_of(*k)] && !frozen.contains(k) {
                    let c = counts.entry(*k).or_insert(0);
                    if *c == 0 {
                        order.push(*k);
                    }
                    *c += 1;
                }
            }
        }
        let mut scan = StealScan::default();
        for k in order {
            let n = counts[&k];
            if !state.started.contains(&k) {
                scan.fresh.push((k, n));
            } else if !state.in_flight.contains_key(&k) {
                scan.tails.push((k, n));
            } else {
                scan.busy.push((k, n));
            }
        }
        scan
    }

    /// Removes every entry of each *still-eligible* never-started key in
    /// `keys` into `out` (preserving entry order) and returns the keys
    /// actually taken — the removal phase of a whole-set steal. A key
    /// that became started, fenced, or empty since the scan is skipped
    /// whole (never fragmented), so the caller re-pins exactly the
    /// returned keys. The caller must hold the locks that route new
    /// pushes of these keys for the duration of the call *and* the
    /// re-pin, or batch entries could be overtaken or stranded.
    pub fn steal_keys_into(&self, keys: &[u64], out: &mut Vec<(u64, T)>) -> Vec<u64> {
        self.take(keys, out, Take::Fresh).0
    }

    /// Removes the **entire queued remainder** of each still-quiescent
    /// started key in `keys` into `out` — the removal phase of an
    /// operation-granularity (tail) steal. Returns the keys actually
    /// taken and the number of requested keys skipped because an
    /// operation of the key was in flight (the quiescence handshake
    /// failed). A taken tail moves whole: leaving any entry behind would
    /// let the owner and the thief execute the same set concurrently.
    /// Keys that are fenced, no longer started (the epoch rolled), or
    /// drained since listing are skipped silently. The caller must hold
    /// the locks that route new pushes of these keys for the duration of
    /// the call *and* the re-pin, exactly as for
    /// [`steal_keys_into`](StealDeque::steal_keys_into).
    pub fn steal_tail_into(&self, keys: &[u64], out: &mut Vec<(u64, T)>) -> (Vec<u64>, usize) {
        self.take(keys, out, Take::Tail)
    }

    /// Removal phase of a tail steal **without the quiescence check or
    /// fences**: takes the queued remainder of each started key in `keys`
    /// even while operations of the key are in flight on the owner.
    /// Deliberately unsound — exists only so the runtime's test-only
    /// `chaos` weakenings can prove the serializability auditor catches
    /// mid-set steals; never called by the real handshake.
    #[doc(hidden)]
    pub fn steal_tail_unchecked_into(&self, keys: &[u64], out: &mut Vec<(u64, T)>) -> Vec<u64> {
        self.take(keys, out, Take::TailUnchecked).0
    }

    /// The one removal loop behind every steal: admits the requested
    /// keys `take` allows (counting tails refused as busy), moves every
    /// queued entry of an admitted key to `out` in queue order, and
    /// returns the admitted keys that had entries, in first-appearance
    /// order. A taken tail no longer belongs to this owner: its started
    /// mark is cleared, so a later migration back here is a fresh batch
    /// again (the thief's deque records its own started state).
    fn take(&self, keys: &[u64], out: &mut Vec<(u64, T)>, take: Take) -> (Vec<u64>, usize) {
        if keys.is_empty() {
            return (Vec::new(), 0);
        }
        let mut g = self.lock();
        let state = g.state();
        let frozen = match take {
            Take::TailUnchecked => HashSet::new(),
            _ => match state.frozen_keys() {
                Some(frozen) => frozen,
                None => return (Vec::new(), 0), // an `All` fence freezes everything
            },
        };
        let mut busy = 0;
        let wanted: HashSet<u64> = keys
            .iter()
            .copied()
            .filter(|k| {
                let started = state.started.contains(k);
                !frozen.contains(k)
                    && match take {
                        Take::Fresh => !started,
                        Take::TailUnchecked => started,
                        Take::Tail if started && state.in_flight.contains_key(k) => {
                            busy += 1;
                            false
                        }
                        Take::Tail => started,
                    }
            })
            .collect();
        let mut taken_keys: Vec<u64> = Vec::new();
        if wanted.is_empty() {
            return (taken_keys, busy);
        }
        let before = out.len();
        for (entry, value) in std::mem::take(&mut state.entries) {
            match entry {
                Entry::Key(k) if wanted.contains(&k) => {
                    if !taken_keys.contains(&k) {
                        taken_keys.push(k);
                    }
                    out.push((k, value));
                }
                _ => state.entries.push_back((entry, value)),
            }
        }
        if take != Take::Fresh {
            for k in &taken_keys {
                state.started.remove(k);
            }
        }
        self.len.fetch_sub(out.len() - before, Ordering::Release);
        (taken_keys, busy)
    }

    /// Clears the started-key set and in-flight counts for a new epoch.
    /// Must only be called at a point where the epoch protocol guarantees
    /// quiescence (for the runtime: after the `end_isolation` barrier,
    /// when every queue has drained).
    pub fn begin_epoch(&self) {
        let mut g = self.lock();
        let state = g.state();
        state.started.clear();
        state.in_flight.clear();
    }

    /// True if the owner has popped an entry with this key since the last
    /// [`begin_epoch`](StealDeque::begin_epoch) (diagnostic).
    pub fn is_started(&self, key: u64) -> bool {
        let mut g = self.lock();
        g.state().started.contains(&key)
    }

    /// True if the key is started and every popped operation of it has
    /// been [`finish`](StealDeque::finish)ed — the tail-steal eligibility
    /// predicate, exposed for diagnostics and tests.
    pub fn is_quiescent(&self, key: u64) -> bool {
        let mut g = self.lock();
        let state = g.state();
        state.started.contains(&key) && !state.in_flight.contains_key(&key)
    }
}

/// Result of one [`StealDeque::scan_candidates`] pass.
#[derive(Debug, Default)]
pub struct StealScan {
    /// Never-started, unfenced keys with their queued entry counts, in
    /// first-appearance order — eligible for whole-batch migration.
    pub fresh: Vec<(u64, usize)>,
    /// Started, quiescent, unfenced keys with their queued entry counts —
    /// eligible for tail migration after the quiescence handshake.
    pub tails: Vec<(u64, usize)>,
    /// Started keys with queued entries whose tails are currently blocked
    /// by an in-flight operation (with their queued entry counts) — the
    /// quiescence handshake's refusals, in first-appearance order.
    pub busy: Vec<(u64, usize)>,
}

impl<T> std::fmt::Debug for StealDeque<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StealDeque")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [bool; PUSH_SHARDS] = [true; PUSH_SHARDS];

    /// The never-started keys a thief's scan lists, in first-appearance
    /// order.
    fn fresh<T>(q: &StealDeque<T>) -> Vec<u64> {
        q.scan_candidates(&ALL)
            .fresh
            .iter()
            .map(|&(k, _)| k)
            .collect()
    }

    #[test]
    fn fifo_pop_order() {
        let q = StealDeque::new();
        for i in 0..10u64 {
            q.push_keyed(i % 3, i);
        }
        assert_eq!(q.len(), 10);
        for i in 0..10u64 {
            assert_eq!(q.pop(), Some((StealTag::Key(i % 3), i)));
        }
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn steal_takes_whole_batches_only() {
        let q = StealDeque::new();
        // Interleave three keys; steal must never split a key.
        for i in 0..12u64 {
            q.push_keyed(i % 3, i);
        }
        let keys = fresh(&q);
        assert_eq!(keys, vec![0, 1, 2]);
        let mut out = Vec::new();
        assert_eq!(q.steal_keys_into(&keys[1..], &mut out), vec![1, 2]);
        // Every entry of a stolen key migrated…
        for key in [1u64, 2] {
            let expected: Vec<u64> = (0..12).filter(|i| i % 3 == key).collect();
            let got: Vec<u64> = out
                .iter()
                .filter(|(k, _)| *k == key)
                .map(|(_, v)| *v)
                .collect();
            assert_eq!(got, expected, "key {key} fragmented");
        }
        // …and no entry of a kept key did.
        let mut rest = Vec::new();
        while let Some((StealTag::Key(k), v)) = q.pop() {
            assert_eq!(k, 0);
            rest.push(v);
        }
        assert_eq!(rest.len() + out.len(), 12);
    }

    #[test]
    fn steal_skips_started_keys() {
        let q = StealDeque::new();
        q.push_keyed(1, "hot-1");
        q.push_keyed(2, "cold-1");
        q.push_keyed(1, "hot-2");
        // Owner starts key 1: the scan no longer lists it as fresh, and a
        // whole-set steal refuses it even when asked.
        assert_eq!(q.pop(), Some((StealTag::Key(1), "hot-1")));
        assert!(q.is_started(1));
        assert_eq!(fresh(&q), vec![2]);
        let mut out = Vec::new();
        assert_eq!(q.steal_keys_into(&[1, 2], &mut out), vec![2]);
        assert_eq!(out, vec![(2, "cold-1")]);
        // The started key's tail stayed.
        assert_eq!(q.pop(), Some((StealTag::Key(1), "hot-2")));
    }

    #[test]
    fn key_fence_freezes_only_its_key() {
        let q = StealDeque::new();
        q.push_keyed(1, 10);
        q.push_keyed(2, 20);
        q.push_fence(FenceScope::Key(1), 0);
        // Key 1 is under reclaim: frozen. Key 2 is fair game.
        assert_eq!(fresh(&q), vec![2]);
        let mut out = Vec::new();
        assert_eq!(q.steal_keys_into(&[1, 2], &mut out), vec![2]);
        assert_eq!(out, vec![(2, 20)]);
        assert_eq!(q.pop(), Some((StealTag::Key(1), 10)));
        assert_eq!(q.pop(), Some((StealTag::Fence, 0)));
        // Fence popped → protection lifted…
        q.push_keyed(1, 11);
        let mut out = Vec::new();
        assert!(q.steal_keys_into(&[1], &mut out).is_empty()); // …but key 1 is started now
        q.begin_epoch();
        q.push_keyed(1, 12);
        assert_eq!(q.steal_keys_into(&[1], &mut out), vec![1]);
        assert_eq!(out, vec![(1, 11), (1, 12)]);
    }

    #[test]
    fn all_fence_freezes_everything_open_fence_nothing() {
        let q = StealDeque::new();
        q.push_keyed(1, 10);
        q.push_keyed(2, 20);
        q.push_fence(FenceScope::All, 0);
        let mut out = Vec::new();
        assert!(fresh(&q).is_empty());
        assert!(q.steal_keys_into(&[1, 2], &mut out).is_empty());
        // Replace the All fence with an Open one: both keys are eligible
        // again.
        let q = StealDeque::new();
        q.push_keyed(1, 10);
        q.push_keyed(2, 20);
        q.push_fence(FenceScope::Open, 0);
        assert_eq!(fresh(&q), vec![1, 2]);
        assert_eq!(q.steal_keys_into(&[2], &mut out), vec![2]);
        assert_eq!(out, vec![(2, 20)]);
        // The other batch and the fence stayed behind for the owner.
        assert_eq!(q.pop(), Some((StealTag::Key(1), 10)));
        assert_eq!(q.pop(), Some((StealTag::Fence, 0)));
    }

    #[test]
    fn begin_epoch_clears_started_set() {
        let q = StealDeque::new();
        q.push_keyed(5, 1);
        q.pop();
        assert!(q.is_started(5));
        q.begin_epoch();
        assert!(!q.is_started(5));
        q.push_keyed(5, 2);
        let mut out = Vec::new();
        assert_eq!(q.steal_keys_into(&[5], &mut out), vec![5]);
        assert_eq!(out, vec![(5, 2)]);
    }

    #[test]
    fn single_eligible_batch_is_stolen_whole() {
        let q = StealDeque::new();
        q.push_keyed(9, 1);
        q.push_keyed(9, 2);
        let mut out = Vec::new();
        assert_eq!(q.steal_keys_into(&fresh(&q), &mut out), vec![9]);
        assert_eq!(out, vec![(9, 1), (9, 2)]);
        assert!(q.is_empty());
    }

    #[test]
    fn extend_keyed_appends_in_order() {
        let q = StealDeque::new();
        q.push_keyed(1, 100);
        q.extend_keyed(vec![(2, 200), (2, 201)]);
        q.push_keyed(3, 300);
        let got: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(got, vec![100, 200, 201, 300]);
    }

    #[test]
    fn two_phase_steal_takes_exactly_the_requested_keys() {
        let q = StealDeque::new();
        for i in 0..12u64 {
            q.push_keyed(i % 4, i);
        }
        let scan = q.scan_candidates(&ALL);
        assert_eq!(scan.fresh, vec![(0, 3), (1, 3), (2, 3), (3, 3)]);
        let mut out = Vec::new();
        let taken = q.steal_keys_into(&[1, 3], &mut out);
        assert_eq!(taken, vec![1, 3]);
        // Whole batches of exactly keys 1 and 3, in order.
        assert_eq!(
            out.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![1, 3, 5, 7, 9, 11]
        );
        // The rest stayed, order intact.
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(rest, vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn steal_keys_skips_keys_started_or_fenced_since_listing() {
        let q = StealDeque::new();
        q.push_keyed(1, 10);
        q.push_keyed(2, 20);
        q.push_keyed(3, 30);
        let keys = fresh(&q);
        assert_eq!(keys, vec![1, 2, 3]);
        // Between the phases: the owner starts key 1, a reclaim fences key 2.
        assert_eq!(q.pop(), Some((StealTag::Key(1), 10)));
        q.push_fence(FenceScope::Key(2), 0);
        let mut out = Vec::new();
        let taken = q.steal_keys_into(&keys, &mut out);
        assert_eq!(taken, vec![3]);
        assert_eq!(out, vec![(3, 30)]);
        // Skipped keys are never fragmented.
        assert_eq!(q.pop(), Some((StealTag::Key(2), 20)));
    }

    #[test]
    fn steal_keys_respects_all_fence_and_empty_requests() {
        let q = StealDeque::new();
        q.push_keyed(1, 10);
        q.push_fence(FenceScope::All, 0);
        assert!(fresh(&q).is_empty());
        let mut out = Vec::new();
        assert!(q.steal_keys_into(&[1], &mut out).is_empty());
        assert!(out.is_empty());
        let q2: StealDeque<u8> = StealDeque::new();
        let scan = q2.scan_candidates(&ALL);
        assert!(scan.fresh.is_empty() && scan.tails.is_empty() && scan.busy.is_empty());
        assert!(q2.steal_keys_into(&[], &mut Vec::new()).is_empty());
        assert_eq!(q2.steal_tail_into(&[], &mut Vec::new()), (Vec::new(), 0));
    }

    #[test]
    fn steal_keys_takes_entries_pushed_after_listing() {
        // The re-validation phase must migrate the *whole* batch as of
        // removal time, including entries that arrived after the listing
        // (the caller's shard lock orders later pushes behind the re-pin).
        let q = StealDeque::new();
        q.push_keyed(5, 1);
        let keys = fresh(&q);
        q.push_keyed(5, 2);
        let mut out = Vec::new();
        assert_eq!(q.steal_keys_into(&keys, &mut out), vec![5]);
        assert_eq!(out, vec![(5, 1), (5, 2)]);
        assert!(q.is_empty());
    }

    #[test]
    fn tail_not_stealable_while_op_in_flight() {
        let q = StealDeque::new();
        q.push_keyed(7, 1);
        q.push_keyed(7, 2);
        q.push_keyed(7, 3);
        // Owner pops one op and is "executing" it: key 7 is started and
        // non-quiescent, so the tail stays put (handshake fails).
        assert_eq!(q.pop(), Some((StealTag::Key(7), 1)));
        assert!(!q.is_quiescent(7));
        let scan = q.scan_candidates(&ALL);
        assert!(scan.fresh.is_empty());
        assert!(scan.tails.is_empty());
        assert_eq!(scan.busy, vec![(7, 2)]);
        let mut out = Vec::new();
        let (taken, busy) = q.steal_tail_into(&[7], &mut out);
        assert!(taken.is_empty());
        assert_eq!(busy, 1);
        assert!(out.is_empty());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn finished_prefix_makes_tail_stealable_whole() {
        let q = StealDeque::new();
        for v in 1..=5u64 {
            q.push_keyed(7, v);
        }
        // Owner executes a two-op prefix to completion.
        q.pop();
        q.finish(7);
        q.pop();
        q.finish(7);
        assert!(q.is_quiescent(7));
        let scan = q.scan_candidates(&ALL);
        assert_eq!(scan.tails, vec![(7, 3)]);
        assert!(scan.busy.is_empty());
        // A whole-set steal still refuses the started key…
        let mut out = Vec::new();
        assert!(q.steal_keys_into(&[7], &mut out).is_empty());
        // …but the quiescence handshake passes and the ENTIRE remainder
        // moves.
        let (taken, busy) = q.steal_tail_into(&[7], &mut out);
        assert_eq!(taken, vec![7]);
        assert_eq!(busy, 0);
        assert_eq!(out, vec![(7, 3), (7, 4), (7, 5)]);
        assert!(q.is_empty());
        // The stolen key no longer reads as started on the old owner.
        assert!(!q.is_started(7));
    }

    #[test]
    fn tail_steal_respects_fences_and_epoch_rolls() {
        let q = StealDeque::new();
        q.push_keyed(1, 10);
        q.push_keyed(1, 11);
        q.pop();
        q.finish(1);
        q.push_fence(FenceScope::Key(1), 0);
        // Quiescent but fenced: not listed, not taken.
        assert!(q.scan_candidates(&ALL).tails.is_empty());
        let mut out = Vec::new();
        let (taken, busy) = q.steal_tail_into(&[1], &mut out);
        assert!(taken.is_empty());
        assert_eq!(busy, 0);
        // After an epoch roll the key is no longer started at all, so the
        // tail entry point skips it — and the still-queued fence keeps it
        // out of the fresh bucket too.
        q.begin_epoch();
        let (taken, _) = q.steal_tail_into(&[1], &mut out);
        assert!(taken.is_empty());
        assert!(fresh(&q).is_empty());
        // Drain the fence: the key is fresh-batch territory again.
        assert_eq!(q.pop(), Some((StealTag::Key(1), 11)));
        q.finish(1);
        assert_eq!(q.pop(), Some((StealTag::Fence, 0)));
        q.push_keyed(1, 12);
        // Started again by the pop above, but quiescent: a tail.
        assert_eq!(q.scan_candidates(&ALL).tails, vec![(1, 1)]);
    }

    #[test]
    fn scan_candidates_buckets_fresh_tails_and_busy() {
        let q = StealDeque::new();
        q.push_keyed(1, 10); // fresh, then drained
        q.push_keyed(2, 20); // will become a quiescent tail
        q.push_keyed(2, 21);
        q.push_keyed(3, 30); // will stay busy
        q.push_keyed(3, 31);
        // Run key 1's op and both of key 2's queued ops to completion.
        for _ in 0..3 {
            let (StealTag::Key(k), _) = q.pop().unwrap() else {
                unreachable!("no fences pushed");
            };
            q.finish(k);
        }
        // Key 3's first op is popped and still in flight.
        assert_eq!(q.pop(), Some((StealTag::Key(3), 30)));
        q.push_keyed(2, 22);
        q.push_keyed(4, 40);
        let scan = q.scan_candidates(&ALL);
        assert_eq!(scan.fresh, vec![(4, 1)]);
        assert_eq!(scan.tails, vec![(2, 1)]);
        assert_eq!(scan.busy, vec![(3, 1)]);
    }

    #[test]
    fn unchecked_tail_steal_ignores_in_flight_ops() {
        // The chaos entry point: takes the tail even though the owner is
        // mid-operation — the unsound interleaving the auditor must catch.
        let q = StealDeque::new();
        q.push_keyed(7, 1);
        q.push_keyed(7, 2);
        q.push_keyed(7, 3);
        q.pop(); // in flight, never finished
        let mut out = Vec::new();
        let taken = q.steal_tail_unchecked_into(&[7], &mut out);
        assert_eq!(taken, vec![7]);
        assert_eq!(out, vec![(7, 2), (7, 3)]);
    }

    #[test]
    fn per_shard_push_counts_scope_futile_scan_invalidation() {
        let q: StealDeque<u32> = StealDeque::new();
        // Tenant ids live in the key's high 16 bits, so two tenants land
        // in two different push shards.
        let hot = 1u64 << 48;
        let cold = 2u64 << 48;
        assert_ne!(push_shard_of(hot), push_shard_of(cold));
        q.push_keyed(hot, 0);
        q.push_keyed(cold, 1);
        let before = q.pushes_by_shard();
        q.push_keyed(hot | 5, 2);
        let after = q.pushes_by_shard();
        // Only the hot tenant's shard moved.
        assert_eq!(after[push_shard_of(hot)], before[push_shard_of(hot)] + 1);
        assert_eq!(after[push_shard_of(cold)], before[push_shard_of(cold)]);
        // A scan restricted to the changed shards skips the cold tenant's
        // (already proven futile) keys entirely.
        let changed: [bool; PUSH_SHARDS] = std::array::from_fn(|s| after[s] != before[s]);
        let listed: Vec<u64> = q
            .scan_candidates(&changed)
            .fresh
            .iter()
            .map(|c| c.0)
            .collect();
        assert_eq!(listed, vec![hot, hot | 5]);
        assert_eq!(fresh(&q), vec![hot, cold, hot | 5]);
    }

    #[test]
    fn unbalanced_finish_is_ignored() {
        let q: StealDeque<u8> = StealDeque::new();
        q.finish(9); // never popped: no panic, no state
        assert!(!q.is_quiescent(9));
        q.push_keyed(9, 1);
        q.pop();
        q.finish(9);
        q.finish(9); // second finish of a single pop: ignored
        assert!(q.is_quiescent(9));
    }

    #[test]
    fn push_counters_are_per_tenant_shard() {
        // Regression for the futile-scan rate limiter: pushes from one
        // tenant must not disturb another tenant's shard counter, so a
        // thief's per-shard memo for the quiet tenant stays valid.
        let hot = 1u64 << 48 | 5; // tenant 1
        let quiet = 2u64 << 48 | 5; // tenant 2
        assert_ne!(push_shard_of(hot), push_shard_of(quiet));
        let q = StealDeque::new();
        q.push_keyed(quiet, 0u64);
        let before = q.pushes_by_shard();
        for i in 0..10 {
            q.push_keyed(hot, i);
        }
        let after = q.pushes_by_shard();
        assert_eq!(after[push_shard_of(quiet)], before[push_shard_of(quiet)]);
        assert_eq!(after[push_shard_of(hot)], before[push_shard_of(hot)] + 10);
        assert_eq!(after.iter().sum::<usize>(), 11);
    }

    #[test]
    fn quiescence_edge_bumps_push_shard() {
        // A key finishing its last in-flight op with entries still queued
        // turns its tail stealable; the shard counter must move so memoized
        // thieves re-scan.
        let q = StealDeque::new();
        q.push_keyed(3, 1);
        q.push_keyed(3, 2);
        q.pop();
        let before = q.pushes_by_shard()[push_shard_of(3)];
        q.finish(3);
        let after = q.pushes_by_shard()[push_shard_of(3)];
        assert_eq!(after, before + 1);
    }

    #[test]
    fn concurrent_push_pop_stream() {
        let q = std::sync::Arc::new(StealDeque::new());
        let n = 50_000u64;
        let p = std::sync::Arc::clone(&q);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..n {
                    p.push_keyed(0, i);
                }
            });
            s.spawn(move || {
                let mut expected = 0;
                let backoff = Backoff::new();
                while expected < n {
                    match q.pop() {
                        Some((_, v)) => {
                            assert_eq!(v, expected);
                            expected += 1;
                            backoff.reset();
                        }
                        None => backoff.snooze(),
                    }
                }
            });
        });
    }
}
