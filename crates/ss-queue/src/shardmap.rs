//! Sharded, epoch-stamped pin map.
//!
//! The serialization-sets runtime needs one piece of shared routing
//! state: the set→executor *pin table* that keeps every operation of a
//! serialization set on a single executor for the duration of an
//! isolation epoch. Guarding that table with one mutex puts a global
//! critical section on every delegation — the contention bottleneck the
//! runtime's recursive-delegation hot path runs straight into once
//! several delegate threads route concurrently. [`ShardMap`] is the
//! replacement substrate:
//!
//! * **Fixed power-of-two shards**, each with its own short spinlock.
//!   Writers (first-touch inserts, steal-time rewrites, epoch refreshes)
//!   lock only the shard that owns the key, so unrelated sets never
//!   serialize on each other.
//! * **Lock-free reads of already-inserted entries.** Each shard carries
//!   a fixed array of *slots* — `(key, value)` pairs published with
//!   release/acquire atomics and tagged with the low 32 bits of the epoch
//!   serial — that readers probe without any lock. The common
//!   re-delegate-to-a-pinned-set case costs a shard-serial load and a
//!   short probe: zero locks, zero read-modify-write operations.
//! * **Per-shard epoch stamps.** Entries belong to the epoch serial they
//!   were inserted under; a reader presenting a different serial sees an
//!   empty map. The actual clearing is lazy — the first *locked* write of
//!   a new epoch resets its own shard — so an epoch boundary costs
//!   nothing for shards that the next epoch never touches (no global
//!   clear walks the map).
//!
//! Values are `u32` and must be non-zero (zero is the vacant-slot
//! marker); the runtime packs its executor encoding into them. The key
//! `u64::MAX` is reserved as the empty-slot sentinel: it is still stored
//! correctly (in the locked overflow map) but never takes the lock-free
//! fast path.
//!
//! # Consistency contract
//!
//! The map by itself promises only per-key atomicity: a read observes
//! some value that was current at some instant of the read. Callers that
//! need a pin to stay fixed *across* a compound action (resolve a pin,
//! then publish into the queue it names — atomically with respect to a
//! concurrent steal rewriting that pin) must hold the shard lock for the
//! whole action via [`ShardMap::lock_key`] / [`ShardMap::lock_keys`];
//! the lock-free [`ShardMap::get`] is for callers to whom a racing
//! rewrite is either impossible (the runtime's non-stealing transports
//! never rewrite a pin within an epoch) or harmless (advisory reads).
//!
//! ```
//! use ss_queue::shardmap::ShardMap;
//!
//! let pins = ShardMap::new(8);
//! // First touch of epoch 1: insert under the shard lock.
//! let (v, fresh) = pins.lock_key(7).get_or_insert_with(7, 1, || 42);
//! assert!(fresh && v == 42);
//! // Re-delegation hot path: lock-free.
//! assert_eq!(pins.get(7, 1), Some(42));
//! // A new epoch sees an empty map (lazily cleared on next write).
//! assert_eq!(pins.get(7, 2), None);
//! ```

use core::cell::UnsafeCell;
use core::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::collections::HashMap;

use crate::Backoff;

/// Fast-array capacity per shard. Keys beyond this (per shard, per
/// epoch) spill into the locked overflow map — still correct, no longer
/// lock-free to read.
const SLOTS: usize = 64;

/// Empty-slot key sentinel. A real key equal to this is routed to the
/// overflow map instead of the fast array.
const EMPTY_KEY: u64 = u64::MAX;

/// One lock-free-readable slot. Publication order is value first, then
/// key (release), so a reader that observes the key (acquire) observes
/// the value it was published with; the value's embedded serial tag
/// guards the remaining epoch-rollover races.
struct Slot {
    key: AtomicU64,
    val: AtomicU64,
}

/// Shard state reachable only while the shard spinlock is held.
struct ShardState {
    /// Keys that did not fit the fast array this epoch (or the reserved
    /// sentinel key), mapped to their packed values.
    overflow: HashMap<u64, u64>,
}

struct Shard {
    locked: AtomicBool,
    /// Epoch serial the shard's contents belong to. Published with
    /// release *after* the slots are cleared for that epoch, so a reader
    /// that observes its own serial here observes a fully reset array.
    serial: AtomicU64,
    slots: Box<[Slot]>,
    state: UnsafeCell<ShardState>,
}

// SAFETY: `state` is only accessed while `locked` is held (acquire/release
// edges order all accesses); `slots` and `serial` are atomics.
unsafe impl Send for Shard {}
unsafe impl Sync for Shard {}

impl Shard {
    fn new() -> Self {
        Shard {
            locked: AtomicBool::new(false),
            serial: AtomicU64::new(0),
            slots: (0..SLOTS)
                .map(|_| Slot {
                    key: AtomicU64::new(EMPTY_KEY),
                    val: AtomicU64::new(0),
                })
                .collect(),
            state: UnsafeCell::new(ShardState {
                overflow: HashMap::new(),
            }),
        }
    }

    fn lock(&self) {
        let backoff = Backoff::new();
        while self
            .locked
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            backoff.snooze();
        }
    }

    fn try_lock(&self) -> bool {
        self.locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    fn unlock(&self) {
        self.locked.store(false, Ordering::Release);
    }
}

/// Packs a value with the low 32 bits of its epoch serial. Zero is
/// impossible for a non-zero value, so it doubles as the vacant marker.
#[inline]
fn pack(serial: u64, value: u32) -> u64 {
    ((serial as u32 as u64) << 32) | value as u64
}

/// Unpacks `packed` if it is occupied and belongs to `serial`.
#[inline]
fn unpack(packed: u64, serial: u64) -> Option<u32> {
    let value = packed as u32;
    if value != 0 && (packed >> 32) as u32 == serial as u32 {
        Some(value)
    } else {
        None
    }
}

/// Sharded epoch-stamped `u64 → u32` map with lock-free reads. See the
/// module documentation for the design and the consistency contract.
pub struct ShardMap {
    shards: Box<[Shard]>,
    shift: u32,
}

impl std::fmt::Debug for ShardMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardMap")
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// Fibonacci mixing — SsIds are frequently small sequential integers,
/// which would otherwise collapse onto a handful of shards.
#[inline]
fn mix(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl ShardMap {
    /// Creates a map with `shards` shards (rounded up to a power of two,
    /// minimum 1). One shard degenerates to a single global lock.
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        ShardMap {
            shards: (0..n).map(|_| Shard::new()).collect(),
            shift: 64 - n.trailing_zeros(),
        }
    }

    #[inline]
    fn shard_index(&self, key: u64) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        (mix(key) >> self.shift) as usize
    }

    #[inline]
    fn slot_start(key: u64) -> usize {
        (mix(key) as usize >> 16) & (SLOTS - 1)
    }

    /// Lock-free read of `key`'s value for epoch `serial`.
    ///
    /// Returns `None` when the key is absent for that serial — or when
    /// the answer is not lock-freely observable (the entry spilled to the
    /// overflow map, the shard has not yet rolled to `serial`, or the key
    /// is the reserved sentinel). Callers for whom `None` must mean
    /// "definitely absent" should use a locked handle instead.
    #[inline]
    pub fn get(&self, key: u64, serial: u64) -> Option<u32> {
        if key == EMPTY_KEY {
            return None;
        }
        let shard = &self.shards[self.shard_index(key)];
        // The serial gate: matching it (acquire) also makes the epoch's
        // slot reset visible, so any key observed below was published in
        // this epoch.
        if shard.serial.load(Ordering::Acquire) != serial {
            return None;
        }
        let start = Self::slot_start(key);
        for i in 0..SLOTS {
            let slot = &shard.slots[(start + i) & (SLOTS - 1)];
            let k = slot.key.load(Ordering::Acquire);
            if k == key {
                return unpack(slot.val.load(Ordering::Acquire), serial);
            }
            if k == EMPTY_KEY {
                return None; // end of this key's probe chain
            }
        }
        None // fast array full along the chain: value may be in overflow
    }

    /// Non-blocking read that also consults the overflow map when the
    /// shard lock is free: `Some(value)` when the lookup completed
    /// (`Some(None)` for an absent key), `None` when a writer held the
    /// shard and the answer is unknown. This is the read the runtime's
    /// deadlock detector uses — it must never be able to block (or be
    /// blocked by) a shard writer.
    pub fn read_nonblocking(&self, key: u64, serial: u64) -> Option<Option<u32>> {
        if let Some(v) = self.get(key, serial) {
            return Some(Some(v));
        }
        let shard = &self.shards[self.shard_index(key)];
        if !shard.try_lock() {
            return None;
        }
        let out = if shard.serial.load(Ordering::Relaxed) == serial {
            // SAFETY: shard lock held.
            let state = unsafe { &*shard.state.get() };
            state.overflow.get(&key).and_then(|&p| unpack(p, serial))
        } else {
            None
        };
        shard.unlock();
        Some(out)
    }

    /// Locks the shard owning `key` and returns a write handle to it.
    pub fn lock_key(&self, key: u64) -> ShardHandle<'_> {
        let idx = self.shard_index(key);
        self.shards[idx].lock();
        ShardHandle {
            map: self,
            shard: idx,
        }
    }

    /// Locks every shard covering `keys` (deduplicated, in ascending
    /// shard order — the canonical order that makes concurrent multi-key
    /// lockers deadlock-free) and returns a write handle valid for all
    /// of them.
    pub fn lock_keys(&self, keys: &[u64]) -> MultiHandle<'_> {
        let mut idxs: Vec<usize> = keys.iter().map(|&k| self.shard_index(k)).collect();
        idxs.sort_unstable();
        idxs.dedup();
        for &i in &idxs {
            self.shards[i].lock();
        }
        MultiHandle { map: self, idxs }
    }
}

/// Shared implementation of the locked per-shard operations. The caller
/// guarantees the shard lock is held.
impl ShardMap {
    /// Rolls the shard forward to `serial` if needed (clearing the fast
    /// array and overflow), with the serial published only after the
    /// clears. Lock must be held.
    fn refresh_locked(&self, shard: usize, serial: u64) {
        let s = &self.shards[shard];
        if s.serial.load(Ordering::Relaxed) == serial {
            return;
        }
        for slot in s.slots.iter() {
            slot.val.store(0, Ordering::Relaxed);
            slot.key.store(EMPTY_KEY, Ordering::Relaxed);
        }
        // SAFETY: shard lock held by the handle that called us.
        unsafe { &mut *s.state.get() }.overflow.clear();
        s.serial.store(serial, Ordering::Release);
    }

    /// Locked read (fast array + overflow). Lock must be held.
    fn get_locked(&self, shard: usize, key: u64, serial: u64) -> Option<u32> {
        let s = &self.shards[shard];
        if s.serial.load(Ordering::Relaxed) != serial {
            return None;
        }
        if key != EMPTY_KEY {
            let start = Self::slot_start(key);
            for i in 0..SLOTS {
                let slot = &s.slots[(start + i) & (SLOTS - 1)];
                let k = slot.key.load(Ordering::Relaxed);
                if k == key {
                    return unpack(slot.val.load(Ordering::Relaxed), serial);
                }
                if k == EMPTY_KEY {
                    break;
                }
            }
        }
        // SAFETY: shard lock held.
        let state = unsafe { &*s.state.get() };
        state.overflow.get(&key).and_then(|&p| unpack(p, serial))
    }

    /// Locked insert-or-overwrite. Lock must be held; `value` non-zero.
    fn set_locked(&self, shard: usize, key: u64, serial: u64, value: u32) {
        debug_assert_ne!(value, 0, "zero is the vacant marker");
        self.refresh_locked(shard, serial);
        let s = &self.shards[shard];
        let packed = pack(serial, value);
        if key != EMPTY_KEY {
            let start = Self::slot_start(key);
            for i in 0..SLOTS {
                let slot = &s.slots[(start + i) & (SLOTS - 1)];
                let k = slot.key.load(Ordering::Relaxed);
                if k == key {
                    // Rewrite (steal re-pin): readers see old or new,
                    // both tagged with this epoch.
                    slot.val.store(packed, Ordering::Release);
                    return;
                }
                if k == EMPTY_KEY {
                    // Publish value before key: a reader that sees the
                    // key sees the value.
                    slot.val.store(packed, Ordering::Release);
                    slot.key.store(key, Ordering::Release);
                    return;
                }
            }
        }
        // SAFETY: shard lock held.
        unsafe { &mut *s.state.get() }.overflow.insert(key, packed);
    }
}

/// Write handle to a single locked shard (see [`ShardMap::lock_key`]).
/// Unlocks on drop.
pub struct ShardHandle<'a> {
    map: &'a ShardMap,
    shard: usize,
}

impl ShardHandle<'_> {
    /// Locked read of `key` for `serial` (fast array and overflow). The
    /// key must belong to the locked shard.
    pub fn get(&self, key: u64, serial: u64) -> Option<u32> {
        debug_assert_eq!(self.map.shard_index(key), self.shard);
        self.map.get_locked(self.shard, key, serial)
    }

    /// Locked insert-or-overwrite of `key` for `serial` (rolling the
    /// shard's epoch forward if needed). `value` must be non-zero.
    pub fn set(&mut self, key: u64, serial: u64, value: u32) {
        debug_assert_eq!(self.map.shard_index(key), self.shard);
        self.map.set_locked(self.shard, key, serial, value);
    }

    /// Returns the existing value for `key`, or inserts the one `make`
    /// computes (under the shard lock). The boolean is true when this
    /// call inserted.
    pub fn get_or_insert_with(
        &mut self,
        key: u64,
        serial: u64,
        make: impl FnOnce() -> u32,
    ) -> (u32, bool) {
        if let Some(v) = self.get(key, serial) {
            return (v, false);
        }
        let v = make();
        self.set(key, serial, v);
        (v, true)
    }
}

impl Drop for ShardHandle<'_> {
    fn drop(&mut self) {
        self.map.shards[self.shard].unlock();
    }
}

/// Write handle to a set of locked shards (see [`ShardMap::lock_keys`]).
/// Unlocks all of them on drop.
pub struct MultiHandle<'a> {
    map: &'a ShardMap,
    idxs: Vec<usize>,
}

impl MultiHandle<'_> {
    #[inline]
    fn owned(&self, key: u64) -> usize {
        let idx = self.map.shard_index(key);
        debug_assert!(
            self.idxs.contains(&idx),
            "key {key} is not covered by this multi-shard handle"
        );
        idx
    }

    /// Locked read of `key` (which must be covered by the handle).
    pub fn get(&self, key: u64, serial: u64) -> Option<u32> {
        self.map.get_locked(self.owned(key), key, serial)
    }

    /// Locked insert-or-overwrite of `key` (which must be covered).
    pub fn set(&mut self, key: u64, serial: u64, value: u32) {
        self.map.set_locked(self.owned(key), key, serial, value);
    }
}

impl Drop for MultiHandle<'_> {
    fn drop(&mut self) {
        for &i in &self.idxs {
            self.map.shards[i].unlock();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn insert_then_lock_free_read() {
        let m = ShardMap::new(8);
        for key in 0..200u64 {
            let (v, fresh) = m
                .lock_key(key)
                .get_or_insert_with(key, 1, || (key + 1) as u32);
            assert!(fresh);
            assert_eq!(v, (key + 1) as u32);
        }
        for key in 0..200u64 {
            assert_eq!(m.get(key, 1), Some((key + 1) as u32), "key {key}");
        }
        assert_eq!(m.get(777, 1), None);
    }

    #[test]
    fn epoch_serial_isolates_entries() {
        let m = ShardMap::new(4);
        m.lock_key(5).set(5, 1, 10);
        assert_eq!(m.get(5, 1), Some(10));
        // A different serial sees nothing, lock-free and locked alike.
        assert_eq!(m.get(5, 2), None);
        assert_eq!(m.lock_key(5).get(5, 2), None);
        // First write of epoch 2 lazily resets the shard.
        m.lock_key(5).set(5, 2, 20);
        assert_eq!(m.get(5, 2), Some(20));
        assert_eq!(m.get(5, 1), None);
    }

    #[test]
    fn rewrite_is_visible_to_readers() {
        let m = ShardMap::new(4);
        m.lock_key(9).set(9, 3, 1);
        m.lock_key(9).set(9, 3, 2);
        assert_eq!(m.get(9, 3), Some(2));
    }

    #[test]
    fn overflow_beyond_fast_array_stays_correct() {
        let m = ShardMap::new(1); // force every key into one shard
        let n = (SLOTS * 3) as u64;
        for key in 0..n {
            m.lock_key(key).set(key, 1, (key + 1) as u32);
        }
        for key in 0..n {
            // Lock-free read may miss (overflow), but a locked read and
            // the non-blocking read (uncontended here) must find it.
            assert_eq!(m.lock_key(key).get(key, 1), Some((key + 1) as u32));
            assert_eq!(m.read_nonblocking(key, 1), Some(Some((key + 1) as u32)));
        }
    }

    #[test]
    fn sentinel_key_is_stored_via_overflow() {
        let m = ShardMap::new(4);
        m.lock_key(EMPTY_KEY).set(EMPTY_KEY, 1, 7);
        assert_eq!(m.get(EMPTY_KEY, 1), None); // never lock-free
        assert_eq!(m.lock_key(EMPTY_KEY).get(EMPTY_KEY, 1), Some(7));
        assert_eq!(m.read_nonblocking(EMPTY_KEY, 1), Some(Some(7)));
    }

    #[test]
    fn zero_value_rejected_in_debug() {
        // Packing uses 0 as the vacant marker; the debug_assert guards it.
        let m = ShardMap::new(2);
        m.lock_key(1).set(1, 1, u32::MAX);
        assert_eq!(m.get(1, 1), Some(u32::MAX));
    }

    #[test]
    fn multi_handle_covers_keys_across_shards() {
        let m = ShardMap::new(8);
        let keys: Vec<u64> = (0..32).collect();
        {
            let mut h = m.lock_keys(&keys);
            for &k in &keys {
                h.set(k, 4, (k + 100) as u32);
            }
            for &k in &keys {
                assert_eq!(h.get(k, 4), Some((k + 100) as u32));
            }
        }
        for &k in &keys {
            assert_eq!(m.get(k, 4), Some((k + 100) as u32));
        }
    }

    #[test]
    fn read_nonblocking_never_waits_on_a_held_shard() {
        // The deadlock-detector contract: a held shard write lock must
        // not block the read — it answers conservatively instead.
        let m = Arc::new(ShardMap::new(1)); // single shard: guaranteed conflict
        m.lock_key(1).set(1, 1, 5);
        let h = m.lock_key(2); // hold the (only) shard's lock
        let m2 = Arc::clone(&m);
        let t = std::thread::spawn(move || {
            // Fast-array hit still works lock-free under a held lock...
            assert_eq!(m2.get(1, 1), Some(5));
            // ...and the overflow-consulting read returns "unknown"
            // instead of blocking.
            assert_eq!(m2.read_nonblocking(999, 1), None);
        });
        t.join().expect("reader must not block on the shard writer");
        drop(h);
    }

    #[test]
    fn concurrent_inserts_and_reads_converge() {
        let m = Arc::new(ShardMap::new(8));
        let threads = 4;
        let per = 500u64;
        let fast_hits = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..threads {
                let (m, fast_hits) = (Arc::clone(&m), &fast_hits);
                s.spawn(move || {
                    for i in 0..per {
                        let key = t * per + i;
                        let want = (key % 97 + 1) as u32;
                        let (v, _) = m.lock_key(key).get_or_insert_with(key, 1, || want);
                        assert_eq!(v, want);
                        // Immediate read-back through every read path.
                        assert_eq!(m.lock_key(key).get(key, 1), Some(want));
                        // Lock-free: a hit or (spilled to overflow) a miss,
                        // never a wrong value.
                        if let Some(got) = m.get(key, 1) {
                            assert_eq!(got, want);
                            fast_hits.fetch_add(1, Ordering::Relaxed);
                        }
                        // Non-blocking: "unknown" is allowed only while
                        // another thread holds the shard, so a retry must
                        // hit.
                        let deadline =
                            std::time::Instant::now() + std::time::Duration::from_secs(10);
                        let got = loop {
                            match m.read_nonblocking(key, 1) {
                                Some(got) => break got,
                                None if std::time::Instant::now() < deadline => {
                                    std::thread::yield_now()
                                }
                                None => panic!("key {key}: non-blocking read never hit"),
                            }
                        };
                        assert_eq!(got, Some(want));
                    }
                });
            }
        });
        // The first `SLOTS` keys of every shard take the fast array.
        assert!(fast_hits.load(Ordering::Relaxed) >= SLOTS as u64);
        for key in 0..threads * per {
            assert_eq!(
                m.lock_key(key).get(key, 1),
                Some((key % 97 + 1) as u32),
                "key {key}"
            );
        }
    }
}
