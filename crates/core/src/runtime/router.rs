//! The routing layer: one authority for set→executor resolution.
//!
//! Every path that turns a serialization set into an executor — the
//! program thread delegating, a delegate context delegating recursively,
//! a future-returning delegation on either, a thief migrating batches, a
//! reclaim placing its fence token, the future-wait deadlock detector
//! resolving pins — goes through this [`Router`]. Its one placement rule
//! is the paper's static assignment, `SsId mod delegates`
//! ([`static_executor`]), which any thread computes from the id alone.
//! Pins exist only where something overrides that rule for an epoch — a
//! set the root program thread **retracted** ([`Router::pin_program`]),
//! a set a thief **stole** — and live in the **sharded pin map**
//! ([`ss_queue::shardmap::ShardMap`]) of the [`Domain`] the router is
//! handed: epoch-stamped set→executor pins, with per-shard locks for
//! writers and lock-free reads for the re-delegate-to-a-pinned-set case.
//! Pin maps are per domain because a shard's serial gate wipes the whole
//! shard on mismatch: two domains' interleaved epochs sharing one map
//! would erase each other's live pins.
//!
//! # The sharded-pin protocol
//!
//! What the old design guarded with one global routing lock decomposes
//! into three access modes:
//!
//! 1. **Lock-free resolution** ([`Router::route`]) — non-stealing
//!    transports only. Sound because without stealing a pin, once
//!    written, is *immutable for the rest of the epoch*: the only writes
//!    a reader can race are the initial publication (ordered by the
//!    shard map's release/acquire slot protocol) and the lazy epoch
//!    reset (ordered by the per-shard epoch stamp). A hit costs no lock
//!    and no read-modify-write; a miss falls back to the shard lock and
//!    pins the modulo there.
//! 2. **Shard-locked resolve-and-publish** ([`Router::route_publish`])
//!    — the stealing transport. The pin lookup/insert and the queue
//!    push happen in one critical section *of the set's shard*, so a
//!    concurrent steal (which must lock the same shard to rewrite the
//!    pin, rule 3) can never migrate a set between "this submit decided
//!    queue i" and "the operation landed in queue i". This is the old
//!    routing-lock argument verbatim, with the lock's scope shrunk from
//!    "all sets" to "sets sharing this shard".
//! 3. **Multi-shard migration** ([`Router::migrate_keys`]) — the thief.
//!    Locks the shards of every candidate key (in ascending shard
//!    order, so concurrent thieves cannot deadlock), re-validates that
//!    each key is still pinned to the victim, removes the batches and
//!    re-pins under those locks. Submits of an affected set serialize
//!    with the migration on the shard lock; submits of unrelated sets
//!    proceed in parallel — the point of sharding.
//!
//! The deadlock detector's read ([`Router::peek`]) is the fourth mode:
//! strictly non-blocking (lock-free probe, `try_lock` for the overflow
//! map, conservative `None` when contended), so it can never block — or
//! be blocked by — a shard writer. See `docs/ARCHITECTURE.md` for the
//! full proof sketch tying these modes to the epoch-pinning invariant.

use crate::serializer::SsId;

use super::assign::static_executor;
use super::domain::Domain;
use super::Executor;

/// How a [`Router`] resolved a set (returned by the `route*` calls).
pub(crate) struct Route {
    pub(crate) executor: Executor,
    /// True when this call created the epoch's pin for the set (the
    /// caller records it: `Stats::pins` plus a `TraceKind::Pin` event).
    pub(crate) fresh_pin: bool,
    /// True when the resolution came from the lock-free fast path
    /// (`Stats::pin_fast_hits`).
    pub(crate) fast_hit: bool,
}

impl Route {
    /// A resolution that read no pin and created none.
    fn computed(executor: Executor) -> Route {
        Route {
            executor,
            fresh_pin: false,
            fast_hit: false,
        }
    }
}

/// Executor ⇄ non-zero `u32` packing for the pin map.
#[inline]
fn encode(executor: Executor) -> u32 {
    match executor {
        Executor::Program => 1,
        Executor::Delegate(i) => {
            debug_assert!(i < (u32::MAX - 2) as usize);
            2 + i as u32
        }
    }
}

#[inline]
fn decode(code: u32) -> Executor {
    if code == 1 {
        Executor::Program
    } else {
        Executor::Delegate((code - 2) as usize)
    }
}

/// The routing layer. Shared (`Arc`) between the runtime's `Inner` and
/// the stealing-mode delegate threads; holds no reference back to the
/// runtime, so worker threads keep nothing alive.
pub(crate) struct Router {
    /// The modulus of static placement; 0 runs every set on the program
    /// thread.
    n_delegates: usize,
    /// True when pins are authoritative for every set (stealing mode: a
    /// steal must be able to override the modulo for the epoch).
    always_pin: bool,
}

impl Router {
    pub(crate) fn new(n_delegates: usize, always_pin: bool) -> Router {
        Router {
            n_delegates,
            always_pin,
        }
    }

    /// Resolves `key` in domain `d`'s current epoch — the non-publishing
    /// resolution used by the non-stealing transports (SPSC rings and
    /// injector lanes), where a pin can never change within an epoch and
    /// the queue push therefore does not need to be atomic with the
    /// lookup.
    ///
    /// Session domains recompute the modulo on every call (no pin, no
    /// `Pin` trace): nothing overrides it there. The root resolves through
    /// its pin map, because the root program thread may have **retracted**
    /// the set ([`pin_program`](Router::pin_program)) and only the pin
    /// says so. A first touch there pins the modulo under the set's shard
    /// lock — the lock a retraction holds while it pins the program
    /// executor — and reports no fresh pin, since the pin merely records
    /// what the modulo says anyway.
    pub(crate) fn route(&self, d: &Domain, key: SsId) -> Route {
        debug_assert!(!self.always_pin, "stealing submits must route_publish");
        let home = self.home(key);
        if self.n_delegates == 0 || d.id != 0 {
            // Sessions recompute the modulo; zero-delegate runtimes run
            // everything inline.
            return Route::computed(home);
        }
        let serial = d.serial();
        if let Some(code) = d.pins.get(key.0, serial) {
            return Route {
                executor: decode(code),
                fresh_pin: false,
                fast_hit: true,
            };
        }
        let mut shard = d.pins.lock_key(key.0);
        let (code, _) = shard.get_or_insert_with(key.0, serial, || encode(home));
        Route::computed(decode(code))
    }

    /// The executor static placement gives `key`: the modulo, or the
    /// program thread on a runtime with no delegates. The root program
    /// thread's first sight of a set on the ring lane reads it without a
    /// pin: a nested first touch pins the same modulo.
    pub(crate) fn home(&self, key: SsId) -> Executor {
        if self.n_delegates == 0 {
            Executor::Program
        } else {
            static_executor(key, self.n_delegates)
        }
    }

    /// Pins `key` to the program executor for the epoch, under the set's
    /// shard lock — a tail retraction's pin — unless a nested first touch
    /// pinned it to its delegate first: whoever comes first owns the set
    /// for the epoch. Returns whether the set is the program thread's.
    pub(crate) fn pin_program(&self, d: &Domain, key: SsId) -> bool {
        let mut shard = d.pins.lock_key(key.0);
        let (code, _) = shard.get_or_insert_with(key.0, d.serial(), || encode(Executor::Program));
        decode(code) == Executor::Program
    }

    /// Resolves `key` and runs `publish(i)` for its delegate `i` (the
    /// queue push plus its accounting) inside the set's shard critical
    /// section — the stealing transport's submit. Holding the shard lock
    /// across the push is what keeps a concurrent steal (which locks the
    /// same shard of the same domain's map) from migrating the set
    /// mid-publish; see the module docs, mode 2. Stealing always pins: a
    /// steal must be able to override the modulo for the epoch. Every pin
    /// on this transport names a delegate — it never retracts.
    pub(crate) fn route_publish(
        &self,
        d: &Domain,
        key: SsId,
        publish: impl FnOnce(usize),
    ) -> Route {
        let mut shard = d.pins.lock_key(key.0);
        let (code, fresh_pin) = shard.get_or_insert_with(key.0, d.serial(), || {
            encode(static_executor(key, self.n_delegates))
        });
        let executor = decode(code);
        let Executor::Delegate(i) = executor else {
            unreachable!("the stealing transport pins delegates only");
        };
        publish(i);
        Route {
            executor,
            fresh_pin,
            fast_hit: false,
        }
    }

    /// Resolves the *current* pin of `key` (falling back to `fallback`
    /// when the set has no pin this epoch) and runs `f` with the answer
    /// while still holding the set's shard lock — the reclaim path's
    /// fence placement, which must be atomic with respect to a steal
    /// migrating the set out from under the token.
    pub(crate) fn with_current_pin<R>(
        &self,
        d: &Domain,
        key: SsId,
        fallback: Executor,
        f: impl FnOnce(Executor) -> R,
    ) -> R {
        let shard = d.pins.lock_key(key.0);
        let executor = shard.get(key.0, d.serial()).map(decode).unwrap_or(fallback);
        f(executor)
    }

    /// Read-only, **non-blocking** pin resolution — the future-wait
    /// deadlock detector's view of the routing state. Never creates
    /// pins, never waits on a shard writer (lock-free probe, `try_lock`
    /// overflow fallback): `Some(None)` for an unpinned set, and `None`
    /// whenever the truth is not observable without blocking. The
    /// detector reads `None` as *unknown* and walks again, without
    /// parking.
    pub(crate) fn peek(&self, d: &Domain, key: SsId) -> Option<Option<Executor>> {
        if self.n_delegates == 0 {
            return Some(Some(Executor::Program));
        }
        if self.always_pin {
            let pin = d.pins.read_nonblocking(key.0, d.serial())?;
            return Some(pin.map(decode));
        }
        if d.id == 0 {
            // A root set may have been retracted (or first touched by a
            // nested submit): its pin wins over the modulo.
            if let Some(code) = d.pins.read_nonblocking(key.0, d.serial())? {
                return Some(Some(decode(code)));
            }
        }
        Some(Some(static_executor(key, self.n_delegates)))
    }

    /// Migrates `candidates` (keys of domain `d`) from executor `from` to
    /// executor `to`, with `transfer` performing the actual queue surgery
    /// (remove the batches from the victim, land them on the thief) under
    /// the candidates' shard locks. `transfer` receives the candidates
    /// that are still pinned to `from` (another thief may have won a key
    /// in the window before the locks were taken) and returns the keys it
    /// actually removed — only those are re-pinned. Returns the migrated
    /// keys.
    ///
    /// `repin: false` moves the batches but leaves the victim's pin in
    /// place — only the `cross_session_pin_leak` chaos knob passes it, to
    /// model a thief that republishes the pin in the wrong domain's
    /// namespace (see [`leak_pin`](Router::leak_pin)). The tenant's
    /// auditor must then see the set execute on two executors.
    pub(crate) fn migrate_keys(
        &self,
        d: &Domain,
        candidates: &[u64],
        from: Executor,
        to: Executor,
        repin: bool,
        transfer: impl FnOnce(&[u64]) -> Vec<u64>,
    ) -> Vec<u64> {
        if candidates.is_empty() {
            return Vec::new();
        }
        let serial = d.serial();
        let from_code = encode(from);
        let mut shards = d.pins.lock_keys(candidates);
        let valid: Vec<u64> = candidates
            .iter()
            .copied()
            .filter(|&key| shards.get(key, serial) == Some(from_code))
            .collect();
        if valid.is_empty() {
            return Vec::new();
        }
        let taken = transfer(&valid);
        if repin {
            let to_code = encode(to);
            for &key in &taken {
                shards.set(key, serial, to_code);
            }
        }
        taken
    }

    /// Chaos hook for `cross_session_pin_leak`: publishes a stolen
    /// session key's new pin into the **root** map (the wrong namespace)
    /// instead of the owning session's, stamped with the root serial so
    /// it even looks healthy there. The owning session's routing never
    /// reads the root map, so its stale victim pin keeps routing later
    /// same-set submits to the victim while the stolen batch runs on the
    /// thief — the two-executor overlap the per-session auditor exists to
    /// catch.
    #[cfg(feature = "chaos")]
    pub(crate) fn leak_pin(&self, root: &Domain, key: u64, to: Executor) {
        let mut shard = root.pins.lock_key(key);
        shard.set(key, root.serial(), encode(to));
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("n_delegates", &self.n_delegates)
            .field("always_pin", &self.always_pin)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    use super::*;

    fn router(n: usize) -> Router {
        Router::new(n, false)
    }

    /// A root-like domain whose current epoch serial is `serial`.
    fn epoch(serial: u64) -> Domain {
        let e = Domain::new(0, 4, None, Default::default(), 1);
        e.epoch_serial.store(serial, Ordering::Relaxed);
        e
    }

    #[test]
    fn root_routes_pin_the_modulo_for_the_epoch() {
        let r = router(2);
        let e = epoch(1);
        let first = r.route(&e, SsId(7));
        assert_eq!(first.executor, Executor::Delegate(1));
        assert!(!first.fresh_pin && !first.fast_hit);
        let again = r.route(&e, SsId(7));
        assert_eq!(again.executor, Executor::Delegate(1));
        assert!(again.fast_hit, "second resolution must be lock-free");
        // A new epoch forgets the pin: the first touch locks again.
        e.epoch_serial.store(2, Ordering::Relaxed);
        assert!(!r.route(&e, SsId(7)).fast_hit);
    }

    #[test]
    fn sessions_compute_the_modulo_without_pins() {
        let r = router(2);
        let session = Domain::new(1, 4, None, Default::default(), 1);
        session.epoch_serial.store(1, Ordering::Relaxed);
        for ss in 0..10u64 {
            for _ in 0..2 {
                let route = r.route(&session, SsId(ss));
                assert_eq!(route.executor, Executor::Delegate(ss as usize % 2));
                assert!(!route.fresh_pin && !route.fast_hit);
            }
        }
    }

    #[test]
    fn zero_delegates_run_everything_on_the_program_thread() {
        let r = router(0);
        let e = epoch(1);
        assert_eq!(r.route(&e, SsId(3)).executor, Executor::Program);
        assert_eq!(r.home(SsId(3)), Executor::Program);
        assert_eq!(r.peek(&e, SsId(3)), Some(Some(Executor::Program)));
    }

    #[test]
    fn a_retraction_and_a_nested_first_touch_serialize_on_the_pin() {
        let r = router(2);
        let e = epoch(1);
        // A first sight reads the modulo and leaves no pin.
        assert_eq!(r.home(SsId(3)), Executor::Delegate(1));
        assert_eq!(r.peek(&e, SsId(3)), Some(Some(Executor::Delegate(1))));
        // A retraction pins set 3 to the program thread; a nested submit
        // resolves through the pin, not the modulo.
        assert!(r.pin_program(&e, SsId(3)));
        assert_eq!(r.route(&e, SsId(3)).executor, Executor::Program);
        assert_eq!(r.peek(&e, SsId(3)), Some(Some(Executor::Program)));
        assert!(r.pin_program(&e, SsId(3)), "the pin is the program's");
        // A nested first touch comes first: the set stays on its delegate.
        let nested = r.route(&e, SsId(4));
        assert_eq!(
            (nested.executor, nested.fresh_pin),
            (Executor::Delegate(0), false)
        );
        assert!(!r.pin_program(&e, SsId(4)));
        assert_eq!(r.route(&e, SsId(4)).executor, Executor::Delegate(0));
    }

    #[test]
    fn route_publish_runs_the_publish_under_the_pin() {
        let r = Router::new(2, true);
        let e = epoch(1);
        let mut published = None;
        let route = r.route_publish(&e, SsId(3), |i| published = Some(i));
        assert_eq!(published, Some(1));
        assert_eq!(route.executor, Executor::Delegate(1));
        assert!(route.fresh_pin);
        // Second publish reuses the pin.
        let mut again = None;
        let route2 = r.route_publish(&e, SsId(3), |i| again = Some(i));
        assert!(!route2.fresh_pin);
        assert_eq!(again, Some(1));
        // Stealing pins are authoritative: an unpinned set peeks as such.
        assert_eq!(r.peek(&e, SsId(4)), Some(None));
    }

    #[test]
    fn migrate_rewrites_only_taken_keys_still_pinned_to_victim() {
        let r = Router::new(3, true);
        let e = epoch(1);
        // Sets 10 and 13 pin to delegate 1, set 11 to delegate 2.
        for ss in [10u64, 11, 13] {
            r.route_publish(&e, SsId(ss), |_| {});
        }
        let (victim, thief) = (Executor::Delegate(1), Executor::Delegate(2));
        // Ask to migrate all three candidates; transfer only takes the
        // first valid one.
        let taken = r.migrate_keys(&e, &[10, 11, 13], victim, thief, true, |valid| {
            assert_eq!(valid, &[10, 13]);
            vec![valid[0]]
        });
        assert_eq!(taken, vec![10]);
        assert_eq!(r.peek(&e, SsId(10)), Some(Some(thief)));
        // Untaken keys keep their pins.
        assert_eq!(r.peek(&e, SsId(13)), Some(Some(victim)));
        assert_eq!(r.peek(&e, SsId(11)), Some(Some(thief)));
    }

    #[test]
    fn peek_never_blocks_while_a_thread_holds_the_shard_lock() {
        // A thread holding a set's shard lock — a first touch, a
        // retraction's pin, a steal's migration — must never make a concurrent peek wait: it
        // returns a conservative answer instead. This is the deadlock
        // detector's liveness contract.
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;

        for always_pin in [false, true] {
            let r = Router::new(2, always_pin);
            let e = epoch(1);
            let held = Barrier::new(2);
            let release = AtomicBool::new(false);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _shard = e.pins.lock_key(1);
                    held.wait();
                    while !release.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                });
                held.wait();
                // Set 1's shard is held. Peeks — same set, different set,
                // any shard — must all return promptly.
                let peeker = scope.spawn(|| {
                    for ss in 0..200u64 {
                        let _ = r.peek(&e, SsId(ss));
                    }
                });
                peeker.join().expect("peek blocked behind a shard writer");
                release.store(true, Ordering::Release);
            });
        }
    }
}
