//! The aggregation/isolation epoch state machine (Table 1, §2).
//!
//! Execution alternates between *aggregation* epochs (ordinary sequential
//! execution on the program thread) and *isolation* epochs (data is
//! partitioned, potentially-independent operations are delegated). All
//! epoch control is restricted to the program thread; `end_isolation`
//! synchronizes with every delegate queue, which is what makes it safe to
//! clear the epoch's pins and touch writable objects again.
//!
//! The state machine is written once over a [`Domain`](super::Domain):
//! the root runtime's handle drives domain 0, a session's handle its own.
//! What differs between them is data — the barrier (`Runtime::barrier`)
//! broadcasts queue tokens only for the domain that owns the rings — plus
//! the root-owned resources touched under `is_root()`.

use std::sync::atomic::Ordering;
use std::time::Instant;

use crate::error::{SsError, SsResult};
use crate::trace::TraceKind;

use super::Runtime;

impl Runtime {
    /// Begins an isolation epoch (Table 1 `begin_isolation`): ends a
    /// [`sleep`](Runtime::sleep) and enables delegation.
    pub fn begin_isolation(&self) -> SsResult<()> {
        self.require_program_thread()?;
        self.check_live()?;
        let d = self.domain();
        {
            // SAFETY: the domain's program thread (checked above); scoped.
            let epoch = unsafe { d.epoch.get() };
            if !epoch.active.is_empty() {
                return Err(SsError::WrongContext);
            }
            if epoch.in_isolation {
                return Err(SsError::AlreadyInIsolation);
            }
        }
        if self.is_poisoned() {
            return Err(self.inner.core.poison_error());
        }
        // A delegate that slept past the ladder is woken by the first push
        // to its queue, like any parked delegate; nothing to notify here.
        self.inner.force_sleep.store(false, Ordering::Release);
        // SAFETY: program thread; scoped.
        let epoch = unsafe { d.epoch.get() };
        epoch.in_isolation = true;
        epoch.started = Some(Instant::now());
        // Publish the serial (wrappers, nested delegation, thieves and
        // audit stamps read it) before delegation becomes possible. Only
        // this thread writes it, so the read half needs no ordering.
        let serial = d.epoch_serial.load(Ordering::Relaxed) + 1;
        d.epoch_serial.store(serial, Ordering::Release);
        // The domain is quiescent here (its previous barrier drained every
        // operation), so the auditor's sampling decision is published
        // before any event of this epoch can be recorded.
        self.inner.core.audit_begin_epoch(d, serial);
        if self.is_root() {
            self.inner.epoch_gen.fetch_add(1, Ordering::Release); // → odd
        }
        self.trace_record(TraceKind::BeginIsolation, None, None, None);
        Ok(())
    }

    /// Ends the isolation epoch (Table 1 `end_isolation`): synchronizes the
    /// program context with the delegate contexts — every operation of
    /// *this domain's* epoch, including transitively spawned ones — then
    /// starts a new aggregation epoch. One tenant's barrier never waits on
    /// another tenant's queued work.
    pub fn end_isolation(&self) -> SsResult<()> {
        self.require_program_thread()?;
        self.check_live()?;
        let d = self.domain();
        {
            // SAFETY: program thread; scoped.
            let epoch = unsafe { d.epoch.get() };
            if !epoch.active.is_empty() {
                return Err(SsError::WrongContext);
            }
            if !epoch.in_isolation {
                return Err(SsError::NotIsolating);
            }
        }
        // The barrier also settles every `SsFuture` delegated this epoch:
        // each operation's completion slot is settled before its queue
        // token/`in_flight` count settles, so token-drain + counter-drain
        // transitively implies future-resolution. A future carried across
        // this boundary is a plain ready value.
        self.barrier(d)?;
        // The drain is the domain's result-slab quiescence point: every
        // operation of the epoch has run, so every sender issued in it
        // has sent or closed, and no executor issues for this domain
        // until its next epoch's pushes. Slots of futures resolved or
        // dropped are reused wholesale; chunks holding a future carried
        // across this boundary are set aside until it is released.
        // SAFETY: the quiescence just argued; this is the domain's program
        // thread, lane 0's issuer; a probe lives only inside its future's
        // wait turn, so none outlives its receiver.
        unsafe { d.results.reclaim() };
        if self.is_root() {
            self.reset_steal_epoch();
        }
        // The barrier waited for all transitively spawned work (`in_flight`
        // reached zero with every parent complete), so no nested producer
        // survives into the next epoch: reset the flag that makes reclaims
        // conservative.
        d.nested_in_epoch.store(false, Ordering::Release);
        // After the barrier every execution record of the epoch has been
        // delivered (audit records land before the drain counters/tokens
        // they are proven by), so the conservation check is exact.
        let stats = self.program_stats();
        let audit_failure = self.inner.core.audit_end_epoch(d, stats);
        {
            // SAFETY: program thread; scoped.
            let epoch = unsafe { d.epoch.get() };
            epoch.in_isolation = false;
            if let Some(t0) = epoch.started.take() {
                stats.add_nanos(|c| &c.isolation_nanos, t0.elapsed());
            }
        }
        d.epochs.fetch_add(1, Ordering::Release);
        stats.bump(|c| &c.isolation_epochs);
        if self.is_root() {
            self.inner.epoch_gen.fetch_add(1, Ordering::Release); // → even
            self.flush_side_trace();
        }
        self.trace_record(TraceKind::EndIsolation, None, None, None);
        if self.is_poisoned() {
            return Err(self.inner.core.poison_error());
        }
        if let Some(report) = audit_failure {
            return Err(SsError::SerializabilityViolation(report));
        }
        Ok(())
    }

    /// Stealing transport, root epoch boundary: all *root* queues just
    /// drained, so started-set records can be forgotten and the next
    /// epoch re-routes (and re-steals) freely. Pins need no reset — each
    /// domain's sharded map is epoch-stamped and expires lazily, shard by
    /// shard, at the next epoch's writes.
    ///
    /// Skipped while any session is live: the root barrier proves nothing
    /// about tenants' queued work, and forgetting *their* started keys
    /// would let a thief migrate a set whose earlier ops are still queued
    /// on the victim. Keeping the records only blocks steals of
    /// previously-started keys — conservative, never wrong.
    fn reset_steal_epoch(&self) {
        let super::Channels::Steal(shared) = &self.inner.channels else {
            return;
        };
        let sessions = self.inner.core.stats.sessions_active();
        if sessions.load(Ordering::Acquire) == 0 {
            shared.reset_epoch();
        }
    }

    /// Runs `f` inside an isolation epoch, synchronizing with all delegates
    /// before returning (even for work still in flight when `f` returns).
    ///
    /// ```
    /// # use ss_core::{Runtime, Writable};
    /// let rt = Runtime::builder().delegate_threads(1).build().unwrap();
    /// let w: Writable<u64> = Writable::new(&rt, 0);
    /// rt.isolated(|| {
    ///     for _ in 0..10 { w.delegate(|n| *n += 1).unwrap(); }
    /// }).unwrap();
    /// assert_eq!(w.call(|n| *n).unwrap(), 10);
    /// ```
    pub fn isolated<R>(&self, f: impl FnOnce() -> R) -> SsResult<R> {
        self.begin_isolation()?;
        let out = f();
        self.end_isolation()?;
        Ok(out)
    }

    /// True while an isolation epoch is open (program thread only; other
    /// threads always observe `false`).
    pub fn in_isolation(&self) -> bool {
        // SAFETY: program thread (checked first).
        self.is_program_thread() && unsafe { self.domain().epoch.get() }.in_isolation
    }

    /// Cross-thread epoch generation counter: odd while an isolation epoch
    /// is open, even during aggregation. Monotonic; stable for the duration
    /// of any delegated operation.
    pub fn epoch_generation(&self) -> u64 {
        self.inner.epoch_gen.load(Ordering::Acquire)
    }

    /// `(in_isolation, epoch serial, executing_inline)` — program thread
    /// only; used by the wrappers.
    pub(crate) fn epoch_flags(&self) -> (bool, u64, bool) {
        debug_assert!(self.is_program_thread());
        let d = self.domain();
        // SAFETY: program thread (debug-asserted; all callers check).
        let e = unsafe { d.epoch.get() };
        (e.in_isolation, d.serial(), !e.active.is_empty())
    }
}
