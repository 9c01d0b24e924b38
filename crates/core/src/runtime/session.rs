//! Sessions: per-tenant handles onto one shared delegate pool.
//!
//! A [`Session`] is a [`Runtime`] handle bound to its own
//! [`Domain`](super::domain::Domain) — epoch serial, isolation flag, pin
//! namespace, drain counter, trace clock — while every session shares the
//! root runtime's delegate threads, queues and completion machinery. The
//! root runtime is domain 0 of the same record; nothing here is a second
//! implementation of anything.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::error::{SsError, SsResult};
use crate::stats::StatsCell;

use super::domain::{Domain, SESSION_SHARDS};
use super::{Event, Runtime};

/// A point-in-time view of one session's activity (see
/// [`Session::session_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Operations submitted through this session.
    pub submitted: u64,
    /// Operations whose execution has completed.
    pub completed: u64,
    /// Operations submitted but not yet completed. Always 0 after the
    /// session's `end_isolation` returns.
    pub in_flight: u64,
    /// Isolation epochs this session has completed.
    pub epochs: u64,
    /// Trace-worthy events observed on this session's program thread
    /// (only counted while the runtime was built with tracing enabled).
    pub trace_events: u64,
}

/// A per-tenant handle onto a shared runtime: its own epoch domain, pin
/// namespace, trace clock and stats view over the root runtime's
/// delegate pool.
///
/// Created by [`Runtime::session`]; the calling thread becomes the
/// session's *program thread* (epoch control and delegation are
/// restricted to it, exactly like the root runtime's program thread).
/// The handle [`Deref`](std::ops::Deref)s to [`Runtime`], so the whole
/// wrapper API works unchanged — `Writable::new(&session, v)` creates an
/// object whose delegations route, pin and audit inside the session's
/// namespace:
///
/// ```
/// use ss_core::{Runtime, Writable};
///
/// let rt = Runtime::builder().delegate_threads(2).build().unwrap();
/// let session = rt.session().unwrap();
/// let w: Writable<u64> = Writable::new(&session, 0);
/// session.begin_isolation().unwrap();
/// for _ in 0..10 {
///     w.delegate(|n| *n += 1).unwrap();
/// }
/// session.end_isolation().unwrap(); // drains only this session's ops
/// assert_eq!(w.call(|n| *n).unwrap(), 10);
/// ```
///
/// Sessions are independent tenants: one session's `end_isolation`
/// barrier waits only for that session's operations, and concurrent
/// sessions (each driven from its own thread) interleave freely over the
/// shared delegates. Dropping the handle unregisters the tenant; its
/// queued work (if any) still executes and settles.
pub struct Session {
    pub(crate) rt: Runtime,
}

impl std::ops::Deref for Session {
    type Target = Runtime;

    fn deref(&self) -> &Runtime {
        &self.rt
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let d = self.domain();
        f.debug_struct("Session")
            .field("id", &d.id)
            .field("in_flight", &d.in_flight.load(Ordering::Relaxed))
            .finish()
    }
}

impl Session {
    /// This session's runtime-unique tenant id (non-zero; the root
    /// runtime is domain 0).
    pub fn id(&self) -> u32 {
        self.domain().id
    }

    /// This session's activity counters. Unlike
    /// [`Runtime::stats`](crate::Runtime::stats) (the pool-wide view),
    /// these count only operations submitted through this handle.
    pub fn session_stats(&self) -> SessionStats {
        let d = self.domain();
        SessionStats {
            submitted: d.submitted.load(Ordering::Relaxed),
            completed: d.completed.load(Ordering::Relaxed),
            in_flight: d.in_flight.load(Ordering::Acquire),
            epochs: d.epochs.load(Ordering::Acquire),
            trace_events: d.trace_clock.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let d = self.domain();
        let core = &self.rt.inner.core;
        // Drain this tenant's queued work before unregistering: once
        // `sessions_active` can reach zero, the root epoch boundary is
        // allowed to forget started-set records, which would be unsound
        // while this tenant still has operations queued. Best-effort —
        // a terminated pool can no longer execute anything (the barrier
        // reports `Terminated`), so unregister regardless.
        let _ = self.rt.barrier(d);
        core.sessions.lock().remove(&d.id);
        core.stats
            .program()
            .sessions_active
            .fetch_sub(1, Ordering::Release);
    }
}

impl Runtime {
    /// Opens a new [`Session`]: a per-tenant epoch domain over this
    /// runtime's shared delegate pool. Callable from any thread — the
    /// *calling* thread becomes the session's program thread. Any number
    /// of sessions may be live at once; each drives its own
    /// `begin_isolation`/`delegate`/`end_isolation` cycle independently
    /// of the root runtime and of every other session.
    pub fn session(&self) -> SsResult<Session> {
        self.check_live()?;
        if !self.is_root() {
            // Sessions are handed out by the root runtime only; nesting
            // tenants inside tenants has no meaning in the model.
            return Err(SsError::WrongContext);
        }
        let core = &self.inner.core;
        let id = core.next_session_id.fetch_add(1, Ordering::Relaxed);
        let domain = Arc::new(Domain::new(
            id,
            SESSION_SHARDS,
            self.inner.session_queue_cap,
            Event::scripted(&core.test_gates, "p"),
        ));
        // A capped session's program-submitted backlog never exceeds its
        // queue cap (`Runtime::admit` stalls the program context at the
        // cap and lets even a `delegate_iter` run through only as far as
        // the cap has room), so growing each injector lane to the cap here
        // — session open is a legitimate allocation point, like an epoch
        // boundary — means the steady-state delegate path never grows a
        // lane buffer while the cap holds. This is what makes the
        // zero-allocation gate deterministic on the session path; an
        // uncapped session falls back to the lane's amortized growth.
        if let (Some(cap), super::Channels::Spsc { injectors, .. }) =
            (self.inner.session_queue_cap, &self.inner.channels)
        {
            for injector in injectors.iter() {
                injector.reserve(cap as usize);
            }
        }
        core.sessions.lock().insert(id, Arc::clone(&domain));
        StatsCell::bump(&core.stats.program().sessions_active);
        Ok(Session {
            rt: Runtime {
                inner: Arc::clone(&self.inner),
                session: Some(domain),
            },
        })
    }
}
