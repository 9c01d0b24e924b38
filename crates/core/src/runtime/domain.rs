//! Epoch domains: the one record behind the root runtime and every
//! [`Session`](super::Session).
//!
//! The paper's model has exactly one program thread; `end_isolation`
//! quiesces the world. This runtime relaxes that to *multi-tenant*
//! operation over one delegate pool, and the unit of tenancy is a
//! [`Domain`]: a program thread, its epoch state machine, the epoch
//! serial it publishes, a pin namespace, a drain counter and a trace
//! clock. The root runtime is domain 0 ([`Core::root`](super::Core));
//! `Runtime::session()` opens domains 1, 2, … Every routing, audit,
//! submit and barrier path takes a `&Domain`, so there is one
//! implementation of each and the root is simply the domain whose id is 0.
//!
//! Isolation between domains rests on three mechanisms (the proof sketch
//! lives in `docs/ARCHITECTURE.md`, "Domains"):
//!
//! 1. **Namespaced routing keys.** A tenant's operations are routed,
//!    queued and audited under a composite key carrying the domain id in
//!    its high 16 bits ([`Domain::key`]), so two tenants delegating the
//!    same user-visible `SsId` never share a pin, a deque batch, or an
//!    audit entry. Domain 0 keeps raw ids.
//! 2. **Per-domain pin maps.** The shard-level epoch stamps that let pins
//!    expire lazily are per domain, so one domain opening its next epoch
//!    never invalidates (or worse, wipes) another's live pins.
//! 3. **Per-domain drain counters.** Every operation that is not covered
//!    by a ring token raises its domain's `in_flight` before the push and
//!    the executing delegate lowers it *after* the operation's effects
//!    (completion slot, audit record) are visible — so a domain's barrier
//!    waits only on its own counter and never for another domain's
//!    epoch.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Instant;

use ss_queue::shardmap::ShardMap;
use ss_queue::slab::ResultSlab;

use super::program::ProgramLane;
use super::Event;

use crate::cell::ProgramOnly;
use crate::serializer::SsId;

/// Shard count of the root pin map. 64 shards keep the per-shard
/// collision probability low for realistic set counts while costing
/// ~100 KiB per runtime.
pub(super) const ROOT_SHARDS: usize = 64;

/// Shard count of a session's pin map. Sessions are expected to be
/// numerous, so each map is kept smaller than the root's; collisions only
/// cost lock granularity, never correctness.
pub(super) const SESSION_SHARDS: usize = 16;

/// Bits of the user-visible serialization-set id preserved in a tenant's
/// routing key; the top 16 bits carry the domain id.
const KEY_BITS: u32 = 48;
const KEY_MASK: u64 = (1 << KEY_BITS) - 1;

/// Extracts the owning domain id from a routing key (0 for root keys
/// below 2^48; a root key with high bits set merely *aliases* a tenant id,
/// which every lookup tolerates by falling through to the root).
#[inline]
pub(crate) fn key_domain(key: u64) -> u32 {
    (key >> KEY_BITS) as u32
}

thread_local! {
    /// The calling thread's id, read once per thread: `thread::current()`
    /// clones the thread's handle — a reference-count increment and
    /// decrement — on every call.
    static THREAD_ID: ThreadId = std::thread::current().id();
}

/// The calling thread's id (a thread-local copy): what every
/// program-thread check compares with [`Domain::program_thread`].
#[inline]
pub(crate) fn current_thread_id() -> ThreadId {
    THREAD_ID.with(|id| *id)
}

/// Program-thread-only epoch bookkeeping of one domain.
pub(crate) struct EpochState {
    pub(super) in_isolation: bool,
    pub(super) started: Option<Instant>,
    /// The sets whose operations are on the program thread's call stack,
    /// outermost first: non-empty while it executes an operation (which
    /// rejects re-entrant program-context use and opens its delegate
    /// context), and the sets a future wait inside one may not help with.
    pub(super) active: Vec<u64>,
}

/// One epoch domain. Owned by `Core` (the root) or by an `Arc` shared
/// between a session handle, every invocation it has in flight, and the
/// thieves that migrate its batches. On lines of its own: its fields are
/// read by every executor and written by the program thread, and as part
/// of `Core` it would otherwise share lines with whatever the layout put
/// beside it (measured: `futures` -20 % and `future_rtt_vs_handoff`
/// +25 % on 2 vCPUs when the domain lost the 128-byte alignment its
/// embedded event used to give it).
#[repr(align(128))]
pub(crate) struct Domain {
    /// 0 for the root runtime, non-zero for sessions.
    pub(crate) id: u32,
    /// The domain's program thread: the thread that built the runtime or
    /// opened the session. Epoch control and program-origin delegation
    /// are restricted to it.
    pub(crate) program_thread: ThreadId,
    /// The epoch state machine; touched only by `program_thread`.
    pub(super) epoch: ProgramOnly<EpochState>,
    /// The isolation-epoch serial: bumped at `begin_isolation` by the
    /// program thread, read by wrappers (lazy per-epoch object reset),
    /// delegates (nested delegation), thieves and audit stamps. Stable
    /// for the duration of any delegated task — the barrier drains before
    /// the serial can change.
    pub(crate) epoch_serial: AtomicU64,
    /// Isolation epochs completed (bumped at `end_isolation`).
    pub(crate) epochs: AtomicU64,
    /// The drain counter: operations pushed on a counted lane (injector
    /// lanes and deques — everything but the root's rings, whose drain is
    /// proven by queue tokens) and not yet fully executed. Raised before
    /// the push, lowered with Release after the operation's effects and
    /// audit record land, and never touched by a steal — so one Acquire
    /// load of zero proves the domain's whole spawn tree has executed.
    pub(crate) in_flight: AtomicU64,
    /// Operations accepted on a counted lane or run inline (monotonic).
    pub(crate) submitted: AtomicU64,
    /// Of those, how many have completed (monotonic).
    pub(crate) completed: AtomicU64,
    /// True once a *nested* delegation (from a delegate context) has
    /// happened in the current isolation epoch; cleared by
    /// `end_isolation` after the barrier. While set, mid-epoch reclaims
    /// quiesce the whole domain — any still-running parent could spawn
    /// onto the reclaimed set, so a per-queue token no longer bounds the
    /// set's outstanding work. Written under the target object's state
    /// lock (before the object's `pending` count is raised), and read
    /// under the same lock by the program-context access path, so the two
    /// sides serialize per object.
    pub(crate) nested_in_epoch: AtomicBool,
    /// Whether the auditor is observing the current epoch (the sampling
    /// decision, published at `begin_isolation` while the domain is
    /// quiescent).
    pub(crate) audit_on: AtomicBool,
    /// Logical trace clock. The root draws delegate-side event order
    /// tokens from it (see [`SideEvent::order`](crate::trace::SideEvent));
    /// a session counts its trace-worthy program-thread events (the
    /// program-order log itself is root state).
    pub(crate) trace_clock: AtomicU64,
    /// The domain's set→executor pin map.
    pub(crate) pins: ShardMap,
    /// In-flight cap (fairness backpressure on the program thread), from
    /// [`RuntimeBuilder::session_queue_cap`](crate::RuntimeBuilder::session_queue_cap);
    /// always `None` for the root.
    pub(crate) queue_cap: Option<u64>,
    /// What every wait of the domain's program thread parks on: notified
    /// by the [`release`](Domain::release) that takes `in_flight` to zero
    /// or below `queue_cap`, by a push to [`lane`](Domain::lane), by pool
    /// termination, and — for the root — by the delegates signalling the
    /// program thread's synchronization tokens, which share it.
    pub(crate) waiter: Arc<Event>,
    /// `Lane::Program`: operations nested submits routed to this domain's
    /// program executor, run by its program thread.
    pub(crate) lane: ProgramLane,
    /// The completion slots of the domain's futures: lane 0 issued on by
    /// the program thread, lane `1 + i` by delegate `i` (nested futures),
    /// reclaimed at the domain's barrier (`ss_queue::slab`). Declared
    /// last: a queued operation's sender points into it, so it must
    /// outlive `lane`.
    pub(crate) results: ResultSlab<Event>,
}

impl Domain {
    /// Creates a domain whose program thread is the calling thread, with
    /// one result-slab lane per executor (`1 + delegates`).
    pub(crate) fn new(
        id: u32,
        shards: usize,
        queue_cap: Option<u64>,
        waiter: Event,
        executors: usize,
    ) -> Self {
        Domain {
            id,
            program_thread: current_thread_id(),
            epoch: ProgramOnly::new(EpochState {
                in_isolation: false,
                started: None,
                active: Vec::with_capacity(4),
            }),
            epoch_serial: AtomicU64::new(0),
            epochs: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            nested_in_epoch: AtomicBool::new(false),
            audit_on: AtomicBool::new(false),
            trace_clock: AtomicU64::new(0),
            pins: ShardMap::new(shards),
            queue_cap,
            waiter: Arc::new(waiter),
            lane: ProgramLane::new(),
            results: ResultSlab::new(executors),
        }
    }

    /// The routing key of a user-visible set id in this domain — used for
    /// pin-map, deque, audit and memo keys alike, so every layer
    /// distinguishes tenant A's set 7 from tenant B's. The root keeps the
    /// raw id; a tenant puts its id in the high 16 bits over the id folded
    /// to 48 bits (identity below 2^48 — every sequence-derived id, and
    /// every object-serializer id, whose address mix permutes the low 48
    /// bits and leaves the high ones alone). A fold collision merely merges two sets'
    /// routing granularity — they co-pin and co-steal, a scheduling
    /// restriction, never an ordering violation.
    #[inline]
    pub(crate) fn key(&self, ss: SsId) -> u64 {
        if self.id == 0 {
            ss.0
        } else {
            ((self.id as u64) << KEY_BITS) | ((ss.0 ^ (ss.0 >> KEY_BITS)) & KEY_MASK)
        }
    }

    /// The current epoch serial.
    #[inline]
    pub(crate) fn serial(&self) -> u64 {
        self.epoch_serial.load(Ordering::Acquire)
    }

    /// The audit/epoch stamp: the domain id in the high 16 bits over the
    /// epoch serial. Distinct domains can never produce equal stamps,
    /// which is what lets the shared auditor sweep one domain's entries
    /// while another's epoch is still open. The root's stamp is its raw
    /// serial.
    #[inline]
    pub(crate) fn audit_serial(&self) -> u64 {
        ((self.id as u64) << KEY_BITS) | (self.serial() & KEY_MASK)
    }

    /// Settles `n` completed operations of a counted lane: bumps the
    /// completion counter, then releases the drain counter. Called by the
    /// executing context *after* the operations' effects (including their
    /// audit records) are visible — the Release pairs with the barrier's
    /// Acquire load of `in_flight == 0`.
    #[inline]
    pub(crate) fn settle(&self, n: u64) {
        self.completed.fetch_add(n, Ordering::Relaxed);
        self.release(n);
    }

    /// Lowers the drain counter by `n` — settled operations, or a push
    /// rolled back — and notifies [`waiter`](Domain::waiter) when that
    /// takes the counter to zero or from the queue cap to below it: the
    /// two conditions anyone waits on.
    #[inline]
    pub(crate) fn release(&self, n: u64) {
        let before = self.in_flight.fetch_sub(n, Ordering::Release);
        let crossed = |line: u64| before - n < line && line <= before;
        if crossed(1) || self.queue_cap.is_some_and(crossed) {
            self.waiter.notify();
        }
    }
}
