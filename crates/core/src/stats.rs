//! Runtime instrumentation.
//!
//! Figure 5a of the paper breaks program execution time into *aggregation*,
//! *isolation*, and *reduction* components; this module provides the
//! counters and timers the `fig5a_breakdown` harness reads. Counters are
//! plain relaxed atomics — they are statistics, not synchronization.
//!
//! **Single-writer counters.** Every counter lives in a per-writer
//! [`Counters`] block, padded to lines of its own: block 0 is the program
//! side (the root's and every session's program thread, which share it
//! through `fetch_add`), block `1 + i` is delegate `i`. Each site bumps the
//! block of the thread it runs on, so on the per-operation path a program
//! thread and a delegate never write the same cache line — the other half
//! of the FastForward discipline the ring slots already follow. The
//! [`Stats`] snapshot sums the blocks.
//!
//! Queue depth is the one derived number: `queued[i] − executed(1 + i)`.
//! `queued[i]` is raised by submitters before the push, lowered for a push
//! that was lost, and moved from victim to thief by a steal; the delegate
//! only ever bumps its own block's `executed`, after each operation. The
//! difference counts enqueued-or-executing operations and feeds the
//! [`Stats::queue_depths`] snapshot and the thief's victim choice alike.
//! Its two loads are not one atomic read, so a mid-epoch reading
//! saturates at 0.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ss_queue::CachePadded;

/// One writer's counters (see the module docs for who writes which block).
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub delegations: AtomicU64,
    pub inline_executions: AtomicU64,
    /// Operations this writer executed (inline on the program side, or
    /// popped by delegate `i`).
    pub executed: AtomicU64,
    pub sync_objects: AtomicU64,
    pub isolation_epochs: AtomicU64,
    pub isolation_nanos: AtomicU64,
    pub reduction_nanos: AtomicU64,
    pub reductions: AtomicU64,
    /// Pins that override static placement: takes, stealing-mode first
    /// touches.
    pub pins: AtomicU64,
    /// Routing resolutions answered by the pin map's lock-free fast
    /// path (already-pinned sets on the non-stealing transports).
    pub pin_fast_hits: AtomicU64,
    /// Operations delegated from *delegate* contexts (recursive
    /// delegation via `DelegateContext`).
    pub nested_delegations: AtomicU64,
    /// Futures resolved: completions delivered through an `SsFuture`'s
    /// one-shot cell by `delegate_with`-style operations.
    pub futures_resolved: AtomicU64,
    /// Submitted tasks whose capture was stored inline in the
    /// `TaskSlot` buffer (no allocation).
    pub tasks_inline: AtomicU64,
    /// Submitted tasks whose capture was too large for the inline
    /// buffer and fell back to a heap box.
    pub tasks_boxed: AtomicU64,
    /// Successful steal operations (whole-batch migrations).
    pub steals: AtomicU64,
    /// Steal attempts that found no eligible batch on the chosen victim.
    pub steal_failures: AtomicU64,
    /// Successful operation-granularity steals: queued tails of *started*
    /// sets migrated after a quiescence handshake.
    pub op_steals: AtomicU64,
    /// Quiescence handshakes that failed: a thief selected a started set's
    /// tail but the owner still had an operation of the set in flight.
    pub quiesce_fail: AtomicU64,
    /// Isolation epochs certified (or condemned) by the serializability
    /// auditor.
    pub epochs_audited: AtomicU64,
    /// Live [`Session`](crate::Session) handles (gauge, not a counter):
    /// raised by `Runtime::session`, lowered when the handle drops, both
    /// in the program block — the root epoch boundary reads it there.
    pub sessions_active: AtomicU64,
    /// Times a session submit had to stall because the session was at its
    /// per-session queue-depth cap (`RuntimeBuilder::session_queue_cap`).
    pub starvation_stalls: AtomicU64,
    /// Memoized delegations answered from the memo table (future born
    /// ready, no queue traffic).
    pub memo_hits: AtomicU64,
    /// Memoized delegations that found no usable entry and executed
    /// normally (publishing on completion).
    pub memo_misses: AtomicU64,
    /// Set-generation bumps performed by non-memoized delegations and
    /// program-context reclaims (each lazily kills that set's entries).
    pub memo_invalidations: AtomicU64,
    /// Delegated operations skipped by the drop-to-cancel handshake: the
    /// future was dropped unresolved and the executor popped the
    /// operation after the cancel request landed.
    pub ops_cancelled: AtomicU64,
}

/// A writer's block: its own 128-byte lines, never shared with another
/// writer's block or with a `queued` counter.
type Block = CachePadded<Counters>;

const _: () = assert!(std::mem::align_of::<Block>() == 128);

/// Internal counters owned by the runtime: one [`Counters`] block per
/// writer plus the per-delegate `queued` counters.
#[derive(Debug)]
pub(crate) struct StatsCell {
    /// Block 0: program threads; block `1 + i`: delegate `i`.
    blocks: Box<[Block]>,
    /// Per-delegate operations ever queued (net of lost pushes and
    /// steals); `queued[i] − executed(1 + i)` is delegate `i`'s depth.
    queued: Box<[CachePadded<AtomicU64>]>,
}

impl StatsCell {
    /// Creates counters for a runtime with `n_delegates` delegate threads.
    pub fn new(n_delegates: usize) -> Self {
        StatsCell {
            blocks: (0..=n_delegates).map(|_| Block::default()).collect(),
            queued: (0..n_delegates).map(|_| Default::default()).collect(),
        }
    }

    /// The block of writer `slot` (0 = program side, `1 + i` = delegate
    /// `i` — the executor slots audit producers use too).
    #[inline]
    pub fn at(&self, slot: usize) -> &Counters {
        &self.blocks[slot]
    }

    /// The program side's block.
    #[inline]
    pub fn program(&self) -> &Counters {
        self.at(0)
    }

    /// Delegate `i`'s block.
    #[inline]
    pub fn delegate(&self, i: usize) -> &Counters {
        self.at(1 + i)
    }

    /// Number of delegates with a queue.
    pub fn delegates(&self) -> usize {
        self.queued.len()
    }

    /// `n` operations are about to land on delegate `i`'s queue.
    #[inline]
    pub fn add_queued(&self, i: usize, n: u64) {
        self.queued[i].fetch_add(n, Ordering::Relaxed);
    }

    /// `n` operations counted by [`add_queued`](StatsCell::add_queued)
    /// never landed (the consumer is gone).
    #[inline]
    pub fn sub_queued(&self, i: usize, n: u64) {
        self.queued[i].fetch_sub(n, Ordering::Relaxed);
    }

    /// A steal moved `n` queued operations from delegate `from` to `to`.
    /// Raised on the thief first, so its depth never reads below what it
    /// is about to execute.
    pub fn move_queued(&self, from: usize, to: usize, n: u64) {
        self.add_queued(to, n);
        self.sub_queued(from, n);
    }

    /// Delegate `i`'s enqueued-or-executing operations.
    #[inline]
    pub fn queue_depth(&self, i: usize) -> u64 {
        // `executed` first: it never passes `queued`, which is raised
        // before the push, so only a steal racing this read can take the
        // difference below zero.
        let executed = self.delegate(i).executed.load(Ordering::Relaxed);
        self.queued[i]
            .load(Ordering::Relaxed)
            .saturating_sub(executed)
    }

    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add_nanos(counter: &AtomicU64, d: Duration) {
        counter.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn snapshot(&self, since: Instant) -> Stats {
        let sum = |f: fn(&Counters) -> &AtomicU64| -> u64 {
            self.blocks
                .iter()
                .map(|b| f(b).load(Ordering::Relaxed))
                .sum()
        };
        let total = since.elapsed();
        let isolation = Duration::from_nanos(sum(|c| &c.isolation_nanos));
        let reduction = Duration::from_nanos(sum(|c| &c.reduction_nanos));
        let n = self.delegates();
        Stats {
            delegations: sum(|c| &c.delegations),
            inline_executions: sum(|c| &c.inline_executions),
            executed: sum(|c| &c.executed),
            sync_objects: sum(|c| &c.sync_objects),
            isolation_epochs: sum(|c| &c.isolation_epochs),
            reductions: sum(|c| &c.reductions),
            pins: sum(|c| &c.pins),
            pin_fast_hits: sum(|c| &c.pin_fast_hits),
            nested_delegations: sum(|c| &c.nested_delegations),
            futures_resolved: sum(|c| &c.futures_resolved),
            tasks_inline: sum(|c| &c.tasks_inline),
            tasks_boxed: sum(|c| &c.tasks_boxed),
            steals: sum(|c| &c.steals),
            steal_failures: sum(|c| &c.steal_failures),
            op_steals: sum(|c| &c.op_steals),
            quiesce_fail: sum(|c| &c.quiesce_fail),
            // Patched in by Runtime::stats: the drain counter lives in the
            // root `Domain`, the auditor outside this cell (0 when off).
            in_flight: 0,
            epochs_audited: sum(|c| &c.epochs_audited),
            sessions_active: sum(|c| &c.sessions_active),
            starvation_stalls: sum(|c| &c.starvation_stalls),
            memo_hits: sum(|c| &c.memo_hits),
            memo_misses: sum(|c| &c.memo_misses),
            memo_invalidations: sum(|c| &c.memo_invalidations),
            ops_cancelled: sum(|c| &c.ops_cancelled),
            audit_edges: 0,
            queue_depths: (0..n).map(|i| self.queue_depth(i)).collect(),
            delegate_executed: (0..n)
                .map(|i| self.delegate(i).executed.load(Ordering::Relaxed))
                .collect(),
            total,
            isolation,
            reduction,
            aggregation: total.saturating_sub(isolation).saturating_sub(reduction),
        }
    }
}

/// A point-in-time snapshot of runtime activity (see
/// [`Runtime::stats`](crate::Runtime::stats)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stats {
    /// Operations submitted through the `delegate*` family — from the
    /// program context or a delegate context — whichever executor ran
    /// them: after `end_isolation`, `executed == delegations`.
    pub delegations: u64,
    /// The subset of [`delegations`](Stats::delegations) the program
    /// thread ran itself: sets it took at a half-full ring, their nested
    /// operations from `Lane::Program`, and every operation of a runtime
    /// without delegates. With [`delegate_executed`](Stats::delegate_executed)
    /// they partition the delegations:
    /// `Σ delegate_executed + inline_executions == delegations`.
    pub inline_executions: u64,
    /// Operations whose execution has completed (on any executor).
    pub executed: u64,
    /// Synchronization objects sent (ownership reclaims + epoch barriers).
    pub sync_objects: u64,
    /// Completed isolation epochs.
    pub isolation_epochs: u64,
    /// Reducible reductions performed.
    pub reductions: u64,
    /// Epoch pins created at a set's first touch: one per set the program
    /// thread takes, and — when stealing is enabled, since a steal must be
    /// able to override static placement — one per set routed. Static
    /// placement itself pins nothing.
    pub pins: u64,
    /// Routing resolutions answered by the sharded pin map's lock-free
    /// fast path: a re-delegation to an already-pinned set on a
    /// non-stealing transport, resolved with no lock and no
    /// read-modify-write. The root program thread's ring submits resolve
    /// through its own record of the epoch's sets instead, so these are
    /// nested and session submits. 0 on the stealing transport (whose
    /// submits always take the set's shard lock so the queue publish is
    /// atomic with the pin resolution).
    pub pin_fast_hits: u64,
    /// Operations delegated from *delegate* contexts — the recursive
    /// delegation path ([`Runtime::delegate_scope`](crate::Runtime::delegate_scope)).
    /// Also included in [`delegations`](Stats::delegations). 0 for
    /// programs that only delegate from the program thread.
    pub nested_delegations: u64,
    /// Futures resolved: completions delivered to
    /// [`SsFuture`](crate::SsFuture)s by operations delegated through the
    /// `delegate_with` family. Each future's cell is settled exactly once
    /// (a dropped future still counts — the completion is delivered to
    /// the cell regardless of whether anyone waits). 0 for programs that
    /// never use future-returning delegation.
    pub futures_resolved: u64,
    /// Submitted operations whose packaged capture fit the invocation
    /// object's fixed inline buffer and was stored by value — the
    /// zero-allocation path. Together with [`tasks_boxed`](Stats::tasks_boxed)
    /// this partitions every submitted operation (delegated, inline-executed,
    /// and nested alike).
    pub tasks_inline: u64,
    /// Submitted operations whose capture exceeded the inline buffer (or
    /// required stricter-than-word alignment) and fell back to a heap
    /// `Box`. A hot loop that should be allocation-free wants this to
    /// stay flat: the buffer is three words, of which the wrapper uses
    /// one (and a future-returning operation a second, for its completion
    /// cell), so user captures of up to two words (`delegate`) or one
    /// word (`delegate_with`) take the inline path; a memoized miss
    /// always boxes.
    pub tasks_boxed: u64,
    /// Successful steals: attempts that migrated queued batches (whole
    /// never-started sets, quiescent tails of started ones, or both) from
    /// a loaded delegate to an idle one. 0 without
    /// [`stealing`](crate::RuntimeBuilder::stealing) (the default).
    pub steals: u64,
    /// Steal attempts that found no eligible batch (every queued set on
    /// the chosen victim had an operation in flight or was fenced, or the
    /// queue drained between the depth check and the steal). A high
    /// failure-to-success ratio means the workload's queued sets are
    /// mostly mid-operation when thieves look.
    pub steal_failures: u64,
    /// Successful operation-granularity steals: the queued tail of a
    /// *started* set migrated to an idle delegate after the quiescence
    /// handshake certified no operation of the set was in flight. A thief
    /// takes these before any never-started set: they are what the owner
    /// is demonstrably stuck behind. 0 without stealing.
    pub op_steals: u64,
    /// Quiescence handshakes that failed: the thief picked a started
    /// set's queued tail, but under the shard + deque locks an operation
    /// of the set was still executing on the owner, so the steal was
    /// abandoned. The safety valve that makes op-granularity stealing
    /// race-free; a high ratio to [`op_steals`](Stats::op_steals) means
    /// tails are contended while their sets run.
    pub quiesce_fail: u64,
    /// The **root** domain's delegated operations submitted but not yet
    /// fully executed, on the lanes that track them individually (the
    /// stealing transport's deques and the nested-delegation injector
    /// lanes; the root's SPSC rings keep this permanently zero — ring
    /// drains are proven by queue tokens instead). A session's count is
    /// [`SessionStats::in_flight`](crate::SessionStats::in_flight). Always
    /// 0 after the root's `end_isolation` returns: the epoch barrier waits
    /// for this exact counter to drain, which is also what makes dropped
    /// futures leak-free — their operations still run and still settle
    /// their cells before the counter reaches zero.
    pub in_flight: u64,
    /// Isolation epochs the serializability auditor actually audited
    /// (certified serializable, or condemned). Equal to
    /// [`isolation_epochs`](Stats::isolation_epochs) under
    /// [`AuditMode::Full`](crate::AuditMode::Full); a subset under
    /// `Sample`; 0 when auditing is off.
    pub epochs_audited: u64,
    /// [`Session`](crate::Session) handles currently live: a gauge raised
    /// when [`Runtime::session`](crate::Runtime::session) hands one out
    /// and lowered when the handle drops. 0 for single-tenant programs.
    pub sessions_active: u64,
    /// Times a session submit stalled at the per-session queue-depth cap
    /// ([`RuntimeBuilder::session_queue_cap`](crate::RuntimeBuilder::session_queue_cap))
    /// before its operation was accepted — the fairness backpressure
    /// signal. 0 when no cap is configured.
    pub starvation_stalls: u64,
    /// Memoized delegations (`delegate_memo` family) answered straight
    /// from the memo table: the fingerprint matched a live-generation
    /// entry, so the future was born ready and no router resolution,
    /// queue reservation or delegate wakeup happened. 0 when memoization
    /// is disabled ([`RuntimeBuilder::memo_capacity`](crate::RuntimeBuilder::memo_capacity))
    /// or never used.
    pub memo_hits: u64,
    /// Memoized delegations that missed (cold fingerprint, invalidated
    /// generation, or an entry evicted by the capacity cap) and executed
    /// normally, publishing their result for the next epoch. Hits plus
    /// misses partition every `delegate_memo`-family call.
    pub memo_misses: u64,
    /// Memo invalidations: generation bumps performed by non-memoized
    /// delegations and program-context reclaims on sets that a memoized
    /// operation may have cached results for. Each bump lazily kills the
    /// set's entries (no table walk). 0 when memoization is disabled.
    pub memo_invalidations: u64,
    /// Operations skipped by the drop-to-cancel handshake: their
    /// [`SsFuture`](crate::SsFuture) was dropped unresolved, and the
    /// owning executor popped the operation after the cancellation
    /// request was visible, so the body never ran (the operation still
    /// settles its cell and all drain counters). Cancelled memoized
    /// operations do not publish into the memo.
    pub ops_cancelled: u64,
    /// Conflict-graph edges the auditor recorded: one per executed
    /// operation observed while an audited epoch was open. A rough
    /// measure of audit coverage and of the checker's (O(1)-per-event)
    /// work.
    pub audit_edges: u64,
    /// Per-delegate queue depth at snapshot time (enqueued + executing).
    /// All zeros during aggregation epochs — `end_isolation` drains every
    /// queue.
    pub queue_depths: Vec<u64>,
    /// Per-delegate count of completed delegated operations; the spread
    /// across delegates is the load-balance signal.
    pub delegate_executed: Vec<u64>,
    /// Wall-clock time since the runtime was created.
    pub total: Duration,
    /// Wall-clock time spent inside isolation epochs (program-thread view).
    pub isolation: Duration,
    /// Wall-clock time spent reducing reducible objects.
    pub reduction: Duration,
    /// Everything else: `total - isolation - reduction` — the Figure 5a
    /// "aggregation" component.
    pub aggregation: Duration,
}

impl Stats {
    /// Fraction of total time in isolation epochs (0..=1).
    pub fn isolation_fraction(&self) -> f64 {
        self.fraction(self.isolation)
    }

    /// Fraction of total time spent in reductions (0..=1).
    pub fn reduction_fraction(&self) -> f64 {
        self.fraction(self.reduction)
    }

    /// Fraction of total time in ordinary sequential execution (0..=1).
    pub fn aggregation_fraction(&self) -> f64 {
        self.fraction(self.aggregation)
    }

    fn fraction(&self, part: Duration) -> f64 {
        let total = self.total.as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            part.as_secs_f64() / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_decomposes_time() {
        let cell = StatsCell::new(0);
        let t0 = Instant::now();
        StatsCell::add_nanos(&cell.program().isolation_nanos, Duration::from_millis(2));
        StatsCell::add_nanos(&cell.program().reduction_nanos, Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        let s = cell.snapshot(t0);
        assert!(s.total >= Duration::from_millis(5));
        assert_eq!(s.isolation, Duration::from_millis(2));
        assert_eq!(s.reduction, Duration::from_millis(1));
        assert_eq!(s.total, s.aggregation + s.isolation + s.reduction);
        let f = s.isolation_fraction() + s.reduction_fraction() + s.aggregation_fraction();
        assert!((f - 1.0).abs() < 1e-9);
    }

    #[test]
    fn counters_accumulate() {
        let cell = StatsCell::new(2);
        StatsCell::bump(&cell.program().delegations);
        StatsCell::bump(&cell.delegate(1).delegations);
        StatsCell::bump(&cell.delegate(0).executed);
        let s = cell.snapshot(Instant::now());
        assert_eq!(s.delegations, 2);
        assert_eq!(s.executed, 1);
    }

    #[test]
    fn zero_total_fraction_is_zero() {
        let s = Stats {
            delegations: 0,
            inline_executions: 0,
            executed: 0,
            sync_objects: 0,
            isolation_epochs: 0,
            reductions: 0,
            pins: 0,
            pin_fast_hits: 0,
            nested_delegations: 0,
            futures_resolved: 0,
            tasks_inline: 0,
            tasks_boxed: 0,
            steals: 0,
            steal_failures: 0,
            op_steals: 0,
            quiesce_fail: 0,
            in_flight: 0,
            epochs_audited: 0,
            sessions_active: 0,
            starvation_stalls: 0,
            memo_hits: 0,
            memo_misses: 0,
            memo_invalidations: 0,
            ops_cancelled: 0,
            audit_edges: 0,
            queue_depths: Vec::new(),
            delegate_executed: Vec::new(),
            total: Duration::ZERO,
            isolation: Duration::ZERO,
            reduction: Duration::ZERO,
            aggregation: Duration::ZERO,
        };
        assert_eq!(s.isolation_fraction(), 0.0);
    }

    #[test]
    fn per_delegate_views_are_sized_and_snapshotted() {
        let cell = StatsCell::new(3);
        cell.add_queued(1, 4);
        cell.add_queued(2, 9);
        cell.delegate(2).executed.store(9, Ordering::Relaxed);
        StatsCell::bump(&cell.program().pins);
        let s = cell.snapshot(Instant::now());
        assert_eq!(s.queue_depths, vec![0, 4, 0]);
        assert_eq!(s.delegate_executed, vec![0, 0, 9]);
        assert_eq!(s.pins, 1);
    }

    #[test]
    fn depth_is_queued_minus_executed_across_a_steal() {
        let cell = StatsCell::new(2);
        cell.add_queued(0, 10);
        cell.sub_queued(0, 2); // a lost push
        cell.delegate(0).executed.store(3, Ordering::Relaxed);
        assert_eq!(cell.queue_depth(0), 5);
        cell.move_queued(0, 1, 4);
        assert_eq!((cell.queue_depth(0), cell.queue_depth(1)), (1, 4));
        // A snapshot between the executor's bump and a steal's transfer
        // would read below zero: it saturates.
        cell.delegate(0).executed.store(5, Ordering::Relaxed);
        assert_eq!(cell.queue_depth(0), 0);
    }

    #[test]
    fn writer_blocks_and_queued_counters_never_share_a_line() {
        let cell = StatsCell::new(3);
        let line = |p: *const u8| p as usize / 128;
        let mut spans: Vec<(usize, usize)> = Vec::new();
        let span_of = |p: *const u8, len: usize| (line(p), line(p.wrapping_add(len - 1)));
        for slot in 0..4 {
            let b = cell.at(slot) as *const Counters as *const u8;
            spans.push(span_of(b, std::mem::size_of::<Counters>()));
        }
        for q in cell.queued.iter() {
            spans.push(span_of(&**q as *const AtomicU64 as *const u8, 8));
        }
        for (k, a) in spans.iter().enumerate() {
            for b in &spans[k + 1..] {
                assert!(a.1 < b.0 || b.1 < a.0, "lines {a:?} and {b:?} overlap");
            }
        }
    }
}
