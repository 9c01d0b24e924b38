//! Execution tracing — the §3.3 debugging facility.
//!
//! "Using a compile-time flag, programs may be compiled into a debug version
//! that simulates a parallel execution by tracking the context and
//! serialization set of each operation."
//!
//! With [`RuntimeBuilder::trace`](crate::RuntimeBuilder::trace) enabled, the
//! runtime records one [`TraceEvent`] per model-level operation *in program
//! order* (all events are emitted by the program thread, so tracing costs no
//! synchronization and does not perturb delegate timing). The trace answers
//! the questions a Prometheus debug build answers: which serialization set
//! did this operation land in, which executor owns it, where did the program
//! context block to reclaim ownership, and what did each epoch look like.
//!
//! Works with any number of delegates; with `delegate_threads(0)` (the
//! debug build) the trace *is* the simulated parallel execution.

use crate::serializer::SsId;

/// Which executor a traced operation was assigned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceExecutor {
    /// On the program thread (a set it retracted, or any set of a runtime
    /// without delegates).
    Program,
    /// Delegate thread with this index.
    Delegate(usize),
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// `begin_isolation` — a new isolation epoch opened.
    BeginIsolation,
    /// `end_isolation` — barrier with all delegates, epoch closed.
    EndIsolation,
    /// A serialization set was pinned to its executor for the epoch at its
    /// first touch, with stealing enabled (which pins every set so a steal
    /// can move it). Static placement emits no pin events — the mapping is
    /// pure — and neither does a tail retraction, whose operations keep
    /// the `Delegate` events of their delegation sites.
    Pin,
    /// An idle delegate stole a never-started serialization set from a
    /// peer's queue; `set` is the migrated set and `executor` the thief it
    /// now pins to. Steal events originate on delegate threads and are
    /// folded into the program-order log at the next epoch boundary or
    /// [`take_trace`](crate::Runtime::take_trace), so their sequence
    /// numbers reflect the fold point, not the instant of the steal.
    Steal,
    /// An idle delegate stole the queued *tail* of a **started**
    /// serialization set after a quiescence handshake certified no
    /// operation of the set was in flight on the owner; `set` is the
    /// migrated set and `executor` the thief it re-pins to.
    /// Folded like [`Steal`](TraceKind::Steal) events.
    OpSteal,
    /// An operation was delegated.
    Delegate,
    /// An operation was delegated from a *delegate* context — the
    /// recursive-delegation path
    /// ([`Runtime::delegate_scope`](crate::Runtime::delegate_scope)).
    /// Like [`Steal`](TraceKind::Steal) events, these originate off the
    /// program thread: each one takes a logical-order token (a shared
    /// monotonic clock) at submission, and the fold at the next epoch
    /// boundary or `take_trace` emits all delegate-side events sorted by
    /// that token, so the folded sub-trace is a linearization of what the
    /// delegate threads actually did.
    NestedDelegate,
    /// A future-returning operation resolved its
    /// [`SsFuture`](crate::SsFuture)'s completion cell. Recorded by the
    /// executor that ran the operation (any thread), so — like
    /// [`Steal`](TraceKind::Steal) and
    /// [`NestedDelegate`](TraceKind::NestedDelegate) — these are folded
    /// into the program-order log at the next epoch boundary or
    /// [`take_trace`](crate::Runtime::take_trace), ordered by their
    /// logical-order tokens.
    FutureResolve,
    /// A delegated operation executed inline on the program thread.
    InlineExecute,
    /// A memoized delegation (`delegate_memo` family) was answered from
    /// the memo table: the input fingerprint matched a live-generation
    /// entry, so the operation's [`SsFuture`](crate::SsFuture) was born
    /// ready and nothing was routed or queued. Recorded at the
    /// delegation site on the program thread, in program order.
    MemoHit,
    /// The program context reclaimed ownership of an object (sent a
    /// synchronization object and waited for the owning queue to drain).
    Reclaim,
    /// A program-context read (`call`) on a wrapped object.
    Call,
    /// A program-context write (`call_mut`) on a wrapped object.
    CallMut,
    /// A reducible was folded to its final view.
    Reduce,
}

/// One program-order event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Position in program order (0-based, monotonically increasing).
    pub seq: u64,
    /// Isolation-epoch serial the event occurred in (0 before the first
    /// epoch; unchanged during the aggregation epoch that follows).
    pub epoch: u64,
    /// Event kind.
    pub kind: TraceKind,
    /// Instance number of the object involved, if any.
    pub object: Option<u64>,
    /// Serialization set involved, if any.
    pub set: Option<SsId>,
    /// Executor assigned, if meaningful for this kind.
    pub executor: Option<TraceExecutor>,
}

/// A model-level event recorded by a delegate thread (a steal, a nested
/// delegation, or a first-touch pin made on the nested path), awaiting
/// fold into the program-order [`TraceLog`].
///
/// `order` is the **logical-order token**: drawn from a shared monotonic
/// clock at the instant the event's routing decision is made, so sorting
/// a drained buffer by it reconstructs a linearization of the delegate
/// threads' scheduling actions even though they were recorded
/// concurrently.
pub(crate) struct SideEvent {
    pub(crate) order: u64,
    pub(crate) serial: u64,
    pub(crate) kind: TraceKind,
    pub(crate) object: Option<u64>,
    pub(crate) set: Option<SsId>,
    pub(crate) executor: TraceExecutor,
}

/// Program-thread-only trace buffer.
#[derive(Default)]
pub(crate) struct TraceLog {
    events: Vec<TraceEvent>,
    next_seq: u64,
}

impl TraceLog {
    pub(crate) fn record(
        &mut self,
        epoch: u64,
        kind: TraceKind,
        object: Option<u64>,
        set: Option<SsId>,
        executor: Option<TraceExecutor>,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(TraceEvent {
            seq,
            epoch,
            kind,
            object,
            set,
            executor,
        });
    }

    pub(crate) fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

/// Renders a trace compactly, one event per line (for debugging sessions
/// and the `debug_trace` example).
pub fn format_trace(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let exec = match e.executor {
            Some(TraceExecutor::Program) => " on program".to_string(),
            Some(TraceExecutor::Delegate(i)) => format!(" on delegate {i}"),
            None => String::new(),
        };
        let obj = e.object.map(|o| format!(" obj #{o}")).unwrap_or_default();
        let set = e.set.map(|s| format!(" set {}", s.0)).unwrap_or_default();
        out.push_str(&format!(
            "[{:>5}] epoch {:>3} {:?}{}{}{}\n",
            e.seq, e.epoch, e.kind, obj, set, exec
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_preserves_program_order() {
        let mut log = TraceLog::default();
        log.record(1, TraceKind::BeginIsolation, None, None, None);
        log.record(
            1,
            TraceKind::Delegate,
            Some(3),
            Some(SsId(7)),
            Some(TraceExecutor::Delegate(0)),
        );
        log.record(1, TraceKind::EndIsolation, None, None, None);
        let events = log.take();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[1].object, Some(3));
        assert!(log.take().is_empty());
        // Sequence numbers keep increasing across takes.
        log.record(2, TraceKind::Call, Some(1), None, None);
        assert_eq!(log.take()[0].seq, 3);
    }

    #[test]
    fn formatting_is_line_per_event() {
        let mut log = TraceLog::default();
        log.record(
            1,
            TraceKind::Delegate,
            Some(0),
            Some(SsId(5)),
            Some(TraceExecutor::Program),
        );
        let s = format_trace(&log.take());
        assert_eq!(s.lines().count(), 1);
        assert!(s.contains("Delegate"));
        assert!(s.contains("set 5"));
        assert!(s.contains("on program"));
    }
}
