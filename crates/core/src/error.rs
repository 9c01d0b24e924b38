//! Error types for the serialization-sets runtime.
//!
//! The paper's Prometheus "generates an error" for protocol violations
//! (Table 1, §3.3). We surface those conditions as [`SsError`] values so that
//! callers — in particular tests and the sequential debug mode — can assert
//! on the exact violation.

use crate::audit::AuditReport;
use crate::serializer::SsId;
use core::fmt;

/// Every way a serialization-sets program can violate the execution model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SsError {
    /// `delegate` was invoked outside an isolation epoch (§2: delegation is
    /// only meaningful while a data partition is in force).
    NotInIsolation,
    /// `begin_isolation` while already isolating.
    AlreadyInIsolation,
    /// `end_isolation` without a matching `begin_isolation`.
    NotIsolating,
    /// An operation that only the program context may perform (`call`,
    /// epoch control, top-level `delegate`) was invoked from a thread that
    /// is neither the program context nor — for the recursive-delegation
    /// entry points — a delegate context of this runtime.
    WrongContext,
    /// `delegate` from inside a delegated operation executing inline on the
    /// program thread. (Delegation from *delegate* contexts is supported —
    /// see [`Runtime::delegate_scope`](crate::Runtime::delegate_scope) —
    /// but the program thread mid-inline-execution is not at a delegation
    /// point.)
    NestedDelegation,
    /// A delegate context delegated into territory owned by the program
    /// context: the target object was claimed by a program-context
    /// mutation this epoch (`set: None`). A *set* the program executor
    /// owns accepts nested operations on `Lane::Program`, so the runtime
    /// no longer reports `Some(set)`; the field stays for compatibility.
    NestedOnProgram {
        /// The program-owned set, when the conflict is set-level (never,
        /// since sets the program thread runs accept nested operations).
        set: Option<SsId>,
    },
    /// A delegation raced a program-context access (`call` / `call_mut`)
    /// of the same object whose closure is still running — including
    /// re-entrant delegation from inside the access closure itself. The
    /// delegation is rejected rather than allowed to alias the live
    /// borrow.
    AccessInProgress {
        /// Sequence number of the object being accessed.
        instance: u64,
    },
    /// A `writable` object was used both read-only and privately-writable in
    /// the same isolation epoch (the wrapper's state machine, §3.1).
    StateConflict {
        /// Sequence number of the offending object.
        instance: u64,
        /// What the epoch state already was.
        was_read_shared: bool,
    },
    /// The serializer mapped one object to two different serialization sets
    /// within one isolation epoch — the erroneous-serializer check of §3.3.
    InconsistentSerializer {
        /// Sequence number of the offending object.
        instance: u64,
        /// Set recorded at the first delegation of this epoch.
        tagged: SsId,
        /// Conflicting set produced by the serializer now.
        got: SsId,
    },
    /// A `NullSerializer`-specialized object was delegated without an
    /// external serialization-set argument (`delegate_in`).
    MissingSerializer,
    /// A blocking [`SsFuture::wait`](crate::SsFuture::wait) from a
    /// delegate context can never complete: the waited-on operation
    /// belongs to a serialization set that is (transitively) blocked
    /// behind the waiter itself. The immediate form is waiting on an
    /// operation in the set the delegate is currently executing (per-set
    /// FIFO orders it *after* the running operation); the general form is
    /// a cross-delegate cycle in the waits-for graph. The wait is
    /// rejected instead of deadlocking; the runtime is *not* poisoned —
    /// the waiter may recover.
    FutureDeadlock {
        /// The serialization set of the operation being waited on.
        set: SsId,
    },
    /// A delegated operation panicked. The runtime is poisoned: parallel
    /// results are no longer the deterministic sequential results, so all
    /// subsequent epoch operations report this error.
    DelegatePanicked(String),
    /// The runtime has been shut down.
    Terminated,
    /// A reducible view was requested from a thread that is neither the
    /// program context nor a delegate of this runtime.
    NoExecutorContext,
    /// Operation requires an aggregation epoch (e.g. explicit reduction).
    NotInAggregation,
    /// A reducible view was re-entered from inside its own access closure
    /// (would alias the executor's mutable view).
    ReentrantView,
    /// An ownership-tracked pointer was accessed by a second executor within
    /// one epoch (the paper's smart-pointer check, §3.1: pointed-to objects
    /// must not be "accessed by more than one owner in an isolation epoch").
    OwnershipViolation {
        /// Executor slot that owns the pointer this epoch.
        owner_slot: usize,
        /// Executor slot that attempted the access.
        accessor_slot: usize,
    },
    /// The online serializability auditor
    /// ([`RuntimeBuilder::audit`](crate::RuntimeBuilder::audit)) failed to
    /// certify the epoch: the execution observed is not equivalent to any
    /// per-set program-order serial execution. The report names the epoch,
    /// the set, and the violating operation pair. Only reachable when the
    /// runtime itself misbehaves (in this tree: under the `chaos`
    /// weakened-runtime feature).
    SerializabilityViolation(AuditReport),
}

impl fmt::Display for SsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SsError::NotInIsolation => write!(f, "delegate requires an isolation epoch"),
            SsError::AlreadyInIsolation => {
                write!(f, "begin_isolation: already in an isolation epoch")
            }
            SsError::NotIsolating => write!(f, "end_isolation: no isolation epoch in progress"),
            SsError::WrongContext => write!(
                f,
                "operation restricted to the program context was invoked from another thread"
            ),
            SsError::NestedDelegation => write!(
                f,
                "delegation from inside an inline-executing delegated operation is not supported \
                 (use a delegate context: Runtime::delegate_scope)"
            ),
            SsError::NestedOnProgram { set } => match set {
                Some(ss) => write!(
                    f,
                    "nested delegation targeted serialization set {ss:?}, which is assigned to \
                     the program context"
                ),
                None => write!(
                    f,
                    "nested delegation targeted an object claimed by a program-context mutation \
                     this isolation epoch"
                ),
            },
            SsError::AccessInProgress { instance } => write!(
                f,
                "delegation on object #{instance} raced a program-context access whose closure is \
                 still running"
            ),
            SsError::StateConflict {
                instance,
                was_read_shared,
            } => {
                write!(
                f,
                "writable object #{instance} used as both read-only and privately-writable in one \
                 isolation epoch (currently {})",
                if *was_read_shared { "read-only" } else { "privately-writable" }
            )
            }
            SsError::InconsistentSerializer {
                instance,
                tagged,
                got,
            } => write!(
                f,
                "serializer mapped object #{instance} to set {got:?} but it was tagged {tagged:?} \
                 earlier in this isolation epoch"
            ),
            SsError::MissingSerializer => write!(
                f,
                "object uses the null serializer; provide a set via delegate_in"
            ),
            SsError::FutureDeadlock { set } => write!(
                f,
                "waiting on a future for serialization set {set:?} from this delegate context \
                 would deadlock: the set is blocked behind the waiter itself"
            ),
            SsError::DelegatePanicked(msg) => write!(f, "a delegated operation panicked: {msg}"),
            SsError::Terminated => write!(f, "runtime has been terminated"),
            SsError::NoExecutorContext => write!(
                f,
                "calling thread is neither the program context nor a delegate of this runtime"
            ),
            SsError::NotInAggregation => write!(f, "operation requires an aggregation epoch"),
            SsError::ReentrantView => write!(
                f,
                "reducible view accessed re-entrantly from inside its own access closure"
            ),
            SsError::OwnershipViolation {
                owner_slot,
                accessor_slot,
            } => write!(
                f,
                "ownership-tracked pointer owned by executor {owner_slot} was accessed by \
                 executor {accessor_slot} in the same epoch"
            ),
            SsError::SerializabilityViolation(report) => {
                write!(f, "serializability audit failed: {report}")
            }
        }
    }
}

impl std::error::Error for SsError {}

/// Convenient alias used across the crate.
pub type SsResult<T> = Result<T, SsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SsError::InconsistentSerializer {
            instance: 7,
            tagged: SsId(1),
            got: SsId(2),
        };
        let s = e.to_string();
        assert!(s.contains("#7"));
        assert!(s.contains("SsId(1)"));
        assert!(s.contains("SsId(2)"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(SsError::NotInIsolation, SsError::NotInIsolation);
        assert_ne!(SsError::NotInIsolation, SsError::NotIsolating);
    }
}
