//! The Prometheus wrapper classes (§3.1) in Rust form.
//!
//! "Prometheus provides a set of wrapper classes that implement the different
//! types of data domains. … The wrapper classes wall off objects and mediate
//! all method calls so that the safety of operations on them can be monitored
//! via a combination of static and dynamic checks."
//!
//! * [`Writable`] — privately-writable (or epoch-read-only) domains; supports
//!   `delegate` / `delegate_in` / `call` / `call_mut` and the per-epoch state
//!   machine.
//! * [`ReadOnly`] — immutable shared domains, freely readable from any
//!   context.
//! * [`Reducible`] — per-executor views merged by a [`Reduce`] operation at
//!   the first aggregation-epoch access.
//!
//! Objects must be constructed *inside* the wrappers (they take `T` by
//! value), reproducing the paper's rule that wrapped objects "cannot be
//! created by passing in a pointer or reference to an existing object".

mod read_only;
mod reducible;
mod writable;

pub use read_only::ReadOnly;
pub use reducible::{Reduce, Reducible};
pub use writable::{doall, Writable};
pub(crate) use writable::{Memo, NoMemo, Submitter, Void};

/// Extracts a human-readable message from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
