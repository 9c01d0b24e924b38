//! # ss-core — the serialization-sets runtime
//!
//! Rust implementation of the parallel execution model from *Serialization
//! Sets: A Dynamic Dependence-Based Parallel Execution Model* (Allen,
//! Sridharan, Sohi — PPoPP 2009), the paper's "Prometheus" runtime.
//!
//! ## The model in one paragraph
//!
//! A sequential program is augmented with **serializers**: code that runs at
//! each delegation point and maps the operation to a **serialization set**
//! ([`SsId`]). The runtime executes operations of the same set in program
//! order and may execute different sets concurrently. Execution alternates
//! between **aggregation epochs** (ordinary sequential execution) and
//! **isolation epochs**, during which data is partitioned into read-only and
//! privately-writable domains and potentially-independent operations are
//! *delegated*. Dependent uses implicitly *reclaim ownership* by flushing the
//! owning delegate's queue. The result is deterministic parallelism — "data
//! races cannot occur because each writable data element is accessed by at
//! most one operation at a time" (§2).
//!
//! ## Mapping from the paper's API (Table 1)
//!
//! | Prometheus                        | ss-core                                  |
//! |-----------------------------------|------------------------------------------|
//! | `initialize` / `terminate`        | [`Runtime::builder`] / [`Runtime::shutdown`] (or drop) |
//! | `begin_isolation`/`end_isolation` | [`Runtime::begin_isolation`] / [`Runtime::end_isolation`] |
//! | `sleep`                           | [`Runtime::sleep`]                       |
//! | `writable<T, S>`                  | [`Writable<T, S>`]                       |
//! | `read_only<T>`                    | [`ReadOnly<T>`]                          |
//! | `reducible<T>`                    | [`Reducible<T>`] + [`Reduce`]            |
//! | `call` (const / non-const)        | [`Writable::call`] / [`Writable::call_mut`] |
//! | `delegate(&T::method, args…)`     | [`Writable::delegate`] (closure capture) |
//! | `delegate(ss, &T::method, args…)` | [`Writable::delegate_in`]                |
//! | `doall`                           | [`doall`]                                |
//! | object / sequence / null serializer | [`ObjectSerializer`] / [`SequenceSerializer`] / [`NullSerializer`] |
//! | debug build (sequential simulation) | [`delegate_threads(0)`](RuntimeBuilder::delegate_threads) |
//!
//! ## Example: Figure 1's first isolation epoch
//!
//! ```
//! use ss_core::{ReadOnly, Runtime, Writable};
//!
//! let rt = Runtime::builder().delegate_threads(2).build().unwrap();
//!
//! // Writable domains a, b; read-only domains c, d.
//! let a = Writable::<Vec<u64>>::new(&rt, vec![]);
//! let b = Writable::<Vec<u64>>::new(&rt, vec![]);
//! let c = ReadOnly::new(10u64);
//! let d = ReadOnly::new(20u64);
//!
//! rt.begin_isolation().unwrap();
//! // x(c) on b, then y() on a, z(d) on b, … — operations on a and b land in
//! // different serialization sets and may run concurrently; the two
//! // operations on b stay in program order.
//! let (c1, d1) = (c.clone(), d.clone());
//! b.delegate(move |v| v.push(*c1.get())).unwrap();
//! a.delegate(|v| v.push(1)).unwrap();
//! b.delegate(move |v| v.push(*d1.get())).unwrap();
//! rt.end_isolation().unwrap();
//!
//! assert_eq!(b.call(|v| v.clone()).unwrap(), vec![10, 20]);
//! assert_eq!(a.call(|v| v.len()).unwrap(), 1);
//! ```

#![warn(missing_docs)]

mod audit;
mod cell;
mod config;
mod error;
mod fingerprint;
mod future;
mod invocation;
mod runtime;
mod serializer;
mod stats;
mod trace;
mod wrappers;

pub use audit::{AuditMode, AuditReport, AuditViolation};
#[cfg(feature = "chaos")]
pub use config::ChaosKnobs;
pub use config::{RuntimeBuilder, StealPolicy};
pub use error::{SsError, SsResult};
pub use fingerprint::{fingerprint_of, Fingerprint, MemoValue};
pub use future::SsFuture;
pub use runtime::{DelegateContext, Executor, Runtime, Session, SessionStats};
pub use serializer::{
    FnSerializer, NullSerializer, ObjectSerializer, SequenceSerializer, SerializeCx, Serializer,
    SsId,
};
pub use stats::Stats;
pub use trace::{format_trace, TraceEvent, TraceExecutor, TraceKind};
pub use wrappers::{doall, ReadOnly, Reduce, Reducible, Writable};
