//! # prometheus-rs — Serialization Sets in Rust
//!
//! A reproduction of *Serialization Sets: A Dynamic Dependence-Based Parallel
//! Execution Model* (Allen, Sridharan, Sohi — PPoPP 2009) and its Prometheus
//! runtime, as a Rust workspace.
//!
//! This façade crate re-exports the public API of the member crates:
//!
//! * [`ss_core`] — the serialization-sets runtime (epochs, serializers,
//!   delegation, `Writable` / `ReadOnly` / `Reducible` wrappers).
//! * [`ss_queue`] — the FastForward-style SPSC communication queues.
//! * [`ss_collections`] — reducible shared data structures.
//! * [`ss_workloads`] — deterministic synthetic workload generators.
//! * [`ss_apps`] — the paper's eight evaluation benchmarks in sequential,
//!   conventional-parallel, and serialization-sets versions.
//!
//! ## Quickstart
//!
//! ```
//! use prometheus_rs::prelude::*;
//!
//! // One program context plus two delegate threads.
//! let rt = Runtime::builder().delegate_threads(2).build().unwrap();
//!
//! // Privately-writable accumulators, serialized by object identity.
//! let counters: Vec<Writable<u64>> =
//!     (0..4).map(|_| Writable::new(&rt, 0u64)).collect();
//!
//! rt.begin_isolation().unwrap();
//! for step in 0..1000u64 {
//!     let c = &counters[(step % 4) as usize];
//!     c.delegate(move |n| *n += step).unwrap();
//! }
//! rt.end_isolation().unwrap();
//!
//! let total: u64 = counters.iter().map(|c| c.call(|n| *n).unwrap()).sum();
//! assert_eq!(total, (0..1000u64).sum());
//! ```

pub use ss_apps;
pub use ss_collections;
pub use ss_core;
pub use ss_queue;
pub use ss_workloads;

/// Commonly used items, in one import.
pub mod prelude {
    pub use ss_collections::{
        OwnerTracked, ReducibleCounter, ReducibleHistogram, ReducibleMap, ReducibleSet,
        ReducibleStats, ReducibleVec,
    };
    pub use ss_core::{
        doall, fingerprint_of, AuditMode, AuditReport, AuditViolation, DelegateContext, Executor,
        Fingerprint, FnSerializer, MemoValue, NullSerializer, ObjectSerializer, ReadOnly, Reduce,
        Reducible, Runtime, RuntimeBuilder, SequenceSerializer, Serializer, Session, SessionStats,
        SsError, SsFuture, SsId, Stats, StealPolicy, TraceEvent, TraceExecutor, TraceKind,
        Writable,
    };
}
