//! Multi-tenant correctness: **N concurrent sessions over one shared
//! delegate pool, each bit-identical to its own sequential oracle.**
//!
//! A random *program* per session — flat delegations, `delegate_iter`
//! batches, future-returning `delegate_with`, nested delegation and
//! mid-epoch ownership reclaims — runs on its own thread through its own
//! [`Session`] (its own epoch domain, pin namespace and drain counter)
//! while every other session runs concurrently over the *same* delegate
//! threads. Each session's final object states, read log and future log
//! must equal its own sequential interpretation, including per-set
//! operation order, with stealing off and on under every `AuditMode`.
//!
//! What this proves that oracle.rs cannot: tenants never observe each
//! other. A cross-tenant pin collision, a shared epoch stamp, a drain
//! counter covering the wrong session, or a thief migrating one tenant's
//! batch under another tenant's serial would all surface here as a log or
//! final-state mismatch in some interleaving.

use prometheus_rs::prelude::*;
use proptest::prelude::*;

/// One step of a generated per-session program (the audit_oracle.rs
/// superset: every submission shape the runtime supports).
#[derive(Debug, Clone)]
enum Op {
    /// Delegate `state = state * 31 + x` on object `obj`.
    Mutate { obj: usize, x: u64 },
    /// Batch-delegate the fold once per element of `xs` via `delegate_iter`.
    MutateBatch { obj: usize, xs: Vec<u64> },
    /// Future-returning delegation: fold `x`, return the new value; the
    /// future is waited (and its value logged) just before the epoch ends.
    MutateFuture { obj: usize, x: u64 },
    /// Nested delegation: the op on `obj` folds `x`, then — from its
    /// delegate context — delegates a fold of `mix(x)` into `obj`'s
    /// dedicated child object.
    MutateNested { obj: usize, x: u64 },
    /// Dependent read: mid-epoch ownership reclaim, value logged.
    Read { obj: usize },
    /// Close the session's current isolation epoch and open a new one.
    EpochBoundary,
}

fn mix(x: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
}

fn fold(s: u64, x: u64) -> u64 {
    s.wrapping_mul(31).wrapping_add(x)
}

fn op_strategy(k: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..k, any::<u64>()).prop_map(|(obj, x)| Op::Mutate { obj, x }),
        3 => (0..k, proptest::collection::vec(any::<u64>(), 0..7))
            .prop_map(|(obj, xs)| Op::MutateBatch { obj, xs }),
        2 => (0..k, any::<u64>()).prop_map(|(obj, x)| Op::MutateFuture { obj, x }),
        2 => (0..k, any::<u64>()).prop_map(|(obj, x)| Op::MutateNested { obj, x }),
        2 => (0..k).prop_map(|obj| Op::Read { obj }),
        1 => Just(Op::EpochBoundary),
    ]
}

/// What one session observes: final object states, final child states,
/// read log, future log — in program order.
type Observed = (Vec<u64>, Vec<u64>, Vec<u64>, Vec<u64>);

/// Sequential interpreter: the semantics every individual session must
/// reproduce regardless of what its co-tenants are doing.
fn interpret(k: usize, ops: &[Op]) -> Observed {
    let mut objects = vec![0u64; k];
    let mut children = vec![0u64; k];
    let mut read_log = Vec::new();
    let mut future_log = Vec::new();
    for op in ops {
        match op {
            Op::Mutate { obj, x } => objects[*obj] = fold(objects[*obj], *x),
            Op::MutateBatch { obj, xs } => {
                for x in xs {
                    objects[*obj] = fold(objects[*obj], *x);
                }
            }
            Op::MutateFuture { obj, x } => {
                objects[*obj] = fold(objects[*obj], *x);
                future_log.push(objects[*obj]);
            }
            Op::MutateNested { obj, x } => {
                objects[*obj] = fold(objects[*obj], *x);
                children[*obj] = fold(children[*obj], mix(*x));
            }
            Op::Read { obj } => read_log.push(objects[*obj]),
            Op::EpochBoundary => {}
        }
    }
    (objects, children, read_log, future_log)
}

fn audit_mode_of(idx: usize) -> AuditMode {
    match idx % 3 {
        0 => AuditMode::Off,
        1 => AuditMode::Full,
        _ => AuditMode::Sample(3),
    }
}

/// Unwraps a runtime result on a session thread, naming the operation it
/// belonged to. The program is deterministic but the schedule is not, so
/// when a one-in-fifty interleaving fails (ROADMAP item 3) the panic has
/// to carry everything needed to chase it: which op, and which error.
#[track_caller]
fn ok<T>(result: Result<T, SsError>, i: usize, what: &str) -> T {
    result.unwrap_or_else(|e| panic!("session op #{i} ({what}) failed: {e:?}"))
}

/// Runs one session's program to completion on the current thread (which
/// becomes the session's program thread) and returns what it observed.
fn run_program(session: &Session, k: usize, ops: &[Op]) -> Observed {
    let objects: Vec<Writable<u64, SequenceSerializer>> =
        (0..k).map(|_| Writable::new(session, 0)).collect();
    let children: Vec<Writable<u64, SequenceSerializer>> =
        (0..k).map(|_| Writable::new(session, 0)).collect();
    let mut read_log = Vec::new();
    let mut future_log = Vec::new();
    let mut pending_futures: Vec<(usize, SsFuture<u64>)> = Vec::new();

    ok(session.begin_isolation(), 0, "first begin_isolation");
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Mutate { obj, x } => {
                let x = *x;
                ok(
                    objects[*obj].delegate(move |s| *s = fold(*s, x)),
                    i,
                    "delegate",
                );
            }
            Op::MutateBatch { obj, xs } => {
                let run = xs
                    .clone()
                    .into_iter()
                    .map(|x| move |s: &mut u64| *s = fold(*s, x));
                let n = ok(objects[*obj].delegate_iter(run), i, "delegate_iter");
                assert_eq!(n, xs.len());
            }
            Op::MutateFuture { obj, x } => {
                let x = *x;
                let fut = objects[*obj].delegate_with(move |s| {
                    *s = fold(*s, x);
                    *s
                });
                pending_futures.push((i, ok(fut, i, "delegate_with")));
            }
            Op::MutateNested { obj, x } => {
                let x = *x;
                // A plain `Runtime` clone of the session handle keeps the
                // tenant identity; nested submits inside the delegated op
                // stay inside this session's namespace.
                let rt2 = Runtime::clone(session);
                let child = children[*obj].clone();
                let parent = objects[*obj].delegate(move |s| {
                    *s = fold(*s, x);
                    let nested = rt2
                        .delegate_scope(|cx| cx.delegate(&child, move |c| *c = fold(*c, mix(x))));
                    ok(ok(nested, i, "delegate_scope"), i, "nested delegate");
                });
                ok(parent, i, "delegate (nesting parent)");
            }
            Op::Read { obj } => read_log.push(ok(objects[*obj].call_mut(|s| *s), i, "call_mut")),
            Op::EpochBoundary => {
                for (j, fut) in pending_futures.drain(..) {
                    future_log.push(ok(fut.wait(), j, "future wait at epoch boundary"));
                }
                ok(session.end_isolation(), i, "end_isolation");
                ok(session.begin_isolation(), i, "begin_isolation");
            }
        }
    }
    for (j, fut) in pending_futures.drain(..) {
        future_log.push(ok(fut.wait(), j, "future wait at program end"));
    }
    ok(session.end_isolation(), ops.len(), "final end_isolation");

    let finals = objects
        .iter()
        .map(|o| ok(o.call(|s| *s), ops.len(), "final call"))
        .collect();
    let child_finals = children
        .iter()
        .map(|o| ok(o.call(|s| *s), ops.len(), "final child call"))
        .collect();
    (finals, child_finals, read_log, future_log)
}

/// Builds one runtime, opens one session per program (each on its own
/// thread), runs them all concurrently, and returns each session's
/// observations in program order.
fn run_sessions(
    k: usize,
    programs: &[Vec<Op>],
    delegates: usize,
    stealing: bool,
    audit: AuditMode,
) -> Vec<Observed> {
    // Delegates ≥ 1 so MutateNested always has a real delegate context
    // (the inline fallback rejects nested delegation; covered elsewhere).
    let rt = Runtime::builder()
        .delegate_threads(delegates.max(1))
        .stealing(stealing)
        .audit(audit)
        .build()
        .unwrap();
    let results: Vec<Observed> = std::thread::scope(|scope| {
        let handles: Vec<_> = programs
            .iter()
            .map(|ops| {
                let rt = rt.clone();
                scope.spawn(move || {
                    let session = ok(rt.session(), 0, "open session");
                    let observed = run_program(&session, k, ops);
                    // The session's own barrier has run: its drain counter
                    // must be settled and its accounting must balance.
                    let s = session.session_stats();
                    assert_eq!(s.in_flight, 0, "session not drained: {s:?}");
                    assert_eq!(s.submitted, s.completed, "lost or phantom ops: {s:?}");
                    observed
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Every handle dropped on join: the tenant registry must be empty
    // again (root epoch boundaries may reset steal bookkeeping again).
    assert_eq!(rt.stats().sessions_active, 0, "tenant leak");
    results
}

fn clamp(k: usize, ops: Vec<Op>) -> Vec<Op> {
    ops.into_iter()
        .map(|op| match op {
            Op::Mutate { obj, x } => Op::Mutate { obj: obj % k, x },
            Op::MutateBatch { obj, xs } => Op::MutateBatch { obj: obj % k, xs },
            Op::MutateFuture { obj, x } => Op::MutateFuture { obj: obj % k, x },
            Op::MutateNested { obj, x } => Op::MutateNested { obj: obj % k, x },
            Op::Read { obj } => Op::Read { obj: obj % k },
            other => other,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The tentpole oracle: up to three concurrent sessions, each with an
    /// independent random program, swept over the full
    /// stealing × `AuditMode` grid. Every session must
    /// match its own interpreter exactly.
    #[test]
    fn concurrent_sessions_each_match_their_sequential_oracle(
        k in 1usize..4,
        programs in proptest::collection::vec(
            proptest::collection::vec(op_strategy(3), 0..60),
            1..4,
        ),
        delegates in 1usize..4,
        stealing in any::<bool>(),
        audit_idx in 0usize..3,
    ) {
        let programs: Vec<Vec<Op>> =
            programs.into_iter().map(|ops| clamp(k, ops)).collect();
        let expected: Vec<Observed> =
            programs.iter().map(|ops| interpret(k, ops)).collect();
        let actual = run_sessions(
            k,
            &programs,
            delegates,
            stealing,
            audit_mode_of(audit_idx),
        );
        prop_assert_eq!(&actual, &expected);
    }

    /// The root runtime is itself a tenant: a session runs concurrently
    /// with the root program thread driving the same pool, and *both*
    /// match their oracles (the root is domain 0 of the same machinery,
    /// and must stay oracle-identical while a tenant is live).
    #[test]
    fn root_and_session_coexist_and_both_match(
        root_ops in proptest::collection::vec(op_strategy(3), 0..50),
        session_ops in proptest::collection::vec(op_strategy(3), 0..50),
        delegates in 1usize..4,
        stealing in any::<bool>(),
    ) {
        let k = 3;
        let root_ops = clamp(k, root_ops);
        let session_ops = clamp(k, session_ops);

        let rt = Runtime::builder()
            .delegate_threads(delegates)
            .stealing(stealing)
            .audit(AuditMode::Full)
            .build()
            .unwrap();

        let session_actual = std::thread::scope(|scope| {
            let rt2 = rt.clone();
            let ops = &session_ops;
            let handle = scope.spawn(move || {
                let session = rt2.session().unwrap();
                run_program(&session, k, ops)
            });

            // Root program, interleaved with the session on the shared
            // pool. Root objects use raw (non-namespaced) keys.
            let objects: Vec<Writable<u64, SequenceSerializer>> =
                (0..k).map(|_| Writable::new(&rt, 0)).collect();
            let mut read_log = Vec::new();
            rt.begin_isolation().unwrap();
            for op in &root_ops {
                match op {
                    Op::Mutate { obj, x } | Op::MutateFuture { obj, x }
                    | Op::MutateNested { obj, x } => {
                        // Root side only needs flat shapes here; the full
                        // root battery is oracle.rs. Fold all three the
                        // same way so the interpreter below stays simple.
                        let x = *x;
                        objects[*obj].delegate(move |s| *s = fold(*s, x)).unwrap();
                    }
                    Op::MutateBatch { obj, xs } => {
                        objects[*obj]
                            .delegate_iter(xs.clone().into_iter().map(|x| {
                                move |s: &mut u64| *s = fold(*s, x)
                            }))
                            .unwrap();
                    }
                    Op::Read { obj } => {
                        read_log.push(objects[*obj].call_mut(|s| *s).unwrap())
                    }
                    Op::EpochBoundary => {
                        rt.end_isolation().unwrap();
                        rt.begin_isolation().unwrap();
                    }
                }
            }
            rt.end_isolation().unwrap();

            // Root-side oracle: flatten the fancy shapes to flat folds,
            // mirroring the submission above.
            let mut exp_objects = vec![0u64; k];
            let mut exp_reads = Vec::new();
            for op in &root_ops {
                match op {
                    Op::Mutate { obj, x } | Op::MutateFuture { obj, x }
                    | Op::MutateNested { obj, x } => {
                        exp_objects[*obj] = fold(exp_objects[*obj], *x)
                    }
                    Op::MutateBatch { obj, xs } => {
                        for x in xs {
                            exp_objects[*obj] = fold(exp_objects[*obj], *x);
                        }
                    }
                    Op::Read { obj } => exp_reads.push(exp_objects[*obj]),
                    Op::EpochBoundary => {}
                }
            }
            let finals: Vec<u64> =
                objects.iter().map(|o| o.call(|s| *s).unwrap()).collect();
            assert_eq!(finals, exp_objects, "root finals diverged");
            assert_eq!(read_log, exp_reads, "root read log diverged");

            handle.join().unwrap()
        });
        prop_assert_eq!(&session_actual, &interpret(k, &session_ops));
    }
}

/// Deterministic smoke: many sessions, one delegate — heavy contention on
/// a single executor must still keep every tenant's FIFO intact. The
/// session/delegate counts come from the CI interleaving matrix
/// (`SS_TEST_SESSIONS` / `SS_TEST_DELEGATES`) when set.
#[test]
fn session_matrix_smoke() {
    let sessions: usize = std::env::var("SS_TEST_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let delegates: usize = std::env::var("SS_TEST_DELEGATES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);

    let rt = Runtime::builder()
        .delegate_threads(delegates)
        .stealing(true)
        .audit(AuditMode::Full)
        .build()
        .unwrap();

    std::thread::scope(|scope| {
        for sid in 0..sessions {
            let rt = rt.clone();
            scope.spawn(move || {
                let session = rt.session().unwrap();
                let w: Writable<u64, SequenceSerializer> = Writable::new(&session, 0);
                let mut expected = 0u64;
                for epoch in 0..4u64 {
                    session.begin_isolation().unwrap();
                    for i in 0..200u64 {
                        let x = mix(sid as u64 ^ (epoch << 32) ^ i);
                        expected = fold(expected, x);
                        w.delegate(move |s| *s = fold(*s, x)).unwrap();
                    }
                    session.end_isolation().unwrap();
                }
                assert_eq!(w.call(|s| *s).unwrap(), expected);
                let s = session.session_stats();
                assert_eq!(s.submitted, 800);
                assert_eq!(s.completed, 800);
                assert_eq!(s.in_flight, 0);
                assert_eq!(s.epochs, 4);
            });
        }
    });
    assert_eq!(rt.stats().sessions_active, 0);
}
