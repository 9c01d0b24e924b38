//! The serializability auditor, attacked from both sides.
//!
//! **Soundness (no false positives):** a proptest battery generates random
//! programs over every shape the runtime supports — flat delegations,
//! `delegate_iter` batches, future-returning `delegate_with`, and nested
//! delegation from delegate contexts — and runs each under
//! [`AuditMode::Full`] with stealing off and on.
//! Every epoch must certify (an `SsError::SerializabilityViolation` would
//! fail the unwraps) and the result must still match the sequential
//! interpreter.
//!
//! **Completeness (the auditor has teeth):** with the `chaos` feature,
//! deterministic legs switch on one weakened-runtime knob at a time —
//! reorder a ring drain, skip the reclaim fence, steal without re-pinning,
//! retract a tail whose set its delegate still runs — and assert the
//! auditor reports a violation of the *right kind*, naming a real
//! operation pair. Run them with
//! `cargo test --features chaos --test audit_oracle`.

use prometheus_rs::prelude::*;
use proptest::prelude::*;

/// One step of a generated program (superset of the oracle.rs shapes,
/// adding futures and nested delegation).
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
    /// dedicated child object (strict parent→child layering keeps the
    /// child single-producer, hence deterministic).
    MutateNested { obj: usize, x: u64 },
    /// Dependent read: mid-epoch ownership reclaim, value logged.
    Read { obj: usize },
    /// Close the current isolation epoch and open a new one.
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

/// Sequential interpreter: objects, per-object children, read log, future
/// log.
fn interpret(k: usize, ops: &[Op]) -> (Vec<u64>, Vec<u64>, Vec<u64>, Vec<u64>) {
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

/// Runs the program through the runtime with the auditor fully on.
///
/// Delegates are ≥ 1 so that `MutateNested` parents mostly run on a
/// delegate; one the program thread retracts runs with its own delegate
/// context, which nests the same way.
fn run_audited(
    k: usize,
    ops: &[Op],
    delegates: usize,
    stealing: bool,
) -> (Vec<u64>, Vec<u64>, Vec<u64>, Vec<u64>) {
    let rt = Runtime::builder()
        .delegate_threads(delegates.max(1))
        .stealing(stealing)
        .audit(AuditMode::Full)
        .build()
        .unwrap();
    let objects: Vec<Writable<u64, SequenceSerializer>> =
        (0..k).map(|_| Writable::new(&rt, 0)).collect();
    let children: Vec<Writable<u64, SequenceSerializer>> =
        (0..k).map(|_| Writable::new(&rt, 0)).collect();
    let mut read_log = Vec::new();
    let mut future_log = Vec::new();
    let mut pending_futures: Vec<SsFuture<u64>> = Vec::new();

    rt.begin_isolation().unwrap();
    for op in ops {
        match op {
            Op::Mutate { obj, x } => {
                let x = *x;
                objects[*obj].delegate(move |s| *s = fold(*s, x)).unwrap();
            }
            Op::MutateBatch { obj, xs } => {
                let n = objects[*obj]
                    .delegate_iter(
                        xs.clone()
                            .into_iter()
                            .map(|x| move |s: &mut u64| *s = fold(*s, x)),
                    )
                    .unwrap();
                assert_eq!(n, xs.len());
            }
            Op::MutateFuture { obj, x } => {
                let x = *x;
                let fut = objects[*obj]
                    .delegate_with(move |s| {
                        *s = fold(*s, x);
                        *s
                    })
                    .unwrap();
                pending_futures.push(fut);
            }
            Op::MutateNested { obj, x } => {
                let x = *x;
                let rt2 = rt.clone();
                let child = children[*obj].clone();
                objects[*obj]
                    .delegate(move |s| {
                        *s = fold(*s, x);
                        rt2.delegate_scope(|cx| {
                            cx.delegate(&child, move |c| *c = fold(*c, mix(x))).unwrap();
                        })
                        .unwrap();
                    })
                    .unwrap();
            }
            Op::Read { obj } => read_log.push(objects[*obj].call_mut(|s| *s).unwrap()),
            Op::EpochBoundary => {
                for fut in pending_futures.drain(..) {
                    future_log.push(fut.wait().unwrap());
                }
                rt.end_isolation().unwrap();
                rt.begin_isolation().unwrap();
            }
        }
    }
    for fut in pending_futures.drain(..) {
        future_log.push(fut.wait().unwrap());
    }
    rt.end_isolation().unwrap();

    let s = rt.stats();
    assert!(s.epochs_audited > 0, "auditor never engaged: {s:?}");

    let finals = objects.iter().map(|o| o.call(|s| *s).unwrap()).collect();
    let child_finals = children.iter().map(|o| o.call(|s| *s).unwrap()).collect();
    (finals, child_finals, read_log, future_log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Zero false positives: fully audited runs over every program shape
    /// with stealing off and on certify *and* match the sequential
    /// interpreter. The auditor must certify op-granularity
    /// (quiescent-tail) steals too: every handover the thief performs is
    /// checked against the per-operation logical-order tokens.
    #[test]
    fn fully_audited_runs_certify_and_match_oracle(
        k in 1usize..5,
        ops in proptest::collection::vec(op_strategy(4), 0..100),
        delegates in 1usize..4,
        stealing in any::<bool>(),
    ) {
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|op| match op {
                Op::Mutate { obj, x } => Op::Mutate { obj: obj % k, x },
                Op::MutateBatch { obj, xs } => Op::MutateBatch { obj: obj % k, xs },
                Op::MutateFuture { obj, x } => Op::MutateFuture { obj: obj % k, x },
                Op::MutateNested { obj, x } => Op::MutateNested { obj: obj % k, x },
                Op::Read { obj } => Op::Read { obj: obj % k },
                other => other,
            })
            .collect();
        let expected = interpret(k, &ops);
        let actual = run_audited(
            k,
            &ops,
            delegates,
            stealing,
        );
        prop_assert_eq!(&actual, &expected);
    }

    /// Sampling must never *create* differences: a `Sample(3)` run equals
    /// a `Full` run equals the interpreter (flat/batch shapes suffice —
    /// the modes share every code path past the sampling decision).
    #[test]
    fn sampled_and_full_runs_agree(
        ops in proptest::collection::vec(op_strategy(3), 0..60),
    ) {
        let ops: Vec<Op> = ops
            .into_iter()
            .filter(|op| !matches!(op, Op::MutateNested { .. }))
            .map(|op| match op {
                Op::Mutate { obj, x } => Op::Mutate { obj: obj % 3, x },
                Op::MutateBatch { obj, xs } => Op::MutateBatch { obj: obj % 3, xs },
                Op::MutateFuture { obj, x } => Op::MutateFuture { obj: obj % 3, x },
                Op::Read { obj } => Op::Read { obj: obj % 3 },
                other => other,
            })
            .collect();
        let full = run_audited(3, &ops, 2, false);
        prop_assert_eq!(&full, &interpret(3, &ops));
    }
}

/// Off mode must leave no audit trace at all (the zero-overhead default).
#[test]
fn audit_off_records_nothing() {
    let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    let w: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
    rt.isolated(|| {
        for i in 0..100u64 {
            w.delegate(move |s| *s = fold(*s, i)).unwrap();
        }
    })
    .unwrap();
    let s = rt.stats();
    assert_eq!(s.epochs_audited, 0);
    assert_eq!(s.audit_edges, 0);
    assert_eq!(rt.audit_mode(), AuditMode::Off);
    assert_eq!(rt.audit_graph_size(), 0);
}

/// Sample(n) audits every n-th epoch: counters reflect the cadence.
#[test]
fn sample_mode_audits_the_configured_fraction() {
    let rt = Runtime::builder()
        .delegate_threads(1)
        .audit(AuditMode::Sample(4))
        .build()
        .unwrap();
    let w: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
    for _ in 0..16 {
        rt.isolated(|| {
            w.delegate(|s| *s = fold(*s, 1)).unwrap();
        })
        .unwrap();
    }
    let s = rt.stats();
    assert_eq!(s.isolation_epochs, 16);
    assert_eq!(s.epochs_audited, 4, "every 4th of 16 epochs: {s:?}");
}

/// The access gate must not outrun an operation's audit record. An
/// object's `pending` count drops inside the operation's closure, the
/// audit record lands after the closure returns; a reclaim that trusted
/// `pending == 0` in an audited epoch reached the gate between the two
/// and reported a false `BarrierOverrun`. The loop forces that window:
/// it polls `pending` down to 0 and reclaims at once.
fn reclaim_right_after_pending_drops(rt: &Runtime) {
    let w: Writable<u64, SequenceSerializer> = Writable::new(rt, 0);
    rt.begin_isolation().unwrap();
    for i in 1..=50_000u64 {
        w.delegate(|s| *s += 1).unwrap();
        let mut spins = 0u8;
        while w.pending_operations() != 0 {
            // Spin to land inside the window; yield every 256th time so a
            // host with fewer CPUs than threads still lets the delegate run.
            spins = spins.wrapping_add(1);
            if spins == 0 {
                std::thread::yield_now();
            }
        }
        assert_eq!(w.call(|s| *s), Ok(i), "reclaim {i}");
    }
    rt.end_isolation().unwrap();
    assert!(rt.stats().epochs_audited > 0);
}

#[test]
fn access_gate_waits_for_the_audit_record_root() {
    let rt = Runtime::builder()
        .delegate_threads(1)
        .audit(AuditMode::Full)
        .build()
        .unwrap();
    reclaim_right_after_pending_drops(&rt);
}

#[test]
fn access_gate_waits_for_the_audit_record_session() {
    let rt = Runtime::builder()
        .delegate_threads(1)
        .audit(AuditMode::Full)
        .build()
        .unwrap();
    let session = rt.session().unwrap();
    reclaim_right_after_pending_drops(&session);
}

/// Epochs in which the program thread retracts fresh sets at the barrier
/// and a delegate then nests into one of them certify under
/// `AuditMode::Full`, and match the sequential result. The one delegate is
/// held in a blocker, claimed alone, while `t`'s run and `u` are pushed
/// behind it; the barrier retracts both, `u`'s operation releases the
/// blocker, and the blocker nests into `t` — now the program executor's,
/// so the nested folds ride `Lane::Program` to the program thread.
#[test]
fn retracted_sets_with_nested_submits_certify() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const EPOCHS: u64 = 25;
    let rt = Runtime::builder()
        .delegate_threads(1)
        .queue_capacity(8)
        .audit(AuditMode::Full)
        .build()
        .unwrap();
    let [b, t, u]: [Writable<u64, SequenceSerializer>; 3] = [(); 3].map(|()| Writable::new(&rt, 0));
    let mut want = 0;
    for e in 0..EPOCHS {
        rt.begin_isolation().unwrap();
        let [started, gate] = [(); 2].map(|()| Arc::new(AtomicBool::new(false)));
        let (s, g, rt2, t2) = (
            Arc::clone(&started),
            Arc::clone(&gate),
            rt.clone(),
            t.clone(),
        );
        b.delegate(move |_| {
            s.store(true, Ordering::Release);
            while !g.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            rt2.delegate_scope(|cx| {
                for k in 0..2 {
                    cx.delegate(&t2, move |v| *v = fold(*v, mix(e + k)))
                        .unwrap();
                }
            })
            .unwrap();
        })
        .unwrap();
        while !started.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        t.delegate_iter((0..3).map(|k| move |v: &mut u64| *v = fold(*v, e * 3 + k)))
            .unwrap();
        u.delegate(move |v| {
            *v += 1;
            gate.store(true, Ordering::Release);
        })
        .unwrap();
        rt.end_isolation().unwrap();
        want = (0..3).fold(want, |v, k| fold(v, e * 3 + k));
        want = (0..2).fold(want, |v, k| fold(v, mix(e + k)));
    }
    let s = rt.stats();
    assert_eq!(s.epochs_audited, EPOCHS);
    // `t`'s three and `u`'s one retracted, the two nested folds drained
    // from the program thread's lane.
    assert_eq!(s.inline_executions, 6 * EPOCHS, "{s:?}");
    assert_eq!(s.nested_delegations, 2 * EPOCHS);
    assert_eq!(
        (t.call(|v| *v).unwrap(), u.call(|v| *v).unwrap()),
        (want, EPOCHS)
    );
}

/// Epochs in which the program thread's future wait retracts a started
/// set's quiescent tail, and a delegate then nests into the set, certify
/// under `AuditMode::Full` and match the sequential result. `s`'s first
/// operation runs on the one delegate and retires before the blocker is
/// popped; `s`'s next three are pushed behind the held blocker as futures,
/// and the `wait_all` over them takes them whole — the set's executor
/// handed over to the program thread, as a stolen tail's is to its thief.
/// The last of them releases the blocker, whose nested fold into `s` rides
/// `Lane::Program`.
#[test]
fn quiescent_tails_retracted_at_future_waits_certify() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const EPOCHS: u64 = 25;
    let rt = Runtime::builder()
        .delegate_threads(1)
        .queue_capacity(8)
        .audit(AuditMode::Full)
        .build()
        .unwrap();
    let [b, s]: [Writable<u64, SequenceSerializer>; 2] = [(); 2].map(|()| Writable::new(&rt, 0));
    let mut want = 0;
    for e in 0..EPOCHS {
        rt.begin_isolation().unwrap();
        let [ran, started, gate] = [(); 3].map(|()| Arc::new(AtomicBool::new(false)));
        let r = Arc::clone(&ran);
        s.delegate(move |v| {
            *v = fold(*v, e);
            r.store(true, Ordering::Release);
        })
        .unwrap();
        while !ran.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        let (st, g, rt2, s2) = (
            Arc::clone(&started),
            Arc::clone(&gate),
            rt.clone(),
            s.clone(),
        );
        b.delegate(move |_| {
            st.store(true, Ordering::Release);
            // Bounded, so a runtime that never retracts fails the
            // assertions below instead of hanging.
            let deadline = Instant::now() + Duration::from_secs(5);
            while !g.load(Ordering::Acquire) && Instant::now() < deadline {
                std::hint::spin_loop();
            }
            rt2.delegate_scope(|cx| cx.delegate(&s2, move |v| *v = fold(*v, mix(e))))
                .unwrap()
                .unwrap();
        })
        .unwrap();
        while !started.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        let futs: Vec<_> = (1..=3)
            .map(|k| {
                let g = (k == 3).then(|| Arc::clone(&gate));
                s.delegate_with(move |v| {
                    *v = fold(*v, e * 10 + k);
                    if let Some(g) = &g {
                        g.store(true, Ordering::Release);
                    }
                    *v
                })
                .unwrap()
            })
            .collect();
        let got = SsFuture::wait_all(futs).unwrap();
        rt.end_isolation().unwrap();
        want = fold(want, e);
        for (k, v) in (1..=3).zip(got) {
            want = fold(want, e * 10 + k);
            assert_eq!(v, want);
        }
        want = fold(want, mix(e));
    }
    let st = rt.stats();
    assert_eq!(st.epochs_audited, EPOCHS);
    // Three retracted and one nested fold drained from the lane, per epoch.
    assert_eq!(st.inline_executions, 4 * EPOCHS, "{st:?}");
    assert_eq!(st.nested_delegations, EPOCHS);
    assert_eq!(s.call(|v| *v).unwrap(), want);
}

// ----------------------------------------------------------------------
// chaos legs: each weakened-runtime knob must trip the auditor with the
// right violation kind, naming a real operation pair.

#[cfg(feature = "chaos")]
mod chaos {
    use super::fold;
    use prometheus_rs::prelude::*;
    use prometheus_rs::ss_core::{AuditViolation, ChaosKnobs, SsError};
    use std::time::Duration;

    /// `reorder_drain` swaps adjacent ring entries — the auditor must see
    /// the per-producer FIFO break as an order inversion.
    #[test]
    fn reorder_drain_is_caught_as_order_inversion() {
        // The swap needs ≥ 2 entries resident in the ring at once; the
        // leading sleep op lets the 32-op batch land behind it. Retry a
        // few epochs in case the scheduler still drains one-by-one.
        for _attempt in 0..10 {
            let rt = Runtime::builder()
                .delegate_threads(1)
                .audit(AuditMode::Full)
                .chaos(ChaosKnobs {
                    reorder_drain: true,
                    ..Default::default()
                })
                .build()
                .unwrap();
            let w: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
            rt.begin_isolation().unwrap();
            w.delegate(|_| std::thread::sleep(Duration::from_millis(30)))
                .unwrap();
            let n = w
                .delegate_iter((0..32u64).map(|i| move |s: &mut u64| *s = fold(*s, i)))
                .unwrap();
            assert_eq!(n, 32);
            match rt.end_isolation() {
                Err(SsError::SerializabilityViolation(report)) => {
                    match report.kind {
                        AuditViolation::OrderInversion { earlier, later, .. } => {
                            assert!(earlier < later, "pair must be real ops: {report}");
                        }
                        other => panic!("wrong violation kind: {other:?}"),
                    }
                    assert!(report.epoch > 0);
                    return;
                }
                Ok(()) => continue, // entries drained one-by-one; retry
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        panic!("reorder_drain never tripped the auditor in 10 epochs");
    }

    /// `skip_reclaim_fence` lets a program-context access proceed while a
    /// delegated operation is still queued/executing — the access gate
    /// must refuse with a barrier overrun *before* the value is touched.
    #[test]
    fn skip_reclaim_fence_is_caught_at_the_access_gate() {
        let rt = Runtime::builder()
            .delegate_threads(1)
            .audit(AuditMode::Full)
            .chaos(ChaosKnobs {
                skip_reclaim_fence: true,
                ..Default::default()
            })
            .build()
            .unwrap();
        let w: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
        rt.begin_isolation().unwrap();
        w.delegate(|s| {
            std::thread::sleep(Duration::from_millis(100));
            *s = 1;
        })
        .unwrap();
        // The broken reclaim returns instantly; the delegate is still
        // asleep inside the operation, so the gate sees a submitted-but-
        // unexecuted op on this set.
        let err = w.call_mut(|s| *s).unwrap_err();
        match err {
            SsError::SerializabilityViolation(report) => match report.kind {
                AuditViolation::BarrierOverrun { op, barrier } => {
                    assert!(op > 0 && barrier > 0, "pair must be real: {report}");
                }
                other => panic!("wrong violation kind: {other:?}"),
            },
            other => panic!("expected a violation, got: {other}"),
        }
        // The epoch close may re-report the stored violation; either way
        // the runtime must still shut down cleanly.
        let _ = rt.end_isolation();
    }

    /// `retract_unretired` lets the program thread's future wait retract
    /// a started set's tail while its delegate still runs the set's
    /// first operation: the set runs on two executors at once, and the
    /// retracted operation overtakes the running one. The first operation
    /// holds its delegate until the retracted one has run, or until the
    /// scripted retraction is over, so the leg is the same every run.
    #[test]
    fn retract_unretired_is_caught_as_two_executors() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let rt = Runtime::builder()
            .delegate_threads(1)
            .queue_capacity(8)
            .audit(AuditMode::Full)
            .chaos(ChaosKnobs {
                retract_unretired: true,
                ..Default::default()
            })
            .test_schedule(["retract@p", "retract@p"])
            .build()
            .unwrap();
        let w: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
        let [started, gate] = [(); 2].map(|()| Arc::new(AtomicBool::new(false)));
        rt.begin_isolation().unwrap();
        let (s, g) = (Arc::clone(&started), Arc::clone(&gate));
        w.delegate(move |v| {
            s.store(true, Ordering::Release);
            while !g.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            *v = fold(*v, 1);
        })
        .unwrap();
        while !started.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        let g = Arc::clone(&gate);
        let second = w
            .delegate_with(move |_| {
                g.store(true, Ordering::Release);
                2u64
            })
            .unwrap();
        let (rt2, g) = (rt.clone(), Arc::clone(&gate));
        let release = std::thread::spawn(move || {
            while rt2.test_gates_remaining() != Some(0) {
                std::thread::yield_now();
            }
            g.store(true, Ordering::Release);
        });
        let _ = second.wait();
        release.join().unwrap();
        assert_eq!(rt.test_gates_remaining(), Some(0), "no retraction tried");
        assert_eq!(rt.stats().inline_executions, 1, "the tail was not taken");
        match rt.end_isolation() {
            Err(SsError::SerializabilityViolation(report)) => match report.kind {
                AuditViolation::TwoExecutors { first, second } => {
                    assert_ne!(first, second, "{report}");
                }
                AuditViolation::OrderInversion { earlier, later, .. } => {
                    assert!(earlier < later, "pair must be real ops: {report}");
                }
                other => panic!("wrong violation kind: {other:?}"),
            },
            other => panic!("expected a violation, got: {other:?}"),
        }
    }

    /// The schedule both mis-pinning legs run under (gate names are point
    /// `@` delegate index; see `RuntimeBuilder::test_schedule`). Delegate
    /// 1's first steal scan lifts the victim set's queued batch while
    /// delegate 0 is held before its first pop ("poll@0"), and delegate 0
    /// is released only once delegate 1 has started the set ("popped@1").
    /// Delegate 1's next scan waits until delegate 0 has run one of the
    /// set's later operations ("done@0"): by then the set has run on both
    /// delegates.
    const TWO_EXECUTORS: [&str; 5] = ["scan@1", "popped@1", "poll@0", "done@0", "scan@1"];

    /// `cross_session_pin_leak` makes the thief migrate a session's set
    /// *without* rewriting the tenant's pin, re-pinning it into the root
    /// namespace instead (the wrong tenant). The session keeps routing
    /// later submits to the victim while the thief runs the stolen
    /// prefix — and because audit stamps carry the session id, it is the
    /// *session's own* audit domain that must catch the set on two
    /// executors when its epoch closes.
    #[test]
    fn cross_session_pin_leak_is_caught_by_the_sessions_auditor() {
        let rt = Runtime::builder()
            .delegate_threads(2)
            .stealing(true)
            .audit(AuditMode::Full)
            .chaos(ChaosKnobs {
                cross_session_pin_leak: true,
                ..Default::default()
            })
            .test_schedule(TWO_EXECUTORS)
            .build()
            .unwrap();
        let session = rt.session().unwrap();
        // Session-qualified Static routing: the composite key's high bits
        // (the session id) are even, so key % 2 follows the raw set id —
        // the victim set (2) pins to delegate 0, and delegate 1 is the
        // thief.
        let victim: Writable<u64, SequenceSerializer> = Writable::new(&session, 0);
        session.begin_isolation().unwrap();
        for _ in 0..8 {
            victim
                .delegate_in(ss_core::SsId(2), |s| *s = fold(*s, 1))
                .unwrap();
        }
        // Wait for delegate 1 to lift the session's queued victim batch.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while rt.stats().steals == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "no steal happened; cannot exercise the knob"
            );
            std::thread::yield_now();
        }
        // The session's pin still says delegate 0 (the leak re-pinned
        // into the ROOT namespace): these land on the victim queue and
        // execute there while the thief ran the stolen prefix — same
        // tenant set, two executors, same tenant epoch.
        for _ in 0..4 {
            victim.delegate_in(ss_core::SsId(2), |_| {}).unwrap();
        }
        match session.end_isolation() {
            Err(SsError::SerializabilityViolation(report)) => {
                // The report names the session-qualified composite key:
                // the tenant id in the high 16 bits over the raw set id.
                let expect = ((session.id() as u64) << 48) | 2;
                assert_eq!(
                    report.set,
                    ss_core::SsId(expect),
                    "wrong set named: {report}"
                );
                match report.kind {
                    AuditViolation::TwoExecutors { first, second } => {
                        assert_ne!(first, second, "pair must be real: {report}");
                    }
                    other => panic!("wrong violation kind: {other:?}"),
                }
            }
            Ok(()) => panic!("cross-session pin leak went undetected"),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    /// `steal_mid_set` makes the thief skip the quiescence
    /// handshake: it rips the queued tail of a started set while the owner
    /// is still *inside* an operation of that set. The owner's eventual
    /// execution record and the thief's stolen-tail records then disagree
    /// — same set, two executors in one epoch, and the owner's op carries
    /// an earlier logical-order token than tail operations that already
    /// ran. The auditor must report one of those two faces of the same
    /// broken handshake.
    #[test]
    fn steal_mid_set_is_caught_by_the_auditor() {
        let rt = Runtime::builder()
            .delegate_threads(2)
            .stealing(true)
            .audit(AuditMode::Full)
            .chaos(ChaosKnobs {
                steal_mid_set: true,
                ..Default::default()
            })
            .build()
            .unwrap();
        // Static with 2 delegates pins set 2 to delegate 0. Its first
        // operation sleeps, so the set is started and mid-flight while
        // eight more operations queue behind it — exactly what the
        // quiescence handshake exists to protect, and what this knob
        // deliberately ignores.
        let victim: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
        rt.begin_isolation().unwrap();
        victim
            .delegate_in(ss_core::SsId(2), |_| {
                std::thread::sleep(Duration::from_millis(150))
            })
            .unwrap();
        for _ in 0..8 {
            victim
                .delegate_in(ss_core::SsId(2), |s| *s = fold(*s, 1))
                .unwrap();
        }
        // Wait for the thief to rip the tail mid-operation.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while rt.stats().op_steals == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "no mid-set steal happened; cannot exercise the knob"
            );
            std::thread::yield_now();
        }
        match rt.end_isolation() {
            Err(SsError::SerializabilityViolation(report)) => {
                assert_eq!(report.set, ss_core::SsId(2), "wrong set named: {report}");
                match report.kind {
                    AuditViolation::TwoExecutors { first, second } => {
                        assert_ne!(first, second, "pair must be real: {report}");
                    }
                    AuditViolation::OrderInversion { earlier, later, .. } => {
                        assert!(earlier < later, "pair must be real ops: {report}");
                    }
                    other => panic!("wrong violation kind: {other:?}"),
                }
            }
            Ok(()) => panic!("mid-set steal went undetected"),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    /// `steal_no_repin` migrates a set without rewriting its pin, so later
    /// submits keep routing to the victim while the thief runs the stolen
    /// prefix — the auditor must see the set on two executors.
    #[test]
    fn steal_no_repin_is_caught_as_two_executors() {
        let rt = Runtime::builder()
            .delegate_threads(2)
            .stealing(true)
            .audit(AuditMode::Full)
            .chaos(ChaosKnobs {
                steal_no_repin: true,
                ..Default::default()
            })
            .test_schedule(TWO_EXECUTORS)
            .build()
            .unwrap();
        // Static with 2 delegates: set id % 2 picks the delegate, so the
        // victim set (2) pins to delegate 0, and delegate 1 is the thief.
        let victim: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
        rt.begin_isolation().unwrap();
        for _ in 0..8 {
            victim
                .delegate_in(ss_core::SsId(2), |s| *s = fold(*s, 1))
                .unwrap();
        }
        // Wait for delegate 1 to lift the victim set's queued batch.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while rt.stats().steals == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "no steal happened; cannot exercise the knob"
            );
            std::thread::yield_now();
        }
        // The pin still says delegate 0: these land on the victim queue
        // and execute there, while the thief ran (or runs) the stolen
        // prefix — same set, two executors, same epoch.
        for _ in 0..4 {
            victim.delegate_in(ss_core::SsId(2), |_| {}).unwrap();
        }
        match rt.end_isolation() {
            Err(SsError::SerializabilityViolation(report)) => {
                assert_eq!(report.set, ss_core::SsId(2), "wrong set named: {report}");
                match report.kind {
                    AuditViolation::TwoExecutors { first, second } => {
                        assert_ne!(first, second, "pair must be real: {report}");
                    }
                    other => panic!("wrong violation kind: {other:?}"),
                }
            }
            Ok(()) => panic!("weakened steal went undetected"),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}
