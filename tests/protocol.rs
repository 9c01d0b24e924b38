//! Integration tests of the execution-model protocol: the Figure 1
//! scenario, the epoch state machine, the §3.3 error checks, panic
//! poisoning and cross-epoch ownership transfer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use prometheus_rs::prelude::*;

#[test]
fn figure1_scenario() {
    // Figure 1, first epoch: a and b writable, c and d read-only; then a
    // second epoch with a different partition where the program context
    // reclaims d mid-epoch (operation q) and re-delegates afterwards.
    let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    let a: Writable<Vec<u64>> = Writable::new(&rt, vec![]);
    let b: Writable<Vec<u64>> = Writable::new(&rt, vec![]);
    let c = ReadOnly::new(100u64);
    let d: Writable<Vec<u64>> = Writable::new(&rt, vec![0]);

    // Epoch 1: operations on a and b interleave in program order per object.
    rt.begin_isolation().unwrap();
    let c1 = c.clone();
    b.delegate(move |v| v.push(*c1.get())).unwrap(); // b.x(c)
    a.delegate(|v| v.push(1)).unwrap(); // a.y()
    let c2 = c.clone();
    b.delegate(move |v| v.push(*c2.get() + 1)).unwrap(); // b.z(…)
    a.delegate(|v| v.push(2)).unwrap();
    rt.end_isolation().unwrap();

    assert_eq!(b.call(|v| v.clone()).unwrap(), vec![100, 101]);
    assert_eq!(a.call(|v| v.clone()).unwrap(), vec![1, 2]);

    // Epoch 2: d is writable now; program context reclaims it mid-epoch.
    rt.begin_isolation().unwrap();
    d.delegate(|v| v.push(10)).unwrap(); // d.z(a)
    let head = d.call(|v| v[0]).unwrap(); // e = d.q() — implicit reclaim
    assert_eq!(head, 0);
    d.delegate(|v| v.push(11)).unwrap(); // d.x(c) — delegated again
    rt.end_isolation().unwrap();
    assert_eq!(d.call(|v| v.clone()).unwrap(), vec![0, 10, 11]);
}

#[test]
fn determinism_across_runs_and_configurations() {
    // The same delegated program must produce identical results regardless
    // of delegate count, wait policy, and repetition — the model's core
    // promise.
    fn run(delegates: usize) -> Vec<Vec<u64>> {
        let rt = Runtime::builder()
            .delegate_threads(delegates)
            .build()
            .unwrap();
        let objs: Vec<Writable<Vec<u64>, SequenceSerializer>> =
            (0..5).map(|_| Writable::new(&rt, vec![])).collect();
        rt.begin_isolation().unwrap();
        for i in 0..2_000u64 {
            let obj = &objs[(i * 7 % 5) as usize];
            obj.delegate(move |v| {
                let last = v.last().copied().unwrap_or(0);
                v.push(last.wrapping_mul(31).wrapping_add(i));
            })
            .unwrap();
        }
        rt.end_isolation().unwrap();
        objs.iter()
            .map(|o| o.call(|v| v.clone()).unwrap())
            .collect()
    }
    let reference = run(0);
    for delegates in [1, 2, 4] {
        for _ in 0..3 {
            assert_eq!(run(delegates), reference, "delegates = {delegates}");
        }
    }
}

#[test]
fn serial_mode_equals_parallel_mode() {
    // §3.3: "When the debug version executes correctly for a given input,
    // the parallel version will too."
    fn run(rt: &Runtime) -> u64 {
        let acc: Writable<u64> = Writable::new(rt, 0);
        rt.begin_isolation().unwrap();
        for i in 0..500u64 {
            acc.delegate(move |n| *n = n.wrapping_mul(7).wrapping_add(i))
                .unwrap();
        }
        rt.end_isolation().unwrap();
        acc.call(|n| *n).unwrap()
    }
    let serial = Runtime::builder().delegate_threads(0).build().unwrap();
    let parallel = Runtime::builder().delegate_threads(3).build().unwrap();
    assert_eq!(run(&serial), run(&parallel));
    assert_eq!(serial.stats().inline_executions, 500);
    assert_eq!(parallel.stats().delegations, 500);
}

#[test]
fn improper_serializer_is_detected() {
    // §3.3 error type 1: "an improper serializer that maps operations on
    // the same object to multiple serialization sets".
    let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    let w: Writable<u64, NullSerializer> = Writable::new(&rt, 0);
    rt.begin_isolation().unwrap();
    w.delegate_in(SsId(1), |n| *n += 1).unwrap();
    let err = w.delegate_in(SsId(9), |n| *n += 1).unwrap_err();
    assert!(
        matches!(err, SsError::InconsistentSerializer { tagged, got, .. }
        if tagged == SsId(1) && got == SsId(9))
    );
    rt.end_isolation().unwrap();
}

#[test]
fn partition_violation_is_detected() {
    // §3.3 error type 2: "an operation violates the partitioning of data,
    // such as performing a write on a read-only object".
    let rt = Runtime::builder().delegate_threads(1).build().unwrap();
    let w: Writable<u64> = Writable::new(&rt, 5);
    rt.begin_isolation().unwrap();
    assert_eq!(w.call(|n| *n).unwrap(), 5); // read-only use this epoch
    assert!(matches!(
        w.call_mut(|n| *n = 6),
        Err(SsError::StateConflict { .. })
    ));
    assert!(matches!(
        w.delegate(|n| *n = 6),
        Err(SsError::StateConflict { .. })
    ));
    rt.end_isolation().unwrap();
    // New epoch: fully usable again.
    rt.isolated(|| w.delegate(|n| *n = 6).unwrap()).unwrap();
    assert_eq!(w.call(|n| *n).unwrap(), 6);
}

#[test]
fn wrong_context_operations_are_rejected() {
    let rt = Runtime::builder().delegate_threads(1).build().unwrap();
    let w: Writable<u64> = Writable::new(&rt, 0);
    let observed: Writable<Vec<SsError>> = Writable::new(&rt, vec![]);
    rt.begin_isolation().unwrap();
    let w2 = w.clone();
    let obs = observed.clone();
    let ran = Arc::new(AtomicBool::new(false));
    let ran2 = Arc::clone(&ran);
    // Delegated operations may not delegate, call, or switch epochs.
    w.delegate(move |_| {
        let errs = [
            w2.delegate(|n| *n += 1).unwrap_err(),
            w2.call(|n| *n).unwrap_err(),
            w2.call_mut(|n| *n += 1).unwrap_err(),
            w2.runtime().begin_isolation().unwrap_err(),
        ];
        ran2.store(true, Ordering::Release);
        // Reporting through another writable would be a protocol violation
        // itself; stash errors via a plain channel-free trick: panic-free
        // assertion inside the task.
        assert!(errs.iter().all(|e| matches!(e, SsError::WrongContext)));
        drop(obs); // silence capture warning; the assert above is the check
    })
    .unwrap();
    // The operation runs on its delegate: were the barrier to find it
    // still unclaimed, the program thread would retract it and run it
    // itself, where `delegate` reports `NestedDelegation` instead.
    while !ran.load(Ordering::Acquire) {
        std::hint::spin_loop();
    }
    rt.end_isolation().unwrap();
}

#[test]
fn delegate_panic_poisons_and_reports() {
    let rt = Runtime::builder().delegate_threads(1).build().unwrap();
    let w: Writable<u64> = Writable::new(&rt, 0);
    rt.begin_isolation().unwrap();
    w.delegate(|_| panic!("injected failure")).unwrap();
    let err = rt.end_isolation().unwrap_err();
    assert!(matches!(err, SsError::DelegatePanicked(ref m) if m.contains("injected failure")));
    assert!(rt.is_poisoned());
    assert!(matches!(w.call(|n| *n), Err(SsError::DelegatePanicked(_))));
}

#[test]
fn ownership_moves_between_partitions_across_epochs() {
    // §2.2 technique 1: "use different partitions of data in different
    // isolation epochs" — ping-pong two buffers between reader and writer
    // roles.
    let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    let ping: Writable<Vec<u64>> = Writable::new(&rt, vec![1, 2, 3]);
    let pong: Writable<Vec<u64>> = Writable::new(&rt, vec![]);

    for round in 0..4 {
        // Read one buffer (freeze its contents), write the other.
        let (src, dst) = if round % 2 == 0 {
            (&ping, &pong)
        } else {
            (&pong, &ping)
        };
        let snapshot = ReadOnly::new(src.call(|v| v.clone()).unwrap());
        rt.begin_isolation().unwrap();
        let snap = snapshot.clone();
        dst.delegate(move |v| {
            v.clear();
            v.extend(snap.get().iter().map(|x| x * 2));
        })
        .unwrap();
        rt.end_isolation().unwrap();
    }
    assert_eq!(ping.call(|v| v.clone()).unwrap(), vec![16, 32, 48]);
}

#[test]
fn sleep_wake_cycle_with_real_work() {
    let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    let w: Writable<u64> = Writable::new(&rt, 0);
    for _ in 0..5 {
        rt.isolated(|| {
            for _ in 0..100 {
                w.delegate(|n| *n += 1).unwrap();
            }
        })
        .unwrap();
        rt.sleep().unwrap(); // long aggregation epoch: park delegates
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert_eq!(w.call(|n| *n).unwrap(), 500);
}

#[test]
fn stats_expose_figure5a_components() {
    let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    let counter = ss_collections::ReducibleCounter::new(&rt);
    let objs: Vec<Writable<u64, SequenceSerializer>> =
        (0..4).map(|_| Writable::new(&rt, 0)).collect();
    rt.begin_isolation().unwrap();
    for o in &objs {
        let c = counter.clone();
        o.delegate(move |n| {
            *n += 1;
            c.increment().unwrap();
        })
        .unwrap();
    }
    rt.end_isolation().unwrap();
    assert_eq!(counter.get().unwrap(), 4); // triggers the reduction
    let s = rt.stats();
    assert!(s.isolation > std::time::Duration::ZERO);
    assert!(s.reductions >= 1);
    let parts = s.isolation_fraction() + s.aggregation_fraction() + s.reduction_fraction();
    assert!((parts - 1.0).abs() < 1e-6, "fractions sum to {parts}");
}

/// Same-set program order: operations delegated into one serialization set
/// execute in delegation order, even while other sets churn around them.
#[test]
fn same_set_program_order_under_churn() {
    for delegates in [1, 2, 4] {
        let rt = Runtime::builder()
            .delegate_threads(delegates)
            .build()
            .unwrap();
        let hot: Writable<Vec<u64>, NullSerializer> = Writable::new(&rt, Vec::new());
        let noise: Vec<Writable<u64, SequenceSerializer>> =
            (0..8).map(|_| Writable::new(&rt, 0)).collect();
        rt.begin_isolation().unwrap();
        for i in 0..2_000u64 {
            hot.delegate_in(7u64, move |v| v.push(i)).unwrap();
            // Interleave traffic on other sets so queues stay busy.
            noise[(i % 8) as usize].delegate(|n| *n += 1).unwrap();
        }
        rt.end_isolation().unwrap();
        let got = hot.call(|v| v.clone()).unwrap();
        assert_eq!(
            got,
            (0..2_000).collect::<Vec<_>>(),
            "{delegates} delegates reordered a set"
        );
    }
}

/// A skewed set distribution (most operations in a handful of hot sets)
/// produces the sequential result.
#[test]
fn skewed_sets_match_the_sequential_result() {
    let target = |i: u64| match i % 16 {
        0..=7 => 0,
        8..=11 => 1,
        12..=13 => 2,
        _ => (i % 16) as usize,
    };
    let rt = Runtime::builder().delegate_threads(3).build().unwrap();
    let objs: Vec<Writable<Vec<u64>, SequenceSerializer>> =
        (0..16).map(|_| Writable::new(&rt, Vec::new())).collect();
    rt.begin_isolation().unwrap();
    for i in 0..4_000u64 {
        // Zipf-ish skew: ~half the traffic on object 0, tail spread out.
        objs[target(i)].delegate(move |v| v.push(i * i)).unwrap();
    }
    rt.end_isolation().unwrap();
    let mut expect = vec![Vec::new(); 16];
    for i in 0..4_000u64 {
        expect[target(i)].push(i * i);
    }
    let got: Vec<Vec<u64>> = objs
        .iter()
        .map(|o| o.call(|v| v.clone()).unwrap())
        .collect();
    assert_eq!(got, expect);
}

/// Reductions and mid-epoch ownership reclaims (the protocol paths that
/// interact with queue state) keep every operation.
#[test]
fn reclaims_and_reductions_keep_every_operation() {
    let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    let w: Writable<Vec<u64>, SequenceSerializer> = Writable::new(&rt, Vec::new());
    let counter = ReducibleCounter::new(&rt);
    rt.begin_isolation().unwrap();
    for i in 0..500u64 {
        let c = counter.clone();
        w.delegate(move |v| {
            v.push(i);
            c.add(1).unwrap();
        })
        .unwrap();
    }
    // Mid-epoch dependent read: reclaim must drain exactly this set's
    // executor queue.
    let len = w.call(|v| v.len()).unwrap();
    assert_eq!(len, 500, "work lost before reclaim");
    w.delegate(|v| v.push(999)).unwrap();
    rt.end_isolation().unwrap();
    assert_eq!(w.call(|v| v.len()).unwrap(), 501);
    assert_eq!(counter.get().unwrap(), 500);
}
