//! Runtime-level tests: epoch state machine, delegation, termination,
//! and placement's end-to-end behaviour.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use super::*;
use crate::invocation::TaskSlot;

/// Program-origin submit of a run of one.
fn submit(rt: &Runtime, ss: SsId, task: TaskSlot) -> SsResult<Executor> {
    rt.submit(Origin::Program, ss, &mut [Some(task)])
        .map_err(|(e, _)| e)
}

/// Where the router sends `ss` in the current epoch (pins it, like a
/// submit would; program thread, non-stealing transport).
fn executor_for(rt: &Runtime, ss: SsId) -> Executor {
    let d = rt.domain();
    rt.inner.router.route(d, SsId(d.key(ss))).executor
}

/// Packaged task that bumps `counter` (the common body of delivery tests).
fn bump(counter: &Arc<AtomicU64>) -> TaskSlot {
    let c = Arc::clone(counter);
    TaskSlot::new(move |_| {
        c.fetch_add(1, Ordering::Relaxed);
    })
}

#[test]
fn executor_assignment_is_static_modulo() {
    let rt = Runtime::builder().delegate_threads(3).build().unwrap();
    rt.begin_isolation().unwrap();
    assert_eq!(executor_for(&rt, SsId(0)), Executor::Delegate(0));
    assert_eq!(executor_for(&rt, SsId(4)), Executor::Delegate(1));
    assert_eq!(executor_for(&rt, SsId(2)), Executor::Delegate(2));
    assert_eq!(executor_for(&rt, SsId(5)), Executor::Delegate(2));
    rt.end_isolation().unwrap();
}

#[test]
fn zero_delegates_run_inline() {
    let rt = Runtime::builder().delegate_threads(0).build().unwrap();
    assert_eq!(executor_for(&rt, SsId(17)), Executor::Program);
    assert_eq!(rt.delegate_threads(), 0);
}

#[test]
fn serial_mode_spawns_no_threads() {
    // The paper's debug build (§3.3) is a runtime without delegates.
    let rt = Runtime::builder().delegate_threads(0).build().unwrap();
    assert_eq!(rt.delegate_threads(), 0);
    assert!(rt.inner.join_handles.lock().is_empty());
}

#[test]
fn epoch_state_machine() {
    let rt = Runtime::builder().delegate_threads(1).build().unwrap();
    assert!(!rt.in_isolation());
    assert_eq!(rt.end_isolation(), Err(SsError::NotIsolating));
    rt.begin_isolation().unwrap();
    assert!(rt.in_isolation());
    assert_eq!(rt.begin_isolation(), Err(SsError::AlreadyInIsolation));
    rt.end_isolation().unwrap();
    assert!(!rt.in_isolation());
}

#[test]
fn epoch_control_from_wrong_thread_fails() {
    let rt = Runtime::builder().delegate_threads(1).build().unwrap();
    let rt2 = rt.clone();
    std::thread::spawn(move || {
        assert_eq!(rt2.begin_isolation(), Err(SsError::WrongContext));
        assert_eq!(rt2.end_isolation(), Err(SsError::WrongContext));
        assert!(!rt2.in_isolation());
    })
    .join()
    .unwrap();
}

#[test]
fn same_set_preserves_program_order() {
    let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    let log = Arc::new(Mutex::new(Vec::new()));
    rt.begin_isolation().unwrap();
    for i in 0..1000u64 {
        let log = Arc::clone(&log);
        submit(&rt, SsId(7), TaskSlot::new(move |_| log.lock().push(i))).unwrap();
    }
    rt.end_isolation().unwrap();
    let log = log.lock();
    assert_eq!(*log, (0..1000).collect::<Vec<_>>());
}

#[test]
fn a_full_ring_retracts_the_fresh_run_at_its_end() {
    let rt = Runtime::builder()
        .delegate_threads(1)
        .queue_capacity(2)
        .build()
        .unwrap();
    let (gate, hits) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let started = Arc::new(AtomicU64::new(0));
    rt.begin_isolation().unwrap();
    // Delegate 0 is held on set 0's first operation, which it claimed
    // alone before anything was pushed behind it.
    let (s, g) = (Arc::clone(&started), Arc::clone(&gate));
    let blocker = TaskSlot::new(move |_| {
        s.store(1, Ordering::Release);
        while g.load(Ordering::Acquire) == 0 {
            std::hint::spin_loop();
        }
    });
    submit(&rt, SsId(0), blocker).unwrap();
    while started.load(Ordering::Acquire) == 0 {
        std::hint::spin_loop();
    }
    // Two fresh sets fill its two-slot ring...
    for set in [1, 2] {
        assert_eq!(
            submit(&rt, SsId(set), bump(&hits)),
            Ok(Executor::Delegate(0))
        );
    }
    assert_eq!(hits.load(Ordering::Relaxed), 0);
    // ...and set 0's next operation finds it full. The wait retracts the
    // run at the unclaimed end — set 2's, half the held values — and runs
    // it at once; set 0, claimed from, is never retracted.
    assert_eq!(submit(&rt, SsId(0), bump(&hits)), Ok(Executor::Delegate(0)));
    assert_eq!(hits.load(Ordering::Relaxed), 1);
    assert_eq!(rt.stats().inline_executions, 1);
    gate.store(1, Ordering::Release);
    rt.end_isolation().unwrap();
    let s = rt.stats();
    assert_eq!((s.delegations, s.executed), (4, 4));
    assert_eq!(hits.load(Ordering::Relaxed), 3);
}

#[test]
fn nested_delegation_rejected() {
    let rt = Runtime::builder().delegate_threads(0).build().unwrap();
    let rt2 = rt.clone();
    rt.begin_isolation().unwrap();
    let err = Arc::new(Mutex::new(None));
    let err2 = Arc::clone(&err);
    submit(
        &rt,
        SsId(0),
        TaskSlot::new(move |_| {
            let e = submit(&rt2, SsId(1), TaskSlot::new(|_| {})).unwrap_err();
            *err2.lock() = Some(e);
        }),
    )
    .unwrap();
    rt.end_isolation().unwrap();
    assert_eq!(err.lock().take(), Some(SsError::NestedDelegation));
}

#[test]
fn shutdown_is_idempotent_and_blocks_later_use() {
    let rt = Runtime::builder().delegate_threads(1).build().unwrap();
    rt.shutdown().unwrap();
    rt.shutdown().unwrap();
    assert_eq!(rt.begin_isolation(), Err(SsError::Terminated));
}

#[test]
fn sleep_requires_aggregation_and_wakes_on_isolation() {
    let rt = Runtime::builder().delegate_threads(1).build().unwrap();
    rt.begin_isolation().unwrap();
    assert_eq!(rt.sleep(), Err(SsError::NotInAggregation));
    rt.end_isolation().unwrap();
    rt.sleep().unwrap();
    // Delegates park; a new epoch must wake them and still work.
    rt.begin_isolation().unwrap();
    let hits = Arc::new(AtomicU64::new(0));
    submit(&rt, SsId(1), bump(&hits)).unwrap();
    rt.end_isolation().unwrap();
    assert_eq!(hits.load(Ordering::Relaxed), 1);
}

/// A ring whose every entry has run when the barrier looks — its
/// delegate has retired them all — gets no token: the barrier sends none
/// and its parked delegate is left asleep.
#[test]
fn a_barrier_sends_no_token_to_a_retired_ring() {
    let rt = Runtime::builder()
        .delegate_threads(1)
        .test_schedule(["retire@0", "retire@0"])
        .build()
        .unwrap();
    let hits = Arc::new(AtomicU64::new(0));
    rt.begin_isolation().unwrap();
    submit(&rt, SsId(1), bump(&hits)).unwrap();
    while rt.test_gates_remaining() != Some(0) {
        std::hint::spin_loop();
    }
    rt.end_isolation().unwrap();
    let s = rt.stats();
    assert_eq!((hits.load(Ordering::Relaxed), s.executed), (1, 1));
    assert_eq!((s.sync_objects, s.inline_executions), (0, 0));
}

#[test]
fn stats_count_operations() {
    // The last operation is running when the barrier starts, and runs
    // until the program thread parks on its token: the barrier cannot
    // retract it, nor find its ring retired, so it sends the token.
    let rt = Runtime::builder()
        .delegate_threads(1)
        .test_schedule(["sleep@p"])
        .build()
        .unwrap();
    rt.begin_isolation().unwrap();
    for i in 0..9u64 {
        submit(&rt, SsId(i), TaskSlot::new(|_| {})).unwrap();
    }
    let started = Arc::new(AtomicBool::new(false));
    let (s, rt2) = (Arc::clone(&started), rt.clone());
    let last = TaskSlot::new(move |_| {
        s.store(true, Ordering::Release);
        while rt2.test_gates_remaining() != Some(0) {
            std::hint::spin_loop();
        }
    });
    submit(&rt, SsId(9), last).unwrap();
    while !started.load(Ordering::Acquire) {
        std::hint::spin_loop();
    }
    rt.end_isolation().unwrap();
    let s = rt.stats();
    assert_eq!(s.delegations, 10);
    assert_eq!(s.isolation_epochs, 1);
    assert!(s.sync_objects >= 1);
    assert!(s.isolation > std::time::Duration::ZERO);
}

#[test]
fn many_runtimes_coexist() {
    let a = Runtime::builder().delegate_threads(1).build().unwrap();
    let b = Runtime::builder().delegate_threads(1).build().unwrap();
    let hits = Arc::new(AtomicU64::new(0));
    for rt in [&a, &b] {
        rt.begin_isolation().unwrap();
        submit(rt, SsId(0), bump(&hits)).unwrap();
        rt.end_isolation().unwrap();
    }
    assert_eq!(hits.load(Ordering::Relaxed), 2);
}

#[test]
fn tiny_queue_applies_backpressure_without_deadlock() {
    let rt = Runtime::builder()
        .delegate_threads(1)
        .queue_capacity(2)
        .build()
        .unwrap();
    let counter = Arc::new(AtomicU64::new(0));
    rt.begin_isolation().unwrap();
    for i in 0..5000u64 {
        submit(&rt, SsId(i), bump(&counter)).unwrap();
    }
    rt.end_isolation().unwrap();
    assert_eq!(counter.load(Ordering::Relaxed), 5000);
}

/// Streams long enough to arm the delegate's temporal slip, on a ring
/// smaller than the slip's margin and on the default one: per-set order
/// holds, a mid-stream reclaim is answered (its wait ends the slip), and
/// the barrier drains the tail.
#[test]
fn a_slipping_delegate_keeps_order_and_answers_reclaims() {
    for capacity in [2, 512] {
        let rt = Runtime::builder()
            .delegate_threads(1)
            .queue_capacity(capacity)
            .build()
            .unwrap();
        let log: crate::Writable<Vec<u32>, crate::SequenceSerializer> =
            crate::Writable::new(&rt, Vec::new());
        rt.begin_isolation().unwrap();
        for i in 0..3000u32 {
            log.delegate(move |v| v.push(i)).unwrap();
            if i % 1000 == 999 {
                let seen = log.call_mut(|v| v.len()).unwrap();
                assert_eq!(seen, i as usize + 1, "cap {capacity}");
            }
        }
        rt.end_isolation().unwrap();
        let v = log.call(|v| v.clone()).unwrap();
        assert!(v.iter().copied().eq(0..3000), "cap {capacity}");
    }
}

// ----------------------------------------------------------------------
// placement

#[test]
fn static_placement_delivers_all_work() {
    let rt = Runtime::builder().delegate_threads(3).build().unwrap();
    let counter = Arc::new(AtomicU64::new(0));
    rt.begin_isolation().unwrap();
    for i in 0..500u64 {
        submit(&rt, SsId(i % 13), bump(&counter)).unwrap();
    }
    rt.end_isolation().unwrap();
    assert_eq!(counter.load(Ordering::Relaxed), 500);
}

#[test]
fn static_placement_preserves_same_set_program_order() {
    let rt = Runtime::builder().delegate_threads(3).build().unwrap();
    let log = Arc::new(Mutex::new(Vec::new()));
    rt.begin_isolation().unwrap();
    for i in 0..800u64 {
        let log = Arc::clone(&log);
        submit(&rt, SsId(i % 3), TaskSlot::new(move |_| log.lock().push(i))).unwrap();
    }
    rt.end_isolation().unwrap();
    let log = log.lock();
    for set in 0..3u64 {
        let per_set: Vec<u64> = log.iter().copied().filter(|i| i % 3 == set).collect();
        let mut sorted = per_set.clone();
        sorted.sort_unstable();
        assert_eq!(per_set, sorted, "reordered set {set}");
    }
}

/// Objects under the default object serializer spread over the delegates:
/// 64 fresh objects, one operation each, in one epoch. Placement is read
/// off the trace's delegation sites, since the barrier may retract some
/// of each ring and run it on the program thread. Raw addresses, aligned,
/// would all land on the delegates their alignment selects.
#[test]
fn object_sets_spread_over_every_delegate() {
    for n in [2, 4] {
        let rt = Runtime::builder()
            .delegate_threads(n)
            .trace(true)
            .build()
            .unwrap();
        let objects: Vec<crate::Writable<u64>> =
            (0..64).map(|_| crate::Writable::new(&rt, 0)).collect();
        rt.isolated(|| {
            for w in &objects {
                w.delegate(|v| *v += 1).unwrap();
            }
        })
        .unwrap();
        let mut placed = vec![0; n];
        for e in rt.take_trace().unwrap() {
            if let (TraceKind::Delegate, Some(TraceExecutor::Delegate(i))) = (e.kind, e.executor) {
                placed[i] += 1;
            }
        }
        assert_eq!(placed.iter().sum::<u64>(), 64, "{n} delegates");
        assert!(placed.iter().all(|&p| p > 0), "{n} delegates: {placed:?}");
    }
}

#[test]
fn pins_counter_tracks_first_touches() {
    // Stealing pins every set at its first touch, so a steal can move it.
    let rt = Runtime::builder()
        .delegate_threads(2)
        .stealing(true)
        .build()
        .unwrap();
    rt.begin_isolation().unwrap();
    for i in 0..60u64 {
        submit(&rt, SsId(i % 6), TaskSlot::new(|_| {})).unwrap();
    }
    rt.end_isolation().unwrap();
    // 6 distinct sets → 6 pins; static assignment would report 0.
    assert_eq!(rt.stats().pins, 6);
}

#[test]
fn static_assignment_reports_no_pins() {
    let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    rt.begin_isolation().unwrap();
    for i in 0..60u64 {
        submit(&rt, SsId(i % 6), TaskSlot::new(|_| {})).unwrap();
    }
    rt.end_isolation().unwrap();
    assert_eq!(rt.stats().pins, 0);
}

#[test]
fn queue_depths_return_to_zero_after_barrier() {
    let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    rt.begin_isolation().unwrap();
    for i in 0..300u64 {
        submit(&rt, SsId(i), TaskSlot::new(|_| {})).unwrap();
    }
    rt.end_isolation().unwrap();
    let s = rt.stats();
    assert!(
        s.queue_depths.iter().all(|&d| d == 0),
        "{:?}",
        s.queue_depths
    );
    assert_eq!(
        s.delegate_executed.iter().sum::<u64>() + s.inline_executions,
        s.delegations
    );
}

// ----------------------------------------------------------------------
// work stealing

/// Name of the delegate thread an operation executes on ("ss-delegate-N"),
/// recorded so tests can assert placement without capturing the runtime
/// inside a task (which would let a delegate thread join itself on drop).
fn record_thread(log: &Arc<Mutex<Vec<(u64, String)>>>, set: u64) -> TaskSlot {
    let log = Arc::clone(log);
    TaskSlot::new(move |_| {
        let name = std::thread::current().name().unwrap_or("?").to_string();
        log.lock().push((set, name));
    })
}

/// A task that records which delegate entered it, then blocks on `gate`.
/// The (entered, name) pair lets tests wait until a set has *started* —
/// the point after which the pinning invariant forbids migration — and
/// learn where, without assuming who won any legal pre-start steal race.
fn gated_task(gate: &Arc<AtomicU64>, entered: &Arc<Mutex<Option<String>>>) -> TaskSlot {
    let gate = Arc::clone(gate);
    let entered = Arc::clone(entered);
    TaskSlot::new(move |_| {
        *entered.lock() = Some(std::thread::current().name().unwrap_or("?").to_string());
        while gate.load(Ordering::Acquire) == 0 {
            std::hint::spin_loop();
        }
    })
}

fn wait_entered(entered: &Arc<Mutex<Option<String>>>) -> String {
    loop {
        if let Some(name) = entered.lock().clone() {
            return name;
        }
        std::hint::spin_loop();
    }
}

#[test]
fn stealing_normalizes_off_below_two_delegates() {
    let rt = Runtime::builder()
        .delegate_threads(1)
        .stealing(true)
        .build()
        .unwrap();
    assert!(!rt.stealing());
    let rt = Runtime::builder()
        .delegate_threads(2)
        .stealing(true)
        .build()
        .unwrap();
    assert!(rt.stealing());
}

#[test]
fn idle_delegate_steals_from_skewed_queue() {
    // One delegate is blocked inside a gated set while a backlog of
    // never-started sets accumulates in *its* queue; the other delegate
    // must steal some of them. The gate op itself may legally be stolen
    // before anyone starts it, so the test discovers who got blocked and
    // aims the backlog at that delegate instead of hard-coding a winner.
    let rt = Runtime::builder()
        .delegate_threads(2)
        .stealing(true)
        .build()
        .unwrap();
    let gate = Arc::new(AtomicU64::new(0));
    let entered = Arc::new(Mutex::new(None));
    let log: Arc<Mutex<Vec<(u64, u64, String)>>> = Arc::new(Mutex::new(Vec::new()));
    rt.begin_isolation().unwrap();
    submit(&rt, SsId(1), gated_task(&gate, &entered)).unwrap();
    let blocked = wait_entered(&entered);
    // Route the backlog to the *blocked* delegate's queue: even set ids
    // pin to delegate 0, odd to delegate 1 (static placement, and these
    // sets are fresh, so no steal has re-pinned them yet).
    let base: u64 = if blocked == "ss-delegate-0" { 100 } else { 101 };
    for s in 0..32u64 {
        let set = base + 2 * s;
        for op in 0..4 {
            let log = Arc::clone(&log);
            let task = TaskSlot::new(move |_| {
                let name = std::thread::current().name().unwrap_or("?").to_string();
                log.lock().push((set, op, name));
            });
            submit(&rt, SsId(set), task).unwrap();
        }
    }
    // Give the free delegate time to steal while the other is gated.
    std::thread::sleep(std::time::Duration::from_millis(50));
    gate.store(1, Ordering::Release);
    rt.end_isolation().unwrap();

    let stats = rt.stats();
    assert!(stats.steals > 0, "no steals happened: {stats:?}");
    let log = log.lock();
    assert_eq!(log.len(), 32 * 4);
    // Same-set program order, wherever each part of a set ran (a started
    // set's quiescent tail may move too): the log is in execution order.
    let mut next: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for (set, op, _) in log.iter() {
        let want = next.entry(*set).or_insert(0);
        assert_eq!(op, want, "set {set} ran out of program order");
        *want += 1;
    }
    // And the free delegate really did take some of the work.
    assert!(
        log.iter().any(|(_, _, name)| *name != blocked),
        "the idle delegate never executed anything"
    );
}

#[test]
fn a_started_set_never_migrates_mid_operation() {
    // A set *starts* on whichever delegate pops (or steals, then pops)
    // its first operation. While an operation of it runs there, an idle
    // thief circling its queued tail must leave the tail alone: nothing
    // of the set runs anywhere until the running operation returns.
    let rt = Runtime::builder()
        .delegate_threads(2)
        .stealing(true)
        .build()
        .unwrap();
    let gate = Arc::new(AtomicU64::new(0));
    let entered = Arc::new(Mutex::new(None));
    let log: Arc<Mutex<Vec<(u64, String)>>> = Arc::new(Mutex::new(Vec::new()));
    rt.begin_isolation().unwrap();
    submit(&rt, SsId(7), gated_task(&gate, &entered)).unwrap();
    // Set 7 has started — wherever the race landed it, it is now pinned.
    let home = wait_entered(&entered);
    for _ in 0..16 {
        submit(&rt, SsId(7), record_thread(&log, 7)).unwrap();
    }
    std::thread::sleep(std::time::Duration::from_millis(30));
    assert!(log.lock().is_empty(), "tail ran beside a running operation");
    let mid = rt.stats();
    gate.store(1, Ordering::Release);
    rt.end_isolation().unwrap();
    assert_eq!(log.lock().len(), 16);
    assert!(home.starts_with("ss-delegate-"));
    assert_eq!(mid.op_steals, 0, "tail moved mid-operation: {mid:?}");
}

#[test]
fn steal_failures_are_counted() {
    // One delegate is blocked inside the only set while its queue holds
    // more of that (started) set: the idle delegate's steal attempts must
    // fail, and the failures must be counted.
    let rt = Runtime::builder()
        .delegate_threads(2)
        .stealing(true)
        .build()
        .unwrap();
    let gate = Arc::new(AtomicU64::new(0));
    let entered = Arc::new(AtomicU64::new(0));
    rt.begin_isolation().unwrap();
    let g = Arc::clone(&gate);
    let e = Arc::clone(&entered);
    submit(
        &rt,
        SsId(2),
        TaskSlot::new(move |_| {
            e.store(1, Ordering::Release);
            while g.load(Ordering::Acquire) == 0 {
                std::hint::spin_loop();
            }
        }),
    )
    .unwrap();
    // Wait until set 2 has *started* on its executor — while that
    // operation runs, the queued tail below is unstealable.
    while entered.load(Ordering::Acquire) == 0 {
        std::hint::spin_loop();
    }
    for _ in 0..4 {
        submit(&rt, SsId(2), TaskSlot::new(|_| {})).unwrap();
    }
    std::thread::sleep(std::time::Duration::from_millis(30));
    let stats = rt.stats();
    gate.store(1, Ordering::Release);
    rt.end_isolation().unwrap();
    // The gate op itself may have been stolen before anyone started the
    // set (a legal race); while it runs, nothing more can move.
    assert!(stats.steals <= 1, "started set migrated: {stats:?}");
    assert!(stats.steal_failures > 0, "no failed attempts: {stats:?}");
    assert!(stats.quiesce_fail > 0, "no failed handshakes: {stats:?}");
}

#[test]
fn reclaim_follows_a_stolen_set() {
    // Set 2 is stolen by delegate 1; a mid-epoch reclaim must sync with
    // the thief's queue (syncing the original owner would return while
    // the stolen operations still run — unsoundness, caught by the
    // assert on the observed count).
    let rt = Runtime::builder()
        .delegate_threads(2)
        .stealing(true)
        .build()
        .unwrap();
    let gate = Arc::new(AtomicU64::new(0));
    // Set 2 shares delegate 0 with the blocker's set.
    let w: crate::Writable<u64, crate::NullSerializer> = crate::Writable::new(&rt, 0);
    rt.begin_isolation().unwrap();
    let g = Arc::clone(&gate);
    submit(
        &rt,
        SsId(1_000_000),
        TaskSlot::new(move |_| {
            while g.load(Ordering::Acquire) == 0 {
                std::hint::spin_loop();
            }
        }),
    )
    .unwrap();
    for _ in 0..64 {
        w.delegate_in(2u64, |n| *n += 1).unwrap();
    }
    std::thread::sleep(std::time::Duration::from_millis(30));
    // The blocked delegate guarantees w's set is still queued (or stolen);
    // reclaim must find wherever it lives now.
    let seen = w.call(|n| *n).unwrap();
    assert_eq!(seen, 64);
    gate.store(1, Ordering::Release);
    rt.end_isolation().unwrap();
}

#[test]
fn stealing_results_match_off() {
    let mut reference: Option<Vec<Vec<u64>>> = None;
    for stealing in [false, true] {
        let rt = Runtime::builder()
            .delegate_threads(3)
            .stealing(stealing)
            .build()
            .unwrap();
        let cells: Vec<crate::Writable<Vec<u64>, crate::SequenceSerializer>> = (0..16)
            .map(|_| crate::Writable::new(&rt, Vec::new()))
            .collect();
        for epoch in 0..5u64 {
            rt.begin_isolation().unwrap();
            for i in 0..400u64 {
                // Zipf-ish skew: low cells get most of the operations.
                let c = (i % 7 * i % 16) as usize % 16;
                cells[c]
                    .delegate(move |v| v.push(epoch * 1_000 + i))
                    .unwrap();
            }
            rt.end_isolation().unwrap();
        }
        let out: Vec<Vec<u64>> = cells
            .iter()
            .map(|c| c.call(|v| v.clone()).unwrap())
            .collect();
        match &reference {
            None => reference = Some(out),
            Some(r) => assert_eq!(r, &out, "stealing diverged from off"),
        }
    }
}

/// A steal moves half the depth imbalance. Delegate 0 is held before its
/// first pop until the thief has stolen, and the thief is held inside an
/// operation of its own until four single-operation sets are queued on
/// delegate 0. Half of four is the oldest two, sets 0 and 2. The oldest
/// set on each side then holds its delegate, so the picture is read
/// before anyone can run dry and steal again: the thief runs set 0 with
/// set 2 queued behind it, delegate 0 runs set 4 with set 6 behind it.
#[test]
fn a_steal_moves_half_the_imbalance() {
    let rt = Runtime::builder()
        .delegate_threads(2)
        // Even sets pin to delegate 0, odd ones to delegate 1.
        .stealing(true)
        .test_schedule(["scan@1", "stole@1", "poll@0"])
        .build()
        .unwrap();
    let cell = || Arc::new(Mutex::new(None));
    let (gate, entered) = (Arc::new(AtomicU64::new(0)), cell());
    let hold = Arc::new(AtomicU64::new(0));
    let (at_0, at_4) = (cell(), cell());
    rt.begin_isolation().unwrap();
    // One operation deep, delegate 1's queue is within the bar: nobody
    // steals it, and it runs on its home.
    submit(&rt, SsId(1), gated_task(&gate, &entered)).unwrap();
    assert_eq!(wait_entered(&entered), "ss-delegate-1");
    submit(&rt, SsId(0), gated_task(&hold, &at_0)).unwrap();
    submit(&rt, SsId(2), TaskSlot::new(|_| {})).unwrap();
    submit(&rt, SsId(4), gated_task(&hold, &at_4)).unwrap();
    submit(&rt, SsId(6), TaskSlot::new(|_| {})).unwrap();
    gate.store(1, Ordering::Release);
    let homes = (wait_entered(&at_0), wait_entered(&at_4));
    let mid = rt.stats();
    hold.store(1, Ordering::Release);
    rt.end_isolation().unwrap();
    assert_eq!(rt.test_gates_remaining(), Some(0), "script not followed");
    assert_eq!(mid.steals, 1, "{mid:?}");
    assert_eq!(homes.0, "ss-delegate-1");
    assert_eq!(homes.1, "ss-delegate-0");
    assert_eq!(mid.queue_depths, vec![2, 2], "{mid:?}");
}

// ----------------------------------------------------------------------
// recursive delegation

use crate::{SequenceSerializer, Writable};

/// Parent on one object spawns operations on other objects from inside its
/// delegate context; the epoch barrier must wait for all of them.
#[test]
fn nested_delegation_from_delegate_context_works() {
    let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    let parent: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
    let children: Vec<Writable<Vec<u64>, SequenceSerializer>> =
        (0..3).map(|_| Writable::new(&rt, Vec::new())).collect();
    rt.begin_isolation().unwrap();
    let rt2 = rt.clone();
    let kids: Vec<_> = children.to_vec();
    parent
        .delegate(move |n| {
            *n = 1;
            rt2.delegate_scope(|cx| {
                for (c, kid) in kids.iter().enumerate() {
                    for i in 0..10u64 {
                        cx.delegate(kid, move |v| v.push(c as u64 * 100 + i))
                            .unwrap();
                    }
                }
            })
            .unwrap();
        })
        .unwrap();
    rt.end_isolation().unwrap();
    assert_eq!(parent.call(|n| *n).unwrap(), 1);
    for (c, kid) in children.iter().enumerate() {
        let want: Vec<u64> = (0..10).map(|i| c as u64 * 100 + i).collect();
        assert_eq!(kid.call(|v| v.clone()).unwrap(), want, "child {c}");
    }
    let s = rt.stats();
    assert_eq!(s.nested_delegations, 30);
    assert_eq!(s.executed, 31);
}

/// Depth-3 chains (parent → child → grandchild), each level delegated from
/// the previous level's delegate context, under both transports.
#[test]
fn nested_depth_three_chain_under_both_transports() {
    for stealing in [false, true] {
        let rt = Runtime::builder()
            .delegate_threads(3)
            .stealing(stealing)
            .build()
            .unwrap();
        let a: Writable<Vec<u64>, SequenceSerializer> = Writable::new(&rt, Vec::new());
        let b: Writable<Vec<u64>, SequenceSerializer> = Writable::new(&rt, Vec::new());
        let c: Writable<Vec<u64>, SequenceSerializer> = Writable::new(&rt, Vec::new());
        rt.begin_isolation().unwrap();
        let (rt1, b1, c1) = (rt.clone(), b.clone(), c.clone());
        a.delegate(move |v| {
            v.push(0);
            let (rt2, c2) = (rt1.clone(), c1.clone());
            rt1.delegate_scope(|cx| {
                cx.delegate(&b1, move |v| {
                    v.push(1);
                    rt2.delegate_scope(|cx| {
                        cx.delegate(&c2, |v| v.push(2)).unwrap();
                    })
                    .unwrap();
                })
                .unwrap();
            })
            .unwrap();
        })
        .unwrap();
        rt.end_isolation().unwrap();
        assert_eq!(a.call(|v| v.clone()).unwrap(), vec![0], "{stealing}");
        assert_eq!(b.call(|v| v.clone()).unwrap(), vec![1], "{stealing}");
        assert_eq!(c.call(|v| v.clone()).unwrap(), vec![2], "{stealing}");
        assert_eq!(rt.stats().nested_delegations, 2, "{stealing}");
    }
}

/// A parent may delegate onto its *own* object: the operation lands behind
/// it in the same queue and runs after it, in submission order.
#[test]
fn nested_delegation_onto_own_set_appends() {
    let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    let w: Writable<Vec<u64>, SequenceSerializer> = Writable::new(&rt, Vec::new());
    rt.begin_isolation().unwrap();
    let (rt2, w2) = (rt.clone(), w.clone());
    w.delegate(move |v| {
        v.push(1);
        rt2.delegate_scope(|cx| {
            cx.delegate(&w2, |v| v.push(2)).unwrap();
            cx.delegate(&w2, |v| v.push(3)).unwrap();
        })
        .unwrap();
    })
    .unwrap();
    w.delegate(|v| v.push(4)).unwrap();
    rt.end_isolation().unwrap();
    // 1 runs first; 4 was queued before 2 and 3 arrived or after — both are
    // legal cross-producer interleavings, but per-producer order must hold.
    let got = w.call(|v| v.clone()).unwrap();
    assert_eq!(got[0], 1);
    assert_eq!(got.len(), 4);
    let pos = |x: u64| got.iter().position(|&v| v == x).unwrap();
    assert!(pos(2) < pos(3), "nested producer reordered: {got:?}");
}

/// A thief picks its victim by queue depth, and operations a delegate
/// help-executes while it waits on a future leave that depth like any
/// other: once the queue is empty its depth reads 0 mid-epoch, not only
/// after the epoch rolls over.
#[test]
fn help_executed_operations_leave_the_queue_depth() {
    const K: u64 = 8;
    let rt = Runtime::builder()
        .delegate_threads(2)
        .stealing(true)
        .build()
        .unwrap();
    let a: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
    let b: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
    let (gate, entered) = (Arc::new(AtomicU64::new(0)), Arc::new(Mutex::new(None)));
    rt.begin_isolation().unwrap();
    // Delegate 1 is kept busy, so it cannot steal delegate 0's work.
    submit(&rt, SsId(1), gated_task(&gate, &entered)).unwrap();
    assert_eq!(wait_entered(&entered), "ss-delegate-1");
    let (rt2, b2) = (rt.clone(), b.clone());
    let parent = a
        .delegate_in_with(SsId(2), move |_| {
            rt2.delegate_scope(|cx| {
                let futures: Vec<_> = (0..K)
                    .map(|_| cx.delegate_in_with(&b2, SsId(4), |n| *n += 1).unwrap())
                    .collect();
                // Delegate 0 runs the K operations itself, help-first.
                futures.into_iter().for_each(|f| f.wait().unwrap());
            })
            .unwrap()
        })
        .unwrap();
    parent.wait().unwrap();
    let depth = || rt.inner.core.stats.queue_depth(0);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while depth() != 0 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    let (last_depth, depths) = (depth(), rt.stats().queue_depths);
    gate.store(1, Ordering::Release);
    rt.end_isolation().unwrap();
    assert_eq!(last_depth, 0, "drained delegate still reads as loaded");
    assert_eq!(depths, vec![0, 1]);
    assert_eq!(b.call(|n| *n).unwrap(), K);
}

/// `delegate_scope` is rejected off the executors: on the program thread
/// at a delegation point and on foreign threads. Inside an operation the
/// program thread runs itself, it opens the program thread's delegate
/// context (writer slot 0).
#[test]
fn delegate_scope_works_inside_every_operation_and_nowhere_else() {
    let rt = Runtime::builder().delegate_threads(1).build().unwrap();
    assert_eq!(
        rt.delegate_scope(|_| ()).unwrap_err(),
        SsError::WrongContext
    );
    let rt2 = rt.clone();
    std::thread::spawn(move || {
        assert_eq!(
            rt2.delegate_scope(|_| ()).unwrap_err(),
            SsError::WrongContext
        );
    })
    .join()
    .unwrap();
    // Zero delegates: the program thread runs every operation.
    let rt = Runtime::builder().delegate_threads(0).build().unwrap();
    let seen = Arc::new(Mutex::new(None));
    let (rt3, seen2) = (rt.clone(), Arc::clone(&seen));
    rt.begin_isolation().unwrap();
    submit(
        &rt,
        SsId(0),
        TaskSlot::new(move |_| {
            *seen2.lock() = Some(rt3.delegate_scope(|cx| cx.executor()));
        }),
    )
    .unwrap();
    rt.end_isolation().unwrap();
    assert_eq!(seen.lock().take(), Some(Ok(Executor::Program)));
}

/// Re-entrant delegation from inside an object's own access closure is
/// rejected instead of aliasing the live borrow.
#[test]
fn delegation_inside_access_closure_rejected() {
    let rt = Runtime::builder().delegate_threads(1).build().unwrap();
    let w: Writable<u64> = Writable::new(&rt, 0);
    rt.begin_isolation().unwrap();
    w.delegate(|n| *n += 1).unwrap();
    let w2 = w.clone();
    let err = w
        .call_mut(move |_| w2.delegate(|n| *n += 1).unwrap_err())
        .unwrap();
    assert!(matches!(err, SsError::AccessInProgress { .. }));
    rt.end_isolation().unwrap();
    assert_eq!(w.call(|n| *n).unwrap(), 1);
}

/// A mid-epoch reclaim with nesting active quiesces the runtime: once the
/// nested-epoch flag is up, reclaiming *any* object waits for every
/// operation transitively spawned by the roots submitted so far — even
/// children on other queues that a per-set token would never cover.
#[test]
fn reclaim_with_nesting_waits_for_transitive_children() {
    let rt = Runtime::builder().delegate_threads(3).build().unwrap();
    let x: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
    let roots: Vec<Writable<u64, SequenceSerializer>> =
        (0..4).map(|_| Writable::new(&rt, 0)).collect();
    let pool: Vec<Writable<u64, SequenceSerializer>> =
        (0..4).map(|_| Writable::new(&rt, 0)).collect();
    let hits = Arc::new(AtomicU64::new(0));
    rt.begin_isolation().unwrap();
    x.delegate(|n| *n = 7).unwrap();
    for (i, r) in roots.iter().enumerate() {
        let (rt2, p, h) = (rt.clone(), pool[i].clone(), Arc::clone(&hits));
        r.delegate(move |n| {
            *n += 1;
            rt2.delegate_scope(|cx| {
                for _ in 0..8 {
                    let h2 = Arc::clone(&h);
                    cx.delegate(&p, move |t| {
                        *t += 1;
                        h2.fetch_add(1, Ordering::Relaxed);
                    })
                    .unwrap();
                }
            })
            .unwrap();
            // Keep the parent alive past its submissions so children are
            // genuinely in flight when the reclaim below starts.
            std::thread::sleep(std::time::Duration::from_millis(2));
        })
        .unwrap();
    }
    // Wait until nesting is observably active, so the reclaim is
    // guaranteed to take the quiesce path.
    while rt.stats().nested_delegations == 0 {
        std::hint::spin_loop();
    }
    assert_eq!(x.call(|n| *n).unwrap(), 7);
    // The reclaim of `x` returned ⇒ the runtime is quiescent ⇒ all four
    // roots and all 32 transitively spawned children have executed.
    assert_eq!(hits.load(Ordering::Relaxed), 32);
    rt.end_isolation().unwrap();
    for p in &pool {
        assert_eq!(p.call(|n| *n).unwrap(), 8);
    }
}

/// Nested delegations appear in the trace as `NestedDelegate` events with
/// their set and executor, folded in logical submission order.
#[test]
fn nested_trace_events_are_recorded() {
    let rt = Runtime::builder()
        .delegate_threads(2)
        .trace(true)
        .build()
        .unwrap();
    let parent: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
    let child: Writable<Vec<u64>, SequenceSerializer> = Writable::new(&rt, Vec::new());
    rt.begin_isolation().unwrap();
    let (rt2, child2) = (rt.clone(), child.clone());
    parent
        .delegate(move |_| {
            rt2.delegate_scope(|cx| {
                for i in 0..5 {
                    cx.delegate(&child2, move |v| v.push(i)).unwrap();
                }
            })
            .unwrap();
        })
        .unwrap();
    rt.end_isolation().unwrap();
    let trace = rt.take_trace().unwrap();
    let nested: Vec<_> = trace
        .iter()
        .filter(|e| e.kind == crate::TraceKind::NestedDelegate)
        .collect();
    assert_eq!(nested.len(), 5);
    for e in &nested {
        assert_eq!(e.object, Some(child.instance()));
        assert_eq!(e.set, Some(SsId(child.instance())));
        assert!(matches!(
            e.executor,
            Some(crate::TraceExecutor::Delegate(_))
        ));
        assert_eq!(e.epoch, 1);
    }
    assert_eq!(rt.stats().nested_delegations, 5);
}

#[test]
fn steal_trace_events_are_recorded() {
    let rt = Runtime::builder()
        .delegate_threads(2)
        .stealing(true)
        .trace(true)
        .build()
        .unwrap();
    let gate = Arc::new(AtomicU64::new(0));
    rt.begin_isolation().unwrap();
    let g = Arc::clone(&gate);
    submit(
        &rt,
        SsId(0), // delegate 0, with every set below
        TaskSlot::new(move |_| {
            while g.load(Ordering::Acquire) == 0 {
                std::hint::spin_loop();
            }
        }),
    )
    .unwrap();
    for s in 1..=16u64 {
        submit(&rt, SsId(2 * s), TaskSlot::new(|_| {})).unwrap();
    }
    std::thread::sleep(std::time::Duration::from_millis(50));
    gate.store(1, Ordering::Release);
    rt.end_isolation().unwrap();
    let trace = rt.take_trace().unwrap();
    let steals: Vec<_> = trace
        .iter()
        .filter(|e| e.kind == crate::TraceKind::Steal)
        .collect();
    assert!(!steals.is_empty(), "no Steal events in trace");
    for e in &steals {
        assert!(e.set.is_some());
        assert!(matches!(
            e.executor,
            Some(crate::TraceExecutor::Delegate(_))
        ));
        assert_eq!(e.epoch, 1);
    }
    // Pin events exist too: stealing always pins, and a stolen set's pin
    // rewrite is visible as placement.
    assert!(trace.iter().any(|e| e.kind == crate::TraceKind::Pin));
}

// ----------------------------------------------------------------------
// the single submit path: conservation laws over every cell of the matrix

/// One row per cell of {program, nested} × {root, session} × {SPSC,
/// stealing} × {run of 1, run of n}: whatever lane the run travels on,
/// the same laws hold after the domain's barrier — the drain counter and
/// every queue depth are back at 0, the delegation counters equal the
/// submitted count, every counted operation has completed, and a submit
/// on a terminated pool reports exactly the tasks that never executed
/// (which is what the wrapper unwinds from `pending`).
#[test]
fn one_submit_path_conserves_operations_in_every_cell() {
    const RUNS: usize = 12;
    for origin in [Origin::Program, Origin::Nested] {
        for tenant in [false, true] {
            for stealing in [false, true] {
                for len in [1usize, 5] {
                    let cell = format!(
                        "{} / {} / stealing {stealing} / run of {len}",
                        if origin == Origin::Program {
                            "program"
                        } else {
                            "nested"
                        },
                        if tenant { "session" } else { "root" },
                    );
                    let rt = Runtime::builder()
                        .delegate_threads(2)
                        .stealing(stealing)
                        .build()
                        .unwrap();
                    let session = tenant.then(|| rt.session().unwrap());
                    let handle: Runtime = match &session {
                        Some(s) => (**s).clone(),
                        None => rt.clone(),
                    };
                    let executed = Arc::new(AtomicU64::new(0));
                    let run_of = |executed: &Arc<AtomicU64>| -> Vec<Option<TaskSlot>> {
                        (0..len).map(|_| Some(bump(executed))).collect()
                    };

                    handle.begin_isolation().unwrap();
                    for r in 0..RUNS as u64 {
                        match origin {
                            Origin::Program => {
                                handle
                                    .submit(Origin::Program, SsId(r), &mut run_of(&executed))
                                    .unwrap();
                            }
                            Origin::Nested => {
                                // A parent of this domain re-delegates the
                                // run from its delegate context.
                                let (h, mut run) = (handle.clone(), run_of(&executed));
                                let parent = TaskSlot::new(move |_| {
                                    h.submit(Origin::Nested, SsId(1_000 + r), &mut run).unwrap();
                                });
                                handle
                                    .submit(Origin::Program, SsId(r), &mut [Some(parent)])
                                    .unwrap();
                            }
                        }
                    }
                    handle.end_isolation().unwrap();

                    let ops = (RUNS * len) as u64;
                    let parents = if origin == Origin::Nested {
                        RUNS as u64
                    } else {
                        0
                    };
                    // Only the root's program thread pushes on the
                    // (uncounted) rings; every other lane counts.
                    let ring = !tenant && !stealing;
                    let counted = match origin {
                        Origin::Program if ring => 0,
                        Origin::Program => ops,
                        Origin::Nested if ring => ops,
                        Origin::Nested => ops + parents,
                    };
                    let (d, stats) = (handle.domain(), rt.stats());
                    assert_eq!(executed.load(Ordering::Relaxed), ops, "{cell}");
                    assert_eq!(d.in_flight.load(Ordering::Acquire), 0, "{cell}");
                    assert!(
                        stats.queue_depths.iter().all(|&q| q == 0),
                        "{cell}: {stats:?}"
                    );
                    assert_eq!(stats.delegations, ops + parents, "{cell}");
                    assert_eq!(stats.nested_delegations, ops * parents.min(1), "{cell}");
                    assert_eq!(d.submitted.load(Ordering::Relaxed), counted, "{cell}");
                    assert_eq!(d.completed.load(Ordering::Relaxed), counted, "{cell}");
                    assert_eq!(
                        stats.delegate_executed.iter().sum::<u64>() + stats.inline_executions,
                        ops + parents,
                        "{cell}"
                    );

                    // Terminated pool: the whole run is reported unexecuted,
                    // and the wrapper unwinds `pending` by exactly that. (A
                    // session may still be mid-epoch when the root shuts the
                    // pool down, which is how a wrapper reaches the submit.)
                    let w: crate::Writable<u64> = crate::Writable::new(&handle, 0);
                    if tenant {
                        handle.begin_isolation().unwrap();
                    }
                    rt.shutdown().unwrap();
                    assert_eq!(
                        handle.submit(Origin::Program, SsId(7), &mut run_of(&executed)),
                        Err((SsError::Terminated, len)),
                        "{cell}"
                    );
                    if tenant {
                        let err = w.delegate_iter((0..len).map(|_| |n: &mut u64| *n += 1));
                        assert_eq!(err, Err(SsError::Terminated), "{cell}");
                        assert_eq!(w.pending_operations(), 0, "{cell}");
                    }
                    assert_eq!(executed.load(Ordering::Relaxed), ops, "{cell}");
                }
            }
        }
    }
}

/// `session_queue_cap` bounds a tenant's program-submitted backlog however
/// long the run is: a `delegate_iter`-sized run is admitted only as far as
/// the cap has room, and the stall is counted.
#[test]
fn capped_session_admits_a_long_run_only_up_to_its_cap() {
    const CAP: u64 = 4;
    const RUN: u64 = 40;
    for stealing in [false, true] {
        let rt = Runtime::builder()
            .delegate_threads(2)
            .stealing(stealing)
            .session_queue_cap(CAP as usize)
            .build()
            .unwrap();
        let session = rt.session().unwrap();
        let peak = Arc::new(AtomicU64::new(0));
        let mut run: Vec<Option<TaskSlot>> = (0..RUN)
            .map(|k| {
                let (h, peak) = ((*session).clone(), Arc::clone(&peak));
                Some(TaskSlot::new(move |_| {
                    let (d, stats) = (h.domain(), h.program_stats());
                    // The first operation holds its queue until the program
                    // thread has filled the cap and stalled on it (or has
                    // overrun it, which the assertion below reports).
                    while k == 0
                        && stats.starvation_stalls.load(Ordering::Relaxed) == 0
                        && d.in_flight.load(Ordering::Relaxed) <= CAP
                    {
                        std::thread::yield_now();
                    }
                    peak.fetch_max(d.in_flight.load(Ordering::Relaxed), Ordering::Relaxed);
                }))
            })
            .collect();

        session.begin_isolation().unwrap();
        session.submit(Origin::Program, SsId(1), &mut run).unwrap();
        session.end_isolation().unwrap();

        assert_eq!(peak.load(Ordering::Relaxed), CAP, "stealing {stealing}");
        assert!(rt.stats().starvation_stalls >= 1, "stealing {stealing}");
        assert_eq!(
            session.session_stats().completed,
            RUN,
            "stealing {stealing}"
        );
    }
}

/// `SessionStats::epochs` counts *completed* epochs: it must not move at
/// `begin_isolation` (the epoch serial does).
#[test]
fn session_stats_epochs_counts_completed_epochs_only() {
    let rt = Runtime::builder().delegate_threads(1).build().unwrap();
    let session = rt.session().unwrap();
    assert_eq!(session.session_stats().epochs, 0);
    for done in 0..3u64 {
        session.begin_isolation().unwrap();
        assert_eq!(session.session_stats().epochs, done, "inside an open epoch");
        session.end_isolation().unwrap();
        assert_eq!(session.session_stats().epochs, done + 1, "after the epoch");
    }
    // The root's epochs are its own.
    rt.begin_isolation().unwrap();
    rt.end_isolation().unwrap();
    assert_eq!(session.session_stats().epochs, 3);
}
