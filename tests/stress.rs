//! Endurance and oversubscription stress: the runtime must stay correct
//! (not merely fast) when delegate threads outnumber cores, when epochs
//! cycle thousands of times, when serializers are stateful — and when
//! delegations are *recursive* (spawned from delegate contexts), which is
//! where epoch barriers and reclaims are easiest to undercount.
//!
//! Several tests read `SS_DELEGATES` so the CI matrix can vary the
//! runtime's delegate count (2 vs 8) and actually shake different
//! interleavings out of schedule-sensitive paths.

use prometheus_rs::prelude::*;

/// Delegate count override for CI matrix legs (default: `fallback`).
fn delegates_from_env(fallback: usize) -> usize {
    std::env::var("SS_DELEGATES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(fallback)
}

#[test]
fn heavy_oversubscription_is_correct() {
    // 8 delegates on a ~2-core host: scheduling is hostile, results must
    // not change.
    let rt = Runtime::builder().delegate_threads(8).build().unwrap();
    let objs: Vec<Writable<u64, SequenceSerializer>> =
        (0..32).map(|_| Writable::new(&rt, 0)).collect();
    rt.begin_isolation().unwrap();
    for i in 0..20_000u64 {
        objs[(i % 32) as usize]
            .delegate(move |n| *n = n.wrapping_mul(6364136223846793005).wrapping_add(i))
            .unwrap();
    }
    rt.end_isolation().unwrap();
    // Compare against the zero-delegate (inline) execution.
    let inline_rt = Runtime::builder().delegate_threads(0).build().unwrap();
    let inline_objs: Vec<Writable<u64, SequenceSerializer>> =
        (0..32).map(|_| Writable::new(&inline_rt, 0)).collect();
    inline_rt.begin_isolation().unwrap();
    for i in 0..20_000u64 {
        inline_objs[(i % 32) as usize]
            .delegate(move |n| *n = n.wrapping_mul(6364136223846793005).wrapping_add(i))
            .unwrap();
    }
    inline_rt.end_isolation().unwrap();
    for (a, b) in objs.iter().zip(&inline_objs) {
        assert_eq!(a.call(|n| *n).unwrap(), b.call(|n| *n).unwrap());
    }
}

#[test]
fn thousands_of_epochs_cycle_cleanly() {
    let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    let w: Writable<u64> = Writable::new(&rt, 0);
    for _ in 0..2_000 {
        rt.isolated(|| w.delegate(|n| *n += 1).unwrap()).unwrap();
    }
    assert_eq!(w.call(|n| *n).unwrap(), 2_000);
    assert_eq!(rt.stats().isolation_epochs, 2_000);
}

#[test]
fn frequent_reclaims_interleave_with_delegations() {
    // Alternate delegate → call → delegate on the same object; every read
    // must observe all prior writes (the synchronization-object contract).
    let rt = Runtime::builder().delegate_threads(1).build().unwrap();
    let w: Writable<Vec<u64>> = Writable::new(&rt, vec![]);
    rt.begin_isolation().unwrap();
    for i in 0..500u64 {
        w.delegate(move |v| v.push(i)).unwrap();
        let len = w.call(|v| v.len() as u64).unwrap();
        assert_eq!(len, i + 1, "reclaim lost a write");
        // Re-delegation after reclaim keeps working (Figure 1, epoch 2).
    }
    rt.end_isolation().unwrap();
}

#[test]
fn stateful_serializer_instances_are_respected() {
    // A serializer that routes by an interior field: all accounts of one
    // shard serialize together; mutating the field between epochs moves the
    // object to a different set — legal, because tags reset per epoch.
    struct Account {
        shard: u64,
        log: Vec<u64>,
    }
    let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    let acct = Writable::with_serializer(
        &rt,
        Account {
            shard: 0,
            log: vec![],
        },
        FnSerializer::new(|a: &Account| a.shard),
    );
    rt.isolated(|| {
        acct.delegate(|a| a.log.push(1)).unwrap();
    })
    .unwrap();
    let set_epoch1 = rt
        .isolated(|| {
            acct.delegate(|a| a.log.push(2)).unwrap();
            acct.current_set().unwrap()
        })
        .unwrap();
    assert_eq!(set_epoch1, Some(SsId(0)));
    // Move the object to another shard during aggregation.
    acct.call_mut(|a| a.shard = 7).unwrap();
    let set_epoch2 = rt
        .isolated(|| {
            acct.delegate(|a| a.log.push(3)).unwrap();
            acct.current_set().unwrap()
        })
        .unwrap();
    assert_eq!(set_epoch2, Some(SsId(7)));
    assert_eq!(acct.call(|a| a.log.clone()).unwrap(), vec![1, 2, 3]);
}

#[test]
fn internal_serializer_is_cached_within_an_epoch() {
    // The serializer runs on the first delegation of the epoch; later
    // delegations reuse the tag, so a serializer-relevant field mutated *by
    // the delegated operations themselves* cannot split the object across
    // sets mid-epoch (the §3.3 hazard the tag check exists for).
    use std::sync::atomic::{AtomicU32, Ordering};
    static CALLS: AtomicU32 = AtomicU32::new(0);
    struct CountingSer;
    impl ss_core::Serializer<u64> for CountingSer {
        fn serialize(&self, _o: &u64, cx: ss_core::SerializeCx) -> Option<SsId> {
            CALLS.fetch_add(1, Ordering::Relaxed);
            Some(SsId(cx.instance))
        }
    }
    let rt = Runtime::builder().delegate_threads(1).build().unwrap();
    let w = Writable::with_serializer(&rt, 0u64, CountingSer);
    rt.begin_isolation().unwrap();
    let before = CALLS.load(Ordering::Relaxed);
    for _ in 0..100 {
        w.delegate(|n| *n += 1).unwrap();
    }
    rt.end_isolation().unwrap();
    let calls = CALLS.load(Ordering::Relaxed) - before;
    // First delegation must run it; consistency re-checks may run it only
    // when no operations are in flight. It must NOT run 100 times.
    assert!((1..100).contains(&calls), "serializer ran {calls} times");
    assert_eq!(w.call(|n| *n).unwrap(), 100);
}

#[test]
fn bursty_small_queues_with_many_objects() {
    // Tiny queues force constant backpressure while many objects hash onto
    // few delegates.
    let rt = Runtime::builder()
        .delegate_threads(2)
        .queue_capacity(4)
        .build()
        .unwrap();
    let objs: Vec<Writable<u64, SequenceSerializer>> =
        (0..100).map(|_| Writable::new(&rt, 0)).collect();
    for _ in 0..5 {
        rt.begin_isolation().unwrap();
        for (i, o) in objs.iter().enumerate() {
            for _ in 0..(i % 7) + 1 {
                o.delegate(|n| *n += 1).unwrap();
            }
        }
        rt.end_isolation().unwrap();
    }
    let total: u64 = objs.iter().map(|o| o.call(|n| *n).unwrap()).sum();
    let expected: u64 = (0..100).map(|i| ((i % 7) + 1) * 5).sum();
    assert_eq!(total, expected);
}

/// The nested-depth axis the original suite lacked: the same fan-out
/// workload at delegation depths 1, 2 and 3, under oversubscription and
/// both transports, compared against a closed-form expectation.
#[test]
fn nested_depth_axis_is_correct_under_oversubscription() {
    const ROOTS: u64 = 64;
    const FAN: u64 = 3;
    for depth in [1usize, 2, 3] {
        for stealing in [false, true] {
            let rt = Runtime::builder()
                .delegate_threads(delegates_from_env(8))
                .stealing(stealing)
                .build()
                .unwrap();
            // One accumulator per (root, level) so every object keeps a
            // single producer context.
            let cells: Vec<Vec<Writable<u64, SequenceSerializer>>> = (0..ROOTS)
                .map(|_| (0..depth).map(|_| Writable::new(&rt, 0)).collect())
                .collect();
            rt.begin_isolation().unwrap();
            for (r, levels) in cells.iter().enumerate() {
                let rt1 = rt.clone();
                let levels1: Vec<_> = levels.to_vec();
                levels[0]
                    .delegate(move |n| {
                        *n += 1;
                        spawn_level(&rt1, &levels1, 1, FAN);
                    })
                    .unwrap();
                let _ = r;
            }
            rt.end_isolation().unwrap();
            // Level l receives FAN^l operations per root.
            for levels in &cells {
                for (l, cell) in levels.iter().enumerate() {
                    let expect = FAN.pow(l as u32);
                    assert_eq!(
                        cell.call(|n| *n).unwrap(),
                        expect,
                        "depth {depth}, level {l}, stealing {stealing}"
                    );
                }
            }
            let stats = rt.stats();
            if depth > 1 {
                assert!(stats.nested_delegations > 0, "{stats:?}");
            } else {
                assert_eq!(stats.nested_delegations, 0, "{stats:?}");
            }
        }
    }
}

/// Recursively delegates `FAN` operations on `levels[l]` from the current
/// delegate context, each spawning the next level.
fn spawn_level(rt: &Runtime, levels: &[Writable<u64, SequenceSerializer>], l: usize, fan: u64) {
    if l >= levels.len() {
        return;
    }
    rt.delegate_scope(|cx| {
        for _ in 0..fan {
            let rt2 = rt.clone();
            let levels2: Vec<_> = levels.to_vec();
            cx.delegate(&levels[l], move |n| {
                *n += 1;
                spawn_level(&rt2, &levels2, l + 1, fan);
            })
            .unwrap();
        }
    })
    .unwrap();
}

/// The barrier-under-load case that would have caught an `in_flight`
/// undercount: parents are still running — and still spawning — when
/// `end_isolation` starts, so a barrier that counted a child only after
/// its parent returned (or relied on queue tokens alone) would return
/// with grandchildren unexecuted. Every child's effect must be visible
/// after `end_isolation`.
#[test]
fn barrier_under_load_waits_for_late_spawned_children() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    const ROOTS: usize = 24;
    const KIDS: u64 = 4;
    const GRANDS: u64 = 2;
    for stealing in [false, true] {
        let rt = Runtime::builder()
            .delegate_threads(delegates_from_env(4))
            .stealing(stealing)
            .build()
            .unwrap();
        let roots: Vec<Writable<u64, SequenceSerializer>> =
            (0..ROOTS).map(|_| Writable::new(&rt, 0)).collect();
        let kids: Vec<Writable<u64, SequenceSerializer>> =
            (0..ROOTS).map(|_| Writable::new(&rt, 0)).collect();
        let grands: Vec<Writable<u64, SequenceSerializer>> =
            (0..ROOTS).map(|_| Writable::new(&rt, 0)).collect();
        let hits = Arc::new(AtomicU64::new(0));
        rt.begin_isolation().unwrap();
        for i in 0..ROOTS {
            let (rt1, kid, grand, h) = (
                rt.clone(),
                kids[i].clone(),
                grands[i].clone(),
                Arc::clone(&hits),
            );
            roots[i]
                .delegate(move |n| {
                    // Stall so the program thread reaches end_isolation
                    // while parents are mid-flight; children then arrive
                    // *after* the barrier tokens were queued.
                    std::thread::sleep(std::time::Duration::from_micros(300));
                    *n += 1;
                    rt1.delegate_scope(|cx| {
                        for _ in 0..KIDS {
                            let (rt2, grand2, h2) = (rt1.clone(), grand.clone(), Arc::clone(&h));
                            cx.delegate(&kid, move |k| {
                                *k += 1;
                                std::thread::sleep(std::time::Duration::from_micros(100));
                                rt2.delegate_scope(|cx| {
                                    for _ in 0..GRANDS {
                                        let h3 = Arc::clone(&h2);
                                        cx.delegate(&grand2, move |g| {
                                            *g += 1;
                                            h3.fetch_add(1, Ordering::Relaxed);
                                        })
                                        .unwrap();
                                    }
                                })
                                .unwrap();
                            })
                            .unwrap();
                        }
                    })
                    .unwrap();
                })
                .unwrap();
        }
        // Barrier races everything above.
        rt.end_isolation().unwrap();
        let expect_grands = ROOTS as u64 * KIDS * GRANDS;
        assert_eq!(
            hits.load(Ordering::Relaxed),
            expect_grands,
            "stealing {stealing}: barrier returned before transitive children"
        );
        for i in 0..ROOTS {
            assert_eq!(roots[i].call(|n| *n).unwrap(), 1, "stealing {stealing}");
            assert_eq!(kids[i].call(|n| *n).unwrap(), KIDS, "stealing {stealing}");
            assert_eq!(
                grands[i].call(|n| *n).unwrap(),
                KIDS * GRANDS,
                "stealing {stealing}"
            );
        }
    }
}

/// The futures axis: many pending futures at once, waited across an
/// epoch boundary, under oversubscription and both transports. After the
/// barrier every future must be ready, and the values must match the
/// closed form.
#[test]
fn many_pending_futures_across_epoch_boundaries() {
    const OBJS: usize = 32;
    const EPOCHS: u64 = 20;
    for stealing in [false, true] {
        let rt = Runtime::builder()
            .delegate_threads(delegates_from_env(8))
            .stealing(stealing)
            .build()
            .unwrap();
        let objs: Vec<Writable<u64, SequenceSerializer>> =
            (0..OBJS).map(|_| Writable::new(&rt, 0)).collect();
        let mut carried: Vec<SsFuture<u64>> = Vec::new();
        let mut parked: Vec<SsFuture<u64>> = Vec::new();
        for epoch in 0..EPOCHS {
            rt.begin_isolation().unwrap();
            // Waited-across-the-boundary futures from the previous epoch
            // must already be resolved (the barrier settles every cell).
            for f in carried.drain(..) {
                assert!(
                    f.is_ready(),
                    "stealing {stealing}: future crossed epoch pending"
                );
                assert_eq!(f.wait().unwrap() % 1000, epoch - 1, "stealing {stealing}");
            }
            for (i, o) in objs.iter().enumerate() {
                let fut = o
                    .delegate_with(move |n| {
                        *n += 1;
                        (i as u64) * 1_000_000 + *n * 1000 + epoch
                    })
                    .unwrap();
                // Keep every fourth future pending across the boundary;
                // wait a quarter mid-epoch; park the rest until the
                // barrier (dropping them mid-epoch would cancel the ops,
                // and this test wants every operation to run).
                match i % 4 {
                    0 => carried.push(fut),
                    1 => {
                        assert_eq!(
                            fut.wait().unwrap(),
                            (i as u64) * 1_000_000 + (epoch + 1) * 1000 + epoch,
                            "stealing {stealing}"
                        );
                    }
                    _ => parked.push(fut),
                }
            }
            rt.end_isolation().unwrap();
            parked.clear(); // settled by the barrier; dropping cancels nothing
        }
        for o in &objs {
            assert_eq!(o.call(|n| *n).unwrap(), EPOCHS, "stealing {stealing}");
        }
        let stats = rt.stats();
        assert_eq!(
            stats.futures_resolved,
            EPOCHS * OBJS as u64,
            "stealing {stealing}"
        );
        assert_eq!(stats.in_flight, 0, "stealing {stealing}");
    }
}

/// Dropped-future leak check: a storm of future-returning operations —
/// nested ones included — whose futures are all dropped unwaited must
/// leave no residue. Dropping an unresolved future requests cancellation
/// (skip-if-not-started), so each op either runs to completion or is
/// skipped whole — never half-applied — and either way its cell settles
/// and its accounting drains. The conservation laws checked here:
/// every submitted op is resolved or cancelled, the object increments
/// equal the resolutions exactly, children exist only under executed
/// roots, and nothing stays in flight.
#[test]
fn dropped_futures_leak_nothing_under_nesting() {
    const ROOTS: u64 = 48;
    const KIDS: u64 = 3;
    for stealing in [false, true] {
        let rt = Runtime::builder()
            .delegate_threads(delegates_from_env(4))
            .stealing(stealing)
            .build()
            .unwrap();
        let roots: Vec<Writable<u64, SequenceSerializer>> =
            (0..ROOTS).map(|_| Writable::new(&rt, 0)).collect();
        let kids: Vec<Writable<u64, SequenceSerializer>> =
            (0..ROOTS).map(|_| Writable::new(&rt, 0)).collect();
        rt.begin_isolation().unwrap();
        for i in 0..ROOTS as usize {
            let (rt1, kid) = (rt.clone(), kids[i].clone());
            // Root future dropped immediately (a cancellation request the
            // executor honours only if the op hasn't started); an executed
            // root spawns nested future-returning children and drops those
            // futures too.
            drop(
                roots[i]
                    .delegate_with(move |n| {
                        *n += 1;
                        rt1.delegate_scope(|cx| {
                            for _ in 0..KIDS {
                                drop(cx.delegate_with(&kid, |k| {
                                    *k += 1;
                                    *k
                                }));
                            }
                        })
                        .unwrap();
                        *n
                    })
                    .unwrap(),
            );
        }
        rt.end_isolation().unwrap();
        let mut roots_run = 0u64;
        let mut kids_run = 0u64;
        for i in 0..ROOTS as usize {
            let r = roots[i].call(|n| *n).unwrap();
            let k = kids[i].call(|n| *n).unwrap();
            assert!(r <= 1, "stealing {stealing}: root {i} ran {r} times");
            assert!(
                k <= KIDS * r,
                "stealing {stealing}: kid {i} has {k} increments under {r} root runs"
            );
            roots_run += r;
            kids_run += k;
        }
        let stats = rt.stats();
        // Only executed roots submit children, so the total submission
        // count is itself a function of what ran — and every submission
        // must be accounted a resolution or a cancellation.
        let submitted = ROOTS + roots_run * KIDS;
        assert_eq!(
            stats.futures_resolved + stats.ops_cancelled,
            submitted,
            "stealing {stealing}: a dropped future lost its completion"
        );
        // Each resolved op incremented its object exactly once; a
        // cancelled op incremented nothing (skipped whole, not half-run).
        assert_eq!(
            roots_run + kids_run,
            stats.futures_resolved,
            "stealing {stealing}: increments must match resolutions exactly"
        );
        assert_eq!(
            stats.in_flight, 0,
            "stealing {stealing}: dropped futures leaked in_flight"
        );
        assert!(
            stats.queue_depths.iter().all(|&d| d == 0),
            "stealing {stealing}: residual queue depth {:?}",
            stats.queue_depths
        );
    }
}

/// The routing-contention axis: many delegates hammer the routing layer
/// concurrently — nested delegations and future waits from every
/// delegate context at once, the exact shape that used to serialize on
/// one global routing lock — while the trace log records every
/// routing decision and every execution. Pin stability is then checked
/// *from the trace*: within one epoch no serialization set may be
/// observed on more executors, executing or routed, than its recorded
/// steal events allow: one without stealing, and with stealing one more
/// per `Steal` (a never-started set) or `OpSteal` (a quiescent tail).
#[test]
fn routing_contention_preserves_pin_stability() {
    use std::collections::{HashMap, HashSet};

    const ROOTS: usize = 16;
    const KIDS: u64 = 3;
    const EPOCHS: u64 = 3;
    for stealing in [false, true] {
        let rt = Runtime::builder()
            // Root nested submits route through the pin map (a retraction
            // could have pinned any set), under each set's shard lock at
            // first touch.
            .delegate_threads(delegates_from_env(8))
            .stealing(stealing)
            .trace(true)
            .build()
            .unwrap();
        let roots: Vec<Writable<u64, SequenceSerializer>> =
            (0..ROOTS).map(|_| Writable::new(&rt, 0)).collect();
        let kids: Vec<Writable<u64, SequenceSerializer>> =
            (0..ROOTS).map(|_| Writable::new(&rt, 0)).collect();
        for _ in 0..EPOCHS {
            rt.begin_isolation().unwrap();
            let futs: Vec<SsFuture<u64>> = (0..ROOTS)
                .map(|i| {
                    let (rt1, kid) = (rt.clone(), kids[i].clone());
                    roots[i]
                        .delegate_with(move |n| {
                            // Nested future-returning delegations, waited
                            // right here: 8 delegates blocked in help-first
                            // waits while their peers route concurrently.
                            let sum: u64 = rt1
                                .delegate_scope(|cx| {
                                    let kid_futs: Vec<SsFuture<u64>> = (0..KIDS)
                                        .map(|_| {
                                            cx.delegate_with(&kid, |k| {
                                                *k += 1;
                                                *k
                                            })
                                            .unwrap()
                                        })
                                        .collect();
                                    kid_futs.into_iter().map(|f| f.wait().unwrap()).sum()
                                })
                                .unwrap();
                            *n += sum;
                            *n
                        })
                        .unwrap()
                })
                .collect();
            // Wait for half the roots mid-epoch (program-context waits
            // racing the delegate-context ones); park the rest until the
            // barrier settles them (dropping mid-epoch would cancel).
            let mut parked = Vec::new();
            for (i, f) in futs.into_iter().enumerate() {
                if i % 2 == 0 {
                    f.wait().unwrap();
                } else {
                    parked.push(f);
                }
            }
            rt.end_isolation().unwrap();
            drop(parked);
        }
        // Every kid cell received KIDS increments per epoch.
        for kid in &kids {
            assert_eq!(
                kid.call(|k| *k).unwrap(),
                KIDS * EPOCHS,
                "stealing {stealing}"
            );
        }

        let trace = rt.take_trace().unwrap();
        // Execution side: every operation in this test is
        // future-returning, so `FutureResolve` events — which record the
        // *executing* context — cover every execution.
        let mut executed_on: HashMap<(u64, u64), HashSet<usize>> = HashMap::new();
        // Routing side: who each set was routed to. Both are bounded by
        // how many recorded steals could legitimately have moved the set.
        let mut routed_to: HashMap<(u64, u64), HashSet<usize>> = HashMap::new();
        let mut steals: HashMap<(u64, u64), usize> = HashMap::new();
        for e in &trace {
            let (Some(set), Some(TraceExecutor::Delegate(d))) = (e.set, e.executor) else {
                continue;
            };
            match e.kind {
                TraceKind::FutureResolve => {
                    executed_on.entry((e.epoch, set.0)).or_default().insert(d);
                }
                TraceKind::Pin | TraceKind::Delegate | TraceKind::NestedDelegate => {
                    routed_to.entry((e.epoch, set.0)).or_default().insert(d);
                }
                TraceKind::Steal | TraceKind::OpSteal => {
                    *steals.entry((e.epoch, set.0)).or_default() += 1;
                }
                _ => {}
            }
        }
        assert!(
            !executed_on.is_empty(),
            "stealing {stealing}: no executions traced"
        );
        for (what, seen) in [("executed on", &executed_on), ("routed to", &routed_to)] {
            for ((epoch, set), executors) in seen {
                let allowed = 1 + steals.get(&(*epoch, *set)).copied().unwrap_or(0);
                assert!(
                    executors.len() <= allowed,
                    "stealing {stealing}: set {set} {what} {executors:?} in epoch {epoch} \
                     with only {} recorded steal(s)",
                    allowed - 1
                );
            }
        }
    }
}

/// The op-granularity payoff case, stated as a falsifiable comparison:
/// a *zipf-stall* shape — one cold set of long stall operations and one
/// hot set with a deep tail of medium operations, both co-located on one
/// delegate and both started before their bodies queue. Without stealing
/// every operation runs on that delegate, so the executed-op spread is
/// all 70 of them. With stealing on, the thief migrates quiescent tails
/// mid-set (in either direction), so the spread lands strictly below.
///
/// Asserts, with the same workload off and on:
///
/// * off performs no steals at all;
/// * on performs at least one quiescent-tail steal and strictly improves
///   the spread;
/// * the trace-log audit, including `OpSteal` events, certifies that
///   within each epoch no set executed on more executors than its
///   recorded steal events allow — op-granularity migration is visible,
///   never silent.
#[test]
fn op_steals_spread_a_zipf_stall_tail() {
    use std::collections::{HashMap, HashSet};

    const STALLS: u64 = 4; // cold set: few long operations
    const STALL_MS: u64 = 10;
    const TAIL: u64 = 64; // hot set: deep tail of medium operations

    // The steal-occurrence assertions need the thief delegate actually
    // running *while* the owner is stuck in a stall — program thread,
    // owner, and thief concurrently. On 1–2 hardware threads the OS may
    // legally time-slice the thief to after the backlog has drained
    // (zero steals, equal spreads), so those legs are checked only when
    // the machine can truly run all three. The correctness assertions
    // (final values, trace audit) hold unconditionally.
    let parallel_enough = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        >= 3;
    let mut spreads: HashMap<&'static str, u64> = HashMap::new();
    for (label, stealing) in [("off", false), ("steal", true)] {
        // Exactly 2 delegates: static assignment pins both SsId(0) and
        // SsId(2) to delegate 0 (id % 2), leaving delegate 1 the thief.
        let rt = Runtime::builder()
            .delegate_threads(2)
            .stealing(stealing)
            .trace(true)
            .build()
            .unwrap();
        let cold: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
        let hot: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
        rt.begin_isolation().unwrap();
        // Settle routing first (waited futures) so both pins exist before
        // the body queues and the measured ops race the thief.
        cold.delegate_in_with(SsId(0), |n| {
            *n += 1;
            *n
        })
        .unwrap()
        .wait()
        .unwrap();
        hot.delegate_in_with(SsId(2), |n| {
            *n += 1;
            *n
        })
        .unwrap()
        .wait()
        .unwrap();
        // Queue the zipf-stall body: each cold stall is followed by a
        // burst of hot-tail operations. Hot ops take ~1ms so the hot
        // tail stays deep while the owner is stuck inside a stall —
        // giving mid-set rebalancing something to move in both runs.
        // The futures are parked until the barrier: dropping them
        // mid-epoch would request cancellation (drop-to-cancel) and
        // hollow out the very backlog the thief is supposed to take.
        let mut parked = Vec::new();
        for _ in 0..STALLS {
            parked.push(
                cold.delegate_in_with(SsId(0), |n| {
                    std::thread::sleep(std::time::Duration::from_millis(STALL_MS));
                    *n += 1;
                    *n
                })
                .unwrap(),
            );
            for _ in 0..TAIL / STALLS {
                parked.push(
                    hot.delegate_in_with(SsId(2), |n| {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        *n += 1;
                        *n
                    })
                    .unwrap(),
                );
            }
        }
        rt.end_isolation().unwrap();
        drop(parked); // settled by the barrier; dropping cancels nothing
        assert_eq!(cold.call(|n| *n).unwrap(), 1 + STALLS);
        assert_eq!(hot.call(|n| *n).unwrap(), 1 + TAIL);

        let stats = rt.stats();
        if !stealing {
            assert_eq!(
                (stats.steals, stats.op_steals),
                (0, 0),
                "a runtime without stealing stole: {stats:?}"
            );
        } else if parallel_enough {
            assert!(
                stats.op_steals >= 1,
                "the thief never took a quiescent tail: {stats:?}"
            );
        } // else the thief may never have been scheduled concurrently
        let executed = &stats.delegate_executed;
        spreads.insert(
            label,
            executed.iter().max().unwrap() - executed.iter().min().unwrap(),
        );

        // Trace-log audit (PR 5, extended with OpSteal): per epoch, a set
        // may execute on at most 1 + (its recorded steal events)
        // executors — every migration must be visible in the log.
        let trace = rt.take_trace().unwrap();
        let mut executed_on: HashMap<(u64, u64), HashSet<usize>> = HashMap::new();
        let mut steal_events: HashMap<(u64, u64), usize> = HashMap::new();
        for e in &trace {
            let (Some(set), Some(TraceExecutor::Delegate(d))) = (e.set, e.executor) else {
                continue;
            };
            match e.kind {
                TraceKind::FutureResolve => {
                    executed_on.entry((e.epoch, set.0)).or_default().insert(d);
                }
                TraceKind::Steal | TraceKind::OpSteal => {
                    *steal_events.entry((e.epoch, set.0)).or_default() += 1;
                }
                _ => {}
            }
        }
        assert!(!executed_on.is_empty(), "{label}: no executions traced");
        for ((epoch, set), executors) in &executed_on {
            let allowed = 1 + steal_events.get(&(*epoch, *set)).copied().unwrap_or(0);
            assert!(
                executors.len() <= allowed,
                "{label}: set {set} executed on {executors:?} in epoch {epoch} \
                 with only {} recorded steal event(s)",
                allowed - 1
            );
        }
        rt.shutdown().unwrap();
    }
    if parallel_enough {
        assert!(
            spreads["steal"] < spreads["off"],
            "op-granularity stealing did not improve the executed spread: {spreads:?}"
        );
    }
}

/// Continuous streaming ingest under a fully-on auditor: one long epoch,
/// no barrier, far more distinct serialization sets than the audit
/// graph's per-shard capacity. The incremental conflict graph must stay
/// within its hard bound the whole time (overflowing sets are dropped
/// from auditing, never allowed to grow the graph), the stream must still
/// execute correctly, and closing the epoch must both certify and release
/// the graph.
#[test]
fn streaming_ingest_keeps_audit_graph_bounded() {
    // 16 shards × 1024 sets: the auditor's documented memory bound.
    const GRAPH_CAP: usize = 16 * 1024;
    const OBJS: usize = 20_000; // > GRAPH_CAP distinct sets
    let rt = Runtime::builder()
        .delegate_threads(delegates_from_env(2))
        .audit(AuditMode::Full)
        .build()
        .unwrap();
    let objs: Vec<Writable<u64, SequenceSerializer>> =
        (0..OBJS).map(|_| Writable::new(&rt, 0)).collect();
    rt.begin_isolation().unwrap();
    let mut peak = 0;
    for (i, o) in objs.iter().enumerate() {
        o.delegate(|n| *n += 1).unwrap();
        o.delegate(|n| *n += 2).unwrap();
        if i % 512 == 0 {
            peak = peak.max(rt.audit_graph_size());
        }
    }
    peak = peak.max(rt.audit_graph_size());
    assert!(
        peak <= GRAPH_CAP,
        "audit graph exceeded its bound mid-stream: {peak} > {GRAPH_CAP}"
    );
    assert!(peak > 0, "auditor tracked nothing");
    // The long epoch must still certify — dropping overflow sets must not
    // manufacture violations.
    rt.end_isolation().unwrap();
    assert_eq!(
        rt.audit_graph_size(),
        0,
        "epoch close must release the graph"
    );
    let s = rt.stats();
    assert_eq!(s.epochs_audited, 1);
    assert!(s.audit_edges > 0);
    for o in objs.iter().step_by(997) {
        assert_eq!(o.call(|n| *n).unwrap(), 3);
    }
}

/// Tenant isolation under load: one session holds long `end_isolation`
/// barriers (a slow operation keeps its drain counter up) while a second
/// session streams tiny operations — and keeps *completing* them,
/// epoch after epoch, while the first tenant's barrier is still blocked.
/// This is the property that distinguishes per-session barriers from the
/// seed's global quiescence: a pool-wide drain would freeze the streamer
/// for the whole 200 ms of every slow epoch.
#[test]
fn one_tenants_barrier_never_stalls_anothers_stream() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Duration;

    const SLOW_EPOCHS: u64 = 3;
    const SLOW_MS: u64 = 200;

    // Static assignment with 2 delegates: session-qualified keys keep the
    // low bits of the raw set id (the session id sits in the high bits,
    // always even), so SsId(0) pins to delegate 0 and SsId(1) to delegate
    // 1 — the blocker and the streamer never share an executor FIFO, and
    // any stall the streamer sees must come from barrier coupling.
    let rt = Runtime::builder().delegate_threads(2).build().unwrap();

    let blocker_in_barrier = AtomicBool::new(false);
    let blocker_done = AtomicBool::new(false);
    let epochs_inside_barrier = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let rt_a = rt.clone();
        let in_barrier = &blocker_in_barrier;
        let done = &blocker_done;
        scope.spawn(move || {
            let session = rt_a.session().unwrap();
            let w: Writable<u64, SequenceSerializer> = Writable::new(&session, 0);
            for _ in 0..SLOW_EPOCHS {
                session.begin_isolation().unwrap();
                w.delegate_in(SsId(0), |n| {
                    std::thread::sleep(Duration::from_millis(SLOW_MS));
                    *n += 1;
                })
                .unwrap();
                in_barrier.store(true, Ordering::SeqCst);
                // Blocks ~SLOW_MS: drains only THIS session's counter.
                session.end_isolation().unwrap();
                in_barrier.store(false, Ordering::SeqCst);
                assert_eq!(session.session_stats().in_flight, 0);
            }
            assert_eq!(w.call(|n| *n).unwrap(), SLOW_EPOCHS);
            done.store(true, Ordering::SeqCst);
        });

        let rt_b = rt.clone();
        let in_barrier = &blocker_in_barrier;
        let done = &blocker_done;
        let witnessed = &epochs_inside_barrier;
        scope.spawn(move || {
            let session = rt_b.session().unwrap();
            let w: Writable<u64, SequenceSerializer> = Writable::new(&session, 0);
            let mut expected = 0u64;
            while !done.load(Ordering::SeqCst) {
                let started_inside = in_barrier.load(Ordering::SeqCst);
                session.begin_isolation().unwrap();
                for _ in 0..50 {
                    w.delegate_in(SsId(1), |n| *n += 1).unwrap();
                    expected += 1;
                }
                // The streamer's own barrier: must return promptly even
                // while the blocker's barrier is mid-drain.
                session.end_isolation().unwrap();
                let s = session.session_stats();
                assert_eq!(s.in_flight, 0, "streamer failed to drain: {s:?}");
                assert_eq!(s.completed, expected, "streamer lost ops: {s:?}");
                // A full submit→drain cycle begun AND finished while the
                // blocker was (and still is) inside its barrier is the
                // liveness witness.
                if started_inside && in_barrier.load(Ordering::SeqCst) {
                    witnessed.fetch_add(1, Ordering::Relaxed);
                }
            }
            assert_eq!(w.call(|n| *n).unwrap(), expected);
        });
    });

    assert!(
        epochs_inside_barrier.load(Ordering::Relaxed) > 0,
        "streamer never completed an epoch inside the blocker's barrier — \
         the barriers are coupled"
    );
    assert_eq!(rt.stats().sessions_active, 0, "tenant leak");
}

#[test]
fn runtime_handles_survive_wrapper_lifetimes() {
    // Wrappers hold runtime clones; dropping them in arbitrary orders, with
    // work in flight, must neither hang nor leak invocations.
    let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    rt.begin_isolation().unwrap();
    for i in 0..100u64 {
        let w: Writable<u64, SequenceSerializer> = Writable::new(&rt, i);
        w.delegate(|n| *n = n.wrapping_add(1)).unwrap();
        // Handle dropped immediately, operation still pending — the
        // reverse_index pattern (Figure 3's `new ss_file_t`).
    }
    rt.end_isolation().unwrap();
    assert_eq!(rt.stats().executed, 100);
    drop(rt);
}

/// Result-slab stress: futures — waited, carried across epoch
/// boundaries, and dropped unpolled — must all give their slots back at
/// the `end_isolation` reclaim, the carried ones once they are released.
/// After a warmup epoch sizes the slab, `created` must stay flat across
/// every later epoch (slots are reused, not re-created), the slab's own
/// free/in-flight accounting must account for every slot (only held
/// futures keep one; none is lost or counted twice), and runtime
/// `in_flight` must be zero at the end.
#[test]
fn cell_pool_recycles_dropped_futures_across_epochs() {
    const OBJS: usize = 24;
    const EPOCHS: u64 = 12;
    for stealing in [false, true] {
        let rt = Runtime::builder()
            .delegate_threads(delegates_from_env(4))
            .stealing(stealing)
            .build()
            .unwrap();
        let objs: Vec<Writable<u64, SequenceSerializer>> =
            (0..OBJS).map(|_| Writable::new(&rt, 0)).collect();

        // Warmup epoch: lets the pool grow to the epoch's working set.
        // Waited immediately (dropping mid-epoch would cancel the op, and
        // the value asserts below depend on every warmup increment): the
        // cells release mid-epoch and are all recycled at the barrier.
        rt.begin_isolation().unwrap();
        for o in &objs {
            o.delegate_with(|n| {
                *n += 1;
                *n
            })
            .unwrap()
            .wait()
            .unwrap();
        }
        rt.end_isolation().unwrap();
        let (free_after_warmup, in_flight_after_warmup, created_after_warmup) =
            rt.cell_pool_stats();
        assert_eq!(
            in_flight_after_warmup, 0,
            "stealing {stealing}: cells still in flight after warmup drain"
        );
        assert_eq!(
            free_after_warmup as u64, created_after_warmup,
            "stealing {stealing}: every created cell must be back on the free list"
        );

        // Cells released mid-epoch (carried futures dropped after the
        // boundary) only become reusable at the *next* quiescence point,
        // so the pool's working set grows through the first two carrying
        // epochs and must then stay flat.
        let mut created_steady = 0u64;
        let mut carried: Vec<SsFuture<u64>> = Vec::new();
        let mut parked: Vec<SsFuture<u64>> = Vec::new();
        for epoch in 1..EPOCHS {
            rt.begin_isolation().unwrap();
            // Futures carried across the boundary were settled by the
            // barrier; their cells stayed in flight until dropped here.
            for f in carried.drain(..) {
                assert!(
                    f.is_ready(),
                    "stealing {stealing}: future crossed epoch pending"
                );
                f.wait().unwrap();
            }
            // Parked futures from the previous epoch are settled too, but
            // are dropped *unpolled* — the value is never taken. (Dropping
            // them mid-epoch last round would have cancelled the ops; a
            // settled drop only discards the value, which is exactly the
            // leak shape this test is about.)
            parked.clear();
            for (i, o) in objs.iter().enumerate() {
                let fut = o
                    .delegate_with(|n| {
                        *n += 1;
                        *n
                    })
                    .unwrap();
                // A third waited, a third carried across the boundary and
                // then waited, a third carried and dropped unpolled.
                match i % 3 {
                    0 => {
                        assert_eq!(fut.wait().unwrap(), epoch + 1, "stealing {stealing}");
                    }
                    1 => carried.push(fut),
                    _ => parked.push(fut),
                }
            }
            rt.end_isolation().unwrap();

            let (free, in_flight, created) = rt.cell_pool_stats();
            // Cells for futures still held by `carried` and `parked`
            // legitimately stay in flight; everything else must have been
            // recycled exactly once — the free/in-flight split accounts
            // for every cell.
            assert_eq!(
                in_flight,
                carried.len() + parked.len(),
                "stealing {stealing}: epoch {epoch}: only held futures may keep cells"
            );
            assert_eq!(
                free + in_flight,
                created as usize,
                "stealing {stealing}: epoch {epoch}: pool lost or duplicated a cell"
            );
            if epoch <= 2 {
                created_steady = created;
                assert!(
                    created >= created_after_warmup,
                    "stealing {stealing}: created count went backwards"
                );
            } else {
                assert_eq!(
                    created, created_steady,
                    "stealing {stealing}: epoch {epoch}: pool allocated new cells instead of reusing"
                );
            }
        }
        for f in carried.drain(..) {
            f.wait().unwrap();
        }
        parked.clear();
        // One empty epoch: the cells the last carried and parked futures
        // just released get recycled at its quiescence point.
        rt.begin_isolation().unwrap();
        rt.end_isolation().unwrap();

        for o in &objs {
            assert_eq!(o.call(|n| *n).unwrap(), EPOCHS, "stealing {stealing}");
        }
        let stats = rt.stats();
        assert_eq!(
            stats.in_flight, 0,
            "stealing {stealing}: runtime leaked in_flight"
        );
        let (free, in_flight, created) = rt.cell_pool_stats();
        assert_eq!(
            in_flight, 0,
            "stealing {stealing}: cells leaked after final drain"
        );
        assert_eq!(
            free as u64, created,
            "stealing {stealing}: final free-list does not account for every cell"
        );
    }
}
