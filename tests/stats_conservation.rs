//! Conservation of the runtime's split counters. Each operation is
//! counted by whichever thread handles it — the submitting program
//! thread or delegate, the delegate that runs it, a thief that moves it —
//! and the sums `Runtime::stats` reports must still balance.
//!
//! After `end_isolation`, over {root, sessions} × {SPSC, stealing} ×
//! {program, nested, inline (the root program thread's takes),
//! `delegate_with`, dropped-future cancel}:
//!
//! * `executed == delegations` — every operation submitted through
//!   `delegate*` counts as a delegation, whichever executor ran it;
//! * `futures_resolved + ops_cancelled` equals the future submissions;
//! * `Σ delegate_executed + inline_executions == delegations` — the
//!   program thread's executions are the rest;
//! * every `queue_depths` entry is 0.
//!
//! With the root and every session delegating at once — on a runtime
//! without delegates, where every program thread runs its operations
//! inline, and on one with them — every sum is exact, not merely
//! balanced: the root program thread adds to its counter block with plain
//! loads and stores, so a second writer in that block would lose updates.
//!
//! Mid-epoch, with a delegate held by a blocker, its depth counts exactly
//! the blocker and the operations queued behind it, and a whole-batch
//! steal moves exactly the stolen batch to the thief. The delegate count
//! comes from `SS_DELEGATES` (at least 2, so there is a thief), the
//! session count from `SS_TEST_SESSIONS`.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use prometheus_rs::prelude::*;

fn env(name: &str, fallback: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(fallback)
}

fn delegates() -> usize {
    env("SS_DELEGATES", 2).max(2)
}

/// Stealing off (the SPSC rings) and on (the steal deques).
const TRANSPORTS: [bool; 2] = [false, true];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Leg {
    Program,
    Nested,
    Inline,
    DelegateWith,
    Cancel,
}

const LEGS: [Leg; 5] = [
    Leg::Program,
    Leg::Nested,
    Leg::Inline,
    Leg::DelegateWith,
    Leg::Cancel,
];

const EPOCHS: usize = 3;
const OBJECTS: u64 = 16;
/// Operations each blocker holds behind it.
const BEHIND: u64 = 6;

type Obj = Writable<u64, SequenceSerializer>;

fn build(stealing: bool, leg: Leg) -> Runtime {
    let builder = Runtime::builder()
        .delegate_threads(delegates())
        .stealing(stealing);
    if leg == Leg::Inline {
        // The retraction harness: a four-slot ring filled behind a held
        // delegate makes the root program thread retract fresh sets.
        builder.queue_capacity(4)
    } else {
        builder
    }
    .build()
    .unwrap()
}

/// Opens its gate when dropped — also while a failed assertion unwinds,
/// so held delegates finish and the runtime can join them.
struct OpenOnDrop(Arc<AtomicBool>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// An operation that spins until `gate` opens.
fn hold(gate: &Arc<AtomicBool>) -> impl FnOnce(&mut u64) + Send + 'static {
    let gate = Arc::clone(gate);
    move |_| {
        while !gate.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
    }
}

/// Runs `leg`'s epochs on `rt` (the root's handle or a session's) and
/// returns how many future-returning operations it submitted.
fn run_leg(rt: &Runtime, leg: Leg) -> u64 {
    let objects: Vec<Obj> = (0..OBJECTS).map(|_| Writable::new(rt, 0)).collect();
    let mut futures = 0;
    for _ in 0..EPOCHS {
        rt.begin_isolation().unwrap();
        match leg {
            Leg::Program => {
                for w in &objects {
                    for _ in 0..4 {
                        w.delegate(|n| *n += 1).unwrap();
                    }
                }
            }
            Leg::Inline => {
                // Sets `k · delegates` share a delegate with set 0, which a
                // blocker holds with two more operations queued behind it:
                // on the root's rings the program thread retracts later
                // sets from the full ring and runs them; elsewhere they
                // queue behind it. The blocker must be running before the
                // ring fills, or it could be retracted too.
                let gate = OpenOnDrop(Arc::new(AtomicBool::new(false)));
                let stride = delegates() as u64;
                let started = Arc::new(AtomicBool::new(false));
                let (s, held) = (Arc::clone(&started), hold(&gate.0));
                objects[0]
                    .delegate_in(SsId(0), move |n| {
                        s.store(true, Ordering::Release);
                        held(n);
                    })
                    .unwrap();
                wait_for("the blocker", || started.load(Ordering::Acquire));
                for _ in 0..2 {
                    objects[0].delegate_in(SsId(0), |n| *n += 1).unwrap();
                }
                for (k, w) in objects.iter().enumerate().skip(1) {
                    w.delegate_in(SsId(k as u64 * stride), |n| *n += 1).unwrap();
                }
                drop(gate);
            }
            Leg::DelegateWith => {
                let pending: Vec<_> = objects
                    .iter()
                    .map(|w| w.delegate_with(|n| *n += 1).unwrap())
                    .collect();
                futures += pending.len() as u64;
                pending.into_iter().for_each(|f| f.wait().unwrap());
            }
            Leg::Nested => {
                let (parent, children) = objects.split_first().unwrap();
                let (rt2, children) = (rt.clone(), children.to_vec());
                parent
                    .delegate(move |_| {
                        rt2.delegate_scope(|cx| {
                            for c in &children {
                                cx.delegate(c, |n| *n += 1).unwrap();
                            }
                            cx.delegate_with(&children[0], |n| *n).unwrap().wait()
                        })
                        .unwrap()
                        .unwrap();
                    })
                    .unwrap();
                futures += 1;
            }
            Leg::Cancel => {
                // Futures dropped while their operations wait behind a
                // blocker: whether each is cancelled or resolved depends
                // on the race, never the sum.
                let gate = OpenOnDrop(Arc::new(AtomicBool::new(false)));
                objects[0].delegate(hold(&gate.0)).unwrap();
                for _ in 0..BEHIND {
                    drop(objects[0].delegate_with(|n| *n += 1).unwrap());
                }
                futures += BEHIND;
                drop(gate);
            }
        }
        rt.end_isolation().unwrap();
    }
    futures
}

fn assert_conserved(s: &Stats, futures: u64, label: &str) {
    assert_eq!(s.executed, s.delegations, "{label}: {s:?}");
    assert_eq!(
        s.futures_resolved + s.ops_cancelled,
        futures,
        "{label}: {s:?}"
    );
    assert_eq!(
        s.delegate_executed.iter().sum::<u64>() + s.inline_executions,
        s.delegations,
        "{label}: {s:?}"
    );
    assert!(s.queue_depths.iter().all(|&d| d == 0), "{label}: {s:?}");
}

#[test]
fn split_counters_balance_after_every_epoch() {
    let sessions = env("SS_TEST_SESSIONS", 2);
    for stealing in TRANSPORTS {
        for leg in LEGS {
            let rt = build(stealing, leg);
            let futures = run_leg(&rt, leg);
            let root = rt.stats();
            assert_conserved(&root, futures, &format!("root stealing {stealing} {leg:?}"));
            match leg {
                // Only the root's rings take.
                Leg::Inline if !stealing => {
                    assert!(root.inline_executions > 0, "{root:?}")
                }
                Leg::Nested => assert!(root.nested_delegations > 0, "{root:?}"),
                _ => assert!(root.delegations > 0, "{root:?}"),
            }

            let rt = build(stealing, leg);
            let futures: u64 = std::thread::scope(|scope| {
                let tenants: Vec<_> = (0..sessions)
                    .map(|_| {
                        let rt = rt.clone();
                        scope.spawn(move || run_leg(&rt.session().unwrap(), leg))
                    })
                    .collect();
                tenants.into_iter().map(|t| t.join().unwrap()).sum()
            });
            let label = format!("{sessions} sessions stealing {stealing} {leg:?}");
            assert_conserved(&rt.stats(), futures, &label);
        }
    }
}

/// Operations one tenant submits per object and epoch in
/// [`tenant_program`]: four `delegate`s, one `delegate_with` and a
/// `delegate_iter` run of four.
const OPS_PER_OBJECT: u64 = 9;

/// Epochs of the concurrent leg: enough for the tenants' submits to
/// overlap many times over.
const CONCURRENT_EPOCHS: u64 = 200;

/// One tenant's program for the concurrent leg; returns its futures.
fn tenant_program(rt: &Runtime) -> u64 {
    let objects: Vec<Obj> = (0..OBJECTS).map(|_| Writable::new(rt, 0)).collect();
    for _ in 0..CONCURRENT_EPOCHS {
        rt.begin_isolation().unwrap();
        let mut futures = Vec::new();
        for w in &objects {
            for _ in 0..4 {
                w.delegate(|n| *n += 1).unwrap();
            }
            futures.push(w.delegate_with(|n| *n += 1).unwrap());
            w.delegate_iter((0..4).map(|_| |n: &mut u64| *n += 1))
                .unwrap();
        }
        futures.into_iter().for_each(|f| f.wait().unwrap());
        rt.end_isolation().unwrap();
    }
    for w in &objects {
        assert_eq!(w.call(|n| *n).unwrap(), CONCURRENT_EPOCHS * OPS_PER_OBJECT);
    }
    CONCURRENT_EPOCHS * OBJECTS
}

#[test]
fn root_and_sessions_delegating_at_once_count_exactly() {
    let sessions = env("SS_TEST_SESSIONS", 2) as u64;
    let tenants = 1 + sessions;
    let ops = tenants * CONCURRENT_EPOCHS * OBJECTS * OPS_PER_OBJECT;
    for (n_delegates, stealing) in [(0, false), (delegates(), false), (delegates(), true)] {
        // A small ring makes the root program thread retract now and then.
        let rt = Runtime::builder()
            .delegate_threads(n_delegates)
            .stealing(stealing)
            .queue_capacity(8)
            .build()
            .unwrap();
        let futures: u64 = std::thread::scope(|scope| {
            let tenants: Vec<_> = (0..sessions)
                .map(|_| {
                    let rt = rt.clone();
                    scope.spawn(move || tenant_program(&rt.session().unwrap()))
                })
                .collect();
            let root = tenant_program(&rt);
            root + tenants.into_iter().map(|t| t.join().unwrap()).sum::<u64>()
        });
        let s = rt.stats();
        let label = format!("{n_delegates} delegates, stealing {stealing}: {s:?}");
        assert_eq!(futures, tenants * CONCURRENT_EPOCHS * OBJECTS, "{label}");
        assert_conserved(&s, futures, &label);
        assert_eq!(s.delegations, ops, "{label}");
        assert_eq!(s.tasks_inline, ops, "{label}");
        assert_eq!(s.tasks_boxed, 0, "{label}");
        assert_eq!(s.futures_resolved, futures, "{label}");
        assert_eq!(s.isolation_epochs, tenants * CONCURRENT_EPOCHS, "{label}");
        assert_eq!(s.sessions_active, 0, "{label}");
        if n_delegates == 0 {
            assert_eq!(s.inline_executions, ops, "{label}");
        }
    }
}

fn wait_for(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// Holds a delegate behind a blocker with `BEHIND` gated operations of one
/// set queued after it — sets 0 and `delegates` share a delegate in every
/// domain — and checks the depths `stats` reports.
fn depths_behind_a_blocker(h: &Runtime, stats: impl Fn() -> Stats, stealing: bool) {
    let (blocker, batch): (Obj, Obj) = (Writable::new(h, 0), Writable::new(h, 0));
    let gate = OpenOnDrop(Arc::new(AtomicBool::new(false)));
    // The blocker's delegate, plus one; 0 until it starts.
    let started = Arc::new(AtomicUsize::new(0));
    let batch_started = Arc::new(AtomicBool::new(false));
    h.begin_isolation().unwrap();
    let (s, held) = (Arc::clone(&started), hold(&gate.0));
    blocker
        .delegate_in(SsId(0), move |n| {
            let name = std::thread::current().name().map(str::to_owned);
            let idx: Option<usize> =
                name.and_then(|n| n.strip_prefix("ss-delegate-")?.parse().ok());
            s.store(1 + idx.expect("a delegate thread"), Ordering::Release);
            held(n);
        })
        .unwrap();
    wait_for("the blocker", || started.load(Ordering::Acquire) > 0);
    let home = started.load(Ordering::Acquire) - 1;
    for _ in 0..BEHIND {
        let (s, held) = (Arc::clone(&batch_started), hold(&gate.0));
        batch
            .delegate_in(SsId(delegates() as u64), move |n| {
                s.store(true, Ordering::Release);
                held(n);
            })
            .unwrap();
    }
    let depths = if !stealing {
        // The blocker is executing, the batch queued behind it.
        stats().queue_depths
    } else {
        // A thief takes the never-started batch whole and blocks on its
        // first operation; the blocker's busy set stays behind.
        wait_for("a thief", || batch_started.load(Ordering::Acquire));
        let s = stats();
        assert!(s.steals >= 1, "{s:?}");
        s.queue_depths
    };
    let mut want = vec![0; delegates()];
    if stealing {
        want[home] = 1;
        let thief = (0..want.len())
            .find(|&j| j != home && depths[j] != 0)
            .unwrap_or((home + 1) % want.len());
        want[thief] = BEHIND;
    } else {
        want[home] = 1 + BEHIND;
    }
    assert_eq!(depths, want, "stealing {stealing}");
    drop(gate);
    h.end_isolation().unwrap();
    assert_eq!(batch.call(|n| *n).unwrap(), 0);
    assert_conserved(
        &stats(),
        0,
        &format!("stealing {stealing} after the blocker"),
    );
}

#[test]
fn queue_depths_are_exact_mid_epoch_and_across_a_steal() {
    for stealing in TRANSPORTS {
        let build = || {
            Runtime::builder()
                .delegate_threads(delegates())
                .stealing(stealing)
                .build()
                .unwrap()
        };
        let rt = build();
        depths_behind_a_blocker(&rt, || rt.stats(), stealing);
        let rt = build();
        let session = rt.session().unwrap();
        depths_behind_a_blocker(&session, || rt.stats(), stealing);
    }
}
