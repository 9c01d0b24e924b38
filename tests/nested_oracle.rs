//! Sequential-oracle equality for **recursive delegation**: random
//! nested-delegation programs (delegation depth ≤ 3, mixed delegations,
//! mid-epoch reclaims, reducible bumps and epoch boundaries) must produce
//! bit-identical results — including per-set operation order — to a
//! trivial depth-first sequential interpreter, with stealing off and on
//! and at every ring capacity.
//!
//! Determinism discipline (what makes the oracle well-defined): every
//! object has exactly one *producer context* —
//!
//! * lane objects receive operations only from the program thread;
//! * root `r`'s child object receives operations only from root `r`'s
//!   delegate context (per-set FIFO ⇒ submission order);
//! * root `r`'s grandchild object receives operations only from the child
//!   operations of root `r`'s child set, which execute serially on one
//!   executor — so the grandchild arrival order is the depth-first order
//!   the oracle uses;
//! * the reducible counter is bumped commutatively from any context.
//!
//! Mid-epoch `Read`s reclaim lane objects; children never touch lanes, so
//! a reclaim (token-based or, once nesting is active, a full quiesce)
//! observes exactly the roots delegated before it — the oracle's prefix.
//!
//! **Future-returning programs** (`FutRoot`): a root delegated with
//! `delegate_with` spawns `kids` future-returning child operations from
//! its delegate context, folds their results *by waiting on the futures
//! inside the running operation* (help-first when the child set pins to
//! the waiting delegate), and returns the fold through its own future,
//! which the program context waits on mid-epoch. Both wait directions —
//! delegate-context and program-context — are therefore oracle-checked
//! with stealing off and on. Determinism: each future-child
//! object has a single producer (its root's delegate context) and futures
//! are waited in submission order, so the folds are the depth-first
//! sequential folds regardless of scheduling.

use prometheus_rs::prelude::*;
use proptest::prelude::*;

const LANES: usize = 4;

/// One step of a generated program.
#[derive(Debug, Clone)]
enum Op {
    /// Delegate a root operation on `lane` that spawns `kids` child
    /// operations from its delegate context, each of which spawns
    /// `grands` grandchild operations (depth 3).
    Root {
        lane: usize,
        kids: usize,
        grands: usize,
    },
    /// Same spawn tree as [`Op::Root`], but the children are submitted
    /// with `DelegateContext::delegate_iter` (one routed batch) and each
    /// child submits its grandchildren as a nested batch too — the batch
    /// API must be order-indistinguishable from the loop of singles.
    BatchRoot {
        lane: usize,
        kids: usize,
        grands: usize,
    },
    /// Delegate a *future-returning* root on `lane` that spawns `kids`
    /// future-returning child operations, waits on them in its delegate
    /// context, and whose own future the program context waits on.
    FutRoot { lane: usize, kids: usize },
    /// Dependent read of a lane: mid-epoch ownership reclaim.
    Read { lane: usize },
    /// Commutative reducible bump from the program context.
    Bump { x: u64 },
    /// Close the current isolation epoch and open a new one.
    Epoch,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0..LANES, 0..4usize, 0..3usize)
            .prop_map(|(lane, kids, grands)| Op::Root { lane, kids, grands }),
        3 => (0..LANES, 0..5usize, 0..3usize)
            .prop_map(|(lane, kids, grands)| Op::BatchRoot { lane, kids, grands }),
        3 => (0..LANES, 0..4usize).prop_map(|(lane, kids)| Op::FutRoot { lane, kids }),
        2 => (0..LANES).prop_map(|lane| Op::Read { lane }),
        1 => any::<u64>().prop_map(|x| Op::Bump { x: x >> 1 }),
        1 => Just(Op::Epoch),
    ]
}

/// Unique, collision-free operation ids (r < 2^20, j/k tiny).
fn root_id(r: usize) -> u64 {
    1 + (r as u64) * 1_000
}
fn child_id(r: usize, j: usize) -> u64 {
    root_id(r) + 10 * (j as u64 + 1)
}
fn grand_id(r: usize, j: usize, k: usize) -> u64 {
    child_id(r, j) + k as u64 + 1
}
fn fold_grand(acc: u64, v: u64) -> u64 {
    acc.wrapping_mul(31).wrapping_add(v)
}
/// Ids for the future-returning programs, in a disjoint range.
fn froot_id(fr: usize) -> u64 {
    600_000_000 + (fr as u64) * 1_000
}
fn fchild_id(fr: usize, j: usize) -> u64 {
    froot_id(fr) + j as u64 + 1
}
fn fold_fut(acc: u64, v: u64) -> u64 {
    acc.rotate_left(5) ^ v
}

/// Everything a run produces, compared field-for-field.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    /// Per-lane operation order (root ids in execution order).
    lanes: Vec<Vec<u64>>,
    /// Per-root child operation order.
    children: Vec<Vec<u64>>,
    /// Per-root grandchild fold (order-sensitive).
    grands: Vec<u64>,
    /// Values observed by mid-epoch reads, in program order.
    read_log: Vec<Vec<u64>>,
    /// Commutative counter total.
    counter: u64,
    /// Per-future-root child accumulator final values.
    fut_children: Vec<u64>,
    /// Values returned through the root futures, in program order.
    fut_log: Vec<u64>,
}

fn roots_in(ops: &[Op]) -> usize {
    ops.iter()
        .filter(|o| matches!(o, Op::Root { .. } | Op::BatchRoot { .. }))
        .count()
}

fn fut_roots_in(ops: &[Op]) -> usize {
    ops.iter()
        .filter(|o| matches!(o, Op::FutRoot { .. }))
        .count()
}

/// Depth-first sequential interpreter — the semantics the runtime must be
/// indistinguishable from.
fn interpret(ops: &[Op]) -> Outcome {
    let n_roots = roots_in(ops);
    let n_fut = fut_roots_in(ops);
    let mut out = Outcome {
        lanes: vec![Vec::new(); LANES],
        children: vec![Vec::new(); n_roots],
        grands: vec![0; n_roots],
        read_log: Vec::new(),
        counter: 0,
        fut_children: vec![0; n_fut],
        fut_log: Vec::new(),
    };
    let mut r = 0usize;
    let mut fr = 0usize;
    for op in ops {
        match *op {
            // Batch submission must be semantically identical to the loop
            // of singles, so the oracle does not distinguish them.
            Op::Root { lane, kids, grands } | Op::BatchRoot { lane, kids, grands } => {
                out.lanes[lane].push(root_id(r));
                for j in 0..kids {
                    out.children[r].push(child_id(r, j));
                    out.counter = out.counter.wrapping_add(child_id(r, j));
                    for k in 0..grands {
                        out.grands[r] = fold_grand(out.grands[r], grand_id(r, j, k));
                    }
                }
                r += 1;
            }
            Op::FutRoot { lane, kids } => {
                out.lanes[lane].push(froot_id(fr));
                let mut acc = 0u64;
                for j in 0..kids {
                    // The child mutates its accumulator and returns the
                    // running value; the root folds the returned values.
                    out.fut_children[fr] = out.fut_children[fr].wrapping_add(fchild_id(fr, j));
                    acc = fold_fut(acc, out.fut_children[fr]);
                }
                out.fut_log.push(acc);
                fr += 1;
            }
            Op::Read { lane } => out.read_log.push(out.lanes[lane].clone()),
            Op::Bump { x } => out.counter = out.counter.wrapping_add(x),
            Op::Epoch => {}
        }
    }
    out
}

struct Acc(u64);
impl Reduce for Acc {
    fn reduce(&mut self, other: Self) {
        self.0 = self.0.wrapping_add(other.0);
    }
}

/// Runs the same program through the runtime with real recursive
/// delegation.
fn run_parallel(ops: &[Op], delegates: usize, stealing: bool, ring: usize) -> Outcome {
    let rt = Runtime::builder()
        .delegate_threads(delegates)
        .stealing(stealing)
        .queue_capacity(ring)
        .build()
        .unwrap();
    let n_roots = roots_in(ops);
    let n_fut = fut_roots_in(ops);
    let lanes: Vec<Writable<Vec<u64>, SequenceSerializer>> =
        (0..LANES).map(|_| Writable::new(&rt, Vec::new())).collect();
    let child_objs: Vec<Writable<Vec<u64>, SequenceSerializer>> = (0..n_roots)
        .map(|_| Writable::new(&rt, Vec::new()))
        .collect();
    let grand_objs: Vec<Writable<u64, SequenceSerializer>> =
        (0..n_roots).map(|_| Writable::new(&rt, 0)).collect();
    let fut_child_objs: Vec<Writable<u64, SequenceSerializer>> =
        (0..n_fut).map(|_| Writable::new(&rt, 0)).collect();
    let counter = Reducible::new(&rt, || Acc(0));
    let mut read_log = Vec::new();
    let mut fut_log = Vec::new();

    rt.begin_isolation().unwrap();
    let mut r = 0usize;
    let mut fr = 0usize;
    for op in ops {
        match *op {
            Op::Root { lane, kids, grands } => {
                let rt1 = rt.clone();
                let child = child_objs[r].clone();
                let grand = grand_objs[r].clone();
                let cnt = counter.clone();
                lanes[lane]
                    .delegate(move |v| {
                        v.push(root_id(r));
                        rt1.delegate_scope(|cx| {
                            for j in 0..kids {
                                let rt2 = rt1.clone();
                                let grand2 = grand.clone();
                                let cnt2 = cnt.clone();
                                cx.delegate(&child, move |v| {
                                    v.push(child_id(r, j));
                                    cnt2.view(|a| a.0 = a.0.wrapping_add(child_id(r, j)))
                                        .unwrap();
                                    rt2.delegate_scope(|cx| {
                                        for k in 0..grands {
                                            cx.delegate(&grand2, move |g| {
                                                *g = fold_grand(*g, grand_id(r, j, k));
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
                r += 1;
            }
            Op::BatchRoot { lane, kids, grands } => {
                let rt1 = rt.clone();
                let child = child_objs[r].clone();
                let grand = grand_objs[r].clone();
                let cnt = counter.clone();
                lanes[lane]
                    .delegate(move |v| {
                        v.push(root_id(r));
                        rt1.delegate_scope(|cx| {
                            let n = cx
                                .delegate_iter(
                                    &child,
                                    (0..kids).map(|j| {
                                        let rt2 = rt1.clone();
                                        let grand2 = grand.clone();
                                        let cnt2 = cnt.clone();
                                        move |v: &mut Vec<u64>| {
                                            v.push(child_id(r, j));
                                            cnt2.view(|a| {
                                                a.0 = a.0.wrapping_add(child_id(r, j));
                                            })
                                            .unwrap();
                                            rt2.delegate_scope(|cx| {
                                                cx.delegate_iter(
                                                    &grand2,
                                                    (0..grands).map(|k| {
                                                        move |g: &mut u64| {
                                                            *g = fold_grand(*g, grand_id(r, j, k));
                                                        }
                                                    }),
                                                )
                                                .unwrap();
                                            })
                                            .unwrap();
                                        }
                                    }),
                                )
                                .unwrap();
                            assert_eq!(n, kids);
                        })
                        .unwrap();
                    })
                    .unwrap();
                r += 1;
            }
            Op::FutRoot { lane, kids } => {
                let rt1 = rt.clone();
                let child = fut_child_objs[fr].clone();
                let fut = lanes[lane]
                    .delegate_with(move |v| {
                        v.push(froot_id(fr));
                        // Spawn all future-returning children first, then
                        // wait in submission order (per-set FIFO makes the
                        // returned running values deterministic). When the
                        // child set pins to this delegate, the waits
                        // execute help-first from the own queue.
                        rt1.delegate_scope(|cx| {
                            let futs: Vec<_> = (0..kids)
                                .map(|j| {
                                    cx.delegate_with(&child, move |c| {
                                        *c = c.wrapping_add(fchild_id(fr, j));
                                        *c
                                    })
                                    .unwrap()
                                })
                                .collect();
                            let mut acc = 0u64;
                            for f in futs {
                                acc = fold_fut(acc, f.wait().unwrap());
                            }
                            acc
                        })
                        .unwrap()
                    })
                    .unwrap();
                // Program-context wait, mid-epoch: the root's future
                // carries the fold back.
                fut_log.push(fut.wait().unwrap());
                fr += 1;
            }
            Op::Read { lane } => {
                read_log.push(lanes[lane].call_mut(|v| v.clone()).unwrap());
            }
            Op::Bump { x } => {
                counter.view(|a| a.0 = a.0.wrapping_add(x)).unwrap();
            }
            Op::Epoch => {
                rt.end_isolation().unwrap();
                rt.begin_isolation().unwrap();
            }
        }
    }
    rt.end_isolation().unwrap();

    Outcome {
        lanes: lanes
            .iter()
            .map(|o| o.call(|v| v.clone()).unwrap())
            .collect(),
        children: child_objs
            .iter()
            .map(|o| o.call(|v| v.clone()).unwrap())
            .collect(),
        grands: grand_objs.iter().map(|o| o.call(|g| *g).unwrap()).collect(),
        read_log,
        counter: counter.view(|a| a.0).unwrap(),
        fut_children: fut_child_objs
            .iter()
            .map(|o| o.call(|c| *c).unwrap())
            .collect(),
        fut_log,
    }
}

/// The default ring, and a four-slot one that fills within a few
/// operations, so the program thread retracts sets, runs their roots and
/// nests from them (the SPSC transport only: the deques never retract).
const RINGS: [usize; 2] = [512, 4];

/// Stealing off and on, plus a four-slot ring on the SPSC transport, as
/// `(label, stealing, ring capacity)`.
fn all_shapes() -> [(&'static str, bool, usize); 3] {
    [
        ("off", false, RINGS[0]),
        ("off/ring-4", false, RINGS[1]),
        ("steal", true, RINGS[0]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(14))]

    /// The headline property: every shape executes random nested programs bit-identically to the depth-first
    /// sequential oracle.
    #[test]
    fn nested_execution_matches_sequential_oracle(
        ops in proptest::collection::vec(op_strategy(), 0..40),
        delegates in 1usize..4,
    ) {
        let expected = interpret(&ops);
        for (label, stealing, ring) in all_shapes() {
            let actual = run_parallel(&ops, delegates, stealing, ring);
            prop_assert_eq!(
                &actual, &expected,
                "{} with {} delegates diverged from the oracle", label, delegates
            );
        }
    }

    /// Determinism: two runs of the same nested program on the same shape
    /// are identical (no schedule-dependence leaks into results).
    #[test]
    fn repeated_nested_runs_are_identical(
        ops in proptest::collection::vec(op_strategy(), 0..30),
    ) {
        let a = run_parallel(&ops, 2, true, RINGS[0]);
        let b = run_parallel(&ops, 2, true, RINGS[0]);
        prop_assert_eq!(a, b);
    }
}

/// Deterministic (non-proptest) spot check kept cheap enough for `--test-
/// threads` sweeps: a fixed deep program over every shape, so CI matrix
/// legs with different thread counts still cover every shape.
#[test]
fn fixed_deep_program_all_shapes() {
    let ops = vec![
        Op::Root {
            lane: 0,
            kids: 3,
            grands: 2,
        },
        Op::Root {
            lane: 1,
            kids: 2,
            grands: 1,
        },
        Op::Bump { x: 9 },
        Op::Read { lane: 0 },
        Op::Root {
            lane: 0,
            kids: 3,
            grands: 2,
        },
        Op::Epoch,
        Op::Root {
            lane: 2,
            kids: 1,
            grands: 2,
        },
        Op::BatchRoot {
            lane: 1,
            kids: 4,
            grands: 2,
        },
        Op::Read { lane: 2 },
        Op::Root {
            lane: 2,
            kids: 2,
            grands: 0,
        },
        Op::BatchRoot {
            lane: 2,
            kids: 0,
            grands: 0,
        },
    ];
    let expected = interpret(&ops);
    let delegates = std::env::var("SS_DELEGATES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2usize);
    for (label, stealing, ring) in all_shapes() {
        let actual = run_parallel(&ops, delegates, stealing, ring);
        assert_eq!(actual, expected, "{label} diverged");
    }
}

/// Deterministic future-heavy program over every shape: mixed
/// future-returning and classic nested roots, mid-epoch reclaims and an
/// epoch boundary, so delegate-context waits (help-first), program-context
/// waits and the barrier's future-settlement guarantee are all exercised
/// with stealing off and on.
#[test]
fn fixed_future_program_all_shapes() {
    let ops = vec![
        Op::FutRoot { lane: 0, kids: 3 },
        Op::Root {
            lane: 1,
            kids: 2,
            grands: 1,
        },
        Op::FutRoot { lane: 1, kids: 2 },
        Op::Read { lane: 0 },
        Op::FutRoot { lane: 2, kids: 0 },
        Op::Epoch,
        Op::FutRoot { lane: 0, kids: 3 },
        Op::Bump { x: 5 },
        Op::Read { lane: 0 },
    ];
    let expected = interpret(&ops);
    let delegates = std::env::var("SS_DELEGATES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2usize);
    for (label, stealing, ring) in all_shapes() {
        let actual = run_parallel(&ops, delegates, stealing, ring);
        assert_eq!(actual, expected, "{label} diverged");
    }
}

/// A delegate waiting on an operation in its *own* serialization set can
/// never complete (per-set FIFO orders the operation after the waiter);
/// the runtime must reject the wait with `SsError::FutureDeadlock` —
/// deterministically, with stealing off and on — and stay
/// healthy afterwards (the rejected operation still runs).
#[test]
fn own_set_wait_deadlock_is_deterministic_all_shapes() {
    use std::sync::{Arc, Mutex};
    let delegates = std::env::var("SS_DELEGATES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2usize);
    for (label, stealing, ring) in all_shapes() {
        let rt = Runtime::builder()
            .delegate_threads(delegates)
            .stealing(stealing)
            .queue_capacity(ring)
            .build()
            .unwrap();
        let w: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
        let seen: Arc<Mutex<Option<SsError>>> = Arc::new(Mutex::new(None));
        rt.begin_isolation().unwrap();
        let (rt1, w1, seen1) = (rt.clone(), w.clone(), Arc::clone(&seen));
        w.delegate(move |_| {
            let fut = rt1
                .delegate_scope(|cx| {
                    cx.delegate_with(&w1, |n| {
                        *n += 1;
                        *n
                    })
                })
                .unwrap()
                .unwrap();
            *seen1.lock().unwrap() = Some(fut.wait().unwrap_err());
        })
        .unwrap();
        rt.end_isolation().unwrap();
        let err = seen
            .lock()
            .unwrap()
            .take()
            .unwrap_or_else(|| panic!("{label}: wait never ran"));
        assert!(
            matches!(err, SsError::FutureDeadlock { .. }),
            "{label}: expected FutureDeadlock, got {err:?}"
        );
        assert_eq!(w.call(|n| *n).unwrap(), 1, "{label}");
        assert!(!rt.is_poisoned(), "{label}");
    }
}

/// A delegate wait on its own spawn tree (child set pinned to the waiting
/// delegate itself — forced with one delegate thread) completes via
/// help-first under every steal policy; blocking conventionally would
/// deadlock.
#[test]
fn own_spawn_tree_wait_completes_all_shapes() {
    for (label, stealing, ring) in all_shapes() {
        let rt = Runtime::builder()
            .delegate_threads(1)
            .stealing(stealing)
            .queue_capacity(ring)
            .build()
            .unwrap();
        let parent: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
        let child: Writable<u64, SequenceSerializer> = Writable::new(&rt, 21);
        rt.begin_isolation().unwrap();
        let (rt1, child1) = (rt.clone(), child.clone());
        let fut = parent
            .delegate_with(move |n| {
                let fut = rt1
                    .delegate_scope(|cx| cx.delegate_with(&child1, |c| *c * 2))
                    .unwrap()
                    .unwrap();
                *n = fut.wait().unwrap();
                *n
            })
            .unwrap();
        assert_eq!(fut.wait().unwrap(), 42, "{label}");
        rt.end_isolation().unwrap();
        assert_eq!(parent.call(|n| *n).unwrap(), 42, "{label}");
    }
}
