//! The central correctness property: **parallel execution with serialization
//! sets is indistinguishable from sequential execution of the same
//! operations** (§2).
//!
//! A random "program" — a sequence of operations on K objects, interleaving
//! delegations, dependent reads (ownership reclaims), epoch boundaries and
//! reducible updates — is executed twice: through the parallel runtime and
//! through a trivial sequential interpreter. Final states must match
//! exactly, for every generated program, across runtime shapes.

use prometheus_rs::prelude::*;
use proptest::prelude::*;

/// One step of a generated program. Operations are simple enough to
/// interpret sequentially but arbitrary enough to exercise ordering: each
/// mutation folds the object's state with an input value.
#[derive(Debug, Clone)]
enum Op {
    /// Delegate `state = state * 31 + x` on object `obj`.
    Mutate { obj: usize, x: u64 },
    /// Batch-delegate the same fold once per element of `xs` on object
    /// `obj` via `delegate_iter` — one routed submission, whole-run FIFO.
    MutateBatch { obj: usize, xs: Vec<u64> },
    /// Dependent read: program context reads the object (reclaim), folds the
    /// value into the program-side log.
    Read { obj: usize },
    /// Reducible bump by `x`.
    Bump { x: u64 },
    /// Close the current isolation epoch and open a new one.
    EpochBoundary,
}

fn op_strategy(k: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0..k, any::<u64>()).prop_map(|(obj, x)| Op::Mutate { obj, x }),
        // Sizes cover the empty batch (must be a no-op that doesn't even
        // tag the object) through multi-operation runs.
        3 => (0..k, proptest::collection::vec(any::<u64>(), 0..9))
            .prop_map(|(obj, xs)| Op::MutateBatch { obj, xs }),
        2 => (0..k).prop_map(|obj| Op::Read { obj }),
        2 => any::<u64>().prop_map(|x| Op::Bump { x }),
        1 => Just(Op::EpochBoundary),
    ]
}

/// Sequential interpreter: the semantics the runtime must reproduce.
fn interpret(k: usize, ops: &[Op]) -> (Vec<u64>, u64, Vec<u64>) {
    let mut objects = vec![0u64; k];
    let mut counter = 0u64;
    let mut read_log = Vec::new();
    for op in ops {
        match op {
            Op::Mutate { obj, x } => {
                objects[*obj] = objects[*obj].wrapping_mul(31).wrapping_add(*x);
            }
            Op::MutateBatch { obj, xs } => {
                for x in xs {
                    objects[*obj] = objects[*obj].wrapping_mul(31).wrapping_add(*x);
                }
            }
            Op::Read { obj } => read_log.push(objects[*obj]),
            Op::Bump { x } => counter = counter.wrapping_add(*x),
            Op::EpochBoundary => {}
        }
    }
    (objects, counter, read_log)
}

/// Runs the same program through the serialization-sets runtime.
fn run_parallel(
    k: usize,
    ops: &[Op],
    delegates: usize,
    ring: usize,
    stealing: bool,
) -> (Vec<u64>, u64, Vec<u64>) {
    let rt = Runtime::builder()
        .delegate_threads(delegates)
        .queue_capacity(ring)
        .stealing(stealing)
        .build()
        .unwrap();
    let objects: Vec<Writable<u64, SequenceSerializer>> =
        (0..k).map(|_| Writable::new(&rt, 0)).collect();
    struct Acc(u64);
    impl Reduce for Acc {
        fn reduce(&mut self, other: Self) {
            self.0 = self.0.wrapping_add(other.0);
        }
    }
    let counter = Reducible::new(&rt, || Acc(0));
    let mut read_log = Vec::new();

    rt.begin_isolation().unwrap();
    for op in ops {
        match op {
            Op::Mutate { obj, x } => {
                let x = *x;
                objects[*obj]
                    .delegate(move |s| *s = s.wrapping_mul(31).wrapping_add(x))
                    .unwrap();
            }
            Op::MutateBatch { obj, xs } => {
                let n = objects[*obj]
                    .delegate_iter(
                        xs.clone()
                            .into_iter()
                            .map(|x| move |s: &mut u64| *s = s.wrapping_mul(31).wrapping_add(x)),
                    )
                    .unwrap();
                assert_eq!(n, xs.len());
            }
            Op::Read { obj } => {
                // Dependent use: implicit ownership reclaim mid-epoch. Uses
                // the non-const access path so the object stays in (or
                // enters) the privately-writable state — a const `call`
                // before any delegation would legally mark the object
                // read-only for the epoch and make later Mutate ops
                // StateConflict errors (that path is covered in protocol.rs).
                read_log.push(objects[*obj].call_mut(|s| *s).unwrap());
            }
            Op::Bump { x } => {
                let x = *x;
                let c = counter.clone();
                // Bump through the program context's own view (any executor
                // may hold a view; using the program view keeps the op
                // deterministic relative to Mutate ordering, which it
                // commutes with anyway).
                c.view(|a| a.0 = a.0.wrapping_add(x)).unwrap();
            }
            Op::EpochBoundary => {
                rt.end_isolation().unwrap();
                rt.begin_isolation().unwrap();
            }
        }
    }
    rt.end_isolation().unwrap();

    let finals = objects.iter().map(|o| o.call(|s| *s).unwrap()).collect();
    let total = counter.view(|a| a.0).unwrap();
    (finals, total, read_log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_execution_matches_sequential_oracle(
        k in 1usize..6,
        ops in proptest::collection::vec(op_strategy(5), 0..120),
        delegates in 0usize..4,
        // A four-slot ring fills within a few operations, so the program
        // thread retracts sets and runs them itself.
        ring in prop_oneof![Just(4usize), Just(512)],
        // Stealing on: thieves may also take the queued tail of a
        // *started* set after the quiescence handshake — the order oracle
        // must not be able to tell.
        stealing in any::<bool>(),
    ) {
        // Ops reference objects 0..5; clamp to k.
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|op| match op {
                Op::Mutate { obj, x } => Op::Mutate { obj: obj % k, x },
                Op::MutateBatch { obj, xs } => Op::MutateBatch { obj: obj % k, xs },
                Op::Read { obj } => Op::Read { obj: obj % k },
                other => other,
            })
            .collect();
        let expected = interpret(k, &ops);
        let actual = run_parallel(
            k,
            &ops,
            delegates,
            ring,
            stealing,
        );
        prop_assert_eq!(&actual, &expected);
    }

    #[test]
    fn repeated_runs_are_identical(
        ops in proptest::collection::vec(op_strategy(3), 0..60),
    ) {
        let a = run_parallel(3, &ops, 2, 4, false);
        let b = run_parallel(3, &ops, 2, 4, false);
        prop_assert_eq!(a, b);
    }
}
