//! The program thread as a load-chosen executor: a set whose first
//! operation of an epoch finds its delegate's ring at least half full runs
//! on the program thread for the rest of the epoch (a *take*), and nested
//! submits into a taken set reach it through `Lane::Program`.
//!
//! Takes are made deterministic with a four-slot ring and one delegate
//! held inside an operation while the ring fills: a blocker on set B is
//! running, two more B operations are queued behind it (half the ring),
//! and every set seen for the first time after that is taken. Every
//! scenario runs under a 5 s watchdog, so a program thread that stops
//! serving `Lane::Program` in one of its waits fails instead of hanging.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use prometheus_rs::prelude::*;

/// How long a scenario may take before the test calls it hung.
const WATCHDOG: Duration = Duration::from_secs(5);
/// Long enough for an idle thread to finish its spin-then-yield ladder
/// and reach its `sleep@…` gate.
const SETTLE: Duration = Duration::from_millis(200);

type Obj = Writable<u64, SequenceSerializer>;

/// Runs `scenario` on its own thread (which becomes the runtime's program
/// thread) and fails if it has not finished within [`WATCHDOG`].
fn watchdog<T: Send + 'static>(scenario: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(scenario());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(out) => out,
        Err(RecvTimeoutError::Timeout) => panic!("no progress in {WATCHDOG:?}"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(handle.join().expect_err("scenario ended without a result"))
        }
    }
}

fn runtime(builder: RuntimeBuilder) -> Runtime {
    builder
        .delegate_threads(1)
        .queue_capacity(4)
        .build()
        .unwrap()
}

/// Spins until `flag` is raised.
fn until(flag: &AtomicBool) {
    while !flag.load(Ordering::Acquire) {
        std::hint::spin_loop();
    }
}

/// A raised-on-drop flag: the blocker's gate opens even when an assertion
/// unwinds, so the delegate finishes and the runtime can join it.
struct Gate(Arc<AtomicBool>);

impl Gate {
    fn new() -> Self {
        Gate(Arc::new(AtomicBool::new(false)))
    }
}

impl Drop for Gate {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Holds the one delegate inside an operation on `b` until `gate` opens,
/// running `then` after it, with two more operations of `b` queued behind
/// it: the four-slot ring is half full, so every set the program thread
/// sees for the first time from here on is taken.
fn hold_half_full(b: &Obj, gate: &Gate, then: impl FnOnce() + Send + 'static) {
    let started = Arc::new(AtomicBool::new(false));
    let (s, g) = (Arc::clone(&started), Arc::clone(&gate.0));
    b.delegate(move |_| {
        s.store(true, Ordering::Release);
        until(&g);
        then();
    })
    .unwrap();
    until(&started);
    for _ in 0..2 {
        b.delegate(|n| *n += 1).unwrap();
    }
}

#[test]
fn a_fresh_set_at_a_half_full_ring_runs_on_the_program_thread() {
    watchdog(|| {
        let rt = runtime(Runtime::builder().trace(true));
        let (b, t): (Obj, Obj) = (Writable::new(&rt, 0), Writable::new(&rt, 0));
        let ran = Arc::new(AtomicU64::new(0));
        rt.begin_isolation().unwrap();
        let gate = Gate::new();
        hold_half_full(&b, &gate, || {});
        for _ in 0..3 {
            let r = Arc::clone(&ran);
            t.delegate(move |n| {
                *n += 1;
                r.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        // Run synchronously, with the delegate still held.
        assert_eq!(ran.load(Ordering::Relaxed), 3);
        drop(gate);
        rt.end_isolation().unwrap();
        assert_eq!((t.call(|n| *n).unwrap(), b.call(|n| *n).unwrap()), (3, 2));
        let s = rt.stats();
        assert_eq!((s.inline_executions, s.delegations, s.executed), (3, 6, 6));
        assert_eq!(s.delegate_executed, vec![3]);
        let inline: Vec<_> = rt
            .take_trace()
            .unwrap()
            .into_iter()
            .filter(|e| e.kind == TraceKind::InlineExecute)
            .collect();
        assert_eq!(inline.len(), 3);
        assert!(inline
            .iter()
            .all(|e| e.object == Some(t.instance()) && e.executor == Some(TraceExecutor::Program)));
    });
}

#[test]
fn a_set_pushed_this_epoch_is_never_taken() {
    watchdog(|| {
        let rt = runtime(Runtime::builder().audit(AuditMode::Full));
        let (a, b, t): (Obj, Obj, Obj) = (
            Writable::new(&rt, 0),
            Writable::new(&rt, 0),
            Writable::new(&rt, 0),
        );
        const EPOCHS: u64 = 20;
        for _ in 0..EPOCHS {
            rt.begin_isolation().unwrap();
            // `a` arrives at an empty ring and is pushed...
            a.delegate(|n| *n += 1).unwrap();
            let gate = Gate::new();
            hold_half_full(&b, &gate, || {});
            // ...so its operations keep going to the delegate, behind a
            // ring at least half full, while a fresh set is taken.
            a.delegate(|n| *n += 1).unwrap();
            t.delegate(|n| *n += 1).unwrap();
            a.delegate(|n| *n += 1).unwrap();
            drop(gate);
            // The auditor certifies the epoch: no set ran on two executors.
            rt.end_isolation().unwrap();
        }
        let s = rt.stats();
        assert_eq!(s.epochs_audited, EPOCHS);
        assert_eq!(s.inline_executions, EPOCHS);
        assert_eq!(a.call(|n| *n).unwrap(), 3 * EPOCHS);
        assert_eq!(t.call(|n| *n).unwrap(), EPOCHS);
    });
}

#[test]
fn a_delegate_nests_into_a_set_the_program_took() {
    watchdog(|| {
        let rt = runtime(Runtime::builder().audit(AuditMode::Full));
        let (b, t): (Obj, Obj) = (Writable::new(&rt, 0), Writable::new(&rt, 0));
        let program = std::thread::current().id();
        let ran_on: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
        let sent = Arc::new(Mutex::new(None));
        rt.begin_isolation().unwrap();
        let gate = Gate::new();
        let (rt2, t2, ran2, sent2) = (
            rt.clone(),
            t.clone(),
            Arc::clone(&ran_on),
            Arc::clone(&sent),
        );
        // Once released, the blocker nests three folds into `t`, which
        // the program thread has taken by then.
        hold_half_full(&b, &gate, move || {
            let out = rt2.delegate_scope(|cx| {
                for k in 1..=3u64 {
                    let ran = Arc::clone(&ran2);
                    cx.delegate(&t2, move |n| {
                        *n = *n * 10 + k;
                        ran.lock().unwrap().push(std::thread::current().id());
                    })?;
                }
                Ok::<(), SsError>(())
            });
            *sent2.lock().unwrap() = Some(out);
        });
        t.delegate(|n| *n = 9).unwrap();
        assert_eq!(t.pending_operations(), 0, "the take ran synchronously");
        drop(gate);
        rt.end_isolation().unwrap();
        assert_eq!(sent.lock().unwrap().take(), Some(Ok(Ok(()))));
        // The oracle: the program's operation, then the nested ones in
        // their submission order — all on the program thread.
        assert_eq!(t.call(|n| *n).unwrap(), 9123);
        assert_eq!(*ran_on.lock().unwrap(), vec![program; 3]);
        let s = rt.stats();
        assert_eq!(s.delegations, s.executed);
        assert_eq!(s.in_flight, 0);
        assert_eq!((s.inline_executions, s.nested_delegations), (4, 3));
        assert_eq!(s.epochs_audited, 1);
    });
}

#[test]
fn delegate_scope_inside_a_taken_operation_succeeds() {
    watchdog(|| {
        let rt = runtime(Runtime::builder());
        let (b, t, child): (Obj, Obj, Obj) = (
            Writable::new(&rt, 0),
            Writable::new(&rt, 0),
            Writable::new(&rt, 0),
        );
        let seen = Arc::new(Mutex::new(None));
        rt.begin_isolation().unwrap();
        let gate = Gate::new();
        hold_half_full(&b, &gate, || {});
        let (rt2, child2, seen2) = (rt.clone(), child.clone(), Arc::clone(&seen));
        t.delegate(move |n| {
            *n += 1;
            let out = rt2.delegate_scope(|cx| {
                cx.delegate_iter(&child2, (1..=4u64).map(|k| move |c: &mut u64| *c += k))
                    .map(|sent| (cx.executor(), sent))
            });
            *seen2.lock().unwrap() = Some(out);
        })
        .unwrap();
        assert_eq!(
            seen.lock().unwrap().take(),
            Some(Ok(Ok((Executor::Program, 4)))),
            "the taken operation ran with the program thread's delegate context"
        );
        drop(gate);
        rt.end_isolation().unwrap();
        assert_eq!(
            (t.call(|n| *n).unwrap(), child.call(|n| *n).unwrap()),
            (1, 10)
        );
        let s = rt.stats();
        assert_eq!(s.executed, s.delegations);
        assert_eq!(s.nested_delegations, 4);
    });
}

/// A delegate's future waits on operations that only the program thread
/// can run — nested into a set it took — while the program thread is
/// stuck first on a full ring, then at the barrier. The first waiter spins
/// on its future without helping, so its ring stays full: only the
/// program thread's full-ring wait running `Lane::Program` lets it finish.
/// The second parks; the program thread's barrier, parked on the same
/// event, must hear the push to its lane (the scripted `wake@p` lands
/// between its last re-check and its park).
#[test]
fn lane_program_is_served_at_a_full_ring_and_at_the_barrier() {
    watchdog(|| {
        let rt = runtime(Runtime::builder().test_schedule(["wake@p", "sleep@p"]));
        let (b, t): (Obj, Obj) = (Writable::new(&rt, 0), Writable::new(&rt, 0));
        let at_barrier = Arc::new(AtomicBool::new(false));
        let results = Arc::new(Mutex::new(Vec::new()));
        rt.begin_isolation().unwrap();
        let gate = Gate::new();
        let (rt2, t2, r2) = (rt.clone(), t.clone(), Arc::clone(&results));
        hold_half_full(&b, &gate, move || {
            let fut = rt2
                .delegate_scope(|cx| cx.delegate_with(&t2, |n| *n + 1))
                .unwrap()
                .unwrap();
            while !fut.is_ready() {
                std::hint::spin_loop();
            }
            r2.lock().unwrap().push(fut.wait().unwrap());
        });
        // Taken: the set is the program thread's for the epoch.
        t.delegate(|n| *n = 10).unwrap();
        drop(gate);
        // Two more fill the ring behind the blocker; the third must wait
        // for a slot, which frees only once the blocker's future resolves.
        for _ in 0..3 {
            b.delegate(|n| *n += 1).unwrap();
        }
        let (rt3, t3, r3, flag) = (
            rt.clone(),
            t.clone(),
            Arc::clone(&results),
            Arc::clone(&at_barrier),
        );
        b.delegate(move |_| {
            until(&flag);
            std::thread::sleep(SETTLE);
            let fut = rt3
                .delegate_scope(|cx| cx.delegate_with(&t3, |n| *n + 2))
                .unwrap()
                .unwrap();
            r3.lock().unwrap().push(fut.wait().unwrap());
        })
        .unwrap();
        at_barrier.store(true, Ordering::Release);
        rt.end_isolation().unwrap();
        assert_eq!(*results.lock().unwrap(), vec![11, 12]);
        assert_eq!((t.call(|n| *n).unwrap(), b.call(|n| *n).unwrap()), (10, 5));
        assert_eq!(rt.stats().inline_executions, 3);
        assert_eq!(rt.test_gates_remaining(), Some(0), "script not followed");
    });
}
