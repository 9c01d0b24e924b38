//! The program thread as an executor by tail retraction: where the root
//! program thread would otherwise wait — at the epoch barrier, at a full
//! ring, in a future wait — it pops whole runs back off the unclaimed end
//! of its delegate's ring and runs them itself, for the rest of the
//! epoch; nested submits into a retracted set reach it through
//! `Lane::Program`. A run is taken when its set is fresh, or when every
//! earlier operation of the set has run: a quiescent tail.
//!
//! Retractions are made deterministic with one delegate held inside a
//! blocker operation: a held delegate claims nothing more, so every entry
//! pushed behind the blocker is unclaimed when the program thread's spin
//! phase runs out. Each scenario's blocker is running before anything is
//! pushed behind it, so its own claim covers it alone. A scenario in which
//! nothing may be retracted opens its blocker once the scripted
//! `retract@p` gates show the program thread has looked and left the
//! ring alone. Every scenario runs under a 5 s watchdog, so a program
//! thread that stops serving `Lane::Program` in one of its waits fails
//! instead of hanging.

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

    /// A handle that opens the gate from wherever it is dropped — inside a
    /// retracted operation, which is how a scenario releases its blocker
    /// from the program thread's barrier.
    fn opener(&self) -> Gate {
        Gate(Arc::clone(&self.0))
    }
}

impl Drop for Gate {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Holds the one delegate inside an operation on `b` until `gate` opens,
/// running `then` after it. Returns once the blocker runs: its claim
/// covered it alone, so whatever is pushed from here on stays unclaimed
/// until the gate opens.
fn hold(b: &Obj, gate: &Gate, then: impl FnOnce() + Send + 'static) {
    let started = Arc::new(AtomicBool::new(false));
    let (s, g) = (Arc::clone(&started), Arc::clone(&gate.0));
    b.delegate(move |_| {
        s.store(true, Ordering::Release);
        until(&g);
        then();
    })
    .unwrap();
    until(&started);
}

/// Drops `opener` once the runtime's test script is down to `left`
/// entries: the release of a blocker that must outlast a retraction
/// attempt.
fn open_when_left(rt: &Runtime, left: usize, opener: Gate) -> std::thread::JoinHandle<()> {
    let rt = rt.clone();
    std::thread::spawn(move || {
        while rt.test_gates_remaining() != Some(left) {
            std::thread::yield_now();
        }
        drop(opener);
    })
}

/// Delegates one `+= 1` on `w` and returns once it has run — on the
/// delegate, which retires it before it pops anything else.
fn ran_first(w: &Obj) {
    let ran = Arc::new(AtomicBool::new(false));
    let r = Arc::clone(&ran);
    w.delegate(move |n| {
        *n += 1;
        r.store(true, Ordering::Release);
    })
    .unwrap();
    until(&ran);
}

fn delegate_thread() -> bool {
    std::thread::current()
        .name()
        .is_some_and(|n| n.starts_with("ss-delegate-"))
}

#[test]
fn a_fresh_run_at_the_barrier_is_retracted() {
    watchdog(|| {
        let rt = runtime(Runtime::builder().trace(true));
        let (b, t): (Obj, Obj) = (Writable::new(&rt, 0), Writable::new(&rt, 0));
        let on_program = Arc::new(AtomicU64::new(0));
        rt.begin_isolation().unwrap();
        let gate = Gate::new();
        hold(&b, &gate, || {});
        for k in 0..3 {
            let (seen, opener) = (Arc::clone(&on_program), (k == 2).then(|| gate.opener()));
            t.delegate(move |n| {
                *n += 1;
                seen.fetch_add(u64::from(!delegate_thread()), Ordering::Relaxed);
                // The last one lets the blocker finish.
                drop(opener);
            })
            .unwrap();
        }
        // The delegate is held: only the barrier's retraction can run `t`.
        rt.end_isolation().unwrap();
        assert_eq!(on_program.load(Ordering::Relaxed), 3);
        assert_eq!((t.call(|n| *n).unwrap(), b.call(|n| *n).unwrap()), (3, 0));
        let s = rt.stats();
        assert_eq!((s.inline_executions, s.delegations, s.executed), (3, 4, 4));
        assert_eq!(s.delegate_executed, vec![1]);
        // The log keeps the delegation sites: a retraction adds no event.
        let kinds: Vec<_> = rt.take_trace().unwrap().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds.iter().filter(|&&k| k == TraceKind::Delegate).count(),
            4
        );
        assert!(!kinds.contains(&TraceKind::InlineExecute));
        drop(gate);
    });
}

#[test]
fn a_run_that_straddles_the_claim_point_is_never_retracted() {
    watchdog(|| {
        const EPOCHS: u64 = 20;
        // Two retractions per epoch: the first takes `t`, the second finds
        // nothing more.
        let script = vec!["retract@p"; 4 * EPOCHS as usize];
        let rt = runtime(
            Runtime::builder()
                .audit(AuditMode::Full)
                .test_schedule(script),
        );
        let (a, t): (Obj, Obj) = (Writable::new(&rt, 0), Writable::new(&rt, 0));
        let a_off_delegate = Arc::new(AtomicU64::new(0));
        for e in 0..EPOCHS {
            rt.begin_isolation().unwrap();
            // `a`'s first operation is the blocker, claimed alone; its two
            // more stay unclaimed behind it — a run whose set has been
            // claimed from, and whose claimed part is still running. The
            // fresh `t` behind them is retracted; the blocker goes once
            // the barrier has looked again and left `a` alone.
            let gate = Gate::new();
            hold(&a, &gate, || {});
            for _ in 0..2 {
                let off = Arc::clone(&a_off_delegate);
                a.delegate(move |n| {
                    *n += 1;
                    off.fetch_add(u64::from(!delegate_thread()), Ordering::Relaxed);
                })
                .unwrap();
            }
            t.delegate(|n| *n += 1).unwrap();
            let left = 4 * (EPOCHS - e - 1) as usize;
            let release = open_when_left(&rt, left, gate.opener());
            // The auditor certifies the epoch: no set ran on two executors.
            rt.end_isolation().unwrap();
            release.join().unwrap();
        }
        let s = rt.stats();
        assert_eq!(s.epochs_audited, EPOCHS);
        assert_eq!(s.inline_executions, EPOCHS);
        assert_eq!(a_off_delegate.load(Ordering::Relaxed), 0);
        assert_eq!(a.call(|n| *n).unwrap(), 2 * EPOCHS);
        assert_eq!(t.call(|n| *n).unwrap(), EPOCHS);
        assert_eq!(rt.test_gates_remaining(), Some(0), "script not followed");
    });
}

#[test]
fn a_set_a_delegate_nested_into_first_is_never_retracted() {
    watchdog(|| {
        let rt = runtime(
            Runtime::builder()
                .audit(AuditMode::Full)
                .test_schedule(["retract@p", "retract@p"]),
        );
        let (b, t): (Obj, Obj) = (Writable::new(&rt, 0), Writable::new(&rt, 0));
        let t_off_delegate = Arc::new(AtomicU64::new(0));
        let nested = Arc::new(AtomicBool::new(false));
        rt.begin_isolation().unwrap();
        let gate = Gate::new();
        let (rt2, t2, n2) = (rt.clone(), t.clone(), Arc::clone(&nested));
        let started = Arc::new(AtomicBool::new(false));
        let (s, g) = (Arc::clone(&started), Arc::clone(&gate.0));
        // The blocker nests into `t` first: `t` is its delegate's for the
        // epoch before the program thread has pushed any of it.
        b.delegate(move |_| {
            s.store(true, Ordering::Release);
            rt2.delegate_scope(|cx| cx.delegate(&t2, |n| *n += 10))
                .unwrap()
                .unwrap();
            n2.store(true, Ordering::Release);
            until(&g);
        })
        .unwrap();
        until(&started);
        until(&nested);
        for _ in 0..2 {
            let off = Arc::clone(&t_off_delegate);
            t.delegate(move |n| {
                *n += 1;
                off.fetch_add(u64::from(!delegate_thread()), Ordering::Relaxed);
            })
            .unwrap();
        }
        // The barrier tries to retract `t`, finds its pin, and leaves it;
        // then it waits on its token, and the gate opens a while later.
        let opener = gate.opener();
        let release = std::thread::spawn(move || {
            std::thread::sleep(SETTLE);
            drop(opener);
        });
        rt.end_isolation().unwrap();
        release.join().unwrap();
        assert_eq!(rt.test_gates_remaining(), Some(0), "no retraction tried");
        assert_eq!(t_off_delegate.load(Ordering::Relaxed), 0);
        assert_eq!(t.call(|n| *n).unwrap(), 12);
        let s = rt.stats();
        assert_eq!((s.inline_executions, s.epochs_audited), (0, 1));
        drop(gate);
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
        // the program thread has retracted by then.
        hold(&b, &gate, move || {
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
        let opener = gate.opener();
        t.delegate(move |n| {
            *n = 9;
            drop(opener);
        })
        .unwrap();
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
        drop(gate);
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
        hold(&b, &gate, || {});
        let (rt2, child2, seen2, opener) =
            (rt.clone(), child.clone(), Arc::clone(&seen), gate.opener());
        t.delegate(move |n| {
            *n += 1;
            let out = rt2.delegate_scope(|cx| {
                cx.delegate_iter(&child2, (1..=4u64).map(|k| move |c: &mut u64| *c += k))
                    .map(|sent| (cx.executor(), sent))
            });
            *seen2.lock().unwrap() = Some(out);
            drop(opener);
        })
        .unwrap();
        rt.end_isolation().unwrap();
        assert_eq!(
            seen.lock().unwrap().take(),
            Some(Ok(Ok((Executor::Program, 4)))),
            "the retracted operation ran with the program thread's delegate context"
        );
        assert_eq!(
            (t.call(|n| *n).unwrap(), child.call(|n| *n).unwrap()),
            (1, 10)
        );
        let s = rt.stats();
        assert_eq!(s.executed, s.delegations);
        assert_eq!(s.nested_delegations, 4);
        drop(gate);
    });
}

/// A delegate's future waits on operations that only the program thread
/// can run — nested into a set it retracted — while the program thread is
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
        let fill: Vec<Obj> = (0..4).map(|_| Writable::new(&rt, 0)).collect();
        let at_barrier = Arc::new(AtomicBool::new(false));
        let results = Arc::new(Mutex::new(Vec::new()));
        let t_off_program = Arc::new(AtomicU64::new(0));
        rt.begin_isolation().unwrap();
        let gate = Gate::new();
        let (rt2, t2, r2, off2) = (
            rt.clone(),
            t.clone(),
            Arc::clone(&results),
            Arc::clone(&t_off_program),
        );
        hold(&b, &gate, move || {
            let fut = rt2
                .delegate_scope(|cx| {
                    cx.delegate_with(&t2, move |n| {
                        off2.fetch_add(u64::from(delegate_thread()), Ordering::Relaxed);
                        *n + 1
                    })
                })
                .unwrap()
                .unwrap();
            while !fut.is_ready() {
                std::hint::spin_loop();
            }
            r2.lock().unwrap().push(fut.wait().unwrap());
        });
        // Three fresh sets and `t` fill the four-slot ring; the fourth
        // fresh set finds it full, and the wait retracts the runs at its
        // end: `t`'s, then the third's.
        for w in &fill[..3] {
            w.delegate(|n| *n += 1).unwrap();
        }
        t.delegate(|n| *n = 10).unwrap();
        fill[3].delegate(|n| *n += 1).unwrap();
        assert_eq!(t.pending_operations(), 0, "retracted at the full ring");
        drop(gate);
        // Two more fill the ring behind the blocker; the third must wait
        // for a slot, which frees only once the blocker's future resolves.
        for _ in 0..3 {
            b.delegate(|n| *n += 1).unwrap();
        }
        let (rt3, t3, r3, flag, off3) = (
            rt.clone(),
            t.clone(),
            Arc::clone(&results),
            Arc::clone(&at_barrier),
            Arc::clone(&t_off_program),
        );
        let fourth = Arc::new(AtomicBool::new(false));
        let f4 = Arc::clone(&fourth);
        b.delegate(move |_| {
            f4.store(true, Ordering::Release);
            until(&flag);
            std::thread::sleep(SETTLE);
            let fut = rt3
                .delegate_scope(|cx| {
                    cx.delegate_with(&t3, move |n| {
                        off3.fetch_add(u64::from(delegate_thread()), Ordering::Relaxed);
                        *n + 2
                    })
                })
                .unwrap()
                .unwrap();
            r3.lock().unwrap().push(fut.wait().unwrap());
        })
        .unwrap();
        // Running before the barrier, so the barrier cannot retract it:
        // the program thread parks on its token.
        until(&fourth);
        at_barrier.store(true, Ordering::Release);
        rt.end_isolation().unwrap();
        assert_eq!(*results.lock().unwrap(), vec![11, 12]);
        assert_eq!(t_off_program.load(Ordering::Relaxed), 0);
        assert_eq!((t.call(|n| *n).unwrap(), b.call(|n| *n).unwrap()), (10, 3));
        assert!(fill.iter().all(|w| w.call(|n| *n).unwrap() == 1));
        assert!(rt.stats().inline_executions >= 4, "{:?}", rt.stats());
        assert_eq!(rt.test_gates_remaining(), Some(0), "script not followed");
    });
}

/// A started set whose earlier operation has run is a quiescent tail: a
/// future wait on it retracts it, and the auditor certifies the epoch —
/// the set ran on the delegate, then on the program thread, one after
/// the other.
#[test]
fn a_quiescent_tail_is_retracted_at_a_wait() {
    watchdog(|| {
        let rt = runtime(Runtime::builder().audit(AuditMode::Full));
        let (b, s): (Obj, Obj) = (Writable::new(&rt, 0), Writable::new(&rt, 0));
        const EPOCHS: u64 = 10;
        for _ in 0..EPOCHS {
            rt.begin_isolation().unwrap();
            ran_first(&s);
            let gate = Gate::new();
            hold(&b, &gate, || {});
            let opener = gate.opener();
            let fut = s
                .delegate_with(move |n| {
                    *n += 1;
                    drop(opener);
                    delegate_thread()
                })
                .unwrap();
            assert!(!fut.wait().unwrap(), "ran on the delegate");
            rt.end_isolation().unwrap();
        }
        let st = rt.stats();
        assert_eq!((st.inline_executions, st.epochs_audited), (EPOCHS, EPOCHS));
        assert_eq!(s.call(|n| *n).unwrap(), 2 * EPOCHS);
    });
}

/// The same at a `wait_all` over a three-operation tail: taken whole.
#[test]
fn a_quiescent_tail_is_retracted_at_a_wait_all() {
    watchdog(|| {
        let rt = runtime(Runtime::builder().audit(AuditMode::Full));
        let (b, s): (Obj, Obj) = (Writable::new(&rt, 0), Writable::new(&rt, 0));
        rt.begin_isolation().unwrap();
        ran_first(&s);
        let gate = Gate::new();
        hold(&b, &gate, || {});
        let mut futs = Vec::new();
        for k in 0..3 {
            let opener = (k == 2).then(|| gate.opener());
            futs.push(
                s.delegate_with(move |n| {
                    *n = *n * 10 + k;
                    drop(opener);
                    (*n, delegate_thread())
                })
                .unwrap(),
            );
        }
        let got = SsFuture::wait_all(futs).unwrap();
        assert_eq!(got, [(10, false), (101, false), (1012, false)]);
        rt.end_isolation().unwrap();
        let st = rt.stats();
        assert_eq!((st.inline_executions, st.epochs_audited), (3, 1));
        assert_eq!(st.delegate_executed, vec![2]);
    });
}

/// A started set whose earlier operation is still running is no tail to
/// take: the wait's retraction leaves it, and it runs on the delegate
/// once the blocker — the set's own first operation — lets go.
#[test]
fn a_tail_behind_a_running_operation_is_never_retracted() {
    watchdog(|| {
        let rt = runtime(
            Runtime::builder()
                .audit(AuditMode::Full)
                .test_schedule(["retract@p", "retract@p"]),
        );
        let s: Obj = Writable::new(&rt, 0);
        rt.begin_isolation().unwrap();
        let gate = Gate::new();
        hold(&s, &gate, || {});
        let fut = s
            .delegate_with(|n| {
                *n += 1;
                delegate_thread()
            })
            .unwrap();
        let release = open_when_left(&rt, 0, gate.opener());
        assert!(fut.wait().unwrap(), "retracted behind a running operation");
        release.join().unwrap();
        rt.end_isolation().unwrap();
        let st = rt.stats();
        assert_eq!((st.inline_executions, st.epochs_audited), (0, 1));
        assert_eq!(rt.test_gates_remaining(), Some(0), "no retraction tried");
    });
}

/// A started set a delegate nested into before the program thread looked
/// is pinned to that delegate for the epoch: its quiescent tail stays.
#[test]
fn a_started_set_a_delegate_nested_into_is_never_retracted() {
    watchdog(|| {
        let rt = runtime(
            Runtime::builder()
                .audit(AuditMode::Full)
                .test_schedule(["retract@p", "retract@p"]),
        );
        let (b, s): (Obj, Obj) = (Writable::new(&rt, 0), Writable::new(&rt, 0));
        rt.begin_isolation().unwrap();
        ran_first(&s);
        // The blocker nests into `s` — after `s`'s first operation ran —
        // and then holds its delegate.
        let gate = Gate::new();
        let nested = Arc::new(AtomicBool::new(false));
        let (rt2, s2, n2, g) = (
            rt.clone(),
            s.clone(),
            Arc::clone(&nested),
            Arc::clone(&gate.0),
        );
        b.delegate(move |_| {
            rt2.delegate_scope(|cx| cx.delegate(&s2, |n| *n += 10))
                .unwrap()
                .unwrap();
            n2.store(true, Ordering::Release);
            until(&g);
        })
        .unwrap();
        until(&nested);
        let fut = s
            .delegate_with(|n| {
                *n += 100;
                delegate_thread()
            })
            .unwrap();
        let release = open_when_left(&rt, 0, gate.opener());
        assert!(
            fut.wait().unwrap(),
            "retracted a set a delegate nested into"
        );
        release.join().unwrap();
        rt.end_isolation().unwrap();
        assert_eq!(s.call(|n| *n).unwrap(), 111);
        let st = rt.stats();
        assert_eq!((st.inline_executions, st.epochs_audited), (0, 1));
        assert_eq!(rt.test_gates_remaining(), Some(0), "no retraction tried");
    });
}

/// A set whose head ran on the delegate and whose tail the program thread
/// retracted keeps its program order in a reducible that does not
/// commute: the program context's view of the epoch folds after the
/// delegates'.
#[test]
fn a_retracted_tail_keeps_its_order_in_a_reducible() {
    watchdog(|| {
        let rt = runtime(Runtime::builder());
        let (b, s): (Obj, Obj) = (Writable::new(&rt, 0), Writable::new(&rt, 0));
        let out: ReducibleVec<u64> = ReducibleVec::new(&rt);
        rt.begin_isolation().unwrap();
        let (o, ran) = (out.clone(), Arc::new(AtomicBool::new(false)));
        let r = Arc::clone(&ran);
        s.delegate(move |_| {
            o.push(1).unwrap();
            r.store(true, Ordering::Release);
        })
        .unwrap();
        until(&ran);
        let gate = Gate::new();
        hold(&b, &gate, || {});
        let (o, opener) = (out.clone(), gate.opener());
        let fut = s
            .delegate_with(move |_| {
                o.push(2).unwrap();
                drop(opener);
                delegate_thread()
            })
            .unwrap();
        assert!(!fut.wait().unwrap(), "ran on the delegate");
        rt.end_isolation().unwrap();
        assert_eq!(out.take().unwrap(), [1, 2]);
    });
}

/// `wait_all` over four kinds of future in one batch takes them in
/// submission order: a memo hit (born ready), an inline execution (a set
/// the program thread retracted earlier in the epoch, so born ready too),
/// one the delegate settled before the call, and one still pending —
/// behind a held delegate, which the wait retracts and runs.
#[test]
fn wait_all_takes_four_kinds_of_future_in_order() {
    watchdog(|| {
        let rt = runtime(Runtime::builder().memo_capacity(64));
        let [b, m, t, r, q]: [Obj; 5] = [0, 1, 2, 3, 4].map(|v| Writable::new(&rt, v));
        // An earlier epoch publishes `m`'s memo entry.
        rt.begin_isolation().unwrap();
        assert_eq!(
            m.delegate_memo(7, |n| *n + 100).unwrap().wait().unwrap(),
            101
        );
        rt.end_isolation().unwrap();

        rt.begin_isolation().unwrap();
        // `t` is retracted at a wait, and is the program thread's for the
        // rest of the epoch.
        let gate = Gate::new();
        hold(&b, &gate, || {});
        let opener = gate.opener();
        let took = t.delegate_with(move |_| {
            drop(opener);
            delegate_thread()
        });
        assert!(!took.unwrap().wait().unwrap(), "ran on the delegate");
        let ready = r.delegate_with(|n| *n * 3).unwrap();
        while !ready.is_ready() {
            std::hint::spin_loop();
        }
        let hit = m.delegate_memo(7, |n| *n + 100).unwrap();
        assert!(hit.was_memo_hit());
        let inline = t.delegate_with(|n| *n + 1).unwrap();
        assert!(inline.was_inline() && inline.is_ready());
        let gate = Gate::new();
        hold(&b, &gate, || {});
        let opener = gate.opener();
        let pending = q
            .delegate_with(move |n| {
                drop(opener);
                *n * 5
            })
            .unwrap();
        assert!(!pending.is_ready());
        let got = SsFuture::wait_all(vec![hit, inline, ready, pending]).unwrap();
        assert_eq!(got, [101, 3, 9, 20]);
        rt.end_isolation().unwrap();
        let st = rt.stats();
        assert_eq!((st.memo_hits, st.futures_resolved), (1, 5));
    });
}
