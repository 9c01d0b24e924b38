//! Exact wake-ups: every runtime wait parks with no timeout, so a notify
//! that goes missing is a hang, not a millisecond of latency.
//!
//! The first test measures the one wake-up a timer used to cover: a
//! delegate blocked in a help-first future wait must hear a push to its
//! own queue. The other four script the missed-wake-up window of each
//! waiter/notifier pairing (`docs/ARCHITECTURE.md`, "Waiting and
//! waking"): the waiter raises its sleeping flag and re-checks its
//! predicate, then blocks at its `sleep@…` gate — before it parks — until
//! the notifier has published and passed its `wake@…` gate. The waiter
//! then parks *after* the notify and must still complete. A watchdog
//! fails each test after 5 s instead of letting a lost wake-up hang the
//! suite.
//!
//! Scripts cannot see whether a waiter has reached its gate, so each
//! test first sleeps long enough for the waiter to get there; a script
//! that was not followed leaves entries behind, which every test
//! asserts against.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use prometheus_rs::prelude::*;

/// How long a scenario may take before the test calls it hung.
const WATCHDOG: Duration = Duration::from_secs(5);
/// Long enough for an idle thread to finish its spin-then-yield ladder
/// and reach its `sleep@…` gate.
const SETTLE: Duration = Duration::from_millis(200);

/// Runs `scenario` on its own thread (which becomes the runtime's program
/// thread) and fails if it has not finished within [`WATCHDOG`].
fn watchdog<T: Send + 'static>(scenario: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(scenario());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(out) => out,
        Err(RecvTimeoutError::Timeout) => panic!("no progress in {WATCHDOG:?}: a wake-up was lost"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(handle.join().expect_err("scenario ended without a result"))
        }
    }
}

fn assert_followed(rt: &Runtime) {
    assert_eq!(
        rt.test_gates_remaining(),
        Some(0),
        "script not fully consumed: the forced interleaving was not followed"
    );
}

/// Spins until `flag` is raised.
fn until(flag: &AtomicBool) {
    while !flag.load(Ordering::Acquire) {
        std::hint::spin_loop();
    }
}

/// Op A on `x` (delegate 0) waits on op B on `y` (delegate 1), which waits
/// on op C on `z` — queued behind A at delegate 0. Delegate 0 can only
/// finish the chain by helping C, so it must wake when C lands in its
/// queue, not when a timer fires. Returns A's future, and a flag A raises
/// when it starts.
fn chain(
    rt: &Runtime,
    [x, y, z]: &[Writable<u64, SequenceSerializer>; 3],
    b_delay: Duration,
) -> (SsFuture<u64>, Arc<AtomicBool>) {
    let (rt_a, rt_b, y, z) = (rt.clone(), rt.clone(), y.clone(), z.clone());
    let started = Arc::new(AtomicBool::new(false));
    let a_started = Arc::clone(&started);
    let a = x
        .delegate_with(move |_| {
            a_started.store(true, Ordering::Release);
            let b = rt_a
                .delegate_scope(|cx| {
                    cx.delegate_with(&y, move |_| {
                        std::thread::sleep(b_delay);
                        let c = rt_b
                            .delegate_scope(|cx| cx.delegate_with(&z, |n| *n + 7))
                            .unwrap()
                            .unwrap();
                        c.wait().unwrap()
                    })
                })
                .unwrap()
                .unwrap();
            b.wait().unwrap()
        })
        .unwrap();
    (a, started)
}

/// Three sequence-serialized objects: instances 0, 1, 2, which static
/// assignment over two delegates sends to delegates 0, 1, 0.
fn objects(rt: &Runtime) -> [Writable<u64, SequenceSerializer>; 3] {
    std::array::from_fn(|_| Writable::new(rt, 0))
}

#[test]
fn a_help_first_chain_wakes_on_its_own_queue() {
    let median = watchdog(|| {
        let rt = Runtime::builder().delegate_threads(2).build().unwrap();
        let xyz = objects(&rt);
        let mut times: Vec<Duration> = (0..200)
            .map(|_| {
                rt.begin_isolation().unwrap();
                let t0 = Instant::now();
                assert_eq!(chain(&rt, &xyz, Duration::ZERO).0.wait().unwrap(), 7);
                let took = t0.elapsed();
                rt.end_isolation().unwrap();
                took
            })
            .collect();
        times.sort();
        times[times.len() / 2]
    });
    assert!(
        median < Duration::from_micros(250),
        "median chain {median:?}: the helper slept through the push to its queue"
    );
}

/// Delegate idle vs ring push: the delegate's last re-check found its
/// ring empty; the push and its notify land before it parks.
#[test]
fn an_idle_delegate_hears_a_ring_push_before_it_parks() {
    watchdog(|| {
        let rt = Runtime::builder()
            .delegate_threads(1)
            .test_schedule(["wake@0", "sleep@0"])
            .build()
            .unwrap();
        let w: Writable<u64> = Writable::new(&rt, 0);
        std::thread::sleep(SETTLE);
        // The barrier starts only once the woken delegate runs the
        // operation, so it cannot retract it from the ring instead.
        let ran = Arc::new(AtomicBool::new(false));
        let r = Arc::clone(&ran);
        rt.isolated(|| {
            w.delegate(move |n| {
                *n += 1;
                r.store(true, Ordering::Release);
            })
            .unwrap();
            until(&ran);
        })
        .unwrap();
        assert_eq!(w.call(|n| *n).unwrap(), 1);
        assert_followed(&rt);
    });
}

/// Root barrier vs token signal: the program thread's last re-check
/// found the token pending; the delegate signals it before the program
/// thread parks.
#[test]
fn the_root_barrier_hears_a_token_signal_before_it_parks() {
    watchdog(|| {
        let rt = Runtime::builder()
            .delegate_threads(1)
            .test_schedule(["wake@p", "sleep@p"])
            .build()
            .unwrap();
        let w: Writable<u64> = Writable::new(&rt, 0);
        rt.begin_isolation().unwrap();
        // Keeps the token behind this operation until the program thread
        // has reached its gate. The operation is running before the
        // barrier starts, so the barrier cannot retract it and must send
        // the token.
        let started = Arc::new(AtomicBool::new(false));
        let s = Arc::clone(&started);
        w.delegate(move |n| {
            s.store(true, Ordering::Release);
            std::thread::sleep(SETTLE);
            *n += 1;
        })
        .unwrap();
        until(&started);
        rt.end_isolation().unwrap();
        assert_eq!(w.call(|n| *n).unwrap(), 1);
        assert_followed(&rt);
    });
}

/// Help-first future wait vs a push to the waiter's own queue: delegate
/// 0, waiting on B's cell, has re-checked "cell settled or own queue
/// non-empty"; C lands in its queue before it parks. The first
/// `wake@0`/`sleep@0` pair is delegate 0 going idle before op A arrives.
#[test]
fn a_help_first_wait_hears_a_push_to_its_own_queue_before_it_parks() {
    watchdog(|| {
        let rt = Runtime::builder()
            .delegate_threads(2)
            .test_schedule(["wake@0", "sleep@0", "wake@0", "sleep@0"])
            .build()
            .unwrap();
        let xyz = objects(&rt);
        std::thread::sleep(SETTLE);
        rt.begin_isolation().unwrap();
        // A is running on delegate 0 before the program thread waits on
        // it, so the wait cannot retract it.
        let (a, started) = chain(&rt, &xyz, SETTLE);
        until(&started);
        assert_eq!(a.wait().unwrap(), 7);
        rt.end_isolation().unwrap();
        assert_followed(&rt);
    });
}

/// Parked thief vs a push past the bar: delegate 1's last steal attempt
/// found nothing; a batch lands on delegate 0 — held at its `poll@0` gate
/// so it cannot drain the batch itself — and the push wakes delegate 1,
/// whose steal must land. Delegate 0 stays held until delegate 1 has run
/// all four of the set's operations (`done@1`, the last one submitted
/// after the batch), so delegate 0's own idle steal finds nothing to take
/// back — not even a quiescent tail. The epoch stays open
/// until the set's last operation has run: the barrier notifies every
/// delegate, and must not be what wakes the thief.
#[test]
fn a_parked_thief_hears_a_push_past_the_bar_and_steals() {
    watchdog(|| {
        let rt = Runtime::builder()
            .delegate_threads(2)
            .stealing(true)
            .test_schedule([
                "wake@1", "sleep@1", "stole@1", "done@1", "done@1", "done@1", "done@1", "poll@0",
            ])
            .build()
            .unwrap();
        let w: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
        std::thread::sleep(SETTLE);
        rt.begin_isolation().unwrap();
        w.delegate_iter((1..=3u64).map(|k| move |n: &mut u64| *n = *n * 10 + k))
            .unwrap();
        assert_eq!(w.delegate_with(|n| *n).unwrap().wait().unwrap(), 123);
        rt.end_isolation().unwrap();
        assert_followed(&rt);
        let stats = rt.stats();
        assert!(
            stats.steals >= 1,
            "the woken thief did not steal: {stats:?}"
        );
        assert_eq!(stats.delegate_executed[1], 4, "{stats:?}");
    });
}
