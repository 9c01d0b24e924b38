//! Repeat delegations: the program thread's lock-free branch of
//! `prepare`, and the object keep-alive that lets a queued operation hold
//! a plain pointer to its object.
//!
//! A program-thread delegation on an object the thread already tagged
//! this epoch, with operations of it still outstanding, commits without
//! the object's state mutex. These scenarios keep an object's operations
//! outstanding — queued behind a blocker that holds the one delegate, or
//! running — so that every delegation after the first is such a repeat,
//! and check what the locked path guaranteed: the §3.3 set check, the
//! `accessing` rejection, a nested delegation that never hands the value
//! to the internal serializer beside a running operation, and an object
//! whose last handle goes before its operations ran.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use prometheus_rs::prelude::*;

/// How long a scenario may take before the test calls it hung: the race
/// scenario spends the deterministic-schedule harness's 2 s gate timeout.
const WATCHDOG: Duration = Duration::from_secs(20);

/// Operations queued behind a blocker.
const OPS: u32 = 16;

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

fn runtime() -> Runtime {
    Runtime::builder().delegate_threads(1).build().unwrap()
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

impl Drop for Gate {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Holds the one delegate inside an operation on `b` until the returned
/// gate drops. Returns once the blocker runs: its claim covered it alone,
/// so whatever is pushed from here on stays queued until the gate opens.
fn hold(b: &Obj) -> Gate {
    let (started, open) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let (s, o) = (Arc::clone(&started), Arc::clone(&open));
    b.delegate(move |_| {
        s.store(true, Ordering::Release);
        until(&o);
    })
    .unwrap();
    until(&started);
    Gate(open)
}

/// A value that counts its drops and records, at its drop, how many of
/// its operations had run.
struct Counted {
    ran: u64,
    drops: Arc<AtomicU64>,
    ran_at_drop: Arc<AtomicU64>,
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.ran_at_drop.store(self.ran, Ordering::SeqCst);
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

/// The last handle goes while its operations are queued: the queued
/// operations hold no reference, so the object must stay with its domain
/// until the barrier — and its value must drop there, once, after them.
#[test]
fn an_object_whose_last_handle_went_mid_epoch_outlives_its_operations() {
    watchdog(|| {
        let rt = runtime();
        let b: Obj = Writable::new(&rt, 0);
        let (drops, ran_at_drop) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let w: Writable<Counted, SequenceSerializer> = Writable::new(
            &rt,
            Counted {
                ran: 0,
                drops: Arc::clone(&drops),
                ran_at_drop: Arc::clone(&ran_at_drop),
            },
        );
        rt.begin_isolation().unwrap();
        let gate = hold(&b);
        for _ in 0..OPS {
            w.delegate(|c| c.ran += 1).unwrap();
        }
        assert_eq!(w.pending_operations(), OPS);
        drop(w);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "the value went with its last handle, its operations still queued"
        );
        drop(gate);
        rt.end_isolation().unwrap();
        assert_eq!(drops.load(Ordering::SeqCst), 1, "dropped exactly once");
        assert_eq!(ran_at_drop.load(Ordering::SeqCst), OPS as u64);
    });
}

/// What the internal serializer of the raced object watches.
struct Probe {
    /// Raised by every operation on the object while it runs.
    busy: Arc<AtomicBool>,
    /// Set around the nested delegation: only then does the serializer
    /// linger, watching for a running operation.
    armed: Arc<AtomicBool>,
    /// Serializer calls that saw an operation running beside them.
    overlaps: Arc<AtomicU64>,
    ran: u64,
}

/// How long an armed serializer call watches for a running operation:
/// past the gate timeout that holds the program thread.
const WATCH: Duration = Duration::from_secs(4);

fn watch(p: &Probe) -> u64 {
    if p.armed.load(Ordering::SeqCst) {
        let start = Instant::now();
        while start.elapsed() < WATCH {
            if p.busy.load(Ordering::SeqCst) {
                p.overlaps.fetch_add(1, Ordering::SeqCst);
                break;
            }
            std::hint::spin_loop();
        }
    }
    0 // one set, so every check is consistent
}

/// An operation on the raced object: busy for `hold`.
fn busy_for(hold: Duration) -> impl FnOnce(&mut Probe) + Send + 'static {
    move |p| {
        p.busy.store(true, Ordering::SeqCst);
        std::thread::sleep(hold);
        p.ran += 1;
        p.busy.store(false, Ordering::SeqCst);
    }
}

/// A nested delegation reads the object idle in the window between the
/// program thread's repeat read of `pending` and its raise — held open by
/// the `repeat@p` gate, which waits behind a gate nobody reaches. The
/// nested `prepare` must not hand the value to the internal serializer
/// there: the program thread's stamp is current, so its zero proves
/// nothing, and the repeat delegation's operation would run beside the
/// serializer's `&T`.
#[test]
fn a_nested_delegation_never_serializes_beside_a_running_operation() {
    watchdog(|| {
        let rt = Runtime::builder()
            .delegate_threads(2)
            .test_schedule(["unreached@t", "repeat@p"])
            .build()
            .unwrap();
        let (busy, armed, overlaps) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicU64::new(0)),
        );
        let probe = Probe {
            busy: Arc::clone(&busy),
            armed: Arc::clone(&armed),
            overlaps: Arc::clone(&overlaps),
            ran: 0,
        };
        let w = Writable::with_serializer(&rt, probe, FnSerializer::new(watch));
        let parent: Obj = Writable::new(&rt, 0);
        rt.begin_isolation().unwrap();
        // The first delegation of the epoch: locked, stamps the object.
        let first_done = Arc::new(AtomicBool::new(false));
        let f = Arc::clone(&first_done);
        w.delegate(move |p| {
            busy_for(Duration::from_millis(50))(p);
            f.store(true, Ordering::SeqCst);
        })
        .unwrap();
        // A parent on the other delegate (set 1): once the first operation
        // has settled, a nested delegation on `w` with the serializer armed.
        let (rt2, w2, a) = (rt.clone(), w.clone(), Arc::clone(&armed));
        let nested = parent
            .delegate_in_with(1u64, move |_| {
                until(&first_done);
                std::thread::sleep(Duration::from_millis(20));
                a.store(true, Ordering::SeqCst);
                let out = rt2.delegate_scope(|cx| cx.delegate(&w2, busy_for(Duration::ZERO)));
                a.store(false, Ordering::SeqCst);
                out
            })
            .unwrap();
        // A repeat: the first operation is outstanding, so this takes the
        // lock-free branch, and the gate holds it before its raise.
        w.delegate(busy_for(Duration::from_millis(20))).unwrap();
        nested.wait().unwrap().unwrap().unwrap();
        rt.end_isolation().unwrap();
        assert_eq!(
            overlaps.load(Ordering::SeqCst),
            0,
            "the internal serializer ran beside an operation of its object"
        );
        assert_eq!(w.call(|p| p.ran).unwrap(), 3);
    });
}

/// After repeat delegations, a delegation from inside the object's own
/// `call_mut` is still rejected: `access` clears the stamp, so it takes
/// the locked path and sees `accessing`.
#[test]
fn a_delegation_inside_call_mut_after_repeats_is_rejected() {
    watchdog(|| {
        let rt = runtime();
        let (b, w): (Obj, Obj) = (Writable::new(&rt, 0), Writable::new(&rt, 0));
        rt.begin_isolation().unwrap();
        let gate = hold(&b);
        for _ in 0..OPS {
            w.delegate(|n| *n += 1).unwrap();
        }
        drop(gate);
        let inside = w
            .call_mut(|n| {
                *n += 100;
                [w.delegate(|n| *n += 1).err(), w.delegate_with(|n| *n).err()]
            })
            .unwrap();
        for err in inside {
            assert!(
                matches!(err, Some(SsError::AccessInProgress { .. })),
                "{err:?}"
            );
        }
        // And after the access, delegation resumes.
        w.delegate(|n| *n += 1).unwrap();
        rt.end_isolation().unwrap();
        assert_eq!(w.call(|n| *n).unwrap(), OPS as u64 + 101);
    });
}

/// A repeat delegation in another set than the epoch's tag is rejected
/// on the lock-free branch, as on the locked one (§3.3), and commits
/// nothing.
#[test]
fn a_repeat_in_another_set_is_inconsistent() {
    watchdog(|| {
        let rt = runtime();
        let (b, w): (Obj, Obj) = (Writable::new(&rt, 0), Writable::new(&rt, 0));
        rt.begin_isolation().unwrap();
        let gate = hold(&b);
        for _ in 0..OPS {
            w.delegate_in(1u64, |n| *n += 1).unwrap();
        }
        let expect = SsError::InconsistentSerializer {
            instance: w.instance(),
            tagged: SsId(1),
            got: SsId(2),
        };
        assert_eq!(w.delegate_in(2u64, |n| *n += 1), Err(expect.clone()));
        assert_eq!(w.delegate_in_with(2u64, |n| *n).err(), Some(expect.clone()));
        assert_eq!(
            w.delegate_iter_in(2u64, [|n: &mut u64| *n += 1]),
            Err(expect)
        );
        assert_eq!(w.pending_operations(), OPS, "a rejected repeat raised");
        drop(gate);
        rt.end_isolation().unwrap();
        assert_eq!(w.call(|n| *n).unwrap(), OPS as u64);
    });
}
