//! Deterministic-schedule proofs for the op-granularity steal handshake,
//! and for the ring's claim/retract race.
//!
//! The quiescence handshake between an owner draining a started set and a
//! thief eyeing its queued tail has three outcomes, all
//! timing-dependent under free-running threads:
//!
//! 1. **Owner wins** — the thief scans while an operation of the set is
//!    in flight; the handshake fails (`Stats::quiesce_fail`) and the tail
//!    stays put.
//! 2. **Thief wins** — the owner finishes its prefix, the set goes
//!    quiescent, and the thief migrates the entire queued tail
//!    (`Stats::op_steals`).
//! 3. **Revalidation** — the set is quiescent at scan time but the owner
//!    re-pops before the thief's shard-locked migration; the second
//!    quiescence check (under the locks) catches it and skips the set.
//!
//! The scripted-interleaving harness (`RuntimeBuilder::test_schedule`)
//! pins each branch by name: delegate threads block at named scheduling
//! points ("poll@0", "scan@1", ...) until the script reaches them, so
//! each test executes exactly the interleaving its branch requires —
//! no sleeps, no retries, no flakes. A script that could not be followed
//! leaves entries behind, which every test asserts against via
//! `test_gates_remaining`.
//!
//! Setup shared by all three: one serialization set with a batch of three
//! operations, on delegate 0 by static assignment (the runtime's first
//! object has sequence number 0, and 0 mod 2 is 0); delegate 1 is the
//! thief. Three queued operations clear the steal bar (an imbalance of
//! more than one operation), so the thief reaches its "scan" gate
//! deterministically.
//!
//! The claim/retract race is the ring transport's: at the barrier the
//! program thread retracts fresh runs from the unclaimed end of its
//! delegate's ring while the delegate claims a batch from the other end.
//! `claim@0` brackets a whole batch claim and `retract@p` a whole hold, so
//! a script orders one before the other; the Dekker interleavings inside
//! them are the queue's own unit tests (`ss_queue`'s `spsc` module).
//!
//! A retraction may also take a *started* set's tail once every earlier
//! operation of the set has run, which the delegate publishes as its
//! ring's retired cursor. `retire@0` brackets a retirement, so a script
//! orders it before or after the retraction's read of the cursor: the
//! tail goes in the first order and stays in the second.
//!
//! A future's wait and its operation's send are a Dekker pair on the
//! completion slot (`ss_queue::slab`): the waiter registers, fences and
//! re-checks; the sender stores, fences and reads the registration. Two
//! scripts order the send before the registration and after the park.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use prometheus_rs::prelude::*;

fn fold(s: u64, x: u64) -> u64 {
    s.wrapping_mul(31).wrapping_add(x)
}

/// Expected sequential result of the three-op batch.
fn expected() -> u64 {
    (1..=3u64).fold(0, fold)
}

fn harness(script: &[&str]) -> Runtime {
    Runtime::builder()
        .delegate_threads(2)
        .stealing(true)
        .test_schedule(script.iter().copied())
        .build()
        .unwrap()
}

fn run_batch(rt: &Runtime) -> u64 {
    let w: Writable<u64, SequenceSerializer> = Writable::new(rt, 0);
    rt.isolated(|| {
        w.delegate_iter((1..=3u64).map(|x| move |s: &mut u64| *s = fold(*s, x)))
            .unwrap();
    })
    .unwrap();
    w.call(|s| *s).unwrap()
}

/// Branch 1: the thief's scan lands while the owner's first operation is
/// complete-but-unfinished ("ran@0" parks the owner after the op ran but
/// *before* `finish` settles the in-flight count). The set must classify
/// as busy: the handshake fails, nothing migrates at that point, and the
/// failure is counted.
#[test]
fn owner_wins_quiescence_race_when_op_in_flight() {
    let rt = harness(&["poll@0", "popped@0", "scan@1", "nosteal@1", "ran@0"]);
    let got = run_batch(&rt);
    let stats = rt.stats();
    assert_eq!(got, expected());
    assert_eq!(
        rt.test_gates_remaining(),
        Some(0),
        "script not fully consumed: the forced interleaving was not followed"
    );
    assert!(
        stats.quiesce_fail >= 1,
        "thief scanned a busy set but no failed handshake was counted: {stats:?}"
    );
    rt.shutdown().unwrap();
}

/// Branch 2: the owner fully settles its first operation ("done@0" fires
/// after `finish`), then parks before its next pop; the thief's scan now
/// sees a quiescent started set and must migrate its whole queued tail as
/// an op-granularity steal.
#[test]
fn thief_wins_quiescence_race_after_owner_settles() {
    let rt = harness(&[
        "poll@0", "popped@0", "done@0", "scan@1", "stole@1", "poll@0",
    ]);
    let got = run_batch(&rt);
    let stats = rt.stats();
    assert_eq!(got, expected());
    assert_eq!(
        rt.test_gates_remaining(),
        Some(0),
        "script not fully consumed: the forced interleaving was not followed"
    );
    assert!(
        stats.op_steals >= 1,
        "quiescent tail was not op-stolen: {stats:?}"
    );
    rt.shutdown().unwrap();
}

/// Branch 3: the set is quiescent when the thief scans, but the owner
/// re-pops the next operation while the thief is parked between scan and
/// migration ("migrate@1"). The second quiescence check under the shard
/// locks must catch the re-pop and skip the set whole — the advisory scan
/// alone is never trusted.
#[test]
fn migration_revalidates_quiescence_under_the_locks() {
    // Op 0's own "ran@0"/"done@0" hits are scripted explicitly: the final
    // "ran@0" (parking the owner mid-op-1) would otherwise capture op 0's
    // pass through the same gate. The owner's re-pop is ordered after
    // "scanned@1" (the advisory scan *completed*), not "scan@1" (which
    // precedes the scan and would race it); the closing "nosteal@1" fires
    // only after the thief counted the failed handshake, so by the time
    // the owner's final "ran@0" — and hence the epoch barrier and the
    // stats read below — can proceed, the counters are settled.
    let rt = harness(&[
        "poll@0",
        "popped@0",
        "ran@0",
        "done@0",
        "scan@1",
        "scanned@1",
        "poll@0",
        "popped@0",
        "migrate@1",
        "nosteal@1",
        "ran@0",
    ]);
    let got = run_batch(&rt);
    let stats = rt.stats();
    assert_eq!(got, expected());
    assert_eq!(
        rt.test_gates_remaining(),
        Some(0),
        "script not fully consumed: the forced interleaving was not followed"
    );
    assert!(
        stats.quiesce_fail >= 1,
        "re-popped set passed the shard-locked revalidation: {stats:?}"
    );
    rt.shutdown().unwrap();
}

// ----------------------------------------------------------------------
// the claim/retract race on the ring

/// Fresh single-operation sets pushed behind the blocker.
const FRESH: usize = 8;

type Obj = Writable<u64, SequenceSerializer>;

fn on_delegate() -> bool {
    std::thread::current()
        .name()
        .is_some_and(|n| n.starts_with("ss-delegate-"))
}

/// One delegate on a ring, held in a blocker — claimed alone, the first
/// two `claim@0` hits of every script — while [`FRESH`] fresh sets are
/// pushed behind it, then released at the barrier. Set 1's operation
/// holds its delegate until set `1 + release`'s has run. Returns, per set,
/// whether it ran on the delegate, and the runtime.
fn race(script: &[&str], release: usize) -> (Vec<bool>, Runtime) {
    let rt = Runtime::builder()
        .delegate_threads(1)
        .test_schedule(script.iter().copied())
        .build()
        .unwrap();
    let blocker: Obj = Writable::new(&rt, 0);
    let sets: Vec<Obj> = (0..FRESH).map(|_| Writable::new(&rt, 0)).collect();
    let ran_on: Arc<Mutex<Vec<Option<bool>>>> = Arc::new(Mutex::new(vec![None; FRESH]));
    let [started, gate, released] = [(); 3].map(|()| Arc::new(AtomicBool::new(false)));
    rt.begin_isolation().unwrap();
    let (s, g) = (Arc::clone(&started), Arc::clone(&gate));
    blocker
        .delegate(move |_| {
            s.store(true, Ordering::Release);
            while !g.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
        })
        .unwrap();
    while !started.load(Ordering::Acquire) {
        std::hint::spin_loop();
    }
    for (k, w) in sets.iter().enumerate() {
        let (log, released) = (Arc::clone(&ran_on), Arc::clone(&released));
        w.delegate(move |n| {
            *n += 1;
            log.lock().unwrap()[k] = Some(on_delegate());
            if k == release {
                released.store(true, Ordering::Release);
            }
            while k == 0 && !released.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
        })
        .unwrap();
    }
    gate.store(true, Ordering::Release);
    rt.end_isolation().unwrap();
    assert!(sets.iter().all(|w| w.call(|n| *n).unwrap() == 1));
    assert_eq!(
        rt.test_gates_remaining(),
        Some(0),
        "script not fully consumed: the forced interleaving was not followed"
    );
    let ran_on = ran_on
        .lock()
        .unwrap()
        .iter()
        .map(|r| r.expect("ran"))
        .collect();
    (ran_on, rt)
}

/// The claim wins: released from its blocker, the delegate claims half of
/// the eight it sees — sets 1 to 4 — before the barrier holds the ring.
/// The retraction starts at the claim and takes half of what is left, the
/// last two sets. Set 1's operation stalls its delegate until the last set
/// has run, so nothing else is claimed before the retraction.
#[test]
fn the_claim_wins_and_the_retraction_takes_past_it() {
    let script = [
        "claim@0",
        "claim@0",
        "claim@0",
        "claim@0",
        "retract@p",
        "retract@p",
    ];
    let (on_delegate, rt) = race(&script, FRESH - 1);
    assert!(on_delegate[..4].iter().all(|&d| d), "{on_delegate:?}");
    assert!(on_delegate[6..].iter().all(|&d| !d), "{on_delegate:?}");
    assert!(rt.stats().inline_executions >= 2);
}

/// The retraction wins: the delegate's claim waits until the barrier has
/// held the ring, taken the last four sets and released it; the claim
/// then covers half of what is left from the front, sets 1 and 2. Set 1
/// stalls its delegate until the next retraction, ordered after that
/// claim, has taken set 4.
#[test]
fn the_retraction_wins_and_the_claim_takes_what_is_left() {
    let script = [
        "claim@0",
        "claim@0",
        "retract@p",
        "retract@p",
        "claim@0",
        "claim@0",
        "retract@p",
        "retract@p",
    ];
    let (on_delegate, rt) = race(&script, 3);
    assert!(on_delegate[..2].iter().all(|&d| d), "{on_delegate:?}");
    assert!(on_delegate[3..].iter().all(|&d| !d), "{on_delegate:?}");
    assert!(rt.stats().inline_executions >= 5);
}

// ----------------------------------------------------------------------
// the retirement/retraction race on the ring

/// Set `s`'s first operation runs on the one delegate; a blocker and
/// `s`'s second operation are pushed behind it, and the program thread
/// waits on the second, retracting once its spin phase is spent. The
/// blocker lets go when the second operation runs, or once the script is
/// consumed. Returns whether the second ran on the delegate, and the
/// runtime.
fn retire_race(script: &[&str]) -> (bool, Runtime) {
    let rt = Runtime::builder()
        .delegate_threads(1)
        .audit(AuditMode::Full)
        .test_schedule(script.iter().copied())
        .build()
        .unwrap();
    let (blocker, s): (Obj, Obj) = (Writable::new(&rt, 0), Writable::new(&rt, 0));
    let [ran, gate] = [(); 2].map(|()| Arc::new(AtomicBool::new(false)));
    rt.begin_isolation().unwrap();
    let r = Arc::clone(&ran);
    s.delegate(move |n| {
        *n += 1;
        r.store(true, Ordering::Release);
    })
    .unwrap();
    while !ran.load(Ordering::Acquire) {
        std::hint::spin_loop();
    }
    let g = Arc::clone(&gate);
    blocker
        .delegate(move |_| {
            while !g.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
        })
        .unwrap();
    let g = Arc::clone(&gate);
    let second = s
        .delegate_with(move |n| {
            *n += 1;
            g.store(true, Ordering::Release);
            on_delegate()
        })
        .unwrap();
    let (rt2, g) = (rt.clone(), Arc::clone(&gate));
    let release = std::thread::spawn(move || {
        while rt2.test_gates_remaining() != Some(0) {
            std::thread::yield_now();
        }
        g.store(true, Ordering::Release);
    });
    let on = second.wait().unwrap();
    release.join().unwrap();
    // The auditor certifies the epoch either way.
    rt.end_isolation().unwrap();
    assert_eq!(s.call(|n| *n).unwrap(), 2);
    assert_eq!(
        rt.test_gates_remaining(),
        Some(0),
        "script not fully consumed: the forced interleaving was not followed"
    );
    (on, rt)
}

/// The retirement lands before the retraction reads the cursor: the first
/// operation has run, so the second is a quiescent tail and the wait
/// takes it.
#[test]
fn a_retirement_before_the_read_lets_the_tail_go() {
    let script = ["retire@0", "retire@0", "retract@p", "retract@p"];
    let (on_delegate, rt) = retire_race(&script);
    assert!(!on_delegate);
    assert_eq!(rt.stats().inline_executions, 1);
}

/// The retirement waits until the retraction has read the cursor and
/// released the ring: the read sees the first operation unretired, so
/// the tail stays on the delegate.
#[test]
fn a_retirement_after_the_read_holds_the_tail_back() {
    let script = ["retract@p", "retract@p", "retire@0", "retire@0"];
    let (on_delegate, rt) = retire_race(&script);
    assert!(on_delegate);
    assert_eq!(rt.stats().inline_executions, 0);
}

/// The send-vs-park pair of a future's completion slot: the root program
/// thread waits on a future whose operation delegate 0 runs (the steal
/// transport, so no retraction takes it back). `await@p` is hit once the
/// wait's spin phase is spent and `register@p` just before the waiter
/// registers on the slot; `send@0` and `sent@0` bracket the send. The
/// wait must return the value in both orders without a timer.
fn send_race(script: &[&str]) {
    let rt = harness(script);
    let w: Writable<u64, SequenceSerializer> = Writable::new(&rt, 41);
    rt.begin_isolation().unwrap();
    let fut = w
        .delegate_with(|n| {
            *n += 1;
            *n
        })
        .unwrap();
    assert_eq!(fut.wait().unwrap(), 42);
    rt.end_isolation().unwrap();
    assert_eq!(
        rt.test_gates_remaining(),
        Some(0),
        "script not fully consumed: the forced interleaving was not followed"
    );
}

/// The waiter registers and parks before the send: the send's fence-and-
/// read finds the registration and the sleeping flag, and wakes it.
#[test]
fn a_waiter_parked_before_the_send_is_woken_by_it() {
    send_race(&[
        "await@p",
        "register@p",
        "sleep@p",
        "send@0",
        "wake@p",
        "sent@0",
    ]);
}

/// The send lands between the waiter's spin phase and its registration:
/// the send reads no waiter, and the waiter's re-check after registering
/// sees the value, so it never parks.
#[test]
fn a_send_before_the_registration_is_seen_by_the_recheck() {
    send_race(&["await@p", "send@0", "sent@0", "register@p"]);
}
