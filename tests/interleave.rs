//! Deterministic-schedule proofs for the op-granularity steal handshake.
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
