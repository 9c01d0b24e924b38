//! The memoization layer, attacked from both sides.
//!
//! **Transparency (no observable difference):** a proptest battery builds a
//! fixed batch of pure queries and re-submits it across several isolation
//! epochs, mutating the underlying objects between rounds at a generated
//! rate (empty rounds are clean re-submissions — the 100%-hit case; dense
//! rounds force invalidation every epoch). Each program runs twice — once
//! through `delegate_memo` and once through plain `delegate_with` — under
//! every `StealPolicy × AuditMode` cell. Results must be
//! bit-identical to each other and to a sequential interpreter: a memo hit
//! that serves anything but exactly what re-execution would have produced
//! is a correctness bug, not a performance bug.
//!
//! **Teeth (the auditor catches a lying cache):** with the `chaos` feature,
//! the `stale_memo_serve` knob makes the runtime serve memo entries whose
//! generation no longer matches the set's live generation. The auditor
//! must report [`AuditViolation::StaleMemoServe`] naming both generations.
//! Run with `cargo test --features chaos --test memo_oracle`.

use prometheus_rs::prelude::*;
use proptest::prelude::*;

/// Mutation applied to object state by non-memoized delegations.
fn fold(s: u64, x: u64) -> u64 {
    s.wrapping_mul(31).wrapping_add(x)
}

/// The pure query memoized ops compute: a function of the object's state
/// and the submitted input, with no side effects. The fingerprint passed
/// to `delegate_memo` covers `x`; the state component is covered by the
/// generation-invalidation protocol (every mutation of the set bumps its
/// generation, so a hit implies the state is unchanged since publish).
fn query(s: u64, x: u64) -> u64 {
    s.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ x
}

fn steal_policy_of(idx: usize) -> StealPolicy {
    match idx % 4 {
        0 => StealPolicy::Off,
        1 => StealPolicy::WhenIdle,
        2 => StealPolicy::Threshold(2),
        _ => StealPolicy::CostAware,
    }
}

fn audit_mode_of(idx: usize) -> AuditMode {
    match idx % 3 {
        0 => AuditMode::Off,
        1 => AuditMode::Full,
        _ => AuditMode::Sample(2),
    }
}

/// Sequential interpreter: the semantics both runtime arms must reproduce.
/// Each round applies its mutations, then evaluates every query against
/// the current state.
fn interpret(
    k: usize,
    queries: &[(usize, u64)],
    rounds: &[Vec<(usize, u64)>],
) -> (Vec<u64>, Vec<u64>) {
    let mut objects = vec![0u64; k];
    let mut log = Vec::new();
    for muts in rounds {
        for (obj, x) in muts {
            objects[*obj] = fold(objects[*obj], *x);
        }
        for (obj, x) in queries {
            log.push(query(objects[*obj], *x));
        }
    }
    (objects, log)
}

/// Runs the program through the runtime. Each round is one isolation
/// epoch: mutations first, then the (re-)submitted query batch. With
/// `memoized` the queries go through `delegate_memo`; otherwise through
/// `delegate_with`. Query results are logged in submission order.
fn run(
    k: usize,
    queries: &[(usize, u64)],
    rounds: &[Vec<(usize, u64)>],
    memoized: bool,
    delegates: usize,
    stealing: StealPolicy,
    audit: AuditMode,
) -> (Vec<u64>, Vec<u64>, Stats) {
    let rt = Runtime::builder()
        .delegate_threads(delegates)
        .stealing(stealing)
        .audit(audit)
        .memo_capacity(256)
        .build()
        .unwrap();
    let objects: Vec<Writable<u64, SequenceSerializer>> =
        (0..k).map(|_| Writable::new(&rt, 0)).collect();
    let mut log = Vec::new();

    for muts in rounds {
        rt.begin_isolation().unwrap();
        for (obj, x) in muts {
            let x = *x;
            objects[*obj].delegate(move |s| *s = fold(*s, x)).unwrap();
        }
        let mut futures = Vec::with_capacity(queries.len());
        for (obj, x) in queries {
            let x = *x;
            let fut = if memoized {
                objects[*obj]
                    .delegate_memo(fingerprint_of(&x), move |s| query(*s, x))
                    .unwrap()
            } else {
                objects[*obj].delegate_with(move |s| query(*s, x)).unwrap()
            };
            futures.push(fut);
        }
        rt.end_isolation().unwrap();
        for fut in futures {
            log.push(fut.wait().unwrap());
        }
    }

    let finals = objects.iter().map(|o| o.call(|s| *s).unwrap()).collect();
    let stats = rt.stats();
    (finals, log, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Memoized re-execution is observably identical to never-memoized
    /// re-execution and to the sequential interpreter, across the full
    /// policy grid and across mutation rates from 0% (all-clean rounds)
    /// to 100% (every round invalidates).
    #[test]
    fn memoized_runs_are_bit_identical_to_unmemoized(
        k in 1usize..5,
        queries in proptest::collection::vec((0usize..4, any::<u64>()), 1..10),
        rounds in proptest::collection::vec(
            proptest::collection::vec((0usize..4, any::<u64>()), 0..4),
            1..6,
        ),
        delegates in 0usize..4,
        steal_idx in 0usize..4,
        audit_idx in 0usize..3,
    ) {
        let queries: Vec<(usize, u64)> =
            queries.into_iter().map(|(o, x)| (o % k, x)).collect();
        let rounds: Vec<Vec<(usize, u64)>> = rounds
            .into_iter()
            .map(|muts| muts.into_iter().map(|(o, x)| (o % k, x)).collect())
            .collect();

        let (exp_finals, exp_log) = interpret(k, &queries, &rounds);
        let (memo_finals, memo_log, memo_stats) = run(
            k, &queries, &rounds, true, delegates,
            steal_policy_of(steal_idx), audit_mode_of(audit_idx),
        );
        let (plain_finals, plain_log, plain_stats) = run(
            k, &queries, &rounds, false, delegates,
            steal_policy_of(steal_idx), audit_mode_of(audit_idx),
        );

        prop_assert_eq!(&memo_finals, &exp_finals);
        prop_assert_eq!(&memo_log, &exp_log);
        prop_assert_eq!(&plain_finals, &exp_finals);
        prop_assert_eq!(&plain_log, &exp_log);

        // Every memoized submission is accounted a hit or a miss; the
        // plain arm never consults the cache.
        let total = (queries.len() * rounds.len()) as u64;
        prop_assert_eq!(memo_stats.memo_hits + memo_stats.memo_misses, total);
        prop_assert_eq!(plain_stats.memo_hits, 0);
        prop_assert_eq!(plain_stats.memo_misses, 0);
    }
}

/// Clean re-submission across epochs: one miss, then hits forever, and
/// every served value equals the first execution's result.
#[test]
fn clean_resubmission_is_served_from_memo() {
    let rt = Runtime::builder()
        .delegate_threads(2)
        .memo_capacity(64)
        .build()
        .unwrap();
    let w: Writable<u64, SequenceSerializer> = Writable::new(&rt, 7);
    let mut results = Vec::new();
    for _ in 0..5 {
        rt.begin_isolation().unwrap();
        let fut = w.delegate_memo(fingerprint_of(&42u64), |s| *s * 3).unwrap();
        rt.end_isolation().unwrap();
        results.push(fut.wait().unwrap());
    }
    assert_eq!(results, vec![21; 5]);
    let s = rt.stats();
    assert_eq!(s.memo_misses, 1, "first submission must execute: {s:?}");
    assert_eq!(s.memo_hits, 4, "clean re-submissions must hit: {s:?}");
}

/// A non-memoized delegation between rounds bumps the set's generation:
/// every re-submission misses and recomputes against the fresh state.
#[test]
fn mutation_between_epochs_invalidates() {
    let rt = Runtime::builder()
        .delegate_threads(1)
        .memo_capacity(64)
        .build()
        .unwrap();
    let w: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
    for round in 1..=4u64 {
        rt.begin_isolation().unwrap();
        w.delegate(|s| *s += 1).unwrap();
        let fut = w.delegate_memo(fingerprint_of(&0u64), |s| *s).unwrap();
        rt.end_isolation().unwrap();
        assert_eq!(fut.wait().unwrap(), round, "hit served a stale state");
    }
    let s = rt.stats();
    assert_eq!(
        s.memo_hits, 0,
        "every round mutates; no hit is sound: {s:?}"
    );
    assert_eq!(s.memo_misses, 4);
    assert!(
        s.memo_invalidations >= 4,
        "each mutation invalidates: {s:?}"
    );
}

/// A mid-epoch ownership reclaim (`call_mut`) is a mutation the cache
/// cannot see through: the query after it must re-execute.
#[test]
fn reclaim_invalidates_within_an_epoch() {
    let rt = Runtime::builder()
        .delegate_threads(1)
        .memo_capacity(64)
        .build()
        .unwrap();
    let w: Writable<u64, SequenceSerializer> = Writable::new(&rt, 5);
    rt.begin_isolation().unwrap();
    let a = w.delegate_memo(fingerprint_of(&1u64), |s| *s).unwrap();
    w.call_mut(|s| *s = 9).unwrap();
    let b = w.delegate_memo(fingerprint_of(&1u64), |s| *s).unwrap();
    rt.end_isolation().unwrap();
    assert_eq!(a.wait().unwrap(), 5);
    assert_eq!(b.wait().unwrap(), 9, "reclaim must invalidate the entry");
    let s = rt.stats();
    assert_eq!(s.memo_misses, 2, "both queries bracket a reclaim: {s:?}");
    assert_eq!(s.memo_hits, 0);
}

/// Sessions memoize under composite keys: a hit in one session can never
/// serve another session's identically-fingerprinted query on the same
/// raw set id.
#[test]
fn sessions_have_private_memo_domains() {
    let rt = Runtime::builder()
        .delegate_threads(2)
        .memo_capacity(64)
        .build()
        .unwrap();
    let s1 = rt.session().unwrap();
    let s2 = rt.session().unwrap();
    let w1: Writable<u64, SequenceSerializer> = Writable::new(&s1, 10);
    let w2: Writable<u64, SequenceSerializer> = Writable::new(&s2, 20);

    let submit = |sess: &Session, w: &Writable<u64, SequenceSerializer>| {
        sess.begin_isolation().unwrap();
        let fut = w
            .delegate_in_memo(SsId(3), fingerprint_of(&7u64), |s| *s)
            .unwrap();
        sess.end_isolation().unwrap();
        fut.wait().unwrap()
    };

    assert_eq!(submit(&s1, &w1), 10); // miss, publishes under s1's key
    assert_eq!(submit(&s1, &w1), 10); // hit within s1
                                      // Same raw set id, same fingerprint, different session: must miss and
                                      // compute s2's own value — a leak would serve 10 here.
    assert_eq!(submit(&s2, &w2), 20);
    assert_eq!(submit(&s2, &w2), 20); // and hit within s2 thereafter
}

/// One nested program, memoized or not: each epoch a parent operation
/// queries `child` from its delegate context (`cx.delegate_memo`, or
/// `cx.delegate_in_memo` when `set` is given; `cx.delegate_with` /
/// `cx.delegate_in_with` for the unmemoized arm) and waits for the answer
/// right there; in the epochs listed in `mutate_in` it first mutates
/// `child` through a plain nested `cx.delegate`. Returns each epoch's
/// `(answer, was_memo_hit)`, the child's final state, and the stats.
fn run_nested(
    rt: &Runtime,
    set: Option<SsId>,
    memoized: bool,
    epochs: usize,
    mutate_in: &'static [usize],
) -> (Vec<(u64, bool)>, u64, Stats) {
    let parent: Writable<u64, SequenceSerializer> = Writable::new(rt, 0);
    let child: Writable<u64, SequenceSerializer> = Writable::new(rt, 7);
    let mut log = Vec::new();
    for epoch in 0..epochs {
        rt.begin_isolation().unwrap();
        let (rt2, child2) = (rt.clone(), child.clone());
        let answer = parent.delegate_with(move |_| {
            rt2.delegate_scope(|cx| {
                if mutate_in.contains(&epoch) {
                    match set {
                        Some(ss) => cx.delegate_in(&child2, ss, |s| *s = fold(*s, 1)),
                        None => cx.delegate(&child2, |s| *s = fold(*s, 1)),
                    }
                    .unwrap();
                }
                let q = |s: &mut u64| query(*s, 42);
                let fp = fingerprint_of(&42u64);
                let fut = match (memoized, set) {
                    (true, None) => cx.delegate_memo(&child2, fp, q),
                    (true, Some(ss)) => cx.delegate_in_memo(&child2, ss, fp, q),
                    (false, None) => cx.delegate_with(&child2, q),
                    (false, Some(ss)) => cx.delegate_in_with(&child2, ss, q),
                }
                .unwrap();
                let hit = fut.was_memo_hit();
                (fut.wait().unwrap(), hit)
            })
            .unwrap()
        });
        log.push(answer.unwrap().wait().unwrap());
        rt.end_isolation().unwrap();
    }
    (log, child.call(|s| *s).unwrap(), rt.stats())
}

/// The nested × memo cell: from a delegate context the first submission
/// misses and publishes, a clean re-submission in a later epoch is served
/// born ready, a plain nested delegation on the set invalidates, and the
/// answers equal the unmemoized program's — on the root and in a session,
/// over the SPSC and the stealing transport, internal and external set.
#[test]
fn nested_memo_misses_hits_invalidates_and_matches_unmemoized() {
    for stealing in [StealPolicy::Off, StealPolicy::WhenIdle] {
        for in_session in [false, true] {
            for set in [None, Some(SsId(1000))] {
                let leg = format!("stealing {stealing:?}, session {in_session}, set {set:?}");
                let run_arm = |memoized: bool| {
                    let rt = Runtime::builder()
                        .delegate_threads(2)
                        .stealing(stealing)
                        .memo_capacity(64)
                        .build()
                        .unwrap();
                    if in_session {
                        let session = rt.session().unwrap();
                        run_nested(&session, set, memoized, 5, &[2])
                    } else {
                        run_nested(&rt, set, memoized, 5, &[2])
                    }
                };
                let (memo_log, memo_final, memo_stats) = run_arm(true);
                let (plain_log, plain_final, plain_stats) = run_arm(false);

                let (before, after) = (query(7, 42), query(fold(7, 1), 42));
                let answers: Vec<u64> = memo_log.iter().map(|(a, _)| *a).collect();
                assert_eq!(answers, [before, before, after, after, after], "{leg}");
                let hits: Vec<bool> = memo_log.iter().map(|(_, h)| *h).collect();
                assert_eq!(hits, [false, true, false, true, true], "{leg}");
                assert_eq!(memo_final, fold(7, 1), "{leg}");

                assert_eq!(plain_final, memo_final, "{leg}");
                let plain: Vec<u64> = plain_log.iter().map(|(a, _)| *a).collect();
                assert_eq!(plain, answers, "{leg}");
                assert!(plain_log.iter().all(|(_, hit)| !hit), "{leg}");

                assert_eq!(memo_stats.memo_misses, 2, "{leg}: {memo_stats:?}");
                assert_eq!(memo_stats.memo_hits, 3, "{leg}: {memo_stats:?}");
                assert!(memo_stats.memo_invalidations >= 1, "{leg}: {memo_stats:?}");
                // The parent's own plain `delegate_with` aside, a hit is not
                // an operation: three fewer executions than the plain arm.
                assert_eq!(memo_stats.executed + 3, plain_stats.executed, "{leg}");
                assert_eq!(plain_stats.memo_hits + plain_stats.memo_misses, 0, "{leg}");
            }
        }
    }
}

// ----------------------------------------------------------------------
// chaos leg: a cache that serves across an invalidation must be caught.

#[cfg(feature = "chaos")]
mod chaos {
    use prometheus_rs::prelude::*;
    use prometheus_rs::ss_core::{ChaosKnobs, SsError};

    /// `stale_memo_serve` makes the runtime serve memo entries whose
    /// generation no longer matches the set's live generation. The entry
    /// is published in epoch 1; a mutation then bumps the generation; the
    /// re-submission is (wrongly) served from the cache — and the auditor
    /// must report it as a stale serve naming both generations.
    #[test]
    fn stale_memo_serve_is_caught_by_the_auditor() {
        let rt = Runtime::builder()
            .delegate_threads(1)
            .memo_capacity(64)
            .audit(AuditMode::Full)
            .chaos(ChaosKnobs {
                stale_memo_serve: true,
                ..Default::default()
            })
            .build()
            .unwrap();
        let w: Writable<u64, SequenceSerializer> = Writable::new(&rt, 1);

        rt.begin_isolation().unwrap();
        let first = w.delegate_memo(fingerprint_of(&0u64), |s| *s).unwrap();
        rt.end_isolation().unwrap();
        assert_eq!(first.wait().unwrap(), 1);

        rt.begin_isolation().unwrap();
        w.delegate(|s| *s = 99).unwrap();
        let stale = w.delegate_memo(fingerprint_of(&0u64), |s| *s).unwrap();
        match rt.end_isolation() {
            Err(SsError::SerializabilityViolation(report)) => match report.kind {
                AuditViolation::StaleMemoServe { served, live } => {
                    assert!(
                        served < live,
                        "generations must name the real gap: {report}"
                    );
                }
                other => panic!("wrong violation kind: {other:?}"),
            },
            Ok(()) => panic!("auditor missed the stale serve"),
            Err(e) => panic!("unexpected error: {e}"),
        }
        // The weakened runtime really did serve the pre-mutation value —
        // the auditor caught a genuine lie, not a phantom.
        assert_eq!(stale.wait().unwrap(), 1);
        let s = rt.stats();
        assert_eq!(s.memo_hits, 1, "the stale serve is the only hit: {s:?}");
    }
}
