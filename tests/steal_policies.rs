//! Work stealing is a pure scheduling choice: for every [`StealPolicy`],
//! whole-program results must be identical to `StealPolicy::Off` (and
//! therefore to the sequential oracle), across every registry kernel —
//! including `nested_fanout`, whose operations are delegated recursively
//! from delegate contexts. Depth policies migrate only never-started
//! sets, whole and re-pinned atomically; `CostAware` additionally migrates
//! the queued tails of *started* sets after a quiescence handshake that
//! proves the owner's prefix has fully executed. Either way, same-set program order — and
//! with it the output — cannot depend on who executed what.

use prometheus_rs::prelude::*;
use prometheus_rs::ss_apps::registry;
use prometheus_rs::ss_workloads::scale::Scale;

fn steal_policies() -> Vec<(&'static str, StealPolicy)> {
    vec![
        ("off", StealPolicy::Off),
        ("when-idle", StealPolicy::WhenIdle),
        ("threshold-2", StealPolicy::Threshold(2)),
        ("threshold-32", StealPolicy::Threshold(32)),
        ("cost-aware", StealPolicy::CostAware),
    ]
}

/// Every kernel, every steal policy: `ss` fingerprint equals the
/// sequential oracle's (which `StealPolicy::Off` is already held to by
/// `apps_equality.rs`).
#[test]
fn all_kernels_identical_under_every_steal_policy() {
    for spec in registry() {
        let bench = (spec.make)(Scale::S);
        let expect = bench.run_seq();
        for (label, policy) in steal_policies() {
            let rt = Runtime::builder()
                .delegate_threads(3)
                .stealing(policy)
                .build()
                .unwrap();
            let got = bench.run_ss(&rt);
            assert_eq!(
                got, expect,
                "{} diverged under steal policy {label}",
                spec.name
            );
            rt.shutdown().unwrap();
        }
    }
}

/// Stealing composes with the one assignment policy, static placement, at
/// two delegates: the pin table the thieves rewrite is the one every
/// stealing-mode first touch fills with the modulo, so every steal policy
/// must still be observationally sequential.
#[test]
fn stealing_composes_with_assignment_policies() {
    // word_count exercises reducibles + skewed (Zipf) set popularity —
    // the stealing-relevant kernel shape.
    let spec = registry()
        .into_iter()
        .find(|s| s.name == "word_count")
        .expect("word_count registered");
    let bench = (spec.make)(Scale::S);
    let expect = bench.run_seq();
    for (label, policy) in steal_policies() {
        let rt = Runtime::builder()
            .delegate_threads(2)
            .stealing(policy)
            .build()
            .unwrap();
        assert_eq!(
            bench.run_ss(&rt),
            expect,
            "word_count diverged under {label}"
        );
        rt.shutdown().unwrap();
    }
}

/// Recursive delegation composes with stealing: the nested kernel's child
/// and grandchild sets are first-touched *by delegate threads* under the
/// routing lock, racing thieves — and must still match the sequential
/// fingerprint under every steal policy and delegate count.
#[test]
fn nested_kernel_identical_under_every_steal_policy() {
    let spec = registry()
        .into_iter()
        .find(|s| s.name == "nested_fanout")
        .expect("nested_fanout registered");
    let bench = (spec.make)(Scale::S);
    let expect = bench.run_seq();
    let env_delegates: usize = std::env::var("SS_DELEGATES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let mut counts = vec![2usize];
    if env_delegates != 2 {
        counts.push(env_delegates);
    }
    for delegates in counts {
        for (label, policy) in steal_policies() {
            let rt = Runtime::builder()
                .delegate_threads(delegates)
                .stealing(policy)
                .build()
                .unwrap();
            assert_eq!(
                bench.run_ss(&rt),
                expect,
                "nested_fanout diverged under {label} with {delegates} delegates"
            );
            rt.shutdown().unwrap();
        }
    }
}

/// The stealing transport never lets the program thread take a set, even
/// with a queue capacity at which the SPSC transport takes most of them:
/// every set stays delegate-bound and stealable — results still
/// sequential.
#[test]
fn stealing_transport_never_takes() {
    let spec = registry()
        .into_iter()
        .find(|s| s.name == "histogram")
        .expect("histogram registered");
    let bench = (spec.make)(Scale::S);
    let expect = bench.run_seq();
    let rt = Runtime::builder()
        .delegate_threads(2)
        .queue_capacity(4)
        .stealing(StealPolicy::WhenIdle)
        .build()
        .unwrap();
    assert_eq!(bench.run_ss(&rt), expect);
    assert_eq!(rt.stats().inline_executions, 0);
    rt.shutdown().unwrap();
}
