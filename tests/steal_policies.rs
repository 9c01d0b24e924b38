//! Work stealing is a pure scheduling choice: with stealing on,
//! whole-program results must be identical to stealing off (and therefore
//! to the sequential oracle), across every registry kernel — including
//! `nested_fanout`, whose operations are delegated recursively from
//! delegate contexts. A thief migrates never-started sets, whole and
//! re-pinned atomically, and the queued tails of *started* sets after a
//! quiescence handshake that proves the owner's prefix has fully
//! executed. Either way, same-set program order — and with it the output
//! — cannot depend on who executed what.

use prometheus_rs::prelude::*;
use prometheus_rs::ss_apps::registry;
use prometheus_rs::ss_workloads::scale::Scale;

/// Every kernel, stealing off and on, at two and three delegates: `ss`
/// fingerprint equals the sequential oracle's (which stealing off is
/// already held to by `apps_equality.rs`). Two delegates is the shape
/// where one thief faces one victim; three lets thieves race.
#[test]
fn all_kernels_identical_under_every_steal_policy() {
    for spec in registry() {
        let bench = (spec.make)(Scale::S);
        let expect = bench.run_seq();
        for delegates in [2, 3] {
            for stealing in [false, true] {
                let rt = Runtime::builder()
                    .delegate_threads(delegates)
                    .stealing(stealing)
                    .build()
                    .unwrap();
                let got = bench.run_ss(&rt);
                assert_eq!(
                    got, expect,
                    "{} diverged with stealing {stealing} at {delegates} delegates",
                    spec.name
                );
                rt.shutdown().unwrap();
            }
        }
    }
}

/// Recursive delegation composes with stealing: the nested kernel's child
/// and grandchild sets are first-touched *by delegate threads* under the
/// routing lock, racing thieves — and must still match the sequential
/// fingerprint with stealing off and on, at every delegate count.
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
        for stealing in [false, true] {
            let rt = Runtime::builder()
                .delegate_threads(delegates)
                .stealing(stealing)
                .build()
                .unwrap();
            assert_eq!(
                bench.run_ss(&rt),
                expect,
                "nested_fanout diverged with stealing {stealing} at {delegates} delegates"
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
        .stealing(true)
        .build()
        .unwrap();
    assert_eq!(bench.run_ss(&rt), expect);
    assert_eq!(rt.stats().inline_executions, 0);
    rt.shutdown().unwrap();
}
