//! An idle runtime sleeps: once its queues are empty, a delegate parks
//! until a push notifies it, and nothing wakes it on a timer.
//!
//! Its own test binary, so no other test's threads run in the process
//! while the context switches of all of them are summed; Linux-only,
//! because it reads `/proc/self/task/*/status`.
#![cfg(target_os = "linux")]

use std::time::Duration;

use prometheus_rs::prelude::*;

/// Voluntary context switches of every thread of this process so far.
fn voluntary_switches() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("status")).ok())
        .flat_map(|status| {
            status
                .lines()
                .filter_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
                .map(|n| n.trim().parse::<u64>().unwrap_or(0))
                .collect::<Vec<_>>()
        })
        .sum()
}

#[test]
fn an_idle_runtime_sleeps() {
    for delegates in [1u64, 2] {
        let rt = Runtime::builder()
            .delegate_threads(delegates as usize)
            .build()
            .unwrap();
        let w: Writable<u64> = Writable::new(&rt, 0);
        rt.isolated(|| w.delegate(|n| *n += 1).unwrap()).unwrap();
        // Let every delegate run out its spin-then-yield ladder and park.
        std::thread::sleep(Duration::from_millis(100));
        let before = voluntary_switches();
        std::thread::sleep(Duration::from_secs(1));
        let switches = voluntary_switches().saturating_sub(before);
        assert!(
            switches <= 10 * delegates,
            "{delegates} idle delegate(s) switched {switches} times in 1 s"
        );
        assert_eq!(w.call(|n| *n).unwrap(), 1);
    }
}
