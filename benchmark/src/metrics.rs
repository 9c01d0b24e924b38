//! The metric registry: every name a run reports, with its unit, in the
//! order `BENCHMARK.json` lists them (`smoke` checks the two agree).

use crate::json::Value;

pub const WORKLOADS: [&str; 6] = [
    "wide-tiny",
    "chunky",
    "epoch-churn",
    "futures",
    "incremental",
    "apps",
];

/// The paper's Table 2 kernels, in its order.
pub const KERNELS: [&str; 8] = [
    "barnes-hut",
    "blackscholes",
    "dedup",
    "freqmine",
    "histogram",
    "kmeans",
    "reverse_index",
    "word_count",
];

pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("wall_s", "s"),
    ("epoch_p50_us", "us"),
    ("future_rtt_vs_handoff", "ratio"),
    ("peak_rss_mb", "MB"),
];

const LAYER_FIXED: [(&str, &str); 55] = [
    ("harness.speedup_vs_seq", "ratio"),
    ("harness.allocs_per_op", "1/op"),
    ("harness.allocs_per_epoch_boundary", "count"),
    ("harness.handoff_p50_us", "us"),
    ("ss-workloads.gen_s", "s"),
    ("ss-workloads.input_bytes", "B"),
    ("core.wrappers.delegate_call_p50_ns", "ns"),
    ("core.wrappers.delegate_call_p99_ns", "ns"),
    ("core.wrappers.delegate_with_call_p50_ns", "ns"),
    ("core.wrappers.delegate_iter_ns_per_op", "ns"),
    ("core.wrappers.memo_hit_call_p50_ns", "ns"),
    ("core.wrappers.memo_miss_call_p50_ns", "ns"),
    ("core.wrappers.reclaim_call_p50_ns", "ns"),
    ("core.wrappers.tasks_inline", "count"),
    ("core.wrappers.tasks_boxed", "count"),
    ("core.runtime.epoch.begin_p50_ns", "ns"),
    ("core.runtime.epoch.begin_share", "ratio"),
    ("core.runtime.epoch.end_wait_p50_ns", "ns"),
    ("core.runtime.epoch.end_wait_p99_ns", "ns"),
    ("core.runtime.epoch.empty_epoch_p50_ns", "ns"),
    ("core.runtime.epoch.epoch_p99_us", "us"),
    ("core.runtime.epoch.isolation_epochs", "count"),
    ("core.runtime.dispatch.delegations", "count"),
    ("core.runtime.dispatch.inline_executions", "count"),
    ("core.runtime.dispatch.sync_objects", "count"),
    ("core.runtime.dispatch.submit_share", "ratio"),
    ("core.runtime.dispatch.submit_blocked_share", "ratio"),
    ("core.runtime.dispatch.nested_ns_per_op", "ns"),
    ("core.runtime.dispatch.nested_delegations", "count"),
    ("core.runtime.router.pins", "count"),
    ("core.runtime.router.pin_fast_hits", "count"),
    ("core.runtime.delegate.executed", "count"),
    ("core.runtime.delegate.drain_share", "ratio"),
    ("core.runtime.delegate.exec_imbalance", "ratio"),
    ("core.runtime.delegate.steals", "count"),
    ("core.runtime.delegate.op_steals", "count"),
    ("core.runtime.session.ns_per_op", "ns"),
    ("core.runtime.session.vs_root_ratio", "ratio"),
    ("core.future.futures_resolved", "count"),
    ("core.future.wait_all_ns_per_op", "ns"),
    ("core.future.rtt_p50_us", "us"),
    ("core.future.rtt_p99_us", "us"),
    ("core.future.ops_cancelled", "count"),
    ("core.fingerprint.memo_hits", "count"),
    ("core.fingerprint.memo_misses", "count"),
    ("core.fingerprint.memo_hit_ratio", "ratio"),
    ("core.fingerprint.memo_invalidations", "count"),
    ("core.audit.full_overhead_ratio", "ratio"),
    ("core.audit.audit_edges", "count"),
    ("ss-queue.spsc.push_pop_ns", "ns"),
    ("ss-queue.spsc.xthread_ns_per_item", "ns"),
    ("ss-queue.memomap.hit_ns", "ns"),
    ("ss-queue.memomap.miss_publish_ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans_recorded", "count"),
];

const KERNEL_FIELDS: [&str; 4] = ["seq_s", "ss_s", "isolation_s", "reduction_s"];

/// Every per-layer metric: the fixed list, then four per kernel.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for k in KERNELS {
        for f in KERNEL_FIELDS {
            all.push((format!("ss-apps.{k}.{f}"), "s"));
        }
    }
    all
}

/// Values reported by one run, keyed by metric name.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The `metrics` object of the result line: every registered name in
    /// registry order. A per-layer metric the workload did not exercise
    /// reads 0; a name outside the registry is a harness bug.
    pub fn render(&self, traced: bool) -> Value {
        let registry: Vec<(String, &'static str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        for (name, _) in &self.values {
            assert!(
                registry.iter().any(|(n, _)| n == name),
                "metric {name} is not in the registry"
            );
        }
        Value::Obj(
            registry
                .into_iter()
                .map(|(name, unit)| {
                    let v = self.get(&name).filter(|v| v.is_finite()).unwrap_or(0.0);
                    let cell = Value::Obj(vec![
                        ("value".to_string(), Value::Num(v)),
                        ("unit".to_string(), Value::Str(unit.to_string())),
                    ]);
                    (name, cell)
                })
                .collect(),
        )
    }
}
