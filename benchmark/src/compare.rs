//! `compare <a.json> <b.json>`: per (end-to-end metric, workload), each
//! side's median and quartiles over its untraced runs, the bound from
//! `BENCHMARK.json`, and a verdict.

use crate::json::{self, Value};
use crate::metrics::WORKLOADS;
use crate::stats::quartiles;
use crate::suite::load_spec;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The values of `metric` over the file's untraced runs of `workload`.
fn values(file: &Value, workload: &str, metric: &str) -> Vec<f64> {
    file.get("runs")
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Value::as_f64) == Some(0.0))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

pub fn compare(a_path: &str, b_path: &str) -> Result<(), String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    for key in ["nproc", "delegates", "cpu_model"] {
        let of = |file: &Value| file.get("host").and_then(|h| h.get(key)).cloned();
        if of(&a) != of(&b) {
            return Err(format!(
                "host shapes differ in {key}: {:?} against {:?}; not comparable",
                of(&a),
                of(&b)
            ));
        }
    }
    let spec = load_spec()?;
    println!(
        "{:<20} {:<12} {:>14} {:>14} {:>14} {:>14} {:>7} {:>7}  verdict",
        "metric", "workload", "a median", "a iqr", "b median", "b iqr", "change", "bound"
    );
    let mut worse = 0;
    for metric in spec
        .get("end_to_end")
        .map(Value::as_arr)
        .unwrap_or_default()
    {
        let field = |k: &str| metric.get(k).and_then(Value::as_str).unwrap_or_default();
        let (name, higher_is_better) = (field("name"), field("better") == "higher");
        let bound = metric.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
        for workload in WORKLOADS {
            let (va, vb) = (values(&a, workload, name), values(&b, workload, name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (a1, am, a3) = quartiles(&va);
            let (b1, bm, b3) = quartiles(&vb);
            // Positive = b is worse than a, as a share of a's median.
            let change = if higher_is_better {
                (am - bm) / am
            } else {
                (bm - am) / am
            };
            let spread = ((a3 - a1) / am).max((b3 - b1) / bm);
            let verdict = if spread > bound {
                "unresolved"
            } else if change > bound {
                worse += 1;
                "worse"
            } else {
                "within"
            };
            println!(
                "{name:<20} {workload:<12} {am:>14.6} {:>14.6} {bm:>14.6} {:>14.6} {:>+6.1}% {:>6.1}%  {verdict}",
                a3 - a1,
                b3 - b1,
                change * 100.0,
                bound * 100.0
            );
        }
    }
    if worse > 0 {
        return Err(format!(
            "{worse} (metric, workload) pairs are worse than their bound"
        ));
    }
    Ok(())
}
