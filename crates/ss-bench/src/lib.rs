//! # ss-bench — the evaluation harness
//!
//! One runnable target per table and figure of the paper's evaluation
//! (§5), plus ablation studies for the design choices DESIGN.md calls out.
//!
//! | Target (`cargo run --release -p ss-bench --bin …`) | Regenerates |
//! |---|---|
//! | `table2_inventory` | Table 2 — benchmark suite and inputs |
//! | `table3_machine`   | Table 3 — machine configuration report |
//! | `fig4_speedup`     | Figure 4 — CP vs SS speedups + harmonic mean |
//! | `fig5a_breakdown`  | Figure 5a — aggregation/isolation/reduction time |
//! | `fig5b_input_scaling` | Figure 5b — speedup vs input size (S/M/L) |
//! | `fig6_scaling`     | Figure 6 — speedup vs delegate-thread count |
//! | `ablation_serializer` | §2.1 serializer granularity (matmul) |
//! | `ablation_kmeans`  | §5.1 kmeans variants (paper vs reduction) |
//! | `ablation_stealing` | work stealing between delegate queues (docs/POLICIES.md) |
//!
//! Environment knobs (all optional): `SS_BENCH_SCALE` (`S`/`M`/`L`, default
//! `S`), `SS_BENCH_REPS` (repetitions per measurement, default 3),
//! `SS_BENCH_MAX_THREADS` (cap the thread sweep).

#![warn(missing_docs)]

use std::time::{Duration, Instant};

use ss_workloads::scale::Scale;

/// Reads the scale from `SS_BENCH_SCALE` (default S).
pub fn env_scale() -> Scale {
    match std::env::var("SS_BENCH_SCALE").as_deref() {
        Ok("M") | Ok("m") => Scale::M,
        Ok("L") | Ok("l") => Scale::L,
        _ => Scale::S,
    }
}

/// Reads the repetition count from `SS_BENCH_REPS` (default 3).
pub fn env_reps() -> usize {
    std::env::var("SS_BENCH_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
}

/// Reads the thread-sweep cap from `SS_BENCH_MAX_THREADS` (default: twice
/// the host parallelism, so oversubscribed points are visible).
pub fn env_max_threads() -> usize {
    std::env::var("SS_BENCH_MAX_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| host_threads() * 2)
}

/// Host hardware parallelism.
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` `reps` times; returns the minimum wall time and the (last)
/// returned fingerprint. Minimum-of-N is the standard noise filter for
/// wall-clock benchmarking on a shared machine.
pub fn measure(reps: usize, mut f: impl FnMut() -> u64) -> (Duration, u64) {
    let mut best = Duration::MAX;
    let mut fp = 0;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        fp = f();
        best = best.min(t0.elapsed());
    }
    (best, fp)
}

/// Emulated "machine configurations" for Figure 4: the paper measured four
/// machines with 4–32 hardware contexts; on a single host the controlled
/// variable is the delegate-thread count, with oversubscription marked.
pub struct MachineConfig {
    /// Display label.
    pub label: String,
    /// Delegate threads used for the SS runs / worker threads for CP.
    pub threads: usize,
    /// Whether this exceeds the host's physical parallelism.
    pub oversubscribed: bool,
}

/// The default Figure 4 configuration ladder: 2, 4, 8, 16 total contexts
/// (1, 3, 7, 15 delegate threads), truncated by `SS_BENCH_MAX_THREADS`.
pub fn machine_configs() -> Vec<MachineConfig> {
    let host = host_threads();
    let cap = env_max_threads();
    [2usize, 4, 8, 16]
        .into_iter()
        .map(|contexts| MachineConfig {
            label: format!(
                "{}-context{}",
                contexts,
                if contexts > host { " (oversub)" } else { "" }
            ),
            threads: contexts - 1,
            oversubscribed: contexts > host,
        })
        .filter(|c| c.threads <= cap && c.threads >= 1)
        .collect()
}

/// Simple fixed-width table printer (plain text, pastes into Markdown
/// code blocks).
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", c, width = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Harmonic mean (the paper's Figure 4 summary statistic).
pub fn harmonic_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.len() as f64 / xs.iter().map(|x| 1.0 / x).sum::<f64>()
}

/// Formats a `Duration` compactly.
pub fn fmt_dur(d: Duration) -> String {
    if d.as_secs_f64() >= 1.0 {
        format!("{:.2}s", d.as_secs_f64())
    } else {
        format!("{:.1}ms", d.as_secs_f64() * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_mean_values() {
        assert!((harmonic_mean(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((harmonic_mean(&[2.0, 4.0]) - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!(harmonic_mean(&[]), 0.0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "22222".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("alpha"));
    }

    #[test]
    fn measure_returns_fingerprint() {
        let (d, fp) = measure(2, || 42);
        assert_eq!(fp, 42);
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn machine_configs_are_monotone() {
        let cfgs = machine_configs();
        assert!(!cfgs.is_empty());
        for w in cfgs.windows(2) {
            assert!(w[0].threads < w[1].threads);
        }
    }
}
