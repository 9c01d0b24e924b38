//! The host a result was measured on, and this process's peak memory.

use std::path::PathBuf;
use std::process::Command;

use crate::json::Value;
use crate::pin;

/// `VmHWM` of this process in MB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The benchmark package's directory: where `out/` lives and whose parent
/// holds `BENCHMARK.json`. `cargo run` exports it; the compile-time value
/// serves a binary started by hand.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(package_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn proc_field(path: &str, prefix: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix(prefix))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// What every results file records. `compare` refuses files whose
/// `nproc`, `delegates` or `cpu_model` differ.
pub fn shape(seed: u64, seconds: f64) -> Value {
    let nproc = pin::nproc();
    Value::Obj(vec![
        ("nproc".into(), Value::Num(nproc as f64)),
        // `Runtime::builder()`'s default, which every workload uses.
        (
            "delegates".into(),
            Value::Num(nproc.saturating_sub(1).max(1) as f64),
        ),
        (
            "cpu_model".into(),
            Value::Str(proc_field("/proc/cpuinfo", "model name")),
        ),
        (
            "kernel".into(),
            Value::Str(proc_field("/proc/sys/kernel/osrelease", "")),
        ),
        (
            "rustc".into(),
            Value::Str(command_line("rustc", &["--version"])),
        ),
        (
            "commit".into(),
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed".into(), Value::Num(seed as f64)),
        ("seconds".into(), Value::Num(seconds)),
    ])
}
