//! The repo benchmark. See `README.md` for what is measured and why.
//!
//! ```text
//! benchmark run --workload W --seed N --seconds S --trace 0|1   one workload, in this process
//! benchmark run [--seed N] [--seconds S] [--runs K] [--traced] [--out FILE]
//!                                                               every workload, a process each
//! benchmark smoke [--seed N]                                    everything at ~1/50 size
//! benchmark compare A.json B.json                               two results files
//! ```

mod alloc;
mod apps;
mod compare;
mod host;
mod json;
mod metrics;
mod pin;
mod probes;
mod rtt;
mod stats;
mod suite;
mod synth;
mod trace;
mod workload;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Seconds one run measures when `--seconds` is absent; `BENCHMARK.json`'s
/// `run_seconds` is the same number.
pub const DEFAULT_SECONDS: f64 = 15.0;

/// `--name value` pairs and bare `--flags`, in any order.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let rest = Args(args.get(1..).unwrap_or_default().to_vec());
    match args.first().map(String::as_str) {
        Some("run") => {
            let seed = rest.parsed("--seed", 1u64)?;
            let seconds = rest.parsed("--seconds", DEFAULT_SECONDS)?;
            if !(seconds > 0.0 && seconds <= 60.0) {
                return Err(format!("--seconds must be in (0, 60], got {seconds}"));
            }
            match rest.value("--workload") {
                Some(name) => suite::run_one(&workload::Opts {
                    workload: name.to_string(),
                    seed,
                    seconds,
                    trace: rest.parsed("--trace", 0u8)? != 0,
                    smoke: false,
                    sabotage: false,
                }),
                None => suite::run_all(
                    seed,
                    seconds,
                    rest.parsed("--runs", 1usize)?,
                    rest.flag("--traced"),
                    rest.value("--out"),
                ),
            }
        }
        Some("smoke") => suite::smoke(rest.parsed("--seed", 1u64)?),
        Some("compare") => match &rest.0[..] {
            [a, b] => compare::compare(a, b),
            _ => Err("usage: benchmark compare <a.json> <b.json>".to_string()),
        },
        _ => Err("usage: benchmark run|smoke|compare ... (see benchmark/README.md)".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
