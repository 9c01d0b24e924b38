//! The commands around a single workload run: print its result line, run
//! every workload in a process of its own and keep a results file, and
//! `smoke`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::host;
use crate::json::{self, Value};
use crate::metrics::{self, Metrics, END_TO_END, WORKLOADS};
use crate::pin;
use crate::workload::{self, Opts, Outcome};

/// Runs the workload; a panic anywhere in it is one failed operation.
fn guarded(opts: &Opts) -> Result<Outcome, String> {
    catch_unwind(AssertUnwindSafe(|| workload::run(opts))).unwrap_or_else(|_| {
        Ok(Outcome {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Metrics::default(),
        })
    })
}

fn result_value(outcome: &Outcome, traced: bool) -> Value {
    Value::Obj(vec![
        ("correct".into(), Value::Bool(outcome.correct)),
        (
            "attempted".into(),
            Value::Num(outcome.attempted.max(1) as f64),
        ),
        ("failed".into(), Value::Num(outcome.failed as f64)),
        ("metrics".into(), outcome.metrics.render(traced)),
    ])
}

fn print_metrics(metrics: &Value) {
    for (name, cell) in metrics.fields() {
        let value = cell.get("value").and_then(Value::as_f64).unwrap_or(0.0);
        let unit = cell.get("unit").and_then(Value::as_str).unwrap_or("");
        println!("{name:<48} {value:>18.6} {unit}");
    }
}

/// One workload in this process: every metric by name with its unit, then
/// the result object as the last line of standard output.
pub fn run_one(opts: &Opts) -> Result<(), String> {
    let outcome = guarded(opts)?;
    let result = result_value(&outcome, opts.trace);
    println!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace as u8,
        pin::nproc()
    );
    print_metrics(result.get("metrics").expect("result has metrics"));
    println!("{}", result.render());
    Ok(())
}

/// Starts this executable again for one workload and parses its last line.
fn run_child(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start {name}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{name} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let mut result = json::parse(last).map_err(|e| format!("{name}: {e}"))?;
    if let Value::Obj(fields) = &mut result {
        fields.insert(0, ("workload".into(), Value::Str(name.to_string())));
        fields.insert(1, ("trace".into(), Value::Num(traced as u8 as f64)));
    }
    Ok(result)
}

/// Every workload, each in its own process, `runs` times; with `traced`,
/// one traced pass after them. Prints every metric and writes the results
/// file `compare` reads.
pub fn run_all(
    seed: u64,
    seconds: f64,
    runs: usize,
    traced: bool,
    out: Option<&str>,
) -> Result<(), String> {
    let mut results = Vec::new();
    let mut all_correct = true;
    let passes = (0..runs.max(1))
        .map(|_| false)
        .chain(traced.then_some(true));
    for (pass, trace) in passes.enumerate() {
        for name in WORKLOADS {
            let result = run_child(name, seed, seconds, trace)?;
            let correct = result.get("correct") == Some(&Value::Bool(true));
            all_correct &= correct;
            println!(
                "== {name} (pass {}, trace {}): correct {correct}, attempted {}, failed {}",
                pass + 1,
                trace as u8,
                result
                    .get("attempted")
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0),
                result.get("failed").and_then(Value::as_f64).unwrap_or(0.0),
            );
            print_metrics(result.get("metrics").unwrap_or(&Value::Null));
            results.push(result);
        }
    }
    let file = Value::Obj(vec![
        ("host".into(), host::shape(seed, seconds)),
        ("runs".into(), Value::Arr(results)),
    ]);
    let path = match out {
        Some(p) => PathBuf::from(p),
        None => {
            let stamp = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_secs());
            host::package_dir()
                .join("out")
                .join(format!("results-{stamp}.json"))
        }
    };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, file.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    if all_correct {
        Ok(())
    } else {
        Err("at least one workload reported failed operations".to_string())
    }
}

/// The names `BENCHMARK.json` lists under `key`.
fn declared(spec: &Value, key: &str) -> Vec<String> {
    spec.get(key)
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| m.get("name").and_then(Value::as_str).map(String::from))
        .collect()
}

pub fn load_spec() -> Result<Value, String> {
    let path = host::package_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text)
}

/// Every workload, untraced and traced, at about a fiftieth of its size;
/// checks that `BENCHMARK.json` and the registry agree, and that a
/// deliberately wrong expectation is counted as failed operations.
pub fn smoke(seed: u64) -> Result<(), String> {
    let start = Instant::now();
    let spec = load_spec()?;
    let end_to_end: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
    let per_layer: Vec<String> = metrics::per_layer().into_iter().map(|(n, _)| n).collect();
    if declared(&spec, "end_to_end") != end_to_end
        || declared(&spec, "per_layer") != per_layer
        || declared(&spec, "workloads") != WORKLOADS
    {
        return Err("BENCHMARK.json and the metric registry disagree".to_string());
    }

    let opts = |workload: &str, trace, sabotage| Opts {
        workload: workload.to_string(),
        seed,
        seconds: 0.2,
        trace,
        smoke: true,
        sabotage,
    };
    for name in WORKLOADS {
        for trace in [false, true] {
            let outcome = guarded(&opts(name, trace, false))?;
            println!(
                "smoke {name:<12} trace {}: attempted {:>8}, failed {}",
                trace as u8, outcome.attempted, outcome.failed
            );
            if !outcome.correct {
                return Err(format!("{name} failed its oracle at smoke size"));
            }
        }
    }
    let broken = guarded(&opts("wide-tiny", false, true))?;
    if broken.correct || broken.failed != broken.attempted {
        return Err("a wrong expectation was not counted as failed operations".to_string());
    }
    println!(
        "smoke: oracle bites ({} of {} operations failed under a wrong expectation)",
        broken.failed, broken.attempted
    );
    println!("smoke ok in {:.1} s", start.elapsed().as_secs_f64());
    Ok(())
}
