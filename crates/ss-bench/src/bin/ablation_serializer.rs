//! Ablation: serializer granularity on the §2.1 matrix-multiply example —
//! per-element sets vs per-row sets vs row bands, against sequential and the
//! threaded baseline.
//!
//! Expected shape: element granularity is delegation-overhead-bound (§5:
//! "fine-grained parallelization must amortize overheads"); rows are the
//! paper's sweet spot; bands converge to the threaded baseline.

use std::time::Instant;

use ss_apps::matmul::{self, Matrix};
use ss_bench::{env_reps, fmt_dur, host_threads, Table};
use ss_core::Runtime;

fn main() {
    let reps = env_reps();
    let n: usize = std::env::var("SS_BENCH_MATMUL_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(256);
    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);
    let delegates = (host_threads() - 1).max(1);
    println!(
        "Ablation: serializer granularity, {n}x{n} matmul ({} delegates, best of {} reps)\n",
        delegates, reps
    );

    let time = |mut f: Box<dyn FnMut() -> Matrix>| {
        let mut best = std::time::Duration::MAX;
        let mut out = None;
        for _ in 0..reps {
            let t0 = Instant::now();
            let r = f();
            best = best.min(t0.elapsed());
            out = Some(r);
        }
        (best, matmul::fingerprint(&out.unwrap()))
    };

    let (t_seq, fp) = time(Box::new(|| matmul::seq(&a, &b)));
    let mut table = Table::new(&["variant", "time", "speedup", "delegations", "output"]);
    table.row(vec![
        "sequential".into(),
        fmt_dur(t_seq),
        "1.00".into(),
        "-".into(),
        "ref".into(),
    ]);

    let (t_cp, fp_cp) = time(Box::new(|| matmul::cp(&a, &b, delegates + 1)));
    table.row(vec![
        "threads (chunked)".into(),
        fmt_dur(t_cp),
        format!("{:.2}", t_seq.as_secs_f64() / t_cp.as_secs_f64()),
        "-".into(),
        if fp_cp == fp {
            "ok".into()
        } else {
            "MISMATCH".into()
        },
    ]);

    type Variant = (&'static str, fn(&Matrix, &Matrix, &Runtime) -> Matrix);
    let variants: Vec<Variant> = vec![
        ("ss / element sets", matmul::ss_element),
        ("ss / row sets", matmul::ss_row),
        ("ss / row bands", matmul::ss_row_blocked),
    ];
    for (name, f) in variants {
        let rt = Runtime::builder()
            .delegate_threads(delegates)
            .build()
            .unwrap();
        let mut best = std::time::Duration::MAX;
        let mut got = 0;
        for _ in 0..reps {
            let t0 = Instant::now();
            let out = f(&a, &b, &rt);
            best = best.min(t0.elapsed());
            got = matmul::fingerprint(&out);
        }
        let delegations = rt.stats().delegations;
        table.row(vec![
            name.into(),
            fmt_dur(best),
            format!("{:.2}", t_seq.as_secs_f64() / best.as_secs_f64()),
            delegations.to_string(),
            if got == fp {
                "ok".into()
            } else {
                "MISMATCH".into()
            },
        ]);
    }
    println!("{}", table.render());
}
