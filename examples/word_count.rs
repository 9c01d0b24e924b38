//! word_count on a generated corpus, demonstrating the reducible-map
//! pattern (§2.2/§5.1) and the sequential-debug mode (§3.3).
//!
//! The same serialization-sets code runs twice: once on a parallel runtime
//! and once with `delegate_threads(0)` — the paper's "debug version that
//! simulates a parallel execution" — and the outputs are verified identical,
//! which is exactly the development workflow the paper advocates.
//!
//! Run with: `cargo run --release --example word_count`

use std::time::Instant;

use prometheus_rs::prelude::*;
use prometheus_rs::ss_apps::word_count;
use prometheus_rs::ss_workloads::text::{corpus, TextParams};

fn main() {
    let text = corpus(&TextParams {
        bytes: 2 << 20,
        vocabulary: 30_000,
        zipf_s: 1.0,
        seed: 2009,
    });
    println!("corpus: {} KiB", text.len() / 1024);
    // Wrap once at load time (read-only data domain, §2).
    let shared = ReadOnly::new(text.clone());

    // Debug first, like the paper says: "all development and debugging is
    // done on a sequential execution of the program."
    let serial_rt = Runtime::builder()
        .delegate_threads(0)
        .build()
        .expect("serial runtime");
    let t0 = Instant::now();
    let counts_debug = word_count::ss(&shared, &serial_rt);
    let t_debug = t0.elapsed();

    // Then flip the switch to parallel — same code, same answer.
    let rt = Runtime::new().expect("runtime");
    let t0 = Instant::now();
    let counts = word_count::ss(&shared, &rt);
    let t_par = t0.elapsed();
    assert_eq!(counts, counts_debug, "parallel must equal the debug run");

    let t0 = Instant::now();
    let counts_seq = word_count::seq(&text);
    let t_seq = t0.elapsed();
    assert_eq!(counts, counts_seq);

    println!("distinct words: {}", counts.len());
    println!("top 10:");
    for (w, c) in counts.iter().take(10) {
        println!("  {w:<12} {c}");
    }
    println!("\nsequential          : {t_seq:>10.2?}");
    println!("ss (serial debug)   : {t_debug:>10.2?}  — deterministic, single-threaded");
    println!(
        "ss (parallel)       : {t_par:>10.2?}  — {} delegates, identical output",
        rt.delegate_threads()
    );
}
