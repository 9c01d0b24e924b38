//! Criterion microbenchmarks for the communication-queue substrate: the
//! FastForward ring's single-threaded cycle cost and cross-thread
//! transfer (the §4 "cache-optimized lock-free queue" claim).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ss_queue::SpscQueue;
use std::hint::black_box;

fn single_thread_cycles(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue/single_thread_cycle");
    g.throughput(Throughput::Elements(1));
    g.bench_function("fastforward", |b| {
        let (tx, rx) = SpscQueue::with_capacity(64);
        b.iter(|| {
            tx.try_push(black_box(1u64)).unwrap();
            black_box(rx.try_pop().value().unwrap());
        });
    });
    g.finish();
}

fn cross_thread_transfer(c: &mut Criterion) {
    const N: u64 = 100_000;
    let mut g = c.benchmark_group("queue/cross_thread_transfer");
    g.sample_size(10);
    g.throughput(Throughput::Elements(N));
    for cap in [256usize, 2048] {
        g.bench_with_input(BenchmarkId::new("fastforward", cap), &cap, |b, &cap| {
            b.iter(|| {
                let (tx, rx) = SpscQueue::with_capacity(cap);
                std::thread::scope(|s| {
                    s.spawn(move || {
                        for i in 0..N {
                            tx.push_blocking(i).unwrap();
                        }
                    });
                    s.spawn(move || {
                        let mut sum = 0u64;
                        while let Some(v) = rx.pop_blocking() {
                            sum = sum.wrapping_add(v);
                        }
                        black_box(sum);
                    });
                });
            });
        });
    }
    g.finish();
}

criterion_group!(benches, single_thread_cycles, cross_thread_transfer);
criterion_main!(benches);
