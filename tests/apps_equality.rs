//! Cross-implementation equality for every Table 2 benchmark: for several
//! seeds and runtime shapes, `seq == cp == ss` (exactly, except kmeans whose
//! float sums legally reorder — compared within tolerance and by rounded
//! fingerprint).

use prometheus_rs::prelude::*;
use prometheus_rs::ss_apps::*;
use prometheus_rs::ss_workloads as work;

fn runtimes() -> Vec<Runtime> {
    vec![
        Runtime::builder().delegate_threads(1).build().unwrap(),
        Runtime::builder().delegate_threads(3).build().unwrap(),
        // A four-slot ring: the program thread retracts sets and runs
        // them.
        Runtime::builder()
            .delegate_threads(2)
            .queue_capacity(4)
            .build()
            .unwrap(),
        // The debug build: every set on the program thread.
        Runtime::builder().delegate_threads(0).build().unwrap(),
        Runtime::builder().delegate_threads(2).build().unwrap(),
    ]
}

#[test]
fn blackscholes_equality() {
    for seed in [1, 2] {
        let opts = work::options::options(4_000, seed);
        let expect = blackscholes::seq(&opts);
        assert_eq!(blackscholes::cp(&opts, 4), expect);
        let shared = ReadOnly::new(opts);
        for rt in runtimes() {
            assert_eq!(blackscholes::ss(&shared, &rt), expect);
        }
    }
}

#[test]
fn histogram_equality() {
    let img = work::bitmap::bitmap(513, 211, 3);
    let expect = histogram::seq(&img);
    assert_eq!(histogram::cp(&img, 5), expect);
    let shared = ReadOnly::new(img);
    for rt in runtimes() {
        assert_eq!(histogram::ss(&shared, &rt), expect);
    }
}

#[test]
fn word_count_equality() {
    let text = work::text::corpus(&work::text::TextParams {
        bytes: 80_000,
        vocabulary: 2_000,
        zipf_s: 1.0,
        seed: 4,
    });
    let expect = word_count::seq(&text);
    assert_eq!(word_count::cp(&text, 4), expect);
    let shared = ReadOnly::new(text);
    for rt in runtimes() {
        assert_eq!(word_count::ss(&shared, &rt), expect);
    }
}

#[test]
fn reverse_index_equality() {
    let tree = work::html::tree(&work::html::HtmlParams {
        files: 80,
        link_pool: 120,
        links_per_file: 8,
        body_bytes: 512,
        seed: 5,
        ..Default::default()
    });
    let expect = reverse_index::seq(&tree);
    assert_eq!(reverse_index::cp(&tree, 4), expect);
    for rt in runtimes() {
        assert_eq!(reverse_index::ss(&tree, &rt), expect);
    }
}

#[test]
fn kmeans_equality() {
    let ps = work::points::points(&work::points::PointParams {
        n: 2_000,
        dims: 6,
        k_true: 8,
        spread: 1.5,
        noise: 0.05,
        seed: 6,
    });
    let expect = kmeans::seq(&ps, 8);
    assert!(kmeans::cp(&ps, 8, 4).approx_eq(&expect, 1e-9));
    let shared = ReadOnly::new(ps);
    for rt in runtimes() {
        assert!(kmeans::ss(&shared, 8, &rt).approx_eq(&expect, 1e-9));
        assert!(kmeans::ss_paper(&shared, 8, &rt).approx_eq(&expect, 1e-9));
    }
}

#[test]
fn barnes_hut_equality() {
    let bodies = work::bodies::plummer(500, 7);
    let expect = barnes_hut::fingerprint(&barnes_hut::seq(&bodies, 2));
    assert_eq!(
        barnes_hut::fingerprint(&barnes_hut::cp(&bodies, 2, 4)),
        expect
    );
    for rt in runtimes() {
        assert_eq!(
            barnes_hut::fingerprint(&barnes_hut::ss(&bodies, 2, &rt)),
            expect
        );
    }
}

#[test]
fn dedup_equality_and_roundtrip() {
    let data = work::stream::stream(&work::stream::StreamParams {
        bytes: 200_000,
        dup_fraction: 0.5,
        seed: 8,
        ..Default::default()
    });
    let expect = dedup::seq(&data);
    assert_eq!(dedup::restore(&expect).unwrap(), data);
    assert_eq!(dedup::cp(&data, 4), expect);
    let shared = ReadOnly::new(data);
    for rt in runtimes() {
        assert_eq!(dedup::ss(&shared, &rt), expect);
    }
}

#[test]
fn freqmine_equality() {
    let txs = work::transactions::transactions(&work::transactions::TxParams {
        count: 600,
        items: 100,
        patterns: 12,
        pattern_len: 4,
        patterns_per_tx: 2,
        corruption: 0.15,
        seed: 9,
    });
    let expect = freqmine::seq(&txs);
    assert!(!expect.is_empty());
    assert_eq!(freqmine::cp(&txs, 4), expect);
    for rt in runtimes() {
        assert_eq!(freqmine::ss(&txs, &rt), expect);
    }
}

#[test]
fn matmul_equality_all_serializers() {
    let a = matmul::Matrix::random(40, 28, 10);
    let b = matmul::Matrix::random(28, 36, 11);
    let expect = matmul::seq(&a, &b);
    assert_eq!(matmul::cp(&a, &b, 3), expect);
    for rt in runtimes() {
        assert_eq!(matmul::ss_element(&a, &b, &rt), expect);
        assert_eq!(matmul::ss_row(&a, &b, &rt), expect);
        assert_eq!(matmul::ss_row_blocked(&a, &b, &rt), expect);
    }
}

#[test]
fn nested_fanout_equality() {
    // The recursive-delegation kernel: depth-3 fan-out delegated from the
    // context each operation runs in — a delegate's, or the program
    // thread's (serial mode, and the four-slot ring below, where the
    // program thread retracts sets).
    let shape = nested::shape(ss_workloads::scale::Scale::S);
    let seeds = nested::seeds(shape.roots, 77);
    let expect = nested::seq(&seeds, shape);
    assert_eq!(nested::cp(&seeds, shape, 4), expect);
    for rt in runtimes() {
        assert_eq!(nested::ss(&seeds, shape, &rt), expect, "{rt:?}");
    }
}

#[test]
fn map_reduce_equality() {
    // The future-returning kernel: map via `delegate_with`, reduce by
    // waiting the futures in shard order — no shared accumulator. Must be
    // bit-identical to seq/cp on every runtime shape (inline execution
    // hands back ready futures).
    let data = map_reduce::input(map_reduce::shape(ss_workloads::scale::Scale::S), 31);
    let expect = map_reduce::seq(&data);
    assert_eq!(map_reduce::cp(&data, 4), expect);
    for rt in runtimes() {
        assert_eq!(map_reduce::ss(&data, &rt), expect, "{rt:?}");
    }
}

#[test]
fn txn_kv_equality() {
    let txs = work::transactions::transactions(&work::transactions::TxParams {
        count: 800,
        items: 200,
        seed: 12,
        ..Default::default()
    });
    let expect = txn_kv::seq(&txs, 200);
    assert_eq!(txn_kv::cp(&txs, 200, 4), expect);
    for rt in runtimes() {
        assert_eq!(txn_kv::ss(&txs, 200, &rt), expect, "{rt:?}");
    }
}

#[test]
fn vfs_stat_equality() {
    let fs = work::html::tree(&work::html::HtmlParams {
        files: 90,
        body_bytes: 768,
        seed: 13,
        ..Default::default()
    });
    let expect = vfs_stat::seq(&fs);
    assert_eq!(vfs_stat::cp(&fs, 4), expect);
    for rt in runtimes() {
        assert_eq!(vfs_stat::ss(&fs, &rt), expect, "{rt:?}");
    }
}

/// The same runtime shapes as [`runtimes`], with the serializability
/// auditor fully on. A violation would surface as an
/// `SsError::SerializabilityViolation` from `end_isolation` (the kernels
/// unwrap it), so passing this sweep is a zero-false-positive check over
/// every registry kernel in addition to the equality check.
fn audited_runtimes() -> Vec<Runtime> {
    vec![
        Runtime::builder()
            .delegate_threads(1)
            .audit(AuditMode::Full)
            .build()
            .unwrap(),
        Runtime::builder()
            .delegate_threads(3)
            .audit(AuditMode::Full)
            .build()
            .unwrap(),
        Runtime::builder()
            .delegate_threads(2)
            .queue_capacity(4)
            .audit(AuditMode::Full)
            .build()
            .unwrap(),
        Runtime::builder()
            .delegate_threads(2)
            .audit(AuditMode::Full)
            .build()
            .unwrap(),
        Runtime::builder()
            .delegate_threads(2)
            .audit(AuditMode::Sample(2))
            .build()
            .unwrap(),
    ]
}

#[test]
fn registry_audited_full_certifies() {
    // Every registry kernel, audited end to end: outputs must still match
    // the sequential oracle, every epoch must certify (no violation error),
    // and the auditor must actually have observed work.
    for rt in audited_runtimes() {
        for spec in registry() {
            let inst = (spec.make)(ss_workloads::scale::Scale::S);
            if spec.name == "dedup" || spec.name == "barnes-hut" {
                continue; // slow at S under repeated sweeps; covered above
            }
            assert_eq!(inst.run_seq(), inst.run_ss(&rt), "{} audited", spec.name);
        }
        let s = rt.stats();
        assert!(s.epochs_audited > 0, "auditor never engaged: {s:?}");
        assert!(s.audit_edges > 0, "auditor saw no operations: {s:?}");
    }
}

#[test]
fn registry_scale_s_smoke() {
    // The harness path end-to-end: build each registry entry at scale S and
    // verify fingerprint agreement once (full sweeps live in ss-bench).
    let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    for spec in registry() {
        let inst = (spec.make)(ss_workloads::scale::Scale::S);
        let expect = inst.run_seq();
        assert_eq!(expect, inst.run_cp(2), "{}", spec.name);
        assert_eq!(expect, inst.run_ss(&rt), "{}", spec.name);
    }
}
