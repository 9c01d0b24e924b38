//! Property-based tests: both SPSC queues must behave exactly like a bounded
//! FIFO (`VecDeque` model), for arbitrary interleavings of push/pop issued
//! from the correct sides.

use proptest::prelude::*;
use ss_queue::SpscQueue;
use std::collections::VecDeque;

#[derive(Debug, Clone)]
enum Op {
    Push(u32),
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => any::<u32>().prop_map(Op::Push),
        1 => Just(Op::Pop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fastforward_matches_fifo_model(
        cap in 1usize..32,
        ops in proptest::collection::vec(op_strategy(), 0..200),
    ) {
        let (tx, rx) = SpscQueue::with_capacity(cap);
        let real_cap = tx.capacity();
        let mut model: VecDeque<u32> = VecDeque::new();
        for op in ops {
            match op {
                Op::Push(v) => {
                    let ok = tx.try_push(v).is_ok();
                    let model_ok = model.len() < real_cap;
                    prop_assert_eq!(ok, model_ok, "push admission must match model");
                    if model_ok { model.push_back(v); }
                }
                Op::Pop => {
                    let got = rx.try_pop().value();
                    prop_assert_eq!(got, model.pop_front());
                }
            }
        }
        // Drain: remaining elements must come out in order.
        drop(tx);
        let mut rest = Vec::new();
        while let Some(v) = rx.pop_blocking() { rest.push(v); }
        prop_assert_eq!(rest, model.into_iter().collect::<Vec<_>>());
    }

    /// Cross-thread: arbitrary payload vectors survive the handoff verbatim.
    #[test]
    fn cross_thread_payload_preserved(
        values in proptest::collection::vec(any::<u64>(), 0..2000),
        cap in 1usize..64,
    ) {
        let (tx, rx) = SpscQueue::with_capacity(cap);
        let expected = values.clone();
        let received = std::thread::scope(|s| {
            s.spawn(move || {
                for v in values {
                    tx.push_blocking(v).unwrap();
                }
            });
            let h = s.spawn(move || {
                let mut out = Vec::new();
                while let Some(v) = rx.pop_blocking() { out.push(v); }
                out
            });
            h.join().unwrap()
        });
        prop_assert_eq!(received, expected);
    }
}
