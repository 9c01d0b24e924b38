//! Table 1 coverage: every entry of the Prometheus API has a working Rust
//! counterpart. Each test exercises one row of the paper's API table, so
//! this file is the executable version of DESIGN.md's Table 1 mapping.

use prometheus_rs::prelude::*;

/// `initialize` / `terminate`.
#[test]
fn initialize_and_terminate() {
    let rt = Runtime::builder().delegate_threads(1).build().unwrap();
    assert_eq!(rt.delegate_threads(), 1);
    rt.shutdown().unwrap(); // terminate
    assert_eq!(rt.begin_isolation(), Err(SsError::Terminated));
}

/// `sleep` — "puts the threads used to implement the delegate context to
/// sleep".
#[test]
fn sleep_releases_delegate_resources() {
    let rt = Runtime::builder().delegate_threads(1).build().unwrap();
    rt.sleep().unwrap();
    // Wakes transparently at the next isolation epoch.
    let w: Writable<u8> = Writable::new(&rt, 0);
    rt.isolated(|| w.delegate(|n| *n += 1).unwrap()).unwrap();
    assert_eq!(w.call(|n| *n).unwrap(), 1);
}

/// `begin_isolation` / `end_isolation`.
#[test]
fn isolation_epoch_delimiters() {
    let rt = Runtime::builder().delegate_threads(1).build().unwrap();
    rt.begin_isolation().unwrap();
    assert!(rt.in_isolation());
    rt.end_isolation().unwrap();
    assert!(!rt.in_isolation());
}

/// `read_only<T>::call` — "During an aggregation epoch, any method may be
/// called. During an isolation epoch, calling non-const methods results in
/// an error." In Rust the non-const case is unrepresentable while shared:
/// `get_mut` returns `None` whenever another handle (e.g. a queued
/// invocation) exists.
#[test]
fn read_only_call_semantics() {
    let mut ro = ReadOnly::new(vec![1, 2, 3]);
    assert_eq!(ro.get().len(), 3); // const call, any epoch
    *ro.get_mut().unwrap() = vec![4]; // "any method" while unshared
    let ro2 = ro.clone();
    assert!(ro.get_mut().is_none()); // shared ⇒ mutation unrepresentable
    drop(ro2);
}

/// `reducible<T>::call` — per-context views; "the first call in an
/// aggregation epoch causes the reduce method to execute".
#[test]
fn reducible_call_semantics() {
    struct Acc(u64);
    impl Reduce for Acc {
        fn reduce(&mut self, other: Self) {
            self.0 += other.0;
        }
    }
    let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    let r = Reducible::new(&rt, || Acc(0));
    let w: Writable<u8> = Writable::new(&rt, 0);
    rt.begin_isolation().unwrap();
    let r2 = r.clone();
    w.delegate(move |_| r2.view(|a| a.0 += 5).unwrap()).unwrap();
    r.view(|a| a.0 += 1).unwrap(); // program context's own view
    rt.end_isolation().unwrap();
    assert_eq!(r.view(|a| a.0).unwrap(), 6); // first aggregation call reduces
}

/// `writable<T,S>::call` — "calls to const methods when object is in a
/// read-only state, or calls to any method when object is in a private
/// state"; other uses error.
#[test]
fn writable_call_semantics() {
    let rt = Runtime::builder().delegate_threads(1).build().unwrap();
    let w: Writable<u32> = Writable::new(&rt, 7);
    // Aggregation: any method.
    w.call_mut(|n| *n += 1).unwrap();
    rt.begin_isolation().unwrap();
    // Isolation, read-only state: const ok, non-const errors.
    assert_eq!(w.call(|n| *n).unwrap(), 8);
    assert!(matches!(
        w.call_mut(|n| *n = 0),
        Err(SsError::StateConflict { .. })
    ));
    rt.end_isolation().unwrap();
    // Isolation, private state: any method (after implicit reclaim).
    rt.begin_isolation().unwrap();
    w.delegate(|n| *n += 1).unwrap();
    w.call_mut(|n| *n += 1).unwrap(); // reclaim + non-const
    rt.end_isolation().unwrap();
    assert_eq!(w.call(|n| *n).unwrap(), 10);
}

/// `delegate(&T::method, args…)` — internal serializer; "if object is in
/// the read-only state, generates an error"; void return enforced by the
/// closure signature; `Send` captures replace the `shared`-subtype rule.
#[test]
fn delegate_with_internal_serializer() {
    let rt = Runtime::builder().delegate_threads(1).build().unwrap();
    let w: Writable<Vec<u8>, SequenceSerializer> = Writable::new(&rt, vec![]);
    rt.begin_isolation().unwrap();
    w.delegate(|v| v.push(1)).unwrap();
    rt.end_isolation().unwrap();
    rt.begin_isolation().unwrap();
    let _ = w.call(|v| v.len()).unwrap(); // read-only state this epoch
    assert!(matches!(
        w.delegate(|v| v.push(2)),
        Err(SsError::StateConflict { .. })
    ));
    rt.end_isolation().unwrap();
}

/// `delegate(ss_t serializer, &T::method, args…)` — external serializer.
#[test]
fn delegate_with_external_serializer() {
    let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    let w: Writable<u64, NullSerializer> = Writable::new(&rt, 0);
    rt.begin_isolation().unwrap();
    w.delegate_in(SsId(99), |n| *n += 1).unwrap();
    assert_eq!(w.current_set().unwrap(), Some(SsId(99)));
    rt.end_isolation().unwrap();
}

/// `doall(vector<writable<T,S>>, &T::method, args…)`.
#[test]
fn doall_over_object_vector() {
    let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    let objs: Vec<Writable<u32, SequenceSerializer>> =
        (0..10).map(|_| Writable::new(&rt, 1)).collect();
    rt.isolated(|| doall(&objs, |n| *n *= 2).unwrap()).unwrap();
    assert!(objs.iter().all(|o| o.call(|n| *n).unwrap() == 2));
}

/// Method pointers work where the paper passes `&T::method` (closures
/// subsume them; plain `fn` items coerce).
#[test]
fn method_pointer_style_delegation() {
    struct Counter {
        n: u32,
    }
    impl Counter {
        fn bump(&mut self) {
            self.n += 1;
        }
    }
    let rt = Runtime::builder().delegate_threads(1).build().unwrap();
    let w: Writable<Counter> = Writable::new(&rt, Counter { n: 0 });
    rt.isolated(|| w.delegate(Counter::bump).unwrap()).unwrap();
    assert_eq!(w.call(|c| c.n).unwrap(), 1);
}

/// Recursive delegation (§4's future work, now implemented): a delegated
/// operation delegates further operations through the scoped
/// [`DelegateContext`] handle. The program thread waits for the parent to
/// start before it closes the epoch: the barrier's wait would otherwise
/// retract the parent and run it on the program thread itself.
#[test]
fn recursive_delegation_via_delegate_scope() {
    let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    let parent: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
    let child: Writable<Vec<u64>, SequenceSerializer> = Writable::new(&rt, Vec::new());
    let started = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    rt.begin_isolation().unwrap();
    let (rt2, child2, started2) = (rt.clone(), child.clone(), started.clone());
    parent
        .delegate(move |n| {
            started2.store(true, std::sync::atomic::Ordering::Release);
            *n += 1;
            rt2.delegate_scope(|cx| {
                assert!(cx.index() < 2);
                for i in 0..4 {
                    cx.delegate(&child2, move |v| v.push(i)).unwrap();
                }
            })
            .unwrap();
        })
        .unwrap();
    while !started.load(std::sync::atomic::Ordering::Acquire) {
        std::hint::spin_loop();
    }
    rt.end_isolation().unwrap();
    assert_eq!(child.call(|v| v.clone()).unwrap(), vec![0, 1, 2, 3]);
    assert_eq!(rt.stats().nested_delegations, 4);
    // Off a delegate thread there is no delegate context.
    assert_eq!(rt.delegate_scope(|_| ()), Err(SsError::WrongContext));
}

/// Pre-written serializers from the library: object, sequence, null,
/// closure-based (§3.1).
#[test]
fn predefined_serializers_exist() {
    let rt = Runtime::builder().delegate_threads(1).build().unwrap();
    let _a: Writable<u8, ObjectSerializer> = Writable::new(&rt, 0);
    let _b: Writable<u8, SequenceSerializer> = Writable::new(&rt, 0);
    let _c: Writable<u8, NullSerializer> = Writable::new(&rt, 0);
    let _d = Writable::with_serializer(&rt, 0u8, FnSerializer::new(|v: &u8| *v as u64));
}

/// Futures on delegated operations — the `delegate_with` family (beyond
/// Table 1: the paper requires delegated methods to be void; this repo
/// returns results through typed `SsFuture`s instead).
#[test]
fn future_returning_delegation_surface() {
    let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    let w: Writable<u64, SequenceSerializer> = Writable::new(&rt, 6);
    let null: Writable<u64, NullSerializer> = Writable::new(&rt, 1);
    rt.begin_isolation().unwrap();
    // Writable::delegate_with — internal serializer.
    let f1: SsFuture<u64> = w.delegate_with(|n| *n * 7).unwrap();
    // Writable::delegate_in_with — external serialization set.
    let f2 = null.delegate_in_with(99u64, |n| *n + 1).unwrap();
    // Runtime::delegate_with — convenience forwarding.
    let f3 = rt.delegate_with(&w, |n| *n).unwrap();
    assert_eq!(f1.set(), SsId(w.instance()));
    assert_eq!(f1.epoch(), 1);
    assert_eq!(f1.wait().unwrap(), 42);
    assert_eq!(f2.wait().unwrap(), 2);
    assert_eq!(f3.wait().unwrap(), 6);
    rt.end_isolation().unwrap();
    assert_eq!(rt.stats().futures_resolved, 3);
}
