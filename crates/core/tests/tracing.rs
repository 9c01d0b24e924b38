//! Tests for the §3.3 execution-trace facility.

use ss_core::{
    NullSerializer, Reduce, Reducible, Runtime, SequenceSerializer, SsError, SsId, TraceEvent,
    TraceExecutor, TraceKind, Writable,
};

struct Acc(u64);
impl Reduce for Acc {
    fn reduce(&mut self, other: Self) {
        self.0 += other.0;
    }
}

#[test]
fn trace_records_model_operations_in_program_order() {
    // The delegate's first claim waits until the program thread parks in
    // its reclaim: both operations are still pending when `call` checks,
    // so the reclaim always sends its token and logs `Reclaim`.
    let rt = Runtime::builder()
        .delegate_threads(1)
        .trace(true)
        .test_schedule(["sleep@p", "claim@0"])
        .build()
        .unwrap();
    let w: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
    let acc = Reducible::new(&rt, || Acc(0));

    rt.begin_isolation().unwrap();
    w.delegate(|n| *n += 1).unwrap();
    w.delegate(|n| *n += 1).unwrap();
    let _ = w.call(|n| *n).unwrap(); // reclaim + call
    rt.end_isolation().unwrap();
    rt.isolated(|| {
        let a = acc.clone();
        w.delegate(move |_| a.view(|x| x.0 += 1).unwrap()).unwrap();
    })
    .unwrap();
    let total = acc.view(|a| a.0).unwrap(); // triggers the reduction
    assert_eq!(total, 1);

    assert_eq!(rt.test_gates_remaining(), Some(0), "script not followed");
    let trace = rt.take_trace().unwrap();
    let kinds: Vec<TraceKind> = trace.iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        vec![
            TraceKind::BeginIsolation,
            TraceKind::Delegate,
            TraceKind::Delegate,
            TraceKind::Reclaim,
            TraceKind::Call,
            TraceKind::EndIsolation,
            TraceKind::BeginIsolation,
            TraceKind::Delegate,
            TraceKind::EndIsolation,
            TraceKind::Reduce,
        ],
    );
    // Sequence numbers are strictly increasing program order.
    for pair in trace.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
    }
    // Both delegations in epoch 1 carry the same object, set, and executor.
    let delegations: Vec<_> = trace
        .iter()
        .filter(|e| e.kind == TraceKind::Delegate && e.epoch == 1)
        .collect();
    assert_eq!(delegations.len(), 2);
    assert_eq!(delegations[0].object, Some(w.instance()));
    assert_eq!(delegations[0].set, delegations[1].set);
    assert_eq!(delegations[0].executor, delegations[1].executor);
}

#[test]
fn inline_executions_are_distinguished() {
    let rt = Runtime::builder()
        .delegate_threads(0)
        .trace(true)
        .build()
        .unwrap();
    let w: Writable<u64> = Writable::new(&rt, 0);
    rt.isolated(|| w.delegate(|n| *n += 1).unwrap()).unwrap();
    let trace = rt.take_trace().unwrap();
    let inline: Vec<_> = trace
        .iter()
        .filter(|e| e.kind == TraceKind::InlineExecute)
        .collect();
    assert_eq!(inline.len(), 1);
    assert_eq!(inline[0].executor, Some(TraceExecutor::Program));
}

/// `(epoch serial, object instance, set, executor)` of a trace event.
type Resolve = (u64, Option<u64>, Option<SsId>, Option<TraceExecutor>);

/// The `FutureResolve` events of `trace`, in log order.
fn resolves(trace: &[TraceEvent]) -> Vec<Resolve> {
    trace
        .iter()
        .filter(|e| e.kind == TraceKind::FutureResolve)
        .map(|e| (e.epoch, e.object, e.set, e.executor))
        .collect()
}

/// What a `FutureResolve` event reports is not carried by the operation's
/// record: the serial is the completion cell's tag, the executor is the
/// executing context's, the set is the receiver's epoch tag. Pinned here
/// for every way a future-returning operation can run.
#[test]
fn future_resolve_reports_the_delegation_site_view() {
    let delegate0 = Some(TraceExecutor::Delegate(0));
    let rt = Runtime::builder()
        .delegate_threads(1)
        .trace(true)
        .build()
        .unwrap();

    // Root, program-submitted, in the root's first epoch. The delegate
    // is running the operation before the program thread waits, so the
    // wait cannot retract it.
    let w: Writable<u64, NullSerializer> = Writable::new(&rt, 1);
    rt.begin_isolation().unwrap();
    let started = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let s = std::sync::Arc::clone(&started);
    let f = w
        .delegate_in_with(77u64, move |n| {
            s.store(true, std::sync::atomic::Ordering::Release);
            *n + 1
        })
        .unwrap();
    while !started.load(std::sync::atomic::Ordering::Acquire) {
        std::hint::spin_loop();
    }
    assert_eq!(f.wait().unwrap(), 2);
    rt.end_isolation().unwrap();
    assert_eq!(
        resolves(&rt.take_trace().unwrap()),
        vec![(1, Some(w.instance()), Some(SsId(77)), delegate0)]
    );

    // Nested: submitted and awaited by a running parent, in root epoch 2.
    let child: Writable<u64, NullSerializer> = Writable::new(&rt, 10);
    let (rt2, child2) = (rt.clone(), child.clone());
    rt.begin_isolation().unwrap();
    w.delegate_in(77u64, move |_| {
        let got = rt2
            .delegate_scope(|cx| {
                cx.delegate_in_with(&child2, 9u64, |n| *n + 1)
                    .unwrap()
                    .wait()
            })
            .unwrap();
        assert_eq!(got, Ok(11));
    })
    .unwrap();
    rt.end_isolation().unwrap();
    assert_eq!(
        resolves(&rt.take_trace().unwrap()),
        vec![(2, Some(child.instance()), Some(SsId(9)), delegate0)]
    );

    // A session, in *its* second epoch, under a set id its routing key
    // cannot represent (the key carries the tenant in the top 16 bits
    // over the id folded to 48): the event still names the set as
    // delegated.
    let wide = SsId((1 << 50) | 5);
    let session = rt.session().unwrap();
    let ws: Writable<u64, NullSerializer> = Writable::new(&session, 20);
    session.begin_isolation().unwrap();
    session.end_isolation().unwrap();
    session.begin_isolation().unwrap();
    let f = ws.delegate_in_with(wide, |n| *n + 1).unwrap();
    assert_eq!(f.wait().unwrap(), 21);
    session.end_isolation().unwrap();
    assert_eq!(
        resolves(&rt.take_trace().unwrap()),
        vec![(2, Some(ws.instance()), Some(wide), delegate0)]
    );
}

/// The inline path lends the program executor's identity.
#[test]
fn future_resolved_inline_reports_the_program_executor() {
    let rt = Runtime::builder()
        .delegate_threads(0)
        .trace(true)
        .build()
        .unwrap();
    let w: Writable<u64> = Writable::new(&rt, 0);
    rt.begin_isolation().unwrap();
    let f = w.delegate_with(|n| *n + 1).unwrap();
    let set = f.set();
    assert_eq!(f.wait().unwrap(), 1);
    rt.end_isolation().unwrap();
    assert_eq!(
        resolves(&rt.take_trace().unwrap()),
        vec![(
            1,
            Some(w.instance()),
            Some(set),
            Some(TraceExecutor::Program)
        )]
    );
}

#[test]
fn tracing_disabled_yields_empty_trace() {
    let rt = Runtime::builder().delegate_threads(1).build().unwrap();
    assert!(!rt.trace_enabled());
    let w: Writable<u64> = Writable::new(&rt, 0);
    rt.isolated(|| w.delegate(|n| *n += 1).unwrap()).unwrap();
    assert!(rt.take_trace().unwrap().is_empty());
}

#[test]
fn take_trace_requires_program_thread() {
    let rt = Runtime::builder()
        .delegate_threads(1)
        .trace(true)
        .build()
        .unwrap();
    let rt2 = rt.clone();
    std::thread::spawn(move || {
        assert_eq!(rt2.take_trace(), Err(SsError::WrongContext));
    })
    .join()
    .unwrap();
}

#[test]
fn serial_and_parallel_traces_have_identical_shape() {
    // The debug build's trace predicts the parallel run's structure:
    // same kinds, objects and sets in the same program order (executors may
    // differ — Serial runs everything inline).
    fn run(rt: &Runtime) -> Vec<(TraceKind, Option<u64>)> {
        let objs: Vec<Writable<u64, SequenceSerializer>> =
            (0..3).map(|_| Writable::new(rt, 0)).collect();
        rt.begin_isolation().unwrap();
        for i in 0..12u64 {
            objs[(i % 3) as usize].delegate(move |n| *n += i).unwrap();
        }
        let _ = objs[1].call(|n| *n).unwrap();
        rt.end_isolation().unwrap();
        rt.take_trace()
            .unwrap()
            .into_iter()
            // Normalize: object instance numbers are per-runtime; map to a
            // relative id by order of first appearance.
            .map(|e| (e.kind, e.object))
            .collect()
    }
    let serial = Runtime::builder()
        .delegate_threads(0)
        .trace(true)
        .build()
        .unwrap();
    let parallel = Runtime::builder()
        .delegate_threads(2)
        .trace(true)
        .build()
        .unwrap();
    let a = run(&serial);
    let b = run(&parallel);
    // Kinds align except Delegate↔InlineExecute and the possible absence of
    // Reclaim in serial mode (nothing is ever pending inline).
    let normalize = |v: Vec<(TraceKind, Option<u64>)>| -> Vec<TraceKind> {
        v.into_iter()
            .map(|(k, _)| match k {
                TraceKind::InlineExecute => TraceKind::Delegate,
                other => other,
            })
            .filter(|k| *k != TraceKind::Reclaim)
            .collect()
    };
    assert_eq!(normalize(a), normalize(b));
}

#[test]
fn format_trace_renders_lines() {
    let rt = Runtime::builder()
        .delegate_threads(1)
        .trace(true)
        .build()
        .unwrap();
    let w: Writable<u64> = Writable::new(&rt, 0);
    rt.isolated(|| w.delegate(|n| *n += 1).unwrap()).unwrap();
    let trace = rt.take_trace().unwrap();
    let text = ss_core::format_trace(&trace);
    assert_eq!(text.lines().count(), trace.len());
    assert!(text.contains("BeginIsolation"));
    assert!(text.contains("Delegate"));
}
