//! Allocation-count regression test for the zero-allocation hot path.
//!
//! Inline task records (`TaskSlot`) and the result slab (the completion
//! slots behind futures) make the claim that the steady-state delegation
//! loop — re-delegating a small void closure into an already-pinned
//! serialization set over the SPSC transport — performs **zero heap
//! allocations per operation**. This binary installs a counting global
//! allocator and holds that claim as a hard regression gate: any future
//! change that sneaks a `Box`, `Arc`, or `Vec` growth back into
//! `Writable::delegate` → `Runtime::submit` → SPSC push will fail here
//! deterministically, not as a benchmark blip.
//!
//! The measured window covers only steady-state delegation: warmup runs
//! first (one full epoch plus in-epoch operations) so all lazy
//! initialization — delegate-thread parking structures, the epoch-state
//! reader lists, help-state vector growth — happens outside the window.
//! Epoch boundaries stay outside the window too; that they do not
//! allocate either is the repo benchmark's
//! `harness.allocs_per_epoch_boundary` to hold, not this file's.
//!
//! This binary opts out of the libtest harness (`harness = false` in
//! Cargo.toml): the harness runs sibling tests on parallel threads and
//! its result bookkeeping (formatting, channel sends) allocates
//! in-process, so with a process-global counter a sibling's teardown
//! could land inside an open measured window. A sequential `main`
//! removes every other allocation source while a window is open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use prometheus_rs::prelude::*;

/// Counts every allocation (alloc, alloc_zeroed, realloc) from every
/// thread; frees are not counted — the gate is on acquisition.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn steady_state_delegation_does_not_allocate() {
    const WARMUP: u64 = 10_000;
    const MEASURED: u64 = 10_000;
    let rt = Runtime::builder()
        .delegate_threads(1)
        .queue_capacity(4096)
        .build()
        .unwrap();
    let obj: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);

    // Warmup epoch: first-touch state transitions, delegate-thread lazy
    // structures, parking-lot thread data.
    rt.begin_isolation().unwrap();
    for _ in 0..WARMUP {
        obj.delegate(|n| *n += 1).unwrap();
    }
    rt.end_isolation().unwrap();

    // Measured epoch: enter the epoch and re-pin the set before
    // snapshotting, so only steady-state re-delegation is counted.
    rt.begin_isolation().unwrap();
    for _ in 0..100 {
        obj.delegate(|n| *n += 1).unwrap();
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..MEASURED {
        obj.delegate(|n| *n += 1).unwrap();
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    rt.end_isolation().unwrap();

    assert_eq!(
        obj.call(|n| *n).unwrap(),
        WARMUP + 100 + MEASURED,
        "every delegated operation must have executed"
    );
    assert_eq!(
        delta, 0,
        "steady-state delegation hot loop allocated {delta} times in {MEASURED} ops"
    );

    // The closure (zero captures; the packaged record is the object's
    // `Arc`) must have taken the inline path — the boxed fallback
    // would show up as an allocation above, but assert the accounting
    // explicitly so the split is visible in stats too.
    let stats = rt.stats();
    assert_eq!(stats.tasks_boxed, 0, "small closures must be stored inline");
    assert_eq!(stats.tasks_inline, WARMUP + 100 + MEASURED);
}

/// The same gate for the multi-tenant path: steady-state re-delegation
/// *inside an open session* must also be allocation-free. The session
/// layer adds a composite routing key, a per-session pin-map probe and
/// two atomic counters to the hot path — arithmetic and lock-free
/// structure reuse, none of which may touch the heap once the pin and the
/// shard entry exist. (Session `begin`/`end_isolation` and session
/// futures — whose slab grows in its first epochs — legitimately
/// allocate and stay outside the window.)
///
/// Session pushes travel the multi-producer injector lane, not the SPSC
/// ring (the ring's producer is owned by the root program thread), and
/// the lane is an unbounded `VecDeque` that grows amortized whenever the
/// backlog tops every previous peak. The `session_queue_cap` below is
/// therefore load-bearing: the fairness cap bounds the session's backlog,
/// and session open pre-reserves every lane to the cap, so the measured
/// window can never see a lane grow. Without the cap this gate would be
/// schedule-dependent — whether the measured epoch's peak backlog exceeds
/// the warmup's is up to the OS scheduler.
fn session_steady_state_delegation_does_not_allocate() {
    const WARMUP: u64 = 10_000;
    const MEASURED: u64 = 10_000;
    let rt = Runtime::builder()
        .delegate_threads(1)
        .queue_capacity(4096)
        .session_queue_cap(2048)
        .build()
        .unwrap();
    let session = rt.session().unwrap();
    let obj: Writable<u64, SequenceSerializer> = Writable::new(&session, 0);

    // Warmup epoch: tenant registration, the session's shard-map entry,
    // first-touch pin, delegate-side lazy structures.
    session.begin_isolation().unwrap();
    for _ in 0..WARMUP {
        obj.delegate(|n| *n += 1).unwrap();
    }
    session.end_isolation().unwrap();

    // Measured epoch: enter the session epoch and re-pin the set before
    // snapshotting, so only steady-state re-delegation is counted.
    session.begin_isolation().unwrap();
    for _ in 0..100 {
        obj.delegate(|n| *n += 1).unwrap();
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..MEASURED {
        obj.delegate(|n| *n += 1).unwrap();
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    session.end_isolation().unwrap();

    assert_eq!(
        obj.call(|n| *n).unwrap(),
        WARMUP + 100 + MEASURED,
        "every session-delegated operation must have executed"
    );
    assert_eq!(
        delta, 0,
        "session steady-state hot loop allocated {delta} times in {MEASURED} ops"
    );

    let s = session.session_stats();
    assert_eq!(s.submitted, WARMUP + 100 + MEASURED);
    assert_eq!(s.completed, WARMUP + 100 + MEASURED);
    assert_eq!(s.in_flight, 0);
}

/// The same gate for the memoization fast path: once a fingerprinted
/// result is published and the set's generation is stable, every
/// re-submission through `delegate_memo` is a pure cache hit — a sharded
/// lookup, two atomic bumps, and a future born ready with the value held
/// *inline* (no completion slot is issued, so the hit path is
/// independent of the result slab). Ten thousand hits — each
/// including the `wait()` that consumes the born-ready future — must not
/// touch the heap at all. The single miss that populates the entry, and
/// the epoch boundaries, stay outside the window as usual.
fn memo_hit_resubmission_does_not_allocate() {
    const MEASURED: u64 = 10_000;
    let rt = Runtime::builder()
        .delegate_threads(1)
        .queue_capacity(4096)
        .memo_capacity(64)
        .build()
        .unwrap();
    let obj: Writable<u64, SequenceSerializer> = Writable::new(&rt, 7);

    // Warmup epoch: the one real execution publishes the entry (the
    // epoch barrier guarantees the delegate has executed and published
    // before the measured epoch opens).
    rt.begin_isolation().unwrap();
    let first = obj
        .delegate_memo(fingerprint_of(&42u64), |n| *n * 3)
        .unwrap();
    rt.end_isolation().unwrap();
    assert_eq!(first.wait().unwrap(), 21);

    // Measured epoch: re-enter, absorb any epoch-entry lazy work with a
    // short in-epoch warmup, then count.
    rt.begin_isolation().unwrap();
    for _ in 0..100 {
        let fut = obj
            .delegate_memo(fingerprint_of(&42u64), |n| *n * 3)
            .unwrap();
        assert_eq!(fut.wait().unwrap(), 21);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..MEASURED {
        let fut = obj
            .delegate_memo(fingerprint_of(&42u64), |n| *n * 3)
            .unwrap();
        assert_eq!(fut.wait().unwrap(), 21);
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    rt.end_isolation().unwrap();

    assert_eq!(
        delta, 0,
        "memo-hit re-submission allocated {delta} times in {MEASURED} hits"
    );
    let stats = rt.stats();
    assert_eq!(stats.memo_misses, 1, "only the first submission executes");
    assert_eq!(stats.memo_hits, 100 + MEASURED);
    // Hits never issue a completion slot or enqueue a task: the one
    // miss is the only operation the delegate ever saw.
    assert_eq!(stats.tasks_inline + stats.tasks_boxed, 1);
}

/// The same gate for future-returning delegation. A `delegate_with`
/// record is the object's `Arc`, the completion slot's one-word sender
/// and the user closure — three words with a one-word capture, so it
/// rides inline in the `TaskSlot` like a void record — and the slot
/// itself comes from the domain's result slab, which keeps what recent
/// epochs used: a warm-up epoch that issued as many slots as the measured
/// one leaves all of them reusable. The window covers the submits only
/// (the futures land in a pre-sized `Vec`); `wait_all`'s result `Vec` is
/// the caller's.
fn steady_state_future_delegation_does_not_allocate() {
    const MEASURED: u64 = 10_000;
    const WARMUP: u64 = 100 + MEASURED;
    let rt = Runtime::builder()
        .delegate_threads(1)
        .queue_capacity(4096)
        .build()
        .unwrap();
    let obj: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
    let mut futures: Vec<SsFuture<u64>> = Vec::with_capacity(WARMUP as usize);
    let mut expected = 0u64;
    let mut submit = |k: u64, futures: &mut Vec<SsFuture<u64>>| {
        expected += k;
        futures.push(
            obj.delegate_with(move |n| {
                *n += k;
                *n
            })
            .unwrap(),
        );
    };

    // Warm-up epoch, sized to the measured one: every slot the measured
    // epoch will draw is created here, and the slab's chunks and the
    // delegate's lazy structures reach their steady size.
    rt.begin_isolation().unwrap();
    for k in 0..WARMUP {
        submit(k, &mut futures);
    }
    SsFuture::wait_all(futures.drain(..)).unwrap();
    rt.end_isolation().unwrap();
    let created = rt.cell_pool_stats().2;
    assert_eq!(created, WARMUP, "one slot per warm-up future");

    rt.begin_isolation().unwrap();
    for k in 0..100 {
        submit(k, &mut futures);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for k in 0..MEASURED {
        submit(k, &mut futures);
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    let last = futures.pop().unwrap().wait().unwrap();
    drop(futures);
    rt.end_isolation().unwrap();

    assert_eq!(
        last, expected,
        "every delegated operation must have executed"
    );
    assert_eq!(
        delta, 0,
        "steady-state future delegation allocated {delta} times in {MEASURED} ops"
    );
    let stats = rt.stats();
    assert_eq!(stats.tasks_boxed, 0, "future records must be stored inline");
    assert_eq!(stats.tasks_inline, 2 * WARMUP);
    assert_eq!(stats.futures_resolved, 2 * WARMUP);
    assert_eq!(
        rt.cell_pool_stats().2,
        created,
        "the second epoch must reuse the first one's slots"
    );
}

/// The memo-miss path: a miss's `(key, fingerprint, generation)` stamp
/// rides in its completion slot's header, so the invocation — object
/// `Arc`, slot sender, user closure — fits the `TaskSlot` inline words
/// like a plain future's, and a steady run of misses allocates nothing.
/// Every fingerprint is new, so every submission misses, executes and
/// publishes.
fn memo_miss_delegation_does_not_allocate() {
    const MEASURED: u64 = 5_000;
    let rt = Runtime::builder()
        .delegate_threads(1)
        .queue_capacity(4096)
        .memo_capacity(1024)
        .build()
        .unwrap();
    let obj: Writable<u64, SequenceSerializer> = Writable::new(&rt, 7);
    let epoch = |first: u64| {
        rt.begin_isolation().unwrap();
        let before = ALLOCS.load(Ordering::Relaxed);
        for fp in first..first + MEASURED {
            let fut = obj.delegate_memo(fp, |n| *n * 3).unwrap();
            assert_eq!(fut.wait().unwrap(), 21);
        }
        let delta = ALLOCS.load(Ordering::Relaxed) - before;
        rt.end_isolation().unwrap();
        delta
    };
    // Warm-up epoch: slab chunks, memo shards, delegate lazy structures.
    epoch(0);
    let delta = epoch(MEASURED);
    assert_eq!(
        delta, 0,
        "memo-miss delegation allocated {delta} times in {MEASURED} misses"
    );
    let stats = rt.stats();
    assert_eq!(stats.memo_misses, 2 * MEASURED, "every submission missed");
    assert_eq!(
        stats.tasks_boxed, 0,
        "memo-miss records must be stored inline"
    );
    assert_eq!(stats.tasks_inline, 2 * MEASURED);
}

/// The result slab keeps what a recurring demand needs across the small
/// epochs between its large ones: two 16 384-future epochs separated by
/// 32 one-future epochs (a probe between blocks of work), and the second
/// large epoch constructs no slot and allocates nothing.
fn recurring_future_burst_does_not_reallocate() {
    const BURST: usize = 16_384;
    let rt = Runtime::builder()
        .delegate_threads(1)
        .queue_capacity(4096)
        .build()
        .unwrap();
    let obj: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
    let mut futures: Vec<SsFuture<u64>> = Vec::with_capacity(BURST);
    let burst = |futures: &mut Vec<SsFuture<u64>>| {
        rt.begin_isolation().unwrap();
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..BURST {
            futures.push(
                obj.delegate_with(|n| {
                    *n += 1;
                    *n
                })
                .unwrap(),
            );
        }
        for f in futures.drain(..) {
            f.wait().unwrap();
        }
        let delta = ALLOCS.load(Ordering::Relaxed) - before;
        rt.end_isolation().unwrap();
        delta
    };
    burst(&mut futures);
    let created = rt.cell_pool_stats().2;
    assert_eq!(
        created, BURST as u64,
        "one slot per future of the first burst"
    );
    for _ in 0..32 {
        rt.begin_isolation().unwrap();
        obj.delegate_with(|n| *n).unwrap().wait().unwrap();
        rt.end_isolation().unwrap();
    }
    let delta = burst(&mut futures);
    assert_eq!(
        delta, 0,
        "a recurring {BURST}-future epoch allocated {delta} times"
    );
    assert_eq!(
        rt.cell_pool_stats(),
        (BURST, 0, created),
        "the second burst must reuse the first one's slots"
    );
    assert_eq!(obj.call(|n| *n).unwrap(), 2 * BURST as u64);
}

fn main() {
    for (name, gate) in [
        (
            "steady_state_delegation_does_not_allocate",
            steady_state_delegation_does_not_allocate as fn(),
        ),
        (
            "session_steady_state_delegation_does_not_allocate",
            session_steady_state_delegation_does_not_allocate,
        ),
        (
            "memo_hit_resubmission_does_not_allocate",
            memo_hit_resubmission_does_not_allocate,
        ),
        (
            "steady_state_future_delegation_does_not_allocate",
            steady_state_future_delegation_does_not_allocate,
        ),
        (
            "memo_miss_delegation_does_not_allocate",
            memo_miss_delegation_does_not_allocate,
        ),
        (
            "recurring_future_burst_does_not_reallocate",
            recurring_future_burst_does_not_reallocate,
        ),
    ] {
        gate();
        println!("alloc gate {name} ... ok");
    }
}
