//! Thread placement: one thread per CPU, fixed for the run.
//!
//! The program thread and a delegate exchange a cache line per operation.
//! Left to the scheduler they drift between sharing a CPU and having one
//! each, and the tiny-operation workloads run at either of two speeds a
//! factor of two apart — run-to-run spreads of 15% where the regression
//! bounds are 7%. So the harness places the threads: the program thread on
//! the first CPU this process may use, the runtime's delegate threads on
//! the following ones. With `Runtime::builder()`'s `nproc - 1` delegates
//! that is one thread per CPU. The runtime has no affinity API; its
//! threads are found as the tasks that appear in `/proc/self/task` while
//! it is built. Anywhere this cannot be done (no `/proc`, a refused call)
//! the run goes on unplaced.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use prometheus_rs::prelude::{Runtime, RuntimeBuilder};

/// Words of the kernel's `cpu_set_t` (1024 bits).
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process was allowed when it started, ascending.
fn allowed_cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask = [0u64; MASK_WORDS];
        #[cfg(target_os = "linux")]
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let ok = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } == 0;
        #[cfg(not(target_os = "linux"))]
        let ok = false;
        if !ok {
            return Vec::new();
        }
        (0..MASK_WORDS * 64)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    })
}

/// Restricts thread `tid` (0 = the caller) to `cpus`.
fn restrict(tid: i32, cpus: &[usize]) {
    if cpus.is_empty() {
        return;
    }
    let mut mask = [0u64; MASK_WORDS];
    for cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    #[cfg(target_os = "linux")]
    // SAFETY: `mask` is a readable buffer of exactly the size passed; the
    // call changes scheduling only.
    unsafe {
        sched_setaffinity(tid, size_of_val(&mask), mask.as_ptr());
    }
}

/// Binds thread `tid` to the `slot`-th allowed CPU, wrapping around when
/// there are more threads than CPUs.
fn bind(tid: i32, slot: usize) {
    let cpus = allowed_cpus();
    if !cpus.is_empty() {
        restrict(tid, &[cpus[slot % cpus.len()]]);
    }
}

/// Binds the calling thread to the `slot`-th allowed CPU. Slot 0 is the
/// program thread's.
pub fn this_thread(slot: usize) {
    bind(0, slot);
}

/// CPUs this process may use: what `available_parallelism` said before
/// any thread was bound.
pub fn nproc() -> usize {
    match allowed_cpus().len() {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

fn tasks() -> BTreeSet<i32> {
    std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse().ok())
        .collect()
}

/// Builds the runtime from the calling (program) thread and binds the
/// program thread to slot 0, the threads the runtime spawned to slots
/// 1, 2, ... The builder sizes its delegate pool from the CPUs the
/// calling thread may use, so the caller gets all of them back first.
pub fn build(builder: RuntimeBuilder) -> Runtime {
    restrict(0, allowed_cpus());
    let before = tasks();
    let rt = builder.build().expect("runtime builds");
    for (i, tid) in tasks().difference(&before).enumerate() {
        bind(*tid, 1 + i);
    }
    this_thread(0);
    rt
}
