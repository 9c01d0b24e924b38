//! The future round-trip probe, and the bare hand-off it is compared with.
//!
//! A round trip is `delegate_with` to `wait()` returning, with one
//! operation outstanding. Both threads sleep in it — `wait` parks the
//! program thread, the idle delegate parks after ~10 µs — so on this host
//! it is two cross-CPU thread wake-ups (~25 µs each under KVM) around a
//! microsecond of runtime. What a wake-up costs drifts with the host by
//! 30% on a scale of seconds to minutes, far more than any change to the
//! runtime short of removing a sleep. So the end-to-end metric is the
//! round trip as a multiple of a *hand-off*: the same two wake-ups with
//! nothing between them (`park`/`unpark` ping-pong with a helper thread on
//! the delegate's CPU), sampled alternately in the same tens of
//! milliseconds. The raw microseconds are per-layer metrics.
//!
//! The probe runs in short epochs between the blocks of the main program,
//! so its samples span the whole run.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use prometheus_rs::prelude::{Runtime, Writable};

use crate::metrics::Metrics;
use crate::pin;
use crate::stats::{median_ns, percentile_ns};
use crate::synth::Obj;
use crate::trace::{push, SAMPLE_CAPACITY};

const IDLE: u32 = 0;
const PING: u32 = 1;
const PONG: u32 = 2;
const STOP: u32 = 3;

/// Round trips (and hand-offs) per probe epoch.
const PER_EPOCH: u64 = 200;

pub struct RoundTrips {
    rt: Runtime,
    obj: Obj,
    expected: u64,
    spent: Duration,
    ball: Arc<AtomicU32>,
    helper: Option<JoinHandle<()>>,
    helper_thread: Thread,
    pub samples: Vec<u32>,
    pub handoffs: Vec<u32>,
    pub attempted: u64,
    pub failed: u64,
}

impl RoundTrips {
    /// Called from the program thread of `rt`.
    pub fn new(rt: &Runtime) -> RoundTrips {
        let ball = Arc::new(AtomicU32::new(IDLE));
        let (theirs, main) = (Arc::clone(&ball), std::thread::current());
        let helper = std::thread::spawn(move || {
            pin::this_thread(1);
            loop {
                match theirs.load(Ordering::Acquire) {
                    PING => {
                        theirs.store(PONG, Ordering::Release);
                        main.unpark();
                    }
                    STOP => return,
                    _ => std::thread::park(),
                }
            }
        });
        RoundTrips {
            rt: rt.clone(),
            obj: Writable::new(rt, 0),
            expected: 0,
            spent: Duration::ZERO,
            ball,
            helper_thread: helper.thread().clone(),
            helper: Some(helper),
            samples: Vec::with_capacity(SAMPLE_CAPACITY),
            handoffs: Vec::with_capacity(SAMPLE_CAPACITY),
            attempted: 0,
            failed: 0,
        }
    }

    /// Runs probe epochs until the probe has used `target` in all.
    pub fn catch_up(&mut self, target: Duration) {
        while self.spent < target {
            let start = Instant::now();
            self.failed += self.rt.begin_isolation().is_err() as u64;
            for _ in 0..PER_EPOCH {
                self.expected += 1;
                let t0 = Instant::now();
                let got = self
                    .obj
                    .delegate_with(|s| {
                        *s += 1;
                        *s
                    })
                    .and_then(|f| f.wait());
                push(&mut self.samples, t0.elapsed());
                self.failed += (got != Ok(self.expected)) as u64;
            }
            self.failed += self.rt.end_isolation().is_err() as u64;
            self.attempted += PER_EPOCH;
            // The delegate parks within microseconds of the epoch's end;
            // the helper has been parked since its last hand-off.
            for _ in 0..PER_EPOCH {
                let t0 = Instant::now();
                self.ball.store(PING, Ordering::Release);
                self.helper_thread.unpark();
                while self.ball.load(Ordering::Acquire) != PONG {
                    std::thread::park();
                }
                push(&mut self.handoffs, t0.elapsed());
                self.ball.store(IDLE, Ordering::Release);
            }
            self.spent += start.elapsed();
        }
    }

    /// The end-to-end metric: median round trip ÷ median hand-off.
    pub fn vs_handoff(&self) -> f64 {
        median_ns(&self.samples) / median_ns(&self.handoffs)
    }

    /// The raw microseconds, for the traced pass.
    pub fn layer_metrics(&self, m: &mut Metrics) {
        m.set("core.future.rtt_p50_us", median_ns(&self.samples) / 1e3);
        m.set(
            "core.future.rtt_p99_us",
            percentile_ns(&self.samples, 0.99) / 1e3,
        );
        m.set("harness.handoff_p50_us", median_ns(&self.handoffs) / 1e3);
    }
}

impl Drop for RoundTrips {
    fn drop(&mut self) {
        self.ball.store(STOP, Ordering::Release);
        self.helper_thread.unpark();
        if let Some(helper) = self.helper.take() {
            // The helper's loop cannot fail; its join has nothing to report.
            let _ = helper.join();
        }
    }
}
