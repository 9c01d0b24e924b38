//! Harness-side spans and samples.
//!
//! Spans wrap the benchmark's own calls into the runtime (spans inside
//! the runtime are a later issue). They go into a buffer allocated before
//! the run and are written as JSON lines when the run ends. Per-name
//! totals are kept for every span, stored or not, so shares stay exact
//! when the buffer fills.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Spans kept for the trace file; later ones only add to the totals.
const SPAN_CAPACITY: usize = 1 << 16;
/// Per-vector sample capacity; nanoseconds as `u32` (4.29 s at most) keep
/// the buffers a small part of the measured process's memory.
pub const SAMPLE_CAPACITY: usize = 1 << 18;
/// One `delegate*` call in this many gets its own span. A prime, so that
/// the sampled calls rotate through the positions within a set instead of
/// always being, say, a set's first operation of the epoch.
pub const CALL_SAMPLING: usize = 61;

/// What a pair of clock reads costs with nothing between them: the part
/// of every timed call that is the timing. Subtracted from call samples.
pub fn clock_overhead() -> Duration {
    static OVERHEAD: OnceLock<Duration> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut pairs: Vec<Duration> = (0..1001)
            .map(|_| {
                let start = Instant::now();
                Instant::now() - start
            })
            .collect();
        pairs.sort();
        pairs[pairs.len() / 2]
    })
}

pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default, Clone, Copy)]
pub struct Total {
    pub count: u64,
    pub ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_id: u32,
    totals: Vec<(&'static str, Total)>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(SPAN_CAPACITY),
            next_id: 1,
            totals: Vec::with_capacity(32),
        }
    }

    /// Reserves an id, so children can name a parent that ends after them.
    pub fn alloc_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    pub fn record(
        &mut self,
        id: u32,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.duration_since(self.origin).as_nanos() as u64;
        match self.totals.iter_mut().find(|(n, _)| *n == name) {
            Some((_, t)) => {
                t.count += 1;
                t.ns += end_ns - start_ns;
            }
            None => self.totals.push((
                name,
                Total {
                    count: 1,
                    ns: end_ns - start_ns,
                },
            )),
        }
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        }
    }

    pub fn total(&self, name: &str) -> Total {
        self.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, t)| t)
            .unwrap_or_default()
    }

    /// Spans seen (stored or only totalled).
    pub fn recorded(&self) -> u64 {
        self.totals.iter().map(|(_, t)| t.count).sum()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Everything a run records about its epochs. All buffers are allocated
/// here, outside any timed or counted window.
pub struct Recorder {
    /// Wall time of each untraced epoch, `begin_isolation` called to
    /// `end_isolation` returned.
    pub epoch_ns: Vec<u32>,
    /// One untraced epoch in this many is sampled, so that a run of
    /// microsecond epochs still fits the buffer end to end.
    pub epoch_stride: u64,
    /// The same for traced epochs, and two of their four phases.
    pub traced_epoch_ns: Vec<u32>,
    pub begin_ns: Vec<u32>,
    pub end_ns: Vec<u32>,
    /// Sampled `delegate*` call times.
    pub call_ns: Vec<u32>,
    pub tracer: Tracer,
    /// Allocations between `begin_isolation` returning and
    /// `end_isolation` being called, over the counted epochs.
    pub inner_allocs: u64,
    /// Allocations inside the `begin_isolation` and `end_isolation` calls.
    pub boundary_allocs: u64,
}

impl Recorder {
    pub fn new(traced: bool) -> Recorder {
        // Calibrated here, not inside the first traced epoch.
        clock_overhead();
        let traced_cap = if traced { SAMPLE_CAPACITY } else { 0 };
        Recorder {
            epoch_ns: Vec::with_capacity(SAMPLE_CAPACITY),
            epoch_stride: 1,
            traced_epoch_ns: Vec::with_capacity(traced_cap),
            begin_ns: Vec::with_capacity(traced_cap),
            end_ns: Vec::with_capacity(traced_cap),
            call_ns: Vec::with_capacity(traced_cap),
            tracer: Tracer::new(),
            inner_allocs: 0,
            boundary_allocs: 0,
        }
    }

    /// Records one traced epoch from its five contiguous stamps: the four
    /// phases tile the epoch span, so its self time is zero by
    /// construction. `ids` are the epoch's and the submit phase's.
    pub fn traced_epoch(
        &mut self,
        ids: (u32, u32),
        parent: u32,
        wait: &'static str,
        t: [Instant; 5],
    ) {
        let (epoch, submit) = ids;
        let tr = &mut self.tracer;
        let id = tr.alloc_id();
        tr.record(id, epoch, "begin_isolation", t[0], t[1]);
        tr.record(submit, epoch, "submit", t[1], t[2]);
        let id = tr.alloc_id();
        tr.record(id, epoch, wait, t[2], t[3]);
        let id = tr.alloc_id();
        tr.record(id, epoch, "end_isolation", t[3], t[4]);
        tr.record(epoch, parent, "epoch", t[0], t[4]);
        push(&mut self.traced_epoch_ns, t[4] - t[0]);
        push(&mut self.begin_ns, t[1] - t[0]);
        push(&mut self.end_ns, t[4] - t[3]);
    }

    /// Records one sampled call under the submit span `parent`.
    pub fn call(&mut self, parent: u32, name: &'static str, start: Instant, end: Instant) {
        let id = self.tracer.alloc_id();
        self.tracer.record(id, parent, name, start, end);
        push(
            &mut self.call_ns,
            (end - start).saturating_sub(clock_overhead()),
        );
    }
}

/// Pushes a duration as nanoseconds while the preallocated capacity lasts,
/// so recording never allocates inside a window.
pub fn push(v: &mut Vec<u32>, d: Duration) {
    if v.len() < v.capacity() {
        v.push(d.as_nanos().min(u32::MAX as u128) as u32);
    }
}
