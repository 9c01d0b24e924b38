//! The synthetic delegation programs and their sequential interpreter.
//!
//! One program family covers five workloads: `sets` objects, each its own
//! serialization set (`SequenceSerializer`), visited in a seeded order;
//! `ops_per_set` operations per set per epoch; a block of
//! `epochs_per_block` epochs is the unit of fixed work the harness times.
//! Operations are order-sensitive folds (`s = s * M + f(operand)`), so a
//! lost, repeated or reordered operation changes the final state and the
//! oracle sees it. [`Mirror`] interprets the same generated program on
//! plain `u64`s; both sides reduce a block to one fold for comparison.

use std::time::Instant;

use prometheus_rs::prelude::{fingerprint_of, Runtime, SequenceSerializer, SsFuture, Writable};
use prometheus_rs::ss_core::SsResult;

use crate::alloc;
use crate::trace::{push, Recorder, CALL_SAMPLING};

pub type Obj = Writable<u64, SequenceSerializer>;

/// How an epoch's operations are submitted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// `delegate`; results stay in the objects.
    Void,
    /// `delegate_with`, then one `SsFuture::wait_all` per epoch.
    Future,
    /// `ablation_memo`'s program: a rotating tenth of the sets mutated by
    /// `delegate`, then every set queried through `delegate_memo`.
    Memo,
}

#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub sets: usize,
    pub ops_per_set: usize,
    pub epochs_per_block: usize,
    /// Rounds of [`work`] per operation; 0 is one multiply-add.
    pub rounds: u32,
    pub mode: Mode,
}

impl Shape {
    pub fn ops_per_epoch(&self) -> u64 {
        (self.sets * self.ops_per_set) as u64
    }

    pub fn ops_per_block(&self) -> u64 {
        self.ops_per_epoch() * self.epochs_per_block as u64
    }
}

/// A set mutates in epochs where `(set + epoch) % MUTATE_PERIOD == 0`.
/// Blocks are a multiple of it long, so every block mutates alike.
pub const MUTATE_PERIOD: u64 = 10;

/// Epoch execution modes, as const generics so the plain path carries no
/// tracing or counting branch.
pub const PLAIN: u8 = 0;
pub const TRACED: u8 = 1;
pub const COUNTED: u8 = 2;

const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn work(seed: u64, rounds: u32) -> u64 {
    let mut x = seed | 1;
    for _ in 0..rounds {
        x = x.wrapping_mul(MUL).rotate_left(17) ^ seed;
    }
    x
}

/// Operand and round count travel in one word: the runtime's task record
/// stores captures of up to 8 bytes inline, without allocating.
#[inline]
fn pack(operand: u32, rounds: u32) -> u64 {
    (rounds as u64) << 32 | operand as u64
}

#[inline]
fn apply(s: &mut u64, packed: u64) {
    *s = s
        .wrapping_mul(MUL)
        .wrapping_add(work(packed & 0xFFFF_FFFF, (packed >> 32) as u32));
}

/// The memoized query: pure in the set's state and the packed argument.
#[inline]
fn query(s: u64, packed: u64) -> u64 {
    work(s ^ (packed & 0xFFFF_FFFF), (packed >> 32) as u32)
}

#[inline]
fn fold(acc: u64, v: u64) -> u64 {
    acc.rotate_left(9) ^ v
}

#[inline]
fn epoch_mix(epoch: u64) -> u32 {
    (epoch as u32).wrapping_mul(0x9E37_79B1)
}

/// SplitMix64: the harness's own generator, so the benchmark depends on
/// the façade crate alone.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(MUL);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What the seed decides: initial states, operand values, visiting order.
pub struct Input {
    pub init: Vec<u64>,
    pub operands: Vec<u32>,
    pub order: Vec<u32>,
}

impl Input {
    pub fn generate(shape: &Shape, seed: u64) -> Input {
        let mut rng = SplitMix64(seed);
        let init = (0..shape.sets).map(|_| rng.next()).collect();
        let operands = (0..shape.sets * shape.ops_per_set)
            .map(|_| rng.next() as u32)
            .collect();
        let mut order: Vec<u32> = (0..shape.sets as u32).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        Input {
            init,
            operands,
            order,
        }
    }

    pub fn bytes(&self) -> usize {
        self.init.len() * 8 + self.operands.len() * 4 + self.order.len() * 4
    }
}

/// Runs `f`, under its own span when this call is the sampled one.
#[inline]
fn sampled<const M: u8, R>(
    rec: &mut Recorder,
    parent: u32,
    name: &'static str,
    i: usize,
    f: impl FnOnce() -> R,
) -> R {
    if M == TRACED && i.is_multiple_of(CALL_SAMPLING) {
        let start = Instant::now();
        let r = f();
        rec.call(parent, name, start, Instant::now());
        r
    } else {
        f()
    }
}

/// The program under test: the generated input driven through the
/// runtime's public API from one program thread.
pub struct Program {
    rt: Runtime,
    pub shape: Shape,
    pub input: Input,
    objs: Vec<Obj>,
    epoch: u64,
    futures: Vec<SsFuture<u64>>,
    results: u64,
    /// `delegate*` calls made, and how many of them (or of their results)
    /// came back as an error.
    pub calls: u64,
    pub fails: u64,
}

impl Program {
    pub fn new(rt: &Runtime, shape: Shape, input: Input) -> Program {
        let objs = input.init.iter().map(|&s| Writable::new(rt, s)).collect();
        let futures = Vec::with_capacity(shape.sets * shape.ops_per_set);
        Program {
            rt: rt.clone(),
            shape,
            input,
            objs,
            epoch: 0,
            futures,
            results: 0,
            calls: 0,
            fails: 0,
        }
    }

    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// Epochs run since the program was built.
    pub fn epochs(&self) -> u64 {
        self.epoch
    }

    /// One block of epochs; under `TRACED` the block is the root span.
    pub fn block<const M: u8>(&mut self, rec: &mut Recorder) {
        let id = if M == TRACED {
            rec.tracer.alloc_id()
        } else {
            0
        };
        let start = Instant::now();
        for _ in 0..self.shape.epochs_per_block {
            self.epoch::<M>(rec, id);
        }
        if M == TRACED {
            rec.tracer.record(id, 0, "block", start, Instant::now());
        }
    }

    fn epoch<const M: u8>(&mut self, rec: &mut Recorder, block: u32) {
        let e = self.epoch;
        self.epoch += 1;
        let ops = self.shape.ops_per_epoch();
        let ids = if M == TRACED {
            (rec.tracer.alloc_id(), rec.tracer.alloc_id())
        } else {
            (0, 0)
        };
        if M == COUNTED {
            alloc::start();
        }
        let t0 = Instant::now();
        let begun = self.rt.begin_isolation();
        let t1 = if M == TRACED { Instant::now() } else { t0 };
        if M == COUNTED {
            rec.boundary_allocs += alloc::stop();
        }
        if begun.is_err() {
            self.calls += ops;
            self.fails += ops;
            return;
        }
        if M == COUNTED {
            alloc::start();
        }
        let mix = epoch_mix(e);
        match self.shape.mode {
            Mode::Void => self.submit::<M>(rec, ids.1, "delegate", mix, |o, arg| {
                o.delegate(move |s| apply(s, arg)).map(|()| None)
            }),
            Mode::Future => self.submit::<M>(rec, ids.1, "delegate_with", mix, |o, arg| {
                o.delegate_with(move |s| {
                    apply(s, arg);
                    *s
                })
                .map(Some)
            }),
            Mode::Memo => {
                self.mutate(e);
                // No epoch mix: the same query recurs every epoch, so only
                // a mutation of its set makes it miss.
                self.submit::<M>(rec, ids.1, "delegate_memo", 0, |o, arg| {
                    o.delegate_memo(fingerprint_of(&arg), move |s| query(*s, arg))
                        .map(Some)
                })
            }
        }
        let t2 = if M == TRACED { Instant::now() } else { t0 };
        let submitted = self.futures.len() as u64;
        if submitted > 0 {
            match SsFuture::wait_all(self.futures.drain(..)) {
                Ok(values) => self.results = values.into_iter().fold(self.results, fold),
                Err(_) => self.fails += submitted,
            }
        }
        let t3 = if M == TRACED { Instant::now() } else { t0 };
        if M == COUNTED {
            rec.inner_allocs += alloc::stop();
            alloc::start();
        }
        if self.rt.end_isolation().is_err() {
            self.fails += ops;
        }
        let t4 = Instant::now();
        match M {
            COUNTED => rec.boundary_allocs += alloc::stop(),
            TRACED => {
                let wait = if self.shape.mode == Mode::Void {
                    "wait"
                } else {
                    "wait_all"
                };
                rec.traced_epoch(ids, block, wait, [t0, t1, t2, t3, t4]);
            }
            _ if e.is_multiple_of(rec.epoch_stride) => push(&mut rec.epoch_ns, t4 - t0),
            _ => {}
        }
    }

    /// Submits the epoch's operations, sets in the seeded order, through
    /// `call`; a future it returns is kept for the epoch's `wait_all`.
    fn submit<const M: u8>(
        &mut self,
        rec: &mut Recorder,
        span: u32,
        name: &'static str,
        mix: u32,
        call: impl Fn(&Obj, u64) -> SsResult<Option<SsFuture<u64>>>,
    ) {
        let (ops, rounds) = (self.shape.ops_per_set, self.shape.rounds);
        let mut i = 0;
        for &set in &self.input.order {
            let o = &self.objs[set as usize];
            let base = set as usize * ops;
            for &operand in &self.input.operands[base..base + ops] {
                let arg = pack(operand ^ mix, rounds);
                match sampled::<M, _>(rec, span, name, i, || call(o, arg)) {
                    Ok(Some(f)) => self.futures.push(f),
                    Ok(None) => {}
                    Err(_) => self.fails += 1,
                }
                i += 1;
            }
        }
        self.calls += i as u64;
    }

    /// `Mode::Memo`'s mutation pass: plain `delegate`, which invalidates
    /// the set's memo entries.
    fn mutate(&mut self, e: u64) {
        for &set in &self.input.order {
            if (set as u64 + e).is_multiple_of(MUTATE_PERIOD) {
                let arg = pack(epoch_mix(e) ^ set, 0);
                let r = self.objs[set as usize].delegate(move |s| apply(s, arg));
                self.fails += r.is_err() as u64;
                self.calls += 1;
            }
        }
    }

    /// Folds every future result since the last call with every object's
    /// current state. Called between blocks, in the aggregation epoch.
    pub fn take_fold(&mut self) -> u64 {
        let mut acc = std::mem::take(&mut self.results);
        for o in &self.objs {
            match o.call(|s| *s) {
                Ok(s) => acc = fold(acc, s),
                Err(_) => self.fails += 1,
            }
        }
        acc
    }
}

/// The sequential interpreter: the same input, the same program, plain
/// `u64` states, no runtime.
#[derive(Clone)]
pub struct Mirror {
    state: Vec<u64>,
    epoch: u64,
    results: u64,
}

impl Mirror {
    pub fn new(input: &Input) -> Mirror {
        Mirror {
            state: input.init.clone(),
            epoch: 0,
            results: 0,
        }
    }

    /// Makes every later expectation wrong (`smoke` proves the oracle
    /// notices).
    pub fn sabotage(&mut self) {
        self.state[0] ^= 1;
    }

    pub fn block(&mut self, shape: &Shape, input: &Input) {
        let (ops, rounds) = (shape.ops_per_set, shape.rounds);
        for _ in 0..shape.epochs_per_block {
            let e = self.epoch;
            self.epoch += 1;
            let mix = epoch_mix(e);
            if shape.mode == Mode::Memo {
                for &set in &input.order {
                    if (set as u64 + e).is_multiple_of(MUTATE_PERIOD) {
                        apply(&mut self.state[set as usize], pack(mix ^ set, 0));
                    }
                }
            }
            for &set in &input.order {
                let s = &mut self.state[set as usize];
                let base = set as usize * ops;
                for &operand in &input.operands[base..base + ops] {
                    match shape.mode {
                        Mode::Void => apply(s, pack(operand ^ mix, rounds)),
                        Mode::Future => {
                            apply(s, pack(operand ^ mix, rounds));
                            self.results = fold(self.results, *s);
                        }
                        Mode::Memo => {
                            self.results = fold(self.results, query(*s, pack(operand, rounds)));
                        }
                    }
                }
            }
        }
    }

    pub fn take_fold(&mut self) -> u64 {
        let acc = std::mem::take(&mut self.results);
        self.state.iter().fold(acc, |acc, &s| fold(acc, s))
    }
}
