//! Cross-thread stress test for the result slab's slot protocol.
//!
//! A program thread issues slots epoch by epoch and hands each sender,
//! through an SPSC ring, to an executor thread, which sends a
//! drop-counted value, drops the sender unsent, or — when it sees the
//! receiver gone — skips. Meanwhile the program thread, at random, polls
//! its receivers, waits on them (registered on the slot, parked with no
//! help from a timer), drops them (cancelling), or carries them across
//! the epoch's reclaim to take or drop in a later epoch. At each epoch's
//! end it waits until the executor has consumed every sender, then
//! reclaims.
//!
//! The invariants: every value sent is dropped exactly once, whether the
//! program took it or not; every value taken is the one sent on that
//! slot; a parked waiter is woken by the send; and the slab's accounting
//! ends with no slot held.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::thread::Thread;
use std::time::{Duration, Instant};

use ss_queue::slab::{ResultSlab, SlotPoll, SlotReceiver, SlotSender, WaitSignal, Wake};
use ss_queue::{Pop, SpscQueue};

/// Epochs per run.
const EPOCHS: usize = 1_000;
/// Values issued in a run, at most.
const MAX_IDS: usize = EPOCHS * 96;
/// A park longer than this is a lost wake-up: every send wakes its waiter.
const LOST_WAKEUP: Duration = Duration::from_secs(10);

/// xorshift64*: a seeded, dependency-free generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

/// A parked thread, woken by a send.
struct Waiter {
    thread: Thread,
    sleeping: AtomicBool,
}

impl Wake for Waiter {
    fn wake(&self) {
        if self.sleeping.load(Ordering::Relaxed) {
            self.thread.unpark();
        }
    }
}

impl Waiter {
    /// Parks until `signal` settles, registered on its slot.
    fn wait(&self, signal: &WaitSignal<Waiter>) {
        // SAFETY: the waiter lives on the program thread's stack for the
        // whole run, past the executor thread and every send.
        unsafe {
            signal.waiting(self, || loop {
                self.sleeping.store(true, Ordering::Relaxed);
                fence(Ordering::SeqCst);
                if signal.is_settled() {
                    self.sleeping.store(false, Ordering::Relaxed);
                    return;
                }
                let t = Instant::now();
                std::thread::park_timeout(LOST_WAKEUP);
                self.sleeping.store(false, Ordering::Relaxed);
                assert!(
                    t.elapsed() < LOST_WAKEUP || !signal.is_settled(),
                    "a send did not wake its registered waiter"
                );
            })
        }
    }
}

/// A value whose drops are counted per id.
struct Value<'a> {
    id: usize,
    drops: &'a [AtomicU8],
}

impl Drop for Value<'_> {
    fn drop(&mut self) {
        self.drops[self.id].fetch_add(1, Ordering::Relaxed);
    }
}

type Rx<'a> = SlotReceiver<Value<'a>, Waiter>;
type Tx<'a> = SlotSender<Value<'a>, Waiter>;

/// Takes or drops a receiver at random; checks a taken value's id.
fn finish(rng: &mut Rng, waiter: &Waiter, id: usize, mut rx: Rx<'_>, sent: &[AtomicBool]) {
    match rng.below(3) {
        0 => drop(rx),
        _ => {
            waiter.wait(&rx.signal());
            match rx.poll() {
                SlotPoll::Ready(v) => assert_eq!(v.id, id, "a slot delivered another slot's value"),
                SlotPoll::Closed => assert!(!sent[id].load(Ordering::Relaxed)),
                SlotPoll::Pending => panic!("settled slot polled pending"),
            }
        }
    }
}

fn run(seed: u64) {
    let drops: Vec<AtomicU8> = (0..MAX_IDS).map(|_| AtomicU8::new(0)).collect();
    let sent: Vec<AtomicBool> = (0..MAX_IDS).map(|_| AtomicBool::new(false)).collect();
    let consumed = AtomicU64::new(0);
    let slab = ResultSlab::<Waiter>::new(1);
    let waiter = Waiter {
        thread: std::thread::current(),
        sleeping: AtomicBool::new(false),
    };
    let (tx, rx) = SpscQueue::<(usize, Tx<'_>)>::with_capacity(128);
    let (drops, sent, consumed) = (&drops[..], &sent[..], &consumed);
    std::thread::scope(|s| {
        // The executor.
        s.spawn(move || {
            let mut rng = Rng(seed ^ 0xA5A5_A5A5);
            loop {
                match rx.try_pop() {
                    Pop::Value((id, sender)) => {
                        match rng.below(8) {
                            0 => drop(sender),
                            1..=4 if sender.is_cancelled() => drop(sender),
                            _ => {
                                sent[id].store(true, Ordering::Relaxed);
                                sender.send(Value { id, drops });
                            }
                        }
                        consumed.fetch_add(1, Ordering::Release);
                    }
                    Pop::Empty => std::hint::spin_loop(),
                    Pop::Disconnected => return,
                }
            }
        });
        let mut rng = Rng(seed);
        let mut next_id = 0;
        let mut carried: Vec<(usize, Rx<'_>)> = Vec::new();
        for _ in 0..EPOCHS {
            let n = 1 + rng.below(96) as usize;
            let mut live: Vec<(usize, Rx<'_>)> = Vec::with_capacity(n);
            for _ in 0..n {
                // SAFETY: one issuing thread (this one); the reclaim below
                // follows the executor's consumption of every sender.
                let (sender, receiver) = unsafe { slab.issue::<Value<'_>>(0, [0; 3]) };
                let id = next_id;
                next_id += 1;
                assert!(tx.push_blocking((id, sender)).is_ok());
                match rng.below(4) {
                    0 => drop(receiver),
                    _ => live.push((id, receiver)),
                }
            }
            // Carried receivers from earlier epochs: taken or dropped now,
            // some of them only later still.
            let (now, later) = std::mem::take(&mut carried)
                .into_iter()
                .partition::<Vec<_>, _>(|_| rng.below(2) == 0);
            carried = later;
            for (id, r) in now {
                finish(&mut rng, &waiter, id, r, sent);
            }
            for (id, mut r) in live {
                match rng.below(4) {
                    0 => carried.push((id, r)),
                    1 => {
                        // A non-blocking poll, then whatever comes.
                        if let SlotPoll::Ready(v) = r.poll() {
                            assert_eq!(v.id, id);
                        }
                        drop(r);
                    }
                    _ => finish(&mut rng, &waiter, id, r, sent),
                }
            }
            // The barrier: every sender of the epoch consumed.
            while consumed.load(Ordering::Acquire) < next_id as u64 {
                std::hint::spin_loop();
            }
            // SAFETY: quiescence, just established.
            let held = unsafe { slab.reclaim() };
            assert_eq!(
                held as usize,
                carried.len(),
                "only carried receivers hold slots"
            );
        }
        for (id, r) in carried.drain(..) {
            finish(&mut rng, &waiter, id, r, sent);
        }
        drop(tx);
        // SAFETY: the executor consumed everything before the last barrier.
        assert_eq!(unsafe { slab.reclaim() }, 0);
        let (free, live, created) = slab.counts();
        assert_eq!(live, 0);
        // Chunks trimmed on the way took their slots with them.
        assert!(free as u64 <= created);
        for id in 0..next_id {
            let expected = u8::from(sent[id].load(Ordering::Relaxed));
            assert_eq!(
                drops[id].load(Ordering::Relaxed),
                expected,
                "value {id}: dropped other than once per send"
            );
        }
    });
}

#[test]
fn every_sent_value_is_delivered_or_dropped_exactly_once() {
    for seed in 1..=4u64 {
        run(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
}
