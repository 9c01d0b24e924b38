//! Bounded exponential backoff for spin loops.
//!
//! The paper's runtime checks queue conditions "in a spin loop rather than
//! using blocking OS synchronization, which would incur prohibitive
//! overheads", inserting `PAUSE` on x86 "to limit consumption of processor
//! resources on multithreaded cores" (§4). [`Backoff`] reproduces that
//! discipline: a few rounds of `spin_loop` hints with exponentially growing
//! spin counts, after which the caller is advised to yield to the OS
//! scheduler (important on machines with fewer cores than threads, where a
//! spinning waiter holds the core the thread it waits for needs).

/// Exponential spin-wait helper.
///
/// ```
/// use ss_queue::Backoff;
/// let mut tries = 0;
/// let backoff = Backoff::new();
/// loop {
///     tries += 1;
///     if tries > 3 { break; }
///     backoff.snooze(); // spin first, yield once the budget is exhausted
/// }
/// ```
#[derive(Debug)]
pub struct Backoff {
    step: core::cell::Cell<u32>,
}

impl Backoff {
    /// Spin rounds double each step until `2^SPIN_LIMIT` iterations.
    const SPIN_LIMIT: u32 = 6;
    /// Past this step, `snooze` yields the thread instead of spinning.
    const YIELD_LIMIT: u32 = 10;

    /// Creates a fresh backoff with zero accumulated steps.
    #[inline]
    pub const fn new() -> Self {
        Backoff {
            step: core::cell::Cell::new(0),
        }
    }

    /// Resets the backoff to its initial state (call after making progress).
    #[inline]
    pub fn reset(&self) {
        self.step.set(0);
    }

    /// Spins while the budget is small, then yields to the OS scheduler.
    #[inline]
    pub fn snooze(&self) {
        let step = self.step.get();
        if step <= Self::SPIN_LIMIT {
            for _ in 0..(1u32 << step) {
                core::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        if step <= Self::YIELD_LIMIT {
            self.step.set(step + 1);
        }
    }

    /// True once spinning and yielding have been tried long enough that the
    /// caller should park the thread.
    #[inline]
    pub fn is_completed(&self) -> bool {
        self.step.get() > Self::YIELD_LIMIT
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_to_completed() {
        let b = Backoff::new();
        assert!(!b.is_completed());
        for _ in 0..32 {
            b.snooze();
        }
        assert!(b.is_completed());
    }

    #[test]
    fn reset_restores_initial_state() {
        let b = Backoff::new();
        for _ in 0..32 {
            b.snooze();
        }
        b.reset();
        assert!(!b.is_completed());
    }

    #[test]
    fn snooze_saturates_instead_of_overflowing() {
        let b = Backoff::new();
        for _ in 0..1000 {
            b.snooze(); // must not panic or overflow the shift
        }
        assert!(b.is_completed());
    }
}
