//! Scripted-interleaving gates for the deterministic-schedule test
//! harness (`RuntimeBuilder::test_schedule`).
//!
//! The operation-granularity steal protocol has racy branches — the owner
//! finishing an operation versus a thief's quiescence check — that
//! ordinary tests only hit by luck. A [`TestGates`] script pins the race:
//! it is an ordered list of gate *names*, and every instrumented
//! scheduling point in the delegate loop calls [`TestGates::hit`] with
//! its name (`"popped@0"`, `"stole@1"`, … — point `@` delegate index).
//! The wait primitive has two more: `sleep@…` between an event's last
//! re-check and its park, and `wake@…` where a notify finds the waiter
//! asleep — labelled with the delegate index, or `p` for the events a
//! program thread waits on.
//! A thread whose gate name is at the front of the script pops it and
//! proceeds; a thread whose name appears *later* blocks until the
//! earlier gates are consumed; a name absent from the remaining script
//! passes through untouched. The script is therefore a total order over
//! exactly the scheduling points the test cares about, and nothing else.
//!
//! Robustness over precision: a gate that waits longer than
//! [`GATE_TIMEOUT`] passes through instead of deadlocking, so a
//! mis-scripted schedule (or a run where the targeted interleaving is
//! impossible) degrades to a free-running — still correct — execution
//! whose assertions then fail loudly rather than hanging CI.
//!
//! Gates are runtime-scoped (an `Arc` in the runtime's shared [`Core`]
//! state, not a global), so parallel tests with different scripts never
//! interfere.
//!
//! [`Core`]: super::Core

use std::collections::VecDeque;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

/// How long a blocked gate waits before passing through (see module docs).
const GATE_TIMEOUT: Duration = Duration::from_secs(2);

/// A scripted total order over named delegate-loop scheduling points.
pub struct TestGates {
    script: Mutex<VecDeque<String>>,
    cv: Condvar,
}

impl TestGates {
    pub(crate) fn new(script: VecDeque<String>) -> Self {
        TestGates {
            script: Mutex::new(script),
            cv: Condvar::new(),
        }
    }

    /// Blocks the calling thread until `point` is at the front of the
    /// script, then consumes it. Returns immediately when the script is
    /// exhausted or never mentions `point` again; gives up after
    /// [`GATE_TIMEOUT`] (see module docs).
    pub(crate) fn hit(&self, point: &str) {
        let mut script = self.script.lock();
        loop {
            match script.front() {
                None => return,
                Some(front) if front == point => {
                    script.pop_front();
                    self.cv.notify_all();
                    return;
                }
                Some(_) => {
                    if !script.iter().any(|p| p == point) {
                        return;
                    }
                    if self.cv.wait_for(&mut script, GATE_TIMEOUT).timed_out() {
                        return;
                    }
                }
            }
        }
    }

    /// Number of script entries not yet consumed (test assertion helper:
    /// 0 proves every scripted gate was actually reached).
    pub(crate) fn remaining(&self) -> usize {
        self.script.lock().len()
    }
}

impl std::fmt::Debug for TestGates {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TestGates")
            .field("remaining", &self.script.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn script_orders_two_threads() {
        let gates = Arc::new(TestGates::new(
            ["a@0", "b@1", "c@0"].map(String::from).into(),
        ));
        let log = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            let (g, l) = (Arc::clone(&gates), Arc::clone(&log));
            s.spawn(move || {
                g.hit("a@0");
                l.lock().push("a");
                g.hit("c@0");
                l.lock().push("c");
            });
            let (g, l) = (Arc::clone(&gates), Arc::clone(&log));
            s.spawn(move || {
                g.hit("b@1");
                l.lock().push("b");
            });
        });
        assert_eq!(*log.lock(), vec!["a", "b", "c"]);
        assert_eq!(gates.remaining(), 0);
    }

    #[test]
    fn unlisted_points_pass_through() {
        let gates = TestGates::new(["x@0"].map(String::from).into());
        gates.hit("never-mentioned@3"); // returns immediately
        assert_eq!(gates.remaining(), 1);
        gates.hit("x@0");
        assert_eq!(gates.remaining(), 0);
        gates.hit("x@0"); // exhausted script: free run
    }

    #[test]
    fn stuck_gate_times_out_instead_of_hanging() {
        let gates = TestGates::new(["unreachable@9", "late@0"].map(String::from).into());
        let t0 = std::time::Instant::now();
        gates.hit("late@0"); // front never consumed → timeout pass-through
        assert!(t0.elapsed() >= GATE_TIMEOUT);
        assert_eq!(gates.remaining(), 2);
    }
}
