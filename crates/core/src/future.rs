//! Futures on delegated operations.
//!
//! The paper's delegated methods "must be void" — results flow back to
//! the program through the shared object, read later via `call`. This
//! module adds the direct channel the ROADMAP names as the natural
//! successor to recursive delegation: the `delegate_with` family
//! ([`Writable::delegate_with`], [`DelegateContext::delegate_with`],
//! [`Runtime::delegate_with`]) packages an operation whose closure
//! *returns a value*, and hands back a typed [`SsFuture`] for it.
//!
//! A future is backed by a one-shot completion cell
//! ([`ss_queue::oneshot`]) that the executing context settles *before*
//! the operation's completion is published to the drain machinery
//! (`pending`, queue depths, `in_flight`). Three properties follow:
//!
//! * **Drain-safety.** `end_isolation` waits for every queue token and
//!   for `in_flight` to reach zero; each settles only after its
//!   operation's cell. After the barrier, every future delegated in the
//!   epoch is ready — a future crossing an epoch boundary is a
//!   plain value, never a dangling obligation.
//! * **Drop-safety.** Dropping a pending future abandons the result but
//!   never the accounting: the drop *requests cancellation* — an
//!   advisory flag the executor checks when it pops the operation. An
//!   operation that has not started is skipped (its closure never runs;
//!   [`Stats::ops_cancelled`](crate::Stats::ops_cancelled) counts it);
//!   one that already started, or that the executor pops before
//!   observing the flag, completes normally and its value is dropped
//!   with the cell. Either way every counter (`pending`, queue depths,
//!   `in_flight`) settles exactly as if the future had been kept, so
//!   every drain proof is untouched. A *memoized* operation that is
//!   cancelled publishes nothing into the memo table.
//! * **Deadlock-safety.** [`SsFuture::wait`] from the program context
//!   waits for the cell to settle, running `Lane::Program` meanwhile
//!   (delegates drain independently, and program-context operations of a
//!   set the program thread runs execute inline at delegation time, so
//!   their futures are born ready). From a *delegate* context, the
//!   waiter executes **help-first** from its own queue — the
//!   nested-reclaim protocol scoped to futures — deferring entries of
//!   sets currently on its call stack and all synchronization tokens;
//!   a wait that provably can never complete is rejected with
//!   [`SsError::FutureDeadlock`] instead of hanging (see
//!   `docs/ARCHITECTURE.md` for the full argument).
//!
//! ```
//! use ss_core::{Runtime, SequenceSerializer, Writable};
//!
//! let rt = Runtime::builder().delegate_threads(2).build().unwrap();
//! let shards: Vec<Writable<Vec<u64>, SequenceSerializer>> =
//!     (0..4).map(|_| Writable::new(&rt, vec![1, 2, 3])).collect();
//!
//! rt.begin_isolation().unwrap();
//! // Map: one future-returning operation per shard.
//! let futs: Vec<_> = shards
//!     .iter()
//!     .map(|s| s.delegate_with(|v| v.iter().sum::<u64>()).unwrap())
//!     .collect();
//! // Reduce: consume the futures in shard order — no shared accumulator,
//! // no reclaim; the result rides back on the future itself.
//! let total: u64 = futs.into_iter().map(|f| f.wait().unwrap()).sum();
//! rt.end_isolation().unwrap();
//! assert_eq!(total, 24);
//! ```

use ss_queue::oneshot::{OneshotPoll, OneshotReceiver};

use crate::error::{SsError, SsResult};
use crate::runtime::{future_wait_turn, Executor, Runtime};
use crate::serializer::{Serializer, SsId};
use crate::wrappers::Writable;

/// A typed handle to the result of a delegated operation, returned by the
/// `delegate_with` family ([`Writable::delegate_with`],
/// [`DelegateContext::delegate_with`](crate::DelegateContext::delegate_with),
/// [`Runtime::delegate_with`]).
///
/// The future resolves when the operation executes — on whichever
/// executor owns its serialization set — and [`wait`](SsFuture::wait)
/// retrieves the value exactly once. The module-level documentation
/// above spells out the drain/drop/deadlock guarantees with an example.
#[must_use = "an SsFuture carries the operation's result; drop it only if the result is unneeded"]
pub struct SsFuture<R> {
    inner: FutureInner<R>,
    rt: Runtime,
    set: SsId,
    executor: Executor,
}

/// How the future's value arrives.
enum FutureInner<R> {
    /// Backed by a one-shot completion cell the executing context will
    /// settle (the delegated path, including inline execution — inline
    /// cells are settled before the future is returned).
    Cell(OneshotReceiver<R>),
    /// Born ready with the value held inline — the memo-hit path. No
    /// cell, no routing, no queue entry ever existed; the epoch serial
    /// is carried directly. Holding the value inline (not in a pooled
    /// cell) is what keeps an unbounded run of same-epoch memo hits
    /// allocation-free.
    Ready { value: Option<R>, epoch: u64 },
    /// Consumed by [`SsFuture::wait`] / [`SsFuture::wait_all`] (never
    /// observable through the public API).
    Taken,
}

impl<R> std::fmt::Debug for SsFuture<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (epoch, ready) = match &self.inner {
            FutureInner::Cell(recv) => (recv.tag(), recv.is_settled()),
            FutureInner::Ready { epoch, .. } => (*epoch, true),
            FutureInner::Taken => (0, true),
        };
        f.debug_struct("SsFuture")
            .field("set", &self.set)
            .field("epoch", &epoch)
            .field("ready", &ready)
            .field("memo_hit", &matches!(self.inner, FutureInner::Ready { .. }))
            .finish()
    }
}

impl<R> Drop for SsFuture<R> {
    fn drop(&mut self) {
        // Drop-to-cancel: an unresolved future's result can no longer be
        // observed, so ask the executor to skip the operation if it has
        // not started. Advisory only — a send that races the request
        // still wins, and the value is dropped with the cell.
        if let FutureInner::Cell(recv) = &self.inner {
            if !recv.is_settled() {
                recv.request_cancel();
            }
        }
    }
}

impl<R: Send + 'static> SsFuture<R> {
    pub(crate) fn new(
        recv: OneshotReceiver<R>,
        rt: Runtime,
        set: SsId,
        executor: Executor,
    ) -> Self {
        SsFuture {
            inner: FutureInner::Cell(recv),
            rt,
            set,
            executor,
        }
    }

    /// A future born ready from a memoized result: the value is held
    /// inline — nothing was routed, queued or executed, so there is no
    /// cell and no executor.
    pub(crate) fn new_memo_hit(value: R, rt: Runtime, set: SsId, epoch: u64) -> Self {
        SsFuture {
            inner: FutureInner::Ready {
                value: Some(value),
                epoch,
            },
            rt,
            set,
            executor: Executor::Program,
        }
    }

    /// The serialization set the operation was routed into.
    pub fn set(&self) -> SsId {
        self.set
    }

    /// The isolation-epoch serial the operation was delegated in. The
    /// epoch's `end_isolation` barrier implies this future is resolved.
    pub fn epoch(&self) -> u64 {
        match &self.inner {
            FutureInner::Cell(recv) => recv.tag(),
            FutureInner::Ready { epoch, .. } => *epoch,
            FutureInner::Taken => unreachable!("wait consumed the future"),
        }
    }

    /// True once the operation has completed (successfully or not) and
    /// [`wait`](SsFuture::wait) will return without blocking.
    pub fn is_ready(&self) -> bool {
        match &self.inner {
            FutureInner::Cell(recv) => recv.is_settled(),
            FutureInner::Ready { .. } | FutureInner::Taken => true,
        }
    }

    /// True when the operation runs on the program thread (a set it took,
    /// or any set of a runtime without delegates) — delegated from the program
    /// context, such futures are born ready; delegated from a delegate
    /// context, the operation waits in `Lane::Program` for the program
    /// thread.
    pub fn was_inline(&self) -> bool {
        self.executor == Executor::Program && !self.was_memo_hit()
    }

    /// True when this future was answered from the memo table by the
    /// `delegate_memo` family: the operation never executed and the
    /// future was born ready holding the cached value.
    pub fn was_memo_hit(&self) -> bool {
        matches!(self.inner, FutureInner::Ready { .. })
    }

    /// Blocks until the operation completes and returns its result.
    ///
    /// Callable from any thread. On the program context (and foreign
    /// threads) this spins, yields and then parks until the owning
    /// delegate executes the operation. On a **delegate context** the
    /// wait is help-first: while
    /// the future is pending the delegate executes work from its own
    /// queue, so waiting on an operation it (transitively) spawned into
    /// its own queue makes progress instead of deadlocking. A wait that
    /// can never complete — the operation is ordered, directly or through
    /// a cross-delegate cycle, behind the waiter itself — returns
    /// [`SsError::FutureDeadlock`].
    ///
    /// Errors: [`SsError::FutureDeadlock`] as above;
    /// [`SsError::DelegatePanicked`] when the operation (or an operation
    /// before it) panicked and the runtime is poisoned;
    /// [`SsError::Terminated`] when the runtime shut down before the
    /// operation could run.
    pub fn wait(mut self) -> SsResult<R> {
        loop {
            if let Some(v) = self.try_take()? {
                return Ok(v);
            }
            if let Err(deadlock) = self.block() {
                // A rejected wait cancels nothing: the operation runs
                // once the cycle unwinds.
                let last = self.try_take()?;
                self.inner = FutureInner::Taken;
                return last.ok_or(deadlock);
            }
        }
    }

    /// Waits for a whole batch of futures and returns their results in
    /// submission order.
    ///
    /// Semantically `futures.map(wait)`, but the batch blocks as a unit:
    /// every sweep first drains all already-settled futures (memo hits
    /// and inline executions cost one poll each, no parking), and only
    /// when every remaining future is genuinely pending does the batch
    /// block on the first of them — help-first on a delegate context
    /// (one wait registration and one deadlock walk at a time, over
    /// whichever constituent currently gates the batch), a plain wait for
    /// its cell on the program context. Work executed while helping routinely
    /// resolves *other* constituents, so the next sweep collects them
    /// without ever blocking on each individually.
    ///
    /// Errors abort the batch with the failing future's error
    /// ([`SsError::FutureDeadlock`], [`SsError::DelegatePanicked`],
    /// [`SsError::Terminated`]); the remaining futures are dropped,
    /// which requests cancellation of their unstarted operations as any
    /// drop does.
    pub fn wait_all(futures: impl IntoIterator<Item = SsFuture<R>>) -> SsResult<Vec<R>> {
        let mut futs: Vec<SsFuture<R>> = futures.into_iter().collect();
        let mut out: Vec<Option<R>> = futs.iter().map(|_| None).collect();
        let mut pending = futs.len();
        while pending > 0 {
            // Sweep: collect everything already settled.
            let mut progressed = false;
            let mut blocker = None;
            for i in 0..futs.len() {
                if out[i].is_some() {
                    continue;
                }
                match futs[i].try_take()? {
                    Some(v) => {
                        out[i] = Some(v);
                        pending -= 1;
                        progressed = true;
                    }
                    None => blocker = blocker.or(Some(i)),
                }
            }
            if pending == 0 || progressed {
                continue;
            }
            // Every remaining future is pending: block on the first.
            let i = blocker.expect("pending > 0 implies an unresolved future");
            if let Err(deadlock) = futs[i].block() {
                out[i] = Some(futs[i].try_take()?.ok_or(deadlock)?);
                pending -= 1;
            }
        }
        Ok(out
            .into_iter()
            .map(|v| v.expect("all futures resolved"))
            .collect())
    }

    /// One blocking turn on a pending future ([`future_wait_turn`]):
    /// returns once it may have settled, `Err` when it never can. The
    /// caller re-polls even then: the detector may have raced the
    /// resolution window once.
    fn block(&self) -> SsResult<()> {
        let FutureInner::Cell(recv) = &self.inner else {
            return Ok(());
        };
        future_wait_turn(&self.rt, self.set, &recv.signal())
            .then_some(())
            .ok_or(SsError::FutureDeadlock { set: self.set })
    }

    /// Non-blocking extraction: `Ok(Some(v))` when the future settled
    /// with a value (the future becomes `Taken`), `Ok(None)` while still
    /// pending, `Err` when the cell closed without a value.
    fn try_take(&mut self) -> SsResult<Option<R>> {
        match std::mem::replace(&mut self.inner, FutureInner::Taken) {
            FutureInner::Ready { value, .. } => {
                Ok(Some(value.expect("a born-ready future holds its value")))
            }
            FutureInner::Taken => unreachable!("resolved futures are skipped by the sweep"),
            FutureInner::Cell(recv) => match recv.poll() {
                OneshotPoll::Ready(v) => Ok(Some(v)),
                OneshotPoll::Closed => Err(self.closed_error()),
                OneshotPoll::Pending => {
                    self.inner = FutureInner::Cell(recv);
                    Ok(None)
                }
            },
        }
    }

    /// The cell closed without a value: the operation was skipped by a
    /// poisoned runtime (or panicked itself), or the runtime terminated
    /// with the operation still queued. The poison flag is always set
    /// before the cell closes in the panic cases, so this read is
    /// ordered correctly.
    fn closed_error(&self) -> SsError {
        if self.rt.is_poisoned() {
            self.rt.inner.core.poison_error()
        } else {
            SsError::Terminated
        }
    }
}

impl Runtime {
    /// Delegates a future-returning operation on `target` — convenience
    /// forwarding to [`Writable::delegate_with`], for call sites that
    /// hold the runtime rather than the wrapper. `target` must belong to
    /// this runtime ([`SsError::WrongContext`] otherwise).
    ///
    /// ```
    /// use ss_core::{Runtime, Writable};
    ///
    /// let rt = Runtime::builder().delegate_threads(1).build().unwrap();
    /// let w: Writable<u64> = Writable::new(&rt, 20);
    /// rt.begin_isolation().unwrap();
    /// let fut = rt.delegate_with(&w, |n| { *n += 1; *n * 2 }).unwrap();
    /// assert_eq!(fut.wait().unwrap(), 42);
    /// rt.end_isolation().unwrap();
    /// ```
    pub fn delegate_with<T, S, R, F>(&self, target: &Writable<T, S>, f: F) -> SsResult<SsFuture<R>>
    where
        T: Send + 'static,
        S: Serializer<T>,
        R: Send + 'static,
        F: FnOnce(&mut T) -> R + Send + 'static,
    {
        if !std::sync::Arc::ptr_eq(&self.inner, &target.runtime().inner) {
            return Err(SsError::WrongContext);
        }
        target.delegate_with(f)
    }

    /// Memoized delegation on `target` — convenience forwarding to
    /// [`Writable::delegate_memo`], for call sites that hold the runtime
    /// rather than the wrapper. `target` must belong to this runtime
    /// ([`SsError::WrongContext`] otherwise).
    pub fn delegate_memo<T, S, R, F>(
        &self,
        target: &Writable<T, S>,
        fingerprint: u64,
        f: F,
    ) -> SsResult<SsFuture<R>>
    where
        T: Send + 'static,
        S: Serializer<T>,
        R: crate::fingerprint::MemoValue,
        F: FnOnce(&mut T) -> R + Send + 'static,
    {
        if !std::sync::Arc::ptr_eq(&self.inner, &target.runtime().inner) {
            return Err(SsError::WrongContext);
        }
        target.delegate_memo(fingerprint, f)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Barrier, Mutex};

    use super::*;
    use crate::serializer::SequenceSerializer;
    use crate::trace::TraceKind;

    fn rt(delegates: usize) -> Runtime {
        Runtime::builder()
            .delegate_threads(delegates)
            .build()
            .unwrap()
    }

    #[test]
    fn program_context_wait_returns_result() {
        let rt = rt(2);
        let w: Writable<Vec<u64>, SequenceSerializer> = Writable::new(&rt, vec![1, 2]);
        rt.begin_isolation().unwrap();
        let fut = w.delegate_with(|v| {
            v.push(3);
            v.iter().sum::<u64>()
        });
        assert_eq!(fut.unwrap().wait().unwrap(), 6);
        rt.end_isolation().unwrap();
        assert_eq!(rt.stats().futures_resolved, 1);
    }

    #[test]
    fn futures_are_ready_after_end_isolation() {
        // Drain-safety: the epoch barrier implies every future of the
        // epoch is resolved, on both transports.
        for stealing in [false, true] {
            let rt = Runtime::builder()
                .delegate_threads(2)
                .stealing(stealing)
                .build()
                .unwrap();
            let objs: Vec<Writable<u64, SequenceSerializer>> =
                (0..8).map(|i| Writable::new(&rt, i)).collect();
            rt.begin_isolation().unwrap();
            let futs: Vec<SsFuture<u64>> = objs
                .iter()
                .map(|o| o.delegate_with(|n| *n * 10).unwrap())
                .collect();
            rt.end_isolation().unwrap();
            for (i, f) in futs.into_iter().enumerate() {
                assert!(
                    f.is_ready(),
                    "stealing {stealing}: future {i} pending after barrier"
                );
                assert_eq!(f.wait().unwrap(), i as u64 * 10);
            }
            assert_eq!(rt.stats().in_flight, 0, "stealing {stealing}");
        }
    }

    #[test]
    fn dropped_futures_cancel_or_complete_but_always_settle() {
        // Drop-safety with drop-to-cancel: each dropped future's
        // operation either ran (its increment landed, futures_resolved
        // counts it) or was skipped as cancelled (ops_cancelled counts
        // it) — never lost, never double-counted — and every drain
        // counter still returns to zero at the barrier.
        for stealing in [false, true] {
            let rt = Runtime::builder()
                .delegate_threads(2)
                .stealing(stealing)
                .build()
                .unwrap();
            let w: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
            rt.begin_isolation().unwrap();
            for _ in 0..100 {
                drop(w.delegate_with(|n| {
                    *n += 1;
                    *n
                }));
            }
            rt.end_isolation().unwrap();
            let stats = rt.stats();
            let value = w.call(|n| *n).unwrap();
            assert_eq!(value, stats.futures_resolved, "stealing {stealing}");
            assert_eq!(
                stats.futures_resolved + stats.ops_cancelled,
                100,
                "stealing {stealing}"
            );
            assert_eq!(
                stats.executed, 100,
                "stealing {stealing}: cancelled ops still settle"
            );
            assert_eq!(stats.in_flight, 0, "stealing {stealing}");
            assert!(
                stats.queue_depths.iter().all(|&d| d == 0),
                "stealing {stealing}"
            );
        }
    }

    #[test]
    fn kept_futures_never_cancel() {
        // Cancellation is driven only by dropping an unresolved future:
        // holding every future to the barrier must execute every op.
        let rt = rt(2);
        let w: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
        rt.begin_isolation().unwrap();
        let futs: Vec<SsFuture<u64>> = (0..100)
            .map(|_| {
                w.delegate_with(|n| {
                    *n += 1;
                    *n
                })
                .unwrap()
            })
            .collect();
        rt.end_isolation().unwrap();
        assert_eq!(futs.len(), 100);
        for f in futs {
            f.wait().unwrap();
        }
        let stats = rt.stats();
        assert_eq!(stats.ops_cancelled, 0);
        assert_eq!(stats.futures_resolved, 100);
        assert_eq!(w.call(|n| *n).unwrap(), 100);
    }

    #[test]
    fn wait_all_returns_results_in_submission_order() {
        for delegates in [0, 1, 2] {
            let rt = rt(delegates);
            let objs: Vec<Writable<u64, SequenceSerializer>> =
                (0..8).map(|i| Writable::new(&rt, i)).collect();
            rt.begin_isolation().unwrap();
            let futs: Vec<SsFuture<u64>> = objs
                .iter()
                .map(|o| o.delegate_with(|n| *n * 3).unwrap())
                .collect();
            let got = SsFuture::wait_all(futs).unwrap();
            rt.end_isolation().unwrap();
            assert_eq!(
                got,
                (0..8).map(|i| i * 3).collect::<Vec<_>>(),
                "delegates = {delegates}"
            );
        }
    }

    #[test]
    fn wait_all_from_delegate_context_helps_first() {
        // A delegate batch-waiting on futures it spawned into its own
        // queue must help-first drain them, not deadlock.
        let rt = rt(1);
        let parent: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
        let children: Vec<Writable<u64, SequenceSerializer>> =
            (0..4).map(|i| Writable::new(&rt, i)).collect();
        rt.begin_isolation().unwrap();
        let rt1 = rt.clone();
        let kids = children.clone();
        let fut = parent
            .delegate_with(move |n| {
                let futs: Vec<SsFuture<u64>> = rt1
                    .delegate_scope(|cx| {
                        kids.iter()
                            .map(|k| cx.delegate_with(k, |c| *c + 10).unwrap())
                            .collect()
                    })
                    .unwrap();
                *n = SsFuture::wait_all(futs).unwrap().iter().sum::<u64>();
                *n
            })
            .unwrap();
        assert_eq!(fut.wait().unwrap(), 10 + 11 + 12 + 13);
        rt.end_isolation().unwrap();
    }

    #[test]
    fn wait_all_of_nothing_is_empty() {
        let got: Vec<u64> = SsFuture::wait_all(Vec::<SsFuture<u64>>::new()).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn inline_futures_are_born_ready() {
        let rt = rt(0);
        let w: Writable<u64> = Writable::new(&rt, 5);
        rt.begin_isolation().unwrap();
        let fut = w.delegate_with(|n| *n * 2).unwrap();
        assert!(fut.was_inline());
        assert!(fut.is_ready());
        assert_eq!(fut.wait().unwrap(), 10);
        rt.end_isolation().unwrap();
    }

    #[test]
    fn delegate_waits_on_own_spawn_tree_help_first() {
        // One delegate: the child operation lands in the waiting
        // delegate's own queue; a conventional block would deadlock, the
        // help-first wait executes it.
        let rt = rt(1);
        let parent: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
        let child: Writable<u64, SequenceSerializer> = Writable::new(&rt, 7);
        rt.begin_isolation().unwrap();
        let rt1 = rt.clone();
        let child1 = child.clone();
        let fut = parent
            .delegate_with(move |n| {
                let fut = rt1
                    .delegate_scope(|cx| cx.delegate_with(&child1, |c| *c * 6))
                    .unwrap()
                    .unwrap();
                *n = fut.wait().unwrap();
                *n
            })
            .unwrap();
        assert_eq!(fut.wait().unwrap(), 42);
        rt.end_isolation().unwrap();
        assert_eq!(parent.call(|n| *n).unwrap(), 42);
    }

    #[test]
    fn deep_spawn_chain_waits_complete() {
        // Parent waits on child which waits on grandchild, all potentially
        // on the same delegate: help-first must nest.
        for delegates in [1, 2] {
            let rt = rt(delegates);
            let objs: Vec<Writable<u64, SequenceSerializer>> =
                (0..3).map(|_| Writable::new(&rt, 1)).collect();
            rt.begin_isolation().unwrap();
            let (rt1, o1, o2) = (rt.clone(), objs[1].clone(), objs[2].clone());
            let fut = objs[0]
                .delegate_with(move |n| {
                    let (rt2, o2b) = (rt1.clone(), o2.clone());
                    let child = rt1
                        .delegate_scope(|cx| {
                            cx.delegate_with(&o1, move |m| {
                                let grand = rt2
                                    .delegate_scope(|cx| cx.delegate_with(&o2b, |g| *g + 10))
                                    .unwrap()
                                    .unwrap();
                                *m = grand.wait().unwrap() + 100;
                                *m
                            })
                        })
                        .unwrap()
                        .unwrap();
                    *n = child.wait().unwrap() + 1000;
                    *n
                })
                .unwrap();
            assert_eq!(fut.wait().unwrap(), 1111, "delegates = {delegates}");
            rt.end_isolation().unwrap();
        }
    }

    #[test]
    fn waiting_on_own_set_is_rejected_deterministically() {
        // The immediate self-cycle: an operation waits on a future for an
        // operation in its *own* serialization set — per-set FIFO orders
        // it after the waiter, so this can never complete.
        let rt = rt(1);
        let w: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
        let seen: Arc<Mutex<Option<SsError>>> = Arc::new(Mutex::new(None));
        rt.begin_isolation().unwrap();
        let (rt1, w1, seen1) = (rt.clone(), w.clone(), Arc::clone(&seen));
        w.delegate(move |_| {
            let fut = rt1
                .delegate_scope(|cx| {
                    cx.delegate_with(&w1, |n| {
                        *n += 1;
                        *n
                    })
                })
                .unwrap()
                .unwrap();
            *seen1.lock().unwrap() = Some(fut.wait().unwrap_err());
        })
        .unwrap();
        rt.end_isolation().unwrap();
        let err = seen.lock().unwrap().take().expect("wait did not run");
        assert!(matches!(err, SsError::FutureDeadlock { .. }), "{err:?}");
        // The rejected wait's operation still ran (deferred, then drained
        // by the barrier) and the runtime is healthy.
        assert_eq!(w.call(|n| *n).unwrap(), 1);
        assert!(!rt.is_poisoned());
    }

    #[test]
    fn cross_delegate_cycle_is_broken_not_hung() {
        // Two delegates wait on futures pinned to each other, behind the
        // sets they are executing: a genuine waits-for cycle. The
        // detector must break it (at least one FutureDeadlock); nothing
        // may hang and the epoch must close cleanly.
        let rt = Runtime::builder().delegate_threads(2).build().unwrap();
        // SequenceSerializer: instance 0 → set 0 → delegate 0, instance
        // 1 → set 1 → delegate 1 under static assignment.
        let x: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
        let y: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
        let gate = Arc::new(Barrier::new(2));
        let deadlocks = Arc::new(AtomicU64::new(0));
        let resolved = Arc::new(AtomicU64::new(0));
        rt.begin_isolation().unwrap();
        for (mine, other) in [(x.clone(), y.clone()), (y.clone(), x.clone())] {
            let (rt1, gate1) = (rt.clone(), Arc::clone(&gate));
            let (dl, ok) = (Arc::clone(&deadlocks), Arc::clone(&resolved));
            mine.delegate(move |_| {
                let fut = rt1
                    .delegate_scope(|cx| {
                        cx.delegate_with(&other, |n| {
                            *n += 1;
                            *n
                        })
                    })
                    .unwrap()
                    .unwrap();
                // Both spawns are published before either side waits, so
                // the cycle is fully formed.
                gate1.wait();
                match fut.wait() {
                    Ok(_) => {
                        ok.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(SsError::FutureDeadlock { .. }) => {
                        dl.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => panic!("unexpected error: {e:?}"),
                }
            })
            .unwrap();
        }
        rt.end_isolation().unwrap();
        let dl = deadlocks.load(Ordering::Relaxed);
        let ok = resolved.load(Ordering::Relaxed);
        assert!(dl >= 1, "no deadlock detected (ok = {ok})");
        assert_eq!(dl + ok, 2, "a waiter vanished");
        // Both cross-operations executed once their waiters unblocked.
        assert_eq!(x.call(|n| *n).unwrap(), 1);
        assert_eq!(y.call(|n| *n).unwrap(), 1);
        assert!(!rt.is_poisoned());
    }

    #[test]
    fn panicked_operation_poisons_waiter() {
        let rt = rt(1);
        let w: Writable<u64> = Writable::new(&rt, 0);
        rt.begin_isolation().unwrap();
        let fut = w.delegate_with(|_| -> u64 { panic!("kaboom") }).unwrap();
        let err = fut.wait().unwrap_err();
        assert!(matches!(err, SsError::DelegatePanicked(ref m) if m.contains("kaboom")));
        assert!(rt.end_isolation().is_err());
    }

    #[test]
    fn operations_skipped_by_poison_close_their_futures() {
        let rt = rt(1);
        let w: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
        rt.begin_isolation().unwrap();
        w.delegate(|_| panic!("first")).unwrap();
        // Submitted while the panic may not yet be observed; whether each
        // future resolves or is cancelled, wait() must return.
        let futs: Vec<_> = (0..50)
            .filter_map(|_| w.delegate_with(|n| *n).ok())
            .collect();
        for f in futs {
            match f.wait() {
                Ok(_) | Err(SsError::DelegatePanicked(_)) => {}
                Err(e) => panic!("unexpected error: {e:?}"),
            }
        }
        assert!(rt.end_isolation().is_err());
    }

    #[test]
    fn runtime_delegate_with_rejects_foreign_objects() {
        let rt_a = rt(1);
        let rt_b = rt(1);
        let w: Writable<u64> = Writable::new(&rt_b, 0);
        rt_a.begin_isolation().unwrap();
        assert_eq!(
            rt_a.delegate_with(&w, |n| *n).unwrap_err(),
            SsError::WrongContext
        );
        rt_a.end_isolation().unwrap();
    }

    #[test]
    fn future_resolution_is_traced() {
        let rt = Runtime::builder()
            .delegate_threads(1)
            .trace(true)
            .build()
            .unwrap();
        let w: Writable<u64> = Writable::new(&rt, 0);
        rt.begin_isolation().unwrap();
        let fut = w.delegate_with(|n| *n + 1).unwrap();
        assert_eq!(fut.wait().unwrap(), 1);
        rt.end_isolation().unwrap();
        let trace = rt.take_trace().unwrap();
        assert!(
            trace.iter().any(|e| e.kind == TraceKind::FutureResolve),
            "no FutureResolve event in {trace:?}"
        );
    }

    #[test]
    fn future_reports_set_and_epoch() {
        let rt = rt(1);
        let w: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
        rt.begin_isolation().unwrap();
        let fut = w.delegate_with(|n| *n).unwrap();
        assert_eq!(fut.set(), SsId(w.instance()));
        assert_eq!(fut.epoch(), 1);
        assert!(format!("{fut:?}").contains("SsFuture"));
        fut.wait().unwrap();
        rt.end_isolation().unwrap();
    }
}
