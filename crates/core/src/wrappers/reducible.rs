//! The `reducible` wrapper: per-executor views merged by a fold.
//!
//! "Many operations amenable to parallel execution are both associative and
//! commutative, and thus may be performed in any order. We refer to these as
//! *reducible*, because operations may access a local version of the data,
//! and a *reduce* (also known as a fold) operation is performed to summarize
//! these versions into the final result at the end of the isolation epoch"
//! (§2.2).
//!
//! A [`Reducible<T>`] keeps one lazily-created view of `T` per executor
//! (program context + each delegate). During isolation epochs every executor
//! operates on its own view with no synchronization; the first access in the
//! following aggregation epoch triggers the reduction, which merges all views
//! pairwise in parallel — the paper's "Nᵢ₋₁/2 parallel operations at each
//! step i".
//!
//! Because each view "is writable only by a single processor, reducible data
//! is thus a special case of privately-writable data" (§2.2 fn. 1) — the
//! soundness argument is the same executor-exclusivity argument as
//! `Writable`, with the executor index selecting the slot.
//!
//! The fold runs in one fixed order: what earlier reductions merged, then
//! the delegates' views in index order, then the program context's view
//! of the epoch. A set moves between executors within an epoch only from
//! its delegate to the program thread (a tail retraction), so a set's
//! contributions keep their program order even under a merge that does
//! not commute.

use core::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ss_queue::CachePadded;

use crate::cell::ProgramOnly;
use crate::error::{SsError, SsResult};
use crate::runtime::Runtime;

/// A merge ("fold") of two partial results. Implementations should be
/// associative and commutative; operations that are not may defer their
/// non-commuting parts "into the reduction itself" (§2.2).
pub trait Reduce: Send + 'static {
    /// Merges `other` into `self`.
    fn reduce(&mut self, other: Self);
}

/// One executor's view slot. The `borrowed` flag guards against re-entrant
/// access from the same executor (which would alias the `&mut` view).
struct ViewSlot<T> {
    borrowed: AtomicBool,
    value: UnsafeCell<Option<T>>,
}

struct RShared<T> {
    /// Slot 0 = program context, slot `1 + i` = delegate `i`.
    views: Box<[CachePadded<ViewSlot<T>>]>,
    /// Every view folded so far: the program context's view in an
    /// aggregation epoch (program-thread-only, guarded by slot 0's flag).
    merged: ProgramOnly<Option<T>>,
    factory: Box<dyn Fn() -> T + Send + Sync>,
    /// Highest isolation-epoch serial whose views have been folded into
    /// `merged` (program-thread-only).
    reduced_through: ProgramOnly<u64>,
    parallel_reduction: bool,
}

// SAFETY: each slot is accessed only by its executor (slot index = executor
// identity), plus by the program thread during aggregation epochs when all
// delegates are provably idle (queues drained by `end_isolation`).
unsafe impl<T: Send> Send for RShared<T> {}
unsafe impl<T: Send> Sync for RShared<T> {}

/// A reducible shared data domain (Prometheus `reducible<T>`).
///
/// Handles are cheap to clone; clones captured by delegated operations
/// resolve to the executing delegate's private view.
///
/// ```
/// use ss_core::{Reduce, Reducible, Runtime, SequenceSerializer, Writable};
///
/// struct Counter(u64);
/// impl Reduce for Counter {
///     fn reduce(&mut self, other: Self) { self.0 += other.0; }
/// }
///
/// let rt = Runtime::builder().delegate_threads(2).build().unwrap();
/// let total = Reducible::new(&rt, || Counter(0));
/// let files: Vec<Writable<Vec<u8>, SequenceSerializer>> =
///     (0..8).map(|_| Writable::new(&rt, vec![1; 100])).collect();
///
/// rt.begin_isolation().unwrap();
/// for f in &files {
///     let total = total.clone();
///     f.delegate(move |data| {
///         let ones = data.iter().filter(|&&b| b == 1).count() as u64;
///         total.view(|c| c.0 += ones).unwrap();
///     }).unwrap();
/// }
/// rt.end_isolation().unwrap();
///
/// // First aggregation-epoch access runs the reduction.
/// assert_eq!(total.view(|c| c.0).unwrap(), 800);
/// ```
pub struct Reducible<T: Reduce> {
    shared: Arc<RShared<T>>,
    rt: Runtime,
}

impl<T: Reduce> Clone for Reducible<T> {
    fn clone(&self) -> Self {
        Reducible {
            shared: Arc::clone(&self.shared),
            rt: self.rt.clone(),
        }
    }
}

impl<T: Reduce> std::fmt::Debug for Reducible<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reducible")
            .field("slots", &self.shared.views.len())
            .finish()
    }
}

impl<T: Reduce> Reducible<T> {
    /// Creates a reducible domain; `factory` builds the identity view each
    /// executor starts from.
    pub fn new(rt: &Runtime, factory: impl Fn() -> T + Send + Sync + 'static) -> Self {
        Self::with_options(rt, factory, true)
    }

    /// As [`new`](Reducible::new), choosing whether the final fold runs as a
    /// parallel pairwise tree (the paper's scheme) or a sequential fold.
    pub fn with_options(
        rt: &Runtime,
        factory: impl Fn() -> T + Send + Sync + 'static,
        parallel_reduction: bool,
    ) -> Self {
        let slots = rt.executor_slots();
        let views: Box<[CachePadded<ViewSlot<T>>]> = (0..slots)
            .map(|_| {
                CachePadded::new(ViewSlot {
                    borrowed: AtomicBool::new(false),
                    value: UnsafeCell::new(None),
                })
            })
            .collect();
        Reducible {
            shared: Arc::new(RShared {
                views,
                merged: ProgramOnly::new(None),
                factory: Box::new(factory),
                reduced_through: ProgramOnly::new(0),
                parallel_reduction,
            }),
            rt: rt.clone(),
        }
    }

    /// Accesses the calling executor's view, creating it on first use.
    ///
    /// Valid from the program context and from delegated operations. In an
    /// aggregation epoch, the program context's first access triggers the
    /// reduction, so it observes the merged final result.
    pub fn view<R>(&self, f: impl FnOnce(&mut T) -> R) -> SsResult<R> {
        let slot_idx = self
            .rt
            .current_executor_slot()
            .ok_or(SsError::NoExecutorContext)?;
        let mut aggregating = false;
        if slot_idx == 0 {
            // Program context (slot 0 implies program thread): in an
            // aggregation epoch, the merged result.
            let (in_iso, serial, _) = self.rt.epoch_flags();
            if !in_iso {
                self.ensure_reduced(serial)?;
                aggregating = true;
            }
        }
        let slot = &self.shared.views[slot_idx];
        if slot.borrowed.swap(true, Ordering::Relaxed) {
            return Err(SsError::ReentrantView);
        }
        // Release the borrow flag even if `f` panics.
        struct Unborrow<'a>(&'a AtomicBool);
        impl Drop for Unborrow<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Relaxed);
            }
        }
        let _guard = Unborrow(&slot.borrowed);
        // SAFETY: slot index equals the calling executor's identity (and
        // `merged` is the program thread's), each executor runs one
        // operation at a time, and the re-entrancy flag above excludes
        // aliasing from nested access on the same executor.
        let view = if aggregating {
            unsafe { self.shared.merged.get() }
        } else {
            unsafe { &mut *slot.value.get() }
        };
        let v = view.get_or_insert_with(|| (self.shared.factory)());
        Ok(f(v))
    }

    /// Reads the reduced final view (program context, aggregation epoch).
    pub fn read<R>(&self, f: impl FnOnce(&T) -> R) -> SsResult<R> {
        self.rt.require_program_thread()?;
        if self.rt.in_isolation() {
            return Err(SsError::NotInAggregation);
        }
        self.view(|v| f(v))
    }

    /// Removes and returns the reduced final view (program context,
    /// aggregation epoch). `None` if the domain was never written.
    pub fn take(&self) -> SsResult<Option<T>> {
        self.rt.require_program_thread()?;
        let (in_iso, serial, _) = self.rt.epoch_flags();
        if in_iso {
            return Err(SsError::NotInAggregation);
        }
        self.ensure_reduced(serial)?;
        let slot = &self.shared.views[0];
        if slot.borrowed.swap(true, Ordering::Relaxed) {
            return Err(SsError::ReentrantView);
        }
        // SAFETY: program thread, slot 0's flag held.
        let out = unsafe { self.shared.merged.get() }.take();
        slot.borrowed.store(false, Ordering::Relaxed);
        Ok(out)
    }

    /// Forces the reduction now (program context, aggregation epoch). The
    /// runtime normally does this lazily at the first aggregation access.
    pub fn reduce_now(&self) -> SsResult<()> {
        self.rt.require_program_thread()?;
        let (in_iso, serial, _) = self.rt.epoch_flags();
        if in_iso {
            return Err(SsError::NotInAggregation);
        }
        self.ensure_reduced(serial)
    }

    fn ensure_reduced(&self, serial: u64) -> SsResult<()> {
        // SAFETY: program thread (callers checked); scoped.
        {
            let through = unsafe { self.shared.reduced_through.get() };
            if *through >= serial {
                return Ok(());
            }
        }
        self.reduce_views()?;
        // SAFETY: as above.
        unsafe {
            *self.shared.reduced_through.get() = serial;
        }
        Ok(())
    }

    /// Folds all views into `merged`, in the order of the module docs.
    /// Program thread, aggregation epoch: every delegate queue was drained
    /// at `end_isolation`, so no view is in use.
    fn reduce_views(&self) -> SsResult<()> {
        let t0 = Instant::now();
        let views = &self.shared.views;
        if views
            .iter()
            .any(|slot| slot.borrowed.load(Ordering::Relaxed))
        {
            return Err(SsError::ReentrantView);
        }
        // SAFETY: program thread; delegates idle (aggregation).
        let mut items: Vec<T> = unsafe { self.shared.merged.get() }
            .take()
            .into_iter()
            .collect();
        for slot in views[1..].iter().chain(&views[..1]) {
            // SAFETY: as above.
            if let Some(v) = unsafe { &mut *slot.value.get() }.take() {
                items.push(v);
            }
        }
        if items.is_empty() {
            return Ok(());
        }
        let merged = if self.shared.parallel_reduction {
            tree_reduce(items)
        } else {
            let mut it = items.into_iter();
            let mut acc = it.next().expect("non-empty");
            for v in it {
                acc.reduce(v);
            }
            acc
        };
        // SAFETY: as above.
        *unsafe { self.shared.merged.get() } = Some(merged);
        self.rt.add_reduction_time(t0.elapsed());
        self.rt
            .trace_record(crate::trace::TraceKind::Reduce, None, None, None);
        Ok(())
    }
}

/// Pairwise parallel tree reduction: ⌈N/2⌉ merges per step, each step's
/// merges running concurrently (the paper's Nᵢ₋₁/2 scheme). Uses scoped
/// threads for the merge fan-out; with ≤ 2 items it degenerates to the
/// obvious sequential merge.
fn tree_reduce<T: Reduce>(mut items: Vec<T>) -> T {
    while items.len() > 2 {
        let spare = if items.len() % 2 == 1 {
            items.pop()
        } else {
            None
        };
        let mut merged: Vec<T> = Vec::with_capacity(items.len() / 2 + 1);
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(items.len() / 2);
            let mut it = items.drain(..);
            while let (Some(mut a), Some(b)) = (it.next(), it.next()) {
                handles.push(s.spawn(move || {
                    a.reduce(b);
                    a
                }));
            }
            drop(it);
            for h in handles {
                merged.push(h.join().expect("reduce thread panicked"));
            }
        });
        if let Some(x) = spare {
            merged.push(x);
        }
        items = merged;
    }
    let mut it = items.into_iter();
    let mut acc = it.next().expect("tree_reduce on empty input");
    for v in it {
        acc.reduce(v);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serializer::SequenceSerializer;
    use crate::wrappers::Writable;

    #[derive(Debug, PartialEq)]
    struct Sum(u64);
    impl Reduce for Sum {
        fn reduce(&mut self, other: Self) {
            self.0 += other.0;
        }
    }

    fn rt(delegates: usize) -> Runtime {
        Runtime::builder()
            .delegate_threads(delegates)
            .build()
            .unwrap()
    }

    #[test]
    fn views_merge_after_epoch() {
        let rt = rt(2);
        let total = Reducible::new(&rt, || Sum(0));
        let objs: Vec<Writable<u64, SequenceSerializer>> =
            (0..8).map(|_| Writable::new(&rt, 0)).collect();
        rt.begin_isolation().unwrap();
        for (i, o) in objs.iter().enumerate() {
            let t = total.clone();
            o.delegate(move |_| t.view(|s| s.0 += i as u64 + 1).unwrap())
                .unwrap();
        }
        rt.end_isolation().unwrap();
        assert_eq!(total.view(|s| s.0).unwrap(), (1..=8).sum::<u64>());
    }

    #[test]
    fn program_context_contributes_a_view() {
        let rt = rt(1);
        let total = Reducible::new(&rt, || Sum(0));
        rt.begin_isolation().unwrap();
        total.view(|s| s.0 += 5).unwrap(); // program view during isolation
        rt.end_isolation().unwrap();
        assert_eq!(total.read(|s| s.0).unwrap(), 5);
    }

    #[test]
    fn reduction_happens_once_per_epoch_boundary() {
        let rt = rt(2);
        let total = Reducible::new(&rt, || Sum(0));
        rt.isolated(|| total.view(|s| s.0 += 1).unwrap()).unwrap();
        assert_eq!(total.view(|s| s.0).unwrap(), 1);
        let reductions_before = rt.stats().reductions;
        // Repeated aggregation reads must not re-reduce.
        assert_eq!(total.view(|s| s.0).unwrap(), 1);
        assert_eq!(rt.stats().reductions, reductions_before);
        // Accumulates across epochs.
        rt.isolated(|| total.view(|s| s.0 += 2).unwrap()).unwrap();
        assert_eq!(total.view(|s| s.0).unwrap(), 3);
    }

    #[test]
    fn take_removes_final_view() {
        let rt = rt(1);
        let total = Reducible::new(&rt, || Sum(0));
        rt.isolated(|| total.view(|s| s.0 += 9).unwrap()).unwrap();
        assert_eq!(total.take().unwrap(), Some(Sum(9)));
        assert_eq!(total.take().unwrap(), None);
    }

    #[test]
    fn take_and_reduce_require_aggregation() {
        let rt = rt(1);
        let total = Reducible::new(&rt, || Sum(0));
        rt.begin_isolation().unwrap();
        assert_eq!(total.take(), Err(SsError::NotInAggregation));
        assert_eq!(total.reduce_now(), Err(SsError::NotInAggregation));
        assert_eq!(total.read(|s| s.0), Err(SsError::NotInAggregation));
        rt.end_isolation().unwrap();
    }

    #[test]
    fn foreign_thread_has_no_view() {
        let rt = rt(1);
        let total = Reducible::new(&rt, || Sum(0));
        let t2 = total.clone();
        std::thread::spawn(move || {
            assert_eq!(t2.view(|s| s.0), Err(SsError::NoExecutorContext));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn reentrant_view_is_rejected_not_ub() {
        let rt = rt(1);
        let total = Reducible::new(&rt, || Sum(0));
        let t2 = total.clone();
        let result = total.view(move |_| t2.view(|s| s.0)).unwrap();
        assert_eq!(result, Err(SsError::ReentrantView));
    }

    #[test]
    fn tree_reduce_matches_sequential_fold() {
        for n in 1..20u64 {
            let items: Vec<Sum> = (1..=n).map(Sum).collect();
            let total = tree_reduce(items);
            assert_eq!(total.0, (1..=n).sum::<u64>(), "n = {n}");
        }
    }

    #[test]
    fn sequential_reduction_option() {
        let rt = rt(3);
        let total = Reducible::with_options(&rt, || Sum(0), false);
        let objs: Vec<Writable<u64, SequenceSerializer>> =
            (0..6).map(|_| Writable::new(&rt, 0)).collect();
        rt.begin_isolation().unwrap();
        for o in &objs {
            let t = total.clone();
            o.delegate(move |_| t.view(|s| s.0 += 1).unwrap()).unwrap();
        }
        rt.end_isolation().unwrap();
        assert_eq!(total.read(|s| s.0).unwrap(), 6);
    }

    #[test]
    fn stats_record_reduction_time() {
        let rt = rt(2);
        let total = Reducible::new(&rt, || Sum(0));
        rt.isolated(|| {
            total.view(|s| s.0 += 1).unwrap();
        })
        .unwrap();
        total.reduce_now().unwrap();
        assert!(rt.stats().reductions >= 1);
    }
}
