//! `reducible_vec`: per-executor vectors merged by concatenation.
//!
//! Concatenation is associative but not commutative: the merged order
//! keeps each serialization set's pushes in program order (`Reducible`'s
//! fold order; a steal, which can move a started set's tail to a delegate
//! whose view folds earlier, is the exception) but otherwise depends on
//! which executor ran what. Use
//! [`ReducibleVec::take_sorted`] when a canonical order is required — the
//! paper's reducible contract assumes order-insensitive operations (§2.2).

use ss_core::{Reduce, Reducible, Runtime, SsResult};

struct VecView<T>(Vec<T>);

impl<T: Send + 'static> Reduce for VecView<T> {
    fn reduce(&mut self, mut other: Self) {
        self.0.append(&mut other.0);
    }
}

/// A reducible vector: concurrent appends from any executor, concatenated at
/// reduction.
///
/// ```
/// use ss_collections::ReducibleVec;
/// use ss_core::{Runtime, SequenceSerializer, Writable};
///
/// let rt = Runtime::builder().delegate_threads(2).build().unwrap();
/// let results: ReducibleVec<u64> = ReducibleVec::new(&rt);
/// let jobs: Vec<Writable<u64, SequenceSerializer>> =
///     (0..16).map(|i| Writable::new(&rt, i)).collect();
///
/// rt.begin_isolation().unwrap();
/// for j in &jobs {
///     let out = results.clone();
///     j.delegate(move |v| { out.push(*v * *v).unwrap(); }).unwrap();
/// }
/// rt.end_isolation().unwrap();
/// assert_eq!(results.take_sorted().unwrap(), (0..16).map(|i| i * i).collect::<Vec<u64>>());
/// ```
pub struct ReducibleVec<T: Send + 'static> {
    inner: Reducible<VecView<T>>,
}

impl<T: Send + 'static> Clone for ReducibleVec<T> {
    fn clone(&self) -> Self {
        ReducibleVec {
            inner: self.inner.clone(),
        }
    }
}

impl<T: Send + 'static> ReducibleVec<T> {
    /// Creates an empty reducible vector on `rt`.
    pub fn new(rt: &Runtime) -> Self {
        ReducibleVec {
            inner: Reducible::new(rt, || VecView(Vec::new())),
        }
    }

    /// Appends to the calling executor's view.
    pub fn push(&self, value: T) -> SsResult<()> {
        self.inner.view(|v| v.0.push(value))
    }

    /// Appends many values at once.
    pub fn extend(&self, values: impl IntoIterator<Item = T>) -> SsResult<()> {
        self.inner.view(|v| v.0.extend(values))
    }

    /// Elements visible to the calling executor.
    pub fn len(&self) -> SsResult<usize> {
        self.inner.view(|v| v.0.len())
    }

    /// True when no elements are visible.
    pub fn is_empty(&self) -> SsResult<bool> {
        Ok(self.len()? == 0)
    }

    /// Removes and returns the merged vector (program context, aggregation
    /// epoch). Order is slot-merge order — see the module note.
    pub fn take(&self) -> SsResult<Vec<T>> {
        Ok(self.inner.take()?.map(|v| v.0).unwrap_or_default())
    }

    /// Removes, merges and sorts (canonical order independent of the runtime
    /// configuration).
    pub fn take_sorted(&self) -> SsResult<Vec<T>>
    where
        T: Ord,
    {
        let mut v = self.take()?;
        v.sort();
        Ok(v)
    }

    /// Iterates the merged vector in place (program context, aggregation).
    pub fn for_each(&self, mut f: impl FnMut(&T)) -> SsResult<()> {
        self.inner.read(|v| {
            for x in v.0.iter() {
                f(x);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_core::{SequenceSerializer, Writable};

    #[test]
    fn collects_across_executors() {
        let rt = Runtime::builder().delegate_threads(3).build().unwrap();
        let out: ReducibleVec<u32> = ReducibleVec::new(&rt);
        let jobs: Vec<Writable<u32, SequenceSerializer>> =
            (0..30).map(|i| Writable::new(&rt, i)).collect();
        rt.begin_isolation().unwrap();
        for j in &jobs {
            let out = out.clone();
            j.delegate(move |v| out.push(*v).unwrap()).unwrap();
        }
        rt.end_isolation().unwrap();
        assert_eq!(out.take_sorted().unwrap(), (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn extend_and_len() {
        let rt = Runtime::builder().delegate_threads(1).build().unwrap();
        let out: ReducibleVec<u8> = ReducibleVec::new(&rt);
        rt.isolated(|| {
            out.extend([1, 2, 3]).unwrap();
        })
        .unwrap();
        assert_eq!(out.len().unwrap(), 3);
        assert!(!out.is_empty().unwrap());
    }

    #[test]
    fn same_executor_order_is_preserved() {
        // All pushes from one serialization set keep FIFO order, on one
        // executor or with a tail the program thread retracted.
        let rt = Runtime::builder().delegate_threads(2).build().unwrap();
        let out: ReducibleVec<u32> = ReducibleVec::new(&rt);
        let cell: Writable<u32> = Writable::new(&rt, 0);
        rt.begin_isolation().unwrap();
        for i in 0..100 {
            let out = out.clone();
            cell.delegate(move |_| out.push(i).unwrap()).unwrap();
        }
        rt.end_isolation().unwrap();
        assert_eq!(out.take().unwrap(), (0..100).collect::<Vec<_>>());
    }
}
