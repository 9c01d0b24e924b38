//! Serializers: the dependence-classification mechanism of the model.
//!
//! A *serializer* is "a computational operation that identifies the
//! serialization set when executed at runtime" (§2.1). The runtime executes
//! the serializer at every delegation point; operations mapped to the same
//! [`SsId`] are executed in program order, operations in different sets may
//! run concurrently.
//!
//! The paper distinguishes *internal* serializers (associated with the data
//! type — Prometheus implements them as a virtual method) from *external*
//! serializers (supplied by the caller at the delegation site). Here:
//!
//! * internal serializers are types implementing [`Serializer`], selected as
//!   the `S` parameter of `Writable<T, S>`:
//!   [`ObjectSerializer`] (the paper's *object* serializer — the address of
//!   the object), [`SequenceSerializer`] (the paper's *sequence* serializer —
//!   the instance number), and [`FnSerializer`] for ad-hoc logic that may
//!   inspect the object itself;
//! * the external form is `Writable::delegate_in(ss, …)`, paired with
//!   [`NullSerializer`] when the type should have no internal default.

/// A serialization-set identifier.
///
/// All delegated operations with equal `SsId` (within a runtime) execute in
/// program order on the same executor; distinct ids may execute
/// concurrently. The id also drives static delegate assignment:
/// `executor = id mod delegates` (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SsId(pub u64);

impl From<u64> for SsId {
    fn from(v: u64) -> Self {
        SsId(v)
    }
}

impl From<usize> for SsId {
    fn from(v: usize) -> Self {
        SsId(v as u64)
    }
}

/// Context handed to a serializer invocation.
///
/// Carries the identifying metadata Prometheus makes available to its
/// built-in serializers: the object's stable heap address (object serializer)
/// and its creation sequence number (sequence serializer).
#[derive(Debug, Clone, Copy)]
pub struct SerializeCx {
    /// Stable address of the wrapped object (the allocation lives inside an
    /// `Arc`, so it does not move for the object's lifetime).
    pub address: usize,
    /// Monotonic per-runtime instance number assigned at wrapper
    /// construction.
    pub instance: u64,
}

/// Computes the serialization set for a delegated operation on `T`.
///
/// Implementations must be pure functions of `(object, cx)` for the duration
/// of an isolation epoch: if the same object maps to two different sets in
/// one epoch the runtime reports [`SsError::InconsistentSerializer`]
/// (`§3.3`).
///
/// [`SsError::InconsistentSerializer`]: crate::SsError::InconsistentSerializer
pub trait Serializer<T: ?Sized>: Send + Sync + 'static {
    /// Returns the serialization set for one delegated operation, or `None`
    /// if this serializer cannot produce one (the null serializer).
    fn serialize(&self, obj: &T, cx: SerializeCx) -> Option<SsId>;
}

/// The paper's *object* serializer: serializes on the address of the object,
/// so every distinct object forms its own serialization set.
#[derive(Debug, Default, Clone, Copy)]
pub struct ObjectSerializer;

impl<T: ?Sized> Serializer<T> for ObjectSerializer {
    #[inline]
    fn serialize(&self, _obj: &T, cx: SerializeCx) -> Option<SsId> {
        Some(SsId(cx.address as u64))
    }
}

/// The paper's *sequence* serializer: serializes on the instance number of
/// the object. Instance numbers are small and dense, which makes the static
/// `id mod delegates` assignment spread consecutive objects
/// round-robin across delegates (the behaviour `reverse_index` relies on).
#[derive(Debug, Default, Clone, Copy)]
pub struct SequenceSerializer;

impl<T: ?Sized> Serializer<T> for SequenceSerializer {
    #[inline]
    fn serialize(&self, _obj: &T, cx: SerializeCx) -> Option<SsId> {
        Some(SsId(cx.instance))
    }
}

/// The paper's *null* serializer: used when an external serializer will be
/// provided at the delegation site. Implicit delegation through it is an
/// error ([`SsError::MissingSerializer`]).
///
/// [`SsError::MissingSerializer`]: crate::SsError::MissingSerializer
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSerializer;

impl<T: ?Sized> Serializer<T> for NullSerializer {
    #[inline]
    fn serialize(&self, _obj: &T, _cx: SerializeCx) -> Option<SsId> {
        None
    }
}

/// An internal serializer built from a closure, for cases where identifying
/// information is stored *inside* the object (§2.1's "internal serializers
/// are useful when identifying information is stored with the data").
///
/// ```
/// use ss_core::{FnSerializer, Runtime, Writable};
///
/// struct Account { branch: u64, balance: i64 }
///
/// let rt = Runtime::builder().delegate_threads(1).build().unwrap();
/// // All accounts of one branch share a serialization set, so per-branch
/// // operations stay ordered while different branches run concurrently.
/// let ser = FnSerializer::new(|a: &Account| a.branch);
/// let acct = Writable::with_serializer(&rt, Account { branch: 3, balance: 0 }, ser);
/// rt.begin_isolation().unwrap();
/// acct.delegate(|a| a.balance += 100).unwrap();
/// rt.end_isolation().unwrap();
/// assert_eq!(acct.call(|a| a.balance).unwrap(), 100);
/// ```
pub struct FnSerializer<T: ?Sized, F> {
    f: F,
    _marker: core::marker::PhantomData<fn(&T)>,
}

impl<T: ?Sized, F> FnSerializer<T, F>
where
    F: Fn(&T) -> u64 + Send + Sync + 'static,
{
    /// Wraps `f` as a serializer; `f` returns the raw set number.
    pub fn new(f: F) -> Self {
        FnSerializer {
            f,
            _marker: core::marker::PhantomData,
        }
    }
}

impl<T: ?Sized + 'static, F> Serializer<T> for FnSerializer<T, F>
where
    F: Fn(&T) -> u64 + Send + Sync + 'static,
{
    #[inline]
    fn serialize(&self, obj: &T, _cx: SerializeCx) -> Option<SsId> {
        Some(SsId((self.f)(obj)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cx(address: usize, instance: u64) -> SerializeCx {
        SerializeCx { address, instance }
    }

    #[test]
    fn object_serializer_uses_address() {
        let s = ObjectSerializer;
        assert_eq!(s.serialize(&1u32, cx(0xdead, 5)), Some(SsId(0xdead)));
        assert_ne!(
            s.serialize(&1u32, cx(0x1000, 5)),
            s.serialize(&1u32, cx(0x2000, 5))
        );
    }

    #[test]
    fn sequence_serializer_uses_instance() {
        let s = SequenceSerializer;
        assert_eq!(s.serialize(&(), cx(0xdead, 5)), Some(SsId(5)));
        assert_eq!(s.serialize(&(), cx(0xbeef, 5)), Some(SsId(5)));
    }

    #[test]
    fn null_serializer_declines() {
        assert_eq!(
            <NullSerializer as Serializer<u32>>::serialize(&NullSerializer, &3, cx(1, 1)),
            None
        );
    }

    #[test]
    fn fn_serializer_reads_object_state() {
        struct Row {
            row: u64,
        }
        let s = FnSerializer::new(|r: &Row| r.row);
        assert_eq!(s.serialize(&Row { row: 9 }, cx(0, 0)), Some(SsId(9)));
    }

    #[test]
    fn ssid_conversions() {
        assert_eq!(SsId::from(7u64), SsId(7));
        assert_eq!(SsId::from(7usize), SsId(7));
    }
}
