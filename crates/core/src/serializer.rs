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
//!   the object, mixed so that aligned addresses spread under modulo),
//!   [`SequenceSerializer`] (the paper's *sequence* serializer —
//!   the instance number), and [`FnSerializer`] for ad-hoc logic that may
//!   inspect the object itself;
//! * the external form is `Writable::delegate_in(ss, …)`, paired with
//!   [`NullSerializer`] when the type should have no internal default.

/// A serialization-set identifier.
///
/// All delegated operations with equal `SsId` (within a runtime) execute in
/// program order on the same executor; distinct ids may execute
/// concurrently. The id also drives placement, which is the paper's static
/// delegate assignment and nothing else: `executor = id mod delegates`
/// (§4). An id space whose ids share low bits therefore shares delegates;
/// the built-in serializers produce ids that do not ([`ObjectSerializer`]
/// mixes its addresses, [`SequenceSerializer`] counts).
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
///
/// The id is a **bijective mix** of the address's low 48 bits, with the
/// high bits unchanged. Raw addresses are aligned, so
/// under `id mod delegates` they would stack every object on the delegates
/// their alignment selects — 64 objects on 2 delegates all land on one.
/// The mix keeps distinct objects in distinct sets (it is one-to-one), and
/// an address below 2^48 — every user-space address — stays below 2^48,
/// where a session's routing key keeps it whole.
#[derive(Debug, Default, Clone, Copy)]
pub struct ObjectSerializer;

impl<T: ?Sized> Serializer<T> for ObjectSerializer {
    #[inline]
    fn serialize(&self, _obj: &T, cx: SerializeCx) -> Option<SsId> {
        Some(SsId(mix_address(cx.address as u64)))
    }
}

/// Low 48 bits of an address: the part [`mix_address`] permutes.
const ADDRESS_MASK: u64 = (1 << 48) - 1;

/// A bijection of the low 48 bits of `address` that leaves the high bits
/// alone: xor-shift, multiply by an odd constant modulo 2^48, xor-shift.
/// Each step is invertible on 48-bit words, and the multiply carries every
/// low bit into the high ones, which the second shift folds back down, so
/// the residues modulo small numbers no longer follow the alignment.
#[inline]
fn mix_address(address: u64) -> u64 {
    let mut x = address & ADDRESS_MASK;
    x ^= x >> 24;
    x = x.wrapping_mul(0x9E37_79B9_7F4B) & ADDRESS_MASK;
    x ^= x >> 24;
    (address & !ADDRESS_MASK) | x
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
    fn object_serializer_is_a_bijection_of_the_address() {
        let s = ObjectSerializer;
        let id = |address: usize| s.serialize(&1u32, cx(address, 5)).unwrap().0;
        // The same address, the same set; the instance number plays no part.
        assert_eq!(id(0xdead), s.serialize(&1u32, cx(0xdead, 9)).unwrap().0);
        // Distinct addresses, distinct sets.
        let mut ids: Vec<u64> = (0..4096usize).map(|k| id(0x1000 + 8 * k)).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4096);
        // The high 16 bits pass through; the low 48 stay below 2^48.
        let high = (0xabcdu64 << 48) | 0x1234_5678;
        assert_eq!(mix_address(high) >> 48, 0xabcd);
        assert_ne!(mix_address(high), high);
        assert!(id(0x7fff_ffff_f000) < 1 << 48);
        // Aligned objects spread under `id mod n`: 256 addresses at each
        // stride put at most 1.5x the mean in any bucket for every n in
        // 2..=8 (raw addresses put all of them in even buckets at n = 2).
        let base = 0x7f3a_5c00_0000usize;
        for stride in [16, 48, 64, 80, 4096] {
            for n in 2..=8u64 {
                let mut buckets = vec![0u32; n as usize];
                for k in 0..256 {
                    buckets[(id(base + stride * k) % n) as usize] += 1;
                }
                let worst = *buckets.iter().max().unwrap() as f64 / (256.0 / n as f64);
                assert!(worst <= 1.5, "stride {stride}, n {n}: {buckets:?}");
            }
        }
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
