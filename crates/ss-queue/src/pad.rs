//! Cache-line padding to prevent false sharing between adjacent fields that
//! are written by different threads, and a write prefetch for a line the
//! caller is about to write.

use core::fmt;
use core::ops::{Deref, DerefMut};

/// Pads and aligns a value to 128 bytes.
///
/// 128 rather than 64 because recent Intel (and some ARM) parts prefetch
/// cache lines in adjacent pairs, so two logically-independent 64-byte lines
/// can still ping-pong ("spatial prefetcher" false sharing). This matches
/// what `crossbeam_utils::CachePadded` does on x86-64.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in cache-line padding.
    #[inline]
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Unwraps the inner value.
    #[inline]
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CachePadded").field(&self.value).finish()
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

/// Asks for the cache line holding `p` in a writable state, ahead of a
/// store to it: a hint, which never faults and changes nothing the
/// program can observe. A line the other side of a queue wrote last then
/// crosses cores while the caller does other work, instead of when its
/// store reaches the head of the store buffer.
///
/// On x86-64 this is `prefetchw`, issued through `asm!` when the CPU has
/// it (CPUID's `PRFCHW` bit, read once): `_mm_prefetch::<_MM_HINT_ET0>`
/// compiles to a read prefetch (`prefetcht0`) unless the crate is built
/// with `prfchw` enabled, and a read prefetch fetches the line shared, so
/// the store still waits for ownership. Elsewhere it does nothing.
#[inline(always)]
pub(crate) fn prefetch_write<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    if has_prefetchw() {
        // SAFETY: a prefetch reads and writes no memory the program sees
        // and never faults, whatever the address.
        unsafe {
            core::arch::asm!(
                "prefetchw [{p}]",
                p = in(reg) p,
                options(nostack, preserves_flags, readonly)
            )
        };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Whether the CPU implements `prefetchw`, asked once and cached.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn has_prefetchw() -> bool {
    match PRFCHW.load(core::sync::atomic::Ordering::Relaxed) {
        0 => probe_prefetchw(),
        known => known == 2,
    }
}

/// [`has_prefetchw`]'s cache: 0 not asked yet, 1 absent, 2 present.
#[cfg(target_arch = "x86_64")]
static PRFCHW: core::sync::atomic::AtomicU8 = core::sync::atomic::AtomicU8::new(0);

/// Asks CPUID (leaf `0x8000_0001`, ECX bit 8) and fills the cache.
#[cfg(target_arch = "x86_64")]
#[cold]
fn probe_prefetchw() -> bool {
    use core::arch::x86_64::__cpuid;
    #[allow(unused_unsafe)]
    // SAFETY: every x86-64 CPU has CPUID and its extended leaves.
    let present = unsafe {
        __cpuid(0x8000_0000).eax >= 0x8000_0001 && __cpuid(0x8000_0001).ecx & (1 << 8) != 0
    };
    PRFCHW.store(1 + present as u8, core::sync::atomic::Ordering::Relaxed);
    present
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_is_128() {
        assert_eq!(core::mem::align_of::<CachePadded<u8>>(), 128);
        assert_eq!(core::mem::size_of::<CachePadded<u8>>(), 128);
        // Large values keep their own size, rounded up to the alignment.
        assert_eq!(core::mem::size_of::<CachePadded<[u8; 200]>>(), 256);
    }

    #[test]
    fn deref_roundtrip() {
        let mut p = CachePadded::new(41u32);
        *p += 1;
        assert_eq!(*p, 42);
        assert_eq!(p.into_inner(), 42);
    }

    #[test]
    fn adjacent_elements_do_not_share_lines() {
        let v = [CachePadded::new(0u8), CachePadded::new(0u8)];
        let a = &v[0] as *const _ as usize;
        let b = &v[1] as *const _ as usize;
        assert!(b - a >= 128);
    }
}
