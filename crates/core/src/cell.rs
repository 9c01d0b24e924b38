//! Interior-mutability cell restricted by protocol to the program thread.

use core::cell::UnsafeCell;

/// A value that, by runtime protocol, is only ever accessed by the program
/// thread — or via exclusive ownership (e.g. sole-`Arc` drop).
///
/// The serialization-sets runtime funnels all epoch control, delegation and
/// ownership reclamation through the single program thread (the paper's
/// *program context*), so per-object epoch state needs no atomics. Every
/// access site first verifies that the calling thread is `program_thread`
/// (or holds `&mut`-equivalent exclusivity), which makes the raw access
/// data-race free.
pub(crate) struct ProgramOnly<T>(UnsafeCell<T>);

// SAFETY: see type-level comment — the runtime protocol guarantees exclusive
// access before any `get` call, and `T: Send` lets the (single) accessor be
// whichever thread currently holds that exclusivity.
unsafe impl<T: Send> Sync for ProgramOnly<T> {}
unsafe impl<T: Send> Send for ProgramOnly<T> {}

impl<T> ProgramOnly<T> {
    pub(crate) fn new(v: T) -> Self {
        ProgramOnly(UnsafeCell::new(v))
    }

    /// Returns a mutable reference to the inner value.
    ///
    /// # Safety
    ///
    /// Caller must be the program thread of the owning runtime (or hold
    /// exclusive ownership), and must not let two returned references
    /// coexist — keep the borrow scoped and never hold it across calls into
    /// user code, which may re-enter the runtime.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn get(&self) -> &mut T {
        &mut *self.0.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_access_roundtrip() {
        let c = ProgramOnly::new(1u32);
        // SAFETY: single-threaded test, borrows scoped.
        unsafe {
            *c.get() += 1;
        }
        assert_eq!(unsafe { *c.get() }, 2);
    }
}
