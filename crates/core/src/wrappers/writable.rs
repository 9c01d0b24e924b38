//! The `writable` wrapper: privately-writable data domains.
//!
//! A [`Writable<T, S>`] owns a `T` and mediates every access through the
//! serialization-sets protocol:
//!
//! * [`delegate`](Writable::delegate) assigns a potentially independent
//!   operation to the delegate context, in the serialization set computed by
//!   the internal serializer `S`;
//! * [`delegate_in`](Writable::delegate_in) is the external-serializer form
//!   (the set is supplied at the delegation site);
//! * [`call`](Writable::call) / [`call_mut`](Writable::call_mut) execute in
//!   the program context, implicitly *reclaiming ownership* (flushing the
//!   owning delegate's queue) when delegated operations are outstanding;
//! * a per-epoch state machine rejects using the same object as both
//!   read-only and privately-writable within one isolation epoch, and a
//!   per-epoch tag detects serializers that map one object to two sets
//!   (§3.3).
//!
//! # Safety model
//!
//! The single `unsafe` kernel is the access to `UnsafeCell<T>`. It is sound
//! because, at any instant, exactly one executor may touch the value:
//!
//! 1. All delegations of an object within an epoch carry the same
//!    serialization set (enforced *before* enqueueing — even with diagnostics
//!    disabled, the first tag of the epoch is authoritative), and one set maps
//!    to one executor whose queue executes serially in FIFO order. With
//!    recursive delegation, operations may be *submitted* by multiple
//!    producers (program thread and delegate contexts), but the per-epoch
//!    state machine lives under a mutex, so tagging and state transitions are
//!    serialized, and every producer's operations still funnel into the one
//!    owning queue.
//! 2. The program context only touches the value when no delegated operation
//!    can be in flight: during aggregation epochs (every `end_isolation`
//!    drains all queues — transitively, once nested delegation is involved),
//!    or after reclaiming ownership via a synchronization object (FIFO ⇒ all
//!    prior operations on the object completed, with the token's
//!    Release/Acquire edge ordering their effects; once the epoch has seen a
//!    nested delegation the reclaim escalates to a full quiesce, because a
//!    running parent on any queue could still spawn onto the set). While the
//!    program context's access closure runs, the `accessing` flag rejects
//!    racing delegations ([`SsError::AccessInProgress`]) instead of letting
//!    them alias the live borrow.
//! 3. `pending` (incremented at delegation, decremented with Release after
//!    execution) gives the cheap "no outstanding work" fast path, read with
//!    Acquire. On the nested path it is incremented *under* the state mutex,
//!    after the global nested-epoch flag is raised, so a program-context
//!    access that observes `pending == 0` under the same mutex either
//!    predates the nested submission entirely (and the submission will then
//!    see `accessing`/state and reject or queue behind the reclaim) or sees
//!    the flag and quiesces.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use ss_queue::oneshot::OneshotSender;

use crate::error::{SsError, SsResult};
use crate::fingerprint::MemoValue;
use crate::future::SsFuture;
use crate::invocation::TaskSlot;
use crate::runtime::{trace_executor_for, DelegateContext, Executor, Origin, Runtime};
use crate::serializer::{ObjectSerializer, SerializeCx, Serializer, SsId};
use crate::stats::StatsCell;
use crate::trace::TraceKind;
use crate::wrappers::panic_message;

/// Per-epoch use of a writable object (the §3.1 state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UseState {
    /// Not yet used in this isolation epoch.
    Unused,
    /// Used as a read-only object this epoch: const calls allowed, delegation
    /// and mutation are errors.
    ReadShared,
    /// Used as a privately-writable object this epoch: owned by one
    /// serialization set (or by the program context after reclaim).
    PrivateWritable,
}

/// Epoch-local bookkeeping. Guarded by a mutex (not a program-only cell)
/// because recursive delegation lets delegate contexts tag objects and
/// record owners too; the mutex is what serializes the state machine
/// across producers.
struct EpochLocal {
    /// Isolation-epoch serial this state belongs to (lazy reset).
    serial: u64,
    use_state: UseState,
    /// Serialization set recorded at the first delegation of the epoch.
    tag: Option<SsId>,
    /// Executor that owns the tagged set.
    owner: Option<Executor>,
    /// True while a program-context access closure (`call`/`call_mut`)
    /// runs on the value. Delegations observing it are rejected
    /// ([`SsError::AccessInProgress`]) — they would otherwise race the
    /// live borrow.
    accessing: bool,
}

impl EpochLocal {
    fn refresh(&mut self, serial: u64) {
        if self.serial != serial {
            self.serial = serial;
            self.use_state = UseState::Unused;
            self.tag = None;
            self.owner = None;
        }
    }
}

struct Shared<T> {
    value: core::cell::UnsafeCell<T>,
    instance: u64,
    /// Outstanding delegated operations on this object.
    pending: AtomicU32,
    local: Mutex<EpochLocal>,
}

// SAFETY: `value` is accessed under the executor-exclusivity protocol
// documented at module level; `local` is mutex-guarded; `pending` is
// atomic. `T: Send` because the value migrates between executor threads.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

/// Clears `accessing` when the program-context access closure finishes —
/// including by unwinding, so a panicking closure does not wedge the
/// object into permanent [`SsError::AccessInProgress`].
struct AccessGuard<'a>(&'a Mutex<EpochLocal>);

impl Drop for AccessGuard<'_> {
    fn drop(&mut self) {
        self.0.lock().accessing = false;
    }
}

/// Outcome of a memoized delegation's phase 1 (state machine + memo
/// lookup under the object mutex).
enum MemoPrepared {
    /// The memo table held a servable entry: the future is born ready
    /// from `bits` and nothing was committed (no tag, no claim, no
    /// pending raise — the operation will not run).
    Hit {
        bits: u64,
        ss: SsId,
        serial: u64,
        entry_gen: u64,
        live_gen: u64,
    },
    /// No servable entry: the delegation was committed (on the nested
    /// path, `pending` was raised inside the critical section; the
    /// program path raises it after, like the non-memo flow).
    /// `generation` is the set's live generation at lookup time — the
    /// stamp the executed result must publish under.
    Miss {
        ss: SsId,
        serial: u64,
        generation: u64,
    },
}

/// A privately-writable data domain (Prometheus `writable<T, S>`).
///
/// `S` is the *internal serializer* type; it defaults to
/// [`ObjectSerializer`] (each object its own set). Handles are cheap to
/// clone and share the underlying object, like the C++ wrapper references.
///
/// ```
/// use ss_core::{Runtime, SequenceSerializer, Writable};
///
/// let rt = Runtime::builder().delegate_threads(2).build().unwrap();
/// let words: Vec<Writable<Vec<String>, SequenceSerializer>> =
///     (0..4).map(|_| Writable::new(&rt, Vec::new())).collect();
///
/// rt.begin_isolation().unwrap();
/// for i in 0..100usize {
///     words[i % 4].delegate(move |v| v.push(format!("item-{i}"))).unwrap();
/// }
/// rt.end_isolation().unwrap();
///
/// let total: usize = words.iter().map(|w| w.call(|v| v.len()).unwrap()).sum();
/// assert_eq!(total, 100);
/// ```
pub struct Writable<T: Send + 'static, S: Serializer<T> = ObjectSerializer> {
    shared: Arc<Shared<T>>,
    serializer: Arc<S>,
    rt: Runtime,
}

impl<T: Send + 'static, S: Serializer<T>> Clone for Writable<T, S> {
    fn clone(&self) -> Self {
        Writable {
            shared: Arc::clone(&self.shared),
            serializer: Arc::clone(&self.serializer),
            rt: self.rt.clone(),
        }
    }
}

impl<T: Send + 'static, S: Serializer<T>> std::fmt::Debug for Writable<T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Writable")
            .field("instance", &self.shared.instance)
            .field("pending", &self.shared.pending.load(Ordering::Relaxed))
            .finish()
    }
}

impl<T: Send + 'static, S: Serializer<T> + Default> Writable<T, S> {
    /// Wraps `value` in a writable domain using the default-constructed
    /// internal serializer.
    pub fn new(rt: &Runtime, value: T) -> Self {
        Self::with_serializer(rt, value, S::default())
    }
}

impl<T: Send + 'static, S: Serializer<T>> Writable<T, S> {
    /// Wraps `value` using an explicit serializer instance (for stateful /
    /// closure serializers).
    pub fn with_serializer(rt: &Runtime, value: T, serializer: S) -> Self {
        Writable {
            shared: Arc::new(Shared {
                value: core::cell::UnsafeCell::new(value),
                instance: rt.next_instance(),
                pending: AtomicU32::new(0),
                local: Mutex::new(EpochLocal {
                    serial: 0,
                    use_state: UseState::Unused,
                    tag: None,
                    owner: None,
                    accessing: false,
                }),
            }),
            serializer: Arc::new(serializer),
            rt: rt.clone(),
        }
    }

    /// This object's sequence number (the *sequence* serializer's key).
    pub fn instance(&self) -> u64 {
        self.shared.instance
    }

    /// The runtime this object belongs to.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// Outstanding delegated operations (diagnostic).
    pub fn pending_operations(&self) -> u32 {
        self.shared.pending.load(Ordering::Acquire)
    }

    /// Serialization set this object was tagged with in the current epoch,
    /// if it has been delegated (program thread only).
    pub fn current_set(&self) -> SsResult<Option<SsId>> {
        self.rt.require_program_thread()?;
        let (in_iso, serial, _) = self.rt.epoch_flags();
        if !in_iso {
            return Ok(None);
        }
        let local = self.shared.local.lock();
        if local.serial != serial {
            return Ok(None);
        }
        Ok(local.tag)
    }

    // ------------------------------------------------------------------
    // delegation

    /// Assigns a potentially independent operation to the delegate context,
    /// in the set computed by the internal serializer (Table 1 `delegate`).
    ///
    /// The operation's "return type must be void" (results should be stored
    /// in the object and read later via [`call`](Writable::call)); its
    /// captures must be `Send` — the Rust analogue of the paper's
    /// "arguments … passed by value, or pointers/references to classes
    /// derived from `shared`".
    pub fn delegate<F>(&self, f: F) -> SsResult<()>
    where
        F: FnOnce(&mut T) + Send + 'static,
    {
        self.delegate_impl(None, f)
    }

    /// Delegates in an explicitly supplied serialization set — the external
    /// serializer form (Table 1 `delegate(ss_t serializer, …)`).
    pub fn delegate_in<F>(&self, ss: impl Into<SsId>, f: F) -> SsResult<()>
    where
        F: FnOnce(&mut T) + Send + 'static,
    {
        self.delegate_impl(Some(ss.into()), f)
    }

    /// Future-returning delegation (Table 1 `delegate`, minus the "return
    /// type must be void" restriction the paper imposes): the operation's
    /// closure returns a value, which flows back to the delegator through
    /// the returned [`SsFuture`] instead of being smuggled through the
    /// shared object and reclaimed later.
    ///
    /// Routing, ordering and drain semantics are identical to
    /// [`delegate`](Writable::delegate); the future adds only the result
    /// channel (see [`SsFuture`] and the [`future`](crate::SsFuture)
    /// module docs for the drain/drop/deadlock guarantees).
    ///
    /// ```
    /// use ss_core::{Runtime, Writable};
    ///
    /// let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    /// let w: Writable<Vec<u64>> = Writable::new(&rt, vec![3, 4]);
    /// rt.begin_isolation().unwrap();
    /// let fut = w.delegate_with(|v| { v.push(5); v.iter().product::<u64>() }).unwrap();
    /// assert_eq!(fut.wait().unwrap(), 60);
    /// rt.end_isolation().unwrap();
    /// ```
    pub fn delegate_with<R, F>(&self, f: F) -> SsResult<SsFuture<R>>
    where
        R: Send + 'static,
        F: FnOnce(&mut T) -> R + Send + 'static,
    {
        self.delegate_with_impl(None, f)
    }

    /// Future-returning delegation in an explicitly supplied
    /// serialization set — the external-serializer form of
    /// [`delegate_with`](Writable::delegate_with).
    pub fn delegate_in_with<R, F>(&self, ss: impl Into<SsId>, f: F) -> SsResult<SsFuture<R>>
    where
        R: Send + 'static,
        F: FnOnce(&mut T) -> R + Send + 'static,
    {
        self.delegate_with_impl(Some(ss.into()), f)
    }

    /// Memoized future-returning delegation: like
    /// [`delegate_with`](Writable::delegate_with), but keyed by
    /// `(serialization set, fingerprint)` in the runtime's memo table
    /// (present when built with
    /// [`RuntimeBuilder::memo_capacity`](crate::RuntimeBuilder::memo_capacity);
    /// without it this is exactly `delegate_with`).
    ///
    /// `fingerprint` names the inputs the closure depends on — compute
    /// it with [`fingerprint_of`](crate::fingerprint_of) or supply your
    /// own `u64`. **The caller promises** that two submissions with
    /// equal fingerprints on the same set compute the same result; the
    /// runtime does not check this, exactly as it does not check a
    /// serializer's independence promise (the serializability auditor
    /// verifies what it can: generation freshness of every served
    /// entry).
    ///
    /// A **hit** — a cached result from an earlier epoch whose set has
    /// not been invalidated since — returns a future born ready holding
    /// the cached value: no routing, no queue reservation, no delegate
    /// wakeup, no allocation, and the object's epoch state is untouched
    /// (the operation does not run, so the object is not claimed). A
    /// **miss** delegates normally and publishes the result into the
    /// memo table before the operation's completion settles the drain
    /// counters. Any non-memoized delegation on the set, and any
    /// mutating ownership reclaim, invalidates the set's entries in one
    /// generation bump.
    ///
    /// Results must implement [`MemoValue`] (round-trip through a
    /// `u64`): cache a key or summary and keep wide data in the object.
    ///
    /// ```
    /// use ss_core::{fingerprint_of, Runtime, Writable};
    ///
    /// let rt = Runtime::builder()
    ///     .delegate_threads(1)
    ///     .memo_capacity(1024)
    ///     .build()
    ///     .unwrap();
    /// let w: Writable<Vec<u64>> = Writable::new(&rt, (1..=100).collect());
    ///
    /// for _ in 0..3 {
    ///     rt.begin_isolation().unwrap();
    ///     let fp = fingerprint_of(&(1u64, 100u64)); // the inputs
    ///     let f = w.delegate_memo(fp, |v| v.iter().sum::<u64>()).unwrap();
    ///     assert_eq!(f.wait().unwrap(), 5050);
    ///     rt.end_isolation().unwrap();
    /// }
    /// // First submission executed; the re-submissions were served from
    /// // the memo table without executing anything.
    /// assert_eq!(rt.stats().memo_misses, 1);
    /// assert_eq!(rt.stats().memo_hits, 2);
    /// ```
    pub fn delegate_memo<R, F>(&self, fingerprint: u64, f: F) -> SsResult<SsFuture<R>>
    where
        R: MemoValue,
        F: FnOnce(&mut T) -> R + Send + 'static,
    {
        self.delegate_memo_impl(None, fingerprint, f)
    }

    /// Memoized delegation in an explicitly supplied serialization set —
    /// the external-serializer form of
    /// [`delegate_memo`](Writable::delegate_memo).
    pub fn delegate_in_memo<R, F>(
        &self,
        ss: impl Into<SsId>,
        fingerprint: u64,
        f: F,
    ) -> SsResult<SsFuture<R>>
    where
        R: MemoValue,
        F: FnOnce(&mut T) -> R + Send + 'static,
    {
        self.delegate_memo_impl(Some(ss.into()), fingerprint, f)
    }

    fn delegate_impl<F>(&self, external: Option<SsId>, f: F) -> SsResult<()>
    where
        F: FnOnce(&mut T) + Send + 'static,
    {
        let (ss, _serial) = self.prepare_program_delegation(external)?;
        self.shared.pending.fetch_add(1, Ordering::Relaxed);
        let task = self.package_task(f);
        self.submit_and_record(Origin::Program, ss, &mut [Some(task)])?;
        Ok(())
    }

    fn delegate_with_impl<R, F>(&self, external: Option<SsId>, f: F) -> SsResult<SsFuture<R>>
    where
        R: Send + 'static,
        F: FnOnce(&mut T) -> R + Send + 'static,
    {
        let (ss, serial) = self.prepare_program_delegation(external)?;
        self.shared.pending.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = self.oneshot_cell(serial);
        let task = self.package_task_with(f, tx, serial, ss);
        let executor = self.submit_and_record(Origin::Program, ss, &mut [Some(task)])?;
        Ok(SsFuture::new(rx, self.rt.clone(), ss, executor))
    }

    fn delegate_memo_impl<R, F>(
        &self,
        external: Option<SsId>,
        fp: u64,
        f: F,
    ) -> SsResult<SsFuture<R>>
    where
        R: MemoValue,
        F: FnOnce(&mut T) -> R + Send + 'static,
    {
        let rt = &self.rt;
        if rt.inner.core.memo.is_none() {
            // No memo table configured: every submission is a plain
            // future-returning delegation (and nothing is recorded).
            return self.delegate_with_impl(external, f);
        }
        match self.prepare_memo_delegation(external, fp)? {
            MemoPrepared::Hit {
                bits,
                ss,
                serial,
                entry_gen,
                live_gen,
            } => {
                let core = &rt.inner.core;
                StatsCell::bump(&core.stats.memo_hits);
                self.record_memo_hit_audit(ss, entry_gen, live_gen);
                if rt.trace_enabled() {
                    rt.trace_record(
                        TraceKind::MemoHit,
                        Some(self.shared.instance),
                        Some(ss),
                        None,
                    );
                }
                Ok(SsFuture::new_memo_hit(
                    R::from_memo_bits(bits),
                    rt.clone(),
                    ss,
                    serial,
                ))
            }
            MemoPrepared::Miss {
                ss,
                serial,
                generation,
            } => {
                StatsCell::bump(&rt.inner.core.stats.memo_misses);
                self.shared.pending.fetch_add(1, Ordering::Relaxed);
                let (tx, rx) = self.oneshot_cell(serial);
                let task =
                    self.package_task_memo(f, tx, serial, ss, rt.domain().key(ss), fp, generation);
                let executor = self.submit_and_record(Origin::Program, ss, &mut [Some(task)])?;
                Ok(SsFuture::new(rx, self.rt.clone(), ss, executor))
            }
        }
    }

    /// Memoized delegation, phase 1 (program-thread form): the same
    /// context/epoch/state-machine checks as
    /// [`prepare_program_delegation`](Writable::prepare_program_delegation),
    /// plus the memo lookup — all under one hold of the object mutex. A
    /// **hit returns without committing anything**: the object is not
    /// tagged, not claimed and `pending` is untouched, because no
    /// operation will run. Only a miss commits the delegation.
    fn prepare_memo_delegation(&self, external: Option<SsId>, fp: u64) -> SsResult<MemoPrepared> {
        let rt = &self.rt;
        rt.require_program_thread()?;
        let (in_iso, serial, inline) = rt.epoch_flags();
        if inline {
            return Err(SsError::NestedDelegation);
        }
        if !in_iso {
            return Err(SsError::NotInIsolation);
        }
        if rt.is_poisoned() {
            return Err(rt.inner.core.poison_error());
        }
        let memo = rt
            .inner
            .core
            .memo
            .as_ref()
            .expect("caller checked the table exists");

        let mut local = self.shared.local.lock();
        let local = &mut *local;
        local.refresh(serial);
        if local.accessing {
            return Err(SsError::AccessInProgress {
                instance: self.shared.instance,
            });
        }
        if local.use_state == UseState::ReadShared {
            return Err(SsError::StateConflict {
                instance: self.shared.instance,
                was_read_shared: true,
            });
        }
        // Effective-set computation: identical rules to the non-memo
        // prepare (first tag authoritative, §3.3 consistency check under
        // dynamic checks), but the tag is only *committed* on a miss.
        let ss = if let Some(tag) = local.tag {
            if rt.dynamic_checks() {
                let recomputed = match external {
                    Some(e) => Some(e),
                    None if self.shared.pending.load(Ordering::Acquire) == 0 => {
                        // SAFETY: pending == 0 ⇒ no executor holds the value.
                        let value = unsafe { &*self.shared.value.get() };
                        self.serializer.serialize(value, self.cx())
                    }
                    None => None,
                };
                if let Some(got) = recomputed {
                    if got != tag {
                        return Err(SsError::InconsistentSerializer {
                            instance: self.shared.instance,
                            tagged: tag,
                            got,
                        });
                    }
                }
            }
            tag
        } else {
            match external {
                Some(e) => e,
                None => {
                    // Untagged ⇒ no delegation this epoch ⇒ pending == 0
                    // (all previous epochs drained), so the serializer may
                    // inspect the object.
                    debug_assert_eq!(self.shared.pending.load(Ordering::Acquire), 0);
                    // SAFETY: no delegated operations in flight (above).
                    let value = unsafe { &*self.shared.value.get() };
                    self.serializer
                        .serialize(value, self.cx())
                        .ok_or(SsError::MissingSerializer)?
                }
            }
        };
        let key = rt.domain().key(ss);
        // Normal mode serves only live-generation entries; the chaos
        // `stale_memo_serve` weakening serves any entry but reports both
        // generations honestly, so the auditor can catch the lie.
        let served = match memo.lookup_entry(key, fp) {
            Some((bits, entry_gen, live_gen))
                if entry_gen == live_gen || rt.inner.core.chaos_stale_memo_serve() =>
            {
                Some((bits, entry_gen, live_gen))
            }
            _ => None,
        };
        if let Some((bits, entry_gen, live_gen)) = served {
            return Ok(MemoPrepared::Hit {
                bits,
                ss,
                serial,
                entry_gen,
                live_gen,
            });
        }
        // Miss: commit the delegation exactly as the non-memo prepare
        // would have.
        local.tag = Some(ss);
        local.use_state = UseState::PrivateWritable;
        Ok(MemoPrepared::Miss {
            ss,
            serial,
            generation: memo.generation(key),
        })
    }

    /// Records a memo hit with the serializability auditor under this
    /// handle's domain.
    fn record_memo_hit_audit(&self, ss: SsId, entry_gen: u64, live_gen: u64) {
        let d = self.rt.domain();
        let core = &self.rt.inner.core;
        core.audit_memo_hit(d, SsId(d.key(ss)), entry_gen, live_gen);
    }

    /// Invalidates the set's memoized results: one generation bump
    /// lazily kills every `(set, fingerprint)` entry. Called wherever a
    /// non-memoized mutation of the set's object commits — plain
    /// delegation and mutating ownership reclaim.
    #[inline]
    fn invalidate_memo(&self, ss: SsId) {
        if let Some(memo) = &self.rt.inner.core.memo {
            memo.bump_generation(self.rt.domain().key(ss));
            StatsCell::bump(&self.rt.inner.core.stats.memo_invalidations);
        }
    }

    /// Batch delegation: assigns a whole run of operations on this object
    /// to the delegate context in **one** submission — the serialization
    /// set is computed once, the router consulted once, queue space
    /// claimed once and the owning delegate woken once for the entire
    /// run, instead of per operation. Semantically identical to calling
    /// [`delegate`](Writable::delegate) once per closure, in iterator
    /// order (the queue is FIFO, so the operations execute in exactly
    /// that order); the amortization only changes the constant factor.
    ///
    /// Returns the number of operations submitted. An empty iterator is a
    /// no-op (`Ok(0)`) that does not touch the epoch state machine.
    ///
    /// ```
    /// use ss_core::{Runtime, Writable};
    ///
    /// let rt = Runtime::builder().delegate_threads(2).build().unwrap();
    /// let w: Writable<u64> = Writable::new(&rt, 0);
    /// rt.begin_isolation().unwrap();
    /// let n = w.delegate_iter((1..=100u64).map(|i| move |n: &mut u64| *n += i)).unwrap();
    /// assert_eq!(n, 100);
    /// rt.end_isolation().unwrap();
    /// assert_eq!(w.call(|n| *n).unwrap(), 5050);
    /// ```
    pub fn delegate_iter<I, F>(&self, fs: I) -> SsResult<usize>
    where
        I: IntoIterator<Item = F>,
        F: FnOnce(&mut T) + Send + 'static,
    {
        self.delegate_iter_impl(None, fs)
    }

    /// Batch delegation in an explicitly supplied serialization set — the
    /// external-serializer form of
    /// [`delegate_iter`](Writable::delegate_iter).
    pub fn delegate_iter_in<I, F>(&self, ss: impl Into<SsId>, fs: I) -> SsResult<usize>
    where
        I: IntoIterator<Item = F>,
        F: FnOnce(&mut T) + Send + 'static,
    {
        self.delegate_iter_impl(Some(ss.into()), fs)
    }

    fn delegate_iter_impl<I, F>(&self, external: Option<SsId>, fs: I) -> SsResult<usize>
    where
        I: IntoIterator<Item = F>,
        F: FnOnce(&mut T) + Send + 'static,
    {
        // Package first: an empty run must not tag the object or flip its
        // epoch state (packaging touches no shared state).
        let mut tasks: Vec<Option<TaskSlot>> =
            fs.into_iter().map(|f| Some(self.package_task(f))).collect();
        let n = tasks.len();
        if n == 0 {
            return Ok(0);
        }
        let (ss, _serial) = self.prepare_program_delegation(external)?;
        self.shared.pending.fetch_add(n as u32, Ordering::Relaxed);
        self.submit_and_record(Origin::Program, ss, &mut tasks)?;
        Ok(n)
    }

    /// Program-context delegation, phase 1: context/epoch/poison checks
    /// plus the epoch-local state machine and set computation (under the
    /// state mutex: nothing here may run user code). Returns the
    /// effective set and the epoch serial. Shared by
    /// [`delegate`](Writable::delegate) and
    /// [`delegate_with`](Writable::delegate_with).
    fn prepare_program_delegation(&self, external: Option<SsId>) -> SsResult<(SsId, u64)> {
        let rt = &self.rt;
        rt.require_program_thread()?;
        let (in_iso, serial, inline) = rt.epoch_flags();
        if inline {
            return Err(SsError::NestedDelegation);
        }
        if !in_iso {
            return Err(SsError::NotInIsolation);
        }
        if rt.is_poisoned() {
            return Err(rt.inner.core.poison_error());
        }

        let ss = {
            let mut local = self.shared.local.lock();
            let local = &mut *local;
            local.refresh(serial);
            if local.accessing {
                // Re-entrant delegation from inside this object's own
                // `call`/`call_mut` closure would alias the live borrow.
                return Err(SsError::AccessInProgress {
                    instance: self.shared.instance,
                });
            }
            if local.use_state == UseState::ReadShared {
                return Err(SsError::StateConflict {
                    instance: self.shared.instance,
                    was_read_shared: true,
                });
            }
            let effective = if let Some(tag) = local.tag {
                // Already tagged this epoch. The first tag is authoritative
                // for routing (this keeps executor exclusivity even when a
                // buggy serializer would disagree); with diagnostics on we
                // also verify consistency as in §3.3.
                if rt.dynamic_checks() {
                    let recomputed = match external {
                        Some(e) => Some(e),
                        // Recomputing the internal serializer needs `&T`,
                        // which is only safe when no delegated operation is
                        // in flight.
                        None if self.shared.pending.load(Ordering::Acquire) == 0 => {
                            // SAFETY: pending == 0 ⇒ no executor holds the value.
                            let value = unsafe { &*self.shared.value.get() };
                            self.serializer.serialize(value, self.cx())
                        }
                        None => None,
                    };
                    if let Some(got) = recomputed {
                        if got != tag {
                            return Err(SsError::InconsistentSerializer {
                                instance: self.shared.instance,
                                tagged: tag,
                                got,
                            });
                        }
                    }
                }
                tag
            } else {
                let computed = match external {
                    Some(e) => e,
                    None => {
                        // First delegation this epoch ⇒ pending == 0 (all
                        // previous epochs drained at end_isolation), so the
                        // serializer may inspect the object.
                        debug_assert_eq!(self.shared.pending.load(Ordering::Acquire), 0);
                        // SAFETY: no delegated operations in flight (above).
                        let value = unsafe { &*self.shared.value.get() };
                        self.serializer
                            .serialize(value, self.cx())
                            .ok_or(SsError::MissingSerializer)?
                    }
                };
                local.tag = Some(computed);
                computed
            };
            local.use_state = UseState::PrivateWritable;
            effective
        };
        // A non-memoized delegation mutates the set's object outside the
        // memo protocol: invalidate the set's cached results.
        self.invalidate_memo(ss);
        Ok((ss, serial))
    }

    /// Delegation, phases 2–3, for either origin: submit the packaged run
    /// (the caller has already raised `pending` by its length) and record
    /// the owning executor for later reclaims — one router resolution and
    /// one queue publish however long the run. A failed submit undoes
    /// `pending` by exactly the number of tasks that will never execute
    /// (tasks already landed still run and settle their own share). With
    /// tracing on, one event is recorded per operation — in the
    /// program-order log for program origin, as a side event for nested —
    /// so the log of a run is indistinguishable from the equivalent
    /// single-op calls.
    fn submit_and_record(
        &self,
        origin: Origin,
        ss: SsId,
        run: &mut [Option<TaskSlot>],
    ) -> SsResult<Executor> {
        let rt = &self.rt;
        let n = run.len();
        let executor = match rt.submit(origin, ss, run) {
            Ok(e) => e,
            Err((e, unsubmitted)) => {
                self.shared
                    .pending
                    .fetch_sub(unsubmitted as u32, Ordering::Release);
                return Err(e);
            }
        };
        self.shared.local.lock().owner = Some(executor);
        let instance = Some(self.shared.instance);
        match origin {
            Origin::Program if rt.trace_enabled() => {
                let kind = if executor == Executor::Program {
                    TraceKind::InlineExecute
                } else {
                    TraceKind::Delegate
                };
                for _ in 0..n {
                    rt.trace_record(kind, instance, Some(ss), Some(executor));
                }
            }
            Origin::Program => {}
            Origin::Nested => {
                for _ in 0..n {
                    rt.record_side_event(TraceKind::NestedDelegate, instance, Some(ss), executor);
                }
            }
        }
        Ok(executor)
    }

    /// The one-shot completion cell backing a future-returning delegation.
    /// Root-domain futures draw pooled cells; the pool's recycle point is
    /// the *root* epoch barrier, whose drain proves nothing about session
    /// operations, so session futures take fresh (unpooled) cells whose
    /// lifetime is governed by reference counting alone.
    fn oneshot_cell<R: Send + 'static>(
        &self,
        serial: u64,
    ) -> (OneshotSender<R>, ss_queue::oneshot::OneshotReceiver<R>) {
        if self.rt.is_root() {
            self.rt.inner.core.cell_pool.oneshot(serial)
        } else {
            ss_queue::oneshot::oneshot(serial)
        }
    }

    /// Packages `f` as the self-contained invocation closure shipped
    /// through the queues: it performs the unsafe receiver access, traps
    /// panics into the runtime poison flag, and settles the object's
    /// pending count (shared by the program-thread and nested delegation
    /// paths).
    fn package_task<F>(&self, f: F) -> TaskSlot
    where
        F: FnOnce(&mut T) + Send + 'static,
    {
        let shared = Arc::clone(&self.shared);
        let core = Arc::clone(&self.rt.inner.core);
        TaskSlot::new(move || {
            if !core.poisoned.load(Ordering::Acquire) {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    // SAFETY: executor exclusivity — see module-level safety
                    // model. This closure runs on the single executor that
                    // owns this object's serialization set, serially with all
                    // other operations on the object.
                    let value = unsafe { &mut *shared.value.get() };
                    f(value);
                }));
                if let Err(p) = result {
                    core.poison(panic_message(p.as_ref()));
                }
            }
            StatsCell::bump(&core.stats.executed);
            shared.pending.fetch_sub(1, Ordering::Release);
        })
    }

    /// Packages a *future-returning* `f` as the invocation closure: like
    /// [`package_task`](Writable::package_task), plus settling the
    /// future's one-shot cell. Ordering is load-bearing twice over:
    ///
    /// * the cell is settled **before** the object's `pending` count (and
    ///   the caller-side queue counters) drop — so every drain proof
    ///   (`end_isolation`, reclaim quiesce) transitively proves all
    ///   futures of the epoch are resolved;
    /// * on the panic/poison paths the poison flag is set **before** the
    ///   sender drops (closing the cell), so a waiter that wakes on a
    ///   closed cell and consults the flag cannot miss the panic.
    fn package_task_with<R, F>(&self, f: F, tx: OneshotSender<R>, serial: u64, ss: SsId) -> TaskSlot
    where
        R: Send + 'static,
        F: FnOnce(&mut T) -> R + Send + 'static,
    {
        let shared = Arc::clone(&self.shared);
        let core = Arc::clone(&self.rt.inner.core);
        let rt_id = self.rt.id();
        TaskSlot::new(move || {
            let mut tx = Some(tx);
            // Drop-to-cancel: the future was dropped before this pop, so
            // the caller explicitly abandoned the result and the effects.
            // Skip the body; the settle counters below still run, so the
            // drain accounting is exactly that of an executed operation.
            let cancelled = tx.as_ref().is_some_and(|t| t.is_cancelled());
            if cancelled {
                StatsCell::bump(&core.stats.ops_cancelled);
            } else if !core.poisoned.load(Ordering::Acquire) {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    // SAFETY: executor exclusivity — see module-level safety
                    // model; identical to `package_task`.
                    let value = unsafe { &mut *shared.value.get() };
                    f(value)
                }));
                match result {
                    Ok(out) => {
                        tx.take().expect("sender consumed once").send(out);
                        StatsCell::bump(&core.stats.futures_resolved);
                        if core.side_events.is_some() {
                            core.record_side(
                                serial,
                                TraceKind::FutureResolve,
                                Some(shared.instance),
                                Some(ss),
                                trace_executor_for(rt_id),
                            );
                        }
                    }
                    Err(p) => core.poison(panic_message(p.as_ref())),
                }
            }
            // Cancellation path (poisoned-skip or panic): the poison flag
            // is already set, so dropping the unsent sender — which
            // closes the cell and wakes the waiter — happens after it.
            drop(tx);
            StatsCell::bump(&core.stats.executed);
            shared.pending.fetch_sub(1, Ordering::Release);
        })
    }

    /// Packages a *memoized* future-returning `f`: like
    /// [`package_task_with`](Writable::package_task_with), with two
    /// additions in load-bearing order:
    ///
    /// * **Cancellation check first.** If the operation's future was
    ///   dropped before this pop, its result — and, because the caller
    ///   explicitly abandoned it, its effects — can no longer be
    ///   depended on: the body is skipped, nothing is published, and
    ///   only [`Stats::ops_cancelled`](crate::Stats::ops_cancelled) and
    ///   the settle counters move.
    /// * **Publish before settle.** The result lands in the memo table
    ///   *before* the cell settles and `pending` drops, so every drain
    ///   proof (epoch barrier, reclaim quiesce) covers the publication —
    ///   a re-submission after any barrier observes it. `publish`
    ///   re-checks the generation under the shard lock and drops a
    ///   publication whose set was invalidated while the operation was
    ///   queued or running.
    #[allow(clippy::too_many_arguments)]
    fn package_task_memo<R, F>(
        &self,
        f: F,
        tx: OneshotSender<R>,
        serial: u64,
        ss: SsId,
        memo_key: u64,
        fp: u64,
        generation: u64,
    ) -> TaskSlot
    where
        R: MemoValue,
        F: FnOnce(&mut T) -> R + Send + 'static,
    {
        let shared = Arc::clone(&self.shared);
        let core = Arc::clone(&self.rt.inner.core);
        let rt_id = self.rt.id();
        TaskSlot::new(move || {
            let mut tx = Some(tx);
            let cancelled = tx.as_ref().is_some_and(|t| t.is_cancelled());
            if cancelled {
                StatsCell::bump(&core.stats.ops_cancelled);
            } else if !core.poisoned.load(Ordering::Acquire) {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    // SAFETY: executor exclusivity — see module-level safety
                    // model; identical to `package_task`.
                    let value = unsafe { &mut *shared.value.get() };
                    f(value)
                }));
                match result {
                    Ok(out) => {
                        if let Some(memo) = &core.memo {
                            memo.publish(memo_key, fp, generation, out.to_memo_bits());
                        }
                        tx.take().expect("sender consumed once").send(out);
                        StatsCell::bump(&core.stats.futures_resolved);
                        if core.side_events.is_some() {
                            core.record_side(
                                serial,
                                TraceKind::FutureResolve,
                                Some(shared.instance),
                                Some(ss),
                                trace_executor_for(rt_id),
                            );
                        }
                    }
                    Err(p) => core.poison(panic_message(p.as_ref())),
                }
            }
            drop(tx);
            StatsCell::bump(&core.stats.executed);
            shared.pending.fetch_sub(1, Ordering::Release);
        })
    }

    /// Memoized delegation from a **delegate context** — the backing
    /// implementation of [`DelegateContext::delegate_memo`] and
    /// [`DelegateContext::delegate_in_memo`]. A hit is served without
    /// committing anything (and without a trace event — the program-order
    /// [`TraceKind::MemoHit`] is a delegation-site record); a miss
    /// commits under the nested rules and publishes like the program
    /// path.
    pub(crate) fn delegate_nested_memo<R, F>(
        &self,
        cx: &DelegateContext<'_>,
        external: Option<SsId>,
        fp: u64,
        f: F,
    ) -> SsResult<SsFuture<R>>
    where
        R: MemoValue,
        F: FnOnce(&mut T) -> R + Send + 'static,
    {
        let rt = &self.rt;
        if rt.inner.core.memo.is_none() {
            return self.delegate_nested_with(cx, external, f);
        }
        match self.prepare_nested_memo(cx, external, fp)? {
            MemoPrepared::Hit {
                bits,
                ss,
                serial,
                entry_gen,
                live_gen,
            } => {
                StatsCell::bump(&rt.inner.core.stats.memo_hits);
                self.record_memo_hit_audit(ss, entry_gen, live_gen);
                Ok(SsFuture::new_memo_hit(
                    R::from_memo_bits(bits),
                    rt.clone(),
                    ss,
                    serial,
                ))
            }
            MemoPrepared::Miss {
                ss,
                serial,
                generation,
            } => {
                StatsCell::bump(&rt.inner.core.stats.memo_misses);
                let (tx, rx) = self.oneshot_cell(serial);
                let task =
                    self.package_task_memo(f, tx, serial, ss, rt.domain().key(ss), fp, generation);
                let executor = self.submit_and_record(Origin::Nested, ss, &mut [Some(task)])?;
                Ok(SsFuture::new(rx, self.rt.clone(), ss, executor))
            }
        }
    }

    /// Memoized delegation, phase 1 (nested form): the
    /// [`prepare_nested_delegation`](Writable::prepare_nested_delegation)
    /// rules plus the memo lookup, one hold of the object mutex. A hit
    /// commits nothing; a miss commits — tag, claim, nested-epoch flag
    /// and `pending`, all inside the critical section (module safety
    /// model, point 3).
    fn prepare_nested_memo(
        &self,
        cx: &DelegateContext<'_>,
        external: Option<SsId>,
        fp: u64,
    ) -> SsResult<MemoPrepared> {
        let rt = &self.rt;
        if !cx.belongs_to(rt) {
            return Err(SsError::WrongContext);
        }
        rt.check_live()?;
        if rt.is_poisoned() {
            return Err(rt.inner.core.poison_error());
        }
        let serial = rt.domain().serial();
        let memo = rt
            .inner
            .core
            .memo
            .as_ref()
            .expect("caller checked the table exists");

        let mut local = self.shared.local.lock();
        let local = &mut *local;
        local.refresh(serial);
        if local.accessing {
            return Err(SsError::AccessInProgress {
                instance: self.shared.instance,
            });
        }
        if local.use_state == UseState::ReadShared {
            return Err(SsError::StateConflict {
                instance: self.shared.instance,
                was_read_shared: true,
            });
        }
        let ss = if let Some(tag) = local.tag {
            if rt.dynamic_checks() {
                if let Some(got) = external {
                    if got != tag {
                        return Err(SsError::InconsistentSerializer {
                            instance: self.shared.instance,
                            tagged: tag,
                            got,
                        });
                    }
                }
            }
            tag
        } else {
            if local.use_state == UseState::PrivateWritable {
                // Claimed by a program-context mutation this epoch: see
                // `prepare_nested_delegation`.
                return Err(SsError::NestedOnProgram { set: None });
            }
            debug_assert_eq!(self.shared.pending.load(Ordering::Acquire), 0);
            match external {
                Some(e) => e,
                None => {
                    // SAFETY: pending == 0 under the state mutex and no
                    // program access is live (`accessing == false`) — no
                    // executor holds the value.
                    let value = unsafe { &*self.shared.value.get() };
                    self.serializer
                        .serialize(value, self.cx())
                        .ok_or(SsError::MissingSerializer)?
                }
            }
        };
        let key = rt.domain().key(ss);
        let served = match memo.lookup_entry(key, fp) {
            Some((bits, entry_gen, live_gen))
                if entry_gen == live_gen || rt.inner.core.chaos_stale_memo_serve() =>
            {
                Some((bits, entry_gen, live_gen))
            }
            _ => None,
        };
        if let Some((bits, entry_gen, live_gen)) = served {
            return Ok(MemoPrepared::Hit {
                bits,
                ss,
                serial,
                entry_gen,
                live_gen,
            });
        }
        local.tag = Some(ss);
        local.use_state = UseState::PrivateWritable;
        // Flag first, then pending, both inside the critical section:
        // see the module-level safety model, point 3.
        rt.mark_nested_epoch();
        self.shared.pending.fetch_add(1, Ordering::Relaxed);
        Ok(MemoPrepared::Miss {
            ss,
            serial,
            generation: memo.generation(key),
        })
    }

    /// Delegation from a **delegate context** (recursive delegation) —
    /// the backing implementation of [`DelegateContext::delegate`] and
    /// [`DelegateContext::delegate_in`].
    ///
    /// The state machine runs under the object's mutex exactly like the
    /// program-thread path, with three extra rules:
    ///
    /// * an object claimed by a program-context mutation this epoch
    ///   (privately-writable with no set tag) rejects nested delegation
    ///   ([`SsError::NestedOnProgram`]) — its value may be under the
    ///   program thread's hands;
    /// * a live program access rejects it ([`SsError::AccessInProgress`]);
    /// * the global nested-epoch flag is raised and the pending count
    ///   incremented *inside* the critical section, so a program-context
    ///   access under the same mutex either sees the work coming (and
    ///   quiesces) or strictly precedes it (and the rules above protect
    ///   the access).
    pub(crate) fn delegate_nested<F>(
        &self,
        cx: &DelegateContext<'_>,
        external: Option<SsId>,
        f: F,
    ) -> SsResult<()>
    where
        F: FnOnce(&mut T) + Send + 'static,
    {
        let (ss, _serial) = self.prepare_nested_delegation(cx, external, 1)?;
        let task = self.package_task(f);
        self.submit_and_record(Origin::Nested, ss, &mut [Some(task)])?;
        Ok(())
    }

    /// Batch delegation from a **delegate context** — the backing
    /// implementation of [`DelegateContext::delegate_iter`]. Same phase-1
    /// state machine as [`delegate_nested`](Writable::delegate_nested)
    /// (run once, raising `pending` by the whole batch size inside the
    /// critical section), then one batched queue publish.
    pub(crate) fn delegate_nested_iter<I, F>(
        &self,
        cx: &DelegateContext<'_>,
        external: Option<SsId>,
        fs: I,
    ) -> SsResult<usize>
    where
        I: IntoIterator<Item = F>,
        F: FnOnce(&mut T) + Send + 'static,
    {
        let mut tasks: Vec<Option<TaskSlot>> =
            fs.into_iter().map(|f| Some(self.package_task(f))).collect();
        let n = tasks.len();
        if n == 0 {
            return Ok(0);
        }
        let (ss, _serial) = self.prepare_nested_delegation(cx, external, n as u32)?;
        self.submit_and_record(Origin::Nested, ss, &mut tasks)?;
        Ok(n)
    }

    /// Future-returning delegation from a delegate context — the backing
    /// implementation of [`DelegateContext::delegate_with`] and
    /// [`DelegateContext::delegate_in_with`].
    pub(crate) fn delegate_nested_with<R, F>(
        &self,
        cx: &DelegateContext<'_>,
        external: Option<SsId>,
        f: F,
    ) -> SsResult<SsFuture<R>>
    where
        R: Send + 'static,
        F: FnOnce(&mut T) -> R + Send + 'static,
    {
        let (ss, serial) = self.prepare_nested_delegation(cx, external, 1)?;
        let (tx, rx) = self.oneshot_cell(serial);
        let task = self.package_task_with(f, tx, serial, ss);
        let executor = self.submit_and_record(Origin::Nested, ss, &mut [Some(task)])?;
        Ok(SsFuture::new(rx, self.rt.clone(), ss, executor))
    }

    /// Nested delegation, phase 1: context/poison checks plus the
    /// per-epoch state machine (same mutex as the program path), with the
    /// three nested-only rules documented on
    /// [`delegate_nested`](Writable::delegate_nested). On success the
    /// epoch is marked nested and the object's `pending` count is already
    /// raised by `count` (1 for single delegations, the batch size for
    /// [`delegate_nested_iter`](Writable::delegate_nested_iter)) — both
    /// *inside* the critical section (see the module-level safety model,
    /// point 3).
    fn prepare_nested_delegation(
        &self,
        cx: &DelegateContext<'_>,
        external: Option<SsId>,
        count: u32,
    ) -> SsResult<(SsId, u64)> {
        let rt = &self.rt;
        if !cx.belongs_to(rt) {
            return Err(SsError::WrongContext);
        }
        rt.check_live()?;
        if rt.is_poisoned() {
            return Err(rt.inner.core.poison_error());
        }
        // Stable for the duration of the enclosing operation: the epoch
        // cannot end while a parent runs (the barrier drains `in_flight`).
        let serial = rt.domain().serial();

        let ss = {
            let mut local = self.shared.local.lock();
            let local = &mut *local;
            local.refresh(serial);
            if local.accessing {
                return Err(SsError::AccessInProgress {
                    instance: self.shared.instance,
                });
            }
            if local.use_state == UseState::ReadShared {
                return Err(SsError::StateConflict {
                    instance: self.shared.instance,
                    was_read_shared: true,
                });
            }
            let effective = if let Some(tag) = local.tag {
                if rt.dynamic_checks() {
                    if let Some(got) = external {
                        if got != tag {
                            return Err(SsError::InconsistentSerializer {
                                instance: self.shared.instance,
                                tagged: tag,
                                got,
                            });
                        }
                    }
                }
                tag
            } else {
                if local.use_state == UseState::PrivateWritable {
                    // Privately writable without a tag ⇒ claimed by a
                    // program-context mutation this epoch. The program
                    // thread owns the value; a delegate context may not
                    // route operations onto it.
                    return Err(SsError::NestedOnProgram { set: None });
                }
                // Unused object, first delegation of the epoch: the tag is
                // unset only while pending == 0 (the mutex serializes all
                // taggers), so the serializer may inspect the value.
                debug_assert_eq!(self.shared.pending.load(Ordering::Acquire), 0);
                let computed = match external {
                    Some(e) => e,
                    None => {
                        // SAFETY: pending == 0 under the state mutex and no
                        // program access is live (`accessing == false`) —
                        // no executor holds the value.
                        let value = unsafe { &*self.shared.value.get() };
                        self.serializer
                            .serialize(value, self.cx())
                            .ok_or(SsError::MissingSerializer)?
                    }
                };
                local.tag = Some(computed);
                computed
            };
            local.use_state = UseState::PrivateWritable;
            // Flag first, then pending, both inside the critical section:
            // see the module-level safety model, point 3.
            rt.mark_nested_epoch();
            self.shared.pending.fetch_add(count, Ordering::Relaxed);
            effective
        };
        // A non-memoized nested delegation invalidates the set's cached
        // results, same as the program path.
        self.invalidate_memo(ss);
        Ok((ss, serial))
    }

    // ------------------------------------------------------------------
    // program-context access

    /// Executes a read ("const method") in the program context
    /// (Table 1 `call`).
    ///
    /// * Aggregation epoch: always allowed.
    /// * Isolation epoch, object unused or read-only: allowed; first such use
    ///   marks the object read-only for the epoch.
    /// * Isolation epoch, object privately-writable: the program context
    ///   first *reclaims ownership* — a synchronization object flushes the
    ///   owning delegate's queue — then reads.
    pub fn call<R>(&self, f: impl FnOnce(&T) -> R) -> SsResult<R> {
        self.access(false, |v| f(v))
    }

    /// Executes a mutation ("non-const method") in the program context.
    ///
    /// * Aggregation epoch: always allowed.
    /// * Isolation epoch, object read-only this epoch: error
    ///   ([`SsError::StateConflict`]).
    /// * Isolation epoch, otherwise: reclaims ownership if needed, then
    ///   mutates; the object is privately-writable for the rest of the epoch.
    pub fn call_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> SsResult<R> {
        self.access(true, f)
    }

    fn access<R>(&self, mutate: bool, f: impl FnOnce(&mut T) -> R) -> SsResult<R> {
        let rt = &self.rt;
        rt.require_program_thread()?;
        let (in_iso, serial, inline) = rt.epoch_flags();
        if inline {
            return Err(SsError::WrongContext);
        }
        if rt.is_poisoned() {
            return Err(rt.inner.core.poison_error());
        }
        if !in_iso {
            // Aggregation epoch: "any method may be called" (Table 1); all
            // queues were drained at end_isolation.
            debug_assert_eq!(self.shared.pending.load(Ordering::Acquire), 0);
            // SAFETY: program context is the sole accessor in aggregation.
            return Ok(f(unsafe { &mut *self.shared.value.get() }));
        }
        // Phase 1 — the state machine, under the object mutex. Paths that
        // will not reclaim claim `accessing` atomically with their state
        // transition, so a racing nested delegation is either ordered
        // before this critical section (and changes what we see) or after
        // it (and is rejected by the flag / the state it left behind).
        let (owner, tag, mid_submit) = {
            let mut local = self.shared.local.lock();
            local.refresh(serial);
            match local.use_state {
                UseState::Unused => {
                    local.use_state = if mutate {
                        UseState::PrivateWritable
                    } else {
                        UseState::ReadShared
                    };
                    local.accessing = true;
                    (None, None, false)
                }
                UseState::ReadShared if mutate => {
                    return Err(SsError::StateConflict {
                        instance: self.shared.instance,
                        was_read_shared: true,
                    });
                }
                UseState::ReadShared => {
                    local.accessing = true;
                    (None, None, false)
                }
                UseState::PrivateWritable => match (local.owner, local.tag) {
                    (Some(owner), tag) => (Some(owner), tag, false),
                    (None, Some(tag)) => {
                        // Tagged but owner-less: a nested delegation is
                        // mid-submit (the owner is recorded only after the
                        // queue publish), so an operation may already be
                        // queued or executing. The nested-epoch flag was
                        // raised under this mutex before the pending
                        // count, so the reclaim below can escalate
                        // straight to the full quiesce.
                        (None, Some(tag), true)
                    }
                    (None, None) => {
                        // Claimed by a program-context mutation: no
                        // delegated operation can exist (nested delegation
                        // rejects tag-less privately-writable objects).
                        local.accessing = true;
                        (None, None, false)
                    }
                },
            }
        };
        if owner.is_some() || mid_submit {
            // Phase 2 — ownership reclaim, then claim `accessing` under the
            // mutex. The loop exists for recursive delegation: a nested
            // producer may appear *between* our pending/flag check and the
            // claim (its flag-raise and our claim serialize on the object
            // mutex), in which case we escalate once to the full quiesce
            // and re-claim — after a quiesce nothing runs, so nothing can
            // appear again. The `mid_submit` entry (owner unknown) starts
            // escalated: the nested flag is set whenever a nested submit
            // is in flight, so `sync_owner` goes straight to its quiesce
            // branch and the fallback executor below is never consulted.
            // (The only tag-Some/owner-None state with the flag clear is
            // the husk of a failed submit on a dying runtime, where
            // `sync_owner` reports `Terminated` before any access.)
            let sync_target = owner.unwrap_or(Executor::Program);
            let mut escalated = mid_submit;
            let mut synced: Option<Executor> = None;
            loop {
                if escalated || self.shared.pending.load(Ordering::Acquire) > 0 {
                    // With stealing enabled the set may have migrated since
                    // delegation, so the reclaim resolves the *current*
                    // owner from the router's sharded pin map — fence
                    // placement atomic with the resolution under the set's
                    // shard lock; the recorded owner is the fallback — and
                    // with nesting active it quiesces the whole runtime
                    // instead.
                    synced = Some(rt.sync_owner(sync_target, tag)?);
                }
                let mut local = self.shared.local.lock();
                if rt.nested_epoch_active() && !escalated {
                    escalated = true;
                    continue;
                }
                // Under the chaos `skip_reclaim_fence` weakening the
                // reclaim above is a lie, so operations may still be
                // pending here — the audit gate below is what catches it.
                #[cfg(not(feature = "chaos"))]
                debug_assert_eq!(self.shared.pending.load(Ordering::Acquire), 0);
                local.accessing = true;
                break;
            }
            if let Some(synced) = synced {
                rt.trace_record(
                    TraceKind::Reclaim,
                    Some(self.shared.instance),
                    None,
                    Some(synced),
                );
            }
            if rt.is_poisoned() {
                self.shared.local.lock().accessing = false;
                return Err(rt.inner.core.poison_error());
            }
            // Audit gate: the reclaim above claimed every delegated
            // operation on this set has executed; refuse the access (and
            // report the program-order edge it would cut) if the trace
            // disagrees. Runs *before* the closure touches the value, so
            // a weakened reclaim fails loudly instead of racing.
            if let Some(ss) = tag {
                let d = rt.domain();
                if let Some(report) = rt.inner.core.audit_access_gate(d, SsId(d.key(ss))) {
                    self.shared.local.lock().accessing = false;
                    return Err(SsError::SerializabilityViolation(report));
                }
            }
            // A mutating reclaim is about to change the value behind the
            // memoized results' backs: invalidate the set's entries
            // before the closure runs (conservative — entries die even
            // if the closure ends up not mutating the cached inputs).
            if mutate {
                if let Some(ss) = tag {
                    self.invalidate_memo(ss);
                }
            }
        }
        let _guard = AccessGuard(&self.shared.local);
        if rt.trace_enabled() {
            let kind = if mutate {
                TraceKind::CallMut
            } else {
                TraceKind::Call
            };
            rt.trace_record(kind, Some(self.shared.instance), None, None);
        }
        // SAFETY: read-shared (no writer can exist this epoch — the state
        // machine rejects delegation/mutation) or reclaimed/unused private
        // (pending == 0 with Acquire edge ⇒ delegate effects visible);
        // `accessing` rejects any delegation racing the closure below.
        Ok(f(unsafe { &mut *self.shared.value.get() }))
    }

    /// Consumes this handle and returns the value if it is the only handle,
    /// no work is outstanding, and no isolation epoch is open.
    pub fn try_unwrap(self) -> Result<T, Self> {
        if !self.rt.is_program_thread()
            || self.rt.in_isolation()
            || self.shared.pending.load(Ordering::Acquire) != 0
        {
            return Err(self);
        }
        let serializer = Arc::clone(&self.serializer);
        let rt = self.rt.clone();
        match Arc::try_unwrap(self.shared) {
            Ok(shared) => Ok(shared.value.into_inner()),
            Err(shared) => Err(Writable {
                shared,
                serializer,
                rt,
            }),
        }
    }
}

/// Executes `method` on every object in `objects` via delegation — the
/// Table 1 `doall` embarrassingly-parallel helper.
///
/// ```
/// use ss_core::{doall, Runtime, SequenceSerializer, Writable};
/// let rt = Runtime::builder().delegate_threads(2).build().unwrap();
/// let cells: Vec<Writable<u64, SequenceSerializer>> =
///     (0..16).map(|_| Writable::new(&rt, 0)).collect();
/// rt.isolated(|| doall(&cells, |n| *n += 1).unwrap()).unwrap();
/// assert!(cells.iter().all(|c| c.call(|n| *n).unwrap() == 1));
/// ```
pub fn doall<T, S, F>(objects: &[Writable<T, S>], method: F) -> SsResult<()>
where
    T: Send + 'static,
    S: Serializer<T>,
    F: Fn(&mut T) + Send + Sync + 'static,
{
    let method = Arc::new(method);
    for obj in objects {
        let m = Arc::clone(&method);
        obj.delegate(move |t| m(t))?;
    }
    Ok(())
}

impl<T: Send + 'static, S: Serializer<T>> Writable<T, S> {
    fn cx(&self) -> SerializeCx {
        SerializeCx {
            address: self.shared.value.get() as usize,
            instance: self.shared.instance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serializer::{FnSerializer, NullSerializer, SequenceSerializer};

    fn rt(delegates: usize) -> Runtime {
        Runtime::builder()
            .delegate_threads(delegates)
            .build()
            .unwrap()
    }

    #[test]
    fn delegate_then_read_back() {
        let rt = rt(2);
        let w: Writable<u64> = Writable::new(&rt, 0);
        rt.begin_isolation().unwrap();
        for _ in 0..100 {
            w.delegate(|n| *n += 1).unwrap();
        }
        rt.end_isolation().unwrap();
        assert_eq!(w.call(|n| *n).unwrap(), 100);
    }

    #[test]
    fn delegate_outside_isolation_errors() {
        let rt = rt(1);
        let w: Writable<u64> = Writable::new(&rt, 0);
        assert_eq!(w.delegate(|n| *n += 1), Err(SsError::NotInIsolation));
    }

    #[test]
    fn call_during_isolation_reclaims_ownership() {
        let rt = rt(2);
        let w: Writable<Vec<u32>> = Writable::new(&rt, Vec::new());
        rt.begin_isolation().unwrap();
        for i in 0..50 {
            w.delegate(move |v| v.push(i)).unwrap();
        }
        // Dependent read mid-epoch: implicit ownership reclaim.
        let len = w.call(|v| v.len()).unwrap();
        assert_eq!(len, 50);
        // Re-delegation after reclaim (Figure 1, second epoch).
        w.delegate(|v| v.push(999)).unwrap();
        rt.end_isolation().unwrap();
        assert_eq!(w.call(|v| v.len()).unwrap(), 51);
    }

    #[test]
    fn read_then_delegate_same_epoch_conflicts() {
        let rt = rt(1);
        let w: Writable<u64> = Writable::new(&rt, 7);
        rt.begin_isolation().unwrap();
        assert_eq!(w.call(|n| *n).unwrap(), 7); // marks read-only this epoch
        let err = w.delegate(|n| *n += 1).unwrap_err();
        assert!(matches!(err, SsError::StateConflict { .. }));
        rt.end_isolation().unwrap();
        // Fresh epoch: usable as privately-writable again.
        rt.begin_isolation().unwrap();
        w.delegate(|n| *n += 1).unwrap();
        rt.end_isolation().unwrap();
        assert_eq!(w.call(|n| *n).unwrap(), 8);
    }

    #[test]
    fn call_mut_on_read_shared_conflicts() {
        let rt = rt(1);
        let w: Writable<u64> = Writable::new(&rt, 7);
        rt.begin_isolation().unwrap();
        w.call(|_| ()).unwrap();
        assert!(matches!(
            w.call_mut(|n| *n = 0),
            Err(SsError::StateConflict { .. })
        ));
        rt.end_isolation().unwrap();
    }

    #[test]
    fn call_mut_then_delegate_is_fine() {
        let rt = rt(1);
        let w: Writable<u64> = Writable::new(&rt, 0);
        rt.begin_isolation().unwrap();
        w.call_mut(|n| *n = 10).unwrap();
        w.delegate(|n| *n += 5).unwrap();
        rt.end_isolation().unwrap();
        assert_eq!(w.call(|n| *n).unwrap(), 15);
    }

    #[test]
    fn external_serializer_with_null_internal() {
        let rt = rt(2);
        let w: Writable<u64, NullSerializer> = Writable::new(&rt, 0);
        rt.begin_isolation().unwrap();
        // Implicit delegation has no serializer:
        assert_eq!(w.delegate(|n| *n += 1), Err(SsError::MissingSerializer));
        // External works:
        w.delegate_in(42u64, |n| *n += 1).unwrap();
        rt.end_isolation().unwrap();
        assert_eq!(w.call(|n| *n).unwrap(), 1);
    }

    #[test]
    fn inconsistent_external_serializer_detected() {
        let rt = rt(2);
        let w: Writable<u64, NullSerializer> = Writable::new(&rt, 0);
        rt.begin_isolation().unwrap();
        w.delegate_in(1u64, |n| *n += 1).unwrap();
        let err = w.delegate_in(2u64, |n| *n += 1).unwrap_err();
        assert!(matches!(err, SsError::InconsistentSerializer { .. }));
        rt.end_isolation().unwrap();
    }

    #[test]
    fn inconsistent_serializer_ignored_when_checks_off_but_still_safe() {
        let rt = Runtime::builder()
            .delegate_threads(2)
            .dynamic_checks(false)
            .build()
            .unwrap();
        let w: Writable<u64, NullSerializer> = Writable::new(&rt, 0);
        rt.begin_isolation().unwrap();
        w.delegate_in(1u64, |n| *n += 1).unwrap();
        // Checks off: no error, but routing sticks to the first tag so the
        // object still has a single owner.
        w.delegate_in(2u64, |n| *n += 1).unwrap();
        rt.end_isolation().unwrap();
        assert_eq!(w.call(|n| *n).unwrap(), 2);
    }

    #[test]
    fn fn_serializer_groups_objects() {
        let rt = rt(2);
        struct Row {
            row: u64,
            hits: u64,
        }
        let mk = |row| {
            Writable::with_serializer(
                &rt,
                Row { row, hits: 0 },
                FnSerializer::new(|r: &Row| r.row),
            )
        };
        let a = mk(1);
        let b = mk(1); // same set as a
        let c = mk(2);
        rt.begin_isolation().unwrap();
        for w in [&a, &b, &c] {
            w.delegate(|r| r.hits += 1).unwrap();
        }
        rt.end_isolation().unwrap();
        assert_eq!(a.current_set().unwrap(), None); // aggregation: tag cleared view
        rt.begin_isolation().unwrap();
        a.delegate(|r| r.hits += 1).unwrap();
        b.delegate(|r| r.hits += 1).unwrap();
        assert_eq!(a.current_set().unwrap(), b.current_set().unwrap());
        rt.end_isolation().unwrap();
    }

    #[test]
    fn sequence_serializer_uses_instance_numbers() {
        let rt = rt(2);
        let a: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
        let b: Writable<u64, SequenceSerializer> = Writable::new(&rt, 0);
        assert_ne!(a.instance(), b.instance());
        rt.begin_isolation().unwrap();
        a.delegate(|n| *n += 1).unwrap();
        b.delegate(|n| *n += 1).unwrap();
        assert_eq!(a.current_set().unwrap(), Some(SsId(a.instance())));
        assert_eq!(b.current_set().unwrap(), Some(SsId(b.instance())));
        rt.end_isolation().unwrap();
    }

    #[test]
    fn wrong_thread_operations_rejected() {
        let rt = rt(1);
        let w: Writable<u64> = Writable::new(&rt, 0);
        let w2 = w.clone();
        std::thread::spawn(move || {
            assert_eq!(w2.delegate(|n| *n += 1), Err(SsError::WrongContext));
            assert_eq!(w2.call(|n| *n), Err(SsError::WrongContext));
            assert_eq!(w2.call_mut(|n| *n = 1), Err(SsError::WrongContext));
        })
        .join()
        .unwrap();
        assert_eq!(w.call(|n| *n).unwrap(), 0);
    }

    #[test]
    fn panic_in_delegate_poisons_runtime() {
        let rt = rt(1);
        let w: Writable<u64> = Writable::new(&rt, 0);
        rt.begin_isolation().unwrap();
        w.delegate(|_| panic!("boom")).unwrap();
        let err = rt.end_isolation().unwrap_err();
        assert!(matches!(err, SsError::DelegatePanicked(ref m) if m.contains("boom")));
        assert!(rt.is_poisoned());
        // Everything afterwards reports the panic.
        assert!(matches!(w.call(|n| *n), Err(SsError::DelegatePanicked(_))));
        assert!(matches!(
            rt.begin_isolation(),
            Err(SsError::DelegatePanicked(_))
        ));
    }

    #[test]
    fn panic_skips_remaining_work_but_does_not_deadlock() {
        let rt = rt(1);
        let w: Writable<u64> = Writable::new(&rt, 0);
        rt.begin_isolation().unwrap();
        w.delegate(|_| panic!("first")).unwrap();
        for _ in 0..100 {
            // Some of these may be rejected once the poison flag is seen by
            // the program thread; both outcomes are fine as long as nothing
            // hangs.
            let _ = w.delegate(|n| *n += 1);
        }
        assert!(rt.end_isolation().is_err());
    }

    #[test]
    fn doall_covers_every_object() {
        let rt = rt(2);
        let objs: Vec<Writable<u64, SequenceSerializer>> =
            (0..32).map(|_| Writable::new(&rt, 0)).collect();
        rt.begin_isolation().unwrap();
        doall(&objs, |n| *n += 3).unwrap();
        rt.end_isolation().unwrap();
        for o in &objs {
            assert_eq!(o.call(|n| *n).unwrap(), 3);
        }
    }

    #[test]
    fn try_unwrap_rules() {
        let rt = rt(1);
        let w: Writable<String> = Writable::new(&rt, "x".into());
        let w2 = w.clone();
        let w = w.try_unwrap().unwrap_err(); // two handles
        drop(w2);
        rt.begin_isolation().unwrap();
        let w = w.try_unwrap().unwrap_err(); // isolation open
        rt.end_isolation().unwrap();
        assert_eq!(w.try_unwrap().unwrap(), "x");
    }

    #[test]
    fn zero_delegate_runtime_is_fully_inline_and_deterministic() {
        let rt = rt(0);
        let w: Writable<Vec<u32>> = Writable::new(&rt, Vec::new());
        rt.begin_isolation().unwrap();
        for i in 0..10 {
            w.delegate(move |v| v.push(i)).unwrap();
        }
        rt.end_isolation().unwrap();
        assert_eq!(w.call(|v| v.clone()).unwrap(), (0..10).collect::<Vec<_>>());
        assert_eq!(rt.stats().inline_executions, 10);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let mut outputs = Vec::new();
        for delegates in [0, 1, 2, 3] {
            let rt = rt(delegates);
            let objs: Vec<Writable<Vec<u64>, SequenceSerializer>> =
                (0..8).map(|_| Writable::new(&rt, Vec::new())).collect();
            rt.begin_isolation().unwrap();
            for i in 0..500u64 {
                objs[(i % 8) as usize]
                    .delegate(move |v| v.push(i * i))
                    .unwrap();
            }
            rt.end_isolation().unwrap();
            let snapshot: Vec<Vec<u64>> = objs
                .iter()
                .map(|o| o.call(|v| v.clone()).unwrap())
                .collect();
            outputs.push(snapshot);
        }
        for w in outputs.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }
}
