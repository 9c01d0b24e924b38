//! Online serializability auditor — conflict-graph certification over the
//! runtime's operation stream (ROADMAP item 4).
//!
//! The paper's §3 guarantee is that a serialization-set execution is
//! *serializable*: equivalent to some serial execution that respects program
//! order within each set. The runtime enforces this structurally (same set ⇒
//! same delegate queue, FIFO), but the rest of the repo *assumes* the
//! invariant holds. This module *checks* it, incrementally, as operations
//! flow through the runtime:
//!
//! * every submitted operation draws a **token** from a global logical clock
//!   at the moment it is pushed onto its queue (or run inline), tagged with
//!   the **producer** (program thread or delegate slot) that pushed it;
//! * every executed operation reports `(set, token, producer, executor)` to
//!   the auditor immediately after the operation body runs;
//! * ownership reclaims ([`crate::runtime::Runtime`] `sync_owner` callers)
//!   pass an **access gate** that certifies every program-submitted
//!   operation of the set has already executed;
//! * `end_isolation` closes the epoch: every tracked set must have executed
//!   exactly the operations submitted to it.
//!
//! From these events the auditor maintains, per epoch and per set, enough of
//! the conflict graph to decide serializability in O(1) amortized per event
//! (see `docs/ARCHITECTURE.md` § "Auditing" for the soundness argument):
//!
//! * **one executor per set per epoch** — two distinct executors running
//!   operations of the same set within an epoch is a conflict-graph cycle
//!   between those executors' serial orders ([`AuditViolation::TwoExecutors`]);
//! * **per-producer token order = execution order** — a producer's tokens
//!   are drawn in queue-push order, so an execution observing a token ≤ the
//!   set's last-executed token from the same producer is a program-order
//!   inversion ([`AuditViolation::OrderInversion`]);
//! * **reclaim barriers** — once the program thread reclaims a set, every
//!   program-submitted operation with an earlier token must already have
//!   executed; a later execution of such an operation overlaps the program
//!   thread's direct access ([`AuditViolation::BarrierOverrun`]);
//! * **epoch conservation** — at `end_isolation` the per-set submitted and
//!   executed counts must agree ([`AuditViolation::LostOperations`]).
//!
//! A legal run trips none of these (the oracle suite in
//! `tests/audit_oracle.rs` asserts zero false positives across every
//! program shape × steal policy); the `chaos` feature weakens
//! the runtime in three distinct ways that each MUST trip one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::serializer::SsId;

/// How much of the execution the auditor certifies.
///
/// Selected via `RuntimeBuilder::audit`. `Off` keeps the hot path
/// allocation- and atomics-free (the auditor is not even constructed);
/// `Sample(n)` audits every n-th isolation epoch; `Full` audits all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuditMode {
    /// No auditing; zero overhead (the default).
    #[default]
    Off,
    /// Audit epochs whose serial is a multiple of the given stride
    /// (`Sample(1)` ≡ `Full`; a stride of 0 is treated as 1).
    Sample(u32),
    /// Audit every epoch.
    Full,
}

/// A certified serializability violation: the epoch, the serialization set,
/// and the specific conflict witnessed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Serial number of the isolation epoch in which the conflict occurred.
    pub epoch: u64,
    /// The serialization set whose per-set serial order was violated.
    pub set: SsId,
    /// The conflict kind, naming the violating operation pair.
    pub kind: AuditViolation,
}

/// The specific conflict-graph cycle witnessed by the auditor.
///
/// Operation identities are the logical-clock tokens drawn at submission;
/// producers/executors are runtime slots (0 = program thread, `1 + i` =
/// delegate `i`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditViolation {
    /// Two distinct executors ran operations of the same set within one
    /// epoch — their serial orders interleave, a cycle between executors.
    TwoExecutors {
        /// Executor slot that ran the set's earlier operation(s).
        first: usize,
        /// Executor slot caught running a later operation of the same set.
        second: usize,
    },
    /// Operations from one producer executed out of the order they were
    /// submitted in — a program-order inversion within the set.
    OrderInversion {
        /// Producer slot whose submission order was inverted.
        producer: usize,
        /// Token of the operation that executed out of turn (the smaller,
        /// earlier-submitted token).
        earlier: u64,
        /// Token of the previously executed, later-submitted operation.
        later: u64,
    },
    /// A program-submitted operation executed after (or was still pending
    /// at) the program thread's ownership reclaim of the set — it overlaps
    /// the program thread's direct access.
    BarrierOverrun {
        /// Token of the overrunning operation.
        op: u64,
        /// Token drawn at the reclaim barrier it overran.
        barrier: u64,
    },
    /// At epoch close, a set's executed-operation count disagreed with its
    /// submitted count — operations were lost or duplicated.
    LostOperations {
        /// Operations submitted to the set this epoch.
        submitted: u64,
        /// Operations the auditor saw execute.
        executed: u64,
    },
    /// A memoized delegation was served from the memo table although the
    /// set's generation had been bumped since the entry was published —
    /// the cached result may derive from inputs a non-memoized delegation
    /// or reclaim has since changed, so the serve is not equivalent to
    /// re-executing the operation in program order.
    StaleMemoServe {
        /// Generation the served entry was published under.
        served: u64,
        /// The set's live generation at serve time.
        live: u64,
    },
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "epoch {} set {:?}: {}",
            self.epoch,
            self.set,
            match &self.kind {
                AuditViolation::TwoExecutors { first, second } =>
                    format!("operations ran on two executors (slots {first} and {second})"),
                AuditViolation::OrderInversion {
                    producer,
                    earlier,
                    later,
                } => format!(
                    "producer {producer} ops executed out of order (token {earlier} after {later})"
                ),
                AuditViolation::BarrierOverrun { op, barrier } =>
                    format!("op token {op} overran the ownership-reclaim barrier (token {barrier})"),
                AuditViolation::LostOperations {
                    submitted,
                    executed,
                } => format!("submitted {submitted} ops but {executed} executed"),
                AuditViolation::StaleMemoServe { served, live } => format!(
                    "memoized result served at generation {served} but the set's live generation is {live}"
                ),
            }
        )
    }
}

/// Number of set-map shards. A power of two so the Fibonacci-hash shard
/// index is a shift.
const SHARDS: usize = 16;
/// Per-shard cap on tracked sets. Beyond this, new sets go untracked (the
/// overflow counter records how many) so a streaming epoch with millions of
/// distinct sets keeps the audit graph bounded.
const PER_SHARD_CAP: usize = 1024;

/// Per-producer submission/execution bookkeeping within one set's epoch.
#[derive(Debug, Clone, Copy)]
struct ProducerOrder {
    /// Producer slot (0 = program thread, `1 + i` = delegate `i`).
    producer: u16,
    /// Largest token this producer has submitted to the set.
    last_submit: u64,
    /// Largest token of this producer's operations seen executing.
    last_exec: u64,
    /// Operations this producer submitted to the set this epoch.
    submitted: u64,
    /// Of those, how many have executed.
    executed: u64,
}

/// Per-set audit state, lazily re-stamped per epoch (same discipline as the
/// serializer's `EpochLocal`): stale entries are logically absent and reset
/// on first touch of a new epoch.
#[derive(Debug)]
struct SetAudit {
    /// Epoch serial this entry's data belongs to.
    serial: u64,
    /// Executor slot that ran this set's operations (`u32::MAX` = none yet).
    executor: u32,
    /// Total operations submitted to the set this epoch.
    submitted: u64,
    /// Total operations seen executing this epoch.
    executed: u64,
    /// Token of the most recent program-thread reclaim barrier (0 = none).
    barrier: u64,
    /// Per-producer order tracking. Tiny in practice (one or two
    /// producers per set), so a linear-scan Vec beats a map.
    producers: Vec<ProducerOrder>,
}

impl SetAudit {
    fn new(serial: u64) -> Self {
        SetAudit {
            serial,
            executor: u32::MAX,
            submitted: 0,
            executed: 0,
            barrier: 0,
            producers: Vec::new(),
        }
    }

    /// Resets the entry if it is stale (left over from an earlier epoch).
    fn refresh(&mut self, serial: u64) {
        if self.serial != serial {
            self.serial = serial;
            self.executor = u32::MAX;
            self.submitted = 0;
            self.executed = 0;
            self.barrier = 0;
            self.producers.clear();
        }
    }

    fn producer_mut(&mut self, producer: u16) -> &mut ProducerOrder {
        if let Some(i) = self.producers.iter().position(|p| p.producer == producer) {
            &mut self.producers[i]
        } else {
            self.producers.push(ProducerOrder {
                producer,
                last_submit: 0,
                last_exec: 0,
                submitted: 0,
                executed: 0,
            });
            self.producers.last_mut().unwrap()
        }
    }
}

/// The auditor: a sharded per-set conflict-graph summary plus the logical
/// clock tokens are drawn from. Constructed once per runtime when the audit
/// mode is not `Off` and shared (behind `Core`) by every thread and every
/// epoch domain: whether a domain's current epoch is audited is that
/// domain's own flag (`Domain::audit_on`, consulted by the `Core::audit_*`
/// callers), and every record is stamped with the domain's
/// `audit_serial`, so one tenant's unaudited epoch never suppresses — and
/// one tenant's sweep never touches — another's records.
pub(crate) struct AuditState {
    mode: AuditMode,
    /// Logical clock; tokens start at 1 so 0 can mean "untagged".
    clock: AtomicU64,
    /// Sharded set map, keyed by raw `SsId`.
    shards: [Mutex<HashMap<u64, SetAudit>>; SHARDS],
    /// First violation seen this epoch (first report wins; later events for
    /// an already-condemned epoch still record, but cannot overwrite it).
    violation: Mutex<Option<AuditReport>>,
    /// Sets left untracked because their shard hit [`PER_SHARD_CAP`].
    overflowed: AtomicU64,
    /// Conflict-graph edges recorded (feeds `Stats::audit_edges`).
    edges: AtomicU64,
}

impl AuditState {
    pub(crate) fn new(mode: AuditMode) -> Self {
        AuditState {
            mode,
            clock: AtomicU64::new(1),
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            violation: Mutex::new(None),
            overflowed: AtomicU64::new(0),
            edges: AtomicU64::new(0),
        }
    }

    pub(crate) fn mode(&self) -> AuditMode {
        self.mode
    }

    /// Total conflict-graph edges recorded since construction.
    pub(crate) fn edges(&self) -> u64 {
        self.edges.load(Ordering::Relaxed)
    }

    /// Number of sets currently tracked across all shards (tests the
    /// streaming memory bound).
    pub(crate) fn graph_size(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    fn shard(&self, ss: SsId) -> &Mutex<HashMap<u64, SetAudit>> {
        // Fibonacci hash → top bits; SHARDS = 16 ⇒ shift by 60.
        let i = (ss.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize;
        &self.shards[i]
    }

    fn report(&self, report: AuditReport) {
        let mut slot = self.violation.lock().unwrap();
        if slot.is_none() {
            *slot = Some(report);
        }
    }

    /// The sampling decision for an epoch with this serial (each domain
    /// calls it with its own serial, so tenants' epochs are sampled
    /// independently).
    pub(crate) fn should_audit(&self, serial: u64) -> bool {
        match self.mode {
            AuditMode::Off => false,
            AuditMode::Full => true,
            AuditMode::Sample(n) => serial.is_multiple_of(u64::from(n.max(1))),
        }
    }

    /// Records a submission: draws `n` consecutive tokens for operations
    /// pushed by `producer` to `ss` and returns the tag of the first (0
    /// when the set is untracked). The k-th operation's tag is
    /// `base + ((k as u64) << 16)`.
    ///
    /// Must be called on the producing thread, immediately adjacent to the
    /// queue push (or inline run), so per-producer token order equals
    /// per-producer queue order.
    pub(crate) fn submit(&self, ss: SsId, producer: u16, n: u64, serial: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        let mut shard = self.shard(ss).lock().unwrap();
        let state = match entry_capped(&mut shard, ss, serial, &self.overflowed) {
            Some(s) => s,
            None => return 0,
        };
        let base = self.clock.fetch_add(n, Ordering::Relaxed);
        state.submitted += n;
        let p = state.producer_mut(producer);
        p.submitted += n;
        p.last_submit = base + (n - 1);
        encode_tag(base, producer)
    }

    /// Rolls back `n` consecutive submissions starting at `tag` (queue push
    /// failed after the tokens were drawn). Tokens are not reclaimed —
    /// only the counts; per-producer `last_submit` stays monotone, which is
    /// fine because the op never executes.
    pub(crate) fn unsubmit(&self, ss: SsId, tag: u64, n: u64, serial: u64) {
        if tag == 0 || n == 0 {
            return;
        }
        let (_, producer) = decode_tag(tag);
        let mut shard = self.shard(ss).lock().unwrap();
        if let Some(state) = shard.get_mut(&ss.0) {
            if state.serial != serial {
                return;
            }
            state.submitted = state.submitted.saturating_sub(n);
            let p = state.producer_mut(producer);
            p.submitted = p.submitted.saturating_sub(n);
        }
    }

    /// Records an execution: operation `tag` of set `ss` ran on executor
    /// slot `slot`. Checks the three online invariants.
    pub(crate) fn exec(&self, ss: SsId, tag: u64, slot: usize, serial: u64) {
        if tag == 0 {
            return;
        }
        let (token, producer) = decode_tag(tag);
        let mut shard = self.shard(ss).lock().unwrap();
        let state = match shard.get_mut(&ss.0) {
            Some(s) if s.serial == serial => s,
            // Set untracked (capped) or the record belongs to a closed
            // epoch (possible only in chaos runs) — nothing to check
            // against.
            _ => return,
        };
        self.edges.fetch_add(1, Ordering::Relaxed);
        // (1) One executor per set per epoch.
        if state.executor == u32::MAX {
            state.executor = slot as u32;
        } else if state.executor != slot as u32 {
            self.report(AuditReport {
                epoch: serial,
                set: ss,
                kind: AuditViolation::TwoExecutors {
                    first: state.executor as usize,
                    second: slot,
                },
            });
        }
        // (3) Reclaim barrier: program-submitted ops must not execute past
        // the program thread's reclaim of the set. Producer 0 only —
        // nested (delegate-submitted) ops on *other objects* of the set
        // may legally still be in flight across a reclaim.
        if producer == 0 && state.barrier != 0 && token < state.barrier {
            self.report(AuditReport {
                epoch: serial,
                set: ss,
                kind: AuditViolation::BarrierOverrun {
                    op: token,
                    barrier: state.barrier,
                },
            });
        }
        // (2) Per-producer program order.
        let p = state.producer_mut(producer);
        if token <= p.last_exec {
            let later = p.last_exec;
            self.report(AuditReport {
                epoch: serial,
                set: ss,
                kind: AuditViolation::OrderInversion {
                    producer: producer as usize,
                    earlier: token,
                    later,
                },
            });
        } else {
            p.last_exec = token;
        }
        p.executed += 1;
        state.executed += 1;
    }

    /// Records a *legal* executor handover: the steal protocol migrated
    /// the set's queued operations to executor slot `to_slot` at a point
    /// where no operation of the set was in flight (never-started batch,
    /// or quiescent tail after the handshake), so subsequent executions
    /// on the thief are a continuation of the set's serial order — not a
    /// second executor. Re-points the one-executor check at the thief.
    ///
    /// Does NOT weaken the checker against illegal steals: a mid-set
    /// steal (chaos `steal_mid_set`) migrates while the owner still has
    /// an operation in flight, and that operation's `exec` lands *after*
    /// this handover — its slot no longer matches and `TwoExecutors`
    /// fires; any stolen op that overtakes the owner's prefix trips the
    /// per-producer order check besides.
    pub(crate) fn handover(&self, ss: SsId, serial: u64, to_slot: usize) {
        let mut shard = self.shard(ss).lock().unwrap();
        if let Some(state) = shard.get_mut(&ss.0) {
            if state.serial == serial && state.executor != u32::MAX {
                state.executor = to_slot as u32;
            }
        }
    }

    /// Records a memo hit: a `delegate_memo`-family operation on `ss` was
    /// answered from the memo table instead of executing. The serve is a
    /// conflict-graph no-op — the cached result stands in for a completed
    /// execution whose edges were checked when it originally ran — so
    /// nothing here touches the set's submitted/executed counts or its
    /// executor claim. The one thing certification must still see is
    /// *freshness*: a serve whose entry generation trails the set's live
    /// generation replays a result that a later non-memoized delegation
    /// or reclaim has invalidated, and is reported as
    /// [`AuditViolation::StaleMemoServe`].
    pub(crate) fn memo_hit(&self, ss: SsId, serial: u64, entry_gen: u64, live_gen: u64) {
        self.edges.fetch_add(1, Ordering::Relaxed);
        if entry_gen != live_gen {
            self.report(AuditReport {
                epoch: serial,
                set: ss,
                kind: AuditViolation::StaleMemoServe {
                    served: entry_gen,
                    live: live_gen,
                },
            });
        }
    }

    /// The access gate: called on the program thread right before it gains
    /// direct access to a reclaimed set's object. Certifies that every
    /// program-submitted operation of the set has executed, then stamps a
    /// reclaim barrier so late executions are caught at `exec` time.
    ///
    /// Returns the violation (if any) so the caller can refuse the access
    /// *before* touching the value — under the chaos `skip_reclaim_fence`
    /// knob this is what keeps the test itself memory-safe.
    pub(crate) fn access_gate(&self, ss: SsId, serial: u64) -> Option<AuditReport> {
        let mut shard = self.shard(ss).lock().unwrap();
        let state = match shard.get_mut(&ss.0) {
            Some(s) if s.serial == serial => s,
            _ => return None,
        };
        let barrier = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut violation = None;
        if let Some(p) = state.producers.iter().find(|p| p.producer == 0) {
            if p.submitted != p.executed {
                // Per-producer FIFO ⇒ the last-submitted op is provably
                // among the unexecuted ones: name it.
                violation = Some(AuditReport {
                    epoch: serial,
                    set: ss,
                    kind: AuditViolation::BarrierOverrun {
                        op: p.last_submit,
                        barrier,
                    },
                });
            }
        }
        state.barrier = barrier;
        if let Some(v) = violation.clone() {
            self.report(v);
        }
        violation
    }

    /// Closes one epoch *domain*: runs the conservation check over the
    /// entries stamped with exactly `serial`, then removes every entry
    /// belonging to the same tenant (the stamp's high 16 bits — 0 for the
    /// root runtime, the session id for session stamps) while leaving
    /// other tenants' live entries untouched. Returns the first violation
    /// reported against this domain.
    ///
    /// The caller has drained its domain (the epoch barrier), so every
    /// execution record of the closing epoch has already landed — the
    /// conservation check is exact even while other tenants are mid-epoch.
    pub(crate) fn close_domain(&self, serial: u64) -> Option<AuditReport> {
        let domain = serial >> 48;
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap();
            for (&raw, state) in shard.iter() {
                if state.serial == serial && state.submitted != state.executed {
                    self.report(AuditReport {
                        epoch: serial,
                        set: SsId(raw),
                        kind: AuditViolation::LostOperations {
                            submitted: state.submitted,
                            executed: state.executed,
                        },
                    });
                }
            }
            shard.retain(|_, s| s.serial >> 48 != domain);
        }
        let mut slot = self.violation.lock().unwrap();
        match &*slot {
            Some(r) if r.epoch >> 48 == domain => slot.take(),
            _ => None,
        }
    }
}

/// Looks up (or inserts) the set entry, enforcing the per-shard cap.
fn entry_capped<'a>(
    shard: &'a mut HashMap<u64, SetAudit>,
    ss: SsId,
    serial: u64,
    overflowed: &AtomicU64,
) -> Option<&'a mut SetAudit> {
    if !shard.contains_key(&ss.0) {
        if shard.len() >= PER_SHARD_CAP {
            overflowed.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        shard.insert(ss.0, SetAudit::new(serial));
    }
    let state = shard.get_mut(&ss.0).unwrap();
    state.refresh(serial);
    Some(state)
}

/// Packs `(token, producer)` into the invocation-carried tag. Producer
/// occupies the low 16 bits offset by 1 so that tag 0 means "untagged";
/// the token occupies the high 48 bits.
#[inline]
fn encode_tag(token: u64, producer: u16) -> u64 {
    (token << 16) | (u64::from(producer) + 1)
}

/// Inverse of [`encode_tag`].
#[inline]
fn decode_tag(tag: u64) -> (u64, u16) {
    ((tag >> 16), ((tag & 0xFFFF) - 1) as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full() -> AuditState {
        AuditState::new(AuditMode::Full)
    }

    #[test]
    fn tag_roundtrip_including_batch_stride() {
        let tag = encode_tag(77, 3);
        assert_eq!(decode_tag(tag), (77, 3));
        // Batch stride: k-th op's tag is base + (k << 16) → token base + k.
        let base = encode_tag(100, 0);
        assert_eq!(decode_tag(base + (5 << 16)), (105, 0));
    }

    #[test]
    fn clean_epoch_certifies() {
        let a = full();
        let ss = SsId(9);
        let t1 = a.submit(ss, 0, 1, 1);
        let t2 = a.submit(ss, 0, 1, 1);
        a.exec(ss, t1, 2, 1);
        a.exec(ss, t2, 2, 1);
        let v = a.close_domain(1);
        assert_eq!(v, None);
        assert_eq!(a.graph_size(), 0);
    }

    #[test]
    fn two_executors_is_reported() {
        let a = full();
        let ss = SsId(4);
        let t1 = a.submit(ss, 0, 1, 1);
        let t2 = a.submit(ss, 0, 1, 1);
        a.exec(ss, t1, 1, 1);
        a.exec(ss, t2, 2, 1);
        let v = a.close_domain(1);
        match v.expect("violation").kind {
            AuditViolation::TwoExecutors {
                first: 1,
                second: 2,
            } => {}
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn handover_lets_tail_continue_on_thief() {
        // Owner (slot 1) executes a prefix, the quiescent tail migrates to
        // the thief (slot 2): with the handover recorded, the split
        // execution is one serial order, not TwoExecutors.
        let a = full();
        let ss = SsId(4);
        let t1 = a.submit(ss, 0, 1, 1);
        let t2 = a.submit(ss, 0, 1, 1);
        let t3 = a.submit(ss, 0, 1, 1);
        a.exec(ss, t1, 1, 1);
        a.handover(ss, 1, 2);
        a.exec(ss, t2, 2, 1);
        a.exec(ss, t3, 2, 1);
        let v = a.close_domain(1);
        assert_eq!(v, None);
    }

    #[test]
    fn exec_on_old_slot_after_handover_is_two_executors() {
        // A mid-set steal: the owner's in-flight op reports *after* the
        // handover re-pointed the record at the thief — caught.
        let a = full();
        let ss = SsId(4);
        let t1 = a.submit(ss, 0, 1, 1);
        let t2 = a.submit(ss, 0, 1, 1);
        a.exec(ss, t1, 1, 1);
        a.handover(ss, 1, 2);
        a.exec(ss, t2, 1, 1); // owner, not thief
        let v = a.close_domain(1);
        assert!(matches!(
            v.expect("violation").kind,
            AuditViolation::TwoExecutors {
                first: 2,
                second: 1
            }
        ));
    }

    #[test]
    fn handover_before_any_exec_is_inert() {
        // A whole-batch steal of a never-executed set: nothing to
        // re-point; the thief's first exec claims the record as usual.
        let a = full();
        let ss = SsId(4);
        let t1 = a.submit(ss, 0, 1, 1);
        a.handover(ss, 1, 2);
        a.exec(ss, t1, 3, 1); // claims slot 3, no violation
        let v = a.close_domain(1);
        assert_eq!(v, None);
    }

    #[test]
    fn order_inversion_is_reported() {
        let a = full();
        let ss = SsId(4);
        let t1 = a.submit(ss, 0, 1, 1);
        let t2 = a.submit(ss, 0, 1, 1);
        a.exec(ss, t2, 1, 1);
        a.exec(ss, t1, 1, 1);
        let v = a.close_domain(1);
        assert!(matches!(
            v.expect("violation").kind,
            AuditViolation::OrderInversion { producer: 0, .. }
        ));
    }

    #[test]
    fn barrier_overrun_at_gate_and_at_exec() {
        // Unexecuted program op caught at the gate.
        let a = full();
        let ss = SsId(8);
        let t = a.submit(ss, 0, 1, 1);
        let v = a.access_gate(ss, 1).expect("gate violation");
        match v.kind {
            AuditViolation::BarrierOverrun { op, .. } => assert_eq!(op, decode_tag(t).0),
            other => panic!("wrong kind: {other:?}"),
        }
        // A clean reclaim, then a program op executing past the barrier.
        let b = full();
        let t1 = b.submit(ss, 0, 1, 1);
        b.exec(ss, t1, 1, 1);
        assert_eq!(b.access_gate(ss, 1), None);
        b.exec(ss, t1, 1, 1); // pre-barrier token executing late
        let v2 = b.close_domain(1);
        assert!(matches!(
            v2.expect("violation").kind,
            AuditViolation::BarrierOverrun { .. }
        ));
    }

    #[test]
    fn lost_operations_reported_at_close() {
        let a = full();
        let ss = SsId(2);
        let _t = a.submit(ss, 0, 1, 1);
        let v = a.close_domain(1);
        assert!(matches!(
            v.expect("violation").kind,
            AuditViolation::LostOperations {
                submitted: 1,
                executed: 0
            }
        ));
    }

    #[test]
    fn unsubmit_balances_failed_push() {
        let a = full();
        let ss = SsId(2);
        let t = a.submit(ss, 0, 1, 1);
        a.unsubmit(ss, t, 1, 1);
        let v = a.close_domain(1);
        assert_eq!(v, None);
    }

    #[test]
    fn sampling_skips_off_epochs() {
        let a = AuditState::new(AuditMode::Sample(2));
        assert!(!a.should_audit(3)); // 3 % 2 != 0 → off
        assert!(a.should_audit(4));
        assert!(AuditState::new(AuditMode::Sample(0)).should_audit(7)); // stride 0 ≡ 1
    }

    #[test]
    fn shard_cap_bounds_graph_size() {
        let a = full();
        for i in 0..(SHARDS as u64 * PER_SHARD_CAP as u64 * 2) {
            a.submit(SsId(i), 0, 1, 1);
        }
        assert!(a.graph_size() <= SHARDS * PER_SHARD_CAP);
        assert!(a.overflowed.load(Ordering::Relaxed) > 0);
        // Untracked sets do not produce LostOperations (tag 0 was returned)
        // but tracked ones do; clear via close_domain.
        let _ = a.close_domain(1);
        assert_eq!(a.graph_size(), 0);
    }

    #[test]
    fn stale_entries_refresh_across_epochs() {
        let a = full();
        let ss = SsId(5);
        let t = a.submit(ss, 0, 1, 1);
        a.exec(ss, t, 1, 1);
        let v = a.close_domain(1);
        assert_eq!(v, None);
        let t2 = a.submit(ss, 0, 1, 2);
        a.exec(ss, t2, 2, 2); // different executor than epoch 1 — legal
        let v2 = a.close_domain(2);
        assert_eq!(v2, None);
    }

    #[test]
    fn memo_hit_fresh_is_silent_stale_is_reported() {
        let a = full();
        let ss = SsId(6);
        let t = a.submit(ss, 0, 1, 1);
        a.exec(ss, t, 1, 1);
        a.memo_hit(ss, 1, 3, 3); // fresh serve: generations agree
        let v = a.close_domain(1);
        assert_eq!(v, None);

        let b = full();
        let t = b.submit(ss, 0, 1, 1);
        b.exec(ss, t, 1, 1);
        b.memo_hit(ss, 1, 3, 5); // stale serve: entry trails the live gen
        let v = b.close_domain(1);
        assert!(matches!(
            v.expect("violation").kind,
            AuditViolation::StaleMemoServe { served: 3, live: 5 }
        ));
    }

    #[test]
    fn memo_hit_does_not_disturb_conservation() {
        // A hit is not an execution: the close-time conservation check
        // must still balance on the real submit/exec counts alone.
        let a = full();
        let ss = SsId(6);
        let t = a.submit(ss, 0, 1, 1);
        a.memo_hit(ss, 1, 1, 1);
        a.exec(ss, t, 1, 1);
        let v = a.close_domain(1);
        assert_eq!(v, None);
    }

    #[test]
    fn report_display_names_the_pair() {
        let r = AuditReport {
            epoch: 7,
            set: SsId(3),
            kind: AuditViolation::OrderInversion {
                producer: 0,
                earlier: 10,
                later: 12,
            },
        };
        let s = format!("{r}");
        assert!(s.contains("epoch 7"));
        assert!(s.contains("10"));
        assert!(s.contains("12"));
    }
}
