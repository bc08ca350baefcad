//! The decoupling boundary: conflict checks delegated out of the memory
//! system.
//!
//! LogTM-SE's thesis is that transactional state lives *outside* the cache
//! arrays. This crate honours that architecturally: the coherence protocol
//! never sees a signature. Instead, wherever the real hardware would probe a
//! core's signatures (forwarded GETS/GETM, invalidations, directory-rebuild
//! broadcasts, eviction decisions), the protocol calls a [`ConflictOracle`]
//! that the TM layer implements.
//!
//! The module also holds the ground truth both backends are checked
//! against: [`SerializabilityOracle`] replays committed transactions in
//! commit order against one hash map from key to value (a missing key reads
//! 0), and sorts the touched keys once for the end-of-run sweep.

use std::collections::HashMap;

use crate::addr::{AddrBuildHasher, BlockAddr};
use crate::dir::SharerSet;

/// Whether a memory access reads or writes (maps to the paper's GETS/GETM
/// coherence requests and to `SigOp` in `ltse-sig`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load; misses issue GETS.
    Load,
    /// A store (or atomic RMW); misses/upgrades issue GETM.
    Store,
}

impl std::fmt::Display for AccessKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AccessKind::Load => "load",
            AccessKind::Store => "store",
        })
    }
}

/// Signature checks the protocol delegates to the TM layer.
///
/// `requester_ctx` is a *global thread context id* (see
/// [`crate::MemConfig::ctx`]). The paper attaches an address-space id to
/// every coherence request so aliasing cannot create cross-process false
/// conflicts (§2); implementations know every context's [`crate::Asid`], including
/// the requester's, and must NACK only when the signature hits **and** the
/// ASIDs match.
pub trait ConflictOracle {
    /// Would any thread context on `core` NACK an incoming request of `kind`
    /// for `block` from `requester_ctx`? Returns the nacking context id, or
    /// `None` if the request may proceed. The requester's own context must
    /// not be reported.
    fn check_core(
        &self,
        core: crate::dir::CoreId,
        kind: AccessKind,
        block: BlockAddr,
        requester_ctx: u32,
    ) -> Option<u32>;

    /// Which cores have a thread context whose *hardware* view (its
    /// signatures, false positives included) holds `block`, and whether any
    /// context holds it *exactly* (shadow sets, no false positives) — one
    /// pass over the contexts. `core` restricts the question to that core's
    /// contexts. The hardware answer controls the sticky-state decision on
    /// L1 eviction and the broadcast-needed decision on L2 eviction; the
    /// exact one feeds only the paper's Result 4 victimization statistics,
    /// never a protocol decision. Exact coverage implies hardware coverage
    /// (signatures have no false negatives).
    fn coverage(&self, block: BlockAddr, core: Option<crate::dir::CoreId>) -> Coverage;
}

/// The answer to [`ConflictOracle::coverage`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Coverage {
    /// The cores with a context whose signatures hold the block.
    pub hw: SharerSet,
    /// Whether some context's exact read or write set holds it.
    pub exact: bool,
}

/// An oracle with no transactions anywhere: nothing conflicts, nothing is
/// transactional. Lets the memory system be unit-tested (and the lock-based
/// baseline run) in isolation.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullOracle;

impl ConflictOracle for NullOracle {
    fn check_core(
        &self,
        _core: crate::dir::CoreId,
        _kind: AccessKind,
        _block: BlockAddr,
        _requester_ctx: u32,
    ) -> Option<u32> {
        None
    }

    fn coverage(&self, _block: BlockAddr, _core: Option<crate::dir::CoreId>) -> Coverage {
        Coverage::default()
    }
}

/// One data operation of a transaction, in program order: a load the
/// serial replay checks, or a store it applies. Both backends record their
/// histories in this form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataOp {
    /// A load of `key` that observed `seen`.
    Read {
        /// The word's oracle key.
        key: u64,
        /// The value the load observed.
        seen: u64,
    },
    /// A store of `value` to `key`.
    Write {
        /// The word's oracle key.
        key: u64,
        /// The value stored.
        value: u64,
    },
}

impl DataOp {
    /// The ops one access of `key` records: its load if it `loaded`, then
    /// its store if it `stored`.
    pub fn of_access(
        key: u64,
        loaded: Option<u64>,
        stored: Option<u64>,
    ) -> impl Iterator<Item = DataOp> {
        let read = loaded.map(|seen| DataOp::Read { key, seen });
        let write = stored.map(|value| DataOp::Write { key, value });
        read.into_iter().chain(write)
    }
}

/// Cap on recorded mismatch messages: a genuinely broken run can mismatch on
/// every access, and the first few errors carry all the signal.
const MAX_ERRORS: usize = 32;

/// A differential serializability checker: replays *committed* transactions,
/// in commit order, against a plain sequential memory (one hash map from key
/// to value), and asserts that every committed read observed exactly the
/// value the serial replay produces and that the final memory states agree.
/// The final sweep sorts the keys once, so its errors come in ascending key
/// order.
///
/// This is the ground truth LogTM-SE's machinery (signatures, NACKs, undo
/// logs, sticky states, summary signatures) is supposed to implement: eager
/// conflict detection holds writers and readers apart until commit, so the
/// committed history must be serializable *in commit order*. A signature
/// false negative, a skipped undo-log record, or a missed sticky-state check
/// surfaces here as a read-value or final-state divergence.
///
/// Keys are opaque `u64`s chosen by the caller; the system-level harness
/// packs `(asid, virtual word address)` so page relocation (which changes
/// physical placement, not meaning) is invisible to the oracle. Aborted
/// frames are discarded without touching the reference memory — "aborted
/// transactions leave no trace" falls out of the final-state comparison.
///
/// Operations performed outside any transaction (plain accesses, escape
/// actions) apply to the reference immediately, as single-op transactions
/// serialized at execution time: eager conflict detection NACKs them until
/// no live transaction holds the block, so execution order *is* their
/// serialization order.
///
/// Frame stacks are indexed by thread id (the simulator's ids are dense,
/// `0..threads`). A frame's op buffer is cleared and kept when the frame
/// commits, merges or aborts, and the next `begin` on any thread takes it,
/// so a checked run stops allocating for frames once the buffers have
/// reached their working size.
#[derive(Debug, Default)]
pub struct SerializabilityOracle {
    /// The sequential reference memory, holding every key any access or
    /// init ever touched (for the final sweep); a missing key reads 0.
    reference: HashMap<u64, u64, AddrBuildHasher>,
    /// Per-thread stack of open transaction frames, indexed by thread id;
    /// `.0` is `true` for an open-nested frame.
    frames: Vec<Vec<(bool, Vec<DataOp>)>>,
    /// Emptied op buffers of finished frames, for `begin` to reuse.
    spare: Vec<Vec<DataOp>>,
    errors: Vec<String>,
    committed_txs: u64,
    checked_reads: u64,
}

impl SerializabilityOracle {
    /// A fresh oracle over an all-zero reference memory.
    pub fn new() -> Self {
        SerializabilityOracle::default()
    }

    fn push_error(&mut self, msg: String) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(msg);
        }
    }

    /// Seeds an initial value (memory initialized before the run starts).
    pub fn init_word(&mut self, key: u64, value: u64) {
        self.reference.insert(key, value);
    }

    /// Replays `ops` against the reference, checking reads.
    fn apply(&mut self, thread: u32, ops: impl IntoIterator<Item = DataOp>) {
        for op in ops {
            match op {
                DataOp::Read { key, seen } => {
                    self.checked_reads += 1;
                    let want = *self.reference.entry(key).or_insert(0);
                    if want != seen {
                        self.push_error(format!(
                            "thread {thread}: committed read of {key:#x} observed {seen} \
                             but serial replay expects {want}"
                        ));
                    }
                }
                DataOp::Write { key, value } => {
                    self.reference.insert(key, value);
                }
            }
        }
    }

    /// The op buffer of `thread`'s innermost live frame.
    fn innermost(&mut self, thread: u32) -> Option<&mut Vec<DataOp>> {
        let stack = self.frames.get_mut(thread as usize)?;
        stack.last_mut().map(|(_, ops)| ops)
    }

    /// `thread`'s frame stack, created empty on first use.
    fn stack(&mut self, thread: u32) -> &mut Vec<(bool, Vec<DataOp>)> {
        let t = thread as usize;
        if t >= self.frames.len() {
            self.frames.resize_with(t + 1, Vec::new);
        }
        &mut self.frames[t]
    }

    /// Returns a finished frame's op buffer to the spare list.
    fn recycle(&mut self, mut ops: Vec<DataOp>) {
        ops.clear();
        self.spare.push(ops);
    }

    /// A transaction (or nested child) began. `open` marks open nesting.
    pub fn begin(&mut self, thread: u32, open: bool) {
        let ops = self.spare.pop().unwrap_or_default();
        self.stack(thread).push((open, ops));
    }

    /// The thread's innermost transaction committed.
    ///
    /// Closed children merge into the parent frame (their effects replay at
    /// the ancestors' commit); open children and outermost transactions
    /// replay against the reference immediately — this call site *is* their
    /// commit-order position.
    pub fn commit(&mut self, thread: u32) {
        let stack = self.stack(thread);
        let Some((open, ops)) = stack.pop() else {
            self.push_error(format!("thread {thread}: commit without a live frame"));
            return;
        };
        match stack.last_mut() {
            Some((_, parent)) if !open => parent.extend_from_slice(&ops),
            _ => {
                self.committed_txs += 1;
                self.apply(thread, ops.iter().copied());
            }
        }
        self.recycle(ops);
    }

    /// The thread's innermost frame aborted (partial abort): its recorded
    /// operations are discarded.
    pub fn abort_innermost(&mut self, thread: u32) {
        match self.stack(thread).pop() {
            Some((_, ops)) => self.recycle(ops),
            None => self.push_error(format!(
                "thread {thread}: partial abort without a live frame"
            )),
        }
    }

    /// The thread's whole nest aborted: everything is discarded.
    pub fn abort_all(&mut self, thread: u32) {
        while let Some((_, ops)) = self.stack(thread).pop() {
            self.recycle(ops);
        }
    }

    /// Whether `thread` has a live (uncommitted) frame.
    pub fn in_tx(&self, thread: u32) -> bool {
        self.frames
            .get(thread as usize)
            .is_some_and(|s| !s.is_empty())
    }

    /// Records one memory access of `thread` to `key`: the value it loaded
    /// (`None` if it loads nothing), the value it stored (`None` if it
    /// stored nothing), and whether it ran inside an escape action. Outside
    /// any transaction the access applies at once, as a single-op
    /// transaction; inside one it joins the innermost frame, load first.
    ///
    /// An escape-action access bypasses the frame stack. Its store takes
    /// effect immediately (escape stores are never logged, so an enclosing
    /// abort cannot undo them); its load is not checked at all — under eager
    /// version management it may legitimately observe the enclosing
    /// transaction's uncommitted stores, which the serial replay cannot
    /// predict.
    pub fn access(
        &mut self,
        thread: u32,
        key: u64,
        loaded: Option<u64>,
        stored: Option<u64>,
        escape: bool,
    ) {
        let (loaded, frame) = if escape {
            (None, None)
        } else {
            (loaded, self.innermost(thread))
        };
        let ops = DataOp::of_access(key, loaded, stored);
        match frame {
            Some(frame) => frame.extend(ops),
            None => self.apply(thread, ops),
        }
    }

    /// Replays one committed transaction's `ops` against the reference now:
    /// for a history recorded elsewhere, the order of these calls is the
    /// commit order.
    pub fn replay(&mut self, thread: u32, ops: &[DataOp]) {
        self.committed_txs += 1;
        self.apply(thread, ops.iter().copied());
    }

    /// Records an externally detected invariant violation (post-abort probe
    /// failures, leftover transactional state, …) so one error channel
    /// carries everything.
    pub fn note(&mut self, msg: String) {
        self.push_error(msg);
    }

    /// Compares the reference against the actual memory over every touched
    /// key; `actual` resolves a key to the real memory's current value.
    /// Threads still holding live frames at this point are reported too —
    /// a finished run must have no transaction in flight.
    pub fn check_final(&mut self, mut actual: impl FnMut(u64) -> u64) {
        let live: Vec<usize> = (0..self.frames.len())
            .filter(|&t| !self.frames[t].is_empty())
            .collect();
        for thread in live {
            self.push_error(format!(
                "thread {thread}: transaction still live at end of run"
            ));
        }
        let mut keys: Vec<u64> = self.reference.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let want = self.reference[&key];
            let got = actual(key);
            if want != got {
                self.push_error(format!(
                    "final state diverges at {key:#x}: memory holds {got}, \
                     serial replay expects {want}"
                ));
            }
        }
    }

    /// All recorded divergences and violations, in detection order (capped).
    pub fn errors(&self) -> &[String] {
        &self.errors
    }

    /// Whether any check has failed so far.
    pub fn has_errors(&self) -> bool {
        !self.errors.is_empty()
    }

    /// Drains the recorded errors.
    pub fn take_errors(&mut self) -> Vec<String> {
        std::mem::take(&mut self.errors)
    }

    /// Number of transactions replayed (outermost commits + open-nested
    /// publishes).
    pub fn committed_txs(&self) -> u64 {
        self.committed_txs
    }

    /// Number of read-value equivalence checks performed.
    pub fn checked_reads(&self) -> u64 {
        self.checked_reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(o: &mut SerializabilityOracle, thread: u32, key: u64, seen: u64) {
        o.access(thread, key, Some(seen), None, false);
    }

    fn write(o: &mut SerializabilityOracle, thread: u32, key: u64, value: u64) {
        o.access(thread, key, None, Some(value), false);
    }

    #[test]
    fn null_oracle_never_conflicts() {
        let o = NullOracle;
        assert_eq!(o.check_core(0, AccessKind::Store, BlockAddr(1), 99), None);
        assert_eq!(o.coverage(BlockAddr(1), None), Coverage::default());
        assert_eq!(o.coverage(BlockAddr(1), Some(0)), Coverage::default());
    }

    #[test]
    fn access_kind_display() {
        assert_eq!(AccessKind::Load.to_string(), "load");
        assert_eq!(AccessKind::Store.to_string(), "store");
    }

    #[test]
    fn serial_increments_replay_clean() {
        let mut o = SerializabilityOracle::new();
        let mut mem = 0u64;
        for t in 0..3u32 {
            o.begin(t, false);
            read(&mut o, t, 0x10, mem);
            mem += 1;
            write(&mut o, t, 0x10, mem);
            o.commit(t);
        }
        assert_eq!(o.committed_txs(), 3);
        assert_eq!(o.checked_reads(), 3);
        o.check_final(|_| mem);
        assert!(o.errors().is_empty(), "{:?}", o.errors());
    }

    #[test]
    fn lost_update_is_detected() {
        let mut o = SerializabilityOracle::new();
        // Two transactions both read 0, both write 1 (the classic lost
        // update a working TM must prevent).
        o.begin(0, false);
        read(&mut o, 0, 0x10, 0);
        write(&mut o, 0, 0x10, 1);
        o.begin(1, false);
        read(&mut o, 1, 0x10, 0); // recorded before t0 commits: fine so far
        write(&mut o, 1, 0x10, 1);
        o.commit(0);
        o.commit(1); // replay expects t1's read to see 1, it saw 0
        assert!(o.has_errors());
        assert!(o.errors()[0].contains("observed 0"), "{:?}", o.errors());
    }

    #[test]
    fn final_state_divergence_is_detected() {
        let mut o = SerializabilityOracle::new();
        o.begin(0, false);
        write(&mut o, 0, 0x20, 7);
        o.commit(0);
        o.check_final(|_| 99); // actual memory disagrees
        assert!(o
            .errors()
            .iter()
            .any(|e| e.contains("final state diverges")));
    }

    #[test]
    fn aborted_transactions_leave_no_trace() {
        let mut o = SerializabilityOracle::new();
        o.init_word(0x30, 5);
        o.begin(0, false);
        read(&mut o, 0, 0x30, 5);
        write(&mut o, 0, 0x30, 100);
        o.abort_all(0);
        assert!(!o.in_tx(0));
        // A later reader must see the pre-transaction value.
        read(&mut o, 1, 0x30, 5);
        o.check_final(|_| 5);
        assert!(o.errors().is_empty(), "{:?}", o.errors());
        assert_eq!(o.committed_txs(), 0);
    }

    #[test]
    fn closed_nesting_merges_into_parent() {
        let mut o = SerializabilityOracle::new();
        o.begin(0, false);
        write(&mut o, 0, 0x40, 1);
        o.begin(0, false); // closed child
        write(&mut o, 0, 0x41, 2);
        o.commit(0); // merges, nothing published yet
        assert_eq!(o.committed_txs(), 0);
        // A concurrent non-transactional read still sees old memory.
        read(&mut o, 1, 0x41, 0);
        o.commit(0); // outermost: both writes publish, in program order
        assert_eq!(o.committed_txs(), 1);
        o.check_final(|k| match k {
            0x40 => 1,
            0x41 => 2,
            _ => 0,
        });
        assert!(o.errors().is_empty(), "{:?}", o.errors());
    }

    #[test]
    fn partial_abort_discards_only_the_inner_frame() {
        let mut o = SerializabilityOracle::new();
        o.begin(0, false);
        write(&mut o, 0, 0x50, 1);
        o.begin(0, false);
        write(&mut o, 0, 0x51, 9); // inner write, then partial abort
        o.abort_innermost(0);
        assert!(o.in_tx(0));
        o.commit(0);
        o.check_final(|k| if k == 0x50 { 1 } else { 0 });
        assert!(o.errors().is_empty(), "{:?}", o.errors());
    }

    #[test]
    fn open_nested_commit_publishes_immediately() {
        let mut o = SerializabilityOracle::new();
        o.begin(0, false);
        o.begin(0, true); // open child
        write(&mut o, 0, 0x60, 42);
        o.commit(0); // publishes now
        assert_eq!(o.committed_txs(), 1);
        read(&mut o, 1, 0x60, 42); // visible to others before the parent commits
        o.abort_all(0); // parent aborts; open child's publish survives
        o.check_final(|k| if k == 0x60 { 42 } else { 0 });
        assert!(o.errors().is_empty(), "{:?}", o.errors());
    }

    #[test]
    fn rmw_checks_the_observed_value() {
        let mut o = SerializabilityOracle::new();
        o.access(0, 0x70, Some(0), Some(1), false); // fetch-add outside any tx
        o.access(1, 0x70, Some(1), Some(2), false);
        o.access(2, 0x70, Some(7), Some(8), false); // stale observation: must be flagged
        assert_eq!(o.errors().len(), 1, "{:?}", o.errors());
        // Failed CAS writes nothing.
        let mut o2 = SerializabilityOracle::new();
        o2.access(0, 0x70, Some(0), None, false);
        o2.check_final(|_| 0);
        assert!(o2.errors().is_empty());
    }

    #[test]
    fn escape_write_bypasses_the_frame_stack() {
        let mut o = SerializabilityOracle::new();
        o.begin(0, false);
        o.access(0, 0x85, None, Some(7), true); // visible immediately, survives the abort
        read(&mut o, 1, 0x85, 7);
        // An escape RMW applies only its store; its load is not checked.
        o.access(0, 0x85, Some(99), Some(7), true);
        o.abort_all(0);
        o.check_final(|k| if k == 0x85 { 7 } else { 0 });
        assert!(o.errors().is_empty(), "{:?}", o.errors());
    }

    #[test]
    fn live_frame_at_end_of_run_is_reported() {
        let mut o = SerializabilityOracle::new();
        o.begin(0, false);
        write(&mut o, 0, 0x80, 1);
        o.check_final(|_| 0);
        assert!(
            o.errors().iter().any(|e| e.contains("still live")),
            "{:?}",
            o.errors()
        );
    }

    #[test]
    fn commit_without_begin_is_reported() {
        let mut o = SerializabilityOracle::new();
        o.commit(3);
        assert!(o.errors()[0].contains("commit without"), "{:?}", o.errors());
    }

    #[test]
    fn recycled_frames_start_empty() {
        let mut o = SerializabilityOracle::new();
        // An aborted frame's buffer goes to the next begin, which must not
        // replay the aborted write (it would fail the read and the final
        // sweep).
        o.begin(0, false);
        write(&mut o, 0, 0x90, 5);
        o.abort_all(0);
        o.begin(0, false);
        read(&mut o, 0, 0x90, 0);
        o.commit(0);
        // A merged closed child's buffer goes to thread 2's begin.
        o.begin(1, false);
        o.begin(1, false);
        write(&mut o, 1, 0x91, 6);
        o.commit(1);
        o.begin(2, false);
        read(&mut o, 2, 0x91, 0);
        o.commit(2);
        o.commit(1);
        assert_eq!(o.committed_txs(), 3);
        assert_eq!(o.checked_reads(), 2);
        o.check_final(|k| if k == 0x91 { 6 } else { 0 });
        assert!(o.errors().is_empty(), "{:?}", o.errors());
    }

    #[test]
    fn live_threads_are_reported_in_ascending_id_order() {
        let mut o = SerializabilityOracle::new();
        o.begin(5, false);
        o.begin(2, false);
        o.check_final(|_| 0);
        assert_eq!(
            o.errors(),
            [
                "thread 2: transaction still live at end of run",
                "thread 5: transaction still live at end of run",
            ]
        );
    }

    #[test]
    fn error_cap_bounds_memory() {
        let mut o = SerializabilityOracle::new();
        for i in 0..1000 {
            read(&mut o, 0, 0x90, i + 1); // always wrong (reference holds 0)
        }
        assert_eq!(o.errors().len(), MAX_ERRORS);
    }
}
