//! The per-thread undo log, segmented into nested frames.
//!
//! Following Nested LogTM (paper §3.2), a thread's log is "a stack of
//! frames, each consisting of a fixed-sized header (e.g., register
//! checkpoint) and a variable-sized body of undo records"; LogTM-SE
//! "augments the header with a fixed-sized signature-save area".
//!
//! The log lives in thread-private virtual memory: this module also tracks
//! the log's *address footprint* so the simulator can issue real stores for
//! log appends (they occupy cache space and generate coherence traffic, as
//! in the paper's design).
//!
//! Frame bodies are recycled: an emptied undo vector goes on the log's
//! spare list, and the next [`TxLog::push_frame`] takes it. Commit and merge
//! do this themselves; a caller of [`TxLog::pop_frame`] hands the popped
//! frame back with [`TxLog::recycle`] once it has walked the records. A
//! thread's log therefore stops allocating once its bodies have reached
//! their working size.

use ltse_mem::{WordAddr, WORDS_PER_BLOCK};
use ltse_sig::{ShadowedRwSignature, SigOp};

use crate::ctx::NestKind;

/// One undo record: the old contents of one block, captured before the
/// transaction's first store to it. We record per-block (as the paper does)
/// with the block's word values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UndoRecord {
    /// First word of the logged block.
    pub base: WordAddr,
    /// The block's eight 64-bit words at logging time.
    pub old: [u64; WORDS_PER_BLOCK as usize],
}

impl UndoRecord {
    /// Log-space footprint of one record in words (address word + data).
    pub const WORDS: u64 = 1 + WORDS_PER_BLOCK;
}

/// The fixed-size frame header: register checkpoint plus signature-save
/// area.
#[derive(Debug, Clone)]
pub struct FrameHeader {
    /// Open or closed nesting for the transaction this frame belongs to.
    pub kind: NestKind,
    /// An opaque register-checkpoint token. The simulator's "registers" are
    /// the workload program's control state; programs checkpoint themselves
    /// and this token lets tests assert the plumbing.
    pub checkpoint: u64,
    /// The parent's signatures, saved at nested begin (`None` for the
    /// outermost frame, whose parent has no transaction).
    pub saved_parent_sig: Option<ltse_sig::ShadowedSave>,
}

/// Header footprint in log words (checkpoint + signature-save area,
/// rounded to blocks for address accounting).
pub const HEADER_WORDS: u64 = 16;

/// One log frame: header + undo-record body.
#[derive(Debug, Clone)]
pub struct LogFrame {
    /// The fixed-size header.
    pub header: FrameHeader,
    /// LIFO body of undo records.
    pub undo: Vec<UndoRecord>,
}

/// The per-thread log: a stack of frames plus address-space accounting.
///
/// ```
/// use ltse_mem::WordAddr;
/// use ltse_tm::{NestKind, TxLog};
///
/// let mut log = TxLog::new(WordAddr(1 << 40));
/// log.push_frame(NestKind::Closed, 1, None);
/// log.append_undo(WordAddr(64), [1, 2, 3, 4, 5, 6, 7, 8]);
/// assert_eq!(log.depth(), 1);
/// assert_eq!(log.total_undo_records(), 1);
/// let frame = log.pop_frame().unwrap();
/// assert_eq!(frame.undo.len(), 1);
/// assert_eq!(log.depth(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct TxLog {
    base: WordAddr,
    frames: Vec<LogFrame>,
    /// Emptied undo bodies for `push_frame` to reuse.
    spare: Vec<Vec<UndoRecord>>,
    /// Next free word offset from `base` (the hardware log pointer).
    ptr_words: u64,
    /// High-water mark of `ptr_words` (peak log size, for reporting).
    high_water_words: u64,
}

impl TxLog {
    /// Creates an empty log based at `base` (a thread-private virtual
    /// address).
    pub fn new(base: WordAddr) -> Self {
        TxLog {
            base,
            frames: Vec::new(),
            spare: Vec::new(),
            ptr_words: 0,
            high_water_words: 0,
        }
    }

    /// The log's base address.
    pub fn base(&self) -> WordAddr {
        self.base
    }

    /// Current nesting depth (number of live frames).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// The hardware log pointer: address of the next free log word.
    pub fn log_ptr(&self) -> WordAddr {
        self.base.offset(self.ptr_words)
    }

    /// Peak log footprint in words over the log's lifetime.
    pub fn high_water_words(&self) -> u64 {
        self.high_water_words
    }

    /// Pushes a new frame (a `begin`), recording the header in log space.
    /// Returns the address range the header write touches.
    pub fn push_frame(
        &mut self,
        kind: NestKind,
        checkpoint: u64,
        saved_parent_sig: Option<ltse_sig::ShadowedSave>,
    ) -> WordAddr {
        let header_addr = self.log_ptr();
        self.frames.push(LogFrame {
            header: FrameHeader {
                kind,
                checkpoint,
                saved_parent_sig,
            },
            undo: self.spare.pop().unwrap_or_default(),
        });
        self.advance(HEADER_WORDS);
        header_addr
    }

    /// Appends an undo record to the innermost frame, returning the log
    /// address the record is written at.
    ///
    /// # Panics
    ///
    /// Panics if no frame is live (logging outside a transaction).
    pub fn append_undo(
        &mut self,
        block_base: WordAddr,
        old: [u64; WORDS_PER_BLOCK as usize],
    ) -> WordAddr {
        let addr = self.log_ptr();
        let frame = self
            .frames
            .last_mut()
            .expect("undo append outside any transaction frame");
        frame.undo.push(UndoRecord {
            base: block_base,
            old,
        });
        self.advance(UndoRecord::WORDS);
        addr
    }

    /// Pops the innermost frame (abort unroll or open-commit discard),
    /// resetting the log pointer to the frame's start. Hand the frame back
    /// with [`TxLog::recycle`] when done with it.
    pub fn pop_frame(&mut self) -> Option<LogFrame> {
        let frame = self.frames.pop()?;
        let words = HEADER_WORDS + frame.undo.len() as u64 * UndoRecord::WORDS;
        self.ptr_words = self.ptr_words.saturating_sub(words);
        Some(frame)
    }

    /// Takes back a popped frame's undo body for a later `push_frame`.
    pub fn recycle(&mut self, frame: LogFrame) {
        let mut undo = frame.undo;
        undo.clear();
        self.spare.push(undo);
    }

    /// Closed-nested commit: merges the innermost frame into its parent.
    /// The child's undo records are appended to the parent's body (they
    /// must survive until the outer transaction commits); the child's
    /// header is discarded. The log pointer is *not* reset — the records
    /// still occupy log space. Returns the parent's saved signature slot
    /// state for the caller to discard.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two frames are live.
    pub fn merge_into_parent(&mut self) -> FrameHeader {
        assert!(self.frames.len() >= 2, "merge requires a nested frame");
        let mut child = self.frames.pop().expect("child frame");
        let parent = self.frames.last_mut().expect("parent frame");
        parent.undo.append(&mut child.undo);
        self.spare.push(child.undo);
        child.header
    }

    /// Outermost commit: drops all frames and resets the log pointer (the
    /// paper's "resetting the log pointer" — commit leaves old values dead
    /// in place).
    ///
    /// # Panics
    ///
    /// Panics if more than one frame is live (inner frames must be merged
    /// or popped first) or if no frame is live.
    pub fn commit_outer(&mut self) {
        assert_eq!(self.frames.len(), 1, "outer commit with live inner frames");
        let frame = self.frames.pop().expect("one live frame");
        self.recycle(frame);
        self.ptr_words = 0;
    }

    /// Read-only view of the innermost frame.
    pub fn innermost(&self) -> Option<&LogFrame> {
        self.frames.last()
    }

    /// Total undo records across all live frames.
    pub fn total_undo_records(&self) -> usize {
        self.frames.iter().map(|f| f.undo.len()).sum()
    }

    /// Whether the log is completely empty (no live transaction).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Whether the hardware log pointer sits back at the log base — the
    /// required post-state after an outermost commit or a full abort
    /// (invariant probe for the correctness tooling).
    pub fn ptr_is_reset(&self) -> bool {
        self.ptr_words == 0
    }

    fn advance(&mut self, words: u64) {
        self.ptr_words += words;
        self.high_water_words = self.high_water_words.max(self.ptr_words);
    }
}

/// Replays a frame's undo records in LIFO order, calling `restore` for each
/// `(block base, old words)` pair — the software abort handler's log walk.
/// Records for the same block may appear once per *transaction level*; LIFO
/// order guarantees the oldest value lands last.
pub fn unroll_frame(frame: &LogFrame, mut restore: impl FnMut(WordAddr, &[u64; 8])) {
    for rec in frame.undo.iter().rev() {
        restore(rec.base, &rec.old);
    }
}

/// Convenience used by nested partial abort: does the given saved parent
/// signature still conflict with `(op, block)`? (The handler "repeats this
/// process until the conflict disappears or it aborts the outer-most
/// transaction", §3.2.)
pub fn saved_sig_conflicts(
    saved: &ltse_sig::ShadowedSave,
    probe_kind: &ltse_sig::SignatureKind,
    op: SigOp,
    block: u64,
) -> bool {
    let mut tmp = ShadowedRwSignature::new(probe_kind);
    tmp.restore(saved);
    tmp.conflicts_with(op, block)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn old(v: u64) -> [u64; 8] {
        [v; 8]
    }

    #[test]
    fn push_append_pop_resets_pointer() {
        let mut log = TxLog::new(WordAddr(1000));
        assert!(log.is_empty());
        log.push_frame(NestKind::Closed, 7, None);
        let p0 = log.log_ptr();
        log.append_undo(WordAddr(64), old(1));
        log.append_undo(WordAddr(128), old(2));
        assert!(log.log_ptr() > p0);
        let f = log.pop_frame().unwrap();
        assert_eq!(f.undo.len(), 2);
        assert_eq!(f.header.checkpoint, 7);
        assert_eq!(log.log_ptr(), WordAddr(1000));
        assert!(log.is_empty());
    }

    #[test]
    fn lifo_unroll_order() {
        let mut log = TxLog::new(WordAddr(0));
        log.push_frame(NestKind::Closed, 0, None);
        log.append_undo(WordAddr(64), old(1));
        log.append_undo(WordAddr(128), old(2));
        log.append_undo(WordAddr(64), old(3)); // same block re-logged later
        let f = log.pop_frame().unwrap();
        let mut seq = Vec::new();
        unroll_frame(&f, |base, o| seq.push((base.0, o[0])));
        assert_eq!(seq, vec![(64, 3), (128, 2), (64, 1)]);
        // LIFO means the oldest value (1) is restored last — correct undo.
    }

    #[test]
    fn merge_into_parent_keeps_undo() {
        let mut log = TxLog::new(WordAddr(0));
        log.push_frame(NestKind::Closed, 1, None);
        log.append_undo(WordAddr(64), old(1));
        log.push_frame(NestKind::Closed, 2, None);
        log.append_undo(WordAddr(128), old(2));
        let child_header = log.merge_into_parent();
        assert_eq!(child_header.checkpoint, 2);
        assert_eq!(log.depth(), 1);
        assert_eq!(log.innermost().unwrap().undo.len(), 2);
        // Log pointer unchanged by the merge (records still occupy space).
        assert!(log.log_ptr().0 > HEADER_WORDS);
    }

    #[test]
    fn recycled_undo_bodies_start_empty() {
        let mut log = TxLog::new(WordAddr(0));
        // Popped and handed back, then reused by the next push.
        log.push_frame(NestKind::Closed, 0, None);
        log.append_undo(WordAddr(64), old(1));
        let f = log.pop_frame().unwrap();
        log.recycle(f);
        log.push_frame(NestKind::Closed, 1, None);
        assert_eq!(log.total_undo_records(), 0);
        // A merged child's body, then an outer commit's.
        log.push_frame(NestKind::Closed, 2, None);
        log.append_undo(WordAddr(128), old(2));
        log.merge_into_parent();
        log.push_frame(NestKind::Closed, 3, None);
        assert!(log.innermost().unwrap().undo.is_empty());
        log.merge_into_parent();
        log.commit_outer();
        log.push_frame(NestKind::Closed, 4, None);
        assert_eq!(log.total_undo_records(), 0);
    }

    #[test]
    fn commit_outer_resets_everything() {
        let mut log = TxLog::new(WordAddr(500));
        log.push_frame(NestKind::Closed, 0, None);
        log.append_undo(WordAddr(64), old(9));
        assert!(!log.ptr_is_reset());
        log.commit_outer();
        assert!(log.is_empty());
        assert!(log.ptr_is_reset());
        assert_eq!(log.log_ptr(), WordAddr(500));
        assert!(log.high_water_words() > 0, "high water survives commit");
    }

    #[test]
    #[should_panic(expected = "outside any transaction")]
    fn undo_outside_tx_panics() {
        let mut log = TxLog::new(WordAddr(0));
        log.append_undo(WordAddr(64), old(0));
    }

    #[test]
    #[should_panic(expected = "live inner frames")]
    fn outer_commit_with_nested_frames_panics() {
        let mut log = TxLog::new(WordAddr(0));
        log.push_frame(NestKind::Closed, 0, None);
        log.push_frame(NestKind::Closed, 1, None);
        log.commit_outer();
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut log = TxLog::new(WordAddr(0));
        log.push_frame(NestKind::Closed, 0, None);
        for i in 0..10 {
            log.append_undo(WordAddr(64 * (i + 1)), old(i));
        }
        let peak = log.high_water_words();
        assert_eq!(peak, HEADER_WORDS + 10 * UndoRecord::WORDS);
        log.commit_outer();
        log.push_frame(NestKind::Closed, 0, None);
        log.append_undo(WordAddr(64), old(0));
        assert_eq!(log.high_water_words(), peak, "peak is a lifetime max");
    }

    #[test]
    fn saved_sig_conflict_probe() {
        use ltse_sig::{ShadowedRwSignature, SignatureKind};
        let kind = SignatureKind::paper_bs_2kb();
        let mut sig = ShadowedRwSignature::new(&kind);
        sig.insert(SigOp::Write, 77);
        let saved = sig.save();
        assert!(saved_sig_conflicts(&saved, &kind, SigOp::Read, 77));
        assert!(!saved_sig_conflicts(&saved, &kind, SigOp::Read, 78));
    }
}
