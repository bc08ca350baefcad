//! Per-thread-context transactional state (the circled additions of the
//! paper's Figure 1).

use ltse_mem::{Asid, BlockAddr, PageId, WordAddr, WORDS_PER_BLOCK};
use ltse_sig::{ConflictVerdict, ShadowedRwSignature, SigOp};
use ltse_sim::rng::Xoshiro256StarStar;
use ltse_sim::Cycle;

use crate::config::TmConfig;
use crate::conflict::{abort_backoff, ConflictHistory, TxStamp};
use crate::filter::LogFilter;
use crate::log::{unroll_frame, TxLog};
use crate::stats::{TmStats, TxSetSizes};

/// Closed or open nesting (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NestKind {
    /// Child merges into the parent at commit; a conflict can partially
    /// abort just the child.
    Closed,
    /// Child commits its changes and releases isolation before the parent
    /// commits.
    Open,
}

/// Coarse transaction phase of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxPhase {
    /// Not inside any transaction.
    Idle,
    /// Inside a transaction (any nesting depth).
    Active,
}

/// Everything LogTM-SE adds to one thread context, plus the software-visible
/// log: read/write signatures (with exact shadows for accounting), summary
/// signature, log + log pointer, log filter, nesting depth, timestamp and
/// `possible_cycle` flag, escape-action depth.
///
/// The state is self-contained and movable between hardware contexts — that
/// mobility *is* the paper's virtualization story (§4.1).
#[derive(Debug, Clone)]
pub struct ThreadTmState {
    /// Software thread id (stable across migrations).
    pub thread_id: u32,
    /// Owning process's address-space id.
    pub asid: Asid,
    sig: ShadowedRwSignature,
    summary: Option<ShadowedRwSignature>,
    log: TxLog,
    filter: LogFilter,
    stamp: Option<TxStamp>,
    /// Timestamp preserved across abort→retry so old transactions
    /// eventually win (LogTM's starvation avoidance).
    preserved_stamp: Option<TxStamp>,
    possible_cycle: bool,
    escape_depth: u32,
    abort_attempts: u32,
    /// Consecutive deadlock-possible NACKs a size-aware contention manager
    /// has spared this transaction; escalates to an abort when it grows
    /// (the sparing rule alone can deadlock when the bigger transaction is
    /// the younger one).
    pub(crate) spared_stalls: u32,
    checkpoint_counter: u64,
    /// Whether this thread's signatures are currently folded into its
    /// process summary signature (set while descheduled mid-transaction,
    /// cleared at commit).
    pub in_summary: bool,
    /// Page remaps queued while descheduled (applied before resuming, §4.2).
    pending_remaps: Vec<(PageId, PageId)>,
    rng: Xoshiro256StarStar,
    /// Per-thread statistics.
    pub stats: TmStats,
    /// Always-on conflict history feeding the adaptive contention manager.
    /// Maintained identically under every policy so enabling `Adaptive`
    /// (or pinning it) changes no other thread-visible state.
    pub history: ConflictHistory,
}

/// Result of an outermost abort: handler costs and backoff for the caller
/// to schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbortCosts {
    /// Trap + per-block handler cycles (memory traffic of the restoring
    /// stores is charged separately by the system).
    pub handler_cycles: Cycle,
    /// Blocks restored from the log.
    pub restored_blocks: u64,
    /// Randomized-exponential backoff before retrying.
    pub backoff: Cycle,
    /// The thread had been context-switched during this transaction; the
    /// OS must remove its contribution from the process summary signature
    /// (an aborted transaction releases isolation just like a committed
    /// one).
    pub needs_summary_update: bool,
}

impl ThreadTmState {
    /// Creates idle TM state for a thread. `log_base` must be a
    /// thread-private address (each thread gets a disjoint log region).
    pub fn new(thread_id: u32, asid: Asid, config: &TmConfig, log_base: WordAddr, seed: u64) -> Self {
        ThreadTmState {
            thread_id,
            asid,
            sig: ShadowedRwSignature::new(&config.signature),
            summary: None,
            log: TxLog::new(log_base),
            filter: LogFilter::new(config.log_filter_entries),
            stamp: None,
            preserved_stamp: None,
            possible_cycle: false,
            escape_depth: 0,
            abort_attempts: 0,
            spared_stalls: 0,
            checkpoint_counter: 0,
            in_summary: false,
            pending_remaps: Vec::new(),
            rng: Xoshiro256StarStar::new(seed),
            stats: TmStats::new(),
            history: ConflictHistory::default(),
        }
    }

    /// Consecutive aborts of the current transaction attempt (reset at
    /// commit). The escalation rule compares this against
    /// [`TmConfig::escalate_after`].
    pub fn abort_attempts(&self) -> u32 {
        self.abort_attempts
    }

    /// Whether the thread is inside a transaction.
    #[inline]
    pub fn in_tx(&self) -> bool {
        !self.log.is_empty()
    }

    /// Current phase.
    pub fn phase(&self) -> TxPhase {
        if self.in_tx() {
            TxPhase::Active
        } else {
            TxPhase::Idle
        }
    }

    /// Current nesting depth.
    pub fn depth(&self) -> usize {
        self.log.depth()
    }

    /// The transaction timestamp, if active.
    pub fn stamp(&self) -> Option<TxStamp> {
        self.stamp
    }

    /// The `possible_cycle` deadlock-avoidance flag.
    pub fn possible_cycle(&self) -> bool {
        self.possible_cycle
    }

    /// Sets the `possible_cycle` flag (this context NACKed an older
    /// transaction).
    pub fn set_possible_cycle(&mut self) {
        self.possible_cycle = true;
    }

    /// Whether the thread is inside an escape action.
    #[inline]
    pub fn in_escape(&self) -> bool {
        self.escape_depth > 0
    }

    /// Enters an escape action (non-transactional window inside a
    /// transaction, used for system calls/IO/allocation — §6.2). Nestable.
    pub fn escape_begin(&mut self) {
        self.escape_depth += 1;
        self.stats.escapes += 1;
    }

    /// Leaves an escape action.
    ///
    /// # Panics
    ///
    /// Panics if not inside an escape action.
    pub fn escape_end(&mut self) {
        assert!(self.escape_depth > 0, "escape_end without escape_begin");
        self.escape_depth -= 1;
    }

    /// The hardware + shadow signature pair.
    pub fn sig(&self) -> &ShadowedRwSignature {
        &self.sig
    }

    /// The installed summary signature, if any.
    pub fn summary(&self) -> Option<&ShadowedRwSignature> {
        self.summary.as_ref()
    }

    /// Installs (or replaces) the summary signature checked on every memory
    /// reference.
    pub fn install_summary(&mut self, summary: Option<ShadowedRwSignature>) {
        self.summary = summary;
    }

    /// The undo log.
    pub fn log(&self) -> &TxLog {
        &self.log
    }

    // ---- transaction lifecycle ------------------------------------------

    /// Begins a transaction (outermost or nested). Returns the log address
    /// the new frame header is written at (a real store the system should
    /// charge).
    ///
    /// An outermost begin after an abort reuses the aborted attempt's
    /// timestamp so old transactions eventually win (LogTM policy).
    pub fn begin(&mut self, kind: NestKind, now: Cycle) -> WordAddr {
        self.checkpoint_counter += 1;
        let saved = if self.in_tx() {
            // Nested begin: save the parent's signature into the new frame
            // header and clear the log filter so the child re-logs
            // everything it writes (§3.2).
            self.filter.clear();
            Some(self.sig.save())
        } else {
            self.stamp = Some(match self.preserved_stamp.take() {
                Some(s) => s,
                None => TxStamp::new(now, self.thread_id),
            });
            None
        };
        self.log.push_frame(kind, self.checkpoint_counter, saved)
    }

    /// Records a committed memory access in the signatures. No-op inside
    /// escape actions or outside transactions.
    #[inline]
    pub fn record_access(&mut self, op: SigOp, block: BlockAddr) {
        self.spared_stalls = 0; // a completed access is progress
        if self.in_tx() && !self.in_escape() {
            self.sig.insert(op, block.as_u64());
        }
    }

    /// Decides whether a transactional store to `block` must write an undo
    /// record. On a log-filter miss, reads the old contents through
    /// `read_old` and appends the record, returning the log address to
    /// charge a store to. Inside escape actions (or outside transactions)
    /// nothing is logged.
    pub fn log_store_if_needed(
        &mut self,
        block: BlockAddr,
        read_old: impl FnOnce() -> [u64; WORDS_PER_BLOCK as usize],
    ) -> Option<WordAddr> {
        if !self.in_tx() || self.in_escape() {
            return None;
        }
        if self.filter.note_logged(block) {
            self.stats.log_writes += 1;
            Some(self.log.append_undo(block.first_word(), read_old()))
        } else {
            self.stats.log_writes_suppressed += 1;
            None
        }
    }

    /// Commits the innermost transaction. Returns `(outermost, cycles)`.
    ///
    /// * Closed inner commit merges the frame into the parent (discarding
    ///   the header).
    /// * Open inner commit restores the parent's signature from the header,
    ///   releasing isolation on blocks only the child accessed, and discards
    ///   the child's undo records (its writes are permanent).
    /// * Outermost commit clears the signature and resets the log pointer —
    ///   the paper's fast local commit.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active.
    pub fn commit(&mut self, config: &TmConfig, _now: Cycle) -> (bool, Cycle) {
        assert!(self.in_tx(), "commit outside a transaction");
        if self.depth() > 1 {
            let kind = self.log.innermost().expect("active frame").header.kind;
            match kind {
                NestKind::Closed => {
                    let _header = self.log.merge_into_parent();
                    self.filter.clear();
                    (false, config.commit_cycles)
                }
                NestKind::Open => {
                    let frame = self.log.pop_frame().expect("active frame");
                    let saved = frame
                        .header
                        .saved_parent_sig
                        .as_ref()
                        .expect("nested frame has saved parent signature");
                    self.sig.restore(saved);
                    self.log.recycle(frame);
                    self.filter.clear();
                    (false, config.commit_cycles + config.sig_save_cycles)
                }
            }
        } else {
            let sizes = TxSetSizes {
                read_blocks: self.sig.exact_read_set_size() as u64,
                write_blocks: self.sig.exact_write_set_size() as u64,
            };
            self.stats.record_commit_sets(sizes);
            self.stats.log_high_water_words = self
                .stats
                .log_high_water_words
                .max(self.log.high_water_words());
            self.stats.commits += 1;
            self.history.on_commit();
            self.log.commit_outer();
            self.sig.clear();
            self.filter.clear();
            self.stamp = None;
            self.preserved_stamp = None;
            self.possible_cycle = false;
            self.abort_attempts = 0;
            (true, config.commit_cycles)
        }
    }

    /// Partially aborts just the innermost (nested) frame: unrolls its undo
    /// records through `restore` and reinstates the parent's signature.
    /// Returns the handler cycles.
    ///
    /// # Panics
    ///
    /// Panics unless nesting depth is at least 2 (use [`Self::abort_all`]
    /// for the outermost transaction).
    pub fn abort_innermost(
        &mut self,
        config: &TmConfig,
        restore: &mut dyn FnMut(WordAddr, &[u64; 8]),
    ) -> Cycle {
        assert!(self.depth() >= 2, "partial abort requires a nested frame");
        let frame = self.log.pop_frame().expect("nested frame");
        unroll_frame(&frame, |base, old| restore(base, old));
        let saved = frame
            .header
            .saved_parent_sig
            .as_ref()
            .expect("nested frame has saved parent signature");
        self.sig.restore(saved);
        self.filter.clear();
        self.stats.partial_aborts += 1;
        let restored = frame.undo.len() as u64;
        self.log.recycle(frame);
        config.abort_trap_cycles
            + Cycle(restored * config.abort_per_block_cycles.as_u64())
            + config.sig_save_cycles
    }

    /// Aborts the whole transaction: walks every live frame's undo records
    /// LIFO (innermost first), restores memory through `restore`, clears
    /// the signature, and computes the backoff for the retry.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active.
    pub fn abort_all(
        &mut self,
        config: &TmConfig,
        now: Cycle,
        restore: &mut dyn FnMut(WordAddr, &[u64; 8]),
    ) -> AbortCosts {
        assert!(self.in_tx(), "abort outside a transaction");
        let mut restored = 0u64;
        // Test-only fault injection (see `TmConfig::fault_skip_one_undo`):
        // drop the restore of the most recent undo record on the floor.
        let mut fault_pending = config.fault_skip_one_undo;
        while let Some(frame) = self.log.pop_frame() {
            unroll_frame(&frame, |base, old| {
                if std::mem::take(&mut fault_pending) {
                    return;
                }
                restored += 1;
                restore(base, old);
            });
            self.log.recycle(frame);
        }
        let stamp = self.stamp.take().expect("active tx has a stamp");
        self.preserved_stamp = Some(stamp);
        self.sig.clear();
        self.filter.clear();
        self.possible_cycle = false;
        self.stats.aborts += 1;
        self.stats.wasted_cycles += now.saturating_sub(stamp.begin).as_u64();
        self.history.on_abort();
        self.abort_attempts += 1;
        let needs_summary_update = std::mem::take(&mut self.in_summary);
        let backoff = abort_backoff(
            &mut self.rng,
            config.backoff_base_cycles,
            config.backoff_cap_shift,
            self.abort_attempts - 1,
        );
        AbortCosts {
            handler_cycles: config.abort_trap_cycles
                + Cycle(restored * config.abort_per_block_cycles.as_u64()),
            restored_blocks: restored,
            backoff,
            needs_summary_update,
        }
    }

    // ---- virtualization hooks (used by the OS model) ---------------------

    /// Clears the log filter (always safe; done at context switch, §2).
    pub fn clear_filter(&mut self) {
        self.filter.clear();
    }

    /// Queues a page remap to apply before this (descheduled) thread
    /// resumes (§4.2).
    pub fn queue_page_remap(&mut self, old: PageId, new: PageId) {
        self.pending_remaps.push((old, new));
    }

    /// Applies queued page remaps to the signatures; called at reschedule.
    pub fn apply_pending_remaps(&mut self) {
        let remaps = std::mem::take(&mut self.pending_remaps);
        for (old, new) in remaps {
            self.remap_page_now(old, new);
        }
    }

    /// Immediately rewrites the signatures for a page relocation (active
    /// threads are interrupted and updated in place, §4.2).
    pub fn remap_page_now(&mut self, old: PageId, new: PageId) {
        self.sig.rehash_page(
            old.first_block().as_u64(),
            new.first_block().as_u64(),
            ltse_mem::BLOCKS_PER_PAGE,
        );
    }

    /// Whether `block` may be in this thread's read- or write-set per the
    /// *hardware* signatures (sticky/broadcast decisions).
    pub fn covers_hw(&self, block: BlockAddr) -> bool {
        self.in_tx() && self.sig.in_either_set(block.as_u64())
    }

    /// Whether `block` is exactly in this thread's sets (Result 4 stats).
    pub fn covers_exact(&self, block: BlockAddr) -> bool {
        self.in_tx() && self.sig.conflicts_exactly(SigOp::Write, block.as_u64())
    }

    /// Side-effect-free re-judgement of a conflict this thread signalled:
    /// `Some(true)` for true sharing (the exact shadow sets agree),
    /// `Some(false)` for pure signature aliasing, `None` when the
    /// signatures report no conflict at all. Unlike [`Self::check_conflict`]
    /// this never bumps the statistics cells, so the observability layer
    /// can classify individual NACK events after the fact without
    /// double-counting the Table 3 accounting.
    pub fn judge_conflict(&self, op: SigOp, block: BlockAddr) -> Option<bool> {
        if !self.in_tx() {
            return None;
        }
        match self.sig.classify(op, block.as_u64()) {
            ConflictVerdict::None => None,
            ConflictVerdict::True => Some(true),
            ConflictVerdict::FalsePositive => Some(false),
        }
    }

    /// CONFLICT(op, block) against this thread's signatures, classifying
    /// the answer for false-positive accounting. Returns the hardware
    /// decision.
    #[inline]
    pub fn check_conflict(&self, op: SigOp, block: BlockAddr) -> bool {
        if !self.in_tx() {
            return false;
        }
        let verdict = self.sig.classify(op, block.as_u64());
        match verdict {
            ConflictVerdict::None => false,
            ConflictVerdict::True => {
                self.stats
                    .true_conflicts_signalled
                    .set(self.stats.true_conflicts_signalled.get() + 1);
                true
            }
            ConflictVerdict::FalsePositive => {
                self.stats
                    .false_conflicts_signalled
                    .set(self.stats.false_conflicts_signalled.get() + 1);
                true
            }
        }
    }

    /// CONFLICT(op, block) against the installed summary signature (checked
    /// on *every* memory reference, §4.1). Returns whether a trap is
    /// required.
    #[inline]
    pub fn check_summary(&self, op: SigOp, block: BlockAddr) -> bool {
        let Some(summary) = &self.summary else {
            return false;
        };
        match summary.classify(op, block.as_u64()) {
            ConflictVerdict::None => false,
            ConflictVerdict::True => {
                self.stats
                    .summary_true_conflicts
                    .set(self.stats.summary_true_conflicts.get() + 1);
                true
            }
            ConflictVerdict::FalsePositive => {
                self.stats
                    .summary_false_conflicts
                    .set(self.stats.summary_false_conflicts.get() + 1);
                true
            }
        }
    }

    /// Invariant probe for the correctness tooling: after an outermost
    /// commit or a full abort this thread must hold no residual
    /// transactional state — undo log fully unwound with the log pointer
    /// back at base, signatures clear, timestamp released, no deadlock
    /// flag, and its read/write sets withdrawn from any summary signature.
    /// Returns a description of every violated invariant (empty = clean).
    pub fn post_outer_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let t = self.thread_id;
        if !self.log.is_empty() {
            v.push(format!(
                "thread {t}: undo log still holds {} frame(s) after outermost commit/abort",
                self.log.depth()
            ));
        }
        if !self.log.ptr_is_reset() {
            v.push(format!(
                "thread {t}: log pointer not reset to base (still at {})",
                self.log.log_ptr().as_u64()
            ));
        }
        if !self.sig.is_empty() {
            v.push(format!(
                "thread {t}: read/write signature not cleared after outermost commit/abort"
            ));
        }
        if self.stamp.is_some() {
            v.push(format!("thread {t}: transaction timestamp still installed"));
        }
        if self.possible_cycle {
            v.push(format!("thread {t}: possible_cycle flag survived the transaction"));
        }
        if self.in_summary {
            v.push(format!(
                "thread {t}: still folded into the process summary signature"
            ));
        }
        v
    }

    /// Zeroes the statistics while leaving all transactional and cache-
    /// relevant state untouched — the warm-up boundary of a steady-state
    /// measurement (the paper measures "representative execution samples",
    /// not cold start).
    pub fn reset_stats(&mut self) {
        self.stats = TmStats::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltse_sig::SignatureKind;

    fn cfg() -> TmConfig {
        TmConfig::default_with(SignatureKind::paper_bs_2kb())
    }

    fn state(cfg: &TmConfig) -> ThreadTmState {
        ThreadTmState::new(0, Asid(0), cfg, WordAddr(1 << 40), 42)
    }

    #[test]
    fn begin_commit_lifecycle() {
        let c = cfg();
        let mut t = state(&c);
        assert_eq!(t.phase(), TxPhase::Idle);
        t.begin(NestKind::Closed, Cycle(10));
        assert_eq!(t.phase(), TxPhase::Active);
        assert_eq!(t.stamp().unwrap().begin, Cycle(10));
        t.record_access(SigOp::Write, BlockAddr(5));
        let logged = t.log_store_if_needed(BlockAddr(5), || [1; 8]);
        assert!(logged.is_some());
        let (outer, _) = t.commit(&c, Cycle(20));
        assert!(outer);
        assert!(!t.in_tx());
        assert_eq!(t.stats.commits, 1);
        assert_eq!(t.stats.read_set.count(), 1);
        assert_eq!(t.stats.write_set.max(), Some(1));
    }

    #[test]
    fn filter_suppresses_second_log() {
        let c = cfg();
        let mut t = state(&c);
        t.begin(NestKind::Closed, Cycle(0));
        assert!(t.log_store_if_needed(BlockAddr(7), || [0; 8]).is_some());
        assert!(t.log_store_if_needed(BlockAddr(7), || [0; 8]).is_none());
        assert_eq!(t.stats.log_writes, 1);
        assert_eq!(t.stats.log_writes_suppressed, 1);
    }

    #[test]
    fn escape_actions_bypass_tm() {
        let c = cfg();
        let mut t = state(&c);
        t.begin(NestKind::Closed, Cycle(0));
        t.escape_begin();
        t.record_access(SigOp::Write, BlockAddr(9));
        assert!(t.log_store_if_needed(BlockAddr(9), || [0; 8]).is_none());
        assert!(!t.check_conflict(SigOp::Read, BlockAddr(9)));
        t.escape_end();
        t.record_access(SigOp::Write, BlockAddr(9));
        assert!(t.check_conflict(SigOp::Read, BlockAddr(9)));
    }

    #[test]
    fn abort_restores_lifo_and_backs_off() {
        let c = cfg();
        let mut t = state(&c);
        t.begin(NestKind::Closed, Cycle(5));
        t.record_access(SigOp::Write, BlockAddr(1));
        t.log_store_if_needed(BlockAddr(1), || [11; 8]);
        t.record_access(SigOp::Write, BlockAddr(2));
        t.log_store_if_needed(BlockAddr(2), || [22; 8]);
        let mut restored = Vec::new();
        let costs = t.abort_all(&c, Cycle(100), &mut |base, old| {
            restored.push((base.0, old[0]));
        });
        assert_eq!(restored, vec![(16, 22), (8, 11)], "LIFO");
        assert_eq!(costs.restored_blocks, 2);
        assert!(costs.handler_cycles >= c.abort_trap_cycles);
        assert!(!t.in_tx());
        assert_eq!(t.stats.aborts, 1);
        assert!(t.stats.wasted_cycles >= 95);
        // Signature released.
        assert!(!t.check_conflict(SigOp::Read, BlockAddr(1)));
    }

    #[test]
    fn retry_preserves_timestamp() {
        let c = cfg();
        let mut t = state(&c);
        t.begin(NestKind::Closed, Cycle(5));
        t.abort_all(&c, Cycle(50), &mut |_, _| {});
        t.begin(NestKind::Closed, Cycle(200));
        assert_eq!(
            t.stamp().unwrap().begin,
            Cycle(5),
            "retry keeps the original timestamp so old transactions win"
        );
        t.commit(&c, Cycle(300));
        t.begin(NestKind::Closed, Cycle(400));
        assert_eq!(t.stamp().unwrap().begin, Cycle(400), "fresh after commit");
    }

    #[test]
    fn closed_nesting_merges_on_commit() {
        let c = cfg();
        let mut t = state(&c);
        t.begin(NestKind::Closed, Cycle(0));
        t.log_store_if_needed(BlockAddr(1), || [1; 8]);
        t.begin(NestKind::Closed, Cycle(1));
        assert_eq!(t.depth(), 2);
        t.log_store_if_needed(BlockAddr(2), || [2; 8]);
        let (outer, _) = t.commit(&c, Cycle(2));
        assert!(!outer);
        assert_eq!(t.depth(), 1);
        assert_eq!(t.log().total_undo_records(), 2, "child undo kept");
        // Abort of the parent must now undo BOTH blocks.
        let mut restored = Vec::new();
        t.abort_all(&c, Cycle(3), &mut |b, _| restored.push(b.0 / 8));
        assert_eq!(restored, vec![2, 1]);
    }

    #[test]
    fn open_commit_releases_child_isolation() {
        let c = cfg();
        let mut t = state(&c);
        t.begin(NestKind::Closed, Cycle(0));
        t.record_access(SigOp::Write, BlockAddr(10));
        t.begin(NestKind::Open, Cycle(1));
        t.record_access(SigOp::Write, BlockAddr(20));
        assert!(t.check_conflict(SigOp::Read, BlockAddr(20)));
        let (outer, _) = t.commit(&c, Cycle(2));
        assert!(!outer);
        // Child-only block released; parent's retained.
        assert!(!t.check_conflict(SigOp::Read, BlockAddr(20)));
        assert!(t.check_conflict(SigOp::Read, BlockAddr(10)));
        // Open-committed writes are permanent: parent abort restores only
        // the parent's own footprint.
        let mut restored = Vec::new();
        t.abort_all(&c, Cycle(3), &mut |b, _| restored.push(b.0 / 8));
        assert!(restored.is_empty(), "open child's undo was discarded");
    }

    #[test]
    fn partial_abort_unrolls_child_only() {
        let c = cfg();
        let mut t = state(&c);
        t.begin(NestKind::Closed, Cycle(0));
        t.record_access(SigOp::Write, BlockAddr(1));
        t.log_store_if_needed(BlockAddr(1), || [1; 8]);
        t.begin(NestKind::Closed, Cycle(1));
        t.record_access(SigOp::Write, BlockAddr(2));
        t.log_store_if_needed(BlockAddr(2), || [2; 8]);

        let mut restored = Vec::new();
        t.abort_innermost(&c, &mut |b, _| restored.push(b.0 / 8));
        assert_eq!(restored, vec![2], "only the child frame unrolled");
        assert_eq!(t.depth(), 1);
        assert_eq!(t.stats.partial_aborts, 1);
        // Parent signature restored: block 2 no longer isolated, block 1 is.
        assert!(!t.check_conflict(SigOp::Read, BlockAddr(2)));
        assert!(t.check_conflict(SigOp::Read, BlockAddr(1)));
        assert!(t.in_tx());
    }

    #[test]
    fn nested_begin_clears_filter() {
        let c = cfg();
        let mut t = state(&c);
        t.begin(NestKind::Closed, Cycle(0));
        t.log_store_if_needed(BlockAddr(3), || [0; 8]);
        t.begin(NestKind::Closed, Cycle(1));
        // Child must re-log block 3 (its own frame needs the undo record).
        assert!(t.log_store_if_needed(BlockAddr(3), || [0; 8]).is_some());
    }

    #[test]
    fn summary_checked_and_classified() {
        let c = cfg();
        let mut t = state(&c);
        // Build a summary containing block 7's write.
        let mut summary = ShadowedRwSignature::new(&c.signature);
        summary.insert(SigOp::Write, 7);
        t.install_summary(Some(summary));
        assert!(t.check_summary(SigOp::Read, BlockAddr(7)));
        assert_eq!(t.stats.summary_true_conflicts.get(), 1);
        assert!(!t.check_summary(SigOp::Read, BlockAddr(8)));
        t.install_summary(None);
        assert!(!t.check_summary(SigOp::Read, BlockAddr(7)));
    }

    #[test]
    fn conflict_classification_counts_false_positives() {
        let c = TmConfig::default_with(SignatureKind::paper_bs_64());
        let mut t = state(&c);
        t.begin(NestKind::Closed, Cycle(0));
        t.record_access(SigOp::Write, BlockAddr(5));
        assert!(t.check_conflict(SigOp::Read, BlockAddr(5)));
        assert!(t.check_conflict(SigOp::Read, BlockAddr(5 + 64)), "alias");
        assert_eq!(t.stats.true_conflicts_signalled.get(), 1);
        assert_eq!(t.stats.false_conflicts_signalled.get(), 1);
        assert_eq!(t.stats.false_positive_pct(), Some(50.0));
    }

    #[test]
    fn page_remap_immediate_and_queued() {
        let c = cfg();
        let mut t = state(&c);
        t.begin(NestKind::Closed, Cycle(0));
        let old = PageId(2);
        let new = PageId(9);
        let block_in_old = old.block(5);
        t.record_access(SigOp::Write, block_in_old);
        t.remap_page_now(old, new);
        assert!(t.check_conflict(SigOp::Read, new.block(5)), "new covered");

        // Queued variant applies at reschedule time.
        let old2 = PageId(30);
        let new2 = PageId(31);
        t.record_access(SigOp::Write, old2.block(1));
        t.queue_page_remap(old2, new2);
        assert!(!t.check_conflict(SigOp::Write, new2.block(1)));
        t.apply_pending_remaps();
        assert!(t.check_conflict(SigOp::Write, new2.block(1)));
    }

    #[test]
    fn covers_hw_vs_exact() {
        let c = TmConfig::default_with(SignatureKind::paper_bs_64());
        let mut t = state(&c);
        t.begin(NestKind::Closed, Cycle(0));
        t.record_access(SigOp::Read, BlockAddr(3));
        assert!(t.covers_hw(BlockAddr(3)));
        assert!(t.covers_hw(BlockAddr(3 + 64)), "hashed view aliases");
        assert!(t.covers_exact(BlockAddr(3)));
        assert!(!t.covers_exact(BlockAddr(3 + 64)), "exact view does not");
    }

    #[test]
    fn fault_injection_skips_most_recent_undo_only() {
        let mut c = cfg();
        c.fault_skip_one_undo = true;
        let mut t = state(&c);
        t.begin(NestKind::Closed, Cycle(0));
        t.log_store_if_needed(BlockAddr(1), || [11; 8]);
        t.log_store_if_needed(BlockAddr(2), || [22; 8]);
        let mut restored = Vec::new();
        let costs = t.abort_all(&c, Cycle(50), &mut |base, old| {
            restored.push((base.0, old[0]));
        });
        // The most recent record (block 2) was silently dropped; block 1
        // still restores. This is the seeded bug the schedule explorer's
        // differential oracle must catch via memory divergence — note the
        // local invariant probe sees nothing wrong (the log *was* popped).
        assert_eq!(restored, vec![(8, 11)]);
        assert_eq!(costs.restored_blocks, 1);
        assert!(t.post_outer_violations().is_empty());
    }

    #[test]
    fn post_outer_probe_is_clean_after_commit_and_abort() {
        let c = cfg();
        let mut t = state(&c);
        t.begin(NestKind::Closed, Cycle(0));
        t.record_access(SigOp::Write, BlockAddr(4));
        t.log_store_if_needed(BlockAddr(4), || [7; 8]);
        assert!(
            !t.post_outer_violations().is_empty(),
            "mid-transaction state is (correctly) flagged as residual"
        );
        t.commit(&c, Cycle(10));
        assert_eq!(t.post_outer_violations(), Vec::<String>::new());

        t.begin(NestKind::Closed, Cycle(20));
        t.record_access(SigOp::Write, BlockAddr(5));
        t.log_store_if_needed(BlockAddr(5), || [9; 8]);
        t.abort_all(&c, Cycle(30), &mut |_, _| {});
        assert_eq!(t.post_outer_violations(), Vec::<String>::new());
    }

    #[test]
    #[should_panic(expected = "commit outside a transaction")]
    fn commit_idle_panics() {
        let c = cfg();
        let mut t = state(&c);
        t.commit(&c, Cycle(0));
    }
}
