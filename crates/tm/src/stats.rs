//! Per-thread and aggregate transactional statistics.
//!
//! These counters regenerate the paper's Table 2 (transactions, read/write
//! set sizes) and Table 3 (commits, stalls, aborts, false-positive
//! percentage). Some counters use `Cell` because they are bumped from inside
//! `ConflictOracle` checks, which the memory system invokes through a shared
//! reference.

use std::cell::Cell;

use ltse_sim::stats::Histogram;

/// Read/write-set sizes of one committed transaction (exact, from the
/// shadow sets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxSetSizes {
    /// Distinct blocks read.
    pub read_blocks: u64,
    /// Distinct blocks written.
    pub write_blocks: u64,
}

/// Statistics for one thread (or aggregated over threads).
#[derive(Debug, Clone, Default)]
pub struct TmStats {
    /// Committed outermost transactions.
    pub commits: u64,
    /// Aborted transactions (outermost aborts).
    pub aborts: u64,
    /// Partial (inner-frame) aborts that did not kill the outer transaction.
    pub partial_aborts: u64,
    /// Times a request by this thread was NACKed (the paper's "transaction
    /// stalls").
    pub stalls: u64,
    /// Stalls caused by the *other SMT context on the same core* (conflicts
    /// the coherence protocol never sees, §2).
    pub sibling_stalls: u64,
    /// Conflicts *this* thread's signature reported against others, judged
    /// real by the shadow sets.
    pub true_conflicts_signalled: Cell<u64>,
    /// Conflicts this thread's signature reported against others that were
    /// pure aliasing (Table 3 false positives).
    pub false_conflicts_signalled: Cell<u64>,
    /// Conflicts reported by the summary signature, real.
    pub summary_true_conflicts: Cell<u64>,
    /// Conflicts reported by the summary signature, false positives.
    pub summary_false_conflicts: Cell<u64>,
    /// Undo records written (log writes that actually happened).
    pub log_writes: u64,
    /// Redundant log writes suppressed by the log filter.
    pub log_writes_suppressed: u64,
    /// Cycles spent inside transactions that ultimately aborted.
    pub wasted_cycles: u64,
    /// Distribution of committed read-set sizes (Table 2 "Read Avg/Max",
    /// and the percentiles of the skewed tails the paper highlights in
    /// §6.3).
    pub read_set: Histogram,
    /// Distribution of committed write-set sizes (Table 2 "Write Avg/Max").
    pub write_set: Histogram,
    /// Peak undo-log footprint in 64-bit words over any single transaction
    /// (the paper's logs are unbounded virtual memory; this is how much was
    /// actually used).
    pub log_high_water_words: u64,
    /// Completed units of work (workload-defined; Table 2 "Units").
    pub work_units: u64,
    /// Escape actions entered (non-transactional windows, §6.2).
    pub escapes: u64,
    /// Times this thread's transaction escalated to the global
    /// serialization token after a bounded retry streak
    /// (`TmConfig::escalate_after`).
    pub serial_escalations: u64,
}

impl TmStats {
    /// Creates zeroed stats.
    pub fn new() -> Self {
        TmStats::default()
    }

    /// Total conflicts this thread's signatures signalled (true + false).
    pub fn conflicts_signalled(&self) -> u64 {
        self.true_conflicts_signalled.get() + self.false_conflicts_signalled.get()
    }

    /// The paper's Table 3 "False Positive %" for conflicts this thread
    /// signalled (`None` when it signalled none).
    pub fn false_positive_pct(&self) -> Option<f64> {
        let total = self.conflicts_signalled();
        (total > 0).then(|| 100.0 * self.false_conflicts_signalled.get() as f64 / total as f64)
    }

    /// Merges another thread's stats into this aggregate.
    ///
    /// Counter additions saturate instead of wrapping/panicking: merging is
    /// a reporting path, and a pegged counter is a better failure mode than
    /// a crashed (or, in release, silently wrapped) aggregate.
    ///
    /// `other` is destructured exhaustively, so adding a field to `TmStats`
    /// without deciding how it merges is a compile error, not a silently
    /// dropped counter.
    pub fn merge(&mut self, other: &TmStats) {
        let TmStats {
            commits,
            aborts,
            partial_aborts,
            stalls,
            sibling_stalls,
            true_conflicts_signalled,
            false_conflicts_signalled,
            summary_true_conflicts,
            summary_false_conflicts,
            log_writes,
            log_writes_suppressed,
            wasted_cycles,
            read_set,
            write_set,
            log_high_water_words,
            work_units,
            escapes,
            serial_escalations,
        } = other;
        self.commits = self.commits.saturating_add(*commits);
        self.aborts = self.aborts.saturating_add(*aborts);
        self.partial_aborts = self.partial_aborts.saturating_add(*partial_aborts);
        self.stalls = self.stalls.saturating_add(*stalls);
        self.sibling_stalls = self.sibling_stalls.saturating_add(*sibling_stalls);
        self.true_conflicts_signalled.set(
            self.true_conflicts_signalled
                .get()
                .saturating_add(true_conflicts_signalled.get()),
        );
        self.false_conflicts_signalled.set(
            self.false_conflicts_signalled
                .get()
                .saturating_add(false_conflicts_signalled.get()),
        );
        self.summary_true_conflicts.set(
            self.summary_true_conflicts
                .get()
                .saturating_add(summary_true_conflicts.get()),
        );
        self.summary_false_conflicts.set(
            self.summary_false_conflicts
                .get()
                .saturating_add(summary_false_conflicts.get()),
        );
        self.log_writes = self.log_writes.saturating_add(*log_writes);
        self.log_writes_suppressed = self
            .log_writes_suppressed
            .saturating_add(*log_writes_suppressed);
        self.wasted_cycles = self.wasted_cycles.saturating_add(*wasted_cycles);
        self.read_set.merge(read_set);
        self.write_set.merge(write_set);
        self.log_high_water_words = self.log_high_water_words.max(*log_high_water_words);
        self.work_units = self.work_units.saturating_add(*work_units);
        self.escapes = self.escapes.saturating_add(*escapes);
        self.serial_escalations = self.serial_escalations.saturating_add(*serial_escalations);
    }

    /// Records a committed transaction's exact set sizes.
    pub fn record_commit_sets(&mut self, sizes: TxSetSizes) {
        self.read_set.record(sizes.read_blocks);
        self.write_set.record(sizes.write_blocks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn false_positive_pct() {
        let s = TmStats::new();
        assert_eq!(s.false_positive_pct(), None);
        s.true_conflicts_signalled.set(3);
        s.false_conflicts_signalled.set(1);
        assert!((s.false_positive_pct().unwrap() - 25.0).abs() < 1e-9);
    }

    /// Builds stats where every single field holds a distinct nonzero
    /// value derived from `k`, exhaustively (adding a `TmStats` field
    /// without extending this constructor is a compile error).
    fn all_fields_set(k: u64) -> TmStats {
        let s = TmStats {
            commits: k + 1,
            aborts: k + 2,
            partial_aborts: k + 3,
            stalls: k + 4,
            sibling_stalls: k + 5,
            true_conflicts_signalled: Cell::new(k + 6),
            false_conflicts_signalled: Cell::new(k + 7),
            summary_true_conflicts: Cell::new(k + 8),
            summary_false_conflicts: Cell::new(k + 9),
            log_writes: k + 10,
            log_writes_suppressed: k + 11,
            wasted_cycles: k + 12,
            read_set: Histogram::new(),
            write_set: Histogram::new(),
            log_high_water_words: k + 13,
            work_units: k + 14,
            escapes: k + 15,
            serial_escalations: k + 18,
        };
        let mut s = s;
        s.record_commit_sets(TxSetSizes {
            read_blocks: k + 16,
            write_blocks: k + 17,
        });
        s
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = all_fields_set(100);
        let b = all_fields_set(1000);
        a.merge(&b);
        // Destructure the merged aggregate exhaustively: a new counter that
        // is not asserted here fails to compile, so it cannot be silently
        // dropped from `merge` again.
        let TmStats {
            commits,
            aborts,
            partial_aborts,
            stalls,
            sibling_stalls,
            true_conflicts_signalled,
            false_conflicts_signalled,
            summary_true_conflicts,
            summary_false_conflicts,
            log_writes,
            log_writes_suppressed,
            wasted_cycles,
            read_set,
            write_set,
            log_high_water_words,
            work_units,
            escapes,
            serial_escalations,
        } = a;
        assert_eq!(commits, 101 + 1001);
        assert_eq!(aborts, 102 + 1002);
        assert_eq!(partial_aborts, 103 + 1003);
        assert_eq!(stalls, 104 + 1004);
        assert_eq!(sibling_stalls, 105 + 1005);
        assert_eq!(true_conflicts_signalled.get(), 106 + 1006);
        assert_eq!(false_conflicts_signalled.get(), 107 + 1007);
        assert_eq!(summary_true_conflicts.get(), 108 + 1008);
        assert_eq!(summary_false_conflicts.get(), 109 + 1009);
        assert_eq!(log_writes, 110 + 1010);
        assert_eq!(log_writes_suppressed, 111 + 1011);
        assert_eq!(wasted_cycles, 112 + 1012);
        assert_eq!(read_set.total(), 2);
        assert_eq!(read_set.percentile(0), Some(116));
        assert_eq!(read_set.max(), Some(1016));
        assert_eq!(write_set.total(), 2);
        assert_eq!(write_set.percentile(0), Some(117));
        assert_eq!(write_set.max(), Some(1017));
        assert_eq!(log_high_water_words, 1013, "high water merges via max");
        assert_eq!(work_units, 114 + 1014);
        assert_eq!(escapes, 115 + 1015);
        assert_eq!(serial_escalations, 118 + 1018);
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = all_fields_set(0);
        a.commits = u64::MAX - 1;
        a.wasted_cycles = u64::MAX;
        a.true_conflicts_signalled.set(u64::MAX);
        let b = all_fields_set(0);
        a.merge(&b);
        assert_eq!(a.commits, u64::MAX, "saturates at the ceiling");
        assert_eq!(a.wasted_cycles, u64::MAX);
        assert_eq!(a.true_conflicts_signalled.get(), u64::MAX);
        // Untouched fields still merge normally.
        assert_eq!(a.aborts, 2 + 2);
    }
}
