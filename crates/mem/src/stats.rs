//! Memory-system statistics, including the victimization counts of the
//! paper's Result 4.

use ltse_sim::stats::Counter;

/// Counters the memory system maintains per run.
///
/// The transactional-victimization counters regenerate the paper's Result 4
/// ("Raytrace victimized transactional L1 or L2 blocks 481 times in 48K
/// transactions, while other benchmarks victimized transactional blocks less
/// than 20 times").
#[derive(Debug, Clone, Default)]
pub struct MemStats {
    /// L1 hits (sufficient permission, no coherence traffic).
    pub l1_hits: Counter,
    /// L1 misses (including upgrades).
    pub l1_misses: Counter,
    /// Requests satisfied by the L2 without DRAM.
    pub l2_hits: Counter,
    /// Requests that went to DRAM.
    pub dram_accesses: Counter,
    /// DRAM accesses caused by a block's first-ever touch (cold misses);
    /// the remainder are capacity/conflict refetches.
    pub cold_misses: Counter,
    /// Requests forwarded to a remote owner/sharers for probe or signature
    /// check.
    pub forwards: Counter,
    /// Requests NACKed due to a signature conflict.
    pub nacks: Counter,
    /// Invalidations sent to sharers on GETM.
    pub invalidations: Counter,
    /// L1 evictions of any block.
    pub l1_evictions: Counter,
    /// L1 evictions of a block that was transactional *per the hardware
    /// signatures* (these leave the directory sticky).
    pub l1_tx_evictions_hw: Counter,
    /// L1 evictions of a block exactly in some active transaction's set
    /// (Result 4 numerator, L1 part).
    pub l1_tx_evictions_exact: Counter,
    /// L2 evictions of any block.
    pub l2_evictions: Counter,
    /// L2 evictions that lost directory state for a transactional block and
    /// therefore force later broadcasts (hardware view).
    pub l2_tx_evictions_hw: Counter,
    /// L2 evictions of a block exactly in some active transaction's set
    /// (Result 4 numerator, L2 part).
    pub l2_tx_evictions_exact: Counter,
    /// Broadcast signature checks after directory loss.
    pub lost_dir_broadcasts: Counter,
    /// Total protocol messages (requests + forwards + responses + invs),
    /// an interconnect-load proxy.
    pub messages: Counter,
    /// Messages that crossed a chip boundary (§7 multiple-CMP systems).
    pub interchip_messages: Counter,
}

impl MemStats {
    /// Creates zeroed stats.
    pub fn new() -> Self {
        MemStats::default()
    }

    /// Result 4's headline number: exact transactional victimizations from
    /// L1 or L2.
    pub fn tx_victimizations_exact(&self) -> u64 {
        self.l1_tx_evictions_exact.get() + self.l2_tx_evictions_exact.get()
    }

    /// DRAM accesses that were *not* cold (capacity/conflict refetches).
    pub fn warm_dram_refetches(&self) -> u64 {
        self.dram_accesses
            .get()
            .saturating_sub(self.cold_misses.get())
    }

    /// L1 miss ratio over all L1 accesses (0 when idle).
    pub fn l1_miss_ratio(&self) -> f64 {
        let total = self.l1_hits.get() + self.l1_misses.get();
        if total == 0 {
            0.0
        } else {
            self.l1_misses.get() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victimization_sums_l1_and_l2() {
        let mut s = MemStats::new();
        s.l1_tx_evictions_exact.add(3);
        s.l2_tx_evictions_exact.add(2);
        assert_eq!(s.tx_victimizations_exact(), 5);
    }

    #[test]
    fn miss_ratio() {
        let mut s = MemStats::new();
        assert_eq!(s.l1_miss_ratio(), 0.0);
        s.l1_hits.add(3);
        s.l1_misses.add(1);
        assert!((s.l1_miss_ratio() - 0.25).abs() < 1e-12);
    }
}
