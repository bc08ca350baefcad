//! Configuration of the transactional hardware and runtime.

use ltse_sig::SignatureKind;
use ltse_sim::Cycle;

use crate::conflict::ContentionPolicy;

/// Configuration for the LogTM-SE hardware additions and software handlers.
///
/// Cost parameters model the paper's qualitative claims: commit is a fast
/// local operation (clear signature + reset log pointer); abort traps to a
/// software handler and takes time proportional to the number of logged
/// blocks; nested begins save the signature to the log frame header.
///
/// ```
/// use ltse_sig::SignatureKind;
/// use ltse_tm::TmConfig;
///
/// let cfg = TmConfig::default_with(SignatureKind::paper_bs_2kb());
/// assert_eq!(cfg.signature, SignatureKind::paper_bs_2kb());
/// assert!(cfg.abort_per_block_cycles > cfg.commit_cycles);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TmConfig {
    /// Signature implementation for every thread context.
    pub signature: SignatureKind,
    /// Log-filter geometry: number of entries (fully associative). 0
    /// disables the filter (every transactional store logs — correct but
    /// wasteful, exactly as the paper notes).
    pub log_filter_entries: usize,
    /// Cycles for a commit (signature clear + log pointer reset; local).
    pub commit_cycles: Cycle,
    /// Fixed cycles to trap into the software abort handler.
    pub abort_trap_cycles: Cycle,
    /// Cycles per logged block restored by the abort handler's LIFO walk
    /// (in addition to the memory traffic of the restoring stores).
    pub abort_per_block_cycles: Cycle,
    /// Cycles to save/restore a signature to/from a log frame header
    /// (nested begin / open commit / partial abort).
    pub sig_save_cycles: Cycle,
    /// How long a NACKed requester waits before retrying its coherence
    /// request.
    pub stall_retry_cycles: Cycle,
    /// Base for randomized-exponential backoff after an abort; the k-th
    /// consecutive abort waits `U(0, base << min(k, cap_shift))`.
    pub backoff_base_cycles: Cycle,
    /// Maximum left-shift applied to the backoff base.
    pub backoff_cap_shift: u32,
    /// Cycles to begin a transaction (register checkpoint).
    pub begin_cycles: Cycle,
    /// Contention-management policy on NACKs.
    pub contention: ContentionPolicy,
    /// Bounded-retry escalation: after this many consecutive aborts of one
    /// transaction, its retry acquires the global serialization token and
    /// runs exempt from conflict-resolution aborts (mirroring the STM
    /// backend's serial fallback). `None` disables escalation.
    pub escalate_after: Option<u32>,
    /// Test/diagnosis pin for [`ContentionPolicy::Adaptive`]: when set, the
    /// adaptive manager always selects this static policy, making the run
    /// byte-identical to the static configuration. Ignored by static
    /// policies.
    pub adaptive_pin: Option<ContentionPolicy>,
    /// **Test-only fault injection**: when set, the abort handler silently
    /// skips restoring the most recently logged undo record of the
    /// outermost frame, leaving one block un-rolled-back. Exists solely so
    /// the schedule-exploration checker (`ltse_sim::explore` + the
    /// serializability oracle) can prove it detects a broken undo path;
    /// must never be set outside tests.
    pub fault_skip_one_undo: bool,
}

impl TmConfig {
    /// Defaults with a chosen signature kind: 16-entry log filter and cost
    /// parameters reflecting the paper's fast-commit / software-abort
    /// asymmetry.
    pub fn default_with(signature: SignatureKind) -> Self {
        TmConfig {
            signature,
            log_filter_entries: 16,
            commit_cycles: Cycle(2),
            abort_trap_cycles: Cycle(80),
            abort_per_block_cycles: Cycle(10),
            sig_save_cycles: Cycle(8),
            stall_retry_cycles: Cycle(20),
            backoff_base_cycles: Cycle(60),
            backoff_cap_shift: 6,
            begin_cycles: Cycle(4),
            contention: ContentionPolicy::RequesterStalls,
            escalate_after: None,
            adaptive_pin: None,
            fault_skip_one_undo: false,
        }
    }
}

impl Default for TmConfig {
    fn default() -> Self {
        TmConfig::default_with(SignatureKind::Perfect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_uses_perfect() {
        assert_eq!(TmConfig::default().signature, SignatureKind::Perfect);
    }

    #[test]
    fn commit_is_cheap_abort_is_dear() {
        let c = TmConfig::default();
        assert!(c.commit_cycles < c.abort_trap_cycles);
    }
}
