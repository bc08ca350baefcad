//! Configuration of the transactional hardware and runtime.
//!
//! The fixed cycle costs below model the paper's qualitative claims: commit
//! is a fast local operation (clear signature + reset log pointer); abort
//! traps to a software handler and takes time proportional to the number of
//! logged blocks; nested begins save the signature to the log frame header.

use ltse_sig::SignatureKind;
use ltse_sim::Cycle;

use crate::conflict::ContentionPolicy;

/// Cycles for a commit (signature clear + log pointer reset; local).
pub const COMMIT_CYCLES: Cycle = Cycle(2);
/// Fixed cycles to trap into the software abort handler.
pub const ABORT_TRAP_CYCLES: Cycle = Cycle(80);
/// Cycles per logged block restored by the abort handler's LIFO walk (in
/// addition to the memory traffic of the restoring stores).
pub const ABORT_PER_BLOCK_CYCLES: Cycle = Cycle(10);
/// Cycles to save/restore a signature to/from a log frame header (nested
/// begin / open commit / partial abort).
pub const SIG_SAVE_CYCLES: Cycle = Cycle(8);
/// How long a NACKed requester waits before retrying its coherence request.
pub const STALL_RETRY_CYCLES: Cycle = Cycle(20);
/// Base for randomized-exponential backoff after an abort; the k-th
/// consecutive abort waits `U(0, base << min(k, cap_shift))`.
pub const BACKOFF_BASE_CYCLES: Cycle = Cycle(60);
/// Maximum left-shift applied to the backoff base.
pub const BACKOFF_CAP_SHIFT: u32 = 6;
/// Cycles to begin a transaction (register checkpoint).
pub const BEGIN_CYCLES: Cycle = Cycle(4);

/// Configuration for the LogTM-SE hardware additions and software handlers.
/// Their cycle costs are this module's constants.
///
/// ```
/// use ltse_sig::SignatureKind;
/// use ltse_tm::config::{ABORT_PER_BLOCK_CYCLES, COMMIT_CYCLES};
/// use ltse_tm::TmConfig;
///
/// let cfg = TmConfig::default_with(SignatureKind::paper_bs_2kb());
/// assert_eq!(cfg.signature, SignatureKind::paper_bs_2kb());
/// assert!(ABORT_PER_BLOCK_CYCLES > COMMIT_CYCLES);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TmConfig {
    /// Signature implementation for every thread context.
    pub signature: SignatureKind,
    /// Log-filter geometry: number of entries (fully associative). 0
    /// disables the filter (every transactional store logs — correct but
    /// wasteful, exactly as the paper notes).
    pub log_filter_entries: usize,
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
    /// Defaults with a chosen signature kind: a 16-entry log filter and
    /// requester-stalls contention management.
    pub fn default_with(signature: SignatureKind) -> Self {
        TmConfig {
            signature,
            log_filter_entries: 16,
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
        assert!(COMMIT_CYCLES < ABORT_TRAP_CYCLES);
    }
}
