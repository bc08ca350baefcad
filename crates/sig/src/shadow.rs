//! False-positive accounting: any signature paired with exact shadow sets.
//!
//! The paper's Table 3 reports, per signature configuration, the fraction of
//! conflicts that are *false positives* — conflicts the hashed signature
//! reports but a perfect signature would not. [`ShadowedRwSignature`] keeps
//! exact read/write shadow sets alongside the configured signature so every
//! conflict check can be classified.

use crate::{PerfectSignature, ReadWriteSignature, SavedSignature, SigOp, SignatureKind};

/// Classification of a reported conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictVerdict {
    /// No conflict: neither the signature nor the exact sets match.
    None,
    /// A real conflict: the exact sets match (the signature must too, by the
    /// no-false-negative invariant).
    True,
    /// A false positive: the signature matches but the exact sets do not —
    /// pure aliasing.
    FalsePositive,
}

impl ConflictVerdict {
    /// Whether the hardware would signal a conflict (NACK) for this verdict.
    pub fn is_conflict(self) -> bool {
        !matches!(self, ConflictVerdict::None)
    }
}

/// A [`ReadWriteSignature`] shadowed by exact per-set state.
///
/// All mutating operations keep the shadow in lockstep with the signature.
/// The shadow is *accounting only*: conflict decisions made by the simulated
/// hardware use the signature's answer (including its false positives), the
/// shadow merely labels them. It also provides the exact read/write-set
/// sizes for the paper's Table 2.
///
/// ```
/// use ltse_sig::{ShadowedRwSignature, SignatureKind, SigOp, ConflictVerdict};
///
/// let mut rw = ShadowedRwSignature::new(&SignatureKind::BitSelect { bits: 64 });
/// rw.insert(SigOp::Write, 5);
///
/// assert_eq!(rw.classify(SigOp::Read, 5), ConflictVerdict::True);
/// // 5 + 64 aliases in a 64-bit bit-select signature:
/// assert_eq!(rw.classify(SigOp::Read, 5 + 64), ConflictVerdict::FalsePositive);
/// assert_eq!(rw.classify(SigOp::Read, 6), ConflictVerdict::None);
/// ```
#[derive(Debug, Clone)]
pub struct ShadowedRwSignature {
    sig: ReadWriteSignature,
    exact_read: PerfectSignature,
    exact_write: PerfectSignature,
}

impl ShadowedRwSignature {
    /// Creates an empty shadowed pair of the given kind.
    pub fn new(kind: &SignatureKind) -> Self {
        ShadowedRwSignature {
            sig: ReadWriteSignature::new(kind),
            exact_read: PerfectSignature::new(),
            exact_write: PerfectSignature::new(),
        }
    }

    /// Assembles a shadowed pair from pre-built hardware signatures and
    /// exact shadow sets (summary-signature materialization in the OS
    /// model).
    pub fn from_raw(
        sig: ReadWriteSignature,
        exact_read: PerfectSignature,
        exact_write: PerfectSignature,
    ) -> Self {
        ShadowedRwSignature {
            sig,
            exact_read,
            exact_write,
        }
    }

    /// The exact read-set as a sorted block list (OS summary bookkeeping).
    pub fn exact_read_blocks(&self) -> Vec<u64> {
        self.exact_read.iter().collect()
    }

    /// The exact write-set as a sorted block list (OS summary bookkeeping).
    pub fn exact_write_blocks(&self) -> Vec<u64> {
        self.exact_write.iter().collect()
    }

    /// The configured signature kind.
    pub fn kind(&self) -> SignatureKind {
        self.sig.kind()
    }

    /// Records a local access in both the signature and the shadow.
    pub fn insert(&mut self, op: SigOp, a: u64) {
        self.sig.insert(op, a);
        match op {
            SigOp::Read => self.exact_read.insert(a),
            SigOp::Write => self.exact_write.insert(a),
        }
    }

    /// The hardware conflict decision (may be a false positive).
    pub fn conflicts_with(&self, op: SigOp, a: u64) -> bool {
        self.sig.conflicts_with(op, a)
    }

    /// The exact (perfect-signature) conflict decision.
    pub fn conflicts_exactly(&self, op: SigOp, a: u64) -> bool {
        match op {
            SigOp::Read => self.exact_write.maybe_contains(a),
            SigOp::Write => {
                self.exact_read.maybe_contains(a) || self.exact_write.maybe_contains(a)
            }
        }
    }

    /// Classifies an incoming access: none, true conflict, or false
    /// positive.
    pub fn classify(&self, op: SigOp, a: u64) -> ConflictVerdict {
        match (self.conflicts_with(op, a), self.conflicts_exactly(op, a)) {
            (false, false) => ConflictVerdict::None,
            (true, true) => ConflictVerdict::True,
            (true, false) => ConflictVerdict::FalsePositive,
            (false, true) => unreachable!("signature violated the no-false-negative invariant"),
        }
    }

    /// Exact read-set size in blocks (paper Table 2 "Read Avg/Max" input).
    pub fn exact_read_set_size(&self) -> usize {
        self.exact_read.len()
    }

    /// Exact write-set size in blocks (paper Table 2 "Write Avg/Max" input).
    pub fn exact_write_set_size(&self) -> usize {
        self.exact_write.len()
    }

    /// Whether `a` is exactly in the write set (used by the log-write
    /// decision accounting).
    pub fn exactly_in_write_set(&self, a: u64) -> bool {
        self.exact_write.maybe_contains(a)
    }

    /// Whether `a` may be in the write set per the hardware signature.
    pub fn in_write_set(&self, a: u64) -> bool {
        self.sig.in_write_set(a)
    }

    /// Whether `a` may be in either hardware set.
    pub fn in_either_set(&self, a: u64) -> bool {
        self.sig.in_either_set(a)
    }

    /// Clears signature and shadow (commit/abort completion).
    pub fn clear(&mut self) {
        self.sig.clear();
        self.exact_read.clear();
        self.exact_write.clear();
    }

    /// Whether both the signature and the shadow are empty.
    pub fn is_empty(&self) -> bool {
        self.sig.is_empty() && self.exact_read.is_empty() && self.exact_write.is_empty()
    }

    /// Saves the full state (signature pair + exact shadows) for a log frame
    /// or a context switch.
    pub fn save(&self) -> ShadowedSave {
        ShadowedSave {
            sig: self.sig.save(),
            exact_read: self.exact_read.save(),
            exact_write: self.exact_write.save(),
        }
    }

    /// Restores previously saved state.
    pub fn restore(&mut self, saved: &ShadowedSave) {
        self.sig.restore(&saved.sig);
        self.exact_read.restore(&saved.exact_read);
        self.exact_write.restore(&saved.exact_write);
    }

    /// Underlying hardware signature pair.
    pub fn hw(&self) -> &ReadWriteSignature {
        &self.sig
    }

    /// Conservative page-remap of signature and shadows (paper §4.2). The
    /// shadow uses exact membership, so its remap is precise while the
    /// hardware signature's is conservative.
    pub fn rehash_page(&mut self, old_page_base_block: u64, new_page_base_block: u64, blocks: u64) {
        self.sig
            .rehash_page(old_page_base_block, new_page_base_block, blocks);
        self.exact_read
            .rehash_page(old_page_base_block, new_page_base_block, blocks);
        self.exact_write
            .rehash_page(old_page_base_block, new_page_base_block, blocks);
    }
}

/// Saved state of a [`ShadowedRwSignature`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShadowedSave {
    sig: (SavedSignature, SavedSignature),
    exact_read: SavedSignature,
    exact_write: SavedSignature,
}

impl ShadowedSave {
    /// Bytes of log-frame space the *hardware-visible* part occupies (the
    /// signature-save area); shadows are simulation bookkeeping and excluded.
    pub fn hw_size_bytes(&self) -> usize {
        self.sig.0.size_bytes() + self.sig.1.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_kind_has_no_false_positives() {
        let mut rw = ShadowedRwSignature::new(&SignatureKind::Perfect);
        rw.insert(SigOp::Write, 10);
        for a in 0..2000u64 {
            assert_ne!(rw.classify(SigOp::Read, a), ConflictVerdict::FalsePositive);
        }
    }

    #[test]
    fn bs64_aliases_are_labelled() {
        let mut rw = ShadowedRwSignature::new(&SignatureKind::paper_bs_64());
        rw.insert(SigOp::Write, 1);
        assert_eq!(rw.classify(SigOp::Write, 1), ConflictVerdict::True);
        assert_eq!(rw.classify(SigOp::Write, 65), ConflictVerdict::FalsePositive);
        assert_eq!(rw.classify(SigOp::Write, 2), ConflictVerdict::None);
    }

    #[test]
    fn set_sizes_are_exact_despite_aliasing() {
        let mut rw = ShadowedRwSignature::new(&SignatureKind::paper_bs_64());
        for a in 0..100u64 {
            rw.insert(SigOp::Read, a); // heavy aliasing in a 64-bit filter
        }
        rw.insert(SigOp::Read, 5); // duplicate
        assert_eq!(rw.exact_read_set_size(), 100);
        assert_eq!(rw.exact_write_set_size(), 0);
    }

    #[test]
    fn save_restore_roundtrip() {
        let mut rw = ShadowedRwSignature::new(&SignatureKind::paper_dbs_2kb());
        rw.insert(SigOp::Read, 123);
        rw.insert(SigOp::Write, 456);
        let saved = rw.save();
        let mut fresh = ShadowedRwSignature::new(&SignatureKind::paper_dbs_2kb());
        fresh.restore(&saved);
        assert_eq!(fresh.classify(SigOp::Write, 123), ConflictVerdict::True);
        assert_eq!(fresh.exact_write_set_size(), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut rw = ShadowedRwSignature::new(&SignatureKind::paper_bs_2kb());
        rw.insert(SigOp::Write, 1);
        rw.clear();
        assert!(rw.is_empty());
        assert_eq!(rw.classify(SigOp::Read, 1), ConflictVerdict::None);
    }

    #[test]
    fn verdict_is_conflict() {
        assert!(!ConflictVerdict::None.is_conflict());
        assert!(ConflictVerdict::True.is_conflict());
        assert!(ConflictVerdict::FalsePositive.is_conflict());
    }
}
