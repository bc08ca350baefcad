//! False-positive accounting: any signature paired with exact shadow sets.
//!
//! The paper's Table 3 reports, per signature configuration, the fraction of
//! conflicts that are *false positives* — conflicts the hashed signature
//! reports but a perfect signature would not. [`ShadowedRwSignature`] keeps
//! exact read/write shadow sets alongside a hashed signature so every
//! conflict check can be classified. A perfect signature is exact already,
//! so it is its own shadow.

use crate::{PerfectSignature, ReadWriteSignature, SavedSignature, SigOp, SigRepr, SignatureKind};

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

/// A [`ReadWriteSignature`] shadowed by exact per-set state.
///
/// All mutating operations keep the shadow in lockstep with the signature.
/// The shadow is *accounting only*: conflict decisions made by the simulated
/// hardware use the signature's answer (including its false positives), the
/// shadow merely labels them. It also provides the exact read/write-set
/// sizes for the paper's Table 2. A perfect signature keeps no separate
/// shadow: its hardware sets are the exact sets.
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
    /// Perfect read and write sets shadowing a hashed kind; `None` for a
    /// perfect signature, whose hardware sets already are exact.
    shadow: Option<ReadWriteSignature>,
}

impl ShadowedRwSignature {
    /// Creates an empty shadowed pair of the given kind.
    pub fn new(kind: &SignatureKind) -> Self {
        ShadowedRwSignature {
            sig: ReadWriteSignature::new(kind),
            shadow: (*kind != SignatureKind::Perfect)
                .then(|| ReadWriteSignature::new(&SignatureKind::Perfect)),
        }
    }

    /// Assembles a shadowed pair from pre-built hashed hardware signatures
    /// and their exact shadow sets (summary-signature materialization in
    /// the OS model).
    pub fn from_raw(
        sig: ReadWriteSignature,
        exact_read: PerfectSignature,
        exact_write: PerfectSignature,
    ) -> Self {
        ShadowedRwSignature {
            sig,
            shadow: Some(ReadWriteSignature::from_parts(
                SigRepr::Perfect(exact_read),
                SigRepr::Perfect(exact_write),
            )),
        }
    }

    /// A perfect pair whose hardware sets are `read` and `write` (the OS
    /// model's summary of perfect signatures).
    pub fn from_exact(read: PerfectSignature, write: PerfectSignature) -> Self {
        ShadowedRwSignature {
            sig: ReadWriteSignature::from_parts(SigRepr::Perfect(read), SigRepr::Perfect(write)),
            shadow: None,
        }
    }

    /// The exact pair: the shadow, or a perfect signature itself.
    #[inline]
    fn exact_pair(&self) -> &ReadWriteSignature {
        self.shadow.as_ref().unwrap_or(&self.sig)
    }

    /// The exact read and write sets.
    fn exact(&self) -> (&PerfectSignature, &PerfectSignature) {
        self.exact_pair()
            .perfect_sets()
            .expect("the exact sets are perfect")
    }

    /// The exact read-set as a sorted block list (OS summary bookkeeping).
    pub fn exact_read_blocks(&self) -> Vec<u64> {
        self.exact().0.iter().collect()
    }

    /// The exact write-set as a sorted block list (OS summary bookkeeping).
    pub fn exact_write_blocks(&self) -> Vec<u64> {
        self.exact().1.iter().collect()
    }

    /// Records a local access in both the signature and the shadow.
    #[inline]
    pub fn insert(&mut self, op: SigOp, a: u64) {
        self.sig.insert(op, a);
        if let Some(shadow) = &mut self.shadow {
            shadow.insert(op, a);
        }
    }

    /// The hardware conflict decision (may be a false positive).
    #[inline]
    pub fn conflicts_with(&self, op: SigOp, a: u64) -> bool {
        self.sig.conflicts_with(op, a)
    }

    /// The exact (perfect-signature) conflict decision.
    #[inline]
    pub fn conflicts_exactly(&self, op: SigOp, a: u64) -> bool {
        self.exact_pair().conflicts_with(op, a)
    }

    /// Classifies an incoming access: none, true conflict, or false
    /// positive. A perfect signature's answer is its own exact one.
    #[inline]
    pub fn classify(&self, op: SigOp, a: u64) -> ConflictVerdict {
        let hw = self.sig.conflicts_with(op, a);
        let exact = match &self.shadow {
            Some(shadow) => shadow.conflicts_with(op, a),
            None => hw,
        };
        match (hw, exact) {
            (false, false) => ConflictVerdict::None,
            (true, true) => ConflictVerdict::True,
            (true, false) => ConflictVerdict::FalsePositive,
            (false, true) => unreachable!("signature violated the no-false-negative invariant"),
        }
    }

    /// Exact read-set size in blocks (paper Table 2 "Read Avg/Max" input).
    pub fn exact_read_set_size(&self) -> usize {
        self.exact().0.len()
    }

    /// Exact write-set size in blocks (paper Table 2 "Write Avg/Max" input).
    pub fn exact_write_set_size(&self) -> usize {
        self.exact().1.len()
    }

    /// Whether `a` may be in either hardware set.
    #[inline]
    pub fn in_either_set(&self, a: u64) -> bool {
        self.sig.in_either_set(a)
    }

    /// Clears signature and shadow (commit/abort completion).
    pub fn clear(&mut self) {
        self.sig.clear();
        if let Some(shadow) = &mut self.shadow {
            shadow.clear();
        }
    }

    /// Whether both the signature and the shadow are empty.
    pub fn is_empty(&self) -> bool {
        self.sig.is_empty()
            && self
                .shadow
                .as_ref()
                .is_none_or(ReadWriteSignature::is_empty)
    }

    /// Saves the full state (signature pair + exact shadows) for a log frame
    /// or a context switch.
    pub fn save(&self) -> ShadowedSave {
        ShadowedSave {
            sig: self.sig.save(),
            shadow: self.shadow.as_ref().map(ReadWriteSignature::save),
        }
    }

    /// Restores previously saved state.
    ///
    /// # Panics
    ///
    /// Panics if `saved` was taken from a signature of another kind.
    pub fn restore(&mut self, saved: &ShadowedSave) {
        self.sig.restore(&saved.sig);
        match (&mut self.shadow, &saved.shadow) {
            (Some(shadow), Some(saved)) => shadow.restore(saved),
            (None, None) => {}
            _ => panic!("saved state shape mismatch"),
        }
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
        if let Some(shadow) = &mut self.shadow {
            shadow.rehash_page(old_page_base_block, new_page_base_block, blocks);
        }
    }
}

/// Saved state of a [`ShadowedRwSignature`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShadowedSave {
    sig: (SavedSignature, SavedSignature),
    /// The saved exact shadow of a hashed kind; `None` for a perfect one.
    shadow: Option<(SavedSignature, SavedSignature)>,
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
        assert_eq!(
            rw.classify(SigOp::Write, 65),
            ConflictVerdict::FalsePositive
        );
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
}
