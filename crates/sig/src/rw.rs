//! The paired read/write signatures a thread context owns, with the paper's
//! conflict semantics.

use crate::{PerfectSignature, SavedSignature, SigRepr, SignatureKind};

/// Whether a memory access (or the coherence request it generates) reads or
/// writes — the `O` in the paper's `INSERT(O, A)` / `CONFLICT(O, A)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SigOp {
    /// A load / GETS.
    Read,
    /// A store / GETM.
    Write,
}

impl std::fmt::Display for SigOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SigOp::Read => "read",
            SigOp::Write => "write",
        })
    }
}

/// A read-signature / write-signature pair — what Figure 1 of the paper adds
/// to each thread context (one "actual signature needs two copies of the
/// illustrated hardware for read- and write-sets", Figure 3 caption).
///
/// Conflict semantics (paper §2, "Eager Conflict Detection"):
///
/// * an incoming **read** (GETS) conflicts if the address may be in the
///   **write**-set;
/// * an incoming **write** (GETM) conflicts if the address may be in the
///   **read- or write**-set.
///
/// ```
/// use ltse_sig::{ReadWriteSignature, SignatureKind, SigOp};
///
/// let mut rw = ReadWriteSignature::new(&SignatureKind::Perfect);
/// rw.insert(SigOp::Read, 1);
/// assert!(rw.conflicts_with(SigOp::Write, 1));
/// assert!(!rw.conflicts_with(SigOp::Read, 1)); // read-read never conflicts
/// ```
///
/// Both halves are [`SigRepr`]s, so the per-access conflict check is a
/// `match` plus word ops.
#[derive(Debug, Clone)]
pub struct ReadWriteSignature {
    read: SigRepr,
    write: SigRepr,
}

impl ReadWriteSignature {
    /// Creates an empty pair of the given kind.
    pub fn new(kind: &SignatureKind) -> Self {
        ReadWriteSignature {
            read: SigRepr::new(kind),
            write: SigRepr::new(kind),
        }
    }

    /// Assembles a pair from pre-built signatures (used by the OS model to
    /// materialize summary signatures from counting structures). `read` and
    /// `write` must be of one kind and geometry.
    pub fn from_parts(read: SigRepr, write: SigRepr) -> Self {
        ReadWriteSignature { read, write }
    }

    /// `INSERT(op, a)`: records a local access.
    #[inline]
    pub fn insert(&mut self, op: SigOp, a: u64) {
        match op {
            SigOp::Read => self.read.insert_block(a),
            SigOp::Write => self.write.insert_block(a),
        }
    }

    /// `CONFLICT(op, a)`: does an incoming access of kind `op` to address `a`
    /// conflict with this context's sets? An incoming write tests both sets
    /// with one decode of `a` ([`Self::in_either_set`]).
    #[inline]
    pub fn conflicts_with(&self, op: SigOp, a: u64) -> bool {
        match op {
            SigOp::Read => self.write.test_block(a),
            SigOp::Write => self.in_either_set(a),
        }
    }

    /// Whether `a` may be in either set (used to decide if an evicted block
    /// is "transactional" and needs a sticky directory state). Matches the
    /// kind once and decodes `a` once for both filters.
    #[inline]
    pub fn in_either_set(&self, a: u64) -> bool {
        self.read.test_either(&self.write, a)
    }

    /// The read and write sets of a perfect pair, which are exact; `None`
    /// for a hashed kind.
    pub(crate) fn perfect_sets(&self) -> Option<(&PerfectSignature, &PerfectSignature)> {
        match (&self.read, &self.write) {
            (SigRepr::Perfect(read), SigRepr::Perfect(write)) => Some((read, write)),
            _ => None,
        }
    }

    /// `CLEAR` on both sets — the core of LogTM-SE's local commit.
    pub fn clear(&mut self) {
        self.read.clear_all();
        self.write.clear_all();
    }

    /// Whether both sets are empty (no transaction footprint).
    pub fn is_empty(&self) -> bool {
        self.read.is_clear() && self.write.is_clear()
    }

    /// Saves both signatures — the log-frame header signature-save area.
    pub fn save(&self) -> (SavedSignature, SavedSignature) {
        (self.read.save_state(), self.write.save_state())
    }

    /// Restores a previously saved pair.
    ///
    /// # Panics
    ///
    /// Panics if the saved shapes don't match the configured kind.
    pub fn restore(&mut self, saved: &(SavedSignature, SavedSignature)) {
        self.read.restore_saved(&saved.0);
        self.write.restore_saved(&saved.1);
    }

    /// Conservative page-remap of both sets (paper §4.2).
    pub fn rehash_page(&mut self, old_page_base_block: u64, new_page_base_block: u64, blocks: u64) {
        self.read
            .rehash_page(old_page_base_block, new_page_base_block, blocks);
        self.write
            .rehash_page(old_page_base_block, new_page_base_block, blocks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_read_never_conflicts_exactly() {
        // With a perfect signature, read-read sharing must not conflict.
        let mut rw = ReadWriteSignature::new(&SignatureKind::Perfect);
        rw.insert(SigOp::Read, 42);
        assert!(!rw.conflicts_with(SigOp::Read, 42));
    }

    #[test]
    fn write_conflicts_with_everything() {
        for kind in SignatureKind::figure4_set() {
            let mut rw = ReadWriteSignature::new(&kind);
            rw.insert(SigOp::Write, 7);
            assert!(rw.conflicts_with(SigOp::Read, 7), "{kind}");
            assert!(rw.conflicts_with(SigOp::Write, 7), "{kind}");
        }
    }

    #[test]
    fn incoming_write_conflicts_with_read_set() {
        for kind in SignatureKind::figure4_set() {
            let mut rw = ReadWriteSignature::new(&kind);
            rw.insert(SigOp::Read, 9);
            assert!(rw.conflicts_with(SigOp::Write, 9), "{kind}");
        }
    }

    #[test]
    fn commit_clear_releases_isolation() {
        for kind in SignatureKind::figure4_set() {
            let mut rw = ReadWriteSignature::new(&kind);
            rw.insert(SigOp::Write, 3);
            rw.clear();
            assert!(rw.is_empty(), "{kind}");
            assert!(!rw.conflicts_with(SigOp::Read, 3), "{kind}");
        }
    }

    #[test]
    fn save_restore_roundtrip() {
        for kind in SignatureKind::figure4_set() {
            let mut rw = ReadWriteSignature::new(&kind);
            rw.insert(SigOp::Read, 11);
            rw.insert(SigOp::Write, 22);
            let saved = rw.save();
            let mut fresh = ReadWriteSignature::new(&kind);
            fresh.restore(&saved);
            assert!(fresh.conflicts_with(SigOp::Write, 11), "{kind}");
            assert!(fresh.conflicts_with(SigOp::Read, 22), "{kind}");
        }
    }

    #[test]
    fn in_either_set_tracks_both() {
        let mut rw = ReadWriteSignature::new(&SignatureKind::Perfect);
        rw.insert(SigOp::Read, 1);
        rw.insert(SigOp::Write, 2);
        assert!(rw.in_either_set(1));
        assert!(rw.in_either_set(2));
        assert!(!rw.in_either_set(3));
    }
}
