//! The idealized perfect signature (the paper's "P" configuration).

use std::collections::BTreeSet;

use crate::SavedSignature;

/// An exact read- or write-set: no false positives, unbounded size.
///
/// The paper uses perfect signatures as an unimplementable upper bound
/// ("idealized signatures that record exact read- and write-sets, regardless
/// of their size", §6.3 Result 1). It backs [`crate::SigRepr::Perfect`] and
/// the exact shadow sets of [`crate::ShadowedRwSignature`].
///
/// A `BTreeSet` keeps iteration deterministic, which keeps whole-run
/// determinism intact.
///
/// ```
/// use ltse_sig::PerfectSignature;
///
/// let mut s = PerfectSignature::new();
/// s.insert(10);
/// assert!(s.maybe_contains(10));
/// assert!(!s.maybe_contains(11)); // never a false positive
/// assert_eq!(s.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PerfectSignature {
    set: BTreeSet<u64>,
}

impl PerfectSignature {
    /// Creates an empty perfect signature.
    pub fn new() -> Self {
        PerfectSignature::default()
    }

    /// Number of distinct addresses recorded (the exact set size reported in
    /// the paper's Table 2 read/write-set statistics).
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether no addresses are recorded.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Iterates the exact address set in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.set.iter().copied()
    }

    /// `INSERT(A)`: adds block address `a`.
    pub fn insert(&mut self, a: u64) {
        self.set.insert(a);
    }

    /// `CONFLICT(A)`: whether `a` is in the set, exactly.
    pub fn maybe_contains(&self, a: u64) -> bool {
        self.set.contains(&a)
    }

    /// `CLEAR`: empties the set.
    pub fn clear(&mut self) {
        self.set.clear();
    }

    /// Set union with `other`.
    pub fn union_with(&mut self, other: &PerfectSignature) {
        self.set.extend(other.iter());
    }

    /// Captures the exact element list as software-visible data.
    pub fn save(&self) -> SavedSignature {
        SavedSignature::Exact(self.iter().collect())
    }

    /// Restores a previously saved element list, replacing the contents.
    ///
    /// # Panics
    ///
    /// Panics if `saved` holds filter bits rather than an element list.
    pub fn restore(&mut self, saved: &SavedSignature) {
        match saved {
            SavedSignature::Exact(es) => {
                self.set = es.iter().copied().collect();
            }
            SavedSignature::Bits(_) => panic!("saved state shape mismatch"),
        }
    }

    /// A perfect signature never saturates; this is a proxy that grows with
    /// set size so dashboards can still plot it.
    pub fn saturation(&self) -> f64 {
        1.0 - 1.0 / (1.0 + self.set.len() as f64)
    }

    /// Exact page remap (paper §4.2): for every block of the old page in
    /// the set, inserts the matching block of the new page, keeping the old
    /// one.
    pub fn rehash_page(&mut self, old_page_base_block: u64, new_page_base_block: u64, blocks: u64) {
        for i in 0..blocks {
            if self.maybe_contains(old_page_base_block + i) {
                self.insert(new_page_base_block + i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactness() {
        let mut s = PerfectSignature::new();
        for a in (0..1000u64).step_by(3) {
            s.insert(a);
        }
        for a in 0..1000u64 {
            assert_eq!(s.maybe_contains(a), a % 3 == 0);
        }
    }

    #[test]
    fn no_aliasing_ever() {
        let mut s = PerfectSignature::new();
        s.insert(5);
        assert!(!s.maybe_contains(5 + 64));
        assert!(!s.maybe_contains(5 + (1 << 40)));
    }

    #[test]
    fn save_restore_roundtrip() {
        let mut s = PerfectSignature::new();
        s.insert(1);
        s.insert(1 << 50);
        let saved = s.save();
        let mut t = PerfectSignature::new();
        t.restore(&saved);
        assert_eq!(s, t);
    }

    #[test]
    fn union_is_set_union() {
        let mut a = PerfectSignature::new();
        let mut b = PerfectSignature::new();
        a.insert(1);
        b.insert(2);
        b.insert(1);
        a.union_with(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn clear_empties() {
        let mut s = PerfectSignature::new();
        s.insert(9);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.maybe_contains(9));
    }

    #[test]
    fn saturation_grows_but_below_one() {
        let mut s = PerfectSignature::new();
        let s0 = s.saturation();
        s.insert(1);
        let s1 = s.saturation();
        s.insert(2);
        let s2 = s.saturation();
        assert!(s0 < s1 && s1 < s2 && s2 < 1.0);
    }

    #[test]
    fn rehash_page_exact() {
        let mut s = PerfectSignature::new();
        s.insert(100);
        s.rehash_page(64, 1024, 64);
        assert!(s.maybe_contains(100));
        assert!(s.maybe_contains(1024 + 36));
        assert_eq!(s.len(), 2);
    }
}
