//! The idealized perfect signature (the paper's "P" configuration).
//!
//! The exact set is one sorted, deduplicated `Vec<u64>`: membership is a
//! binary search, an insert shifts the tail, and `clear` keeps the buffer,
//! so a thread that reuses its signature across transactions stops
//! allocating once the buffer has reached its working size. Ascending order
//! is also the order `iter` and `save` report, which keeps whole-run
//! determinism (and the saved bytes) independent of insertion order.
//!
//! A fixed 256-bit membership filter sits in front of the search: one bit
//! per hashed member, so most misses (the common answer to an eviction's
//! "is this block transactional?") cost one word test instead of a binary
//! search. The filter is a pure function of the set, so exactness, `==` and
//! the saved bytes do not change with it.

use crate::SavedSignature;

/// An exact read- or write-set: no false positives, unbounded size.
///
/// The paper uses perfect signatures as an unimplementable upper bound
/// ("idealized signatures that record exact read- and write-sets, regardless
/// of their size", §6.3 Result 1). It backs [`crate::SigRepr::Perfect`] and
/// the exact shadow sets of [`crate::ShadowedRwSignature`].
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
    /// Strictly ascending: sorted with no duplicates.
    set: Vec<u64>,
    /// Bit `filter_bit(a)` is set for every member `a`, and no other bit
    /// is: a clear bit proves absence.
    filter: [u64; 4],
}

/// The membership-filter word and bit of `a`: the top 8 bits of a
/// Fibonacci hash, so runs of consecutive block addresses spread over all
/// 256 bits.
#[inline]
fn filter_bit(a: u64) -> (usize, u64) {
    let h = a.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56;
    ((h >> 6) as usize, 1u64 << (h & 63))
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
        if let Err(at) = self.set.binary_search(&a) {
            self.set.insert(at, a);
            let (w, bit) = filter_bit(a);
            self.filter[w] |= bit;
        }
    }

    /// `CONFLICT(A)`: whether `a` is in the set, exactly.
    #[inline]
    pub fn maybe_contains(&self, a: u64) -> bool {
        let (w, bit) = filter_bit(a);
        self.filter[w] & bit != 0 && self.set.binary_search(&a).is_ok()
    }

    /// `CLEAR`: empties the set, keeping its buffer.
    pub fn clear(&mut self) {
        self.set.clear();
        self.filter = [0; 4];
    }

    /// Captures the exact element list, ascending, as software-visible data.
    pub fn save(&self) -> SavedSignature {
        SavedSignature::Exact(self.set.clone())
    }

    /// Restores a saved element list, replacing the contents. The list may
    /// come in any order and hold duplicates ([`SavedSignature::Exact`] is
    /// plain data anyone can build); the set is sorted and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if `saved` holds filter bits rather than an element list.
    pub fn restore(&mut self, saved: &SavedSignature) {
        match saved {
            SavedSignature::Exact(es) => {
                self.set.clear();
                self.set.extend_from_slice(es);
                self.set.sort_unstable();
                self.set.dedup();
                self.filter = [0; 4];
                for &a in &self.set {
                    let (w, bit) = filter_bit(a);
                    self.filter[w] |= bit;
                }
            }
            SavedSignature::Bits(_) => panic!("saved state shape mismatch"),
        }
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
    fn clear_empties() {
        let mut s = PerfectSignature::new();
        s.insert(9);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.maybe_contains(9));
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
