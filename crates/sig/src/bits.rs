//! Word-packed signature bit storage.
//!
//! [`SigBits`] is the filter backing shared by the hashed signature kinds
//! (BS/CBS/DBS) of the enum-dispatched [`crate::SigRepr`] used on the
//! per-access conflict-check hot path. All operations are plain word ops —
//! no hashing, no allocation — so a membership test compiles down to a
//! shift, a mask, and one load.

/// A fixed-size bit array packed into `u64` words.
///
/// ```
/// use ltse_sig::SigBits;
///
/// let mut b = SigBits::new(128);
/// b.insert(7);
/// assert!(b.test(7));
/// assert!(!b.test(8));
/// assert!(!b.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SigBits {
    words: Vec<u64>,
    bits: usize,
}

impl SigBits {
    /// Creates an all-zero array of `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`.
    pub fn new(bits: usize) -> Self {
        assert!(bits > 0, "signature must have at least one bit");
        SigBits {
            words: vec![0; bits.div_ceil(64)],
            bits,
        }
    }

    /// Sets bit `idx`.
    #[inline]
    pub fn insert(&mut self, idx: usize) {
        debug_assert!(idx < self.bits);
        self.words[idx / 64] |= 1u64 << (idx % 64);
    }

    /// Tests bit `idx`.
    #[inline]
    pub fn test(&self, idx: usize) -> bool {
        debug_assert!(idx < self.bits);
        self.words[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Zeroes every bit.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Total number of bits.
    pub fn len(&self) -> usize {
        self.bits
    }

    /// Whether no bit is set: a scan of the words.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The raw packed words (software-visible signature state).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Replaces the contents with previously captured words.
    ///
    /// # Panics
    ///
    /// Panics if `words` has the wrong length for this array.
    pub fn load_words(&mut self, words: &[u64]) {
        assert_eq!(
            self.words.len(),
            words.len(),
            "saved signature has wrong word count"
        );
        self.words.copy_from_slice(words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_test_clear() {
        let mut b = SigBits::new(100);
        assert!(b.is_empty());
        b.insert(0);
        b.insert(99);
        b.insert(99); // idempotent
        assert!(b.test(0));
        assert!(b.test(99));
        assert!(!b.test(50));
        assert_eq!(b.words(), &[1, 1 << 35]);
        b.clear();
        assert!(b.is_empty());
        assert!(!b.test(0));
    }

    #[test]
    fn word_roundtrip() {
        let mut a = SigBits::new(128);
        a.insert(7);
        a.insert(127);
        let words = a.words().to_vec();
        let mut b = SigBits::new(128);
        b.load_words(&words);
        assert_eq!(a, b);
        assert!(b.test(7) && b.test(127));
    }

    #[test]
    fn is_empty_follows_load_words() {
        let mut b = SigBits::new(128);
        b.load_words(&[0, 1 << 63]);
        assert!(!b.is_empty(), "a bit in the last word");
        b.load_words(&[4, 0]);
        assert!(!b.is_empty(), "a bit in the first word");
        b.load_words(&[0, 0]);
        assert!(b.is_empty(), "all-zero words");
    }
}
