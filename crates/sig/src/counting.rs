//! The OS-side counting signature used to maintain per-process summary
//! signatures efficiently.
//!
//! Paper §4.1, footnote 1: "To efficiently compute summary signatures, the
//! OS could maintain a counting signature data structure to track the number
//! of suspended threads setting each summary signature bit, similar to VTM's
//! XF data structure."

use crate::{SavedSignature, SigRepr, SignatureKind};

/// A per-bit reference-counted signature.
///
/// When the OS descheduls a thread it *adds* the thread's saved signature
/// (incrementing the count of every set bit); when the thread's transaction
/// commits it *removes* it (decrementing). The summary signature to install
/// on active contexts is the set of bits with nonzero count — so removing one
/// thread never clobbers bits still owed to another.
///
/// This is software state (it lives in OS memory), so counts are plain
/// `u32`s with no hardware-width pretension.
///
/// ```
/// use ltse_sig::{CountingSignature, SigRepr, SignatureKind};
///
/// let kind = SignatureKind::BitSelect { bits: 64 };
/// let mut counting = CountingSignature::new(64);
///
/// let mut t1 = SigRepr::new(&kind);
/// t1.insert_block(5);
/// let mut t2 = SigRepr::new(&kind);
/// t2.insert_block(5);
///
/// counting.add(&t1.save_state());
/// counting.add(&t2.save_state());
/// counting.remove(&t1.save_state());
///
/// // Bit 5 still owed to t2:
/// let summary = counting.materialize(&kind);
/// assert!(summary.test_block(5));
///
/// counting.remove(&t2.save_state());
/// assert!(counting.materialize(&kind).is_clear());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountingSignature {
    counts: Vec<u32>,
}

impl CountingSignature {
    /// Creates a counting signature covering `bits` filter bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`.
    pub fn new(bits: usize) -> Self {
        assert!(bits > 0, "counting signature needs at least one bit");
        CountingSignature {
            counts: vec![0; bits],
        }
    }

    /// Adds a saved (hashed) signature: increments every set bit's count.
    ///
    /// # Panics
    ///
    /// Panics if the saved signature is a perfect (exact) save or has the
    /// wrong width.
    pub fn add(&mut self, saved: &SavedSignature) {
        self.for_each_set_bit(saved, |counts, bit| {
            counts[bit] = counts[bit]
                .checked_add(1)
                .expect("counting signature overflow");
        });
    }

    /// Removes a previously added saved signature: decrements every set
    /// bit's count.
    ///
    /// # Panics
    ///
    /// Panics if a bit would go negative (remove without matching add) or on
    /// shape mismatch.
    pub fn remove(&mut self, saved: &SavedSignature) {
        self.for_each_set_bit(saved, |counts, bit| {
            assert!(
                counts[bit] > 0,
                "counting signature underflow at bit {bit}: remove without add"
            );
            counts[bit] -= 1;
        });
    }

    fn for_each_set_bit(&mut self, saved: &SavedSignature, mut f: impl FnMut(&mut [u32], usize)) {
        let words = match saved {
            SavedSignature::Bits(w) => w,
            SavedSignature::Exact(_) => {
                panic!("counting signatures require hashed (bit) signatures")
            }
        };
        assert_eq!(
            words.len(),
            self.counts.len().div_ceil(64),
            "saved signature width mismatch"
        );
        for (wi, &word) in words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let b = w.trailing_zeros() as usize;
                f(&mut self.counts, wi * 64 + b);
                w &= w - 1;
            }
        }
    }

    /// Builds the summary signature to install on hardware contexts: a fresh
    /// signature of `kind` whose filter bits are exactly the nonzero-count
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`SignatureKind::Perfect`] or its bit width
    /// differs from this counting signature's.
    pub fn materialize(&self, kind: &SignatureKind) -> SigRepr {
        let mut sig = SigRepr::new(kind);
        let want_words = self.counts.len().div_ceil(64);
        let mut words = vec![0u64; want_words];
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        sig.restore_saved(&SavedSignature::Bits(words));
        sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn saved_with_bits(kind: &SignatureKind, addrs: &[u64]) -> SavedSignature {
        let mut s = SigRepr::new(kind);
        for &a in addrs {
            s.insert_block(a);
        }
        s.save_state()
    }

    #[test]
    fn add_remove_is_refcounted() {
        let kind = SignatureKind::BitSelect { bits: 128 };
        let mut c = CountingSignature::new(128);
        let s1 = saved_with_bits(&kind, &[3]);
        let s2 = saved_with_bits(&kind, &[3, 70]);
        c.add(&s1);
        c.add(&s2);
        c.remove(&s1);
        let m = c.materialize(&kind);
        assert!(m.test_block(3), "bit 3 still owed to s2");
        assert!(m.test_block(70));
        c.remove(&s2);
        assert!(c.materialize(&kind).is_clear());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn remove_without_add_panics() {
        let kind = SignatureKind::BitSelect { bits: 64 };
        let mut c = CountingSignature::new(64);
        c.remove(&saved_with_bits(&kind, &[1]));
    }

    #[test]
    #[should_panic(expected = "hashed")]
    fn perfect_saves_rejected() {
        let mut c = CountingSignature::new(64);
        c.add(&SavedSignature::Exact(vec![1]));
    }

    #[test]
    fn materialize_empty_is_empty() {
        let kind = SignatureKind::BitSelect { bits: 64 };
        let c = CountingSignature::new(64);
        assert!(c.materialize(&kind).is_clear());
    }

    #[test]
    fn works_with_dbs_shape() {
        let kind = SignatureKind::DoubleBitSelect { bits: 256 };
        let mut c = CountingSignature::new(256);
        let s = saved_with_bits(&kind, &[0xabcd]);
        c.add(&s);
        let m = c.materialize(&kind);
        assert!(m.test_block(0xabcd));
        c.remove(&s);
        assert!(c.materialize(&kind).is_clear());
    }
}
