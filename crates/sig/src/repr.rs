//! [`SigRepr`]: the one signature representation, an enum over every kind.
//!
//! Every simulated memory reference performs at least one `CONFLICT(O, A)`
//! lookup, and summary-equipped contexts perform several. `SigRepr` holds
//! the paper's Figure 3 signatures as one enum whose `insert`/`test` are
//! branch-predictable word operations on a [`SigBits`] array, so the
//! compiler inlines the whole membership test.
//!
//! The same type serves every role a signature plays: a context's read or
//! write set (inside [`crate::ReadWriteSignature`]), the per-process summary
//! signature the OS rebuilds from a [`crate::CountingSignature`] (§4.1), and
//! the source of the [`SavedSignature`] parked in a log frame.

use crate::bits::SigBits;
use crate::{PerfectSignature, SavedSignature, SignatureKind};

/// A read- or write-set signature of any configured kind, dispatched by
/// `match`. [`SigRepr::new`] builds one from a [`SignatureKind`].
///
/// Every kind upholds the paper's **no-false-negative invariant**: after
/// `insert_block(a)`, `test_block(a)` is `true` until the next `clear_all`.
/// False positives (aliasing) are allowed, and are what Table 3 measures.
#[derive(Debug, Clone)]
pub enum SigRepr {
    /// Exact sets: the paper's idealized "P" configuration, "idealized
    /// signatures that record exact read- and write-sets, regardless of
    /// their size" (§6.3). Never a false positive; no hardware budget
    /// corresponds to it, so it reports 0 storage bits.
    Perfect(PerfectSignature),
    /// Bit-select ("BS", Figure 3a): decodes the `log2(bits)`
    /// least-significant bits of the block address and sets that one bit.
    /// The paper's simplest implementable signature, evaluated at 2 Kb and
    /// 64 b in Figure 4.
    ///
    /// ```
    /// use ltse_sig::{SigRepr, SignatureKind};
    ///
    /// let mut s = SigRepr::new(&SignatureKind::BitSelect { bits: 64 });
    /// s.insert_block(3);
    /// assert!(s.test_block(3));
    /// assert!(s.test_block(3 + 64)); // aliases: a false positive, by design
    /// assert!(!s.test_block(4));
    /// ```
    BitSelect {
        /// Packed filter bits.
        bits: SigBits,
        /// `bits.len() - 1`, for the index mask.
        mask: u64,
    },
    /// Coarse-bit-select ("CBS", Figure 3c): bit-select at macroblock
    /// granularity. The paper decodes the 11 least-significant bits of a
    /// 1 KB macroblock (16 contiguous 64-byte blocks), trading precision
    /// for reach on large transactions.
    ///
    /// ```
    /// use ltse_sig::{SigRepr, SignatureKind};
    ///
    /// // 1 KB macroblocks = 16 blocks of 64 bytes.
    /// let mut s = SigRepr::new(&SignatureKind::paper_cbs_2kb());
    /// s.insert_block(0);
    /// // Every block of the same macroblock now matches:
    /// assert!(s.test_block(15));
    /// assert!(!s.test_block(16));
    /// ```
    CoarseBitSelect {
        /// Packed filter bits.
        bits: SigBits,
        /// `bits.len() - 1`, for the index mask.
        mask: u64,
        /// `log2(blocks per macroblock)`.
        shift: u32,
    },
    /// Double-bit-select ("DBS", Figure 3b): the filter is split into two
    /// halves, and two address fields select one bit each, one per half. A
    /// lookup hits only when **both** bits are set. The paper's 2 Kb DBS
    /// decodes two 10-bit fields.
    ///
    /// ```
    /// use ltse_sig::{SigRepr, SignatureKind};
    ///
    /// let mut s = SigRepr::new(&SignatureKind::paper_dbs_2kb());
    /// s.insert_block(0x12345);
    /// assert!(s.test_block(0x12345));
    /// assert!(!s.test_block(0x12346));
    /// ```
    DoubleBitSelect {
        /// Packed filter bits (both halves).
        bits: SigBits,
        /// Bits per half (`bits.len() / 2`).
        half: usize,
        /// `log2(half)`: width of each decoded field.
        field_bits: u32,
    },
}

/// DBS field decode: the low `field_bits` bits of `a` pick a bit in the
/// first half, the next `field_bits` bits a bit in the second half.
#[inline]
fn dbs_indices(a: u64, half: usize, field_bits: u32) -> (usize, usize) {
    let mask = half as u64 - 1;
    let lo = (a & mask) as usize;
    let hi = ((a >> field_bits) & mask) as usize;
    (lo, half + hi)
}

impl SigRepr {
    /// Creates an empty signature of the given kind.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometries: sizes (or macroblock sizes) that are
    /// not powers of two, or a DBS smaller than 4 bits.
    pub fn new(kind: &SignatureKind) -> Self {
        fn checked_bits(bits: usize) -> SigBits {
            assert!(
                bits.is_power_of_two(),
                "signature size must be a power of two, got {bits}"
            );
            SigBits::new(bits)
        }
        match *kind {
            SignatureKind::Perfect => SigRepr::Perfect(PerfectSignature::new()),
            SignatureKind::BitSelect { bits } => SigRepr::BitSelect {
                bits: checked_bits(bits),
                mask: bits as u64 - 1,
            },
            SignatureKind::CoarseBitSelect {
                bits,
                blocks_per_macroblock,
            } => {
                assert!(
                    blocks_per_macroblock.is_power_of_two(),
                    "macroblock size must be a power of two"
                );
                SigRepr::CoarseBitSelect {
                    bits: checked_bits(bits),
                    mask: bits as u64 - 1,
                    shift: blocks_per_macroblock.trailing_zeros(),
                }
            }
            SignatureKind::DoubleBitSelect { bits } => {
                assert!(bits >= 4, "DBS needs at least 4 bits");
                SigRepr::DoubleBitSelect {
                    bits: checked_bits(bits),
                    half: bits / 2,
                    field_bits: (bits / 2).trailing_zeros(),
                }
            }
        }
    }

    /// `INSERT(A)`: adds block address `a`.
    #[inline]
    pub fn insert_block(&mut self, a: u64) {
        match self {
            SigRepr::Perfect(p) => p.insert(a),
            SigRepr::BitSelect { bits, mask } => bits.insert((a & *mask) as usize),
            SigRepr::CoarseBitSelect { bits, mask, shift } => {
                bits.insert(((a >> *shift) & *mask) as usize)
            }
            SigRepr::DoubleBitSelect {
                bits,
                half,
                field_bits,
            } => {
                let (lo, hi) = dbs_indices(a, *half, *field_bits);
                bits.insert(lo);
                bits.insert(hi);
            }
        }
    }

    /// `CONFLICT(A)`: whether `a` may be in the set. The hot-path lookup —
    /// a handful of word ops per variant, fully inlinable.
    #[inline]
    pub fn test_block(&self, a: u64) -> bool {
        match self {
            SigRepr::Perfect(p) => p.maybe_contains(a),
            SigRepr::BitSelect { bits, mask } => bits.test((a & *mask) as usize),
            SigRepr::CoarseBitSelect { bits, mask, shift } => {
                bits.test(((a >> *shift) & *mask) as usize)
            }
            SigRepr::DoubleBitSelect {
                bits,
                half,
                field_bits,
            } => {
                let (lo, hi) = dbs_indices(a, *half, *field_bits);
                bits.test(lo) && bits.test(hi)
            }
        }
    }

    /// `CONFLICT(A)` against this set or `other`, a set of the same kind
    /// and geometry (a context's read and write sets): the kind is matched
    /// and `a` decoded once for both filters. Answers equal
    /// `self.test_block(a) || other.test_block(a)`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is of another kind.
    #[inline]
    pub(crate) fn test_either(&self, other: &SigRepr, a: u64) -> bool {
        match (self, other) {
            (SigRepr::Perfect(s), SigRepr::Perfect(o)) => {
                s.maybe_contains(a) || o.maybe_contains(a)
            }
            (SigRepr::BitSelect { bits: s, mask }, SigRepr::BitSelect { bits: o, .. }) => {
                let i = (a & *mask) as usize;
                s.test(i) | o.test(i)
            }
            (
                SigRepr::CoarseBitSelect {
                    bits: s,
                    mask,
                    shift,
                },
                SigRepr::CoarseBitSelect { bits: o, .. },
            ) => {
                let i = ((a >> *shift) & *mask) as usize;
                s.test(i) | o.test(i)
            }
            (
                SigRepr::DoubleBitSelect {
                    bits: s,
                    half,
                    field_bits,
                },
                SigRepr::DoubleBitSelect { bits: o, .. },
            ) => {
                let (lo, hi) = dbs_indices(a, *half, *field_bits);
                (s.test(lo) & s.test(hi)) | (o.test(lo) & o.test(hi))
            }
            _ => panic!("read and write signatures of different kinds"),
        }
    }

    /// `CLEAR`: empties the set.
    pub fn clear_all(&mut self) {
        match self {
            SigRepr::Perfect(p) => p.clear(),
            SigRepr::BitSelect { bits, .. }
            | SigRepr::CoarseBitSelect { bits, .. }
            | SigRepr::DoubleBitSelect { bits, .. } => bits.clear(),
        }
    }

    /// Whether the set is empty.
    pub fn is_clear(&self) -> bool {
        match self {
            SigRepr::Perfect(p) => p.is_empty(),
            SigRepr::BitSelect { bits, .. }
            | SigRepr::CoarseBitSelect { bits, .. }
            | SigRepr::DoubleBitSelect { bits, .. } => bits.is_empty(),
        }
    }

    /// Captures the complete state as software-visible data — what the OS
    /// saves when descheduling a thread, or a nested transaction saves in
    /// its log frame header. Hashed kinds save their raw filter words.
    pub fn save_state(&self) -> SavedSignature {
        match self {
            SigRepr::Perfect(p) => p.save(),
            SigRepr::BitSelect { bits, .. }
            | SigRepr::CoarseBitSelect { bits, .. }
            | SigRepr::DoubleBitSelect { bits, .. } => SavedSignature::Bits(bits.words().to_vec()),
        }
    }

    /// Restores previously saved state, replacing the current contents.
    ///
    /// # Panics
    ///
    /// Panics if the saved shape does not match this signature.
    pub fn restore_saved(&mut self, saved: &SavedSignature) {
        match (&mut *self, saved) {
            (SigRepr::Perfect(p), _) => p.restore(saved),
            (
                SigRepr::BitSelect { bits, .. }
                | SigRepr::CoarseBitSelect { bits, .. }
                | SigRepr::DoubleBitSelect { bits, .. },
                SavedSignature::Bits(words),
            ) => bits.load_words(words),
            _ => panic!("saved state shape mismatch"),
        }
    }

    /// Hardware cost in bits (0 for perfect).
    pub fn bits_len(&self) -> usize {
        match self {
            SigRepr::Perfect(_) => 0,
            SigRepr::BitSelect { bits, .. }
            | SigRepr::CoarseBitSelect { bits, .. }
            | SigRepr::DoubleBitSelect { bits, .. } => bits.len(),
        }
    }

    /// Conservative page remap (paper §4.2): for every block of the old
    /// page that may be in the set, inserts the matching block of the new
    /// page. Old entries are kept, as in the paper ("the updated signature
    /// contains both the old and new physical addresses").
    pub fn rehash_page(&mut self, old_page_base_block: u64, new_page_base_block: u64, blocks: u64) {
        for i in 0..blocks {
            if self.test_block(old_page_base_block + i) {
                self.insert_block(new_page_base_block + i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use ltse_sim::rng::mix64;

    use super::*;

    fn all_kinds() -> Vec<SignatureKind> {
        vec![
            SignatureKind::Perfect,
            SignatureKind::paper_bs_2kb(),
            SignatureKind::paper_bs_64(),
            SignatureKind::paper_cbs_2kb(),
            SignatureKind::paper_dbs_2kb(),
        ]
    }

    /// FNV-1a over 64-bit values, each folded in as 8 little-endian bytes.
    fn fnv1a(h: u64, x: u64) -> u64 {
        x.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// Pins every kind's index math: the saved words (or elements) after
    /// 300 inserts, then 20,000 membership answers, hashed per kind. The
    /// constants were computed from the separate per-kind signature structs
    /// this enum replaced, so a change to any decode fails here even when
    /// it keeps the no-false-negative property.
    #[test]
    fn golden_words_and_membership_per_kind() {
        let golden = [
            ("Perfect", 0x9FDF_FE83_8989_37F1u64),
            ("BS_2048", 0xBED2_1BA1_994E_E8C9),
            ("BS_64", 0x2D99_790A_B1B0_07DC),
            ("CBS_2048", 0x527B_2FE8_0268_98A9),
            ("DBS_2048", 0xFA72_07A4_61E5_316A),
        ];
        for (kind, (label, want)) in all_kinds().into_iter().zip(golden) {
            assert_eq!(kind.label(), label);
            let mut s = SigRepr::new(&kind);
            for i in 0..300u64 {
                s.insert_block(mix64(i) >> 24);
            }
            let (SavedSignature::Bits(words) | SavedSignature::Exact(words)) = s.save_state();
            let mut h = words
                .iter()
                .fold(0xCBF2_9CE4_8422_2325, |h, &w| fnv1a(h, w));
            for i in 0..20_000u64 {
                h = fnv1a(h, s.test_block(mix64(i * 31) >> 22) as u64);
            }
            assert_eq!(h, want, "{kind}: got {h:#018x}");
        }
    }

    #[test]
    fn test_either_matches_test_block_for_every_kind() {
        for kind in all_kinds() {
            let mut a = SigRepr::new(&kind);
            let mut b = SigRepr::new(&kind); // differently filled second set
            for i in 0..150u64 {
                a.insert_block(mix64(i) >> 24);
                b.insert_block(mix64(i ^ 0xF00D) >> 24);
            }
            for i in 0..5_000u64 {
                let addr = mix64(i ^ 0xBEEF) >> 22;
                let either = a.test_block(addr) || b.test_block(addr);
                assert_eq!(a.test_either(&b, addr), either, "{kind}");
                assert_eq!(b.test_either(&a, addr), either, "{kind}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "different kinds")]
    fn test_either_rejects_mixed_kinds() {
        let perfect = SigRepr::new(&SignatureKind::Perfect);
        let hashed = SigRepr::new(&SignatureKind::paper_bs_2kb());
        perfect.test_either(&hashed, 1);
    }

    #[test]
    fn bs_no_false_negatives() {
        let mut s = SigRepr::new(&SignatureKind::paper_bs_64());
        for a in 0..1000u64 {
            s.insert_block(a * 7);
        }
        for a in 0..1000u64 {
            assert!(s.test_block(a * 7));
        }
    }

    #[test]
    fn bs_aliases_at_modulus() {
        let mut s = SigRepr::new(&SignatureKind::paper_bs_64());
        s.insert_block(5);
        assert!(s.test_block(5 + 64));
        assert!(s.test_block(5 + 128));
        assert!(!s.test_block(6));
    }

    #[test]
    fn bs_single_bit_acts_as_global_lock() {
        // The paper's Table 3 discussion: a 1-bit signature conflicts with
        // everything once anything is inserted.
        let mut s = SigRepr::new(&SignatureKind::BitSelect { bits: 1 });
        assert!(!s.test_block(99));
        s.insert_block(0);
        for a in 0..100u64 {
            assert!(s.test_block(a));
        }
    }

    #[test]
    fn cbs_macroblock_granularity() {
        let mut s = SigRepr::new(&SignatureKind::paper_cbs_2kb());
        s.insert_block(32); // macroblock 2 of 16-block macroblocks
        for b in 32..48u64 {
            assert!(s.test_block(b), "block {b} shares macroblock");
        }
        assert!(!s.test_block(31));
        assert!(!s.test_block(48));
    }

    #[test]
    fn dbs_requires_both_bits() {
        // Halves of 8 bits, so 3-bit fields.
        let mut s = SigRepr::new(&SignatureKind::DoubleBitSelect { bits: 16 });
        s.insert_block(0b000_001); // lo field 1, hi field 0
        s.insert_block(0b001_000); // lo field 0, hi field 1

        // lo=1, hi=1: each bit was set by a different insert, so this is a
        // false positive — DBS's cross-aliasing.
        assert!(s.test_block(0b001_001));
        // lo=2 was never set: no hit even though the hi bit aliases.
        assert!(!s.test_block(0b000_010));
    }

    /// How many of `probes` hit `s` without having been inserted.
    fn false_positives(s: &SigRepr, inserted: &[u64], probes: impl Iterator<Item = u64>) -> usize {
        probes
            .filter(|a| !inserted.contains(a) && s.test_block(*a))
            .count()
    }

    #[test]
    fn dbs_more_precise_than_bs_at_same_size() {
        let mut bs = SigRepr::new(&SignatureKind::BitSelect { bits: 256 });
        let mut dbs = SigRepr::new(&SignatureKind::DoubleBitSelect { bits: 256 });
        let inserted: Vec<u64> = (0..40).map(|i| i * 97 + 13).collect();
        for &a in &inserted {
            bs.insert_block(a);
            dbs.insert_block(a);
        }
        let bs_fp = false_positives(&bs, &inserted, 10_000..20_000);
        let dbs_fp = false_positives(&dbs, &inserted, 10_000..20_000);
        assert!(
            dbs_fp < bs_fp,
            "DBS should alias less: dbs={dbs_fp} bs={bs_fp}"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        SigRepr::new(&SignatureKind::BitSelect { bits: 100 });
    }

    #[test]
    fn rehash_page_keeps_old_and_adds_new() {
        for kind in all_kinds() {
            let mut s = SigRepr::new(&kind);
            s.insert_block(100); // page 1 (64-block pages), block offset 36
            s.rehash_page(64, 512, 64);
            assert!(s.test_block(100), "{kind}: old address retained");
            assert!(s.test_block(512 + 36), "{kind}: new address inserted");
        }
    }

    /// Pins the words each kind holds after a page remap, aliased blocks
    /// included. The constants were computed, like the membership golden
    /// above, from the per-kind signature structs this enum replaced.
    #[test]
    fn rehash_page_golden_words() {
        let golden = [
            ("Perfect", 0xAE65_7A4E_DEA0_F781u64),
            ("BS_2048", 0x1BDF_4692_55A3_4C4D),
            ("BS_64", 0x54FC_5380_1587_80E1),
            ("CBS_2048", 0xC627_351D_C2E2_B3C9),
            ("DBS_2048", 0x56FA_C815_F54C_6CE9),
        ];
        for (kind, (label, want)) in all_kinds().into_iter().zip(golden) {
            assert_eq!(kind.label(), label);
            let mut s = SigRepr::new(&kind);
            s.insert_block(100);
            for i in 0..40u64 {
                s.insert_block(mix64(i) >> 24);
            }
            s.rehash_page(64, 512, 64);
            let (SavedSignature::Bits(words) | SavedSignature::Exact(words)) = s.save_state();
            let h = words
                .iter()
                .fold(0xCBF2_9CE4_8422_2325, |h, &w| fnv1a(h, w));
            assert_eq!(h, want, "{kind}: got {h:#018x}");
        }
    }

    #[test]
    fn save_restore_roundtrip_all_kinds() {
        let addrs = [1u64, 99, 4096, 77777, 1 << 33];
        for kind in all_kinds() {
            let mut s = SigRepr::new(&kind);
            for a in addrs {
                s.insert_block(a);
            }
            let saved = s.save_state();
            let mut fresh = SigRepr::new(&kind);
            fresh.restore_saved(&saved);
            assert_eq!(fresh.save_state(), saved, "{kind}");
            for a in addrs {
                assert!(fresh.test_block(a), "{kind}");
            }
        }
    }

    #[test]
    fn clear_empties_every_kind() {
        for kind in all_kinds() {
            let mut a = SigRepr::new(&kind);
            a.insert_block(10);
            a.insert_block(20);
            assert!(!a.is_clear());
            a.clear_all();
            assert!(a.is_clear(), "{kind}");
            assert!(!a.test_block(10) && !a.test_block(20), "{kind}");
        }
    }
}
