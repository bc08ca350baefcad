//! [`SigRepr`]: the one signature representation, an enum over every kind.
//!
//! Every simulated memory reference performs at least one `CONFLICT(O, A)`
//! lookup, and summary-equipped contexts perform several. `SigRepr` holds
//! the paper's Figure 3 signatures (plus two extensions) as one enum whose
//! `insert`/`test` are branch-predictable word operations on a [`SigBits`]
//! array, so the compiler inlines the whole membership test.
//!
//! The same type serves every role a signature plays: a context's read or
//! write set (inside [`crate::ReadWriteSignature`]), the per-process summary
//! signature the OS rebuilds from a [`crate::CountingSignature`] (§4.1), and
//! the source of the [`SavedSignature`] parked in a log frame.

use ltse_sim::rng::mix64;

use crate::bits::SigBits;
use crate::{PerfectSignature, SavedSignature, SignatureKind};

/// Maximum number of bit indices a [`SigProbe`] can carry (Bloom filters
/// with more hashes fall back to per-signature testing).
const PROBE_MAX_INDICES: usize = 8;

/// A precompiled membership test: the kind-specific hash of one address,
/// computed once by [`SigRepr::probe`] and reusable against every signature
/// of the same kind via [`SigRepr::test_probe`]. See `probe` for the
/// sweep-shaped use case.
#[derive(Debug, Clone, Copy)]
pub enum SigProbe {
    /// Membership ⇔ for each of the first `n` entries, the filter word at
    /// `word[i]` has some bit of `mask[i]` set. The word/mask split is
    /// precomputed here so the per-signature test is a bare load-AND — no
    /// shifts in the sweep's inner loop.
    Indices {
        /// Filter word index of each probed bit.
        word: [u32; PROBE_MAX_INDICES],
        /// Single-bit mask within that word.
        mask: [u64; PROBE_MAX_INDICES],
        /// How many of `word`/`mask` are meaningful.
        n: u8,
    },
    /// The probed address, for kinds that don't compile to bit indices
    /// (perfect signatures, Bloom filters with more than
    /// [`PROBE_MAX_INDICES`] hashes): testing falls back to the full
    /// per-signature membership check.
    Fallback(u64),
}

impl SigProbe {
    #[inline]
    fn indices(src: &[u32]) -> SigProbe {
        let mut word = [0u32; PROBE_MAX_INDICES];
        let mut mask = [0u64; PROBE_MAX_INDICES];
        for (i, &idx) in src.iter().enumerate() {
            word[i] = idx / 64;
            mask[i] = 1u64 << (idx % 64);
        }
        SigProbe::Indices {
            word,
            mask,
            n: src.len() as u8,
        }
    }

    /// Tests an index probe against a raw filter: `n` word loads and ANDs.
    /// [`SigRepr::test_probe`] resolves fallback probes by address before
    /// it gets here.
    #[inline]
    fn test_bits(&self, bits: &SigBits) -> bool {
        match self {
            SigProbe::Indices { word, mask, n } => {
                let words = bits.words();
                let mut ok = true;
                for i in 0..*n as usize {
                    ok &= words[word[i] as usize] & mask[i] != 0;
                }
                ok
            }
            SigProbe::Fallback(_) => unreachable!("fallback probes are tested by address"),
        }
    }
}

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
    /// A k-hash Bloom filter (extension). The paper's signatures are all
    /// degenerate Bloom filters (BS is k = 1 with the identity hash, DBS is
    /// k = 2 over partitioned halves); this is the general construction the
    /// paper's related work points at, used by the ablations to ask "would
    /// a better hash have changed Table 3?".
    ///
    /// ```
    /// use ltse_sig::{SigRepr, SignatureKind};
    ///
    /// let mut s = SigRepr::new(&SignatureKind::Bloom { bits: 2048, k: 4 });
    /// s.insert_block(0xdead);
    /// assert!(s.test_block(0xdead));
    /// assert!(!s.test_block(0xbeef));
    /// ```
    Bloom {
        /// Packed filter bits.
        bits: SigBits,
        /// Number of hash functions.
        k: u32,
        /// `bits.len() - 1`, for the index mask.
        mask: u64,
    },
    /// Permuted double-bit-select ("PDBS", extension): Bulk's refinement of
    /// DBS. The block address is permuted first, then decoded as DBS. The
    /// permutation decorrelates the two fields from low-order address
    /// locality, so addresses a fixed power of two apart no longer alias
    /// systematically; that is why Bulk's default signature permutes first.
    ///
    /// ```
    /// use ltse_sig::{SigRepr, SignatureKind};
    ///
    /// let mut s = SigRepr::new(&SignatureKind::PermutedDbs { bits: 2048 });
    /// s.insert_block(0xabc);
    /// assert!(s.test_block(0xabc));
    /// assert!(!s.test_block(0xabd));
    /// ```
    PermutedDbs {
        /// Packed filter bits (both halves).
        bits: SigBits,
        /// Bits per half (`bits.len() / 2`).
        half: usize,
        /// `log2(half)`: width of each decoded field.
        field_bits: u32,
    },
}

/// Bloom hash `i` of address `a`: a distinct odd multiplier and salt per
/// hash, then [`mix64`]. Cheap, deterministic and well mixed, standing in
/// for a hardware H3 XOR network.
#[inline]
fn bloom_index(a: u64, i: u32, mask: u64) -> usize {
    let salted = a
        .wrapping_mul(2 * i as u64 + 1)
        .wrapping_add(0xA076_1D64_78BD_642Fu64.wrapping_mul(i as u64 + 1));
    (mix64(salted) & mask) as usize
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

/// The fixed permutation in front of the PDBS decode: a multiply by an odd
/// constant and an xorshift, standing in for Bulk's wire permutation
/// network (pure wiring in hardware). Forcing the low bit makes it 2-to-1,
/// so each address has one fixed alias partner; like any aliasing, that can
/// add false conflicts but never hide a true one.
#[inline]
fn permute(a: u64) -> u64 {
    let x = a.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    x ^ (x >> 17)
}

impl SigRepr {
    /// Creates an empty signature of the given kind.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometries: sizes (or macroblock sizes) that are
    /// not powers of two, a Bloom filter with `k == 0`, or a DBS/PDBS
    /// smaller than 4 bits.
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
            SignatureKind::Bloom { bits, k } => {
                assert!(k > 0, "Bloom signature needs at least one hash");
                SigRepr::Bloom {
                    bits: checked_bits(bits),
                    k,
                    mask: bits as u64 - 1,
                }
            }
            SignatureKind::PermutedDbs { bits } => {
                assert!(bits >= 4, "DBS needs at least 4 bits");
                SigRepr::PermutedDbs {
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
            SigRepr::Bloom { bits, k, mask } => {
                for i in 0..*k {
                    bits.insert(bloom_index(a, i, *mask));
                }
            }
            SigRepr::PermutedDbs {
                bits,
                half,
                field_bits,
            } => {
                let (lo, hi) = dbs_indices(permute(a), *half, *field_bits);
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
            SigRepr::Bloom { bits, k, mask } => {
                (0..*k).all(|i| bits.test(bloom_index(a, i, *mask)))
            }
            SigRepr::PermutedDbs {
                bits,
                half,
                field_bits,
            } => {
                let (lo, hi) = dbs_indices(permute(a), *half, *field_bits);
                bits.test(lo) && bits.test(hi)
            }
        }
    }

    /// Compiles the membership test for `a` into a [`SigProbe`]: the
    /// kind-specific hashing is done **once**, and the resulting bit indices
    /// can then be tested against any number of signatures of the same kind
    /// and geometry with [`SigRepr::test_probe`] — pure word loads, no
    /// hashing and no dispatch in the inner loop.
    ///
    /// This is the fast path for sweep-shaped checks (one incoming request
    /// against many contexts' signatures, or a read/write pair): all
    /// signatures in a simulated system share one configured kind, so the
    /// probe is computed per *address*, not per *signature*.
    #[inline]
    pub fn probe(&self, a: u64) -> SigProbe {
        match self {
            SigRepr::Perfect(_) => SigProbe::Fallback(a),
            SigRepr::BitSelect { mask, .. } => SigProbe::indices(&[(a & *mask) as u32]),
            SigRepr::CoarseBitSelect { mask, shift, .. } => {
                SigProbe::indices(&[((a >> *shift) & *mask) as u32])
            }
            SigRepr::DoubleBitSelect {
                half, field_bits, ..
            } => {
                let (lo, hi) = dbs_indices(a, *half, *field_bits);
                SigProbe::indices(&[lo as u32, hi as u32])
            }
            SigRepr::Bloom { k, mask, .. } => {
                if *k as usize > PROBE_MAX_INDICES {
                    return SigProbe::Fallback(a);
                }
                let mut idx = [0u32; PROBE_MAX_INDICES];
                for i in 0..*k {
                    idx[i as usize] = bloom_index(a, i, *mask) as u32;
                }
                SigProbe::indices(&idx[..*k as usize])
            }
            SigRepr::PermutedDbs {
                half, field_bits, ..
            } => {
                let (lo, hi) = dbs_indices(permute(a), *half, *field_bits);
                SigProbe::indices(&[lo as u32, hi as u32])
            }
        }
    }

    /// Tests a precompiled probe against this signature. Must only be given
    /// probes built (via [`SigRepr::probe`]) from a signature of the **same
    /// kind and geometry** — the bit indices are meaningless in any other
    /// filter. Answers are bit-for-bit identical to
    /// [`SigRepr::test_block`] on the probed address.
    #[inline]
    pub fn test_probe(&self, p: &SigProbe) -> bool {
        match p {
            SigProbe::Fallback(a) => self.test_block(*a),
            SigProbe::Indices { .. } => {
                let bits = match self {
                    SigRepr::BitSelect { bits, .. }
                    | SigRepr::CoarseBitSelect { bits, .. }
                    | SigRepr::DoubleBitSelect { bits, .. }
                    | SigRepr::Bloom { bits, .. }
                    | SigRepr::PermutedDbs { bits, .. } => bits,
                    SigRepr::Perfect(_) => {
                        unreachable!("index probe tested against a perfect signature")
                    }
                };
                p.test_bits(bits)
            }
        }
    }

    /// `CLEAR`: empties the set.
    pub fn clear_all(&mut self) {
        match self {
            SigRepr::Perfect(p) => p.clear(),
            SigRepr::BitSelect { bits, .. }
            | SigRepr::CoarseBitSelect { bits, .. }
            | SigRepr::DoubleBitSelect { bits, .. }
            | SigRepr::Bloom { bits, .. }
            | SigRepr::PermutedDbs { bits, .. } => bits.clear(),
        }
    }

    /// Whether the set is empty.
    pub fn is_clear(&self) -> bool {
        match self {
            SigRepr::Perfect(p) => p.is_empty(),
            SigRepr::BitSelect { bits, .. }
            | SigRepr::CoarseBitSelect { bits, .. }
            | SigRepr::DoubleBitSelect { bits, .. }
            | SigRepr::Bloom { bits, .. }
            | SigRepr::PermutedDbs { bits, .. } => bits.is_empty(),
        }
    }

    /// Word-level set union with another signature of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ (different variants or sizes).
    pub fn union_repr(&mut self, other: &SigRepr) {
        match (&mut *self, other) {
            (SigRepr::Perfect(a), SigRepr::Perfect(b)) => a.union_with(b),
            (SigRepr::BitSelect { bits: a, .. }, SigRepr::BitSelect { bits: b, .. })
            | (SigRepr::CoarseBitSelect { bits: a, .. }, SigRepr::CoarseBitSelect { bits: b, .. })
            | (SigRepr::DoubleBitSelect { bits: a, .. }, SigRepr::DoubleBitSelect { bits: b, .. })
            | (SigRepr::Bloom { bits: a, .. }, SigRepr::Bloom { bits: b, .. })
            | (SigRepr::PermutedDbs { bits: a, .. }, SigRepr::PermutedDbs { bits: b, .. }) => {
                a.union_with(b)
            }
            _ => panic!("cannot union signatures of different kinds"),
        }
    }

    /// Whether the two sets may overlap: a word-wise AND scan for hashed
    /// signatures (no per-address probing). Conservative in exactly the way
    /// the underlying filters are.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ (different variants or sizes).
    pub fn intersects_repr(&self, other: &SigRepr) -> bool {
        match (self, other) {
            (SigRepr::Perfect(a), SigRepr::Perfect(b)) => a.iter().any(|x| b.maybe_contains(x)),
            (SigRepr::BitSelect { bits: a, .. }, SigRepr::BitSelect { bits: b, .. })
            | (SigRepr::CoarseBitSelect { bits: a, .. }, SigRepr::CoarseBitSelect { bits: b, .. })
            | (SigRepr::DoubleBitSelect { bits: a, .. }, SigRepr::DoubleBitSelect { bits: b, .. })
            | (SigRepr::Bloom { bits: a, .. }, SigRepr::Bloom { bits: b, .. })
            | (SigRepr::PermutedDbs { bits: a, .. }, SigRepr::PermutedDbs { bits: b, .. }) => {
                a.intersects(b)
            }
            _ => panic!("cannot intersect signatures of different kinds"),
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
            | SigRepr::DoubleBitSelect { bits, .. }
            | SigRepr::Bloom { bits, .. }
            | SigRepr::PermutedDbs { bits, .. } => SavedSignature::Bits(bits.words().to_vec()),
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
                | SigRepr::DoubleBitSelect { bits, .. }
                | SigRepr::Bloom { bits, .. }
                | SigRepr::PermutedDbs { bits, .. },
                SavedSignature::Bits(words),
            ) => bits.load_words(words),
            _ => panic!("saved state shape mismatch"),
        }
    }

    /// Occupied fraction in `[0, 1]`: set bits over total bits for hashed
    /// kinds, a size-derived proxy for perfect signatures. Drives the
    /// "signatures fill up" analyses.
    pub fn fill(&self) -> f64 {
        match self {
            SigRepr::Perfect(p) => p.saturation(),
            SigRepr::BitSelect { bits, .. }
            | SigRepr::CoarseBitSelect { bits, .. }
            | SigRepr::DoubleBitSelect { bits, .. }
            | SigRepr::Bloom { bits, .. }
            | SigRepr::PermutedDbs { bits, .. } => bits.set_count() as f64 / bits.len() as f64,
        }
    }

    /// Hardware cost in bits (0 for perfect).
    pub fn bits_len(&self) -> usize {
        match self {
            SigRepr::Perfect(_) => 0,
            SigRepr::BitSelect { bits, .. }
            | SigRepr::CoarseBitSelect { bits, .. }
            | SigRepr::DoubleBitSelect { bits, .. }
            | SigRepr::Bloom { bits, .. }
            | SigRepr::PermutedDbs { bits, .. } => bits.len(),
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
    use super::*;

    fn all_kinds() -> Vec<SignatureKind> {
        vec![
            SignatureKind::Perfect,
            SignatureKind::paper_bs_2kb(),
            SignatureKind::paper_bs_64(),
            SignatureKind::paper_cbs_2kb(),
            SignatureKind::paper_dbs_2kb(),
            SignatureKind::Bloom { bits: 1024, k: 4 },
            SignatureKind::PermutedDbs { bits: 512 },
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
    /// this enum replaced, so a change to any decode, hash or permutation
    /// fails here even when it keeps the no-false-negative property.
    #[test]
    fn golden_words_and_membership_per_kind() {
        let golden = [
            ("Perfect", 0x9FDF_FE83_8989_37F1u64),
            ("BS_2048", 0xBED2_1BA1_994E_E8C9),
            ("BS_64", 0x2D99_790A_B1B0_07DC),
            ("CBS_2048", 0x527B_2FE8_0268_98A9),
            ("DBS_2048", 0xFA72_07A4_61E5_316A),
            ("BLOOM_1024x4", 0x018E_2487_E15E_90B2),
            ("PDBS_512", 0x7D18_7B5E_72C5_DC02),
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
    fn probe_matches_test_block_for_every_kind() {
        for kind in all_kinds() {
            let mut a = SigRepr::new(&kind);
            let mut b = SigRepr::new(&kind); // differently filled second target
            for i in 0..200u64 {
                a.insert_block(mix64(i) >> 24);
                b.insert_block(mix64(i ^ 0xF00D) >> 24);
            }
            for i in 0..20_000u64 {
                let addr = mix64(i.wrapping_mul(31)) >> 22;
                let p = a.probe(addr);
                assert_eq!(a.test_probe(&p), a.test_block(addr), "{kind} self");
                assert_eq!(b.test_probe(&p), b.test_block(addr), "{kind} other");
            }
        }
    }

    /// The raw filter of a hashed kind; `None` for perfect signatures.
    fn raw_bits(s: &SigRepr) -> Option<&SigBits> {
        match s {
            SigRepr::Perfect(_) => None,
            SigRepr::BitSelect { bits, .. }
            | SigRepr::CoarseBitSelect { bits, .. }
            | SigRepr::DoubleBitSelect { bits, .. }
            | SigRepr::Bloom { bits, .. }
            | SigRepr::PermutedDbs { bits, .. } => Some(bits),
        }
    }

    #[test]
    fn test_bits_matches_test_probe_for_hashed_kinds() {
        for kind in all_kinds() {
            if matches!(kind, SignatureKind::Perfect) {
                continue;
            }
            let mut s = SigRepr::new(&kind);
            for i in 0..150u64 {
                s.insert_block(mix64(i) >> 24);
            }
            let bits = raw_bits(&s).expect("hashed kind has a filter");
            for i in 0..5_000u64 {
                let addr = mix64(i ^ 0xBEEF) >> 22;
                let p = s.probe(addr);
                assert!(matches!(p, SigProbe::Indices { .. }), "{kind}");
                assert_eq!(p.test_bits(bits), s.test_block(addr), "{kind}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "fallback probe")]
    fn fallback_probe_rejects_raw_bits() {
        let perfect = SigRepr::new(&SignatureKind::Perfect);
        let hashed = SigRepr::new(&SignatureKind::paper_bs_2kb());
        let p = perfect.probe(1);
        p.test_bits(raw_bits(&hashed).unwrap());
    }

    #[test]
    fn wide_bloom_probe_falls_back() {
        let kind = SignatureKind::Bloom { bits: 4096, k: 12 };
        let mut s = SigRepr::new(&kind);
        s.insert_block(99);
        let p = s.probe(99);
        assert!(matches!(p, SigProbe::Fallback(99)));
        assert!(s.test_probe(&p));
        assert!(!s.test_probe(&s.probe(100)));
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
    fn permutation_breaks_field_wraparound_aliasing() {
        // Plain DBS decodes two fixed address fields; any two addresses
        // that agree on both fields alias, and the fields wrap every
        // 2^(lo_bits + hi_bits) blocks. For a 256-bit DBS (7+7 field bits),
        // address A and A + k·2^14 alias *perfectly*. The permutation mixes
        // high-order bits into both fields, breaking the pattern — Bulk's
        // reason for permuting.
        let mut plain = SigRepr::new(&SignatureKind::DoubleBitSelect { bits: 256 });
        let mut perm = SigRepr::new(&SignatureKind::PermutedDbs { bits: 256 });
        for a in 0..24u64 {
            plain.insert_block(a * 3);
            perm.insert_block(a * 3);
        }
        let probes: Vec<u64> = (1..24u64).map(|k| 3 + k * (1 << 14)).collect();
        let plain_fp = probes.iter().filter(|&&a| plain.test_block(a)).count();
        let perm_fp = probes.iter().filter(|&&a| perm.test_block(a)).count();
        assert_eq!(plain_fp, probes.len(), "plain DBS aliases on every wrap");
        assert!(
            perm_fp < plain_fp,
            "permutation must break wraparound aliasing ({perm_fp} vs {plain_fp})"
        );
    }

    #[test]
    fn permuted_dbs_no_false_negatives() {
        let mut s = SigRepr::new(&SignatureKind::PermutedDbs { bits: 512 });
        let addrs: Vec<u64> = (0..100).map(|i| i * 37 + 5).collect();
        for &a in &addrs {
            s.insert_block(a);
        }
        for &a in &addrs {
            assert!(s.test_block(a));
        }
    }

    #[test]
    fn permuted_save_restore_roundtrip() {
        let kind = SignatureKind::PermutedDbs { bits: 128 };
        let mut s = SigRepr::new(&kind);
        s.insert_block(7);
        s.insert_block(1 << 30);
        let saved = s.save_state();
        let mut t = SigRepr::new(&kind);
        t.restore_saved(&saved);
        assert_eq!(t.save_state(), saved);
        assert!(t.test_block(7) && t.test_block(1 << 30));
    }

    #[test]
    fn bloom_no_false_negatives() {
        let mut s = SigRepr::new(&SignatureKind::Bloom { bits: 1024, k: 4 });
        let addrs: Vec<u64> = (0..200).map(|i| i * 131 + 7).collect();
        for &a in &addrs {
            s.insert_block(a);
        }
        for &a in &addrs {
            assert!(s.test_block(a));
        }
    }

    #[test]
    fn bloom_save_restore_roundtrip() {
        let kind = SignatureKind::Bloom { bits: 512, k: 3 };
        let mut s = SigRepr::new(&kind);
        s.insert_block(42);
        s.insert_block(1 << 33);
        let saved = s.save_state();
        let mut t = SigRepr::new(&kind);
        t.restore_saved(&saved);
        assert_eq!(t.save_state(), saved);
        assert!(t.test_block(42) && t.test_block(1 << 33));
    }

    #[test]
    fn bloom_false_positive_rate_reasonable() {
        let mut s = SigRepr::new(&SignatureKind::Bloom { bits: 4096, k: 4 });
        for a in 0..200u64 {
            s.insert_block(a * 997);
        }
        // ~200*4/4096 ≈ 20% bits set → fp ≈ 0.2^4 ≈ 0.16%. Allow slack.
        let fp = (1_000_000..1_010_000u64)
            .filter(|&a| s.test_block(a))
            .count();
        assert!(fp < 200, "false positive count too high: {fp}");
    }

    #[test]
    fn bloom_beats_bit_select_on_its_stride() {
        // Strided addresses deliberately alias a small BS but not a Bloom.
        let mut bs = SigRepr::new(&SignatureKind::BitSelect { bits: 256 });
        let mut bl = SigRepr::new(&SignatureKind::Bloom { bits: 256, k: 2 });
        let inserted: Vec<u64> = (0..20u64).map(|i| 5 + i * 256).collect();
        for &a in &inserted {
            // All map to bit 5 for BS (stride = signature size).
            bs.insert_block(a);
            bl.insert_block(a);
        }
        // Probe addresses congruent to 5 mod 256 but never inserted.
        let stride = || (100_000..100_256u64).filter(|a| a % 256 == 5);
        let bs_fp = false_positives(&bs, &inserted, stride());
        let bl_fp = false_positives(&bl, &inserted, stride());
        assert!(bs_fp >= bl_fp);
        assert!(bs_fp > 0, "BS must alias on its stride");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        SigRepr::new(&SignatureKind::BitSelect { bits: 100 });
    }

    #[test]
    #[should_panic(expected = "at least one hash")]
    fn bloom_rejects_zero_hashes() {
        SigRepr::new(&SignatureKind::Bloom { bits: 64, k: 0 });
    }

    #[test]
    fn saturation_monotone() {
        let mut s = SigRepr::new(&SignatureKind::paper_bs_64());
        let mut last = 0.0;
        for a in 0..64u64 {
            s.insert_block(a);
            let sat = s.fill();
            assert!(sat >= last);
            last = sat;
        }
        assert_eq!(last, 1.0);
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
            ("BLOOM_1024x4", 0xE36D_1892_ECB0_3D06),
            ("PDBS_512", 0x0251_2FE1_4F42_DC71),
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
            assert_eq!(fresh.fill(), s.fill(), "{kind}");
            for a in addrs {
                assert!(fresh.test_block(a), "{kind}");
            }
        }
    }

    #[test]
    fn union_merges_sets() {
        let mut a = SigRepr::new(&SignatureKind::paper_bs_64());
        let mut b = SigRepr::new(&SignatureKind::paper_bs_64());
        a.insert_block(1);
        b.insert_block(2);
        a.union_repr(&b);
        assert!(a.test_block(1));
        assert!(a.test_block(2));
    }

    #[test]
    fn clear_and_union() {
        for kind in all_kinds() {
            let mut a = SigRepr::new(&kind);
            let mut b = SigRepr::new(&kind);
            a.insert_block(10);
            b.insert_block(20);
            assert!(!a.is_clear());
            a.union_repr(&b);
            assert!(a.test_block(10) && a.test_block(20), "{kind}");
            a.clear_all();
            assert!(a.is_clear(), "{kind}");
        }
    }

    #[test]
    fn intersects_is_conservative_and_detects_overlap() {
        for kind in all_kinds() {
            let mut a = SigRepr::new(&kind);
            let mut b = SigRepr::new(&kind);
            a.insert_block(42);
            assert!(!SigRepr::new(&kind).intersects_repr(&a), "{kind}: empty");
            b.insert_block(42);
            assert!(a.intersects_repr(&b), "{kind}: shared element must hit");
        }
    }

    #[test]
    #[should_panic(expected = "different kinds")]
    fn union_kind_mismatch_panics() {
        let mut a = SigRepr::new(&SignatureKind::paper_bs_2kb());
        let b = SigRepr::new(&SignatureKind::paper_dbs_2kb());
        a.union_repr(&b);
    }
}
