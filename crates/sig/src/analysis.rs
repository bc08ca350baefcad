//! Analytical false-positive models for signature sizing.
//!
//! The paper invokes "the well-known birthday paradox" to explain why one
//! might expect small signatures to alias badly (§6.3, Signature Sizing).
//! These closed-form predictors quantify that intuition so a designer can
//! size a filter for a target footprint *before* running simulations, and
//! the tests validate them against measured rates.

/// Expected false-positive probability of a bit-select (single-hash)
/// signature of `bits` bits after inserting `inserted` uniformly-hashed
/// distinct addresses: the probability a random probe lands on a set bit,
/// `1 - (1 - 1/m)^n`.
///
/// ```
/// use ltse_sig::analysis::fp_rate_bit_select;
///
/// // 64-bit filter, 8-block read set (the paper's average): ~12 % aliasing.
/// let p = fp_rate_bit_select(64, 8);
/// assert!((0.10..0.14).contains(&p));
/// // A 2 Kb filter on the same set: well under 1 %.
/// assert!(fp_rate_bit_select(2048, 8) < 0.01);
/// ```
///
/// # Panics
///
/// Panics if `bits == 0`.
pub fn fp_rate_bit_select(bits: usize, inserted: u64) -> f64 {
    assert!(bits > 0, "filter needs at least one bit");
    1.0 - (1.0 - 1.0 / bits as f64).powi(inserted as i32)
}

/// Expected false-positive probability of a `k`-hash Bloom-style signature
/// (double-bit-select is `k = 2` over two halves) of `bits` total bits
/// after `inserted` insertions: `(1 - (1 - k/m)^n)^k` with per-hash
/// partitions of `m/k` bits.
///
/// ```
/// use ltse_sig::analysis::{fp_rate_bloom, fp_rate_bit_select};
///
/// // At equal size and small occupancy, two hashes beat one:
/// assert!(fp_rate_bloom(2048, 2, 8) < fp_rate_bit_select(2048, 8));
/// ```
///
/// # Panics
///
/// Panics if `bits == 0` or `k == 0` or `k as usize > bits`.
pub fn fp_rate_bloom(bits: usize, k: u32, inserted: u64) -> f64 {
    assert!(bits > 0 && k > 0, "need bits and hashes");
    assert!(k as usize <= bits, "more hashes than bits");
    let partition = bits as f64 / k as f64;
    let per_partition_fill = 1.0 - (1.0 - 1.0 / partition).powi(inserted as i32);
    per_partition_fill.powi(k as i32)
}

/// Expected false-positive probability of a coarse-bit-select signature:
/// bit-select over macroblocks, probed with a *random block*. With `g`
/// blocks per macroblock the filter sees `⌈n/g⌉`–`n` distinct macroblocks
/// depending on locality; this model takes the number of distinct
/// macroblocks directly.
///
/// ```
/// use ltse_sig::analysis::{fp_rate_coarse, fp_rate_bit_select};
///
/// // Perfect locality: 32 blocks in 2 macroblocks — CBS aliases less than
/// // BS would with 32 inserts…
/// assert!(fp_rate_coarse(2048, 2) < fp_rate_bit_select(2048, 32));
/// // …but every probe inside a touched macroblock is a *guaranteed* hit,
/// // which is CBS's separate, non-probabilistic aliasing mode.
/// ```
///
/// # Panics
///
/// Panics if `bits == 0`.
pub fn fp_rate_coarse(bits: usize, distinct_macroblocks: u64) -> f64 {
    fp_rate_bit_select(bits, distinct_macroblocks)
}

/// The smallest power-of-two bit-select filter whose predicted
/// false-positive rate stays under `target` for a `footprint`-block set —
/// the sizing question Table 3 answers empirically.
///
/// ```
/// use ltse_sig::analysis::size_bit_select_for;
///
/// // The paper's 2 Kb filters comfortably hold its ≤8-block averages at 1 %:
/// assert!(size_bit_select_for(8, 0.01) <= 2048);
/// // Raytrace's 550-block tail needs a much bigger filter for the same
/// // target:
/// assert!(size_bit_select_for(550, 0.01) > 16384);
/// ```
pub fn size_bit_select_for(footprint: u64, target: f64) -> usize {
    let mut bits = 1usize;
    while fp_rate_bit_select(bits, footprint) > target && bits < (1 << 30) {
        bits <<= 1;
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SigRepr, SignatureKind};
    use ltse_sim::rng::Xoshiro256StarStar;

    /// Measure an empirical FP rate: insert `n` random addresses, probe
    /// with fresh random addresses, count hits.
    fn measured_fp(kind: SignatureKind, n: u64, seed: u64) -> f64 {
        let mut rng = Xoshiro256StarStar::new(seed);
        let mut sig = SigRepr::new(&kind);
        let mut inserted = std::collections::HashSet::new();
        while inserted.len() < n as usize {
            let a = rng.next_u64() >> 20; // dense-ish block numbers
            if inserted.insert(a) {
                sig.insert_block(a);
            }
        }
        let probes = 20_000;
        let mut hits = 0;
        for _ in 0..probes {
            let p = rng.next_u64() >> 20;
            if !inserted.contains(&p) && sig.test_block(p) {
                hits += 1;
            }
        }
        hits as f64 / probes as f64
    }

    #[test]
    fn bit_select_prediction_matches_measurement() {
        for (bits, n) in [(64usize, 8u64), (256, 30), (2048, 100)] {
            let predicted = fp_rate_bit_select(bits, n);
            let measured = measured_fp(SignatureKind::BitSelect { bits }, n, 1);
            assert!(
                (predicted - measured).abs() < 0.03 + predicted * 0.25,
                "BS {bits}b n={n}: predicted {predicted:.3}, measured {measured:.3}"
            );
        }
    }

    #[test]
    fn bloom_prediction_matches_measurement() {
        for (bits, k, n) in [(2048usize, 2u32, 64u64), (1024, 4, 40)] {
            let predicted = fp_rate_bloom(bits, k, n);
            let measured = measured_fp(SignatureKind::Bloom { bits, k }, n, 2);
            assert!(
                (predicted - measured).abs() < 0.02 + predicted * 0.5,
                "Bloom {bits}b k={k} n={n}: predicted {predicted:.4}, measured {measured:.4}"
            );
        }
    }

    #[test]
    fn rates_are_monotone_in_occupancy_and_size() {
        assert!(fp_rate_bit_select(64, 4) < fp_rate_bit_select(64, 16));
        assert!(fp_rate_bit_select(2048, 16) < fp_rate_bit_select(64, 16));
        assert!(fp_rate_bloom(1024, 4, 10) < fp_rate_bloom(1024, 4, 100));
    }

    #[test]
    fn sizing_is_consistent_with_the_rate_model() {
        for footprint in [4u64, 30, 550] {
            let bits = size_bit_select_for(footprint, 0.05);
            assert!(fp_rate_bit_select(bits, footprint) <= 0.05);
            if bits > 1 {
                assert!(fp_rate_bit_select(bits / 2, footprint) > 0.05);
            }
        }
    }

    #[test]
    fn paper_sizing_story_in_numbers() {
        // Table 2 averages fit a 2 Kb filter with negligible aliasing…
        for avg in [8u64, 4, 2, 6, 2] {
            assert!(fp_rate_bit_select(2048, avg) < 0.005);
        }
        // …while Raytrace's 550-block tail saturates even 2 Kb (24 % of
        // bits set ⇒ ~24 % aliasing — the Table 3 cliff).
        let tail = fp_rate_bit_select(2048, 550);
        assert!((0.2..0.3).contains(&tail), "{tail}");
    }
}
