//! A tiny deterministic randomized-testing harness.
//!
//! The workspace's property tests used to depend on an external fuzzing
//! crate; this module replaces it with a dependency-free equivalent built
//! on the simulator's own [`crate::rng`] generators, so the whole test
//! suite builds offline and every "random" case is reproducible from a
//! fixed base seed.
//!
//! [`cases`] runs a closure once per case, handing it a per-case RNG
//! derived from the base seed via [`crate::config::seed_sequence`]. When a
//! case panics, the harness reports the case index and seed (enough to
//! re-run exactly that case under a debugger) before propagating the
//! panic.
//!
//! ```
//! use ltse_sim::check::cases;
//!
//! cases(32, 0xBEEF, |rng| {
//!     let n = rng.gen_range(1, 100);
//!     assert!(n >= 1 && n < 100);
//! });
//! ```

use crate::config::seed_sequence;
use crate::rng::Xoshiro256StarStar;

/// Runs `f` for `n` deterministic pseudo-random cases derived from
/// `base_seed`. On a panicking case, prints the case index and seed and
/// re-raises the panic so the test still fails.
pub fn cases<F: FnMut(&mut Xoshiro256StarStar)>(n: usize, base_seed: u64, mut f: F) {
    for (i, seed) in seed_sequence(base_seed, n).into_iter().enumerate() {
        let mut rng = Xoshiro256StarStar::new(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        if let Err(payload) = outcome {
            eprintln!(
                "check::cases: case {i}/{n} failed (base_seed={base_seed:#x}, case seed={seed:#x})"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// Draws a vector of `len in [min_len, max_len]` elements produced by
/// `gen`. The common "collection of random things" building block.
///
/// # Panics
///
/// Panics if `min_len > max_len`.
pub fn vec_of<T>(
    rng: &mut Xoshiro256StarStar,
    min_len: usize,
    max_len: usize,
    mut gen: impl FnMut(&mut Xoshiro256StarStar) -> T,
) -> Vec<T> {
    assert!(min_len <= max_len, "vec_of requires min_len <= max_len");
    let len = rng.gen_range(min_len as u64, max_len as u64 + 1) as usize;
    (0..len).map(|_| gen(rng)).collect()
}

/// Picks one element of a non-empty slice uniformly.
///
/// # Panics
///
/// Panics if `options` is empty.
pub fn pick<'a, T>(rng: &mut Xoshiro256StarStar, options: &'a [T]) -> &'a T {
    assert!(!options.is_empty(), "pick requires a non-empty slice");
    &options[rng.gen_index(options.len())]
}

/// Picks an index in `[0, weights.len())` with probability proportional to
/// its weight — the weighted-choice primitive fuzzed op streams use.
///
/// # Panics
///
/// Panics if `weights` is empty or sums to zero.
pub fn pick_weighted(rng: &mut Xoshiro256StarStar, weights: &[u64]) -> usize {
    let total: u64 = weights.iter().sum();
    assert!(total > 0, "pick_weighted requires a positive total weight");
    let mut roll = rng.gen_range(0, total);
    for (i, &w) in weights.iter().enumerate() {
        if roll < w {
            return i;
        }
        roll -= w;
    }
    unreachable!("roll < total by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        let mut a = Vec::new();
        cases(8, 42, |rng| a.push(rng.next_u64()));
        let mut b = Vec::new();
        cases(8, 42, |rng| b.push(rng.next_u64()));
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
    }

    #[test]
    fn cases_differ_across_case_indices() {
        let mut seen = Vec::new();
        cases(16, 7, |rng| seen.push(rng.next_u64()));
        let mut dedup = seen.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seen.len(), "per-case streams must differ");
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn failing_case_propagates_panic() {
        cases(4, 1, |_| panic!("boom"));
    }

    #[test]
    fn vec_of_respects_bounds() {
        cases(64, 3, |rng| {
            let v = vec_of(rng, 2, 9, |r| r.gen_range(0, 10));
            assert!((2..=9).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        });
    }

    #[test]
    fn pick_returns_member() {
        let opts = [1, 2, 3];
        cases(32, 5, |rng| {
            assert!(opts.contains(pick(rng, &opts)));
        });
    }

    #[test]
    fn pick_weighted_honours_zero_weights() {
        cases(64, 9, |rng| {
            let i = pick_weighted(rng, &[0, 5, 0, 3]);
            assert!(i == 1 || i == 3, "zero-weight arms must never be picked");
        });
    }
}
