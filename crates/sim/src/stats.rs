//! Simulation statistics: counters, histograms, and confidence intervals.
//!
//! The paper reports 95 % confidence intervals obtained by pseudo-randomly
//! perturbing each simulation (§6.1, citing Alameldeen & Wood). [`SampleSet`]
//! implements the matching Student-t interval over per-seed observations.

use std::collections::BTreeMap;
use std::fmt;

/// A monotonically increasing event counter.
///
/// ```
/// use ltse_sim::stats::Counter;
///
/// let mut commits = Counter::new();
/// commits.add(3);
/// commits.inc();
/// assert_eq!(commits.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }

    /// Resets to zero.
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A sparse histogram over `u64` keys: the read- and write-set size
/// distributions of the paper's Table 2 (mean, max and tail percentiles).
///
/// ```
/// use ltse_sim::stats::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(2);
/// h.record(2);
/// h.record(550);
/// assert_eq!(h.count_of(2), 2);
/// assert_eq!(h.total(), 3);
/// assert_eq!(h.percentile(50), Some(2));
/// assert_eq!(h.percentile(100), Some(550));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: BTreeMap<u64, u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation of `v`.
    pub fn record(&mut self, v: u64) {
        *self.buckets.entry(v).or_insert(0) += 1;
        self.total += 1;
    }

    /// Count recorded for exactly `v`.
    pub fn count_of(&self, v: u64) -> u64 {
        self.buckets.get(&v).copied().unwrap_or(0)
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of the observations (their exact integer sum over their
    /// count), or `None` if the histogram is empty.
    ///
    /// ```
    /// use ltse_sim::stats::Histogram;
    ///
    /// let mut h = Histogram::new();
    /// for v in [8, 30, 4] { h.record(v); }
    /// assert_eq!(h.max(), Some(30));
    /// assert_eq!(h.percentile(0), Some(4));
    /// assert!((h.mean().unwrap() - 14.0).abs() < 1e-9);
    /// ```
    pub fn mean(&self) -> Option<f64> {
        let sum: u64 = self.iter().map(|(v, n)| v * n).sum();
        (self.total > 0).then(|| sum as f64 / self.total as f64)
    }

    /// Largest observation, or `None` if the histogram is empty.
    pub fn max(&self) -> Option<u64> {
        self.buckets.keys().next_back().copied()
    }

    /// The `p`-th percentile (0–100) using the nearest-rank method, or
    /// `None` if the histogram is empty.
    ///
    /// Matches the sorted-vector definition exactly: for `N` observations
    /// sorted ascending, the result is element `max(1, ceil(p·N/100)) - 1`.
    /// `percentile(0)` is therefore the minimum and `percentile(100)` the
    /// maximum, with ties resolved toward the smaller value.
    ///
    /// # Panics
    ///
    /// Panics if `p > 100`.
    pub fn percentile(&self, p: u8) -> Option<u64> {
        assert!(p <= 100, "percentile must be 0..=100");
        self.percentile_permille(p as u32 * 10)
    }

    /// The `p`-th permille (0–1000) by the same nearest-rank method —
    /// `percentile_permille(999)` is the p999 tail an SLO report needs,
    /// which the integer-percent API cannot express. `percentile(p)` is
    /// exactly `percentile_permille(10 * p)`.
    ///
    /// Sorted-vector definition: element `max(1, ceil(p·N/1000)) - 1`.
    ///
    /// # Panics
    ///
    /// Panics if `p > 1000`.
    pub fn percentile_permille(&self, p: u32) -> Option<u64> {
        assert!(p <= 1000, "permille must be 0..=1000");
        if self.total == 0 {
            return None;
        }
        // u128 keeps `p * total` exact for any u64 population count.
        let rank = ((p as u128 * self.total as u128).div_ceil(1000) as u64).max(1);
        let mut seen = 0;
        for (&v, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(v);
            }
        }
        // Unreachable: rank <= total, and the cumulative count reaches
        // total on the last bucket.
        self.buckets.keys().next_back().copied()
    }

    /// Iterates over `(value, count)` pairs in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().map(|(&v, &n)| (v, n))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (v, n) in other.iter() {
            *self.buckets.entry(v).or_insert(0) += n;
        }
        self.total += other.total;
    }
}

/// Two-sided 95 % Student-t critical values for n-1 degrees of freedom,
/// n = 2..=30. (For n > 30 the normal approximation 1.96 is used.)
const T_95: [f64; 29] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045,
];

/// A set of per-seed observations from which a mean and a 95 % confidence
/// interval are computed — the paper's multi-run perturbation methodology.
///
/// ```
/// use ltse_sim::stats::SampleSet;
///
/// let s: SampleSet = [10.0, 11.0, 9.0, 10.5, 9.5].into_iter().collect();
/// let (mean, half) = s.mean_ci95().unwrap();
/// assert!((mean - 10.0).abs() < 1e-9);
/// assert!(half.unwrap() > 0.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleSet {
    samples: Vec<f64>,
}

impl SampleSet {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        SampleSet::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, v: f64) {
        self.samples.push(v);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sample mean, or `None` for an empty set.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
    }

    /// Unbiased sample standard deviation (zero for fewer than two samples).
    pub fn stddev(&self) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return 0.0;
        }
        let m = self.mean().expect("n >= 2");
        let var = self.samples.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (n - 1) as f64;
        var.sqrt()
    }

    /// `(mean, half_width)` of the two-sided 95 % confidence interval using
    /// Student's t distribution.
    ///
    /// Returns `None` for an empty set. For a single sample the mean is
    /// reported but the half width is `None`: the t-interval is undefined
    /// for n = 1, and reporting ±0 would claim impossible certainty.
    pub fn mean_ci95(&self) -> Option<(f64, Option<f64>)> {
        let n = self.samples.len();
        let mean = self.mean()?;
        if n < 2 {
            return Some((mean, None));
        }
        let t = if n <= 30 { T_95[n - 2] } else { 1.96 };
        let half = t * self.stddev() / (n as f64).sqrt();
        Some((mean, Some(half)))
    }

    /// Read-only view of the raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

impl FromIterator<f64> for SampleSet {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        SampleSet {
            samples: iter.into_iter().collect(),
        }
    }
}

impl Extend<f64> for SampleSet {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.samples.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 11);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_empty_has_no_mean_or_extremes() {
        let h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(0), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn histogram_tracks_extremes() {
        let mut h = Histogram::new();
        for v in [5, 1, 9, 3] {
            h.record(v);
        }
        assert_eq!(h.percentile(0), Some(1));
        assert_eq!(h.max(), Some(9));
        assert_eq!(h.total(), 4);
        assert_eq!(h.mean(), Some(18.0 / 4.0));
    }

    #[test]
    fn histogram_merge_matches_sequential_recording() {
        // A caller that keeps one histogram per worker merges them at join;
        // the merged aggregate must equal recording the same stream into a
        // single histogram, regardless of how the stream was split across
        // workers.
        let stream: Vec<u64> = (0..97).map(|i| (i * 7919) % 1000).collect();
        let mut sequential = Histogram::new();
        for &v in &stream {
            sequential.record(v);
        }
        for n_workers in [1, 2, 3, 8] {
            let mut locals = vec![Histogram::new(); n_workers];
            for (i, &v) in stream.iter().enumerate() {
                locals[i % n_workers].record(v);
            }
            let mut merged = Histogram::new();
            for local in &locals {
                merged.merge(local);
            }
            assert_eq!(merged, sequential, "{n_workers} workers");
            assert_eq!(merged.mean(), sequential.mean(), "{n_workers} workers");
        }
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.percentile(1), Some(1));
        assert_eq!(h.percentile(50), Some(50));
        assert_eq!(h.percentile(100), Some(100));
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50), None);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn histogram_merge_of_empties_is_empty() {
        let mut a = Histogram::new();
        a.merge(&Histogram::new());
        assert_eq!(a.total(), 0);
        assert_eq!(a.mean(), None);
        assert_eq!(a, Histogram::new());
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        a.record(1);
        let mut b = Histogram::new();
        b.record(1);
        b.record(9);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.count_of(1), 2);
        assert_eq!(a.percentile(100), Some(9));
    }

    #[test]
    fn histogram_merge_keeps_extremes_and_empty_identities() {
        let mut a = Histogram::new();
        a.record(10);
        let mut b = Histogram::new();
        b.record(1);
        b.record(20);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.percentile(0), Some(1));
        assert_eq!(a.max(), Some(20));

        let mut empty = Histogram::new();
        empty.merge(&a);
        assert_eq!(empty, a);
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);
    }

    #[test]
    fn histogram_iter_sorted() {
        let mut h = Histogram::new();
        h.record(5);
        h.record(1);
        h.record(5);
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs, vec![(1, 1), (5, 2)]);
    }

    #[test]
    fn ci_single_sample_has_no_interval() {
        // The t-interval is undefined for n = 1: the mean is reported but
        // no half width — a ±0 interval would claim impossible certainty.
        let s: SampleSet = [4.2].into_iter().collect();
        assert_eq!(s.mean_ci95(), Some((4.2, None)));
    }

    #[test]
    fn ci_known_value() {
        // n=5, sd=1, mean=0 → half width = 2.776 / sqrt(5) ≈ 1.2414
        let s: SampleSet = [-1.0, -1.0, 0.0, 1.0, 1.0].into_iter().collect();
        let (mean, half) = s.mean_ci95().unwrap();
        assert!(mean.abs() < 1e-12);
        let sd = s.stddev();
        let expect = 2.776 * sd / 5f64.sqrt();
        assert!((half.unwrap() - expect).abs() < 1e-9);
    }

    #[test]
    fn ci_large_n_uses_normal() {
        let s: SampleSet = (0..100).map(|i| (i % 2) as f64).collect();
        let (_, half) = s.mean_ci95().unwrap();
        let expect = 1.96 * s.stddev() / 10.0;
        assert!((half.unwrap() - expect).abs() < 1e-9);
    }

    #[test]
    fn identical_samples_zero_stddev() {
        let s: SampleSet = [3.0; 10].into_iter().collect();
        assert_eq!(s.stddev(), 0.0);
        let (m, h) = s.mean_ci95().unwrap();
        assert_eq!(m, 3.0);
        assert_eq!(h, Some(0.0));
    }

    #[test]
    fn empty_sample_set_returns_none() {
        let s = SampleSet::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.mean_ci95(), None);
        assert_eq!(s.stddev(), 0.0);
    }

    /// Differential check of the histogram percentile against a plain
    /// sorted-vector nearest-rank reference, across the full 0..=100 range
    /// including heavy ties — the rank formula must agree everywhere.
    #[test]
    fn histogram_percentile_matches_sorted_vector_reference() {
        fn reference(sorted: &[u64], p: u8) -> u64 {
            let n = sorted.len() as u64;
            let rank = ((p as u64 * n).div_ceil(100)).max(1);
            sorted[(rank - 1) as usize]
        }
        // A deterministic LCG produces value streams with many ties.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for &n in &[1usize, 2, 3, 7, 100, 101, 1000] {
            let mut h = Histogram::new();
            let mut values: Vec<u64> = Vec::with_capacity(n);
            for _ in 0..n {
                let v = next() % 17; // small modulus forces ties
                h.record(v);
                values.push(v);
            }
            values.sort_unstable();
            for p in 0..=100u8 {
                assert_eq!(h.percentile(p), Some(reference(&values, p)), "n={n} p={p}");
            }
        }
    }

    /// Differential check of the permille percentile (the p999 path)
    /// against the sorted-vector nearest-rank reference, across the full
    /// 0..=1000 range — extends the percent-granularity test above to the
    /// finer SLO grid, including populations around the 1000-observation
    /// boundary where p999 first distinguishes itself from p100.
    #[test]
    fn histogram_permille_matches_sorted_vector_reference() {
        fn reference(sorted: &[u64], p: u32) -> u64 {
            let n = sorted.len() as u64;
            let rank = ((p as u64 * n).div_ceil(1000)).max(1);
            sorted[(rank - 1) as usize]
        }
        let mut state = 0x9e37_79b9_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for &n in &[1usize, 2, 999, 1000, 1001, 4096] {
            let mut h = Histogram::new();
            let mut values: Vec<u64> = Vec::with_capacity(n);
            for _ in 0..n {
                let v = next() % 37;
                h.record(v);
                values.push(v);
            }
            values.sort_unstable();
            for p in 0..=1000u32 {
                assert_eq!(
                    h.percentile_permille(p),
                    Some(reference(&values, p)),
                    "n={n} p={p}"
                );
            }
            // Percent and permille grids must agree where they overlap.
            for p in 0..=100u8 {
                assert_eq!(
                    h.percentile(p),
                    h.percentile_permille(p as u32 * 10),
                    "n={n} p={p}"
                );
            }
        }
    }

    #[test]
    fn histogram_p999_separates_the_tail() {
        // 999 fast observations and one slow outlier: p99 (rank ceil(0.99
        // * 1000) = 990) stays fast, p999 (rank 999) stays fast, p1000
        // finds the outlier; with *two* outliers p999 catches the first.
        let mut h = Histogram::new();
        for _ in 0..999 {
            h.record(10);
        }
        h.record(5_000);
        assert_eq!(h.percentile_permille(990), Some(10));
        assert_eq!(h.percentile_permille(999), Some(10));
        assert_eq!(h.percentile_permille(1000), Some(5_000));
        h.record(6_000); // 1001 obs: rank ceil(999*1001/1000) = 1000 → 5000
        assert_eq!(h.percentile_permille(999), Some(5_000));
    }

    #[test]
    #[should_panic(expected = "permille must be 0..=1000")]
    fn histogram_permille_rejects_out_of_range() {
        let mut h = Histogram::new();
        h.record(1);
        let _ = h.percentile_permille(1001);
    }

    #[test]
    fn histogram_percentile_boundaries() {
        let mut h = Histogram::new();
        for v in [5, 5, 5, 9] {
            h.record(v);
        }
        assert_eq!(h.percentile(0), Some(5), "p=0 is the minimum");
        assert_eq!(h.percentile(100), Some(9), "p=100 is the maximum");
        // rank(75) = ceil(3.0) = 3 → still inside the tied run of 5s.
        assert_eq!(h.percentile(75), Some(5));
        // rank(76) = ceil(3.04) = 4 → the 9.
        assert_eq!(h.percentile(76), Some(9));
    }
}
