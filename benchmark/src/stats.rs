//! Order statistics and the output digest.

/// Median, first and third quartile of a sample, computed the way Python's
/// `statistics.median` and `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method) do, so the numbers printed here match the ones a
/// reader recomputes from the raw values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    /// `None` for an empty sample. A single value is its own quartiles.
    pub fn of(values: &[f64]) -> Option<Quartiles> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = match n {
            0 => return None,
            _ if n % 2 == 1 => v[n / 2],
            _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        };
        if n == 1 {
            return Some(Quartiles {
                q1: median,
                median,
                q3: median,
                n,
            });
        }
        let cut = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Some(Quartiles {
            q1: cut(1),
            median,
            q3: cut(3),
            n,
        })
    }
}

/// 64-bit FNV-1a, the digest `golden.json` records per workload.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v).unwrap();
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([4, 1], n=4) == [0.25, 2.5, 4.75]
        let q = Quartiles::of(&[4.0, 1.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (0.25, 2.5, 4.75));
    }

    #[test]
    fn quartiles_of_tiny_samples() {
        assert_eq!(Quartiles::of(&[]), None);
        let q = Quartiles::of(&[7.5]).unwrap();
        assert_eq!((q.q1, q.median, q.q3, q.n), (7.5, 7.5, 7.5, 1));
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::default().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv::default().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
        // Feeding in pieces is the same as feeding at once.
        let mut split = Fnv::default();
        split.bytes(b"foo").bytes(b"bar");
        assert_eq!(split.finish(), 0x8594_4171_f739_67e8);
        assert_eq!(
            Fnv::default().u64(1).finish(),
            Fnv::default().bytes(&[1, 0, 0, 0, 0, 0, 0, 0]).finish()
        );
    }
}
