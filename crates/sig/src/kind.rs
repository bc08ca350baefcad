//! Run-time signature configuration.

/// Which signature implementation a system is configured with, and its size.
///
/// These correspond to the bars of the paper's Figure 4: `Perfect` ("P"),
/// `BitSelect { bits: 2048 }` ("BS"), `CoarseBitSelect { bits: 2048, .. }`
/// ("CBS"), `DoubleBitSelect { bits: 2048 }` ("DBS") and
/// `BitSelect { bits: 64 }` ("BS_64"). [`crate::SigRepr::new`] builds a
/// signature of a kind.
///
/// ```
/// use ltse_sig::{SigRepr, SignatureKind};
///
/// let kind = SignatureKind::paper_bs_2kb();
/// let mut sig = SigRepr::new(&kind);
/// sig.insert_block(7);
/// assert!(sig.test_block(7));
/// assert_eq!(sig.bits_len(), 2048);
/// assert_eq!(kind.label(), "BS_2048");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignatureKind {
    /// Exact sets; the unimplementable upper bound ("P").
    Perfect,
    /// Bit-select over the low address bits ("BS").
    BitSelect {
        /// Total filter bits (power of two).
        bits: usize,
    },
    /// Bit-select at macroblock granularity ("CBS").
    CoarseBitSelect {
        /// Total filter bits (power of two).
        bits: usize,
        /// Cache blocks per macroblock (power of two); the paper uses 16
        /// (1 KB macroblocks of 64-byte blocks).
        blocks_per_macroblock: u64,
    },
    /// Two-field decode into two halves ("DBS").
    DoubleBitSelect {
        /// Total filter bits (power of two).
        bits: usize,
    },
}

impl SignatureKind {
    /// The paper's 2 Kb bit-select configuration.
    pub fn paper_bs_2kb() -> Self {
        SignatureKind::BitSelect { bits: 2048 }
    }

    /// The paper's 2 Kb coarse-bit-select configuration (1 KB macroblocks).
    pub fn paper_cbs_2kb() -> Self {
        SignatureKind::CoarseBitSelect {
            bits: 2048,
            blocks_per_macroblock: 16,
        }
    }

    /// The paper's 2 Kb double-bit-select configuration.
    pub fn paper_dbs_2kb() -> Self {
        SignatureKind::DoubleBitSelect { bits: 2048 }
    }

    /// The paper's 64-bit bit-select configuration ("BS_64").
    pub fn paper_bs_64() -> Self {
        SignatureKind::BitSelect { bits: 64 }
    }

    /// All configurations of the paper's Figure 4, in bar order after the
    /// lock baseline: P, BS, CBS, DBS, BS_64.
    pub fn figure4_set() -> Vec<SignatureKind> {
        vec![
            SignatureKind::Perfect,
            Self::paper_bs_2kb(),
            Self::paper_cbs_2kb(),
            Self::paper_dbs_2kb(),
            Self::paper_bs_64(),
        ]
    }

    /// A short stable label for tables and bench ids (e.g. `"BS_2048"`).
    pub fn label(&self) -> String {
        match *self {
            SignatureKind::Perfect => "Perfect".to_string(),
            SignatureKind::BitSelect { bits } => format!("BS_{bits}"),
            SignatureKind::CoarseBitSelect { bits, .. } => format!("CBS_{bits}"),
            SignatureKind::DoubleBitSelect { bits } => format!("DBS_{bits}"),
        }
    }
}

impl std::fmt::Display for SignatureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SigRepr;

    #[test]
    fn builds_every_kind() {
        for kind in [
            SignatureKind::Perfect,
            SignatureKind::paper_bs_2kb(),
            SignatureKind::paper_cbs_2kb(),
            SignatureKind::paper_dbs_2kb(),
            SignatureKind::paper_bs_64(),
        ] {
            let mut s = SigRepr::new(&kind);
            assert!(s.is_clear());
            s.insert_block(123);
            assert!(s.test_block(123), "{kind}");
        }
    }

    #[test]
    fn figure4_set_matches_paper_bars() {
        let set = SignatureKind::figure4_set();
        assert_eq!(set.len(), 5);
        assert_eq!(set[0].label(), "Perfect");
        assert_eq!(set[1].label(), "BS_2048");
        assert_eq!(set[2].label(), "CBS_2048");
        assert_eq!(set[3].label(), "DBS_2048");
        assert_eq!(set[4].label(), "BS_64");
    }

    #[test]
    fn storage_bits_reported() {
        let bits = |kind: SignatureKind| SigRepr::new(&kind).bits_len();
        assert_eq!(bits(SignatureKind::Perfect), 0);
        assert_eq!(bits(SignatureKind::paper_bs_2kb()), 2048);
        assert_eq!(bits(SignatureKind::paper_bs_64()), 64);
    }

    #[test]
    fn display_matches_label() {
        let k = SignatureKind::DoubleBitSelect { bits: 256 };
        assert_eq!(k.to_string(), k.label());
    }
}
