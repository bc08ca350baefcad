//! Read/write-set signatures for LogTM-SE.
//!
//! A *signature* conservatively summarizes a set of block-aligned physical
//! addresses (paper §2, "Tracking Read- and Write-Sets with Signatures").
//! It supports the paper's three operations:
//!
//! * `INSERT(O, A)` — [`SigRepr::insert_block`]
//! * `CONFLICT(O, A)` — [`SigRepr::test_block`] composed per access kind by
//!   [`ReadWriteSignature::conflicts_with`]
//! * `CLEAR(O)` — [`SigRepr::clear_all`]
//!
//! Lookups may return **false positives** (report a conflict where none
//! exists) but never false negatives — this asymmetry is what makes small
//! signatures safe and is the root cause of the performance effects the
//! paper studies in Table 3.
//!
//! [`SigRepr`] is the one signature type: an enum with one variant per
//! kind, built from a [`SignatureKind`] by [`SigRepr::new`]. The kinds are
//! the four the paper evaluates (Figure 3, Figure 4, Table 3):
//!
//! * `Perfect` — exact sets; the paper's idealized "P" configuration.
//! * `BitSelect` — "BS": decode the `n` least-significant bits of the block
//!   address.
//! * `CoarseBitSelect` — "CBS": bit-select at macroblock (e.g. 1 KB)
//!   granularity, targeting large transactions.
//! * `DoubleBitSelect` — "DBS": decode two address fields into two
//!   signature halves; conflict only when *both* bits are set.
//!
//! Supporting types:
//!
//! * [`ReadWriteSignature`] — the paired read/write signatures each thread
//!   context owns, with the paper's conflict semantics.
//! * [`CountingSignature`] — the OS-side counting structure that maintains
//!   per-process summary signatures (paper §4.1 footnote, citing VTM's XF).
//!   A summary signature is an ordinary [`SigRepr`] pair, rebuilt from the
//!   counts by [`CountingSignature::materialize`].
//! * [`ShadowedRwSignature`] — pairs a hashed signature with exact shadow
//!   sets to classify each reported conflict as a true hit or a false
//!   positive (regenerates the paper's Table 3 "False Positive %" columns);
//!   a perfect signature is its own shadow.
//! * [`SavedSignature`] — a signature's software-visible saved state.
//!
//! Addresses passed to this crate are **block numbers** (byte address divided
//! by the 64-byte block size), not raw byte addresses.
//!
//! # Example
//!
//! ```
//! use ltse_sig::{SignatureKind, SigOp, ReadWriteSignature};
//!
//! // A 2 Kb bit-select signature pair, as in the paper's Figure 4.
//! let mut rw = ReadWriteSignature::new(&SignatureKind::BitSelect { bits: 2048 });
//! rw.insert(SigOp::Read, 0x40);
//! rw.insert(SigOp::Write, 0x80);
//!
//! // A remote GETM (write) conflicts with our read- AND write-sets:
//! assert!(rw.conflicts_with(SigOp::Write, 0x40));
//! // A remote GETS (read) conflicts only with our write-set:
//! assert!(!rw.conflicts_with(SigOp::Read, 0x40));
//! assert!(rw.conflicts_with(SigOp::Read, 0x80));
//!
//! rw.clear();
//! assert!(!rw.conflicts_with(SigOp::Write, 0x40));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
mod counting;
mod kind;
mod perfect;
mod repr;
mod rw;
mod shadow;
mod traits;

pub use bits::SigBits;
pub use counting::CountingSignature;
pub use kind::SignatureKind;
pub use perfect::PerfectSignature;
pub use repr::SigRepr;
pub use rw::{ReadWriteSignature, SigOp};
pub use shadow::{ConflictVerdict, ShadowedRwSignature, ShadowedSave};
pub use traits::SavedSignature;
