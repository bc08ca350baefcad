//! [`SavedSignature`]: the software-visible form of a signature.

/// Saved signature state: plain, software-visible data.
///
/// Hashed signatures save their raw bit words; the idealized perfect
/// signature saves its exact element list. Either way the state is ordinary
/// memory the OS can park in a log frame — the property LogTM-SE's
/// virtualization story rests on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SavedSignature {
    /// Raw filter bits, packed into 64-bit words.
    Bits(Vec<u64>),
    /// Exact element list (perfect signatures only).
    Exact(Vec<u64>),
}
