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

impl SavedSignature {
    /// Size of the saved representation in bytes, used to account for log
    /// frame header space.
    pub fn size_bytes(&self) -> usize {
        match self {
            SavedSignature::Bits(ws) => ws.len() * 8,
            SavedSignature::Exact(es) => es.len() * 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saved_signature_sizes() {
        assert_eq!(SavedSignature::Bits(vec![0; 32]).size_bytes(), 256);
        assert_eq!(SavedSignature::Exact(vec![1, 2, 3]).size_bytes(), 24);
    }
}
