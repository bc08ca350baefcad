//! Address types: words, 64-byte blocks, 4 KB pages, address-space ids,
//! and the hasher the memory system's address-keyed maps use.

use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use ltse_sim::rng::mix64;

/// Bytes per cache block (the paper's Table 1: 64-byte blocks everywhere).
pub const BLOCK_BYTES: u64 = 64;

/// 64-bit words per cache block.
pub const WORDS_PER_BLOCK: u64 = BLOCK_BYTES / 8;

/// Cache blocks per 4 KB virtual-memory page.
pub const BLOCKS_PER_PAGE: u64 = 4096 / BLOCK_BYTES;

/// A block-aligned physical address, expressed as a *block number* (byte
/// address / 64). Signatures, caches and the directory all operate at this
/// granularity, exactly as in the paper.
///
/// ```
/// use ltse_mem::{BlockAddr, WordAddr};
///
/// let w = WordAddr(8); // the 9th 64-bit word of memory
/// assert_eq!(w.block(), BlockAddr(1));
/// assert_eq!(BlockAddr(1).first_word(), WordAddr(8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(pub u64);

impl BlockAddr {
    /// The page containing this block.
    #[inline]
    pub fn page(self) -> PageId {
        PageId(self.0 / BLOCKS_PER_PAGE)
    }

    /// Block offset within its page (`0..BLOCKS_PER_PAGE`).
    #[inline]
    pub fn page_offset(self) -> u64 {
        self.0 % BLOCKS_PER_PAGE
    }

    /// First word of this block.
    #[inline]
    pub fn first_word(self) -> WordAddr {
        WordAddr(self.0 * WORDS_PER_BLOCK)
    }

    /// The raw block number, e.g. for signature insertion.
    #[inline]
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk:{:#x}", self.0)
    }
}

/// A 64-bit-word-aligned address, expressed as a word number (byte
/// address / 8). Simulated loads and stores move one word; the memory system
/// operates on the containing block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WordAddr(pub u64);

impl WordAddr {
    /// The block containing this word.
    #[inline]
    pub fn block(self) -> BlockAddr {
        BlockAddr(self.0 / WORDS_PER_BLOCK)
    }

    /// Word offset within its block (`0..WORDS_PER_BLOCK`).
    #[inline]
    pub fn block_offset(self) -> u64 {
        self.0 % WORDS_PER_BLOCK
    }

    /// The raw word number.
    #[inline]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// The word `n` words after this one.
    #[inline]
    pub fn offset(self, n: u64) -> WordAddr {
        WordAddr(self.0 + n)
    }
}

impl fmt::Display for WordAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w:{:#x}", self.0)
    }
}

/// A 4 KB physical page number. Paging (paper §4.2) relocates a page: all
/// blocks of page P move to page P'.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageId(pub u64);

impl PageId {
    /// First block of this page.
    #[inline]
    pub fn first_block(self) -> BlockAddr {
        BlockAddr(self.0 * BLOCKS_PER_PAGE)
    }

    /// The `i`-th block of this page.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `i >= BLOCKS_PER_PAGE`.
    #[inline]
    pub fn block(self, i: u64) -> BlockAddr {
        debug_assert!(i < BLOCKS_PER_PAGE);
        BlockAddr(self.0 * BLOCKS_PER_PAGE + i)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pg:{:#x}", self.0)
    }
}

/// An address-space identifier. The paper adds an ASID to all coherence
/// requests so that signature aliasing cannot create false conflicts
/// *between processes* (§2): a request is NACKed only if the signature hits
/// **and** the ASIDs match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Asid(pub u16);

impl fmt::Display for Asid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "asid:{}", self.0)
    }
}

/// Hasher for maps and sets keyed by simulated addresses: it keeps the
/// last `u64` written and [`mix64`]es it on `finish`, one multiply-xor
/// chain in place of SipHash on every simulated word access.
///
/// Only for keys the simulator generates itself. No flag or config supplies
/// an address, so nobody outside the process can pick colliding keys; a
/// collision could only slow the caller's own simulation. The maps using it
/// are only probed, or have their keys sorted before any output (the
/// serializability oracle's final sweep), so its order reaches no report.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = x;
    }

    fn finish(&self) -> u64 {
        mix64(self.0)
    }
}

/// `BuildHasher` for [`AddrHasher`]-keyed collections.
pub(crate) type AddrBuildHasher = BuildHasherDefault<AddrHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_block_roundtrip() {
        for w in [0u64, 7, 8, 63, 64, 1000] {
            let wa = WordAddr(w);
            let b = wa.block();
            assert!(b.first_word().as_u64() <= w);
            assert!(w < b.first_word().as_u64() + WORDS_PER_BLOCK);
            assert_eq!(b.first_word().as_u64() + wa.block_offset(), w);
        }
    }

    #[test]
    fn block_page_roundtrip() {
        let b = BlockAddr(BLOCKS_PER_PAGE * 3 + 5);
        assert_eq!(b.page(), PageId(3));
        assert_eq!(b.page_offset(), 5);
        assert_eq!(b.page().block(b.page_offset()), b);
    }

    #[test]
    fn page_first_block() {
        assert_eq!(PageId(0).first_block(), BlockAddr(0));
        assert_eq!(PageId(2).first_block(), BlockAddr(2 * BLOCKS_PER_PAGE));
    }

    #[test]
    fn constants_consistent() {
        assert_eq!(BLOCK_BYTES, 64);
        assert_eq!(WORDS_PER_BLOCK, 8);
        assert_eq!(BLOCKS_PER_PAGE, 64);
    }

    #[test]
    fn display_forms() {
        assert_eq!(BlockAddr(16).to_string(), "blk:0x10");
        assert_eq!(WordAddr(8).to_string(), "w:0x8");
        assert_eq!(PageId(1).to_string(), "pg:0x1");
        assert_eq!(Asid(3).to_string(), "asid:3");
    }

    #[test]
    fn word_offset() {
        assert_eq!(WordAddr(10).offset(5), WordAddr(15));
    }
}
