//! The flat simulated memory contents.
//!
//! Because the memory system resolves coherence atomically (DESIGN.md), data
//! values are always globally consistent and can live in one flat store.
//! Caches model tags/state for timing and protocol behaviour only. Eager
//! version management still works exactly as in the paper: new values go *in
//! place* (straight into this store) and old values are saved in the
//! transaction's log (by the TM crate) before the first transactional
//! overwrite.
//!
//! The words sit in a `HashMap` hashed with the crate's `AddrHasher`
//! (a `mix64` finish, not SipHash): every simulated load and store probes
//! it, and every key is an address the simulator generated itself. Hash
//! order is never observable — the only iteration, [`MemStore::iter_sorted`],
//! sorts by address first.

use std::collections::HashMap;

use crate::addr::{AddrBuildHasher, WordAddr};

/// Word-addressable simulated memory. Unwritten words read as zero.
///
/// ```
/// use ltse_mem::{MemStore, WordAddr};
///
/// let mut m = MemStore::new();
/// assert_eq!(m.read(WordAddr(64)), 0);
/// m.write(WordAddr(64), 7);
/// assert_eq!(m.read(WordAddr(64)), 7);
/// ```
#[derive(Clone, Default)]
pub struct MemStore {
    words: HashMap<u64, u64, AddrBuildHasher>,
}

/// Renders the nonzero words in **address order**. The backing map's
/// iteration order follows its hash layout, not the addresses, so a derived
/// `Debug` would depend on insertion history and anything quoting it in a
/// report or failure message could break byte-identical repro output.
impl std::fmt::Debug for MemStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter_sorted()).finish()
    }
}

impl MemStore {
    /// Creates an all-zero memory.
    pub fn new() -> Self {
        MemStore::default()
    }

    /// Reads one word (zero if never written).
    #[inline]
    pub fn read(&self, addr: WordAddr) -> u64 {
        self.words.get(&addr.0).copied().unwrap_or(0)
    }

    /// Writes one word in place.
    #[inline]
    pub fn write(&mut self, addr: WordAddr, value: u64) {
        if value == 0 {
            self.words.remove(&addr.0);
        } else {
            self.words.insert(addr.0, value);
        }
    }

    /// Number of nonzero words (diagnostics only).
    pub fn nonzero_words(&self) -> usize {
        self.words.len()
    }

    /// The nonzero words in **ascending address order** — the only iteration
    /// this type exposes. Dumps, fingerprints, and divergence reports must
    /// come through here: the backing `HashMap`'s own order follows its hash
    /// layout and would leak insertion history into any output built from it.
    pub fn iter_sorted(&self) -> impl Iterator<Item = (WordAddr, u64)> + '_ {
        let mut entries: Vec<(u64, u64)> = self.words.iter().map(|(&a, &v)| (a, v)).collect();
        entries.sort_unstable_by_key(|&(a, _)| a);
        entries.into_iter().map(|(a, v)| (WordAddr(a), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_default() {
        let m = MemStore::new();
        assert_eq!(m.read(WordAddr(12345)), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = MemStore::new();
        m.write(WordAddr(1), 42);
        m.write(WordAddr(2), 43);
        assert_eq!(m.read(WordAddr(1)), 42);
        assert_eq!(m.read(WordAddr(2)), 43);
    }

    #[test]
    fn writing_zero_reclaims() {
        let mut m = MemStore::new();
        m.write(WordAddr(1), 42);
        m.write(WordAddr(1), 0);
        assert_eq!(m.nonzero_words(), 0);
        assert_eq!(m.read(WordAddr(1)), 0);
    }

    #[test]
    fn debug_and_iteration_are_sorted_regardless_of_insert_order() {
        // Two stores with the same contents inserted in opposite orders
        // (enough keys that HashMap bucket layout would differ) must render
        // identically and iterate in ascending address order.
        let addrs: Vec<u64> = (0..64).map(|i| (i * 0x9E37) % 4096).collect();
        let mut a = MemStore::new();
        let mut b = MemStore::new();
        for &x in &addrs {
            a.write(WordAddr(x), x + 1);
        }
        for &x in addrs.iter().rev() {
            b.write(WordAddr(x), x + 1);
        }
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let seq: Vec<u64> = a.iter_sorted().map(|(addr, _)| addr.0).collect();
        let mut sorted = seq.clone();
        sorted.sort_unstable();
        assert_eq!(seq, sorted, "iter_sorted must ascend");
        assert_eq!(seq.len(), a.nonzero_words());
    }
}
