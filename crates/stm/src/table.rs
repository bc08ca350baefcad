//! A lock-free, insert-only word store shared by every STM thread.
//!
//! The simulator models memory as a dense paged array; the STM runs on real
//! threads and only ever touches the sparse set of words a workload names, so
//! an open-addressing hash table of `AtomicU64` cells is enough. Keys are
//! word numbers (the same unit as [`ltse_mem::WordAddr`]); a key that was
//! never inserted reads as 0, matching the simulator's zero-filled memory.
//!
//! The table never resizes and never deletes: slots are claimed once with a
//! compare-and-swap on the key array and live for the table's lifetime. That
//! keeps every operation a plain atomic access — no epochs, no hazard
//! pointers, no `unsafe`. Capacity is fixed at construction; running out is
//! surfaced as an explicit error by the caller rather than a reallocation.
//!
//! # One probe per written word
//!
//! A committing writer probes each written word once, with
//! [`Table::reserve`], and writes back through the slot it returned
//! (`Table::store_at`). The probe loads each key before trying a CAS, so
//! the only read-modify-write a probe ever issues is the one that claims an
//! `EMPTY` slot for a word seen for the first time; finding a word that is
//! already present costs plain loads.
//!
//! # Memory orderings
//!
//! Key loads, the claiming CAS, value loads and the `used` counter are
//! `SeqCst`. The one weaker access is the value store, which is `Release`
//! (a plain `mov` on x86 rather than an `xchg`). The STM's read protocol
//! needs two things from it, and both follow from `Release` paired with
//! the reader's `SeqCst` (hence acquiring) loads:
//!
//! * A reader that loads a new value synchronizes with its store, so the
//!   writer's stripe-lock CAS, sequenced before the store, happens before
//!   the reader's re-sample of the stripe. The re-sample then sees the lock
//!   or a version stamped at or after the writer's unlock. A writer stores
//!   values only after it has validated, so it never restores the version
//!   the reader sampled first: the samples differ and the read aborts.
//! * A reader that sees the version stamped at unlock (itself a `Release`
//!   store, see `crate::core`) synchronizes with the unlock, so every value
//!   stored before the unlock is visible to its value load, and so is the
//!   key of every slot the writer claimed.

use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::{Release, SeqCst};

use ltse_sim::rng::mix64;

/// Sentinel meaning "slot unclaimed" in the key array. Stored keys are
/// `word + 1`, so word 0 is representable.
const EMPTY: u64 = 0;

/// Fixed-capacity concurrent word store. See the module docs for the design.
#[derive(Debug)]
pub struct Table {
    /// Claimed word numbers, offset by one (`EMPTY` = unclaimed).
    keys: Box<[AtomicU64]>,
    /// Word values, parallel to `keys`.
    vals: Box<[AtomicU64]>,
    /// `capacity - 1`; capacity is a power of two.
    mask: usize,
    /// Claimed-slot count (approximate during racing inserts, exact after).
    used: AtomicU64,
}

/// The table ran out of slots: a probe for a new key found every candidate
/// slot claimed by other keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableFull;

impl std::fmt::Display for TableFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("stm word table full: too many distinct addresses for the configured capacity")
    }
}

impl Table {
    /// A table with room for `slots` distinct words (rounded up to a power
    /// of two, minimum 8). The probe sequence degrades as the table fills;
    /// size generously — cells are two `u64`s each.
    pub fn new(slots: usize) -> Self {
        let cap = slots.max(8).next_power_of_two();
        Table {
            keys: (0..cap).map(|_| AtomicU64::new(EMPTY)).collect(),
            vals: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            mask: cap - 1,
            used: AtomicU64::new(0),
        }
    }

    /// Number of slots (a power of two).
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Distinct words ever stored (reads of absent words do not claim slots).
    pub fn used(&self) -> usize {
        self.used.load(SeqCst) as usize
    }

    /// Finds the slot holding `word`, if any. Reads never insert.
    fn probe(&self, word: u64) -> Option<usize> {
        let tag = word.wrapping_add(1);
        let mut ix = mix64(word) as usize & self.mask;
        for _ in 0..=self.mask {
            match self.keys[ix].load(SeqCst) {
                EMPTY => return None,
                k if k == tag => return Some(ix),
                _ => ix = (ix + 1) & self.mask,
            }
        }
        None
    }

    /// Finds or claims the slot for `word`. Each key is loaded before any
    /// CAS, so a word that is already present costs no read-modify-write.
    fn probe_insert(&self, word: u64) -> Result<usize, TableFull> {
        let tag = word.wrapping_add(1);
        let mut ix = mix64(word) as usize & self.mask;
        for _ in 0..=self.mask {
            let key = match self.keys[ix].load(SeqCst) {
                EMPTY => match self.keys[ix].compare_exchange(EMPTY, tag, SeqCst, SeqCst) {
                    Ok(_) => {
                        self.used.fetch_add(1, SeqCst);
                        return Ok(ix);
                    }
                    Err(k) => k,
                },
                k => k,
            };
            if key == tag {
                return Ok(ix);
            }
            ix = (ix + 1) & self.mask;
        }
        Err(TableFull)
    }

    /// Current value of `word` (0 if never written).
    pub fn load(&self, word: u64) -> u64 {
        match self.probe(word) {
            Some(ix) => self.vals[ix].load(SeqCst),
            None => 0,
        }
    }

    /// Ensures a slot exists for `word` without disturbing its value, and
    /// returns it: a freshly claimed slot holds 0, exactly what an absent
    /// key reads as. Writers call this *before* taking a commit timestamp
    /// so a mid-commit capacity failure aborts cleanly instead of tearing a
    /// write-back, then store through the returned slot.
    pub fn reserve(&self, word: u64) -> Result<usize, TableFull> {
        self.probe_insert(word)
    }

    /// Stores `value` into a slot returned by [`Table::reserve`].
    pub(crate) fn store_at(&self, slot: usize, value: u64) {
        self.vals[slot].store(value, Release);
    }

    /// Stores `value` into `word`, claiming a slot if needed.
    pub fn store(&self, word: u64, value: u64) -> Result<(), TableFull> {
        self.store_at(self.probe_insert(word)?, value);
        Ok(())
    }

    /// Every `(word, value)` pair ever stored, unordered. Post-run only:
    /// concurrent inserts may or may not appear.
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.used());
        for (k, v) in self.keys.iter().zip(self.vals.iter()) {
            let tag = k.load(SeqCst);
            if tag != EMPTY {
                out.push((tag.wrapping_sub(1), v.load(SeqCst)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_words_read_zero() {
        let t = Table::new(16);
        assert_eq!(t.load(0), 0);
        assert_eq!(t.load(u64::MAX), 0);
        assert_eq!(t.used(), 0, "reads never claim slots");
    }

    #[test]
    fn word_zero_is_representable() {
        let t = Table::new(16);
        t.store(0, 99).unwrap();
        assert_eq!(t.load(0), 99);
        assert_eq!(t.used(), 1);
    }

    #[test]
    fn store_then_load_roundtrips_many_words() {
        let t = Table::new(256);
        for w in 0..200u64 {
            t.store(w * 8, w + 1).unwrap();
        }
        for w in 0..200u64 {
            assert_eq!(t.load(w * 8), w + 1);
        }
        assert_eq!(t.used(), 200);
    }

    #[test]
    fn reserve_keeps_value_zero_and_overwrite_wins() {
        let t = Table::new(16);
        let slot = t.reserve(40).unwrap();
        assert_eq!(t.load(40), 0);
        assert_eq!(t.reserve(40), Ok(slot), "a present word keeps its slot");
        t.store_at(slot, 6);
        assert_eq!(t.load(40), 6);
        t.store(40, 7).unwrap();
        t.store(40, 8).unwrap();
        assert_eq!(t.load(40), 8);
        assert_eq!(t.used(), 1, "same word claims one slot");
    }

    #[test]
    fn capacity_exhaustion_is_an_error_not_a_panic() {
        let t = Table::new(8); // rounds to 8 slots
        for w in 0..8u64 {
            t.store(w, 1).unwrap();
        }
        assert_eq!(t.store(1000, 1), Err(TableFull));
        assert_eq!(t.reserve(1001), Err(TableFull));
        // Existing keys still work at full capacity.
        assert_eq!(t.load(3), 1);
        t.store(3, 5).unwrap();
        assert_eq!(t.load(3), 5);
    }

    #[test]
    fn snapshot_reports_every_stored_pair() {
        let t = Table::new(32);
        t.store(8, 1).unwrap();
        t.store(16, 2).unwrap();
        t.store(24, 3).unwrap();
        let mut snap = t.snapshot();
        snap.sort_unstable();
        assert_eq!(snap, vec![(8, 1), (16, 2), (24, 3)]);
    }

    #[test]
    fn concurrent_inserts_never_lose_slots() {
        let t = Table::new(1 << 10);
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..128u64 {
                        // Half shared keys, half private: exercises both CAS
                        // races on the same slot and disjoint claims.
                        t.store(i, tid + 1).unwrap();
                        t.store(1_000_000 + tid * 1000 + i, i).unwrap();
                    }
                });
            }
        });
        assert_eq!(t.used(), 128 + 4 * 128);
        for i in 0..128u64 {
            let v = t.load(i);
            assert!((1..=4).contains(&v), "shared key holds a writer's value");
        }
    }
}
