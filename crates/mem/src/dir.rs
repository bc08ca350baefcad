//! Per-block directory state embedded in the L2 tags.

use std::fmt;

/// A core identifier. `u16` so configurations up to [`MAX_CORES`] simulated
/// cores fit; the paper's CMP is 16–32, the scale sweeps go to 256.
pub type CoreId = u16;

/// Hard ceiling on simulated cores, set by the widest [`SharerSet`]
/// representation (1 inline word + 3 spilled words of 64 bits).
pub const MAX_CORES: usize = 64 * (1 + EXT_WORDS);

/// Spill words a [`SharerSet`] grows when a core id ≥ 64 appears.
const EXT_WORDS: usize = 3;

/// A set of sharer cores, optimized for the common case.
///
/// Directory sharer lists were a plain `u64` bitmask, which capped the
/// simulator at 64 contexts. `SharerSet` keeps that exact representation —
/// one inline word, no allocation, single-instruction membership ops — for
/// core ids below 64, and transparently spills to a boxed `[u64; 3]` the
/// first time a wider id is inserted, lifting the ceiling to [`MAX_CORES`]
/// while leaving the ≤64-core fast path untouched (narrow configurations
/// never allocate, even on 256-core-capable builds).
///
/// Equality ignores whether the spill exists: a set whose spill words are
/// all zero equals the never-spilled set with the same inline word.
#[derive(Debug, Clone, Default)]
pub struct SharerSet {
    /// Cores 0..64 (bit *i* ⇒ core *i*).
    word0: u64,
    /// Cores 64..[`MAX_CORES`], allocated lazily on first wide insert.
    ext: Option<Box<[u64; EXT_WORDS]>>,
}

impl SharerSet {
    /// The empty set.
    pub fn new() -> Self {
        SharerSet::default()
    }

    /// The set containing exactly `c`.
    pub fn single(c: CoreId) -> Self {
        let mut s = SharerSet::new();
        s.insert(c);
        s
    }

    #[inline]
    fn ext_word(&self, i: usize) -> u64 {
        self.ext.as_ref().map_or(0, |e| e[i])
    }

    /// Whether core `c` is in the set.
    #[inline]
    pub fn contains(&self, c: CoreId) -> bool {
        if c < 64 {
            self.word0 & (1u64 << c) != 0
        } else {
            debug_assert!((c as usize) < MAX_CORES);
            self.ext_word((c as usize - 64) / 64) & (1u64 << (c % 64)) != 0
        }
    }

    /// Inserts core `c`.
    #[inline]
    pub fn insert(&mut self, c: CoreId) {
        if c < 64 {
            self.word0 |= 1u64 << c;
        } else {
            assert!(
                (c as usize) < MAX_CORES,
                "core {c} exceeds MAX_CORES={MAX_CORES}"
            );
            let ext = self.ext.get_or_insert_with(|| Box::new([0; EXT_WORDS]));
            ext[(c as usize - 64) / 64] |= 1u64 << (c % 64);
        }
    }

    /// Removes core `c` (a no-op if absent).
    #[inline]
    pub fn remove(&mut self, c: CoreId) {
        if c < 64 {
            self.word0 &= !(1u64 << c);
        } else if let Some(ext) = self.ext.as_mut() {
            if (c as usize) < MAX_CORES {
                ext[(c as usize - 64) / 64] &= !(1u64 << (c % 64));
            }
        }
    }

    /// Removes every core *except* `c` (which is kept iff it was present):
    /// the "invalidate all other sharers" directory transition.
    pub fn retain_except(&mut self, c: CoreId) {
        let had = self.contains(c);
        self.word0 = 0;
        if let Some(ext) = self.ext.as_mut() {
            *ext.as_mut() = [0; EXT_WORDS];
        }
        if had {
            self.insert(c);
        }
    }

    /// Number of cores in the set.
    #[inline]
    pub fn count(&self) -> u32 {
        self.word0.count_ones()
            + self
                .ext
                .as_ref()
                .map_or(0, |e| e.iter().map(|w| w.count_ones()).sum())
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.word0 == 0 && self.ext.as_ref().is_none_or(|e| e.iter().all(|&w| w == 0))
    }

    /// Iterates core ids in ascending order, without allocating. The
    /// iterator is `Copy`, so multi-pass callers just reuse it.
    #[inline]
    pub fn iter(&self) -> SharerIter<'_> {
        SharerIter {
            cur: self.word0,
            base: 0,
            ext: self.ext.as_ref().map_or(&[], |e| &e[..]),
        }
    }
}

impl PartialEq for SharerSet {
    fn eq(&self, other: &Self) -> bool {
        self.word0 == other.word0 && (0..EXT_WORDS).all(|i| self.ext_word(i) == other.ext_word(i))
    }
}

impl Eq for SharerSet {}

impl FromIterator<CoreId> for SharerSet {
    fn from_iter<I: IntoIterator<Item = CoreId>>(iter: I) -> Self {
        let mut s = SharerSet::new();
        for c in iter {
            s.insert(c);
        }
        s
    }
}

impl fmt::Display for SharerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{c}")?;
        }
        f.write_str("}")
    }
}

/// Directory state for one block, stored alongside the block's L2 line
/// (the paper's inclusive L2 holds "a bit-vector of the L1 sharers and a
/// pointer to the exclusive copy").
///
/// **Sticky states are represented implicitly**: when an L1 evicts a block
/// in a transaction's read/write-set, the directory entry is simply *not
/// updated* (paper §5: "the L2 cache does not update the exclusive pointer
/// or sharer's list"), so `owner`/`sharers` keep naming the evicting core
/// and later requests are still forwarded there for signature checks. The
/// [`DirEntry::sticky`] flag records that this happened, for statistics and
/// for the sticky-ablation experiment.
///
/// A block whose directory state was lost to an L2 eviction has no entry
/// at all: the memory system marks it lost, and every request for it
/// broadcasts signature checks to all L1s until one succeeds and rebuilds
/// the entry (paper §5).
///
/// Sharer enumeration and forward-target computation are allocation-free
/// iterators over the bitmask — these run on every snooped coherence request,
/// so no `Vec` is built on the hot path.
///
/// ```
/// use ltse_mem::DirEntry;
///
/// let mut e = DirEntry::new();
/// e.add_sharer(3);
/// e.add_sharer(5);
/// assert_eq!(e.sharer_iter().collect::<Vec<_>>(), vec![3, 5]);
/// e.remove_sharer(3);
/// assert!(!e.is_sharer(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DirEntry {
    /// Core holding the block exclusively (E or M), if any.
    pub owner: Option<CoreId>,
    /// The cores holding the block shared.
    pub sharers: SharerSet,
    /// Whether this entry survived an L1 eviction of transactional data and
    /// therefore names at least one core that no longer caches the block.
    pub sticky: bool,
}

impl DirEntry {
    /// A fresh entry: uncached, no owner, no sharers.
    pub fn new() -> Self {
        DirEntry::default()
    }

    /// An entry owned exclusively by `core`.
    pub fn owned_by(core: CoreId) -> Self {
        DirEntry {
            owner: Some(core),
            ..DirEntry::default()
        }
    }

    /// Whether core `c` is marked as a sharer.
    #[inline]
    pub fn is_sharer(&self, c: CoreId) -> bool {
        self.sharers.contains(c)
    }

    /// Marks core `c` as a sharer.
    #[inline]
    pub fn add_sharer(&mut self, c: CoreId) {
        self.sharers.insert(c);
    }

    /// Clears core `c`'s sharer bit.
    #[inline]
    pub fn remove_sharer(&mut self, c: CoreId) {
        self.sharers.remove(c);
    }

    /// Iterates sharer core ids in ascending order, without allocating.
    #[inline]
    pub fn sharer_iter(&self) -> SharerIter<'_> {
        self.sharers.iter()
    }

    /// Number of sharers.
    #[inline]
    pub fn sharer_count(&self) -> u32 {
        self.sharers.count()
    }

    /// Whether no core is recorded as caching the block.
    #[inline]
    pub fn is_uncached(&self) -> bool {
        self.owner.is_none() && self.sharers.is_empty()
    }

    /// Every core this entry would forward a request to (owner first, then
    /// sharers in ascending order), excluding `except` and never naming the
    /// owner twice. Allocation-free; the iterator is `Copy`, so callers that
    /// need multiple passes just reuse it.
    #[inline]
    pub fn forward_targets(&self, except: CoreId) -> ForwardTargets<'_> {
        let owner = self.owner.filter(|&o| o != except);
        let skip_owner = self.owner;
        let mut remaining = owner.is_some() as usize;
        remaining += self
            .sharers
            .iter()
            .filter(|&c| c != except && Some(c) != skip_owner)
            .count();
        ForwardTargets {
            owner,
            sharers: self.sharers.iter(),
            except,
            skip_owner,
            remaining,
        }
    }
}

/// Allocation-free iterator over a [`SharerSet`], ascending. Borrows the
/// set's spill words (if any) but is `Copy`, so callers can run multiple
/// passes from one value.
#[derive(Debug, Clone, Copy)]
pub struct SharerIter<'a> {
    /// Remaining bits of the word currently being drained.
    cur: u64,
    /// Core id of bit 0 of `cur`.
    base: u16,
    /// Spill words not yet started (empty slice on the ≤64 fast path).
    ext: &'a [u64],
}

impl Iterator for SharerIter<'_> {
    type Item = CoreId;

    #[inline]
    fn next(&mut self) -> Option<CoreId> {
        while self.cur == 0 {
            let (&w, rest) = self.ext.split_first()?;
            self.cur = w;
            self.base += 64;
            self.ext = rest;
        }
        let c = self.base + self.cur.trailing_zeros() as u16;
        self.cur &= self.cur - 1;
        Some(c)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.cur.count_ones() as usize
            + self
                .ext
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>();
        (n, Some(n))
    }
}

impl ExactSizeIterator for SharerIter<'_> {}

/// Allocation-free iterator over a [`DirEntry`]'s forward targets: the owner
/// (if any and not excluded) first, then the remaining sharers ascending
/// (minus the excluded requester and the owner).
#[derive(Debug, Clone, Copy)]
pub struct ForwardTargets<'a> {
    owner: Option<CoreId>,
    sharers: SharerIter<'a>,
    except: CoreId,
    skip_owner: Option<CoreId>,
    remaining: usize,
}

impl ForwardTargets<'_> {
    /// Whether there are no targets at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining == 0
    }
}

impl Iterator for ForwardTargets<'_> {
    type Item = CoreId;

    #[inline]
    fn next(&mut self) -> Option<CoreId> {
        if let Some(o) = self.owner.take() {
            self.remaining -= 1;
            return Some(o);
        }
        for c in self.sharers.by_ref() {
            if c != self.except && Some(c) != self.skip_owner {
                self.remaining -= 1;
                return Some(c);
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for ForwardTargets<'_> {}

impl fmt::Display for DirEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dir{{owner:{:?}, sharers:{}{}}}",
            self.owner,
            self.sharers,
            if self.sticky { ", sticky" } else { "" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn sharer_bit_ops() {
        let mut e = DirEntry::new();
        assert!(e.is_uncached());
        e.add_sharer(0);
        e.add_sharer(31);
        assert!(e.is_sharer(0) && e.is_sharer(31));
        assert_eq!(e.sharer_count(), 2);
        e.remove_sharer(0);
        assert!(!e.is_sharer(0));
        assert_eq!(e.sharer_iter().collect::<Vec<_>>(), vec![31]);
    }

    #[test]
    fn sharer_bits_above_32_work() {
        let mut e = DirEntry::new();
        e.add_sharer(33);
        e.add_sharer(63);
        assert!(e.is_sharer(33) && e.is_sharer(63));
        assert_eq!(e.sharer_iter().collect::<Vec<_>>(), vec![33, 63]);
        assert_eq!(e.sharer_count(), 2);
    }

    #[test]
    fn owned_by_sets_owner() {
        let e = DirEntry::owned_by(7);
        assert_eq!(e.owner, Some(7));
        assert!(!e.is_uncached());
    }

    #[test]
    fn forward_targets_excludes_requester_and_dedups_owner() {
        let mut e = DirEntry::owned_by(2);
        e.add_sharer(2); // stale self-share; must not duplicate
        e.add_sharer(4);
        e.add_sharer(9);
        assert_eq!(e.forward_targets(4).collect::<Vec<_>>(), vec![2, 9]);
        assert_eq!(e.forward_targets(2).collect::<Vec<_>>(), vec![4, 9]);
    }

    #[test]
    fn forward_targets_is_empty_and_reusable() {
        let mut e = DirEntry::new();
        assert!(e.forward_targets(0).is_empty());
        e.add_sharer(5);
        let t = e.forward_targets(0);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 1);
        // `Copy` iterator: two passes over the same value.
        assert_eq!(t.collect::<Vec<_>>(), vec![5]);
        assert_eq!(t.collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn display_mentions_flags() {
        let mut e = DirEntry::new();
        e.sticky = true;
        assert!(e.to_string().contains("sticky"));
    }

    // --------------------------------------------------------------------
    // SharerSet at and beyond the 64-core boundary: exhaustive differential
    // tests against a BTreeSet reference model (the semantics the old u64
    // fast path had, extended to MAX_CORES).
    // --------------------------------------------------------------------

    /// Deterministic hash-ish stream, so the differential tests need no RNG
    /// dependency and always replay the same way.
    fn scramble(x: u64) -> u64 {
        let mut v = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        v ^= v >> 29;
        v = v.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        v ^ (v >> 32)
    }

    const WIDTHS: [u16; 5] = [63, 64, 65, 128, 256];

    #[test]
    fn sharerset_differential_insert_remove_contains() {
        for &width in &WIDTHS {
            let mut set = SharerSet::new();
            let mut reference: BTreeSet<CoreId> = BTreeSet::new();
            for step in 0..2_000u64 {
                let r = scramble(width as u64 * 1_000_003 + step);
                let c = (r % width as u64) as CoreId;
                match (r >> 32) % 3 {
                    0 => {
                        set.insert(c);
                        reference.insert(c);
                    }
                    1 => {
                        set.remove(c);
                        reference.remove(&c);
                    }
                    _ => assert_eq!(
                        set.contains(c),
                        reference.contains(&c),
                        "width={width} step={step}"
                    ),
                }
                assert_eq!(
                    set.count() as usize,
                    reference.len(),
                    "width={width} step={step}"
                );
                assert_eq!(set.is_empty(), reference.is_empty());
            }
            // Iterator order is ascending and complete.
            let got: Vec<CoreId> = set.iter().collect();
            let want: Vec<CoreId> = reference.iter().copied().collect();
            assert_eq!(got, want, "width={width}");
            assert_eq!(set.iter().len(), want.len(), "exact size, width={width}");
        }
    }

    #[test]
    fn sharerset_boundary_bits_exact() {
        // Every core id in a window across the u64 boundary, individually.
        for c in 60..70u16 {
            let s = SharerSet::single(c);
            assert!(s.contains(c), "core {c}");
            assert_eq!(s.count(), 1);
            assert_eq!(s.iter().collect::<Vec<_>>(), vec![c]);
            for other in 0..(MAX_CORES as u16) {
                assert_eq!(s.contains(other), other == c, "core {c} vs {other}");
            }
        }
        // The last representable core.
        let last = (MAX_CORES - 1) as u16;
        let mut s = SharerSet::single(last);
        assert!(s.contains(last));
        s.remove(last);
        assert!(s.is_empty());
    }

    #[test]
    fn sharerset_equality_ignores_spill_allocation() {
        // A set that grew a spill and then lost its wide members must equal
        // the never-spilled set (directory entries get compared in tests and
        // differential checks; allocation history is not state).
        let mut wide = SharerSet::single(5);
        wide.insert(200);
        wide.remove(200);
        let narrow = SharerSet::single(5);
        assert_eq!(wide, narrow);
        assert_eq!(narrow, wide);
        assert_ne!(SharerSet::single(70), SharerSet::single(6));
    }

    #[test]
    fn sharerset_retain_except_edges() {
        for &width in &WIDTHS {
            // Build {0, 1, boundary-straddling ids, width-1}.
            let members: Vec<CoreId> = [0, 1, 63, 64, 65, width - 1]
                .iter()
                .copied()
                .filter(|&c| c < width)
                .collect();
            for &keep in &members {
                let mut s: SharerSet = members.iter().copied().collect();
                s.retain_except(keep);
                assert_eq!(
                    s.iter().collect::<Vec<_>>(),
                    vec![keep],
                    "width={width} keep={keep}"
                );
            }
            // Retaining an absent core empties the set.
            let mut s: SharerSet = members.iter().copied().collect();
            s.retain_except(2); // 2 is never a member
            assert!(s.is_empty(), "width={width}");
        }
    }

    #[test]
    fn wide_forward_targets_and_iteration_order() {
        for &width in &WIDTHS {
            let mut e = DirEntry::owned_by(width - 1);
            let members: Vec<CoreId> = (0..width).filter(|c| c % 7 == 3).collect();
            for &c in &members {
                e.add_sharer(c);
            }
            e.add_sharer(width - 1); // stale self-share: must dedup vs owner
                                     // Owner first, then ascending sharers minus owner and requester.
            let except = members.first().copied().unwrap_or(0);
            let got: Vec<CoreId> = e.forward_targets(except).collect();
            let mut want = vec![width - 1];
            want.extend(
                members
                    .iter()
                    .copied()
                    .filter(|&c| c != except && c != width - 1),
            );
            assert_eq!(got, want, "width={width}");
            let t = e.forward_targets(except);
            assert_eq!(t.len(), want.len(), "exact size, width={width}");
            assert!(!t.is_empty());
            // Two passes over the Copy iterator agree.
            assert_eq!(
                t.collect::<Vec<_>>(),
                t.collect::<Vec<_>>(),
                "width={width}"
            );
        }
    }

    #[test]
    fn narrow_sets_never_allocate_spill() {
        let mut s = SharerSet::new();
        for c in 0..64u16 {
            s.insert(c);
        }
        assert!(s.ext.is_none(), "≤64-core path must stay allocation-free");
        assert_eq!(s.count(), 64);
        s.remove(63);
        assert!(s.ext.is_none());
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_CORES")]
    fn insert_beyond_max_cores_panics() {
        SharerSet::new().insert(MAX_CORES as u16);
    }
}
