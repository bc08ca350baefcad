//! A generic set-associative cache array with LRU replacement.

use crate::addr::BlockAddr;

/// Geometry of a cache array.
///
/// ```
/// use ltse_mem::CacheConfig;
///
/// // The paper's 32 KB 4-way L1 with 64-byte blocks:
/// let l1 = CacheConfig::new(128, 4);
/// assert_eq!(l1.capacity_blocks(), 512);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or either dimension is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(ways > 0, "need at least one way");
        CacheConfig { sets, ways }
    }

    /// Total blocks the array can hold.
    pub fn capacity_blocks(&self) -> usize {
        self.sets * self.ways
    }
}

#[derive(Debug, Clone)]
struct Line<V> {
    block: BlockAddr,
    value: V,
    lru: u64,
}

/// A resident line's place in a [`SetAssocCache`]: what
/// [`SetAssocCache::find`] returns and [`SetAssocCache::touch`] takes, so an
/// access that reads a line and later updates it looks it up once. An
/// `insert` or `remove` on the array may move the ways of a set; `touch`
/// panics if the handle's way no longer holds its block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Way {
    set: u32,
    way: u32,
    block: BlockAddr,
}

/// A set-associative array mapping block addresses to per-line state, with
/// true-LRU replacement. Used for the L1 tag/state arrays and the L2 banks
/// (the TM crate's log filter is an array of its own).
///
/// ```
/// use ltse_mem::{BlockAddr, CacheConfig, SetAssocCache};
///
/// let mut c: SetAssocCache<char> = SetAssocCache::new(CacheConfig::new(2, 2));
/// assert_eq!(c.insert(BlockAddr(0), 'a'), None);
/// assert_eq!(c.insert(BlockAddr(2), 'b'), None); // same set as 0 (2 sets)
/// assert_eq!(c.get(&BlockAddr(0)), Some(&'a'));  // touch 0 → 2 becomes LRU
/// let evicted = c.insert(BlockAddr(4), 'c');     // set 0 full → evict 2
/// assert_eq!(evicted, Some((BlockAddr(2), 'b')));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<V> {
    config: CacheConfig,
    sets: Vec<Vec<Line<V>>>,
    /// Per-set MRU way hint. May be stale (ways move on `swap_remove`), so
    /// every use verifies the tag before trusting it; a wrong hint only
    /// costs the linear scan we would have done anyway.
    hints: Vec<u32>,
    tick: u64,
    set_mask: u64,
}

impl<V> SetAssocCache<V> {
    /// Creates an empty array with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        SetAssocCache {
            config,
            sets: (0..config.sets).map(|_| Vec::new()).collect(),
            hints: vec![0; config.sets],
            tick: 0,
            set_mask: config.sets as u64 - 1,
        }
    }

    /// The array's geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    #[inline]
    fn set_index(&self, block: BlockAddr) -> usize {
        (block.0 & self.set_mask) as usize
    }

    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Finds `block`'s way within `set`, trying the (tag-verified) MRU hint
    /// before falling back to a linear scan.
    #[inline]
    fn find_way(set: &[Line<V>], hint: u32, block: BlockAddr) -> Option<usize> {
        if let Some(l) = set.get(hint as usize) {
            if l.block == block {
                return Some(hint as usize);
            }
        }
        set.iter().position(|l| l.block == block)
    }

    /// Looks up a block without touching LRU state, returning its line's
    /// [`Way`] and value.
    #[inline]
    pub fn find(&self, block: BlockAddr) -> Option<(Way, &V)> {
        let idx = self.set_index(block);
        let set = &self.sets[idx];
        let way = Self::find_way(set, self.hints[idx], block)?;
        let handle = Way {
            set: idx as u32,
            way: way as u32,
            block,
        };
        Some((handle, &set[way].value))
    }

    /// Promotes the line at `way` to most-recently-used, exactly as
    /// [`SetAssocCache::get_mut`] on its block would, and returns its value.
    ///
    /// # Panics
    ///
    /// Panics if the line no longer holds the block `way` was found for (an
    /// `insert` or `remove` moved it).
    #[inline]
    pub fn touch(&mut self, way: Way) -> &mut V {
        let tick = self.bump();
        let idx = way.set as usize;
        self.hints[idx] = way.way;
        match self.sets[idx].get_mut(way.way as usize) {
            Some(line) if line.block == way.block => {
                line.lru = tick;
                &mut line.value
            }
            _ => panic!("stale way handle: block {:?} moved", way.block),
        }
    }

    /// Looks up a block without touching LRU state.
    pub fn peek(&self, block: &BlockAddr) -> Option<&V> {
        self.find(*block).map(|(_, v)| v)
    }

    /// Looks up a block, promoting it to most-recently-used.
    pub fn get(&mut self, block: &BlockAddr) -> Option<&V> {
        let tick = self.bump();
        let idx = self.set_index(*block);
        let way = Self::find_way(&self.sets[idx], self.hints[idx], *block)?;
        self.hints[idx] = way as u32;
        let line = &mut self.sets[idx][way];
        line.lru = tick;
        Some(&line.value)
    }

    /// Mutable lookup, promoting to most-recently-used.
    pub fn get_mut(&mut self, block: &BlockAddr) -> Option<&mut V> {
        let tick = self.bump();
        let idx = self.set_index(*block);
        let way = Self::find_way(&self.sets[idx], self.hints[idx], *block)?;
        self.hints[idx] = way as u32;
        let line = &mut self.sets[idx][way];
        line.lru = tick;
        Some(&mut line.value)
    }

    /// Whether the block is present (no LRU side effect).
    pub fn contains(&self, block: &BlockAddr) -> bool {
        self.peek(block).is_some()
    }

    /// Inserts (or replaces) a block, returning the LRU line evicted to make
    /// room, if any. Replacing an existing block never evicts.
    pub fn insert(&mut self, block: BlockAddr, value: V) -> Option<(BlockAddr, V)> {
        let tick = self.bump();
        let ways = self.config.ways;
        let idx = self.set_index(block);

        if let Some(way) = Self::find_way(&self.sets[idx], self.hints[idx], block) {
            self.hints[idx] = way as u32;
            let line = &mut self.sets[idx][way];
            line.value = value;
            line.lru = tick;
            return None;
        }
        let set = &mut self.sets[idx];

        let evicted = if set.len() == ways {
            let (victim_idx, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .expect("full set is nonempty");
            let victim = set.swap_remove(victim_idx);
            Some((victim.block, victim.value))
        } else {
            None
        };

        set.push(Line {
            block,
            value,
            lru: tick,
        });
        self.hints[idx] = (self.sets[idx].len() - 1) as u32;
        evicted
    }

    /// Removes a block, returning its state if present.
    pub fn remove(&mut self, block: &BlockAddr) -> Option<V> {
        let idx = self.set_index(*block);
        let set = &mut self.sets[idx];
        let pos = set.iter().position(|l| l.block == *block)?;
        Some(set.swap_remove(pos).value)
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.sets.iter().all(Vec::is_empty)
    }

    /// Drops every line.
    pub fn clear(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
    }

    /// Iterates over `(block, state)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &V)> {
        self.sets
            .iter()
            .flat_map(|s| s.iter().map(|l| (l.block, &l.value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u64) -> BlockAddr {
        BlockAddr(n)
    }

    #[test]
    fn insert_get_remove() {
        let mut c = SetAssocCache::new(CacheConfig::new(4, 2));
        assert!(c.insert(addr(1), 10).is_none());
        assert_eq!(c.get(&addr(1)), Some(&10));
        assert_eq!(c.remove(&addr(1)), Some(10));
        assert!(c.is_empty());
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = SetAssocCache::new(CacheConfig::new(1, 3));
        c.insert(addr(1), ());
        c.insert(addr(2), ());
        c.insert(addr(3), ());
        c.get(&addr(1)); // 2 is now LRU
        let ev = c.insert(addr(4), ());
        assert_eq!(ev, Some((addr(2), ())));
    }

    #[test]
    fn replace_existing_does_not_evict() {
        let mut c = SetAssocCache::new(CacheConfig::new(1, 2));
        c.insert(addr(1), 'a');
        c.insert(addr(2), 'b');
        assert!(c.insert(addr(1), 'z').is_none());
        assert_eq!(c.peek(&addr(1)), Some(&'z'));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = SetAssocCache::new(CacheConfig::new(2, 1));
        c.insert(addr(0), 'e'); // set 0
        c.insert(addr(1), 'o'); // set 1
        assert_eq!(c.len(), 2);
        // Same set as 0 → evicts only 0.
        let ev = c.insert(addr(2), 'x');
        assert_eq!(ev, Some((addr(0), 'e')));
        assert_eq!(c.peek(&addr(1)), Some(&'o'));
    }

    #[test]
    fn peek_does_not_touch_lru() {
        let mut c = SetAssocCache::new(CacheConfig::new(1, 2));
        c.insert(addr(1), ());
        c.insert(addr(2), ());
        c.peek(&addr(1)); // must NOT protect 1
        let ev = c.insert(addr(3), ());
        assert_eq!(ev, Some((addr(1), ())));
    }

    #[test]
    fn get_mut_updates_value() {
        let mut c = SetAssocCache::new(CacheConfig::new(2, 2));
        c.insert(addr(5), 1);
        *c.get_mut(&addr(5)).unwrap() += 10;
        assert_eq!(c.peek(&addr(5)), Some(&11));
    }

    #[test]
    fn capacity_and_fill() {
        let cfg = CacheConfig::new(8, 4);
        let mut c = SetAssocCache::new(cfg);
        for i in 0..cfg.capacity_blocks() as u64 {
            assert!(c.insert(addr(i), ()).is_none(), "no eviction while cold");
        }
        assert_eq!(c.len(), cfg.capacity_blocks());
        assert!(c.insert(addr(1000), ()).is_some());
    }

    #[test]
    fn iter_visits_everything() {
        let mut c = SetAssocCache::new(CacheConfig::new(4, 2));
        for i in 0..6u64 {
            c.insert(addr(i), i);
        }
        let mut blocks: Vec<u64> = c.iter().map(|(b, _)| b.0).collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn clear_resets() {
        let mut c = SetAssocCache::new(CacheConfig::new(2, 2));
        c.insert(addr(1), ());
        c.clear();
        assert!(c.is_empty());
        assert!(!c.contains(&addr(1)));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        CacheConfig::new(3, 1);
    }

    #[test]
    fn stale_mru_hint_is_harmless() {
        // swap_remove reorders ways, leaving the MRU hint pointing at a
        // different (or out-of-range) line; every lookup must still resolve
        // correctly through the tag check + fallback scan.
        let mut c = SetAssocCache::new(CacheConfig::new(1, 4));
        for i in 0..4u64 {
            c.insert(addr(i), i);
        }
        c.get(&addr(3)); // hint → way of 3
        c.remove(&addr(3)); // swap_remove: hint now stale
        for i in 0..3u64 {
            assert_eq!(c.get(&addr(i)), Some(&i));
            assert_eq!(c.peek(&addr(i)), Some(&i));
        }
        assert_eq!(c.get(&addr(3)), None);
        c.remove(&addr(0));
        c.remove(&addr(1));
        c.remove(&addr(2));
        assert!(c.is_empty());
        assert_eq!(c.peek(&addr(0)), None, "empty set with nonzero hint");
    }

    #[test]
    fn touch_promotes_like_get_mut() {
        let mut c = SetAssocCache::new(CacheConfig::new(1, 2));
        c.insert(addr(1), 'a');
        c.insert(addr(2), 'b');
        let (way, &v) = c.find(addr(1)).expect("resident");
        assert_eq!(v, 'a');
        *c.touch(way) = 'z'; // 2 is now LRU
        assert_eq!(c.insert(addr(3), 'c'), Some((addr(2), 'b')));
        assert_eq!(c.peek(&addr(1)), Some(&'z'));
        assert!(c.find(addr(2)).is_none());
    }

    #[test]
    #[should_panic(expected = "stale way handle")]
    fn touch_after_remove_moved_its_way_panics() {
        let mut c = SetAssocCache::new(CacheConfig::new(1, 3));
        for i in 1..=3u64 {
            c.insert(addr(i), i);
        }
        let (way, _) = c.find(addr(3)).expect("resident");
        c.remove(&addr(1)); // swap_remove moves 3 into 1's way
        c.touch(way);
    }

    #[test]
    #[should_panic(expected = "stale way handle")]
    fn touch_after_insert_evicted_its_line_panics() {
        let mut c = SetAssocCache::new(CacheConfig::new(1, 2));
        c.insert(addr(1), ());
        c.insert(addr(2), ());
        let (way, _) = c.find(addr(1)).expect("resident");
        c.insert(addr(3), ()); // evicts 1, the LRU line; 2 takes its way
        c.touch(way);
    }

    #[test]
    fn repeated_hits_use_hint_and_keep_lru_exact() {
        let mut c = SetAssocCache::new(CacheConfig::new(1, 3));
        c.insert(addr(1), ());
        c.insert(addr(2), ());
        c.insert(addr(3), ());
        // Repeated hits on 1 (hinted) must still record LRU promotions.
        for _ in 0..5 {
            assert!(c.get(&addr(1)).is_some());
        }
        c.get(&addr(3));
        let ev = c.insert(addr(4), ());
        assert_eq!(ev, Some((addr(2), ())), "2 is the true LRU victim");
    }
}
