//! Property-based protocol tests: arbitrary access interleavings must
//! uphold the MESI single-writer/multi-reader invariant under both
//! coherence substrates, with and without transactional (sticky) blocks.
//! Randomized deterministically through `ltse_sim::check`.

use ltse_sim::check::{cases, vec_of};
use ltse_sim::rng::Xoshiro256StarStar;

use ltse_mem::{
    AccessKind, AccessOutcome, BlockAddr, CacheConfig, CoherenceKind, ConflictOracle, MemConfig,
    MemorySystem, NullOracle, SetAssocCache, Way,
};

#[derive(Debug, Clone)]
struct Access {
    ctx: u32,
    store: bool,
    block: u64,
}

fn accesses(rng: &mut Xoshiro256StarStar, n_ctxs: u32, blocks: u64) -> Vec<Access> {
    vec_of(rng, 1, 200, |r| Access {
        ctx: r.gen_range(0, n_ctxs as u64) as u32,
        store: r.gen_bool(0.5),
        block: r.gen_range(0, blocks),
    })
}

/// MESI's fundamental safety property over the simulated L1s.
fn assert_mesi_invariant(m: &MemorySystem, blocks: u64) {
    for b in 0..blocks {
        let block = BlockAddr(b);
        let mut exclusive_holders = 0;
        let mut shared_holders = 0;
        for c in 0..m.config().n_cores {
            match m.l1_state_str(c, block) {
                "M" | "E" => exclusive_holders += 1,
                "S" => shared_holders += 1,
                _ => {}
            }
        }
        assert!(
            exclusive_holders <= 1,
            "block {b}: {exclusive_holders} exclusive holders"
        );
        assert!(
            exclusive_holders == 0 || shared_holders == 0,
            "block {b}: M/E coexists with S copies"
        );
    }
}

#[test]
fn mesi_invariant_holds_under_directory() {
    cases(48, 0xD12EC7, |rng| {
        let seq = accesses(rng, 8, 24);
        let mut m = MemorySystem::new(MemConfig::small_for_tests());
        for a in &seq {
            let out = m.access(
                a.ctx,
                if a.store { AccessKind::Store } else { AccessKind::Load },
                BlockAddr(a.block),
                &NullOracle,
            );
            assert!(out.is_done(), "no transactions ⇒ no NACKs");
            assert_mesi_invariant(&m, 24);
        }
    });
}

#[test]
fn mesi_invariant_holds_under_snooping() {
    cases(48, 0x5700D, |rng| {
        let seq = accesses(rng, 8, 24);
        let mut cfg = MemConfig::small_for_tests();
        cfg.coherence = CoherenceKind::SnoopingMesi;
        let mut m = MemorySystem::new(cfg);
        for a in &seq {
            let out = m.access(
                a.ctx,
                if a.store { AccessKind::Store } else { AccessKind::Load },
                BlockAddr(a.block),
                &NullOracle,
            );
            assert!(out.is_done());
            assert_mesi_invariant(&m, 24);
        }
    });
}

#[test]
fn nacks_never_mutate_protocol_state() {
    // An oracle that NACKs every access to the guarded blocks from
    // anyone but context 0, and treats them as transactional.
    #[derive(Debug)]
    struct Guard(Vec<u64>);
    impl ConflictOracle for Guard {
        fn check_core(&self, core: u16, _k: AccessKind, b: BlockAddr, req: u32) -> Option<u32> {
            (core == 0 && req != 0 && self.0.contains(&b.0)).then_some(0)
        }
        fn block_is_transactional_hw(&self, core: u16, b: BlockAddr) -> bool {
            core == 0 && self.0.contains(&b.0)
        }
        fn block_is_transactional_exact(&self, core: u16, b: BlockAddr) -> bool {
            self.block_is_transactional_hw(core, b)
        }
    }

    cases(48, 0x4ACC5, |rng| {
        let seq = accesses(rng, 8, 16);
        let guarded = vec_of(rng, 1, 3, |r| r.gen_range(0, 16));
        let oracle = Guard(guarded.clone());
        let mut m = MemorySystem::new(MemConfig::small_for_tests());
        // Context 0 (core 0) touches every guarded block first, so the
        // directory routes later requests through core 0's signature.
        for &g in &guarded {
            let out = m.access(0, AccessKind::Store, BlockAddr(g), &oracle);
            assert!(out.is_done(), "owner's own access can't be NACKed");
        }
        for a in &seq {
            let kind = if a.store { AccessKind::Store } else { AccessKind::Load };
            let before_states: Vec<String> = (0..m.config().n_cores)
                .map(|c| m.l1_state_str(c, BlockAddr(a.block)).to_string())
                .collect();
            let before_dir = m.dir_entry(BlockAddr(a.block));
            let out = m.access(a.ctx, kind, BlockAddr(a.block), &oracle);
            if let AccessOutcome::Nacked { nacker, .. } = out {
                assert_eq!(nacker, 0);
                // NACK must not have changed any state for this block.
                let after_states: Vec<String> = (0..m.config().n_cores)
                    .map(|c| m.l1_state_str(c, BlockAddr(a.block)).to_string())
                    .collect();
                assert_eq!(&before_states, &after_states);
                assert_eq!(before_dir, m.dir_entry(BlockAddr(a.block)));
            }
            assert_mesi_invariant(&m, 16);
        }
    });
}

#[test]
fn word_values_match_a_flat_model() {
    use ltse_mem::WordAddr;
    cases(48, 0xF1A7, |rng| {
        let writes = vec_of(rng, 1, 80, |r| (r.gen_range(0, 64), r.gen_range(1, 1000)));
        let mut m = MemorySystem::new(MemConfig::small_for_tests());
        let mut model = std::collections::HashMap::new();
        for (addr, val) in &writes {
            m.access(0, AccessKind::Store, WordAddr(*addr).block(), &NullOracle);
            m.write_word(WordAddr(*addr), *val);
            model.insert(*addr, *val);
        }
        for (addr, val) in &model {
            assert_eq!(m.read_word(WordAddr(*addr)), *val);
        }
    });
}

/// A true-LRU set-associative model: per set, `(block, value, last use)`.
struct LruModel {
    sets: Vec<Vec<(u64, u64, u64)>>,
    ways: usize,
    clock: u64,
}

impl LruModel {
    fn set(&mut self, block: u64) -> &mut Vec<(u64, u64, u64)> {
        let n = self.sets.len() as u64;
        &mut self.sets[(block % n) as usize]
    }

    fn get(&self, block: u64) -> Option<u64> {
        let n = self.sets.len() as u64;
        self.sets[(block % n) as usize]
            .iter()
            .find(|l| l.0 == block)
            .map(|l| l.1)
    }

    /// Promotes `block` and overwrites its value.
    fn touch(&mut self, block: u64, value: u64) {
        self.clock += 1;
        let clock = self.clock;
        let line = self
            .set(block)
            .iter_mut()
            .find(|l| l.0 == block)
            .expect("resident");
        *line = (block, value, clock);
    }

    fn insert(&mut self, block: u64, value: u64) -> Option<(u64, u64)> {
        if self.get(block).is_some() {
            self.touch(block, value);
            return None;
        }
        self.clock += 1;
        let (clock, ways) = (self.clock, self.ways);
        let set = self.set(block);
        let victim = (set.len() == ways).then(|| {
            let lru = (0..set.len()).min_by_key(|&i| set[i].2).expect("full set");
            let (b, v, _) = set.remove(lru);
            (b, v)
        });
        set.push((block, value, clock));
        victim
    }

    fn remove(&mut self, block: u64) -> Option<u64> {
        let set = self.set(block);
        let i = set.iter().position(|l| l.0 == block)?;
        Some(set.remove(i).1)
    }
}

#[test]
fn way_handles_agree_with_a_true_lru_model() {
    // Random insert/find/touch/remove sequences on 1–2 sets of 2–3 ways.
    // A handle may be held across other lookups and touches, which move no
    // way; an insert of a new block or a remove drops it, since either may
    // move the ways of a set.
    cases(200, 0x3A7_4A5D, |rng| {
        let sets = rng.gen_range(1, 3) as usize;
        let ways = rng.gen_range(2, 4) as usize;
        let mut cache: SetAssocCache<u64> = SetAssocCache::new(CacheConfig::new(sets, ways));
        let mut model = LruModel {
            sets: vec![Vec::new(); sets],
            ways,
            clock: 0,
        };
        let mut held: Option<(Way, u64)> = None;
        for step in 0..120u64 {
            let block = rng.gen_range(0, 8);
            match rng.gen_range(0, 5) {
                0 | 1 => {
                    let moves = model.get(block).is_none();
                    let evicted = cache.insert(BlockAddr(block), step);
                    let expect = model.insert(block, step);
                    assert_eq!(
                        evicted.map(|(b, v)| (b.0, v)),
                        expect,
                        "victim at step {step}"
                    );
                    if moves {
                        held = None;
                    }
                }
                2 => {
                    let found = cache.find(BlockAddr(block)).map(|(w, &v)| (w, v));
                    assert_eq!(found.map(|f| f.1), model.get(block), "find at step {step}");
                    if let Some((way, _)) = found {
                        held = Some((way, block));
                    }
                }
                3 => {
                    if let Some((way, b)) = held {
                        *cache.touch(way) = step;
                        model.touch(b, step);
                    }
                }
                _ => {
                    assert_eq!(cache.remove(&BlockAddr(block)), model.remove(block));
                    held = None;
                }
            }
            for b in 0..8 {
                assert_eq!(
                    cache.peek(&BlockAddr(b)).copied(),
                    model.get(b),
                    "block {b}"
                );
            }
        }
    });
}
