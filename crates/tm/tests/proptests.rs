//! Model-based property tests for eager version management: arbitrary
//! sequences of nested begins, transactional stores, commits, and aborts
//! must leave memory exactly as a snapshot-stack model predicts.
//! Randomized deterministically through `ltse_sim::check`.

use std::collections::HashMap;

use ltse_sim::check::{cases, pick_weighted, vec_of};
use ltse_sim::rng::Xoshiro256StarStar;

use ltse_mem::{
    AccessKind, Asid, BlockAddr, ConflictOracle, CoreId, Coverage, MemConfig, MemorySystem,
    WordAddr, WORDS_PER_BLOCK,
};
use ltse_sig::{SigOp, SignatureKind};
use ltse_sim::Cycle;
use ltse_tm::{NestKind, ThreadTmState, TmConfig, TmUnit};

/// The operations a fuzzed transaction script can perform.
#[derive(Debug, Clone)]
enum Step {
    Begin(bool), // open?
    Store { block: u64, value: u64 },
    Commit,
    AbortInner,
    AbortAll,
}

fn steps(rng: &mut Xoshiro256StarStar) -> Vec<Step> {
    vec_of(rng, 1, 60, |r| match pick_weighted(r, &[2, 5, 3, 1, 1]) {
        0 => Step::Begin(r.gen_bool(0.5)),
        1 => Step::Store {
            block: r.gen_range(0, 12),
            value: r.gen_range(1, 1_000_000),
        },
        2 => Step::Commit,
        3 => Step::AbortInner,
        _ => Step::AbortAll,
    })
}

/// A reference model: flat memory plus a stack of (kind, snapshot) frames.
/// A closed commit merges (parent keeps the child's snapshot baseline); an
/// open commit publishes; aborts restore the frame's snapshot.
struct Model {
    memory: HashMap<u64, u64>,
    /// For each live frame: (open?, memory snapshot at its begin).
    frames: Vec<(bool, HashMap<u64, u64>)>,
}

impl Model {
    fn new() -> Self {
        Model {
            memory: HashMap::new(),
            frames: Vec::new(),
        }
    }
}

fn read_block(memory: &HashMap<u64, u64>, block: u64) -> [u64; WORDS_PER_BLOCK as usize] {
    let base = BlockAddr(block).first_word().as_u64();
    std::array::from_fn(|i| memory.get(&(base + i as u64)).copied().unwrap_or(0))
}

#[test]
fn log_matches_snapshot_model() {
    cases(128, 0x10906, |rng| {
        let script = steps(rng);
        let kind_sel = rng.gen_index(3);
        let kind = [
            SignatureKind::Perfect,
            SignatureKind::paper_bs_2kb(),
            SignatureKind::paper_bs_64(),
        ][kind_sel];
        let config = TmConfig::default_with(kind);
        let mut tm = ThreadTmState::new(0, Asid(0), &config, WordAddr(1 << 44), 7);
        let mut model = Model::new();
        let mut now = 0u64;

        for step in script {
            now += 10;
            match step {
                Step::Begin(open) => {
                    let kind = if open && !model.frames.is_empty() {
                        NestKind::Open
                    } else {
                        NestKind::Closed
                    };
                    tm.begin(kind, Cycle(now));
                    model
                        .frames
                        .push((kind == NestKind::Open, model.memory.clone()));
                }
                Step::Store { block, value } => {
                    if model.frames.is_empty() {
                        continue; // scripts only store transactionally
                    }
                    // Open-nesting contract: an open transaction publishes
                    // its writes permanently, so it must not touch data any
                    // frame *outside its own open lineage* holds undo
                    // records for (such an abort would clobber the
                    // published values — true of the real hardware too,
                    // which is why open nesting requires disjoint data).
                    // The fuzzer honours the contract by giving each
                    // open-nesting level its own block range.
                    let open_depth = model.frames.iter().filter(|(open, _)| *open).count() as u64;
                    let block = block + 64 * open_depth;
                    tm.record_access(SigOp::Write, BlockAddr(block));
                    let memory = &model.memory;
                    tm.log_store_if_needed(BlockAddr(block), || read_block(memory, block));
                    let base = BlockAddr(block).first_word().as_u64();
                    model.memory.insert(base, value); // write word 0 in place
                }
                Step::Commit => {
                    if model.frames.is_empty() {
                        continue;
                    }
                    tm.commit(Cycle(now));
                    let (open, snapshot) = model.frames.pop().expect("frame");
                    if open {
                        // An open commit publishes the child's writes: no
                        // ancestor abort may undo them, so fold the child's
                        // diff into every surviving rollback point.
                        let mut diff: Vec<(u64, Option<u64>)> = Vec::new();
                        for (addr, v) in &model.memory {
                            if snapshot.get(addr) != Some(v) {
                                diff.push((*addr, Some(*v)));
                            }
                        }
                        for addr in snapshot.keys() {
                            if !model.memory.contains_key(addr) {
                                diff.push((*addr, None));
                            }
                        }
                        for (_, frame_snapshot) in model.frames.iter_mut() {
                            for (addr, v) in &diff {
                                match v {
                                    Some(v) => {
                                        frame_snapshot.insert(*addr, *v);
                                    }
                                    None => {
                                        frame_snapshot.remove(addr);
                                    }
                                }
                            }
                        }
                    }
                }
                Step::AbortInner => {
                    if model.frames.len() < 2 {
                        continue;
                    }
                    let mut restores = Vec::new();
                    tm.abort_innermost(&mut |base, old| restores.push((base, *old)));
                    let (_, snapshot) = model.frames.pop().expect("frame");
                    apply_restores(&mut model.memory, &restores);
                    assert_eq!(
                        &model.memory, &snapshot,
                        "partial abort must restore the inner begin's snapshot"
                    );
                }
                Step::AbortAll => {
                    if model.frames.is_empty() {
                        continue;
                    }
                    let mut restores = Vec::new();
                    tm.abort_all(&config, Cycle(now), &mut |base, old| {
                        restores.push((base, *old))
                    });
                    // The correct post-state: the OUTERMOST frame's begin
                    // snapshot, except that open-committed children along the
                    // way are permanent. Open commits pop their frames at
                    // commit time, so any still-live frames are uncommitted:
                    // full abort restores the oldest live snapshot.
                    let (_, oldest) = model.frames.first().cloned().expect("frame");
                    model.frames.clear();
                    apply_restores(&mut model.memory, &restores);
                    assert_eq!(
                        &model.memory, &oldest,
                        "full abort must restore the outermost begin's snapshot"
                    );
                }
            }

            // Invariants that must hold continuously.
            assert_eq!(tm.depth(), model.frames.len());
            assert_eq!(tm.in_tx(), !model.frames.is_empty());
        }
    });
}

fn apply_restores(memory: &mut HashMap<u64, u64>, restores: &[(WordAddr, [u64; 8])]) {
    for (base, old) in restores {
        for (i, w) in old.iter().enumerate() {
            let addr = base.as_u64() + i as u64;
            if *w == 0 {
                memory.remove(&addr);
            } else {
                memory.insert(addr, *w);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Explorer-backed whole-system regressions: the fuzzed model above checks the
// TM core in isolation; these drive the *composed* machine (via the cyclic
// dev-dependency on `logtm-se`) through systematically perturbed event
// schedules and differentially check every interleaving against the
// serializability oracle.

mod explored {
    use logtm_se::{
        explore, Cycle, ExploreConfig, ScheduleChooser, SignatureKind, SystemBuilder, TxScript,
        WordAddr,
    };

    /// Explores `n_threads` threads × `iters` counter increments under the
    /// given signature kind, checking serializability and the exact final
    /// count on every schedule.
    fn counters_serialize(kind: SignatureKind, n_threads: usize, iters: usize, budget: usize) {
        let expected = (n_threads * iters) as u64;
        let cfg = ExploreConfig {
            seed: 0x7E57_0001,
            ..ExploreConfig::with_budget(budget)
        };
        let report = explore(&cfg, |chooser: &mut ScheduleChooser| {
            let mut s = SystemBuilder::small_for_tests()
                .signature(kind)
                .seed(13)
                .check_serializability(true)
                .build();
            for _ in 0..n_threads {
                s.add_thread(Box::new(TxScript::counter(WordAddr(0), iters)));
            }
            s.run_explored(chooser, 4, Cycle(8))
                .map_err(|e| format!("run error: {e}"))?;
            let errs = s.finish_checks();
            if !errs.is_empty() {
                return Err(errs.join("; "));
            }
            let got = s.read_word(WordAddr(0));
            if got != expected {
                return Err(format!("final count {got}, expected {expected}"));
            }
            Ok(())
        });
        report.assert_clean(&format!("{kind} counters"));
        assert!(report.distinct_schedules > 1, "exploration actually varied");
    }

    #[test]
    fn counters_serialize_with_perfect_signatures() {
        counters_serialize(SignatureKind::Perfect, 4, 3, 80);
    }

    #[test]
    fn counters_serialize_with_a_tiny_aliasing_dbs() {
        // 16 bits, two 8-bit halves: nearly everything aliases, so
        // false-positive NACKs are rampant — stalls and aborts may differ
        // wildly per schedule, but atomicity must not.
        counters_serialize(SignatureKind::DoubleBitSelect { bits: 16 }, 4, 3, 80);
    }

    #[test]
    fn counters_serialize_with_the_paper_bs_64() {
        counters_serialize(SignatureKind::paper_bs_64(), 3, 3, 60);
    }
}

/// The per-core answer `TmUnit`'s one-pass coverage query replaces: each
/// core's contexts folded through `covers_hw`, and `covers_exact` asked only
/// of cores that hit in hardware. Conflict checks pass through.
struct PerCoreFold<'a> {
    tm: &'a TmUnit,
    smt: u32,
}

impl ConflictOracle for PerCoreFold<'_> {
    fn check_core(
        &self,
        core: CoreId,
        kind: AccessKind,
        block: BlockAddr,
        req: u32,
    ) -> Option<u32> {
        self.tm.check_core(core, kind, block, req)
    }

    fn coverage(&self, block: BlockAddr, core: Option<CoreId>) -> Coverage {
        let mut cov = Coverage::default();
        for c in 0..(self.tm.n_ctxs() / self.smt) as CoreId {
            if core.is_some_and(|only| only != c) {
                continue;
            }
            let base = c as u32 * self.smt;
            let threads = || (base..base + self.smt).filter_map(|ctx| self.tm.thread(ctx));
            if threads().any(|t| t.covers_hw(block)) {
                cov.hw.insert(c);
                cov.exact = cov.exact || threads().any(|t| t.covers_exact(block));
            }
        }
        cov
    }
}

/// Random thread states on a 4-core × 2-SMT unit: each context idle, out of
/// any transaction, or in one with random read and write sets over a small
/// block range, under an exact, an aliasing or a two-field signature.
fn random_unit(rng: &mut Xoshiro256StarStar) -> TmUnit {
    let kind = match rng.gen_index(3) {
        0 => SignatureKind::Perfect,
        1 => SignatureKind::BitSelect { bits: 16 },
        _ => SignatureKind::DoubleBitSelect { bits: 32 },
    };
    let mut tm = TmUnit::with_smt(TmConfig::default_with(kind), 8, 2);
    for ctx in 0..8 {
        match rng.gen_index(4) {
            0 => drop(tm.take_thread(ctx)),
            1 => {}
            _ => {
                tm.begin_tx(ctx, NestKind::Closed, Cycle(ctx as u64));
                for _ in 0..rng.gen_range(0, 12) {
                    let kind = if rng.gen_bool(0.5) {
                        AccessKind::Load
                    } else {
                        AccessKind::Store
                    };
                    tm.record_access(ctx, kind, BlockAddr(rng.gen_range(0, 96)));
                }
            }
        }
    }
    tm
}

/// `TmUnit::coverage` answers in one pass what the per-core fold answers
/// core by core, for the whole machine and for each core alone; and two
/// memory systems driven by the two answers stay identical access by
/// access, the overflow events of the sticky-disabled ablation included
/// (one per covering core, in ascending core order).
#[test]
fn one_pass_coverage_equals_the_per_core_fold() {
    cases(48, 0xC0FE_4A6E, |rng| {
        let tm = random_unit(rng);
        let fold = PerCoreFold { tm: &tm, smt: 2 };
        for b in 0..128 {
            let block = BlockAddr(b);
            assert_eq!(
                tm.coverage(block, None),
                fold.coverage(block, None),
                "{block}"
            );
            for core in 0..4 {
                assert_eq!(
                    tm.coverage(block, Some(core)),
                    fold.coverage(block, Some(core)),
                    "{block} core {core}"
                );
            }
        }
        for sticky_enabled in [false, true] {
            let config = MemConfig {
                sticky_enabled,
                ..MemConfig::small_for_tests()
            };
            let (mut one_pass, mut per_core) =
                (MemorySystem::new(config), MemorySystem::new(config));
            for _ in 0..400 {
                let ctx = rng.gen_index(8) as u32;
                let kind = if rng.gen_bool(0.3) {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                let block = BlockAddr(rng.gen_range(0, 160));
                let a = one_pass.access(ctx, kind, block, &tm);
                let b = per_core.access(ctx, kind, block, &fold);
                assert_eq!(a, b, "{kind} {block} from ctx {ctx}");
                assert_eq!(
                    one_pass.take_overflow_events(),
                    per_core.take_overflow_events(),
                    "{kind} {block} from ctx {ctx}, sticky {sticky_enabled}"
                );
            }
            assert_eq!(
                format!("{:?}", one_pass.stats()),
                format!("{:?}", per_core.stats())
            );
        }
    });
}
