//! Whole-system property tests: randomly generated transactional programs
//! over shared counters must be exactly serializable — every committed
//! increment lands exactly once — under every signature kind, with and
//! without preemption, across seeds. Randomized deterministically through
//! `ltse_sim::check`.

use ltse_sim::check::{cases, pick, vec_of};
use ltse_sim::rng::Xoshiro256StarStar;

use logtm_se::{Asid, Cycle, Op, ProgCtx, SignatureKind, SystemBuilder, ThreadProgram, WordAddr};

/// One fuzzed transaction: fetch-add a fixed set of counters, with some
/// plain reads and compute mixed in.
#[derive(Debug, Clone)]
struct TxPlan {
    targets: Vec<u8>, // counter indices, deduplicated
    reads: Vec<u8>,
    work: u64,
}

/// A fuzzed thread: a list of transactions, executed in order, each retried
/// until it commits.
struct PlannedThread {
    plan: Vec<TxPlan>,
    tx_ix: usize,
    step: usize,
}

fn counter(i: u8) -> WordAddr {
    WordAddr(i as u64 * 8)
}

impl ThreadProgram for PlannedThread {
    fn next_op(&mut self, _t: &mut ProgCtx) -> Op {
        let Some(tx) = self.plan.get(self.tx_ix) else {
            return Op::Done;
        };
        // Step layout: 0 = begin; 1..=reads = reads; then targets; then
        // work; then commit.
        let n_reads = tx.reads.len();
        let n_targets = tx.targets.len();
        let s = self.step;
        self.step += 1;
        if s == 0 {
            Op::TxBegin
        } else if s <= n_reads {
            Op::Read(counter(tx.reads[s - 1]))
        } else if s <= n_reads + n_targets {
            Op::FetchAdd(counter(tx.targets[s - 1 - n_reads]), 1)
        } else if s == n_reads + n_targets + 1 {
            Op::Work(tx.work.max(1))
        } else {
            self.step = 0;
            self.tx_ix += 1;
            Op::TxCommit
        }
    }

    fn on_tx_abort(&mut self, _t: &mut ProgCtx) {
        self.step = 0;
    }
}

fn random_tx(rng: &mut Xoshiro256StarStar) -> TxPlan {
    // 1..4 distinct target counters out of 6.
    let n_targets = rng.gen_range(1, 4) as usize;
    let mut targets: Vec<u8> = Vec::new();
    while targets.len() < n_targets {
        let c = rng.gen_range(0, 6) as u8;
        if !targets.contains(&c) {
            targets.push(c);
        }
    }
    targets.sort_unstable();
    TxPlan {
        targets,
        reads: vec_of(rng, 0, 2, |r| r.gen_range(0, 6) as u8),
        work: rng.gen_range(0, 80),
    }
}

fn random_plans(rng: &mut Xoshiro256StarStar) -> Vec<Vec<TxPlan>> {
    vec_of(rng, 2, 5, |r| vec_of(r, 1, 5, random_tx))
}

#[test]
fn every_committed_increment_lands_exactly_once() {
    let kinds = [
        SignatureKind::Perfect,
        SignatureKind::paper_bs_2kb(),
        SignatureKind::paper_bs_64(),
        SignatureKind::paper_dbs_2kb(),
        SignatureKind::DoubleBitSelect { bits: 256 },
    ];
    cases(24, 0x5E21A1, |rng| {
        let plan = random_plans(rng);
        let kind = *pick(rng, &kinds);
        let seed = rng.gen_range(0, 1000);
        let preempt = rng.gen_bool(0.5);
        let relocations = vec_of(rng, 0, 2, |r| r.gen_range(100, 20_000));

        let mut expected = [0u64; 6];
        for thread in &plan {
            for tx in thread {
                for &t in &tx.targets {
                    expected[t as usize] += 1;
                }
            }
        }

        let mut builder = SystemBuilder::small_for_tests().signature(kind).seed(seed);
        if preempt {
            builder = builder.preemption(Cycle(700), false);
        }
        let mut system = builder.build();
        // Failure injection: relocate the physical page holding all the
        // counters (vpage 0) at arbitrary times mid-run.
        for &at in &relocations {
            system.schedule_page_relocation(Cycle(at), Asid(0), 0);
        }
        let n_threads = plan.len();
        for thread_plan in plan {
            system.add_thread(Box::new(PlannedThread {
                plan: thread_plan,
                tx_ix: 0,
                step: 0,
            }));
        }
        let report = system.run().expect("fuzzed run completes");
        assert_eq!(report.threads_completed, n_threads);
        for (i, &want) in expected.iter().enumerate() {
            assert_eq!(
                system.read_word(counter(i as u8)),
                want,
                "counter {} ({} threads, {}, preempt={}, {} relocations)",
                i,
                n_threads,
                kind,
                preempt,
                relocations.len()
            );
        }
    });
}
