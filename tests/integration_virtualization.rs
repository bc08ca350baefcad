//! Virtualization integration (paper §§3–4): context switching, migration,
//! summary signatures, the descheduled-conflict escape valve, and paging —
//! all while atomicity holds.

use logtm_se::{Asid, Cycle, Op, ProgCtx, SignatureKind, SystemBuilder, ThreadProgram, WordAddr};
use ltse_workloads::{Benchmark, SyncMode};

struct Incr {
    addr: WordAddr,
    remaining: u32,
    step: u8,
    hold: u64,
}

impl Incr {
    fn new(addr: WordAddr, remaining: u32, hold: u64) -> Self {
        Incr {
            addr,
            remaining,
            step: 0,
            hold,
        }
    }
}

impl ThreadProgram for Incr {
    fn next_op(&mut self, t: &mut ProgCtx) -> Op {
        match self.step {
            0 => {
                if self.remaining == 0 {
                    return Op::Done;
                }
                self.step = 1;
                Op::TxBegin
            }
            1 => {
                self.step = 2;
                Op::Read(self.addr)
            }
            2 => {
                self.step = 3;
                Op::Work(self.hold)
            }
            3 => {
                self.step = 4;
                Op::Write(self.addr, t.last_value + 1)
            }
            4 => {
                self.step = 5;
                Op::TxCommit
            }
            _ => {
                self.step = 0;
                self.remaining -= 1;
                Op::WorkUnitDone
            }
        }
    }

    fn on_tx_abort(&mut self, _t: &mut ProgCtx) {
        self.step = 0;
    }
}

#[test]
fn oversubscribed_private_counters_survive_migration() {
    // 12 threads over 8 contexts on the small machine, aggressive quantum,
    // no in-transaction deferral: transactions are routinely suspended and
    // migrated; each thread's private counter must still be exact.
    let mut system = SystemBuilder::small_for_tests()
        .signature(SignatureKind::paper_bs_2kb())
        .seed(41)
        .preemption(Cycle(500), false)
        .build();
    for t in 0..12u64 {
        system.add_thread(Box::new(Incr::new(WordAddr(t * 8), 30, 40)));
    }
    let report = system.run().unwrap();
    for t in 0..12u64 {
        assert_eq!(system.read_word(WordAddr(t * 8)), 30, "thread {t}");
    }
    assert!(report.os.tx_deschedules > 0);
    assert_eq!(report.tm.commits, 360);
}

#[test]
fn shared_counter_with_descheduled_holders_makes_progress() {
    // The hard case: a SHARED counter and preemption landing inside
    // transactions. Progress requires the summary-signature trap handler to
    // abort parked transactions (paper §4.1's conflict handler).
    let mut system = SystemBuilder::small_for_tests()
        .signature(SignatureKind::Perfect)
        .seed(43)
        .preemption(Cycle(400), false)
        .build();
    let n = 12u64;
    for _ in 0..n {
        system.add_thread(Box::new(Incr::new(WordAddr(0), 15, 60)));
    }
    let report = system.run().unwrap();
    assert_eq!(system.read_word(WordAddr(0)), n * 15, "atomicity");
    assert_eq!(report.tm.commits, n * 15);
    assert!(report.os.tx_deschedules > 0, "switches hit transactions");
}

#[test]
fn deferral_reduces_tx_deschedules() {
    let run = |defer| {
        let mut system = SystemBuilder::small_for_tests()
            .signature(SignatureKind::Perfect)
            .seed(44)
            .preemption(Cycle(400), defer)
            .build();
        for t in 0..12u64 {
            system.add_thread(Box::new(Incr::new(WordAddr(512 + t * 8), 20, 100)));
        }
        system.run().unwrap().os
    };
    let with_defer = run(true);
    let without = run(false);
    assert!(
        with_defer.tx_deschedules <= without.tx_deschedules,
        "deferral must not increase mid-transaction switches ({} vs {})",
        with_defer.tx_deschedules,
        without.tx_deschedules
    );
    assert!(without.tx_deschedules > 0);
}

#[test]
fn paging_under_contention_is_safe_for_every_signature() {
    for kind in [SignatureKind::Perfect, SignatureKind::paper_bs_2kb()] {
        let mut system = SystemBuilder::small_for_tests()
            .signature(kind)
            .seed(45)
            .build();
        for _ in 0..6 {
            system.add_thread(Box::new(Incr::new(WordAddr(24), 25, 30)));
        }
        // Three relocations of the hot page while transactions run.
        system.schedule_page_relocation(Cycle(300), Asid(0), 0);
        system.schedule_page_relocation(Cycle(900), Asid(0), 0);
        system.schedule_page_relocation(Cycle(2_000), Asid(0), 0);
        let report = system.run().unwrap();
        assert_eq!(system.read_word(WordAddr(24)), 150, "{kind}");
        assert_eq!(report.os.pages_relocated, 3, "{kind}");
    }
}

#[test]
fn paging_and_preemption_compose_on_a_real_workload() {
    // Mp3d with oversubscription, preemption, and paging of its molecule
    // region — everything at once.
    let mut system = SystemBuilder::paper_default()
        .signature(SignatureKind::paper_dbs_2kb())
        .seed(46)
        .preemption(Cycle(3_000), false)
        .build();
    for p in Benchmark::Mp3d.programs(SyncMode::Tm, 40, 4) {
        system.add_thread(p);
    }
    // The molecule region starts at word 0x60_0000 → vpage 0x60_0000/512.
    let mol_vpage = 0x60_0000 / 512;
    system.schedule_page_relocation(Cycle(10_000), Asid(0), mol_vpage);
    let report = system.run().unwrap();
    assert_eq!(report.tm.work_units, 160);
    assert_eq!(report.threads_completed, 40);
    assert_eq!(report.os.pages_relocated, 1);
}

#[test]
fn sticky_disabled_turns_victimization_into_overflow_aborts() {
    use logtm_se::substrates::sim::config::SimLimits;
    use ltse_workloads::{CsProgram, HotColdArray, SyncMode};
    // Read sets that exceed the small machine's 8-block L1: with sticky
    // states the transactions victimize freely and commit; without them
    // every eviction aborts the transaction, and since the footprint can
    // never fit, the workload cannot finish (the paper's motivation for
    // sticky states, §3.1).
    let run = |sticky: bool| {
        let mut system = SystemBuilder::small_for_tests()
            .signature(SignatureKind::Perfect)
            .sticky(sticky)
            .seed(47)
            .limits(SimLimits {
                max_cycles: logtm_se::Cycle(2_000_000),
                max_events: 50_000_000,
            })
            .build();
        for t in 0..4u64 {
            system.add_thread(Box::new(CsProgram::new(
                HotColdArray::new(
                    WordAddr(t * 8),
                    WordAddr((1 << 14) + t * 4096),
                    16,
                    12, // 12 cold blocks + hot + log ≫ 8-block L1
                    WordAddr(1 << 16),
                    10,
                ),
                SyncMode::Tm,
                t << 32,
            )));
        }
        let completed = system.run().is_ok();
        (completed, system.report())
    };
    let (with_ok, with) = run(true);
    let (without_ok, without) = run(false);
    assert!(with_ok, "sticky states absorb victimization");
    assert_eq!(with.tm.work_units, 40);
    assert_eq!(with.tm.aborts, 0);
    assert!(with.mem.l1_tx_evictions_exact.get() > 0, "it did victimize");
    assert!(
        !without_ok,
        "an over-capacity footprint cannot commit without sticky states"
    );
    assert!(without.tm.aborts > 0, "overflow aborts, repeatedly");
}

#[test]
fn sticky_disabled_full_abort_drops_the_queued_overflow_abort() {
    use logtm_se::{FnProgram, RunError, SimLimits};
    // With sticky states off, a partial abort's restore stores can evict
    // the outer frame's own read block and queue an overflow abort for the
    // same thread. When the program cannot resume mid-nest, the full abort
    // that follows ends that transaction, so the queued abort must go with
    // it rather than fire on a thread that is no longer in a transaction.
    let mut system = SystemBuilder::small_for_tests()
        .signature(SignatureKind::paper_bs_64())
        .sticky(false)
        .seed(0)
        .limits(SimLimits {
            max_cycles: Cycle(300_000),
            max_events: 2_000_000,
        })
        .build();
    for t in 0..8u64 {
        let (first, second) = (WordAddr((t % 2) * 8), WordAddr(((t + 1) % 2) * 8));
        let (mut step, mut remaining) = (0, 4);
        system.add_thread(Box::new(FnProgram::new(move |_t, aborted| {
            if aborted {
                step = 0;
            }
            step += 1;
            match step {
                1 if remaining == 0 => Op::Done,
                1 | 3 => Op::TxBegin, // outer, then inner (closed)
                2 => Op::Read(WordAddr((1 << 14) + t * 4096)),
                4 => Op::FetchAdd(first, 1),
                5 => Op::Work(60),
                6 => Op::FetchAdd(second, 1),
                7 | 8 => Op::TxCommit,
                _ => {
                    step = 0;
                    remaining -= 1;
                    Op::WorkUnitDone
                }
            }
        })));
    }
    // Overflow aborts may livelock the run (ablation A2); it must not panic.
    let result = system.run();
    assert!(
        matches!(result, Ok(_) | Err(RunError::CycleLimit { .. })),
        "{result:?}"
    );
    let report = system.report();
    assert!(report.tm.partial_aborts > 0 && report.tm.aborts > 0);
}

#[test]
fn run_beyond_context_count_requires_preemption() {
    let mut system = SystemBuilder::small_for_tests().seed(48).build();
    for t in 0..9u64 {
        system.add_thread(Box::new(Incr::new(WordAddr(t * 8), 1, 1)));
    }
    assert!(matches!(
        system.run(),
        Err(logtm_se::RunError::TooManyThreads {
            threads: 9,
            ctxs: 8
        })
    ));
}
