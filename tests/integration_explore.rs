//! End-to-end schedule exploration with the differential serializability
//! oracle: every explored interleaving of a workload is checked against a
//! sequential commit-order replay, plus post-transaction hardware-state
//! invariants and a final memory sweep.
//!
//! The explored-schedule count scales with the `LTSE_EXPLORE_SCHEDULES`
//! environment variable (used by `scripts/verify.sh` to run a bounded smoke
//! pass); unset, the main test explores well over a thousand distinct
//! schedules.

use logtm_se::{
    explore, explore_jobs, Cycle, ExploreConfig, ExploreReport, ScheduleChooser, ScriptOp, System,
    SystemBuilder, TxScript, WordAddr,
};

/// Candidate window for each exploration decision: among how many
/// near-simultaneous events the chooser may pick.
const WINDOW: usize = 4;
/// How close (in cycles) events must be to the earliest pending one to be
/// reorderable.
const HORIZON: Cycle = Cycle(8);

fn budget(default: usize) -> usize {
    std::env::var("LTSE_EXPLORE_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs one schedule of a freshly built system and returns `Err` with every
/// oracle violation if the interleaving broke serializability. When the
/// system was built with tracing enabled, a failing schedule automatically
/// carries its protocol-event trace in the error — the shrunk reproducer
/// then arrives with the event history that produced it.
fn check_one(
    chooser: &mut ScheduleChooser,
    mut build: impl FnMut() -> System,
) -> Result<(), String> {
    let mut s = build();
    s.run_explored(chooser, WINDOW, HORIZON)
        .map_err(|e| format!("run error: {e}"))?;
    let errs = s.finish_checks();
    if errs.is_empty() {
        Ok(())
    } else {
        let mut msg = errs.join("; ");
        let dump = s.trace_dump();
        if !dump.is_empty() {
            msg.push_str("\n-- trace of the failing schedule --\n");
            msg.push_str(&dump);
        }
        Err(msg)
    }
}

fn explore_system(
    cfg: &ExploreConfig,
    build: impl FnMut() -> System + Copy + Sync,
) -> ExploreReport {
    explore(cfg, |chooser| check_one(chooser, build))
}

// ---------------------------------------------------------------- workloads

fn contended_counters() -> System {
    let mut s = SystemBuilder::small_for_tests()
        .seed(7)
        .check_serializability(true)
        .build();
    s.poke_word(WordAddr(0), 5);
    for _ in 0..4 {
        s.add_thread(Box::new(TxScript::counter(WordAddr(0), 3)));
    }
    s
}

/// Two-word transactions taken in opposite orders: conflict cycles force
/// aborts *after* the first store was logged, so the undo path is exercised
/// on every schedule.
fn opposite_order(fault: bool) -> System {
    let mut s = SystemBuilder::small_for_tests()
        .seed(3)
        .check_serializability(true)
        .fault_skip_one_undo(fault)
        .trace(2048)
        .build();
    let (a, b) = (WordAddr(0), WordAddr(8));
    for t in 0..4 {
        let ops = if t % 2 == 0 {
            vec![ScriptOp::AddTo(a, 1), ScriptOp::AddTo(b, 1)]
        } else {
            vec![ScriptOp::AddTo(b, 1), ScriptOp::AddTo(a, 1)]
        };
        s.add_thread(Box::new(TxScript::new(vec![ops; 10])));
    }
    s
}

// -------------------------------------------------------------------- tests

#[test]
fn contended_counters_serialize_across_a_thousand_schedules() {
    let n = budget(2200);
    let cfg = ExploreConfig {
        seed: 0xA11CE,
        ..ExploreConfig::with_budget(n)
    };
    let report = explore_system(&cfg, contended_counters);
    report.assert_clean("contended counters");
    assert!(
        report.schedules_run >= n * 3 / 4,
        "budget under-used: ran {} of {n}",
        report.schedules_run
    );
    if n >= 2200 {
        assert!(
            report.distinct_schedules >= 1000,
            "only {} distinct schedules",
            report.distinct_schedules
        );
    }
    // One plain replayed run for a value-level sanity check: 5 + 4×3.
    let mut s = contended_counters();
    s.run_explored(&mut ScheduleChooser::fifo(), WINDOW, HORIZON)
        .expect("fifo schedule runs");
    assert_eq!(s.read_word(WordAddr(0)), 17);
}

#[test]
fn exploration_is_deterministic_and_seed_sensitive() {
    let run_with = |seed: u64| {
        let cfg = ExploreConfig {
            seed,
            ..ExploreConfig::with_budget(64)
        };
        explore_system(&cfg, contended_counters)
    };
    let a = run_with(1);
    let b = run_with(1);
    let c = run_with(2);
    assert_eq!(
        (a.fingerprint, a.distinct_schedules, a.schedules_run),
        (b.fingerprint, b.distinct_schedules, b.schedules_run),
        "same seed must reproduce the identical schedule set"
    );
    assert_ne!(a.fingerprint, c.fingerprint, "seeds must matter");
}

#[test]
fn parallel_exploration_matches_sequential_on_real_systems() {
    // The worker-pool explorer must be job-count invariant end to end:
    // same schedules, same fingerprint, same verdict — on a full simulated
    // system, not just the unit-test toy models.
    let cfg = ExploreConfig {
        seed: 0xA11CE,
        ..ExploreConfig::with_budget(budget(96).min(96))
    };
    let seq = explore_system(&cfg, contended_counters);
    for jobs in [1, 2, 4] {
        let par = explore_jobs(&cfg, jobs, |c| check_one(c, contended_counters));
        assert_eq!(seq.schedules_run, par.schedules_run, "jobs={jobs}");
        assert_eq!(
            seq.distinct_schedules, par.distinct_schedules,
            "jobs={jobs}"
        );
        assert_eq!(seq.fingerprint, par.fingerprint, "jobs={jobs}");
        assert!(
            par.failure.is_none(),
            "jobs={jobs}: clean workload must stay clean"
        );
    }
}

#[test]
fn seeded_undo_bug_is_caught_and_shrunk() {
    // The healthy workload survives exploration...
    let clean = ExploreConfig {
        seed: 0xFACE,
        ..ExploreConfig::with_budget(budget(120).min(120))
    };
    explore_system(&clean, || opposite_order(false)).assert_clean("opposite-order workload");

    // ...but with the injected fault (the abort handler skips one undo
    // record) the oracle must catch it, and the shrinker must hand back a
    // small reproducer.
    let cfg = ExploreConfig {
        seed: 0xFACE,
        ..ExploreConfig::with_budget(budget(200).min(200))
    };
    let report = explore_system(&cfg, || opposite_order(true));
    let failure = report
        .failure
        .expect("the broken undo path must be detected");
    assert!(
        failure.schedule.steps() <= 10,
        "shrunk schedule still has {} steps: {}",
        failure.schedule.steps(),
        failure.schedule
    );
    assert!(
        failure.message.contains("diverge") || failure.message.contains("observed"),
        "failure should be a replay divergence, got: {}",
        failure.message
    );
    // Tracing was on, so the failure must carry the event history that
    // produced it — structured tags rendered for human consumption.
    assert!(
        failure
            .message
            .contains("-- trace of the failing schedule --"),
        "failing schedule should dump its trace automatically"
    );
    assert!(
        failure.message.contains("COMMIT") && failure.message.contains("ABORT"),
        "trace should show the protocol events around the divergence"
    );
    // The minimized schedule is a genuine reproducer.
    let mut chooser = ScheduleChooser::replay(failure.schedule.choices.clone());
    let replay = check_one(&mut chooser, || opposite_order(true));
    assert!(replay.is_err(), "minimized schedule must still fail");
}

#[test]
fn victimized_transactions_restore_memory_on_abort() {
    // One transaction writes 12 distinct blocks — more than the 8-block test
    // L1 — so transactional blocks are victimized mid-transaction and their
    // conflict coverage survives only via sticky states. Two counter threads
    // contend on the first word to force aborts of the big transaction.
    let build = || {
        let big: Vec<ScriptOp> = (0..12)
            .map(|i| ScriptOp::AddTo(WordAddr(8 * i), 1))
            .collect();
        let mut s = SystemBuilder::small_for_tests()
            .seed(9)
            .check_serializability(true)
            .build();
        s.add_thread(Box::new(TxScript::new(vec![big; 2])));
        for _ in 0..2 {
            s.add_thread(Box::new(TxScript::counter(WordAddr(0), 4)));
        }
        s
    };
    // Preconditions: this workload really victimizes and really aborts.
    let mut plain = build();
    let r = plain.run().expect("plain run completes");
    assert!(
        r.mem.l1_tx_evictions_hw.get() > 0,
        "precondition: transactional blocks must be victimized"
    );
    assert!(r.tm.aborts > 0, "precondition: contention must abort");

    let cfg = ExploreConfig {
        seed: 0x57EE7,
        ..ExploreConfig::with_budget(budget(100).min(100))
    };
    explore_system(&cfg, build).assert_clean("victimized transactions");
}

#[test]
fn context_switched_transactions_keep_isolation_under_exploration() {
    // More threads than contexts with an aggressive quantum and no in-tx
    // deferral: transactions are descheduled mid-flight, their isolation
    // carried by summary signatures; conflicts with parked transactions
    // abort them in software. Every explored interleaving must still
    // serialize.
    let build = || {
        let mut s = SystemBuilder::small_for_tests()
            .seed(11)
            .preemption(Cycle(300), false)
            .check_serializability(true)
            .build();
        for _ in 0..10 {
            s.add_thread(Box::new(TxScript::counter(WordAddr(0), 8)));
        }
        s
    };
    let mut plain = build();
    let r = plain.run().expect("plain run completes");
    assert!(
        r.os.tx_deschedules > 0,
        "precondition: some switch must hit a transaction"
    );
    assert!(
        r.os.summary_installs > 0,
        "precondition: summary signatures must be installed"
    );

    let cfg = ExploreConfig {
        seed: 0x5C4ED,
        ..ExploreConfig::with_budget(budget(60).min(60))
    };
    explore_system(&cfg, build).assert_clean("context-switched transactions");
}
