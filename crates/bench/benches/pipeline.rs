//! Pipeline-level benchmark: parallel schedule exploration.
//!
//! Unlike `hotpath` (micro-benchmarks of individual data structures), the
//! cases here time a whole pipeline stage — a full exploration — and the
//! parallel path is measured **against its sequential baseline in the same
//! run**: `explore/jobs_1` vs `explore/jobs_N` explore a contended-counter
//! system sequentially vs fanned out over `N` threads (phase 1's waves and
//! the tail's chunk streams), with the reports asserted identical before
//! any timing is reported.
//!
//! The two run as interleaved pairs ([`Bench::paired`]), and
//! `explore_parallel` is the median of the per-pair ratios. Quick mode runs
//! the same 512-schedule exploration with fewer pairs: a smaller budget
//! finishes in a few milliseconds, where thread start-up, not exploration,
//! sets the ratio. One exploration takes 10–30 ms on a shared 2-vCPU host,
//! so a single pair is noisy; a median of 9 pairs still read 0.77–1.45
//! over ten quick runs there, and one of 41 pairs resolves.
//!
//! Writes `BENCH_pipeline.json` through [`ltse_bench::harness`].

use logtm_se::{
    explore, explore_jobs, Cycle, ExploreConfig, ExploreReport, ScheduleChooser, System,
    SystemBuilder, TxScript, WordAddr,
};
use ltse_bench::harness::{self, Bench};
use ltse_sim::parallel::effective_jobs;

// ------------------------------------------------------------ explore model

/// Candidate window / reorder horizon, as in the explore integration tests.
const WINDOW: usize = 4;
const HORIZON: Cycle = Cycle(8);

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

fn check_one(chooser: &mut ScheduleChooser) -> Result<(), String> {
    let mut s = contended_counters();
    s.run_explored(chooser, WINDOW, HORIZON)
        .map_err(|e| format!("run error: {e}"))?;
    let errs = s.finish_checks();
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs.join("; "))
    }
}

fn report_key(r: &ExploreReport) -> (usize, usize, u64, bool) {
    (
        r.schedules_run,
        r.distinct_schedules,
        r.fingerprint,
        r.failure.is_some(),
    )
}

fn main() {
    let quick = harness::quick();
    let mut bench = Bench::new("pipeline");

    // ---- schedule exploration: sequential vs parallel -------------------
    let cfg = ExploreConfig {
        seed: 0xA11CE,
        ..ExploreConfig::with_budget(512)
    };
    let cpus = harness::detected_cpus();
    let jobs = effective_jobs(None).clamp(2, 8);
    if cpus < 2 {
        eprintln!(
            "note: {cpus} CPU available — explore/jobs_{jobs} cannot beat jobs_1 here \
             (it measures pure thread overhead); run on a multicore host for the speedup"
        );
    }
    // Correctness gate before timing anything: the parallel explorer must
    // produce the identical report.
    let seq = explore(&cfg, |c| check_one(c));
    let par = explore_jobs(&cfg, jobs, check_one);
    assert_eq!(
        report_key(&seq),
        report_key(&par),
        "explore_jobs({jobs}) diverged from sequential explore"
    );
    bench.field("explore_jobs", jobs);
    bench.group("explore", harness::iters(if quick { 41 } else { 61 }));
    let name = format!("jobs_{jobs}");
    bench.paired(
        "explore_parallel",
        ("jobs_1", || explore_jobs(&cfg, 1, check_one)),
        (&name, || explore_jobs(&cfg, jobs, check_one)),
    );
    bench.finish();
}
