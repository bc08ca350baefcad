//! Scale-out sweep for the PR 8 work: 64/128/256-core simulations on the
//! `MemConfig::scaled_cmp` configurations (one L2 bank per core, square
//! mesh, calendar window sized from the context count).
//!
//! Each `sweep/cores_N` case times one full Mp3d run (system construction
//! included — it is part of what a user pays per configuration). The
//! `checked/cores_256_serializability` case runs the 256-context system
//! with the differential serializability oracle enabled and asserts the
//! checks pass before any timing is reported — this is the acceptance
//! criterion that the 64-context ceiling is actually gone, not merely that
//! the config validates.
//!
//! The headline metric is **ns per dispatched event**: wall time grows with
//! core count because bigger systems dispatch more events, so per-event
//! cost is the number that exposes super-linear hot paths (O(cores) scans,
//! allocation storms). The `speedups` map reports the 64-core per-event
//! cost divided by each larger config's — ≈1.0 means flat per-event cost.
//! The three sweep sizes run in interleaved rounds (`Bench::rounds`), so
//! each ratio is the median over rounds of the 64-core time over the
//! larger one's, times the larger run's fixed event count over the
//! 64-core run's.
//!
//! Writes `BENCH_scale.json` through [`ltse_bench::harness`].

use logtm_se::{MemConfig, RunReport, System, SystemBuilder};
use ltse_bench::harness::{self, Bench};
use ltse_bench::json::Json;
use ltse_workloads::{Benchmark, SyncMode};

const SWEEP_CORES: [u16; 3] = [64, 128, 256];
const SEED: u64 = 42;

fn build_system(n_cores: u16, checked: bool) -> System {
    let mem = MemConfig::scaled_cmp(n_cores, 1);
    let n_ctxs = mem.n_ctxs();
    let mut s = SystemBuilder::paper_default()
        .mem_config(mem)
        .seed(SEED)
        .check_serializability(checked)
        .build();
    for p in Benchmark::Mp3d.programs(SyncMode::Tm, n_ctxs, units_per_thread()) {
        s.add_thread(p);
    }
    s
}

fn units_per_thread() -> u64 {
    if harness::quick() {
        1
    } else {
        4
    }
}

fn run_once(n_cores: u16, checked: bool) -> RunReport {
    let mut s = build_system(n_cores, checked);
    let report = s.run().expect("scaled run");
    if checked {
        let errs = s.finish_checks();
        assert!(
            errs.is_empty(),
            "serializability violations at {n_cores} cores: {}",
            errs.join("; ")
        );
    }
    report
}

/// One `runs` entry: the simulated-run facts recorded next to the timings.
fn run_row(n_cores: u16, checked: bool, r: &RunReport) -> Json {
    Json::obj()
        .field("n_cores", n_cores)
        .field("n_ctxs", n_cores)
        .field("cycles", r.cycles.as_u64())
        .field("events", r.events_dispatched)
        .field("commits", r.tm.commits)
        .field("aborts", r.tm.aborts)
        .field("checked", checked)
}

fn main() {
    let iters = harness::iters(if harness::quick() { 21 } else { 11 });
    let mut bench = Bench::new("scale");
    let mut runs = Vec::new();
    let mut events = Vec::new();

    // ---- the 64/128/256-core sweep --------------------------------------
    // The event count is a pure function of (config, seed), so one recorded
    // run fixes it for every timed repetition.
    bench.group("sweep", iters);
    for n_cores in SWEEP_CORES {
        let r = run_once(n_cores, false);
        assert!(r.tm.commits > 0, "{n_cores}-core run committed nothing");
        runs.push(run_row(n_cores, false, &r));
        events.push(r.events_dispatched as f64);
    }
    let sweep = |n_cores| {
        move || {
            run_once(n_cores, false);
        }
    };
    let times = bench.rounds(&mut [
        ("cores_64", &mut sweep(64)),
        ("cores_128", &mut sweep(128)),
        ("cores_256", &mut sweep(256)),
    ]);
    let per_event_vs = |i: usize| {
        let t = times.as_ref()?;
        Some(harness::median_ratio(&t[0], &t[i]) * events[i] / events[0])
    };
    let (vs_128, vs_256) = (per_event_vs(1), per_event_vs(2));

    // ---- 256 contexts under the serializability oracle ------------------
    // `run_once(_, true)` panics on any violation, so a finished timing run
    // doubles as the correctness gate.
    runs.push(run_row(256, true, &run_once(256, true)));
    bench.group("checked", iters);
    bench.case("cores_256_serializability", || run_once(256, true));

    bench.ratio("per_event_64_vs_128", vs_128);
    bench.ratio("per_event_64_vs_256", vs_256);
    bench.field("units_per_thread", units_per_thread());
    bench.field("runs", runs);
    bench.finish();
}
