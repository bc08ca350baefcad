//! Sim-vs-STM throughput bench, with machine-readable output.
//!
//! Runs the same Table-2 workloads (BerkeleyDB, Raytrace, Mp3d) through the
//! cycle-level simulator and through the real-concurrency TL2 STM backend,
//! timing the *wall clock* of each complete run. The emitted
//! `stm_vs_sim_<benchmark>` ratios read "how much faster does the STM
//! execute this program stream than the simulator simulates it" — a
//! host-speed comparison, not a claim about the modeled hardware (the
//! simulator's own currency is simulated cycles, which `repro --backend
//! stm` reports alongside).
//!
//! Writes `BENCH_stm.json` through [`ltse_bench::harness`]. Each case
//! records the workload's `threads` and whether it ran more OS threads than
//! the host has CPUs (`oversubscribed`). Only an STM case can: the
//! simulator runs every thread on one. An oversubscribed STM run
//! time-slices its threads, so it shows little real contention.

use logtm_se::{CoherenceKind, SignatureKind};
use ltse_bench::harness::{self, Bench};
use ltse_bench::json::Json;
use ltse_workloads::{run_on_backend, BackendKind, Benchmark, RunParams, SyncMode};

fn bench_params(benchmark: Benchmark, quick: bool) -> RunParams {
    RunParams {
        benchmark,
        mode: SyncMode::Tm,
        signature: SignatureKind::Perfect,
        threads: 4,
        units_per_thread: if quick { 2 } else { 8 },
        seed: 0xC0FFEE,
        small_machine: false,
        sticky: true,
        log_filter_entries: 16,
        coherence: CoherenceKind::DirectoryMesi,
        warmup_units: 0,
    }
}

fn main() {
    let quick = harness::quick();
    let iters = harness::iters(if quick { 2 } else { 6 });
    let cpus = harness::detected_cpus();
    let mut bench = Bench::new("stm");

    // Three of the paper's Table-2 workloads, spanning the footprint range:
    // BerkeleyDB (large hot read/write sets), Raytrace (hot counter plus a
    // rare huge read-set), Mp3d (small scattered updates).
    let workloads = [Benchmark::BerkeleyDb, Benchmark::Raytrace, Benchmark::Mp3d];
    for benchmark in workloads {
        let p = bench_params(benchmark, quick);
        let fields = |oversubscribed: bool| {
            vec![
                ("threads", Json::from(p.threads)),
                ("oversubscribed", Json::from(oversubscribed)),
            ]
        };
        bench.group(benchmark.name(), iters);
        bench.case_with("sim", fields(false), || {
            run_on_backend(BackendKind::Sim, &p).expect("sim run")
        });
        bench.case_with("stm", fields(p.threads as usize > cpus), || {
            run_on_backend(BackendKind::Stm, &p).expect("stm run")
        });
    }
    for b in workloads {
        let ratio = format!("stm_vs_sim_{}", b.name().to_lowercase());
        bench.speedup(&ratio, b.name(), "sim", "stm");
    }
    bench.finish();
}
