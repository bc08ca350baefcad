//! Timing bench: one case per Figure 4 cell (benchmark × sync/signature
//! configuration). The wall-clock timings measure the *simulator*; the
//! simulated speedups are what `repro figure4` prints — this bench keeps
//! every cell exercised and regression-tracked.

use logtm_se::{CoherenceKind, SignatureKind};
use ltse_bench::harness::{self, Bench};
use ltse_workloads::{run_benchmark, Benchmark, RunParams, SyncMode};

fn cell_params(benchmark: Benchmark, mode: SyncMode, signature: SignatureKind) -> RunParams {
    RunParams {
        benchmark,
        mode,
        signature,
        threads: 8,
        units_per_thread: 4,
        seed: 1,
        small_machine: false,
        sticky: true,
        log_filter_entries: 16,
        coherence: CoherenceKind::DirectoryMesi,
        warmup_units: 0,
    }
}

fn main() {
    let mut bench = Bench::new("figure4");
    bench.group("figure4", harness::iters(10));
    for benchmark in Benchmark::all() {
        // Lock baseline bar.
        let p = cell_params(benchmark, SyncMode::Lock, SignatureKind::Perfect);
        bench.case(&format!("{benchmark}/lock"), || {
            run_benchmark(&p).expect("run")
        });
        for kind in SignatureKind::figure4_set() {
            let p = cell_params(benchmark, SyncMode::Tm, kind);
            bench.case(&format!("{benchmark}/tm/{}", kind.label()), || {
                run_benchmark(&p).expect("run")
            });
        }
    }
}
