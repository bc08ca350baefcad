//! Timing bench: the Table 3 configurations (Raytrace and BerkeleyDB
//! under each signature scheme/size), exercising the false-positive
//! accounting path end to end.

use logtm_se::{CoherenceKind, SignatureKind};
use ltse_bench::harness::{self, Bench};
use ltse_workloads::{run_benchmark, Benchmark, RunParams, SyncMode};

fn main() {
    let mut bench = Bench::new("table3");
    bench.group("table3", harness::iters(10));
    let signatures = [
        SignatureKind::Perfect,
        SignatureKind::BitSelect { bits: 2048 },
        SignatureKind::CoarseBitSelect {
            bits: 2048,
            blocks_per_macroblock: 16,
        },
        SignatureKind::DoubleBitSelect { bits: 2048 },
        SignatureKind::BitSelect { bits: 64 },
    ];
    for benchmark in [Benchmark::Raytrace, Benchmark::BerkeleyDb] {
        for kind in signatures {
            let p = RunParams {
                benchmark,
                mode: SyncMode::Tm,
                signature: kind,
                threads: 8,
                units_per_thread: 4,
                seed: 2,
                small_machine: false,
                sticky: true,
                log_filter_entries: 16,
                coherence: CoherenceKind::DirectoryMesi,
                warmup_units: 0,
            };
            bench.case(&format!("{benchmark}/{}", kind.label()), || {
                run_benchmark(&p).expect("run")
            });
        }
    }
}
