//! Timing bench: the ablation configurations (sticky on/off, log-filter
//! sizes, virtualization pressure), each as one tracked run.

use logtm_se::{CoherenceKind, ContentionPolicy, Cycle, SignatureKind, SystemBuilder};
use ltse_bench::experiments::{nesting_ablation, smt_comparison, ExperimentScale};
use ltse_bench::harness::{self, Bench};
use ltse_workloads::{run_benchmark, Benchmark, RunParams, SyncMode};

fn base_params(benchmark: Benchmark) -> RunParams {
    RunParams {
        benchmark,
        mode: SyncMode::Tm,
        signature: SignatureKind::Perfect,
        threads: 8,
        units_per_thread: 4,
        seed: 3,
        small_machine: false,
        sticky: true,
        log_filter_entries: 16,
        coherence: CoherenceKind::DirectoryMesi,
        warmup_units: 0,
    }
}

fn main() {
    let iters = harness::iters(10);
    let mut bench = Bench::new("ablations");
    bench.group("sticky_ablation", iters);
    for on in [true, false] {
        bench.case(&format!("raytrace/sticky={on}"), || {
            let mut p = base_params(Benchmark::Raytrace);
            p.sticky = on;
            p.units_per_thread = 8;
            run_benchmark(&p).expect("run")
        });
    }

    bench.group("log_filter", iters);
    for entries in [0usize, 4, 16, 64] {
        bench.case(&format!("berkeleydb/entries={entries}"), || {
            let mut p = base_params(Benchmark::BerkeleyDb);
            p.log_filter_entries = entries;
            run_benchmark(&p).expect("run")
        });
    }

    bench.group("virtualization", iters);
    for (label, quantum, defer) in [
        ("defer", Cycle(10_000), true),
        ("no_defer", Cycle(10_000), false),
    ] {
        bench.case(&format!("mp3d_oversubscribed/{label}"), || {
            let mut system = SystemBuilder::paper_default()
                .signature(SignatureKind::paper_bs_2kb())
                .seed(4)
                .preemption(quantum, defer)
                .build();
            for p in Benchmark::Mp3d.programs(SyncMode::Tm, 12, 3) {
                system.add_thread(p);
            }
            system.run().expect("run")
        });
    }

    bench.group("coherence", iters);
    for kind in [CoherenceKind::DirectoryMesi, CoherenceKind::SnoopingMesi] {
        bench.case(&format!("mp3d/{kind}"), || {
            let mut p = base_params(Benchmark::Mp3d);
            p.coherence = kind;
            run_benchmark(&p).expect("run")
        });
    }

    bench.group("multi_cmp", iters);
    for chips in [1u8, 4] {
        bench.case(&format!("mp3d/chips={chips}"), || {
            let mut system = SystemBuilder::paper_default()
                .signature(SignatureKind::paper_bs_2kb())
                .chips(chips)
                .seed(6)
                .build();
            for p in Benchmark::Mp3d.programs(SyncMode::Tm, 8, 4) {
                system.add_thread(p);
            }
            system.run().expect("run")
        });
    }

    bench.group("contention", iters);
    for policy in [
        ContentionPolicy::RequesterStalls,
        ContentionPolicy::SizeMatters,
    ] {
        bench.case(&format!("berkeleydb/{policy:?}"), || {
            let mut system = SystemBuilder::paper_default()
                .signature(SignatureKind::paper_bs_2kb())
                .contention(policy)
                .seed(7)
                .build();
            for p in Benchmark::BerkeleyDb.programs(SyncMode::Tm, 8, 4) {
                system.add_thread(p);
            }
            system.run().expect("run")
        });
    }

    bench.group("nesting", iters);
    bench.case("flat_vs_nested", || {
        nesting_ablation(&ExperimentScale::quick()).expect("sweep")
    });

    bench.group("smt", iters);
    bench.case("16x2_vs_32x1", || {
        smt_comparison(&ExperimentScale::quick()).expect("sweep")
    });
}
