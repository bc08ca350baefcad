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
//!
//! The `OLTP hot ×1` and `OLTP hot ×2` groups time the STM's commit
//! synchronisation alone: closed-loop clients with no think time, one
//! client and then two (at most one per CPU), each committing write-heavy
//! transactions back to back. Every writer commit bumps the shared version
//! clock, so the ×2 time less the ×1 time is what the commits pay for
//! sharing it and the stripes between cores.

use logtm_se::{CoherenceKind, ScriptOp, SignatureKind, TxScript, WordAddr};
use ltse_bench::harness::{self, Bench};
use ltse_bench::json::Json;
use ltse_sim::rng::{mix64, Xoshiro256StarStar};
use ltse_stm::{StmBuilder, StmSystem};
use ltse_workloads::{run_on_backend, BackendKind, Benchmark, RunParams, SyncMode, Zipfian};

fn bench_params(benchmark: Benchmark, quick: bool) -> RunParams {
    RunParams {
        benchmark,
        mode: SyncMode::Tm,
        signature: SignatureKind::Perfect,
        threads: 4,
        units_per_thread: if quick { 2 } else { 8 },
        seed: SEED,
        small_machine: false,
        sticky: true,
        coherence: CoherenceKind::DirectoryMesi,
    }
}

/// Seed of every generated input.
const SEED: u64 = 0xC0FFEE;

/// `txs` closed-loop transactions per client, the shape of the benchmark's
/// `stm_oltp_hot`: 2–8 ops each over 4,096 keys drawn Zipf(0.99), one
/// cache block per key, half of the ops fetch-adds and the rest reads.
fn oltp_hot_clients(clients: usize, txs: usize) -> Vec<Vec<Vec<ScriptOp>>> {
    let zipf = Zipfian::new(4096, 0.99);
    (0..clients as u64)
        .map(|client| {
            let mut rng = Xoshiro256StarStar::new(mix64(SEED ^ mix64(client + 1)));
            (0..txs)
                .map(|_| {
                    (0..rng.gen_range(2, 9))
                        .map(|_| {
                            let addr = WordAddr(zipf.sample(&mut rng) * 8);
                            if rng.gen_bool(0.5) {
                                ScriptOp::FetchAdd(addr, rng.gen_range(1, 8))
                            } else {
                                ScriptOp::Read(addr)
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
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

    let txs = if quick { 2_000 } else { 20_000 };
    for (group, clients) in [("OLTP hot ×1", 1), ("OLTP hot ×2", cpus.min(2))] {
        let scripts = oltp_hot_clients(clients, txs);
        // One system per call (the untimed warm-up too), built before the
        // timing starts and dropped after it ends: a call times the run
        // alone, not the word table's set-up or the scripts' copies.
        let mut ready: Vec<StmSystem> = (0..=iters)
            .map(|_| {
                let mut sys = StmBuilder::new().seed(SEED).build();
                for s in &scripts {
                    sys.add_thread(Box::new(TxScript::new(s.clone())));
                }
                sys
            })
            .collect();
        let mut ran = Vec::with_capacity(ready.len());
        let fields = vec![
            ("threads", Json::from(clients)),
            ("oversubscribed", Json::from(clients > cpus)),
        ];
        bench.group(group, iters);
        bench.case_with("stm", fields, || {
            let mut sys = ready.pop().expect("one system per call");
            let report = sys.run().expect("stm run");
            ran.push(sys);
            report
        });
    }

    for b in workloads {
        let ratio = format!("stm_vs_sim_{}", b.name().to_lowercase());
        bench.speedup(&ratio, b.name(), "sim", "stm");
    }
    bench.finish();
}
