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
//! Output:
//!
//! * human-readable lines on **stderr**;
//! * a single JSON document on **stdout**, or to the file named by
//!   `LTSE_BENCH_JSON` if set (what `scripts/bench.sh` uses to produce
//!   `BENCH_stm.json`).
//!
//! The document records the host's `cpus`, and each case the workload's
//! `threads` and whether it ran more OS threads than the host has CPUs
//! (`oversubscribed`). Only an STM case can: the simulator runs every
//! thread on one. An oversubscribed STM run time-slices its threads, so it
//! shows little real contention.
//!
//! Environment:
//!
//! * `LTSE_BENCH_QUICK=1` — CI smoke mode: tiny workloads, 2 iterations,
//!   still full JSON structure (no timing thresholds are asserted anywhere).
//! * `LTSE_BENCH_ITERS=N` — override the per-case iteration count.

use std::hint::black_box;
use std::time::Instant;

use logtm_se::{CoherenceKind, SignatureKind};
use ltse_bench::harness;
use ltse_workloads::{run_on_backend, BackendKind, Benchmark, RunParams, SyncMode};

struct CaseResult {
    group: &'static str,
    name: &'static str,
    threads: u32,
    mean_ms: f64,
    best_ms: f64,
    iters: usize,
}

fn time_case<T>(
    out: &mut Vec<CaseResult>,
    group: &'static str,
    name: &'static str,
    threads: u32,
    iters: usize,
    mut f: impl FnMut() -> T,
) {
    black_box(f()); // warmup
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..iters {
        let t0 = Instant::now();
        black_box(f());
        let dt = t0.elapsed().as_secs_f64();
        total += dt;
        best = best.min(dt);
    }
    let mean_ms = total / iters as f64 * 1e3;
    let best_ms = best * 1e3;
    eprintln!(
        "{:<44} mean {mean_ms:>9.3} ms   best {best_ms:>9.3} ms   ({iters} iters)",
        format!("{group}/{name}")
    );
    out.push(CaseResult {
        group,
        name,
        threads,
        mean_ms,
        best_ms,
        iters,
    });
}

fn find<'a>(out: &'a [CaseResult], group: &str, name: &str) -> Option<&'a CaseResult> {
    out.iter().find(|c| c.group == group && c.name == name)
}

/// best-time ratio `baseline / optimized` (higher = optimized is faster).
fn speedup(out: &[CaseResult], group: &str, baseline: &str, optimized: &str) -> Option<f64> {
    let b = find(out, group, baseline)?;
    let o = find(out, group, optimized)?;
    (o.best_ms > 0.0).then(|| b.best_ms / o.best_ms)
}

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
    let quick = std::env::var("LTSE_BENCH_QUICK").is_ok_and(|v| v == "1");
    let iters = harness::iters(if quick { 2 } else { 6 });
    let mut out: Vec<CaseResult> = Vec::new();

    // Three of the paper's Table-2 workloads, spanning the footprint range:
    // BerkeleyDB (large hot read/write sets), Raytrace (hot counter plus a
    // rare huge read-set), Mp3d (small scattered updates).
    let workloads = [Benchmark::BerkeleyDb, Benchmark::Raytrace, Benchmark::Mp3d];
    for benchmark in workloads {
        let p = bench_params(benchmark, quick);
        let group = benchmark.name();
        time_case(&mut out, group, "sim", p.threads, iters, || {
            run_on_backend(BackendKind::Sim, &p).expect("sim run")
        });
        time_case(&mut out, group, "stm", p.threads, iters, || {
            run_on_backend(BackendKind::Stm, &p).expect("stm run")
        });
    }

    // ---- JSON ----------------------------------------------------------
    let cpus = harness::detected_cpus();
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"stm\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"cpus\": {cpus},\n"));
    json.push_str("  \"cases\": [\n");
    for (i, c) in out.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"group\": \"{}\", \"name\": \"{}\", \"threads\": {}, \"oversubscribed\": {}, \"mean_ms\": {:.6}, \"best_ms\": {:.6}, \"iters\": {}}}{}\n",
            c.group,
            c.name,
            c.threads,
            c.name == "stm" && c.threads as usize > cpus,
            c.mean_ms,
            c.best_ms,
            c.iters,
            if i + 1 < out.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"speedups\": {\n");
    let pairs: Vec<(String, Option<f64>)> = workloads
        .iter()
        .map(|b| {
            (
                format!("stm_vs_sim_{}", b.name().to_lowercase()),
                speedup(&out, b.name(), "sim", "stm"),
            )
        })
        .collect();
    for (i, (name, s)) in pairs.iter().enumerate() {
        json.push_str(&format!(
            "    \"{name}\": {}{}\n",
            s.map_or("null".to_string(), |v| format!("{v:.3}")),
            if i + 1 < pairs.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");

    for (name, s) in &pairs {
        if let Some(s) = s {
            eprintln!("speedup {name:<32} {s:.2}x");
        }
    }

    match std::env::var("LTSE_BENCH_JSON") {
        Ok(path) if !path.is_empty() => {
            std::fs::write(&path, &json).expect("write LTSE_BENCH_JSON file");
            eprintln!("wrote {path}");
        }
        _ => print!("{json}"),
    }
}
