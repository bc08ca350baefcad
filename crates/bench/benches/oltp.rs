//! Open-loop OLTP throughput/latency bench, with machine-readable output.
//!
//! Two sections:
//!
//! 1. **points** — the three canonical skew/mix points ([`OLTP_POINTS`])
//!    run on both backends, reporting p50/p99/p999 commit latency and
//!    goodput per row, with the final-KV-state fingerprint cross-checked
//!    between engines per point (commutative writes must converge).
//! 2. **mtx** — the million-transaction acceptance run: one sim run
//!    committing 1,000,000 transactions (64 threads × 15,625) with an RSS
//!    bound asserting memory does not grow with transaction count (the
//!    driver streams transactions from per-tx seeds; nothing is
//!    materialized), then the *same workload* on the STM backend with the
//!    fingerprint equality check.
//!
//! Output matches the other bench targets: human lines on stderr, one JSON
//! document on stdout or to `LTSE_BENCH_JSON` (what `scripts/bench.sh`
//! stores as `BENCH_oltp.json`). The document records the host's `cpus`,
//! and each STM row whether it ran more threads than that
//! (`oversubscribed`; simulator rows run every thread on one, so never).
//! An oversubscribed STM run time-slices its threads, so it shows little
//! real contention.
//!
//! Environment: `LTSE_BENCH_QUICK=1` (small runs: 20k transactions in the
//! mtx section, structure unchanged).

use ltse_bench::experiments::OLTP_POINTS;
use ltse_bench::harness;
use ltse_workloads::{run_oltp, BackendKind, OltpConfig, OltpOutcome};

fn quick() -> bool {
    std::env::var("LTSE_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// Resident-set size of this process in KiB, from `/proc/self/status`
/// (Linux-only; `None` elsewhere, which downgrades the bound to a note).
fn rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn point_cfg(theta_permille: u32, read_pct: u8, quick: bool) -> OltpConfig {
    OltpConfig {
        threads: if quick { 8 } else { 16 },
        txs_per_thread: if quick { 200 } else { 1000 },
        keys: 4096,
        theta: theta_permille as f64 / 1000.0,
        read_pct,
        ops_min: 2,
        ops_max: 8,
        mean_gap: 200,
        seed: 0xC0FFEE,
    }
}

fn mtx_cfg(quick: bool) -> OltpConfig {
    OltpConfig {
        // Full scale: 64 × 15,625 = exactly 1,000,000 transactions.
        threads: if quick { 8 } else { 64 },
        txs_per_thread: if quick { 2_500 } else { 15_625 },
        keys: if quick { 8_192 } else { 65_536 },
        theta: 0.8,
        read_pct: 80,
        ops_min: 2,
        ops_max: 8,
        mean_gap: 50,
        seed: 0xC0FFEE,
    }
}

struct PointRow {
    point: &'static str,
    backend: BackendKind,
    theta_permille: u32,
    read_pct: u8,
    out: OltpOutcome,
}

fn json_point(r: &PointRow, cfg: &OltpConfig, cpus: usize) -> String {
    let (unit, per_mcycle) = match r.backend {
        BackendKind::Sim => {
            let cycles = r.out.report.sim_cycles.unwrap_or(0);
            let g = if cycles > 0 {
                format!(
                    "{:.3}",
                    r.out.committed_txs as f64 * 1e6 / cycles as f64
                )
            } else {
                "null".to_string()
            };
            ("cycles", g)
        }
        BackendKind::Stm => ("ns", "null".to_string()),
    };
    format!(
        "    {{\"point\": \"{}\", \"backend\": \"{}\", \"theta_permille\": {}, \"read_pct\": {}, \
         \"threads\": {}, \"oversubscribed\": {}, \"txs\": {}, \"committed\": {}, \"aborts\": {}, \
         \"latency_unit\": \"{unit}\", \"p50\": {}, \"p99\": {}, \"p999\": {}, \
         \"goodput_tx_per_sec\": {:.1}, \"goodput_tx_per_mcycle\": {per_mcycle}, \
         \"wall_ms\": {:.3}, \"kv_fingerprint\": \"{:016x}\"}}",
        r.point,
        r.backend.name(),
        r.theta_permille,
        r.read_pct,
        cfg.threads,
        r.backend == BackendKind::Stm && cfg.threads as usize > cpus,
        cfg.total_txs(),
        r.out.committed_txs,
        r.out.report.aborts,
        r.out.latency_permille(500).unwrap_or(0),
        r.out.latency_permille(990).unwrap_or(0),
        r.out.latency_permille(999).unwrap_or(0),
        r.out.goodput_tx_per_sec(),
        r.out.report.wall.as_secs_f64() * 1e3,
        r.out.kv_fingerprint,
    )
}

fn main() {
    let quick = quick();
    let mut rows: Vec<(PointRow, OltpConfig)> = Vec::new();

    // ---- skew/mix points on both backends -------------------------------
    for (point, theta_permille, read_pct) in OLTP_POINTS {
        let cfg = point_cfg(theta_permille, read_pct, quick);
        let mut fingerprints = Vec::new();
        for kind in [BackendKind::Sim, BackendKind::Stm] {
            let out = run_oltp(kind, &cfg, false)
                .unwrap_or_else(|e| panic!("oltp {point} on {kind}: {e}"));
            assert_eq!(
                out.committed_txs,
                cfg.total_txs(),
                "{point}/{kind}: committed shortfall"
            );
            eprintln!(
                "{:<28} committed {:>8}  aborts {:>7}  p50 {:>9}  p99 {:>9}  p999 {:>9}  {:>10.0} tx/s",
                format!("points/{point}/{kind}"),
                out.committed_txs,
                out.report.aborts,
                out.latency_permille(500).unwrap_or(0),
                out.latency_permille(990).unwrap_or(0),
                out.latency_permille(999).unwrap_or(0),
                out.goodput_tx_per_sec(),
            );
            fingerprints.push(out.kv_fingerprint);
            rows.push((
                PointRow {
                    point,
                    backend: kind,
                    theta_permille,
                    read_pct,
                    out,
                },
                cfg,
            ));
        }
        assert_eq!(
            fingerprints[0], fingerprints[1],
            "{point}: sim and stm disagree on the final KV state"
        );
    }

    // ---- the million-transaction streaming run --------------------------
    let mcfg = mtx_cfg(quick);
    // Warm up with an identically-shaped tiny run so the RSS delta of the
    // big run isolates per-transaction growth from one-time allocations
    // (system construction, cache arrays, allocator arenas).
    let warm = OltpConfig {
        txs_per_thread: 32,
        ..mcfg
    };
    run_oltp(BackendKind::Sim, &warm, false).expect("mtx warmup run");
    let rss_before = rss_kb();
    let sim = run_oltp(BackendKind::Sim, &mcfg, false).expect("mtx sim run");
    let rss_after = rss_kb();
    assert_eq!(sim.committed_txs, mcfg.total_txs(), "mtx sim shortfall");
    let growth_kb = match (rss_before, rss_after) {
        (Some(b), Some(a)) => Some(a.saturating_sub(b)),
        _ => None,
    };
    if let Some(g) = growth_kb {
        // Materializing the op stream up front would cost hundreds of MB at
        // 1M transactions; streaming keeps the delta to touched-block and
        // histogram state, far under this bound.
        assert!(
            g < 64 * 1024,
            "mtx run grew RSS by {g} KiB — streaming bound (65536 KiB) violated"
        );
    }
    eprintln!(
        "mtx/sim: committed {} in {} cycles, wall {:.1} ms, rss growth {} KiB",
        sim.committed_txs,
        sim.report.sim_cycles.unwrap_or(0),
        sim.report.wall.as_secs_f64() * 1e3,
        growth_kb.map_or("n/a".to_string(), |g| g.to_string()),
    );
    let stm = run_oltp(BackendKind::Stm, &mcfg, false).expect("mtx stm run");
    assert_eq!(stm.committed_txs, mcfg.total_txs(), "mtx stm shortfall");
    assert_eq!(
        sim.kv_fingerprint, stm.kv_fingerprint,
        "mtx: sim and stm disagree on the final KV state"
    );
    eprintln!(
        "mtx/stm: committed {} in wall {:.1} ms ({:.0} tx/s), KV state matches sim",
        stm.committed_txs,
        stm.report.wall.as_secs_f64() * 1e3,
        stm.goodput_tx_per_sec(),
    );

    // ---- JSON ----------------------------------------------------------
    let cpus = harness::detected_cpus();
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"oltp\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"cpus\": {cpus},\n"));
    json.push_str("  \"points\": [\n");
    for (i, (r, cfg)) in rows.iter().enumerate() {
        json.push_str(&json_point(r, cfg, cpus));
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"mtx\": {\n");
    json.push_str(&format!(
        "    \"threads\": {}, \"txs_total\": {},\n",
        mcfg.threads,
        mcfg.total_txs()
    ));
    json.push_str(&format!(
        "    \"sim\": {{\"committed\": {}, \"cycles\": {}, \"wall_ms\": {:.3}, \"p50\": {}, \"p99\": {}, \"p999\": {}, \
         \"rss_before_kb\": {}, \"rss_after_kb\": {}, \"rss_growth_kb\": {}}},\n",
        sim.committed_txs,
        sim.report.sim_cycles.unwrap_or(0),
        sim.report.wall.as_secs_f64() * 1e3,
        sim.latency_permille(500).unwrap_or(0),
        sim.latency_permille(990).unwrap_or(0),
        sim.latency_permille(999).unwrap_or(0),
        rss_before.map_or("null".to_string(), |v| v.to_string()),
        rss_after.map_or("null".to_string(), |v| v.to_string()),
        growth_kb.map_or("null".to_string(), |v| v.to_string()),
    ));
    json.push_str(&format!(
        "    \"stm\": {{\"committed\": {}, \"oversubscribed\": {}, \"wall_ms\": {:.3}, \"p50\": {}, \"p99\": {}, \"p999\": {}}},\n",
        stm.committed_txs,
        mcfg.threads as usize > cpus,
        stm.report.wall.as_secs_f64() * 1e3,
        stm.latency_permille(500).unwrap_or(0),
        stm.latency_permille(990).unwrap_or(0),
        stm.latency_permille(999).unwrap_or(0),
    ));
    json.push_str(&format!(
        "    \"kv_match\": {}\n  }}\n}}\n",
        sim.kv_fingerprint == stm.kv_fingerprint
    ));

    match std::env::var("LTSE_BENCH_JSON") {
        Ok(path) if !path.is_empty() => {
            std::fs::write(&path, &json).expect("write LTSE_BENCH_JSON file");
            eprintln!("wrote {path}");
        }
        _ => print!("{json}"),
    }
}
