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
//! Writes `BENCH_oltp.json` through [`ltse_bench::harness`]; quick mode
//! runs 20k transactions in the mtx section. Each STM row records whether
//! it ran more threads than the host has CPUs (`oversubscribed`; simulator
//! rows run every thread on one, so never). An oversubscribed STM run
//! time-slices its threads, so it shows little real contention.

use ltse_bench::experiments::OLTP_POINTS;
use ltse_bench::harness::{self, Bench};
use ltse_bench::json::Json;
use ltse_workloads::{run_oltp, BackendKind, OltpConfig, OltpOutcome};

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

fn wall_ms(out: &OltpOutcome) -> Json {
    Json::Num(out.report.wall.as_secs_f64() * 1e3, 3)
}

/// Appends the p50/p99/p999 commit latencies to `row`.
fn percentiles(row: Json, out: &OltpOutcome) -> Json {
    row.field("p50", out.latency_permille(500).unwrap_or(0))
        .field("p99", out.latency_permille(990).unwrap_or(0))
        .field("p999", out.latency_permille(999).unwrap_or(0))
}

/// One `points` row: a skew/mix point on one backend.
fn point_row(
    (point, theta_permille, read_pct): (&str, u32, u8),
    backend: BackendKind,
    cfg: &OltpConfig,
    cpus: usize,
    out: &OltpOutcome,
) -> Json {
    let (unit, per_mcycle) = match backend {
        BackendKind::Sim => {
            let cycles = out.report.sim_cycles.unwrap_or(0);
            let g = (cycles > 0).then(|| out.committed_txs as f64 * 1e6 / cycles as f64);
            ("cycles", g.map(|g| Json::Num(g, 3)))
        }
        BackendKind::Stm => ("ns", None),
    };
    let row = Json::obj()
        .field("point", point)
        .field("backend", backend.name())
        .field("theta_permille", theta_permille)
        .field("read_pct", read_pct)
        .field("threads", cfg.threads)
        .field(
            "oversubscribed",
            backend == BackendKind::Stm && cfg.threads as usize > cpus,
        )
        .field("txs", cfg.total_txs())
        .field("committed", out.committed_txs)
        .field("aborts", out.report.aborts)
        .field("latency_unit", unit);
    percentiles(row, out)
        .field("goodput_tx_per_sec", Json::Num(out.goodput_tx_per_sec(), 1))
        .field("goodput_tx_per_mcycle", per_mcycle)
        .field("wall_ms", wall_ms(out))
        .field("kv_fingerprint", format!("{:016x}", out.kv_fingerprint))
}

fn main() {
    let quick = harness::quick();
    let cpus = harness::detected_cpus();
    let mut bench = Bench::new("oltp");
    let mut points = Vec::new();

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
            points.push(point_row(
                (point, theta_permille, read_pct),
                kind,
                &cfg,
                cpus,
                &out,
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

    let sim_row = Json::obj()
        .field("committed", sim.committed_txs)
        .field("cycles", sim.report.sim_cycles.unwrap_or(0))
        .field("wall_ms", wall_ms(&sim));
    let stm_row = Json::obj()
        .field("committed", stm.committed_txs)
        .field("oversubscribed", mcfg.threads as usize > cpus)
        .field("wall_ms", wall_ms(&stm));
    bench.field("points", points);
    bench.field(
        "mtx",
        Json::obj()
            .field("threads", mcfg.threads)
            .field("txs_total", mcfg.total_txs())
            .field(
                "sim",
                percentiles(sim_row, &sim)
                    .field("rss_before_kb", rss_before)
                    .field("rss_after_kb", rss_after)
                    .field("rss_growth_kb", growth_kb),
            )
            .field("stm", percentiles(stm_row, &stm))
            .field("kv_match", sim.kv_fingerprint == stm.kv_fingerprint),
    );
    bench.finish();
}
