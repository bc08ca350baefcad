//! Adaptive contention-management policy bench, with machine-readable
//! output.
//!
//! Runs the `policy_sweep` experiment — every contention policy (including
//! `Adaptive`) over contended workload points (Mp3d plus two OLTP skew/mix
//! points) on both backends — then answers the two questions the adaptive
//! manager exists to answer:
//!
//! 1. **Do the static policies trade places?** Per (point, backend) the
//!    best *static* policy is recorded; the sweep is interesting exactly
//!    when at least two distinct static policies each win somewhere.
//! 2. **Is `Adaptive` ever far from the best?** Per point, `Adaptive`'s
//!    score relative to the per-point best over all policies; the summary
//!    reports the minimum of those ratios and an `adaptive_ok` flag
//!    (min ≥ 0.95, i.e. within 5 % of the best everywhere).
//!
//! Sim rows are cycle-denominated and deterministic. STM rows are
//! wall-clock goodput from real OS threads and noisy on small hosts, so
//! they are re-run a few times and the best run is kept (best-of-N damps
//! scheduler noise without hiding systematic policy differences). Each row
//! records whether it ran more OS threads than the host has CPUs
//! (`oversubscribed`; simulator rows run every thread on one, so never).
//!
//! Writes `BENCH_policy.json` through [`ltse_bench::harness`].

use ltse_bench::experiments::{
    policy_oltp_config, policy_points, policy_sweep, policy_tune, ExperimentScale, PolicySweepRow,
    POLICY_ESCALATE_AFTER, POLICY_OLTP_POINTS,
};
use ltse_bench::harness::{self, Bench};
use ltse_bench::json::Json;
use ltse_workloads::{run_oltp_with, BackendKind};

/// Re-runs the STM leg of one OLTP row `extra` more times and keeps the
/// best wall-clock goodput (sim rows are deterministic and never re-run).
fn stm_best_of(row: &mut PolicySweepRow, scale: &ExperimentScale, extra: usize) {
    let Some((_, theta_permille, read_pct)) = POLICY_OLTP_POINTS
        .iter()
        .find(|(name, _, _)| *name == row.workload)
    else {
        return; // the Mp3d point has no STM leg
    };
    let cfg = policy_oltp_config(scale, *theta_permille, *read_pct);
    for _ in 0..extra {
        match run_oltp_with(BackendKind::Stm, &cfg, false, &policy_tune(row.policy)) {
            Ok(out) => {
                let score = out.goodput_tx_per_sec();
                if score > row.score {
                    row.score = score;
                    row.committed = out.committed_txs;
                    row.aborts = out.report.aborts;
                    row.serial_escalations = out.report.serial_escalations;
                    row.completed = out.committed_txs == cfg.total_txs();
                }
            }
            Err(e) => panic!("policy/{}/stm/{}: {e}", row.workload, row.policy.name()),
        }
    }
}

fn row_json(r: &PolicySweepRow, threads: u32, cpus: usize) -> Json {
    Json::obj()
        .field("point", r.workload)
        .field("backend", r.backend.name())
        .field("policy", r.policy.name())
        .field("score", Json::Num(r.score, 4))
        .field("committed", r.committed)
        .field("aborts", r.aborts)
        .field("serial_escalations", r.serial_escalations)
        .field("completed", r.completed)
        .field(
            "oversubscribed",
            r.backend == BackendKind::Stm && threads as usize > cpus,
        )
}

fn main() {
    let quick = harness::quick();
    let mut bench = Bench::new("policy");
    let scale = if quick {
        ExperimentScale::quick()
    } else {
        ExperimentScale {
            threads: 16,
            units_per_thread: 12,
            seeds: 1,
            base_seed: 0xC0FFEE,
            warmup_units: 0,
        }
    };
    let mut rows = policy_sweep(&scale).unwrap_or_else(|e| panic!("policy sweep failed:\n{e}"));

    // Best-of-N on the wall-clock STM rows only.
    let extra = if quick { 1 } else { 2 };
    for row in rows.iter_mut().filter(|r| r.backend == BackendKind::Stm) {
        stm_best_of(row, &scale, extra);
    }

    for r in &rows {
        eprintln!(
            "{:<44} score {:>12.3}  committed {:>7}  aborts {:>7}  esc {:>5}  {}",
            format!("{}/{}/{}", r.workload, r.backend.name(), r.policy.name()),
            r.score,
            r.committed,
            r.aborts,
            r.serial_escalations,
            if r.completed { "done" } else { "INCOMPLETE" },
        );
    }

    // ---- per-point analysis --------------------------------------------
    let mut point_summaries = Vec::new();
    let mut static_winners: Vec<&'static str> = Vec::new();
    let mut adaptive_min_rel = f64::INFINITY;
    for point in policy_points(&rows) {
        let (workload, backend) = (point.rows[0].workload, point.rows[0].backend);
        let best_static = point.best_static.expect("static rows");
        let adaptive = point.adaptive.expect("adaptive row");
        let rel = point.adaptive_vs_best().expect("adaptive row");
        adaptive_min_rel = adaptive_min_rel.min(rel);
        if !static_winners.contains(&best_static.policy.name()) {
            static_winners.push(best_static.policy.name());
        }
        eprintln!(
            "point {:<28} best_static {:<16} ({:.3})  adaptive {:.3} = {:.1}% of best",
            format!("{workload}/{}", backend.name()),
            best_static.policy.name(),
            best_static.score,
            adaptive.score,
            rel * 100.0,
        );
        point_summaries.push(
            Json::obj()
                .field("point", workload)
                .field("backend", backend.name())
                .field("best_static_policy", best_static.policy.name())
                .field("best_static_score", Json::Num(best_static.score, 4))
                .field("adaptive_score", Json::Num(adaptive.score, 4))
                .field("adaptive_vs_best", Json::Num(rel, 4)),
        );
    }
    let adaptive_ok = adaptive_min_rel >= 0.95;
    eprintln!(
        "summary: {} distinct static winners ({}), adaptive min {:.1}% of best → adaptive_ok={}",
        static_winners.len(),
        static_winners.join(", "),
        adaptive_min_rel * 100.0,
        adaptive_ok,
    );

    let cpus = harness::detected_cpus();
    let rows: Vec<Json> = rows
        .iter()
        .map(|r| row_json(r, scale.threads, cpus))
        .collect();
    bench.field("threads", scale.threads);
    bench.field("escalate_after", POLICY_ESCALATE_AFTER);
    bench.field("rows", rows);
    bench.field("points", point_summaries);
    let distinct_static_winners = static_winners.len();
    bench.field(
        "summary",
        Json::obj()
            .field("static_winners", static_winners)
            .field("distinct_static_winners", distinct_static_winners)
            .field("adaptive_min_rel", Json::Num(adaptive_min_rel, 4))
            .field("adaptive_ok", adaptive_ok),
    );
    bench.finish();
}
