//! `repro --stats-json` — machine-readable telemetry export.
//!
//! One observability-enabled run per experiment of the paper's evaluation,
//! serialized as a versioned JSON document ([`STATS_SCHEMA`]). Each row
//! carries the aggregate `TmStats` counters *and* the obs layer's
//! cause-attributed breakdowns side by side, plus a `reconciled` block
//! asserting that the per-cause counts sum back to the aggregates — the
//! contract downstream tooling can rely on.
//!
//! Determinism is load-bearing: the runs here execute sequentially and
//! every map in the document iterates in sorted order, so the emitted bytes
//! are identical whatever `--jobs` says.

use logtm_se::{
    CoherenceKind, ContentionPolicy, Cycle, ObsReport, RunReport, SignatureKind, SystemBuilder,
    TmBackend,
};
use ltse_sim::config::seed_sequence;
use ltse_stm::StmBuilder;
use ltse_workloads::{run_oltp, BackendKind, Benchmark, OltpOutcome, SyncMode};

use crate::experiments::{oltp_config, ExperimentScale, OLTP_POINTS};
use crate::json::Json;

/// Schema tag of the emitted document; bump on any breaking shape change.
pub const STATS_SCHEMA: &str = "ltse.stats.v1";

/// One representative observability run per experiment: the experiment
/// name, the benchmark it runs, and the builder knobs that distinguish it.
struct ObsCase {
    experiment: &'static str,
    benchmark: Benchmark,
    signature: SignatureKind,
    configure: fn(SystemBuilder) -> SystemBuilder,
}

fn ident(b: SystemBuilder) -> SystemBuilder {
    b
}

/// The 13 sweep experiments of the `repro` binary (everything except the
/// static `table1`/`table4` texts), each reduced to one representative
/// configuration. Kept in `repro all` output order.
fn cases() -> Vec<ObsCase> {
    vec![
        ObsCase {
            experiment: "table2",
            benchmark: Benchmark::BerkeleyDb,
            signature: SignatureKind::Perfect,
            configure: ident,
        },
        ObsCase {
            experiment: "figure4",
            benchmark: Benchmark::Cholesky,
            signature: SignatureKind::paper_bs_2kb(),
            configure: ident,
        },
        ObsCase {
            experiment: "table3",
            benchmark: Benchmark::Radiosity,
            signature: SignatureKind::paper_bs_64(),
            configure: ident,
        },
        ObsCase {
            experiment: "victimization",
            benchmark: Benchmark::Raytrace,
            signature: SignatureKind::paper_bs_2kb(),
            configure: ident,
        },
        ObsCase {
            experiment: "sweep",
            benchmark: Benchmark::Mp3d,
            signature: SignatureKind::paper_bs_64(),
            configure: ident,
        },
        ObsCase {
            experiment: "sticky",
            benchmark: Benchmark::BerkeleyDb,
            signature: SignatureKind::paper_bs_2kb(),
            configure: |b| b.sticky(false),
        },
        ObsCase {
            experiment: "logfilter",
            benchmark: Benchmark::Cholesky,
            signature: SignatureKind::paper_bs_2kb(),
            configure: |b| b.log_filter_entries(0),
        },
        ObsCase {
            experiment: "virt",
            benchmark: Benchmark::Radiosity,
            signature: SignatureKind::paper_bs_2kb(),
            configure: |b| b.preemption(Cycle(5_000), false),
        },
        ObsCase {
            experiment: "snooping",
            benchmark: Benchmark::Raytrace,
            signature: SignatureKind::paper_bs_2kb(),
            configure: |b| b.coherence(CoherenceKind::SnoopingMesi),
        },
        ObsCase {
            experiment: "policy",
            benchmark: Benchmark::Mp3d,
            signature: SignatureKind::paper_bs_2kb(),
            configure: |b| b.contention(ContentionPolicy::SizeMatters),
        },
        ObsCase {
            experiment: "multicmp",
            benchmark: Benchmark::BerkeleyDb,
            signature: SignatureKind::paper_bs_2kb(),
            configure: |b| b.chips(2),
        },
        ObsCase {
            experiment: "nesting",
            benchmark: Benchmark::Cholesky,
            signature: SignatureKind::paper_bs_2kb(),
            configure: ident,
        },
        ObsCase {
            experiment: "smt",
            benchmark: Benchmark::Radiosity,
            signature: SignatureKind::paper_bs_2kb(),
            configure: ident,
        },
    ]
}

fn run_case(case: &ObsCase, scale: &ExperimentScale, seed: u64) -> Result<RunReport, String> {
    let builder = SystemBuilder::paper_default()
        .signature(case.signature)
        .seed(seed)
        .warmup_units(scale.warmup_units)
        .observe(true);
    let mut system = (case.configure)(builder).build();
    for program in case
        .benchmark
        .programs(SyncMode::Tm, scale.threads, scale.units_per_thread)
    {
        system.add_thread(program);
    }
    system
        .run()
        .map_err(|e| format!("{}/{}: {e:?}", case.experiment, case.benchmark))
}

fn obs_json(o: &ObsReport) -> Json {
    let c = o.cycles_total();
    let metrics = o
        .metrics
        .iter()
        .map(|(name, v)| (name.to_string(), v.into()));
    let nack_pairs = o.nack_pairs.iter().map(|&(nacker, requester, count)| {
        Json::Arr(vec![nacker.into(), requester.into(), count.into()])
    });
    Json::obj()
        .field(
            "stalls",
            Json::obj()
                .field("coherence_nack", o.stalls_coherence)
                .field("sibling_nack", o.stalls_sibling)
                .field("summary_conflict", o.stalls_summary),
        )
        .field(
            "aborts",
            Json::obj()
                .field("conflict_resolution", o.aborts_conflict)
                .field("summary_stall_limit", o.aborts_summary_limit)
                .field("sticky_overflow", o.aborts_sticky_overflow)
                .field("parked_by_summary_handler", o.aborts_parked),
        )
        .field(
            "nacks",
            Json::obj()
                .field("in_cache", o.nacks_in_cache)
                .field("sticky", o.nacks_sticky)
                .field("judged_true", o.nacks_judged_true)
                .field("judged_false", o.nacks_judged_false)
                .field("unjudged", o.metrics.get("nacks_unjudged")),
        )
        .field(
            "cycles",
            Json::obj()
                .field("useful", c.useful)
                .field("stalled", c.stalled)
                .field("aborted", c.aborted)
                .field("log_walk", c.log_walk),
        )
        .field(
            "spans",
            Json::obj()
                .field("committed", o.spans_committed)
                .field("aborted", o.spans_aborted)
                .field("dropped", o.spans_dropped)
                .field("retained", o.spans.len()),
        )
        .field("metrics", Json::Obj(metrics.collect()))
        .field("nack_pairs", Json::Arr(nack_pairs.collect()))
}

fn row_json(case: &ObsCase, seed: u64, r: &RunReport) -> Json {
    let o = r.obs.as_ref().expect("stats-json runs enable observe");
    Json::obj()
        .field("experiment", case.experiment)
        .field("benchmark", case.benchmark.to_string())
        .field("signature", case.signature.to_string())
        .field("seed", seed)
        .field("cycles", r.cycles.as_u64())
        .field("measured_cycles", r.measured_cycles.as_u64())
        .field(
            "tm",
            Json::obj()
                .field("commits", r.tm.commits)
                .field("aborts", r.tm.aborts)
                .field("partial_aborts", r.tm.partial_aborts)
                .field("stalls", r.tm.stalls)
                .field("sibling_stalls", r.tm.sibling_stalls)
                .field("wasted_cycles", r.tm.wasted_cycles)
                .field("work_units", r.tm.work_units),
        )
        .field("obs", obs_json(o))
        .field(
            "reconciled",
            Json::obj()
                .field("stalls", o.stall_total() == r.tm.stalls)
                .field("sibling_stalls", o.stalls_sibling == r.tm.sibling_stalls)
                .field("aborts", o.abort_total() == r.tm.aborts)
                .field(
                    "partial_aborts",
                    o.metrics.get("partial_aborts") == r.tm.partial_aborts,
                )
                .field("spans", o.spans_committed == r.tm.commits),
        )
}

/// One `oltp_slo` row: commit-latency percentiles and goodput for a
/// skew/mix point on the simulator. Every value is cycle-denominated or an
/// integer count, so the section is byte-deterministic like the rest of
/// the document.
fn oltp_slo_row_json(point: &str, theta_permille: u32, read_pct: u8, out: &OltpOutcome) -> Json {
    let cycles = out.report.sim_cycles.unwrap_or(0);
    let goodput = if cycles > 0 {
        out.committed_txs as f64 * 1e6 / cycles as f64
    } else {
        0.0
    };
    Json::obj()
        .field("point", point)
        .field("backend", "sim")
        .field("theta_permille", theta_permille)
        .field("read_pct", read_pct)
        .field("committed", out.committed_txs)
        .field("aborts", out.report.aborts)
        .field("cycles", cycles)
        .field(
            "latency_cycles",
            Json::obj()
                .field("p50", out.latency_permille(500).unwrap_or(0))
                .field("p99", out.latency_permille(990).unwrap_or(0))
                .field("p999", out.latency_permille(999).unwrap_or(0)),
        )
        .field("goodput_tx_per_mcycle", Json::Num(goodput, 3))
        .field("kv_fingerprint", format!("{:016x}", out.kv_fingerprint))
}

/// Runs one observability-enabled simulation per experiment and renders the
/// full document, including the `oltp_slo` latency/goodput rows. Errors
/// name the failing case.
pub fn stats_json(scale: &ExperimentScale) -> Result<String, String> {
    let seed = seed_sequence(scale.base_seed, 1)[0];
    let mut experiments = Vec::new();
    for case in cases() {
        let report = run_case(&case, scale, seed)?;
        experiments.push(row_json(&case, seed, &report));
    }
    let mut oltp_slo = Vec::new();
    for (point, theta_permille, read_pct) in OLTP_POINTS {
        let cfg = oltp_config(scale, theta_permille, read_pct);
        let o =
            run_oltp(BackendKind::Sim, &cfg, false).map_err(|e| format!("oltp/{point}: {e}"))?;
        oltp_slo.push(oltp_slo_row_json(point, theta_permille, read_pct, &o));
    }
    let doc = Json::obj()
        .field("schema", STATS_SCHEMA)
        .field("threads", scale.threads)
        .field("units_per_thread", scale.units_per_thread)
        .field("warmup_units", scale.warmup_units)
        .field("experiments", experiments)
        .field("oltp_slo", oltp_slo);
    Ok(doc.render())
}

/// The `--backend stm --stats-json` document: per-cause STM abort counters
/// mapped onto the obs layer, with a `reconciled` block proving the causes
/// sum back to the aggregates. Wall-clock execution on real threads means
/// the *counter values* vary run to run; the reconciliation invariants must
/// hold on every run.
pub fn stats_json_stm(scale: &ExperimentScale) -> Result<String, String> {
    let seed = seed_sequence(scale.base_seed, 1)[0];
    let mut experiments = Vec::new();
    for benchmark in [Benchmark::BerkeleyDb, Benchmark::Raytrace, Benchmark::Mp3d] {
        let mut system = StmBuilder::new().seed(seed).build();
        for program in benchmark.programs(SyncMode::Tm, scale.threads, scale.units_per_thread) {
            system.add_thread(program);
        }
        TmBackend::run_backend(&mut system).map_err(|e| format!("stm/{benchmark}: {e}"))?;
        let r = *system.report().expect("finished run has a report");
        let obs = system.obs_report().expect("finished run has an obs view");
        let stm = Json::obj()
            .field("commits", r.commits)
            .field("aborts", r.aborts)
            .field("aborts_locked", r.aborts_locked)
            .field("aborts_stale", r.aborts_stale)
            .field("serial_commits", r.serial_commits)
            .field("serial_fallbacks", r.serial_fallbacks)
            .field("mini_commits", r.mini_commits)
            .field("mini_aborts", r.mini_aborts)
            .field("work_units", r.work_units);
        let reconciled = Json::obj()
            .field("aborts", obs.abort_total() == r.aborts)
            .field("abort_causes", r.aborts_locked + r.aborts_stale == r.aborts)
            .field("spans", obs.spans_committed == r.commits)
            .field(
                "cause_metrics",
                obs.metrics.get("stm_aborts_locked") == r.aborts_locked
                    && obs.metrics.get("stm_aborts_stale") == r.aborts_stale
                    && obs.metrics.get("stm_serial_fallbacks") == r.serial_fallbacks,
            );
        experiments.push(
            Json::obj()
                .field("benchmark", benchmark.to_string())
                .field("stm", stm)
                .field("obs", obs_json(&obs))
                .field("reconciled", reconciled),
        );
    }
    let doc = Json::obj()
        .field("schema", STATS_SCHEMA)
        .field("backend", "stm")
        .field("threads", scale.threads)
        .field("units_per_thread", scale.units_per_thread)
        .field("experiments", experiments);
    Ok(doc.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> ExperimentScale {
        ExperimentScale {
            threads: 4,
            units_per_thread: 2,
            seeds: 1,
            base_seed: 0xC0FFEE,
            warmup_units: 2,
        }
    }

    #[test]
    fn document_is_schema_tagged_and_reconciled() {
        let doc = stats_json(&tiny_scale()).expect("all cases run");
        assert!(doc.contains(&format!("\"schema\":\"{STATS_SCHEMA}\"")));
        for case in cases() {
            assert!(
                doc.contains(&format!("\"experiment\":\"{}\"", case.experiment)),
                "{} row missing",
                case.experiment
            );
        }
        assert!(
            !doc.contains("false}") && !doc.contains("false,"),
            "some reconciliation check failed:\n{doc}"
        );
    }

    #[test]
    fn document_is_deterministic() {
        let scale = tiny_scale();
        assert_eq!(stats_json(&scale), stats_json(&scale));
    }

    #[test]
    fn covers_all_13_sweep_experiments() {
        assert_eq!(cases().len(), 13);
    }

    #[test]
    fn document_has_oltp_slo_rows() {
        let doc = stats_json(&tiny_scale()).expect("all cases run");
        assert!(doc.contains("\"oltp_slo\":["));
        for (point, _, _) in OLTP_POINTS {
            assert!(
                doc.contains(&format!("\"point\":\"{point}\"")),
                "{point} SLO row missing"
            );
        }
        assert!(doc.contains("\"p999\":"), "p999 column missing");
        assert!(doc.contains("\"goodput_tx_per_mcycle\":"));
    }

    #[test]
    fn stm_document_reconciles_per_cause_aborts() {
        let doc = stats_json_stm(&tiny_scale()).expect("stm cases run");
        assert!(doc.contains(&format!("\"schema\":\"{STATS_SCHEMA}\"")));
        assert!(doc.contains("\"backend\":\"stm\""));
        assert!(doc.contains("\"aborts_locked\":"));
        assert!(doc.contains("\"stm_serial_fallbacks\":"));
        assert!(
            !doc.contains("false}") && !doc.contains("false,"),
            "an stm reconciliation check failed:\n{doc}"
        );
    }
}
