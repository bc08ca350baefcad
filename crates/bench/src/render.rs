//! Aligned-text rendering of experiment results (what `repro` prints).

use crate::experiments::{
    policy_points, Fig4Row, LogFilterRow, MultiCmpRow, NestingRow, OltpRow, PolicySweepRow, SmtRow,
    SnoopRow, StickyRow, StmRow, SweepRow, Table2Row, Table3Row, VictimRow, VirtRow,
};
use ltse_workloads::BackendKind;

/// Renders the STM-vs-simulator backend comparison. The simulator columns
/// are deterministic; the `StmWall`/`Stm u/ms` columns are real wall clock
/// from real threads and vary run to run (which is why `repro` only prints
/// this table when `--backend stm` is asked for explicitly).
pub fn render_stm(rows: &[StmRow]) -> String {
    let mut out = String::new();
    out.push_str("STM backend: TL2 software TM vs. cycle-level simulator, same workloads\n");
    out.push_str(&format!(
        "{:<12} {:>7} {:>6} {:>12} {:>8} {:>8} {:>9} {:>10} {:>8} {:>8} {:>9}\n",
        "Benchmark",
        "Threads",
        "Units",
        "SimCycles",
        "SimTxns",
        "SimAbrt",
        "Sim u/kc",
        "StmWallMs",
        "StmTxns",
        "StmAbrt",
        "Stm u/ms"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>7} {:>6} {:>12} {:>8} {:>8} {:>9.3} {:>10.3} {:>8} {:>8} {:>9.1}\n",
            r.benchmark.name(),
            r.threads,
            r.units,
            r.sim_cycles,
            r.sim_commits,
            r.sim_aborts,
            r.sim_units_per_kcycle,
            r.stm_wall_ms,
            r.stm_commits,
            r.stm_aborts,
            r.stm_units_per_ms
        ));
    }
    out
}

/// Renders the open-loop OLTP skew/mix points: commit-latency SLOs
/// (p50/p99/p999) and goodput per point. Sim rows are cycle-denominated
/// and byte-deterministic; stm rows are wall-clock nanoseconds and vary
/// run to run (they only appear under `--backend stm`).
pub fn render_oltp(rows: &[OltpRow]) -> String {
    let mut out = String::new();
    out.push_str("OLTP open-loop driver: commit-latency SLOs by skew/mix point\n");
    out.push_str(&format!(
        "{:<16} {:>7} {:>6} {:>5} {:>9} {:>8} {:>10} {:>10} {:>10} {:>6} {:>11} {:>16}\n",
        "Point",
        "Backend",
        "Zipf",
        "Rd%",
        "Committed",
        "Aborts",
        "p50",
        "p99",
        "p999",
        "Unit",
        "Goodput",
        "KvFingerprint"
    ));
    for r in rows {
        // Goodput is committed tx per simulated megacycle (deterministic)
        // on sim, committed tx per wall-clock second on stm.
        let (unit, goodput) = match r.backend {
            BackendKind::Sim => {
                let cycles = r.sim_cycles.unwrap_or(0);
                let g = if cycles > 0 {
                    r.committed as f64 * 1e6 / cycles as f64
                } else {
                    0.0
                };
                ("cyc", format!("{g:>8.3}/Mc"))
            }
            BackendKind::Stm => {
                let secs = r.wall_ms / 1e3;
                let g = if secs > 0.0 {
                    r.committed as f64 / secs
                } else {
                    0.0
                };
                ("ns", format!("{g:>9.0}/s"))
            }
        };
        out.push_str(&format!(
            "{:<16} {:>7} {:>6} {:>5} {:>9} {:>8} {:>10} {:>10} {:>10} {:>6} {:>11} {:>16}\n",
            r.point,
            r.backend.name(),
            format!("0.{:03}", r.theta_permille),
            r.read_pct,
            r.committed,
            r.aborts,
            r.p50,
            r.p99,
            r.p999,
            unit,
            goodput,
            format!("{:016x}", r.kv_fingerprint)
        ));
    }
    out
}

/// Renders the adaptive contention-management policy sweep: every policy on
/// every contended point, grouped per (workload, backend) with the winner
/// starred and each policy's gap to the per-point best. Sim scores are
/// committed work per simulated megacycle (deterministic); stm scores are
/// committed transactions per wall-clock second (noisy, run to run).
pub fn render_policy_sweep(rows: &[PolicySweepRow]) -> String {
    let backends = if rows.iter().any(|r| r.backend == BackendKind::Stm) {
        "both backends"
    } else {
        "simulator"
    };
    let mut out = String::new();
    out.push_str(&format!(
        "Policy sweep: contention managers on contended workloads, {backends}\n"
    ));
    out.push_str(&format!(
        "{:<20} {:>7} {:<17} {:>12} {:>9} {:>9} {:>7} {:>5} {:>9}\n",
        "Point", "Backend", "Policy", "Score", "Committed", "Aborts", "SerEsc", "Done", "vs.best"
    ));
    for point in policy_points(rows) {
        for r in &point.rows {
            let is_best = r.score == point.best && point.best > 0.0;
            out.push_str(&format!(
                "{:<20} {:>7} {:<17} {:>12.3} {:>9} {:>9} {:>7} {:>5} {:>8.1}%{}\n",
                r.workload,
                r.backend.name(),
                r.policy.name(),
                r.score,
                r.committed,
                r.aborts,
                r.serial_escalations,
                if r.completed { "yes" } else { "NO" },
                point.vs_best(r.score) * 100.0,
                if is_best { " *" } else { "" },
            ));
        }
    }
    out
}

/// Renders Figure 4 as a table of speedups (mean ± 95 % CI half-width).
pub fn render_figure4(rows: &[Fig4Row]) -> String {
    let mut out = String::new();
    out.push_str("Figure 4: speedup normalized to locks (mean ± 95% CI)\n");
    out.push_str(&format!("{:<12}", "Benchmark"));
    if let Some(first) = rows.first() {
        for bar in &first.bars {
            out.push_str(&format!(" {:>14}", bar.label));
        }
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("{:<12}", row.benchmark.name()));
        for bar in &row.bars {
            match bar.ci95 {
                Some(ci) => out.push_str(&format!(" {:>7.2} ±{:>4.2}", bar.speedup, ci)),
                // One seed: the interval is undefined, not ±0.00.
                None => out.push_str(&format!(" {:>7.2} ± n/a", bar.speedup)),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders Table 2.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 2: benchmarks and measured transaction footprints\n");
    out.push_str(&format!(
        "{:<12} {:<22} {:<28} {:>7} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9}\n",
        "Benchmark",
        "Input",
        "Unit of Work",
        "Units",
        "Txns",
        "ReadAvg",
        "ReadP95",
        "ReadMax",
        "WriteAvg",
        "WriteMax"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:<22} {:<28} {:>7} {:>8} {:>8.1} {:>8} {:>8} {:>9.1} {:>9}\n",
            r.benchmark.name(),
            r.input,
            r.unit,
            r.units,
            r.transactions,
            r.read_avg,
            r.read_p95,
            r.read_max,
            r.write_avg,
            r.write_max
        ));
    }
    out
}

/// Renders Table 3.
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 3: impact of signature configuration on conflict detection\n");
    out.push_str(&format!(
        "{:<12} {:<10} {:>8} {:>8} {:>8} {:>8}\n",
        "Benchmark", "Signature", "Txns", "Aborts", "Stalls", "FalseP%"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:<10} {:>8} {:>8} {:>8} {:>8}\n",
            r.benchmark.name(),
            r.signature.label(),
            r.transactions,
            r.aborts,
            r.stalls,
            r.false_positive_pct
                .map(|p| format!("{p:.1}"))
                .unwrap_or_else(|| "-".into()),
        ));
    }
    out
}

/// Renders the Result 4 victimization summary.
pub fn render_victimization(rows: &[VictimRow]) -> String {
    let mut out = String::new();
    out.push_str("Result 4: victimization of transactional blocks (L1+L2, exact)\n");
    out.push_str(&format!(
        "{:<12} {:>10} {:>15} {:>12}\n",
        "Benchmark", "Txns", "Victimizations", "Broadcasts"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>10} {:>15} {:>12}\n",
            r.benchmark.name(),
            r.transactions,
            r.victimizations,
            r.broadcasts
        ));
    }
    out
}

/// Renders the signature-size sweep (ablation A1).
pub fn render_sweep(rows: &[SweepRow]) -> String {
    let mut out = String::new();
    out.push_str("Ablation A1: signature size sweep (speedup vs locks; FP%)\n");
    out.push_str(&format!(
        "{:<12} {:<10} {:>8} {:>8} {:>8}\n",
        "Benchmark", "Signature", "Speedup", "FalseP%", "Aborts"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:<10} {:>8.2} {:>8} {:>8}\n",
            r.benchmark.name(),
            r.signature.label(),
            r.speedup,
            r.false_positive_pct
                .map(|p| format!("{p:.1}"))
                .unwrap_or_else(|| "-".into()),
            r.aborts
        ));
    }
    out
}

/// Renders the sticky-state ablation (A2).
pub fn render_sticky(rows: &[StickyRow]) -> String {
    let mut out = String::new();
    out.push_str("Ablation A2: sticky states on/off\n");
    out.push_str(&format!(
        "{:<14} {:<7} {:>12} {:>8} {:>15} {:>10}\n",
        "Workload", "Sticky", "Cycles", "Aborts", "Victimizations", "Finished"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<7} {:>12} {:>8} {:>15} {:>10}\n",
            r.workload,
            r.sticky,
            r.cycles.as_u64(),
            r.aborts,
            r.victimizations,
            if r.completed { "yes" } else { "LIVELOCK" }
        ));
    }
    out
}

/// Renders the log-filter ablation (A3).
pub fn render_log_filter(rows: &[LogFilterRow]) -> String {
    let mut out = String::new();
    out.push_str("Ablation A3: log-filter size (repeated-writer micro)\n");
    out.push_str(&format!(
        "{:>8} {:>10} {:>11} {:>12}\n",
        "Entries", "LogWrites", "Suppressed", "Cycles"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>8} {:>10} {:>11} {:>12}\n",
            r.entries,
            r.log_writes,
            r.suppressed,
            r.cycles.as_u64()
        ));
    }
    out
}

/// Renders the virtualization-overhead ablation (A4).
pub fn render_virt(rows: &[VirtRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "Ablation A4: context-switch virtualization overhead (BerkeleyDB, 1.5× oversubscribed)\n",
    );
    out.push_str(&format!(
        "{:>10} {:>7} {:>12} {:>8} {:>10} {:>14} {:>16} {:>8}\n",
        "Quantum",
        "Defer",
        "Cycles",
        "Units",
        "Cyc/Unit",
        "TxDeschedules",
        "SummaryInstalls",
        "Aborts"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>10} {:>7} {:>12} {:>8} {:>10.0} {:>14} {:>16} {:>8}\n",
            r.quantum
                .map(|q| q.as_u64().to_string())
                .unwrap_or_else(|| "-".into()),
            r.defer_in_tx,
            r.cycles.as_u64(),
            r.units,
            r.cycles.as_u64() as f64 / r.units.max(1) as f64,
            r.tx_deschedules,
            r.summary_installs,
            r.aborts
        ));
    }
    out
}

/// Renders the SMT comparison.
pub fn render_smt(rows: &[SmtRow]) -> String {
    let mut out = String::new();
    out.push_str("SMT: 32 threads on 16×2 SMT vs. 32×1 cores\n");
    out.push_str(&format!(
        "{:<12} {:<10} {:>12} {:>14} {:>10}\n",
        "Benchmark", "Machine", "Cycles", "SiblingStalls", "Stalls"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:<10} {:>12} {:>14} {:>10}\n",
            r.benchmark.name(),
            r.machine,
            r.cycles.as_u64(),
            r.sibling_stalls,
            r.stalls
        ));
    }
    out
}

/// Renders the nesting ablation.
pub fn render_nesting(rows: &[NestingRow]) -> String {
    let mut out = String::new();
    out.push_str("Nesting ablation: flat vs. closed-nested contended phase (§3.2)\n");
    out.push_str(&format!(
        "{:<8} {:>12} {:>8} {:>14} {:>12}\n",
        "Shape", "Cycles", "Aborts", "PartialAborts", "WastedCyc"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>12} {:>8} {:>14} {:>12}\n",
            r.shape,
            r.cycles.as_u64(),
            r.aborts,
            r.partial_aborts,
            r.wasted_cycles
        ));
    }
    out
}

/// Renders the §7 multiple-CMP comparison.
pub fn render_multi_cmp(rows: &[MultiCmpRow]) -> String {
    let mut out = String::new();
    out.push_str("§7: multiple CMPs — partitioning 16 cores over chips\n");
    out.push_str(&format!(
        "{:<12} {:>6} {:>12} {:>12} {:>12}\n",
        "Benchmark", "Chips", "Cycles", "Interchip", "Messages"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>6} {:>12} {:>12} {:>12}\n",
            r.benchmark.name(),
            r.chips,
            r.cycles.as_u64(),
            r.interchip_messages,
            r.messages
        ));
    }
    out
}

/// Renders the §7 directory-vs-snooping comparison.
pub fn render_snooping(rows: &[SnoopRow]) -> String {
    let mut out = String::new();
    out.push_str("§7: directory vs. snooping coherence (TM mode)\n");
    out.push_str(&format!(
        "{:<12} {:<10} {:<10} {:>12} {:>12} {:>8} {:>8}\n",
        "Benchmark", "Coherence", "Signature", "Cycles", "Messages", "Stalls", "FalseP%"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:<10} {:<10} {:>12} {:>12} {:>8} {:>8}\n",
            r.benchmark.name(),
            r.coherence.to_string(),
            r.signature.label(),
            r.cycles.as_u64(),
            r.messages,
            r.stalls,
            r.false_positive_pct
                .map(|p| format!("{p:.1}"))
                .unwrap_or_else(|| "-".into()),
        ));
    }
    out
}

/// CSV form of Figure 4 (one row per benchmark × bar) for plotting.
pub fn csv_figure4(rows: &[Fig4Row]) -> String {
    let mut out = String::from(
        "benchmark,config,speedup,ci95
",
    );
    for row in rows {
        for bar in &row.bars {
            out.push_str(&format!(
                "{},{},{:.4},{}
",
                row.benchmark.name(),
                bar.label,
                bar.speedup,
                bar.ci95.map(|c| format!("{c:.4}")).unwrap_or_default()
            ));
        }
    }
    out
}

/// CSV form of Table 2.
pub fn csv_table2(rows: &[Table2Row]) -> String {
    let mut out = String::from(
        "benchmark,units,transactions,read_avg,read_p95,read_max,write_avg,write_max
",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{:.2},{},{},{:.2},{}
",
            r.benchmark.name(),
            r.units,
            r.transactions,
            r.read_avg,
            r.read_p95,
            r.read_max,
            r.write_avg,
            r.write_max
        ));
    }
    out
}

/// CSV form of Table 3.
pub fn csv_table3(rows: &[Table3Row]) -> String {
    let mut out = String::from(
        "benchmark,signature,transactions,aborts,stalls,false_positive_pct
",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{}
",
            r.benchmark.name(),
            r.signature.label(),
            r.transactions,
            r.aborts,
            r.stalls,
            r.false_positive_pct
                .map(|p| format!("{p:.2}"))
                .unwrap_or_default(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentScale;

    #[test]
    fn renders_are_nonempty_and_headed() {
        let tiny = ExperimentScale {
            threads: 4,
            units_per_thread: 2,
            seeds: 2,
            base_seed: 3,
            warmup_units: 0,
        };
        let f4 = render_figure4(&crate::figure4(&tiny).expect("sweep"));
        assert!(f4.contains("Figure 4"));
        assert!(f4.contains("BerkeleyDB"));
        assert!(f4.contains("BS_64"));

        let t2 = render_table2(&crate::table2(&tiny).expect("sweep"));
        assert!(t2.contains("Table 2"));
        assert!(t2.contains("tk14.O"));
    }

    #[test]
    fn stm_render_lists_every_column_once_per_row() {
        let row = StmRow {
            benchmark: ltse_workloads::Benchmark::Mp3d,
            threads: 4,
            units: 8,
            sim_cycles: 120_000,
            sim_commits: 40,
            sim_aborts: 2,
            sim_units_per_kcycle: 0.066,
            stm_wall_ms: 1.25,
            stm_commits: 44,
            stm_aborts: 3,
            stm_units_per_ms: 6.4,
        };
        let text = render_stm(&[row]);
        assert!(text.starts_with("STM backend:"));
        assert_eq!(text.lines().count(), 3, "title + header + one row");
        assert!(text.contains("Mp3d"));
        assert!(text.contains("120000"));
    }

    #[test]
    fn csv_emitters_are_machine_readable() {
        let tiny = ExperimentScale {
            threads: 4,
            units_per_thread: 2,
            seeds: 2,
            base_seed: 3,
            warmup_units: 0,
        };
        let f4 = csv_figure4(&crate::figure4(&tiny).expect("sweep"));
        let lines: Vec<&str> = f4.lines().collect();
        assert_eq!(lines[0], "benchmark,config,speedup,ci95");
        assert_eq!(lines.len(), 1 + 5 * 6, "5 benchmarks × 6 bars");
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), 4);
        }
        let t2 = csv_table2(&crate::table2(&tiny).expect("sweep"));
        assert!(t2.starts_with("benchmark,units,transactions"));
        assert_eq!(t2.lines().count(), 6);
        let t3 = csv_table3(&crate::table3(&tiny).expect("sweep"));
        assert!(t3.lines().count() > 10);
    }
}
