//! The metrics the benchmark reports and the shapes it prints them in. The
//! names, units and directions here are the ones `BENCHMARK.json` lists;
//! a test keeps the two in step.

use std::fmt::Write as _;

use crate::stats::Quartiles;

/// End-to-end metrics of an untraced run, as (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("units_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Spans whose self time is reported as a share of the traced busy time.
pub const SPAN_NAMES: [&str; 14] = [
    "harness.rep",
    "bench.figure4",
    "bench.table3",
    "bench.render",
    "sim.explore",
    "core.build",
    "core.add_thread",
    "core.run",
    "workloads.programs",
    "workloads.next_op",
    "mem.oracle_finish",
    "stm.build",
    "stm.run",
    "stm.engine",
];

/// Per-layer metrics of a traced run other than the span shares, as
/// (name, unit). A layer a workload does not exercise reports 0.
pub const LAYER_COUNTS: [(&str, &str); 51] = [
    ("trace.rep_ns", "ns"),
    ("trace.busy_ns", "ns"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("bench.runs", "count"),
    ("bench.failed_runs", "count"),
    ("bench.pool_busy_share", "share"),
    ("sim.schedules", "count"),
    ("sim.distinct_ratio", "ratio"),
    ("sim.pool_busy_share", "share"),
    ("core.events", "count"),
    ("core.cycles", "cycles"),
    ("workloads.next_op_calls", "count"),
    ("sig.conflicts_signalled", "count"),
    ("sig.false_conflicts", "count"),
    ("sig.true_conflict_ratio", "ratio"),
    ("sig.summary_conflicts", "count"),
    ("mem.l1_hits", "count"),
    ("mem.l1_misses", "count"),
    ("mem.l1_miss_ratio", "ratio"),
    ("mem.l2_hits", "count"),
    ("mem.dram_accesses", "count"),
    ("mem.forwards", "count"),
    ("mem.invalidations", "count"),
    ("mem.messages", "count"),
    ("mem.nacks", "count"),
    ("mem.lost_dir_broadcasts", "count"),
    ("mem.tx_victimizations", "count"),
    ("mem.oracle_violations", "count"),
    ("tm.commits", "count"),
    ("tm.aborts", "count"),
    ("tm.commit_ratio", "ratio"),
    ("tm.partial_aborts", "count"),
    ("tm.stalls", "count"),
    ("tm.log_writes", "count"),
    ("tm.log_writes_suppressed", "count"),
    ("tm.log_filter_ratio", "ratio"),
    ("tm.wasted_cycle_share", "share"),
    ("tm.serial_escalations", "count"),
    ("stm.commits", "count"),
    ("stm.aborts", "count"),
    ("stm.aborts_locked", "count"),
    ("stm.aborts_stale", "count"),
    ("stm.serial_fallbacks", "count"),
    ("stm.serial_commits", "count"),
    ("stm.commit_ratio", "ratio"),
    ("stm.tx_reads", "count"),
    ("stm.tx_writes", "count"),
    ("stm.reads_per_commit", "ratio"),
    ("stm.max_retry_streak", "count"),
    ("stm.commit_latency_tail", "ratio"),
];

/// Every per-layer metric, spans first.
pub fn per_layer() -> Vec<(String, &'static str)> {
    SPAN_NAMES
        .iter()
        .map(|s| (format!("{s}_share"), "share"))
        .chain(LAYER_COUNTS.iter().map(|&(n, u)| (n.to_string(), u)))
        .collect()
}

/// One reported metric: its unit, the quartiles of its samples, and the
/// one of them it reports as its value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub q: Quartiles,
    pub value: f64,
}

/// How a workload's run went, in the shapes the benchmark prints.
#[derive(Debug)]
pub struct Summary {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub metrics: Vec<Metric>,
}

impl Summary {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// `workload metric value unit (q1 median q3, n)`, one line per metric.
    pub fn lines(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let q = &m.q;
            let _ = writeln!(
                s,
                "{} {} {} {} ({} {} {}, {})",
                self.workload, m.name, m.value, m.unit, q.q1, q.median, q.q3, q.n
            );
        }
        s
    }

    /// The last line of standard output:
    /// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// This workload's entry of the `--json` document, `"name": {..}`.
    pub fn doc_entry(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"unit\": {}, \"value\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                    json_str(&m.name),
                    json_str(m.unit),
                    num(m.value),
                    num(m.q.median),
                    num(m.q.q1),
                    num(m.q.q3),
                    m.q.n
                )
            })
            .collect();
        format!(
            "{}: {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"digest\": \"{:#018x}\", \"metrics\": {{{}}}}}",
            json_str(self.workload),
            self.correct(),
            self.attempted,
            self.failed,
            self.digest,
            metrics.join(", ")
        )
    }
}

/// The `--json` document around workload entries.
pub fn document(
    cpus: usize,
    commit: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    entries: &[String],
) -> String {
    format!(
        "{{\"host\": {{\"cpus\": {cpus}, \"commit\": {}}}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \"smoke\": {smoke}, \"workloads\": {{{}}}}}\n",
        json_str(commit),
        entries.join(", ")
    )
}

/// A JSON number; the benchmark never produces a non-finite value, but
/// one must not make the output unparseable.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names, units and count of metrics here are the ones the
    /// benchmark manifest at the repository root declares.
    #[test]
    fn metric_lists_match_the_manifest() {
        let manifest = std::fs::read_to_string("../BENCHMARK.json")
            .expect("BENCHMARK.json at the repository root");
        let listed = |section: &str| -> Vec<(String, String)> {
            let start = manifest.find(&format!("\"{section}\"")).expect(section);
            let body = &manifest[start..];
            let body = &body[..body.find(']').expect("list end")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|item| {
                    let name = item[..item.find('"').unwrap()].to_string();
                    let unit = item.split("\"unit\": \"").nth(1).expect("unit");
                    (name, unit[..unit.find('"').unwrap()].to_string())
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.into(), u.into()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.into()))
            .collect();
        assert_eq!(listed("per_layer"), layer);
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let s = Summary {
            workload: "w",
            attempted: 3,
            failed: 0,
            digest: 1,
            metrics: vec![Metric {
                name: "wall_s".into(),
                unit: "s",
                q: Quartiles::of(&[1.5, 2.5]).unwrap(),
                value: 1.25,
            }],
        };
        assert_eq!(
            s.result_line(),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 1.25, "unit": "s"}}}"#
        );
        assert_eq!(s.lines(), "w wall_s 1.25 s (1.25 2 2.75, 2)\n");
        assert!(s.doc_entry().starts_with(r#""w": {"correct": true"#));
        assert_eq!(json_str("a\"b\\\n"), r#""a\"b\\\u000a""#);
    }
}
