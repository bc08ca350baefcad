//! The timing harness and document writer behind every `[[bench]]` target.
//!
//! The sandbox this repo builds in has no network access, so the bench
//! targets cannot pull in an external framework. Each target is instead a
//! plain `fn main()` (`harness = false`) that builds one [`Bench`], times
//! closures with [`std::time::Instant`] through [`Bench::case`], and prints
//! one human-readable line per case on **stderr**.
//!
//! `cargo bench <filter>` substring filters work the way cargo's built-in
//! harness treats them: a case runs only when `group/name` contains one.
//!
//! The seven targets (`hotpath`, `pipeline`, `obs`, `stm`, `scale`,
//! `oltp`, `policy`) end with [`Bench::finish`], which writes one document
//! (see [`crate::json`] for the layout) to the file named by
//! `LTSE_BENCH_JSON`, or to **stdout** when that is unset.
//! `scripts/bench.sh` uses the variable to produce the `BENCH_*.json` files.
//! Every document starts with the same header:
//!
//! * `bench` — the target's name;
//! * `quick` — whether `LTSE_BENCH_QUICK=1` shrank the workloads;
//! * `cpus` — [`detected_cpus`], since host timings only compare across
//!   hosts of the same size;
//!
//! then the target's own sections, then `cases` (`group`, `name`, any
//! per-case fields, `mean_ms`, `best_ms`, `iters`) and `speedups`, each
//! only when non-empty.
//!
//! Environment:
//!
//! * `LTSE_BENCH_QUICK=1` — CI smoke mode: tiny workloads and few
//!   iterations, the same document structure (no timing thresholds are
//!   asserted here);
//! * `LTSE_BENCH_ITERS=N` — override the per-case iteration count;
//! * `LTSE_BENCH_JSON=path` — write the document there instead of stdout.

use std::hint::black_box;
use std::time::Instant;

use crate::json::Json;

/// Whether `LTSE_BENCH_QUICK=1` asks for the CI smoke scale.
pub fn quick() -> bool {
    std::env::var("LTSE_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// Resolve the per-case iteration count: `LTSE_BENCH_ITERS` if set and
/// positive, otherwise the target's default.
pub fn iters(default: usize) -> usize {
    std::env::var("LTSE_BENCH_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// Detected CPU count for bench metadata (`"cpus"` in the JSON documents).
///
/// `std::thread::available_parallelism` respects affinity masks and cgroup
/// quotas, which is right for sizing worker pools but under-reports the
/// machine when a runner pins the bench process — `BENCH_pipeline.json` was
/// recording `"cpus": 1` on multi-core hosts. For *metadata* we want the
/// larger of that and the `/proc/cpuinfo` processor count.
pub fn detected_cpus() -> usize {
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    avail.max(cpuinfo).max(1)
}

/// Seconds one call of `f` takes.
fn time<T>(f: &mut impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed().as_secs_f64()
}

/// The median over pairs of `base[i] / opt[i]`: how many times faster
/// `opt` ran than `base`, from per-round times such as [`Bench::rounds`]
/// returns.
///
/// # Panics
///
/// Panics if the slices are empty or differ in length.
pub fn median_ratio(base: &[f64], opt: &[f64]) -> f64 {
    assert!(
        !base.is_empty() && base.len() == opt.len(),
        "need equal, non-empty time lists"
    );
    let mut ratios: Vec<f64> = base.iter().zip(opt).map(|(b, o)| b / o).collect();
    ratios.sort_by(f64::total_cmp);
    let n = ratios.len();
    (ratios[(n - 1) / 2] + ratios[n / 2]) / 2.0
}

/// One timed case, as recorded in the document's `cases`.
struct Case {
    group: String,
    name: String,
    fields: Vec<(&'static str, Json)>,
    mean_ms: f64,
    best_ms: f64,
    iters: usize,
}

/// One bench target's timing loop and document.
pub struct Bench {
    /// The header, then the fields added by [`Bench::field`].
    doc: Vec<(String, Json)>,
    filters: Vec<String>,
    group: String,
    iters: usize,
    cases: Vec<Case>,
    speedups: Vec<(String, Json)>,
}

impl Bench {
    /// Start the document of the target `bench`, taking substring filters
    /// from the command line (flags such as the `--bench` cargo injects are
    /// ignored).
    pub fn new(bench: &str) -> Bench {
        let filters = std::env::args()
            .skip(1)
            .filter(|a| !a.starts_with('-'))
            .collect();
        Bench::with_filters(bench, filters)
    }

    fn with_filters(bench: &str, filters: Vec<String>) -> Bench {
        Bench {
            doc: vec![
                ("bench".to_string(), bench.into()),
                ("quick".to_string(), quick().into()),
                ("cpus".to_string(), detected_cpus().into()),
            ],
            filters,
            group: String::new(),
            iters: 1,
            cases: Vec::new(),
            speedups: Vec::new(),
        }
    }

    /// Name the group the following cases belong to, and their iteration
    /// count.
    pub fn group(&mut self, name: &str, iters: usize) {
        self.group = name.to_string();
        self.iters = iters;
    }

    /// Time `f` (after one untimed warmup call) and record mean and best.
    /// Skipped when CLI filters are present and none matches `group/name`.
    pub fn case<T>(&mut self, name: &str, f: impl FnMut() -> T) {
        self.case_with(name, Vec::new(), f);
    }

    /// [`Bench::case`] with extra per-case fields, recorded between the
    /// case's `name` and its `mean_ms`.
    pub fn case_with<T>(
        &mut self,
        name: &str,
        fields: Vec<(&'static str, Json)>,
        mut f: impl FnMut() -> T,
    ) {
        if !self.selected(name) {
            return;
        }
        black_box(f());
        let times: Vec<f64> = (0..self.iters).map(|_| time(&mut f)).collect();
        self.record(name, fields, &times);
    }

    /// Time two cases of the current group as interleaved pairs, one pair
    /// per iteration, alternating which case runs first, and record both
    /// cases plus `speedups.<ratio>`: the **median of the per-pair ratios**
    /// `base / opt` (higher = `opt` is faster). Both runs of a pair see the
    /// same host state, so host drift slower than one pair cancels out of
    /// each ratio, and the median discards the pairs a burst of host load
    /// split. Returns the ratio; `None` (recorded as `null`) when a filter
    /// skips either case.
    pub fn paired<A, B>(
        &mut self,
        ratio: &str,
        (base, mut base_f): (&str, impl FnMut() -> A),
        (opt, mut opt_f): (&str, impl FnMut() -> B),
    ) -> Option<f64> {
        let times = self.rounds(&mut [
            (base, &mut || {
                black_box(base_f());
            }),
            (opt, &mut || {
                black_box(opt_f());
            }),
        ]);
        let median = times.map(|t| median_ratio(&t[0], &t[1]));
        self.ratio(ratio, median);
        median
    }

    /// Time several cases of the current group in rounds, one round per
    /// iteration: a round runs every case once, and which case goes first
    /// rotates from round to round (with two cases, they alternate). Records
    /// every case and returns each case's per-round times in seconds, so
    /// that entry `i` of two cases forms a pair for [`median_ratio`];
    /// `None`, recording nothing, when a filter skips any case.
    pub fn rounds(&mut self, cases: &mut [(&str, &mut dyn FnMut())]) -> Option<Vec<Vec<f64>>> {
        if !cases.iter().all(|(name, _)| self.selected(name)) {
            return None;
        }
        for (_, f) in cases.iter_mut() {
            f();
        }
        let k = cases.len();
        let mut times = vec![Vec::with_capacity(self.iters); k];
        for round in 0..self.iters {
            for j in 0..k {
                let i = (round + j) % k;
                times[i].push(time(&mut cases[i].1));
            }
        }
        for ((name, _), t) in cases.iter().zip(&times) {
            self.record(name, Vec::new(), t);
        }
        Some(times)
    }

    /// Whether the command-line filters let the case `name` of the current
    /// group run.
    fn selected(&self, name: &str) -> bool {
        let full = format!("{}/{name}", self.group);
        self.filters.is_empty() || self.filters.iter().any(|p| full.contains(p.as_str()))
    }

    /// Record a case of the current group from its per-iteration times in
    /// seconds, and print its line.
    fn record(&mut self, name: &str, fields: Vec<(&'static str, Json)>, times: &[f64]) {
        let n = times.len();
        let mean_ms = times.iter().sum::<f64>() / n as f64 * 1e3;
        let best_ms = times.iter().copied().fold(f64::INFINITY, f64::min) * 1e3;
        let full = format!("{}/{name}", self.group);
        eprintln!("{full:<44} mean {mean_ms:>9.3} ms   best {best_ms:>9.3} ms   ({n} iters)");
        self.cases.push(Case {
            group: self.group.clone(),
            name: name.to_string(),
            fields,
            mean_ms,
            best_ms,
            iters: n,
        });
    }

    /// Best time of a recorded case, in milliseconds; `None` if the case
    /// was filtered out.
    pub fn best_ms(&self, group: &str, name: &str) -> Option<f64> {
        self.cases
            .iter()
            .find(|c| c.group == group && c.name == name)
            .map(|c| c.best_ms)
    }

    /// Record the best-time ratio `base / opt` of two cases of `group` as
    /// `speedups.<ratio>` (higher = `opt` is faster), and return it.
    pub fn speedup(&mut self, ratio: &str, group: &str, base: &str, opt: &str) -> Option<f64> {
        let b = self.best_ms(group, base);
        let o = self.best_ms(group, opt).filter(|&o| o > 0.0);
        let value = b.zip(o).map(|(b, o)| b / o);
        self.ratio(ratio, value);
        value
    }

    /// Record `speedups.<name>` (3 decimals; `null` when a case it needs
    /// was not run).
    pub fn ratio(&mut self, name: &str, value: Option<f64>) {
        if let Some(v) = value {
            eprintln!("speedup {name:<32} {v:.2}x");
        }
        let value = value.map(|v| Json::Num(v, 3));
        self.speedups.push((name.to_string(), value.into()));
    }

    /// Add a bench-specific top-level section, written after the header.
    pub fn field(&mut self, key: &str, value: impl Into<Json>) {
        self.doc.push((key.to_string(), value.into()));
    }

    fn document(mut self) -> Json {
        if !self.cases.is_empty() {
            let cases = self.cases.into_iter().map(|c| {
                let mut case = Json::obj().field("group", c.group).field("name", c.name);
                for (key, value) in c.fields {
                    case = case.field(key, value);
                }
                case.field("mean_ms", Json::Num(c.mean_ms, 6))
                    .field("best_ms", Json::Num(c.best_ms, 6))
                    .field("iters", c.iters)
            });
            let cases = Json::Arr(cases.collect());
            self.doc.push(("cases".to_string(), cases));
        }
        if !self.speedups.is_empty() {
            self.doc
                .push(("speedups".to_string(), Json::Obj(self.speedups)));
        }
        Json::Obj(self.doc)
    }

    /// Write the document to `LTSE_BENCH_JSON`, or to stdout when unset.
    pub fn finish(self) {
        let doc = self.document().render();
        match std::env::var("LTSE_BENCH_JSON") {
            Ok(path) if !path.is_empty() => {
                std::fs::write(&path, &doc).expect("write LTSE_BENCH_JSON file");
                eprintln!("wrote {path}");
            }
            _ => print!("{doc}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iters_env_fallback_uses_default() {
        // The variable is not set under `cargo test`, so the default wins.
        if std::env::var("LTSE_BENCH_ITERS").is_err() {
            assert_eq!(iters(7), 7);
        }
    }

    #[test]
    fn detected_cpus_is_at_least_available_parallelism() {
        let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(detected_cpus() >= avail);
        assert!(detected_cpus() >= 1);
    }

    fn keys(doc: &Json) -> Vec<&str> {
        match doc {
            Json::Obj(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn get<'a>(doc: &'a Json, key: &str) -> &'a Json {
        match doc {
            Json::Obj(entries) => &entries.iter().find(|(k, _)| k == key).expect(key).1,
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn document_layout() {
        // Built from an explicit filter list, not from the test runner's
        // own command line; the filter skips `g/skipped`.
        let mut bench = Bench::with_filters("demo", vec!["g/run".to_string()]);
        bench.field("runs", vec![1u64, 2]);
        bench.group("g", 2);
        bench.case_with("run", vec![("threads", Json::Int(4))], || 1 + 1);
        bench.case("skipped", || 0);
        assert!(bench.best_ms("g", "run").is_some());
        assert_eq!(bench.speedup("missing", "g", "skipped", "run"), None);
        bench.ratio("given", Some(1.23456));

        let doc = bench.document();
        assert_eq!(
            keys(&doc),
            ["bench", "quick", "cpus", "runs", "cases", "speedups"]
        );
        assert_eq!(get(&doc, "bench"), &Json::Str("demo".into()));
        let Json::Arr(cases) = get(&doc, "cases") else {
            panic!("cases is an array")
        };
        assert_eq!(cases.len(), 1, "the filtered case is absent");
        assert_eq!(
            keys(&cases[0]),
            ["group", "name", "threads", "mean_ms", "best_ms", "iters"]
        );
        assert_eq!(get(&cases[0], "iters"), &Json::Int(2));
        let speedups = get(&doc, "speedups");
        assert_eq!(get(speedups, "missing"), &Json::Null);
        assert_eq!(get(speedups, "given").render(), "1.235\n");
    }

    #[test]
    fn paired_records_both_cases_and_a_median_ratio() {
        let mut bench = Bench::with_filters("pairs", Vec::new());
        bench.group("g", 5);
        let spin = |n: u64| (0..n).fold(0u64, |a, i| black_box(a ^ i));
        let ratio = bench.paired(
            "slow_vs_fast",
            ("slow", || spin(200_000)),
            ("fast", || spin(1)),
        );
        assert!(ratio.is_some_and(|r| r > 1.0), "{ratio:?}");
        assert!(bench.best_ms("g", "slow").is_some() && bench.best_ms("g", "fast").is_some());
        let doc = bench.document();
        let Json::Arr(cases) = get(&doc, "cases") else {
            panic!("cases is an array")
        };
        assert_eq!(cases.len(), 2);
        assert_eq!(get(&cases[0], "iters"), &Json::Int(5));
        assert!(matches!(
            get(get(&doc, "speedups"), "slow_vs_fast"),
            Json::Num(..)
        ));

        // A filter that skips either side records neither case and a null
        // ratio.
        let mut bench = Bench::with_filters("pairs", vec!["g/fast".to_string()]);
        bench.group("g", 3);
        assert_eq!(bench.paired("r", ("slow", || 0), ("fast", || 0)), None);
        let doc = bench.document();
        assert_eq!(keys(&doc), ["bench", "quick", "cpus", "speedups"]);
        assert_eq!(get(get(&doc, "speedups"), "r"), &Json::Null);
    }

    #[test]
    fn document_without_cases_has_only_header_and_fields() {
        let mut bench = Bench::with_filters("rows_only", Vec::new());
        bench.field("rows", Json::Arr(Vec::new()));
        assert_eq!(keys(&bench.document()), ["bench", "quick", "cpus", "rows"]);
    }
}
