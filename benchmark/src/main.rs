//! `ltse-benchmark`: the end-to-end and per-layer benchmark of the LogTM-SE
//! reproduction. See `README.md` next to this crate for the workloads, the
//! metrics and how to read them.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--smoke] [--json PATH]
//! ```
//!
//! Without `--workload` every workload runs, each in its own process so
//! that peak memory is per workload. The last line of standard output is
//! the JSON result of one workload; exit code 1 means a check failed and 2
//! that the benchmark could not run.

mod host;
mod report;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use report::{Metric, Summary};
use stats::Quartiles;
use trace::{self_times, span, Tracer};
use workloads::{Outcome, Workload};

const DEFAULT_SEED: u64 = 0xC0FFEE;
const DEFAULT_SECONDS: u64 = 20;
/// Fewest measured repetitions of each kind (untraced, and traced when
/// tracing), however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Digests of each workload's output for the default seed.
const GOLDEN: &str = include_str!("../golden.json");

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    json: Option<PathBuf>,
    /// Internal: where a child process writes its document entry.
    entry: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        json: None,
        entry: None,
    };
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                a.workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| bad(&format!("expected one of {}", names.join(", "))))?,
                );
            }
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                a.seed = parsed.map_err(|_| bad("expected an integer"))?;
            }
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| bad("expected 1 to 600"))?;
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--json" => a.json = Some(value.into()),
            "--entry" => a.entry = Some(value.into()),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    // The persistent run cache would serve sweep results from disk; the
    // benchmark measures the computation, so it never reads the cache.
    std::env::remove_var("LTSE_CACHE");
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn current_exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))
}

/// The build directory the binary runs from (`<target>/release/..`), where
/// traces and intermediate files go.
fn target_dir() -> Result<PathBuf, String> {
    current_exe()?
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .ok_or_else(|| "the benchmark binary has no build directory".to_string())
}

/// Runs every workload in a child process of its own, one after another.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = current_exe()?;
    let dir = target_dir()?.join("entries");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let (mut entries, mut all_correct) = (Vec::new(), true);
    for w in Workload::ALL {
        let entry = dir.join(format!("{}.json", w.name()));
        let _ = std::fs::remove_file(&entry);
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .arg("--entry")
            .arg(&entry);
        if a.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        match status.code() {
            Some(0) => {}
            Some(1) => all_correct = false,
            _ => return Err(format!("{} did not finish ({status})", w.name())),
        }
        entries.push(
            std::fs::read_to_string(&entry)
                .map_err(|e| format!("{}: no result ({e})", w.name()))?,
        );
    }
    if let Some(path) = &a.json {
        write_document(path, a, &entries)?;
    }
    println!(
        "all {} workloads: {}",
        entries.len(),
        if all_correct {
            "correct"
        } else {
            "CHECK FAILED"
        }
    );
    Ok(all_correct)
}

fn write_document(path: &PathBuf, a: &Args, entries: &[String]) -> Result<(), String> {
    let doc = report::document(
        host::cpus(),
        &host::commit(),
        a.seed,
        a.seconds,
        a.trace,
        a.smoke,
        entries,
    );
    std::fs::write(path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The digest `golden.json` records for `w`, if `seed` is the seed it was
/// recorded with.
fn golden(w: Workload, seed: u64) -> Option<u64> {
    let seed_field = GOLDEN.split("\"seed\":").nth(1)?;
    let recorded: u64 = seed_field
        .trim_start()
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()?;
    if recorded != seed {
        return None;
    }
    let value = GOLDEN.split(&format!("\"{}\": \"0x", w.name())).nth(1)?;
    u64::from_str_radix(&value[..value.find('"')?], 16).ok()
}

/// One repetition: set-up (timed on its own) and the timed phase.
struct Rep {
    index: u32,
    setup: Duration,
    out: Outcome,
    traced: bool,
}

fn one_rep(w: Workload, a: &Args, tracer: Option<&Tracer>, rep: u32) -> Rep {
    if let Some(t) = tracer {
        t.set_rep(rep);
    }
    span(tracer, "harness.rep", None, |id| {
        let start = Instant::now();
        let run = w.setup(a.seed, a.smoke, tracer, id);
        let setup = start.elapsed();
        Rep {
            index: rep,
            setup,
            out: run(tracer, id),
            traced: tracer.is_some(),
        }
    })
}

fn run_one(w: Workload, a: &Args) -> Result<bool, String> {
    // Fail before any work if the host cannot report CPU time or memory.
    host::cpu_time()?;
    host::peak_rss_mib()?;
    // Peak memory is read once the warm-up repetition has set up and run
    // the workload. Later repetitions only reuse freed memory, but the
    // allocator's reuse varies with thread timing, so reading the peak
    // after all of them would make it depend on how many ran.
    let mut peak_rss_mib = 0.0;
    let (mut attempted, mut failed) = (1u64, 0u64);
    let mut problems = w.precheck(a.seed);
    failed += problems.len() as u64;

    let tracer = Tracer::default();
    let mut reps: Vec<Rep> = Vec::new();
    // How long a `host::reference_pass` took after each repetition.
    let mut passes: Vec<f64> = Vec::new();
    let mut reference = if a.smoke { None } else { golden(w, a.seed) };
    let start = Instant::now();
    // Repetition 0 warms the process up and sets the reference digest when
    // the seed has no golden entry; with --smoke it is the only one.
    loop {
        let i = reps.len();
        // Traced repetitions alternate with untraced ones after the warm-up.
        let traced = a.trace && (a.smoke || (i > 0 && i.is_multiple_of(2)));
        let mut rep = one_rep(w, a, traced.then_some(&tracer), i as u32);
        let want = *reference.get_or_insert(rep.out.digest);
        if rep.out.digest != want {
            rep.out.failed += 1;
            rep.out.problems.push(format!(
                "digest {:#018x}, expected {want:#018x}",
                rep.out.digest
            ));
        }
        attempted += rep.out.attempted;
        failed += rep.out.failed;
        problems.extend(rep.out.problems.drain(..).map(|p| format!("rep {i}: {p}")));
        reps.push(rep);
        if i == 0 {
            peak_rss_mib = host::peak_rss_mib()?;
        }
        // After the peak is read, so that the pass's own memory is not in it.
        passes.push(host::reference_pass().as_secs_f64());
        if a.smoke {
            break;
        }
        let untraced = reps.iter().skip(1).filter(|r| !r.traced).count();
        let traced = reps.iter().filter(|r| r.traced).count();
        let enough = untraced >= MIN_REPS && (!a.trace || traced >= MIN_REPS);
        if enough && start.elapsed() >= Duration::from_secs(a.seconds) {
            break;
        }
    }
    eprintln!("{}: units_per_s counts {}", w.name(), w.unit());
    for p in problems.iter().take(20) {
        eprintln!("{}: {p}", w.name());
    }

    let measured: Vec<&Rep> = match a.smoke {
        true => reps.iter().collect(),
        false => reps.iter().skip(1).collect(),
    };
    let pass = Quartiles::of(&passes).expect("at least one repetition ran");
    let slowness = pass.median / host::REFERENCE_PASS.as_secs_f64();
    println!(
        "{}: host at {:.3} of the reference speed (reference pass {:.1} ms, median of {})",
        w.name(),
        1.0 / slowness,
        pass.median * 1e3,
        pass.n
    );
    let summary = Summary {
        workload: w.name(),
        attempted,
        failed,
        digest: reference.unwrap_or_default(),
        metrics: if a.trace {
            layer_metrics(w, &tracer, &measured)?
        } else {
            end_to_end_metrics(&measured, peak_rss_mib, slowness)
        },
    };
    print!("{}", summary.lines());
    if let Some(path) = &a.entry {
        std::fs::write(path, summary.doc_entry())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if let Some(path) = &a.json {
        write_document(path, a, &[summary.doc_entry()])?;
    }
    println!("{}", summary.result_line());
    Ok(summary.correct())
}

/// A metric whose value is the median of its samples.
fn metric(name: &str, unit: &'static str, values: &[f64]) -> Metric {
    let q = Quartiles::of(values).expect("every metric has at least one sample");
    Metric {
        name: name.to_string(),
        unit,
        q,
        value: q.median,
    }
}

/// The end-to-end metrics of the measured repetitions, as if the host ran
/// at its reference speed: times are divided by `slowness`, the run's
/// median reference pass over [`host::REFERENCE_PASS`], and rates are
/// multiplied by it. The timed phase reports its faster quartile: the lower
/// quartile of the times and the upper quartile of the rates. Other load on
/// the host only ever adds time to a repetition, and it comes and goes
/// over tens of seconds, so the faster quarter of a run's repetitions moves
/// less from run to run than its median does, while a slower program still
/// moves every repetition.
fn end_to_end_metrics(reps: &[&Rep], peak_rss_mib: f64, slowness: f64) -> Vec<Metric> {
    let each = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(|r| f(r)).collect() };
    report::END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let (values, pick): (Vec<f64>, fn(&Quartiles) -> f64) = match name {
                "setup_s" => (each(&|r| r.setup.as_secs_f64() / slowness), |q| q.median),
                "wall_s" => (each(&|r| r.out.wall.as_secs_f64() / slowness), |q| q.q1),
                "cpu_s" => (each(&|r| r.out.cpu.as_secs_f64() / slowness), |q| q.q1),
                "units_per_s" => (
                    each(&|r| r.out.units as f64 * slowness / r.out.wall.as_secs_f64().max(1e-9)),
                    |q| q.q3,
                ),
                "peak_rss_mib" => (vec![peak_rss_mib], |q| q.median),
                _ => unreachable!("every end-to-end metric is measured above"),
            };
            let mut m = metric(name, unit, &values);
            m.value = pick(&m.q);
            m
        })
        .collect()
}

/// Per-layer metrics from the traced repetitions: each span's self time as
/// a share of all self time, the layers' counters, and the cost of tracing
/// against the untraced repetitions in between.
fn layer_metrics(w: Workload, tracer: &Tracer, reps: &[&Rep]) -> Result<Vec<Metric>, String> {
    let spans = tracer.spans();
    write_trace(w, &spans)?;
    let selfs = self_times(&spans);
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut push = |k: &str, v: f64| samples.entry(k.to_string()).or_default().push(v);
    let mut layer_ns: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for rep in reps.iter().filter(|r| r.traced) {
        let in_rep: Vec<usize> = (0..spans.len())
            .filter(|&s| spans[s].rep == rep.index)
            .collect();
        let busy: u64 = in_rep.iter().map(|&s| selfs[s]).sum();
        let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
        let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
        for &s in &in_rep {
            *by_name.entry(spans[s].name).or_default() += selfs[s];
            *by_layer.entry(spans[s].layer()).or_default() += selfs[s];
        }
        for name in report::SPAN_NAMES {
            let ns = by_name.get(name).copied().unwrap_or(0);
            push(&format!("{name}_share"), ns as f64 / busy.max(1) as f64);
        }
        for (layer, ns) in by_layer {
            layer_ns.entry(layer).or_default().push(ns as f64);
        }
        push("trace.rep_ns", rep.out.wall.as_nanos() as f64);
        push("trace.busy_ns", busy as f64);
        push("trace.spans", in_rep.len() as f64);
        for (k, v) in &rep.out.counts {
            push(k, *v);
        }
    }
    let wall = |traced: bool| {
        let v: Vec<f64> = reps
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.out.wall.as_secs_f64())
            .collect();
        Quartiles::of(&v).map_or(0.0, |q| q.median)
    };
    let (traced_wall, untraced_wall) = (wall(true), wall(false));
    if untraced_wall > 0.0 {
        push(
            "trace.overhead_pct",
            (traced_wall / untraced_wall - 1.0) * 100.0,
        );
    }

    println!(
        "{} self time by layer, median of {} traced rep(s):",
        w.name(),
        reps.iter().filter(|r| r.traced).count()
    );
    let total: f64 = layer_ns
        .values()
        .map(|v| Quartiles::of(v).map_or(0.0, |q| q.median))
        .sum();
    for (layer, v) in &layer_ns {
        let ms = Quartiles::of(v).map_or(0.0, |q| q.median) / 1e6;
        println!(
            "  {layer:<10} {ms:>10.1} ms  {:>5.1}%",
            100.0 * ms * 1e6 / total.max(1.0)
        );
    }
    if let Some(p50) = samples.get("stm.commit_latency_p50_ns") {
        let p99 = &samples["stm.commit_latency_p99_ns"];
        let med = |v: &Vec<f64>| Quartiles::of(v).map_or(0.0, |q| q.median);
        println!(
            "  stm commit latency: p50 {:.0} ns, p99 {:.0} ns",
            med(p50),
            med(p99)
        );
    }
    Ok(report::per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let values = samples.get(&name).cloned().unwrap_or_else(|| vec![0.0]);
            metric(&name, unit, &values)
        })
        .collect())
}

/// Writes every span to `<target>/trace-<workload>.json`.
fn write_trace(w: Workload, spans: &[trace::Span]) -> Result<(), String> {
    let path = target_dir()?.join(format!("trace-{}.json", w.name()));
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"rep\": {}}}{}\n",
            s.name,
            s.layer(),
            s.start_ns,
            s.end_ns,
            s.rep,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    std::fs::write(&path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "{}: {} spans written to {}",
        w.name(),
        spans.len(),
        path.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line_flags() {
        let a = parse(&[
            "--workload",
            "stm_raytrace",
            "--seed",
            "42",
            "--seconds",
            "7",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::StmRaytrace));
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (42, 7, true, false));
        let a = parse(&["--seed", "0xC0FFEE", "--smoke"]).unwrap();
        assert_eq!((a.seed, a.smoke, a.workload), (DEFAULT_SEED, true, None));
        for bad in [
            &["--trace", "2"][..],
            &["--workload", "x"],
            &["--seconds", "0"],
            &["--seed"],
            &["--what"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn golden_entries_apply_to_their_seed_only() {
        for w in Workload::ALL {
            assert!(
                golden(w, DEFAULT_SEED).is_some(),
                "{} has a golden digest",
                w.name()
            );
            assert_eq!(golden(w, DEFAULT_SEED + 1), None);
        }
    }
}
