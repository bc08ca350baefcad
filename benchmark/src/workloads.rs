//! The five workloads. Each fixes an amount of work per repetition, builds
//! it from the seed (set-up), runs it (the timed phase), counts what each
//! layer did, and checks the result.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use logtm_se::substrates::sim::config::seed_sequence;
use logtm_se::substrates::sim::rng::{mix64, Xoshiro256StarStar};
use logtm_se::{
    explore_jobs, Cycle, ExploreConfig, MemConfig, Op, ProgCtx, RunReport, ScriptOp, SignatureKind,
    System, SystemBuilder, ThreadProgram, TxScript, WordAddr,
};
use ltse_bench::experiments::{table3_signatures, ExperimentScale};
use ltse_bench::render::{render_figure4, render_table3};
use ltse_bench::runner;
use ltse_stm::{StmBuilder, StmReport, StmSystem};
use ltse_workloads::{Benchmark, SyncMode, Zipfian};

use crate::host;
use crate::stats::{Fnv, Quartiles};
use crate::trace::{span, ProgramTimes, SpanId, Timed, TimesSink, Tracer};

/// Clients of the STM workloads, and workers of the sweep and exploration
/// pools on hosts with at least as many CPUs. All load comes from this one
/// process.
const THREADS: usize = 2;

fn pool_workers() -> usize {
    THREADS.min(host::cpus())
}

/// Units of work per repetition. `--smoke` divides each by [`SMOKE_DIV`].
const SWEEP_UNITS_PER_THREAD: u64 = 6;
const MP3D_STEPS: u64 = 600;
const EXPLORE_BUDGET: u64 = 6000;
const OLTP_TXS_PER_CLIENT: u64 = 300_000;
const RAYTRACE_UNITS_PER_THREAD: u64 = 600_000;
const SMOKE_DIV: u64 = 20;

/// Seeds per figure-4 bar in `paper_sweep`. Its longest runs (BerkeleyDB
/// under locks) vary with the seed; averaging three keeps the repetition's
/// work nearly independent of `--seed`.
const SWEEP_SEEDS: usize = 3;

/// Schedule-exploration window, as in the explorer's integration tests.
const EXPLORE_WINDOW: usize = 4;
const EXPLORE_HORIZON: Cycle = Cycle(8);

/// Shape of the OLTP clients: Zipf 0.99 over 4096 keys, 2-8 ops per
/// transaction, half of them fetch-adds.
const OLTP_KEYS: u64 = 4096;
const OLTP_THETA: f64 = 0.99;
const OLTP_WRITE_SHARE: f64 = 0.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSweep,
    SimMp3d64,
    ExploreOracle,
    StmOltpHot,
    StmRaytrace,
}

/// Per-layer counters of one repetition, keyed by metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// What one repetition did.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall-clock and process CPU time of the timed phase.
    pub wall: Duration,
    pub cpu: Duration,
    /// Work units completed, the numerator of `units_per_s`.
    pub units: u64,
    /// Operations attempted and failed: sweep runs, repetitions, schedules
    /// or transactions, plus one per failed check.
    pub attempted: u64,
    pub failed: u64,
    /// Digest of the deterministic output, compared across repetitions and
    /// against `golden.json`.
    pub digest: u64,
    /// What went wrong, for the log.
    pub problems: Vec<String>,
    pub counts: Counts,
}

impl Outcome {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

/// The timed phase of a repetition whose set-up has been done.
pub type Run = Box<dyn FnOnce(Option<&Tracer>, Option<SpanId>) -> Outcome>;

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PaperSweep,
        Workload::SimMp3d64,
        Workload::ExploreOracle,
        Workload::StmOltpHot,
        Workload::StmRaytrace,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::SimMp3d64 => "sim_mp3d_64",
            Workload::ExploreOracle => "explore_oracle",
            Workload::StmOltpHot => "stm_oltp_hot",
            Workload::StmRaytrace => "stm_raytrace",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What `units_per_s` counts.
    pub fn unit(self) -> &'static str {
        match self {
            Workload::PaperSweep => "sweep runs",
            Workload::SimMp3d64 => "simulated events",
            Workload::ExploreOracle => "explored schedules",
            Workload::StmOltpHot | Workload::StmRaytrace => "committed transactions",
        }
    }

    /// Correctness checks run once before timing: the STM workloads replay
    /// a small run through the serializability oracle. Returns problems.
    pub fn precheck(self, seed: u64) -> Vec<String> {
        match self {
            Workload::StmOltpHot => {
                let (clients, expected) = oltp_clients(seed, 2000);
                let programs = clients
                    .into_iter()
                    .map(|c| boxed(TxScript::new(c)))
                    .collect();
                stm_precheck(seed, programs, |sys| oltp_mismatches(sys, &expected))
            }
            Workload::StmRaytrace => stm_precheck(seed, raytrace_programs(2000), |_| Vec::new()),
            _ => Vec::new(),
        }
    }

    /// Builds one repetition's machine and programs (timed as `setup_s`)
    /// and returns its timed phase.
    pub fn setup(
        self,
        seed: u64,
        smoke: bool,
        tracer: Option<&Tracer>,
        parent: Option<SpanId>,
    ) -> Run {
        let size = |n: u64| if smoke { (n / SMOKE_DIV).max(1) } else { n };
        match self {
            Workload::PaperSweep => sweep_setup(seed, size(SWEEP_UNITS_PER_THREAD), tracer, parent),
            Workload::SimMp3d64 => mp3d_setup(seed, size(MP3D_STEPS), tracer, parent),
            Workload::ExploreOracle => explore_setup(seed, size(EXPLORE_BUDGET), tracer, parent),
            Workload::StmOltpHot => oltp_setup(seed, size(OLTP_TXS_PER_CLIENT), tracer, parent),
            Workload::StmRaytrace => {
                raytrace_setup(seed, size(RAYTRACE_UNITS_PER_THREAD), tracer, parent)
            }
        }
    }
}

/// Runs `f` as a timed phase: wall clock and process CPU time.
fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration, Duration) {
    let cpu0 = host::cpu_time().unwrap_or_default();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed();
    let cpu = host::cpu_time().unwrap_or_default().saturating_sub(cpu0);
    (out, wall, cpu)
}

fn boxed(p: impl ThreadProgram + 'static) -> Box<dyn ThreadProgram> {
    Box::new(p)
}

/// Wraps `p` in [`Timed`] when tracing (`sink` set).
fn wrap(p: Box<dyn ThreadProgram>, sink: &Option<TimesSink>) -> Box<dyn ThreadProgram> {
    match sink {
        Some(s) => Timed::wrap(p, s),
        None => p,
    }
}

fn take_times(sink: Option<TimesSink>) -> Vec<ProgramTimes> {
    sink.map(|s| std::mem::take(&mut *s.lock().expect("a program panicked")))
        .unwrap_or_default()
}

fn add(counts: &mut Counts, name: &'static str, v: f64) {
    *counts.entry(name).or_default() += v;
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Records the programs' summed `next_op` time as one span under the
/// single-threaded `core.run` span `parent`, starting at `start`.
fn record_next_op(
    tracer: &Tracer,
    parent: Option<SpanId>,
    start: Instant,
    times: &[ProgramTimes],
    counts: &mut Counts,
) {
    let ns: u64 = times.iter().map(|t| t.next_op_ns).sum();
    add(
        counts,
        "workloads.next_op_calls",
        times.iter().map(|t| t.next_op_calls).sum::<u64>() as f64,
    );
    tracer.record(
        "workloads.next_op",
        parent,
        start,
        start + Duration::from_nanos(ns),
    );
}

// ---------------------------------------------------------------------
// paper_sweep: figure 4 + table 3 through the experiment runner
// ---------------------------------------------------------------------

fn sweep_setup(seed: u64, units: u64, tracer: Option<&Tracer>, parent: Option<SpanId>) -> Run {
    let scale = ExperimentScale {
        units_per_thread: units,
        seeds: SWEEP_SEEDS,
        base_seed: seed,
        ..ExperimentScale::full()
    };
    // The sweep builds each run's machine inside its pool. Its set-up is
    // that construction done outside the timed phase: the machine and
    // programs of every run of figure 4 and table 3, built and dropped.
    span(tracer, "core.build", parent, |_| {
        let mut runs = Vec::new();
        for benchmark in Benchmark::all() {
            runs.push((
                benchmark,
                SyncMode::Lock,
                SignatureKind::Perfect,
                SWEEP_SEEDS,
            ));
            for kind in SignatureKind::figure4_set() {
                runs.push((benchmark, SyncMode::Tm, kind, SWEEP_SEEDS));
            }
        }
        for benchmark in [Benchmark::Raytrace, Benchmark::BerkeleyDb] {
            for kind in table3_signatures() {
                runs.push((benchmark, SyncMode::Tm, kind, 1));
            }
        }
        for (benchmark, mode, kind, seeds) in runs {
            for s in seed_sequence(seed, seeds) {
                let mut system = SystemBuilder::paper_default()
                    .signature(kind)
                    .seed(s)
                    .build();
                for p in benchmark.programs(mode, scale.threads, units) {
                    system.add_thread(p);
                }
            }
        }
    });
    Box::new(move |tracer, parent| paper_sweep(&scale, tracer, parent))
}

fn paper_sweep(
    scale: &ExperimentScale,
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
) -> Outcome {
    runner::set_jobs(Some(pool_workers()));
    runner::take_timings();
    let (text, wall, cpu) = timed(|| {
        let fig4 = span(tracer, "bench.figure4", parent, |_| {
            ltse_bench::figure4(scale)
        });
        let tab3 = span(tracer, "bench.table3", parent, |_| {
            ltse_bench::table3(scale)
        });
        span(tracer, "bench.render", parent, |_| match (fig4, tab3) {
            (Ok(f), Ok(t)) => Ok(render_figure4(&f) + &render_table3(&t)),
            (f, t) => Err([f.err(), t.err()]
                .into_iter()
                .flatten()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()),
        })
    });
    let mut out = Outcome {
        wall,
        cpu,
        ..Outcome::default()
    };
    let (mut busy_ms, mut capacity_ms) = (0.0, 0.0);
    for t in runner::take_timings() {
        out.attempted += t.runs as u64;
        out.failed += t.failed as u64;
        busy_ms += t.runs as f64 * t.mean_run_ms;
        capacity_ms += t.wall.as_secs_f64() * 1e3 * t.jobs as f64;
    }
    out.units = out.attempted - out.failed;
    match text {
        Ok(text) => out.digest = Fnv::default().bytes(text.as_bytes()).finish(),
        Err(problems) => out.problems = problems,
    }
    add(&mut out.counts, "bench.runs", out.attempted as f64);
    add(&mut out.counts, "bench.failed_runs", out.failed as f64);
    add(
        &mut out.counts,
        "bench.pool_busy_share",
        ratio(busy_ms, capacity_ms),
    );
    out
}

// ---------------------------------------------------------------------
// sim_mp3d_64: one long simulation on a 64-core CMP
// ---------------------------------------------------------------------

fn mp3d_setup(seed: u64, steps: u64, tracer: Option<&Tracer>, parent: Option<SpanId>) -> Run {
    let mut system = span(tracer, "core.build", parent, |_| {
        SystemBuilder::paper_default()
            .mem_config(MemConfig::scaled_cmp(64, 1))
            .signature(SignatureKind::paper_bs_2kb())
            .seed(seed)
            .build()
    });
    let programs = span(tracer, "workloads.programs", parent, |_| {
        Benchmark::Mp3d.programs(SyncMode::Tm, 64, steps)
    });
    let sink = tracer.map(|_| TimesSink::default());
    span(tracer, "core.add_thread", parent, |_| {
        for p in programs {
            system.add_thread(wrap(p, &sink));
        }
    });
    Box::new(move |tracer, parent| {
        let ((start, run_id, result), wall, cpu) = timed(|| {
            span(tracer, "core.run", parent, |id| {
                (Instant::now(), id, system.run())
            })
        });
        // The wrapped programs hand over their times when the system drops them.
        drop(system);
        let mut out = Outcome {
            wall,
            cpu,
            attempted: 1,
            ..Outcome::default()
        };
        match result {
            Ok(r) => {
                out.units = r.events_dispatched;
                out.digest = report_digest(&r);
                add_report_counts(&mut out.counts, &r, 64);
                finish_report_ratios(&mut out.counts);
                if r.threads_completed != 64 {
                    out.fail(format!("{} of 64 threads completed", r.threads_completed));
                }
            }
            Err(e) => out.fail(format!("run error: {e}")),
        }
        if let Some(t) = tracer {
            record_next_op(t, run_id, start, &take_times(sink), &mut out.counts);
        }
        out
    })
}

/// Every deterministic counter of a run: a faster simulator must leave all
/// of them unchanged.
fn report_digest(r: &RunReport) -> u64 {
    let (tm, mem) = (&r.tm, &r.mem);
    let mut h = Fnv::default();
    for v in [
        r.cycles.as_u64(),
        r.measured_cycles.as_u64(),
        r.events_dispatched,
        r.threads_completed as u64,
        tm.commits,
        tm.aborts,
        tm.partial_aborts,
        tm.stalls,
        tm.sibling_stalls,
        tm.true_conflicts_signalled.get(),
        tm.false_conflicts_signalled.get(),
        tm.summary_true_conflicts.get(),
        tm.summary_false_conflicts.get(),
        tm.log_writes,
        tm.log_writes_suppressed,
        tm.wasted_cycles,
        tm.work_units,
        tm.escapes,
        tm.serial_escalations,
        tm.log_high_water_words,
        mem.l1_hits.get(),
        mem.l1_misses.get(),
        mem.l2_hits.get(),
        mem.dram_accesses.get(),
        mem.forwards.get(),
        mem.nacks.get(),
        mem.invalidations.get(),
        mem.l1_evictions.get(),
        mem.l2_evictions.get(),
        mem.lost_dir_broadcasts.get(),
        mem.messages.get(),
        mem.tx_victimizations_exact(),
    ] {
        h.u64(v);
    }
    h.finish()
}

/// Adds a run's counters; [`finish_report_ratios`] derives the ratios once
/// every run of the repetition is in.
fn add_report_counts(c: &mut Counts, r: &RunReport, threads: u64) {
    let (tm, mem) = (&r.tm, &r.mem);
    for (name, v) in [
        ("core.events", r.events_dispatched),
        ("core.cycles", r.cycles.as_u64()),
        ("core.thread_cycles", r.cycles.as_u64() * threads),
        ("sig.conflicts_signalled", tm.conflicts_signalled()),
        ("sig.true_conflicts", tm.true_conflicts_signalled.get()),
        ("sig.false_conflicts", tm.false_conflicts_signalled.get()),
        (
            "sig.summary_conflicts",
            tm.summary_true_conflicts.get() + tm.summary_false_conflicts.get(),
        ),
        ("mem.l1_hits", mem.l1_hits.get()),
        ("mem.l1_misses", mem.l1_misses.get()),
        ("mem.l2_hits", mem.l2_hits.get()),
        ("mem.dram_accesses", mem.dram_accesses.get()),
        ("mem.forwards", mem.forwards.get()),
        ("mem.invalidations", mem.invalidations.get()),
        ("mem.messages", mem.messages.get()),
        ("mem.nacks", mem.nacks.get()),
        ("mem.lost_dir_broadcasts", mem.lost_dir_broadcasts.get()),
        ("mem.tx_victimizations", mem.tx_victimizations_exact()),
        ("tm.commits", tm.commits),
        ("tm.aborts", tm.aborts),
        ("tm.partial_aborts", tm.partial_aborts),
        ("tm.stalls", tm.stalls),
        ("tm.log_writes", tm.log_writes),
        ("tm.log_writes_suppressed", tm.log_writes_suppressed),
        ("tm.wasted_cycles", tm.wasted_cycles),
        ("tm.serial_escalations", tm.serial_escalations),
    ] {
        add(c, name, v as f64);
    }
}

fn finish_report_ratios(c: &mut Counts) {
    let get = |c: &Counts, k| c.get(k).copied().unwrap_or(0.0);
    let derived = [
        (
            "sig.true_conflict_ratio",
            ratio(
                get(c, "sig.true_conflicts"),
                get(c, "sig.conflicts_signalled"),
            ),
        ),
        (
            "mem.l1_miss_ratio",
            ratio(
                get(c, "mem.l1_misses"),
                get(c, "mem.l1_hits") + get(c, "mem.l1_misses"),
            ),
        ),
        (
            "tm.commit_ratio",
            ratio(
                get(c, "tm.commits"),
                get(c, "tm.commits") + get(c, "tm.aborts"),
            ),
        ),
        (
            "tm.log_filter_ratio",
            ratio(
                get(c, "tm.log_writes_suppressed"),
                get(c, "tm.log_writes") + get(c, "tm.log_writes_suppressed"),
            ),
        ),
        (
            "tm.wasted_cycle_share",
            ratio(get(c, "tm.wasted_cycles"), get(c, "core.thread_cycles")),
        ),
    ];
    c.extend(derived);
}

// ---------------------------------------------------------------------
// explore_oracle: schedule exploration under the serializability oracle
// ---------------------------------------------------------------------

/// The machine every schedule runs on. Its own seed stays fixed: it sets
/// the threads' start jitter for all schedules at once, which would move the
/// whole repetition's work with `--seed`; the schedules vary with the
/// explorer's seed instead.
fn explore_system(sink: &Option<TimesSink>) -> System {
    let mut s = SystemBuilder::small_for_tests()
        .check_serializability(true)
        .build();
    for p in Benchmark::BerkeleyDb.programs(SyncMode::Tm, 4, 2) {
        s.add_thread(wrap(p, sink));
    }
    s
}

fn explore_setup(seed: u64, budget: u64, tracer: Option<&Tracer>, parent: Option<SpanId>) -> Run {
    // Each schedule builds its own machine inside the timed phase; the
    // set-up is that construction done outside it, once per schedule.
    span(tracer, "core.build", parent, |_| {
        for _ in 0..budget {
            drop(explore_system(&None));
        }
    });
    let cfg = ExploreConfig {
        seed,
        ..ExploreConfig::with_budget(budget as usize)
    };
    Box::new(move |tracer, parent| explore(&cfg, tracer, parent))
}

fn explore(cfg: &ExploreConfig, tracer: Option<&Tracer>, parent: Option<SpanId>) -> Outcome {
    let counts = Mutex::new(Counts::new());
    let one_schedule = |explore_id: Option<SpanId>, chooser: &mut logtm_se::ScheduleChooser| {
        let begun = Instant::now();
        let sink = tracer.map(|_| TimesSink::default());
        let mut s = span(tracer, "core.build", explore_id, |_| explore_system(&sink));
        let (start, run_id, result) = span(tracer, "core.run", explore_id, |id| {
            (
                Instant::now(),
                id,
                s.run_explored(chooser, EXPLORE_WINDOW, EXPLORE_HORIZON),
            )
        });
        let report = result.map_err(|e| format!("run error: {e}"))?;
        let errors = span(tracer, "mem.oracle_finish", explore_id, |_| {
            s.finish_checks()
        });
        drop(s);
        if let Some(t) = tracer {
            let mut c = counts.lock().expect("a schedule panicked while counting");
            add_report_counts(&mut c, &report, 4);
            add(&mut c, "mem.oracle_violations", errors.len() as f64);
            add(&mut c, "sim.busy_ns", begun.elapsed().as_nanos() as f64);
            record_next_op(t, run_id, start, &take_times(sink), &mut c);
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("; "))
        }
    };
    let (report, wall, cpu) = timed(|| {
        span(tracer, "sim.explore", parent, |id| {
            explore_jobs(cfg, pool_workers(), |chooser| one_schedule(id, chooser))
        })
    });
    let mut out = Outcome {
        wall,
        cpu,
        units: report.schedules_run as u64,
        attempted: report.schedules_run as u64,
        counts: counts
            .into_inner()
            .expect("a schedule panicked while counting"),
        ..Outcome::default()
    };
    if let Some(f) = &report.failure {
        out.fail(format!("schedule {} failed: {}", f.schedule, f.message));
    }
    out.digest = Fnv::default()
        .u64(report.fingerprint)
        .u64(report.schedules_run as u64)
        .u64(report.distinct_schedules as u64)
        .u64(u64::from(report.failure.is_none()))
        .finish();
    if tracer.is_some() {
        let c = &mut out.counts;
        let busy = c.remove("sim.busy_ns").unwrap_or(0.0);
        finish_report_ratios(c);
        c.insert("sim.schedules", report.schedules_run as f64);
        c.insert(
            "sim.distinct_ratio",
            ratio(
                report.distinct_schedules as f64,
                report.schedules_run as f64,
            ),
        );
        c.insert(
            "sim.pool_busy_share",
            ratio(busy, wall.as_nanos() as f64 * pool_workers() as f64),
        );
    }
    out
}

// ---------------------------------------------------------------------
// The STM workloads
// ---------------------------------------------------------------------

/// Two closed-loop clients' transactions, generated from the seed, and the
/// sum each key must hold afterwards: every write is a fetch-add, so the
/// final value of a key does not depend on the commit order.
fn oltp_clients(seed: u64, txs: u64) -> (Vec<Vec<Vec<ScriptOp>>>, Vec<u64>) {
    let zipf = Zipfian::new(OLTP_KEYS, OLTP_THETA);
    let mut expected = vec![0u64; OLTP_KEYS as usize];
    let clients = (0..THREADS as u64)
        .map(|client| {
            let mut rng = Xoshiro256StarStar::new(mix64(seed ^ mix64(client + 1)));
            (0..txs)
                .map(|_| {
                    let n = rng.gen_range(2, 9);
                    (0..n)
                        .map(|_| {
                            let key = zipf.sample(&mut rng);
                            if rng.gen_bool(OLTP_WRITE_SHARE) {
                                let delta = rng.gen_range(1, 8);
                                expected[key as usize] += delta;
                                ScriptOp::FetchAdd(key_addr(key), delta)
                            } else {
                                ScriptOp::Read(key_addr(key))
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    (clients, expected)
}

/// One cache block per key, as in the OLTP driver of the workloads crate.
fn key_addr(key: u64) -> WordAddr {
    WordAddr(key * 8)
}

fn oltp_mismatches(sys: &StmSystem, expected: &[u64]) -> Vec<String> {
    (0..OLTP_KEYS)
        .zip(expected)
        .filter(|&(k, &want)| sys.read_word(key_addr(k)) != want)
        .map(|(k, want)| {
            format!(
                "key {k} holds {}, expected {want}",
                sys.read_word(key_addr(k))
            )
        })
        .take(5)
        .collect()
}

fn stm_precheck(
    seed: u64,
    programs: Vec<Box<dyn ThreadProgram>>,
    check: impl FnOnce(&StmSystem) -> Vec<String>,
) -> Vec<String> {
    let mut sys = StmBuilder::new()
        .seed(seed)
        .check_serializability(true)
        .build();
    for p in programs {
        sys.add_thread(p);
    }
    if let Err(e) = sys.run() {
        return vec![format!("serializability pre-check: run error: {e}")];
    }
    let mut problems: Vec<String> = sys.finish_checks().into_iter().take(5).collect();
    problems.extend(check(&sys));
    problems
        .iter()
        .map(|p| format!("serializability pre-check: {p}"))
        .collect()
}

fn stm_build(
    seed: u64,
    programs: Vec<Box<dyn ThreadProgram>>,
    sink: &Option<TimesSink>,
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
) -> StmSystem {
    span(tracer, "stm.build", parent, |_| {
        let mut sys = StmBuilder::new().seed(seed).build();
        for p in programs {
            sys.add_thread(wrap(p, sink));
        }
        sys
    })
}

/// Runs an STM system as the timed phase and counts what the STM did.
/// With tracing, each worker thread becomes an `stm.engine` span whose
/// `workloads.next_op` child holds the thread's time in its program; what
/// remains is the STM's own time.
fn stm_run(
    sys: &mut StmSystem,
    sink: Option<TimesSink>,
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
) -> (Outcome, Option<StmReport>) {
    let ((run_id, result), wall, cpu) =
        timed(|| span(tracer, "stm.run", parent, |id| (id, sys.run())));
    let mut out = Outcome {
        wall,
        cpu,
        ..Outcome::default()
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            out.fail(format!("run error: {e}"));
            return (out, None);
        }
    };
    out.units = report.commits;
    let c = &mut out.counts;
    for (name, v) in [
        ("stm.commits", report.commits),
        ("stm.aborts", report.aborts),
        ("stm.aborts_locked", report.aborts_locked),
        ("stm.aborts_stale", report.aborts_stale),
        ("stm.serial_fallbacks", report.serial_fallbacks),
        ("stm.serial_commits", report.serial_commits),
        ("stm.tx_reads", report.tx_reads),
        ("stm.tx_writes", report.tx_writes),
        ("stm.max_retry_streak", u64::from(report.max_retry_streak)),
    ] {
        add(c, name, v as f64);
    }
    let commits = report.commits as f64;
    add(
        c,
        "stm.commit_ratio",
        ratio(commits, commits + report.aborts as f64),
    );
    add(
        c,
        "stm.reads_per_commit",
        ratio(report.tx_reads as f64, commits),
    );
    if let Some(t) = tracer {
        let times = take_times(sink);
        let mut latencies: Vec<f64> = Vec::new();
        for p in &times {
            if let (Some(first), Some(last)) = (p.first, p.last) {
                let engine = t.record("stm.engine", run_id, first, last);
                let ops_end = first + Duration::from_nanos(p.next_op_ns);
                t.record("workloads.next_op", Some(engine), first, ops_end);
            }
            add(c, "workloads.next_op_calls", p.next_op_calls as f64);
            latencies.extend(p.commit_latency_ns.iter().map(|&ns| ns as f64));
        }
        if let Some(q) = Quartiles::of(&latencies) {
            latencies.sort_by(f64::total_cmp);
            let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
            add(c, "stm.commit_latency_p50_ns", q.median);
            add(c, "stm.commit_latency_p99_ns", p99);
            add(c, "stm.commit_latency_tail", ratio(p99, q.median));
        }
    }
    (out, Some(report))
}

fn oltp_setup(seed: u64, txs: u64, tracer: Option<&Tracer>, parent: Option<SpanId>) -> Run {
    let (clients, expected) = span(tracer, "workloads.programs", parent, |_| {
        oltp_clients(seed, txs)
    });
    let programs = clients
        .into_iter()
        .map(|c| boxed(TxScript::new(c)))
        .collect();
    let sink = tracer.map(|_| TimesSink::default());
    let mut sys = stm_build(seed, programs, &sink, tracer, parent);
    Box::new(move |tracer, parent| {
        let (mut out, report) = stm_run(&mut sys, sink, tracer, parent);
        let want = txs * THREADS as u64;
        out.attempted += want;
        if let Some(r) = report {
            // A transaction that never committed is a failed operation.
            out.failed += want.saturating_sub(r.commits);
            for problem in oltp_mismatches(&sys, &expected) {
                out.fail(problem);
            }
        }
        let mut h = Fnv::default();
        for k in 0..OLTP_KEYS {
            h.u64(sys.read_word(key_addr(k)));
        }
        out.digest = h.finish();
        out
    })
}

/// Raytrace's programs without their think time. On the STM a thread
/// spins through each `Op::Work`; with it, 99% of the run is that spin and
/// under 1% is the STM, so the STM's layers would not show.
fn raytrace_programs(units: u64) -> Vec<Box<dyn ThreadProgram>> {
    Benchmark::Raytrace
        .programs(SyncMode::Tm, THREADS as u32, units)
        .into_iter()
        .map(|p| boxed(NoThink(p)))
        .collect()
}

/// Forwards a program, skipping its `Op::Work` requests.
struct NoThink(Box<dyn ThreadProgram>);

impl ThreadProgram for NoThink {
    fn next_op(&mut self, t: &mut ProgCtx) -> Op {
        loop {
            match self.0.next_op(t) {
                Op::Work(_) => continue,
                op => return op,
            }
        }
    }

    fn on_tx_abort(&mut self, t: &mut ProgCtx) {
        self.0.on_tx_abort(t);
    }

    fn on_partial_abort(&mut self, t: &mut ProgCtx, remaining_depth: usize) -> bool {
        self.0.on_partial_abort(t, remaining_depth)
    }
}

fn raytrace_setup(seed: u64, units: u64, tracer: Option<&Tracer>, parent: Option<SpanId>) -> Run {
    let programs = span(tracer, "workloads.programs", parent, |_| {
        raytrace_programs(units)
    });
    let sink = tracer.map(|_| TimesSink::default());
    let mut sys = stm_build(seed, programs, &sink, tracer, parent);
    Box::new(move |tracer, parent| {
        let (mut out, report) = stm_run(&mut sys, sink, tracer, parent);
        let want = units * THREADS as u64;
        out.attempted += want;
        if let Some(r) = report {
            out.failed += want.saturating_sub(r.work_units);
            // Aborts reshuffle the programs' random streams on the STM, so
            // only the completed work is deterministic; the pre-check
            // covers serializability.
            out.digest = Fnv::default()
                .u64(r.work_units)
                .u64(r.threads_completed as u64)
                .finish();
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn oltp_expected_sums_match_the_generated_writes() {
        let (clients, expected) = oltp_clients(7, 50);
        let mut sums = vec![0u64; OLTP_KEYS as usize];
        for tx in clients.iter().flatten() {
            assert!((2..=8).contains(&tx.len()));
            for op in tx {
                if let ScriptOp::FetchAdd(addr, d) = *op {
                    sums[(addr.0 / 8) as usize] += d;
                }
            }
        }
        assert_eq!(sums, expected);
        assert_eq!(oltp_clients(7, 50).1, expected, "same seed, same inputs");
        assert_ne!(oltp_clients(8, 50).1, expected);
    }
}
