//! `repro` — regenerates every table and figure of the LogTM-SE paper.
//!
//! Usage:
//!
//! ```text
//! repro [--quick] [--csv] [--jobs N] [--stats-json PATH]
//!       [--backend sim|stm] <subcommand>
//!
//! Subcommands:
//!   table1         System model parameters (paper Table 1)
//!   table2         Benchmarks and transaction footprints (Table 2)
//!   figure4        Speedup over locks, all signatures (Figure 4)
//!   table3         Signature size vs. conflict detection (Table 3)
//!   victimization  Transactional victimization counts (Result 4)
//!   table4         Virtualization-technique comparison (Table 4)
//!   sweep          Ablation A1: signature size sweep
//!   sticky         Ablation A2: sticky states on/off
//!   logfilter      Ablation A3: log-filter size
//!   virt           Ablation A4: context-switch overhead
//!   snooping       §7: directory vs. snooping coherence
//!   multicmp       §7: multiple-CMP partitioning
//!   nesting        Partial aborts: flat vs. nested (§3.2)
//!   smt            16×2 SMT vs. 32×1 cores, sibling-conflict cost
//!   oltp           Open-loop OLTP driver: latency SLOs by skew/mix point
//!   policy         Adaptive contention management: every policy on
//!                  contended workloads, both backends
//!   all            Everything above except oltp, in order; policy
//!                  contributes only its simulator rows
//! ```
//!
//! `--quick` runs at reduced scale (for smoke tests); `--csv` emits
//! machine-readable CSV for `table2`, `figure4`, and `table3`. Value flags
//! take `--flag VALUE` or `--flag=VALUE`, and a bare `--` is ignored. Any
//! other flag, a flag missing its value, a second subcommand, or a `--jobs`
//! that is not a positive integer is a usage error (exit 2).
//!
//! Every experiment fans its independent simulation runs out over a worker
//! pool (wall-clock STM runs go one at a time). `--jobs N` (or the
//! `LTSE_JOBS` environment variable) sets the pool's worker count; the
//! default is one worker per available core. Results are
//! collected in submission order, so **stdout is byte-identical regardless
//! of worker count**. Wall-clock/throughput lines (inherently
//! nondeterministic) go to stderr; a run that panics or errors is reported
//! per label on stderr and flips the exit code to 1 without killing the
//! other runs of the sweep.
//!
//! `--stats-json PATH` additionally writes the machine-readable telemetry
//! document (`ltse.stats.v1`): one observability-enabled run per sweep
//! experiment with cause-attributed stall/abort/NACK breakdowns that
//! provably reconcile with the aggregate counters. The document is produced
//! sequentially outside the pool, so its bytes are identical across
//! `--jobs` values, and stdout is unchanged.
//!
//! `--backend stm` targets the real-concurrency TL2 STM backend instead of
//! the cycle-level simulator: it runs every Table-2 workload on both
//! engines and prints a side-by-side comparison (simulated cycles vs. real
//! wall clock), and `oltp` runs every skew/mix point on both engines with
//! a final-KV-state cross-check. Because the STM numbers are wall-clock
//! from real OS threads, those tables are *not* byte-deterministic, and the
//! STM runs go one at a time on a single worker. Only `table2`, `oltp`,
//! `policy` (the same both-backend table as without the flag) and `all` run
//! there; any other known subcommand is simulator-only (exit 2).
//! `--stats-json` on the STM
//! branch writes the STM telemetry document: per-cause abort counters
//! (locked/stale/serial-fallback) mapped onto the obs layer with a
//! `reconciled` block. The default (`--backend sim`, or no flag) leaves
//! every other invocation byte-for-byte unchanged.
//!
//! `oltp` (simulator by default) reports open-loop commit-latency SLOs
//! (p50/p99/p999, simulated cycles) and goodput for three Zipfian
//! skew/read-mix points. It is deliberately *not* part of `all`, keeping
//! that stdout byte-identical with earlier releases; its sim output is
//! itself fully deterministic.
//!
//! `policy` runs the adaptive contention-management sweep: every
//! contention policy (including `Adaptive`) over contended workload
//! points — Mp3d plus two OLTP skew/mix points — on **both** backends in
//! one table. Its STM rows are wall-clock and therefore not
//! byte-deterministic, so `all` prints only its simulator rows.

use logtm_se::{MemConfig, SystemBuilder};
use ltse_bench::experiments::ExperimentScale;
use ltse_bench::render;
use ltse_bench::runner::{self, SweepError};
use ltse_bench::*;

fn table1_text() -> String {
    let b = SystemBuilder::paper_default();
    let m: MemConfig = *b.mem_config_view();
    let lat = m.latency;
    format!(
        "Table 1: system model parameters\n\
         Processor cores       {} cores, {}-way SMT ({} thread contexts)\n\
         L1 cache              {} sets x {} ways, 64-byte blocks, {} cycle hit\n\
         L2 cache              {} banks x {} sets x {} ways, 64-byte blocks, {} cycle access\n\
         Memory                {} cycle latency\n\
         L2 directory          full bit-vector sharer list + exclusive pointer, {} cycle latency\n\
         Interconnect          {}x{} grid, {}-cycle links\n\
         Sticky states         {}\n",
        m.n_cores,
        m.smt_per_core,
        m.n_ctxs(),
        m.l1.sets,
        m.l1.ways,
        lat.l1_hit.as_u64(),
        m.n_banks,
        m.l2_bank.sets,
        m.l2_bank.ways,
        lat.l2_access.as_u64(),
        lat.dram.as_u64(),
        lat.directory.as_u64(),
        m.grid_width,
        m.grid_height,
        lat.link.as_u64(),
        m.sticky_enabled,
    )
}

/// Prints a rendered table to stdout, or the sweep's per-run failures to
/// stderr. Returns whether the experiment succeeded.
fn emit<T>(result: Result<Vec<T>, SweepError>, render: impl FnOnce(&[T]) -> String) -> bool {
    match result {
        Ok(rows) => {
            print!("{}", render(&rows));
            true
        }
        Err(e) => {
            eprint!("{e}");
            false
        }
    }
}

/// Drains the runner's timing registry to stderr (timings are wall-clock
/// and therefore excluded from the deterministic stdout).
fn report_timings() {
    for timing in runner::take_timings() {
        eprintln!("[timing] {timing}");
    }
}

/// The parsed command line.
struct Cli {
    quick: bool,
    csv: bool,
    jobs: Option<usize>,
    stats_json: Option<String>,
    backend: ltse_workloads::BackendKind,
    cmd: String,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Every subcommand, in `all`'s order, with `oltp` (not part of `all`) and
/// `all` itself last.
const SUBCOMMANDS: [&str; 17] = [
    "table1",
    "table2",
    "figure4",
    "table3",
    "victimization",
    "table4",
    "sweep",
    "sticky",
    "logfilter",
    "virt",
    "snooping",
    "policy",
    "multicmp",
    "nesting",
    "smt",
    "oltp",
    "all",
];

fn unknown_subcommand(name: &str) -> ! {
    eprintln!("unknown subcommand: {name}");
    eprintln!("known: {}", SUBCOMMANDS.join(" "));
    std::process::exit(2);
}

/// Parses the flags and the one subcommand (default `all`). Anything else —
/// an unknown flag, a missing value, a second subcommand — exits 2.
fn parse_args(args: &[String]) -> Cli {
    let mut cli = Cli {
        quick: false,
        csv: false,
        jobs: None,
        stats_json: None,
        backend: ltse_workloads::BackendKind::Sim,
        cmd: String::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = match arg.strip_prefix("--") {
            Some("") => continue,
            Some(flag) => flag,
            None => {
                if !cli.cmd.is_empty() {
                    usage_error(&format!(
                        "unexpected argument `{arg}` after subcommand `{}`",
                        cli.cmd
                    ));
                }
                cli.cmd = arg.clone();
                continue;
            }
        };
        let (name, inline) = match flag.split_once('=') {
            Some((name, v)) => (name, Some(v)),
            None => (flag, None),
        };
        let mut value = |what: &str| -> String {
            inline
                .map(str::to_string)
                .or_else(|| it.next().cloned())
                .unwrap_or_else(|| usage_error(&format!("--{name} requires {what}")))
        };
        match name {
            "quick" | "csv" if inline.is_some() => usage_error(&format!("--{name} takes no value")),
            "quick" => cli.quick = true,
            "csv" => cli.csv = true,
            "jobs" => {
                let v = value("a positive integer");
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => cli.jobs = Some(n),
                    _ => usage_error(&format!("--jobs requires a positive integer, got `{v}`")),
                }
            }
            "stats-json" => cli.stats_json = Some(value("an output file path")),
            "backend" => {
                let v = value("a value (sim|stm)");
                cli.backend = v
                    .parse()
                    .unwrap_or_else(|e: String| usage_error(&format!("--backend: {e}")));
            }
            _ => usage_error(&format!(
                "unknown flag `--{name}`; known: --quick --csv --jobs --stats-json --backend"
            )),
        }
    }
    if cli.cmd.is_empty() {
        cli.cmd = "all".to_string();
    }
    cli
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Cli {
        quick,
        csv,
        jobs,
        stats_json,
        backend,
        cmd,
    } = parse_args(&args);
    let cmd = cmd.as_str();
    runner::set_jobs(jobs);
    let scale = if quick {
        ExperimentScale::quick()
    } else {
        ExperimentScale::full()
    };

    // The STM backend has three tables, each with both engines side by
    // side: the Table-2 workloads and the OLTP points as sim-vs-stm
    // differential comparisons, and the policy sweep. The STM runs go on one
    // worker (real wall clock), and the branch exits here so the
    // simulator-only stats-json below never engages.
    if backend == ltse_workloads::BackendKind::Stm {
        let mut ok = match cmd {
            "table2" | "all" => emit(stm_compare(&scale), render::render_stm),
            "oltp" => emit(oltp_compare(&scale), render::render_oltp),
            "policy" => emit(policy_sweep(&scale), render::render_policy_sweep),
            other if SUBCOMMANDS.contains(&other) => {
                eprintln!(
                    "subcommand `{other}` is simulator-only; --backend stm supports: table2 oltp policy all"
                );
                std::process::exit(2);
            }
            other => unknown_subcommand(other),
        };
        if let Some(path) = &stats_json {
            match ltse_bench::stats_json::stats_json_stm(&scale) {
                Ok(doc) => {
                    if let Err(e) = std::fs::write(path, &doc) {
                        eprintln!("error: cannot write stats-json to `{path}`: {e}");
                        ok = false;
                    } else {
                        eprintln!("[stats-json] wrote {} bytes to {path}", doc.len());
                    }
                }
                Err(e) => {
                    eprintln!("error: stm stats-json run failed: {e}");
                    ok = false;
                }
            }
        }
        report_timings();
        std::process::exit(if ok { 0 } else { 1 });
    }

    let run_one = |name: &str| -> bool {
        let ok = match name {
            "table1" => {
                print!("{}", table1_text());
                true
            }
            "table2" if csv => emit(table2(&scale), render::csv_table2),
            "table2" => emit(table2(&scale), render::render_table2),
            "figure4" if csv => emit(figure4(&scale), render::csv_figure4),
            "figure4" => emit(figure4(&scale), render::render_figure4),
            "table3" if csv => emit(table3(&scale), render::csv_table3),
            "table3" => emit(table3(&scale), render::render_table3),
            "victimization" => emit(victimization(&scale), render::render_victimization),
            "table4" => {
                print!(
                    "{}",
                    logtm_se::substrates::tm::virt_compare::render_table4()
                );
                true
            }
            "sweep" => emit(signature_sweep(&scale), render::render_sweep),
            "sticky" => emit(sticky_ablation(&scale), render::render_sticky),
            "logfilter" => emit(log_filter_ablation(&scale), render::render_log_filter),
            "virt" => emit(virtualization_overhead(&scale), render::render_virt),
            "snooping" => emit(snooping_comparison(&scale), render::render_snooping),
            "multicmp" => emit(multi_cmp_comparison(&scale), render::render_multi_cmp),
            "nesting" => emit(nesting_ablation(&scale), render::render_nesting),
            "smt" => emit(smt_comparison(&scale), render::render_smt),
            "oltp" => emit(oltp_experiment(&scale), render::render_oltp),
            // Inside `all`, only the deterministic simulator rows.
            "policy" if cmd == "all" => emit(policy_sweep_sim(&scale), render::render_policy_sweep),
            "policy" => emit(policy_sweep(&scale), render::render_policy_sweep),
            other => unknown_subcommand(other),
        };
        report_timings();
        ok
    };

    let mut all_ok = true;
    if cmd == "all" {
        for name in SUBCOMMANDS.iter().take_while(|&&name| name != "oltp") {
            all_ok &= run_one(name);
            println!();
        }
    } else {
        all_ok = run_one(cmd);
    }
    // Telemetry export: one observability-enabled run per experiment,
    // executed sequentially outside the pool, so the emitted bytes are
    // identical whatever `--jobs` says. Written to the given file; stdout
    // stays byte-identical to a flag-less invocation.
    if let Some(path) = &stats_json {
        match ltse_bench::stats_json::stats_json(&scale) {
            Ok(doc) => {
                if let Err(e) = std::fs::write(path, &doc) {
                    eprintln!("error: cannot write stats-json to `{path}`: {e}");
                    all_ok = false;
                } else {
                    eprintln!("[stats-json] wrote {} bytes to {path}", doc.len());
                }
            }
            Err(e) => {
                eprintln!("error: stats-json run failed: {e}");
                all_ok = false;
            }
        }
    }
    if !all_ok {
        std::process::exit(1);
    }
}
