//! Experiment-side front end over [`ltse_sim::parallel`].
//!
//! Every experiment builds a list of labelled
//! [`RunSpec`](ltse_sim::parallel::RunSpec)s and hands it to [`sweep`], the
//! one way an experiment runs its runs. The caller says how many workers to
//! use: [`jobs`] (the pool) for simulator runs, and 1 for wall-clock STM
//! runs, which must not share the host with sibling runs. Results come back
//! in submission order — so rendered tables are byte-identical regardless
//! of worker count — and any run that panics or returns `Err` surfaces as
//! one entry of a [`SweepError`] instead of killing the sweep. A run whose
//! errors are data (a policy that livelocks into the cycle watchdog) returns
//! `Ok`.
//!
//! Each sweep also records an [`ExpTiming`] (wall clock, runs/sec, mean
//! per-run time) into a process-wide registry the `repro` binary drains via
//! [`take_timings`] to print per-experiment throughput lines.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use ltse_sim::parallel::{effective_jobs, run_pool, PoolOutput, RunSpec};

/// The process-wide worker-count override. 0 means "unset": fall back to
/// `LTSE_JOBS`, then [`std::thread::available_parallelism`].
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// The timing registry, appended to by every sweep and drained by `repro`.
static TIMINGS: Mutex<Vec<ExpTiming>> = Mutex::new(Vec::new());

/// Sets the pool's worker count, which every subsequent simulator sweep
/// uses (`None` returns to the `LTSE_JOBS`/`available_parallelism`
/// default). The `repro --jobs N` flag lands here.
pub fn set_jobs(jobs: Option<usize>) {
    JOBS.store(jobs.unwrap_or(0), Ordering::Relaxed);
}

/// The pool's worker count: what simulator sweeps pass to [`sweep`].
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => effective_jobs(None),
        n => effective_jobs(Some(n)),
    }
}

/// Wall-clock accounting for one experiment's sweep.
#[derive(Debug, Clone)]
pub struct ExpTiming {
    /// Experiment name, e.g. `"figure4"`.
    pub experiment: &'static str,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
    /// Number of simulation runs in the sweep.
    pub runs: usize,
    /// Runs that failed (panicked or returned an error).
    pub failed: usize,
    /// Workers used.
    pub jobs: usize,
    /// Completed runs per wall-clock second.
    pub runs_per_sec: f64,
    /// Mean per-run wall-clock time in milliseconds.
    pub mean_run_ms: f64,
}

impl std::fmt::Display for ExpTiming {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} runs in {:.2}s on {} worker{} ({:.1} runs/sec, {:.1} ms/run mean)",
            self.experiment,
            self.runs,
            self.wall.as_secs_f64(),
            self.jobs,
            if self.jobs == 1 { "" } else { "s" },
            self.runs_per_sec,
            self.mean_run_ms,
        )?;
        if self.failed > 0 {
            write!(f, " — {} FAILED", self.failed)?;
        }
        Ok(())
    }
}

/// Drains every timing recorded since the last call, in sweep order.
pub fn take_timings() -> Vec<ExpTiming> {
    std::mem::take(&mut TIMINGS.lock().expect("timing registry lock"))
}

/// One failed run inside a sweep.
#[derive(Debug, Clone)]
pub struct FailedRun {
    /// The run's label, e.g. `"figure4/mp3d/BS_2kb/seed=2"`.
    pub label: String,
    /// What went wrong: the panic message or the simulator error.
    pub reason: String,
}

/// An experiment whose sweep had at least one failing run. Successful runs
/// are discarded — a partially-failed table would silently mis-summarize,
/// so the caller reports the failures instead.
#[derive(Debug)]
pub struct SweepError {
    /// Experiment name.
    pub experiment: &'static str,
    /// Total runs attempted.
    pub runs: usize,
    /// Every failing run, in submission order.
    pub failures: Vec<FailedRun>,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}: {}/{} runs failed:",
            self.experiment,
            self.failures.len(),
            self.runs
        )?;
        for failure in &self.failures {
            writeln!(f, "  [{}] {}", failure.label, failure.reason)?;
        }
        Ok(())
    }
}

impl std::error::Error for SweepError {}

fn record_timing<T>(experiment: &'static str, out: &PoolOutput<T>, failed: usize) {
    let timing = ExpTiming {
        experiment,
        wall: out.wall,
        runs: out.results.len(),
        failed,
        jobs: out.jobs,
        runs_per_sec: out.runs_per_sec(),
        mean_run_ms: out.per_run_nanos.mean().unwrap_or(0.0) / 1e6,
    };
    TIMINGS.lock().expect("timing registry lock").push(timing);
}

/// Runs `specs` on `jobs` workers. Both panics and `Err`s count as
/// failures. Returns the `R`s in submission order, or a [`SweepError`]
/// naming every failed run.
pub fn sweep<R, E>(
    experiment: &'static str,
    jobs: usize,
    specs: Vec<RunSpec<Result<R, E>>>,
) -> Result<Vec<R>, SweepError>
where
    R: Send,
    E: std::fmt::Display + Send,
{
    let labels: Vec<String> = specs.iter().map(|s| s.label.clone()).collect();
    let out = run_pool(specs, jobs);
    let mut rows = Vec::with_capacity(out.results.len());
    let mut failures = Vec::new();
    let runs = out.results.len();
    for (result, label) in out.results.iter().zip(&labels) {
        match result {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => failures.push(FailedRun {
                label: label.clone(),
                reason: e.to_string(),
            }),
            Err(panic) => failures.push(FailedRun {
                label: label.clone(),
                reason: format!("panicked: {}", panic.message),
            }),
        }
    }
    record_timing(experiment, &out, failures.len());
    if !failures.is_empty() {
        return Err(SweepError {
            experiment,
            runs,
            failures,
        });
    }
    for result in out.results {
        match result {
            Ok(Ok(r)) => rows.push(r),
            _ => unreachable!("failures were collected above"),
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The timing registry is process-global, so tests that record or drain
    /// it must not interleave.
    static REGISTRY_GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn sweep_collects_rows_in_order() {
        let _guard = REGISTRY_GUARD.lock().unwrap();
        let specs = (0..8u64)
            .map(|i| RunSpec::new(format!("ok/{i}"), move || Ok::<u64, String>(i * 10)))
            .collect();
        let rows = sweep("test_order", 3, specs).expect("all ok");
        assert_eq!(rows, (0..8).map(|i| i * 10).collect::<Vec<_>>());
        let timings = take_timings();
        let t = timings.iter().find(|t| t.experiment == "test_order").unwrap();
        assert_eq!(t.runs, 8);
        assert_eq!(t.failed, 0);
    }

    #[test]
    fn sweep_surfaces_errs_and_panics_with_labels() {
        let _guard = REGISTRY_GUARD.lock().unwrap();
        let mut specs: Vec<RunSpec<Result<u64, String>>> = vec![
            RunSpec::new("good", || Ok(1)),
            RunSpec::new("soft-fail", || Err("cycle limit".to_string())),
        ];
        specs.push(RunSpec::new("hard-fail", || panic!("boom")));
        let err = sweep("test_failures", 2, specs).unwrap_err();
        assert_eq!(err.runs, 3);
        assert_eq!(err.failures.len(), 2);
        assert_eq!(err.failures[0].label, "soft-fail");
        assert!(err.failures[0].reason.contains("cycle limit"));
        assert_eq!(err.failures[1].label, "hard-fail");
        assert!(err.failures[1].reason.contains("boom"));
        let shown = err.to_string();
        assert!(shown.contains("2/3 runs failed"), "{shown}");
        take_timings();
    }

    #[test]
    fn errors_a_job_returns_as_data_are_rows() {
        let _guard = REGISTRY_GUARD.lock().unwrap();
        // A run whose error is a result (a livelock into the cycle
        // watchdog) returns it inside `Ok`; only panics fail the sweep.
        let specs: Vec<RunSpec<Result<Result<u64, String>, String>>> = vec![
            RunSpec::new("a", || Ok(Ok(1))),
            RunSpec::new("b", || Ok(Err("handled internally".to_string()))),
        ];
        let rows = sweep("test_errors_as_data", 1, specs).expect("errors are data here");
        assert_eq!(rows, vec![Ok(1), Err("handled internally".to_string())]);
        take_timings();
    }

    #[test]
    fn set_jobs_round_trips() {
        set_jobs(Some(2));
        assert_eq!(jobs(), 2);
        set_jobs(None);
        assert!(jobs() >= 1);
    }
}
