//! The experiment runner: a parallel, deterministic, panic-isolated sweep
//! over [`ltse_sim::parallel::par_map_indexed`].
//!
//! Every experiment builds a list of labelled [`RunSpec`]s and hands it to
//! [`sweep`], the one way an experiment runs its runs. The caller says how
//! many workers to use: [`jobs`] (the pool) for simulator runs, and 1 for
//! wall-clock STM runs, which must not share the host with sibling runs.
//! Results come back in submission order — so rendered tables are
//! byte-identical regardless of worker count — and any run that panics or
//! returns `Err` surfaces as one entry of a [`SweepError`] instead of
//! killing the sweep: each run executes under
//! [`std::panic::catch_unwind`]. A run whose errors are data (a policy that
//! livelocks into the cycle watchdog) returns `Ok`.
//!
//! Each sweep also records an [`ExpTiming`] (wall clock, runs/sec, mean
//! per-run time) into a process-wide registry the `repro` binary drains via
//! [`take_timings`] to print per-experiment throughput lines.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ltse_sim::parallel::{effective_jobs, par_map_indexed};

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

/// One schedulable run: a label (for error reporting) plus the closure that
/// performs the run and returns its result.
pub struct RunSpec<T> {
    /// Human-readable identity of the run, e.g. `"figure4/Mp3d/BS/seed=2"`.
    pub label: String,
    job: Box<dyn FnOnce() -> T + Send>,
}

impl<T> RunSpec<T> {
    /// Wraps a closure as a labelled run.
    pub fn new(label: impl Into<String>, job: impl FnOnce() -> T + Send + 'static) -> Self {
        RunSpec {
            label: label.into(),
            job: Box::new(job),
        }
    }
}

impl<T> std::fmt::Debug for RunSpec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunSpec")
            .field("label", &self.label)
            .finish()
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

/// The panic payload as text, when it was a `&str` or `String`.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `specs` on `jobs` workers (never more than there are runs). Both
/// panics and `Err`s count as failures. Returns the `R`s in submission
/// order, or a [`SweepError`] naming every failed run.
pub fn sweep<R, E>(
    experiment: &'static str,
    jobs: usize,
    specs: Vec<RunSpec<Result<R, E>>>,
) -> Result<Vec<R>, SweepError>
where
    R: Send,
    E: std::fmt::Display + Send,
{
    let runs = specs.len();
    let jobs = jobs.max(1).min(runs.max(1));
    let started = Instant::now();

    // A job is `FnOnce + Send` but not `Sync`: each worker takes the one it
    // claimed out of its slot.
    let slots: Vec<_> = specs.into_iter().map(|s| Mutex::new(Some(s))).collect();
    let outcomes = par_map_indexed(runs, jobs, |index| {
        let RunSpec { label, job } = slots[index]
            .lock()
            .expect("slot lock")
            .take()
            .expect("each slot claimed exactly once");
        let run_started = Instant::now();
        let reason = match catch_unwind(AssertUnwindSafe(job)) {
            Ok(Ok(row)) => return (Ok(row), run_started.elapsed()),
            Ok(Err(e)) => e.to_string(),
            Err(payload) => format!("panicked: {}", panic_message(payload)),
        };
        (Err(FailedRun { label, reason }), run_started.elapsed())
    });
    let wall = started.elapsed();

    let mut rows = Vec::with_capacity(runs);
    let mut failures = Vec::new();
    let mut busy = Duration::ZERO;
    for (result, took) in outcomes {
        busy += took;
        match result {
            Ok(row) => rows.push(row),
            Err(failure) => failures.push(failure),
        }
    }
    let secs = wall.as_secs_f64();
    let timing = ExpTiming {
        experiment,
        wall,
        runs,
        failed: failures.len(),
        jobs,
        runs_per_sec: if secs > 0.0 { runs as f64 / secs } else { 0.0 },
        mean_run_ms: busy.as_secs_f64() * 1e3 / runs.max(1) as f64,
    };
    TIMINGS.lock().expect("timing registry lock").push(timing);
    if !failures.is_empty() {
        return Err(SweepError {
            experiment,
            runs,
            failures,
        });
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
        let t = timings
            .iter()
            .find(|t| t.experiment == "test_order")
            .unwrap();
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

    fn squares(n: u64) -> Vec<RunSpec<Result<u64, String>>> {
        (0..n)
            .map(|i| RunSpec::new(format!("sq/{i}"), move || Ok(i * i)))
            .collect()
    }

    /// The timing the last sweep of `experiment` recorded.
    fn timing_of(experiment: &str) -> ExpTiming {
        take_timings()
            .into_iter()
            .rfind(|t| t.experiment == experiment)
            .expect("the sweep recorded its timing")
    }

    #[test]
    fn results_arrive_in_submission_order() {
        let _guard = REGISTRY_GUARD.lock().unwrap();
        for jobs in [1, 2, 4, 7] {
            let rows = sweep("test_submission_order", jobs, squares(20)).expect("all ok");
            assert_eq!(
                rows,
                (0..20).map(|i| i * i).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
        take_timings();
    }

    #[test]
    fn worker_counts_give_identical_results() {
        let _guard = REGISTRY_GUARD.lock().unwrap();
        let one = sweep("test_identical", 1, squares(16)).expect("all ok");
        let four = sweep("test_identical", 4, squares(16)).expect("all ok");
        assert_eq!(one, four);
        take_timings();
    }

    #[test]
    fn a_panicking_job_is_isolated() {
        let _guard = REGISTRY_GUARD.lock().unwrap();
        static COMPLETED: AtomicUsize = AtomicUsize::new(0);
        let mut specs: Vec<RunSpec<Result<u64, String>>> = (0..6u64)
            .map(|i| {
                RunSpec::new(format!("sq/{i}"), move || {
                    COMPLETED.fetch_add(1, Ordering::Relaxed);
                    Ok(i * i)
                })
            })
            .collect();
        specs.insert(
            3,
            RunSpec::new("diverging-config", || panic!("livelocked at cycle 5000000")),
        );
        let err = sweep("test_isolated", 3, specs).unwrap_err();
        assert_eq!(err.runs, 7);
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].label, "diverging-config");
        assert!(
            err.failures[0].reason.contains("livelocked"),
            "{}",
            err.failures[0].reason
        );
        // Every other run still completed.
        assert_eq!(COMPLETED.load(Ordering::Relaxed), 6);
        assert_eq!(timing_of("test_isolated").failed, 1);
    }

    #[test]
    fn empty_pool_is_fine() {
        let _guard = REGISTRY_GUARD.lock().unwrap();
        let rows = sweep("test_empty", 4, squares(0)).expect("nothing fails");
        assert!(rows.is_empty());
        let t = timing_of("test_empty");
        assert_eq!((t.runs, t.failed, t.jobs), (0, 0, 1));
        assert_eq!(t.mean_run_ms, 0.0);
    }

    #[test]
    fn timing_summary_covers_every_run() {
        let _guard = REGISTRY_GUARD.lock().unwrap();
        sweep("test_timing", 3, squares(9)).expect("all ok");
        let t = timing_of("test_timing");
        assert_eq!(t.runs, 9);
        assert!(t.runs_per_sec > 0.0);
        assert!(t.mean_run_ms >= 0.0);
    }

    #[test]
    fn more_workers_than_jobs_is_clamped() {
        let _guard = REGISTRY_GUARD.lock().unwrap();
        let rows = sweep("test_clamped", 64, squares(2)).expect("all ok");
        assert_eq!(rows.len(), 2);
        assert_eq!(timing_of("test_clamped").jobs, 2);
    }

    #[test]
    fn set_jobs_round_trips() {
        set_jobs(Some(2));
        assert_eq!(jobs(), 2);
        set_jobs(None);
        assert!(jobs() >= 1);
    }
}
