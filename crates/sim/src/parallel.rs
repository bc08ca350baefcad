//! A parallel, deterministic, panic-isolated experiment runner.
//!
//! Every table and figure of the reproduction is a sweep of independent
//! full-system simulations — exactly the embarrassingly-parallel shape the
//! paper's GEMS evaluation had. The sweeps fan out through [`run_pool`], and
//! the schedule explorer fans out each of its waves through the same
//! [`par_map_indexed`] (its tail streams use the scoped-worker spawn under
//! it, with their own claim loop):
//!
//! * **Deterministic**: results come back in submission order regardless of
//!   worker count or scheduling, so a sweep's output is byte-identical
//!   whether it ran on 1 worker or 256.
//! * **Panic-isolated**: each item runs under [`std::panic::catch_unwind`].
//!   [`run_pool`] turns a panic into a labelled [`RunError`] in that run's
//!   result slot instead of killing the whole sweep; [`par_map_indexed`]
//!   lets every other item finish before re-raising the lowest-index panic.
//! * **Dependency-free**: each call spawns its workers under
//!   [`std::thread::scope`]; they claim indices from one shared atomic
//!   counter, and results merge back **by index**, which is what keeps
//!   output independent of which worker ran what.
//!
//! Worker count resolves, in priority order: an explicit argument, the
//! `LTSE_JOBS` environment variable, then
//! [`std::thread::available_parallelism`].
//!
//! ```
//! use ltse_sim::parallel::{run_pool, RunSpec};
//!
//! let specs = (0..4u64)
//!     .map(|i| RunSpec::new(format!("square/{i}"), move || i * i))
//!     .collect();
//! let out = run_pool(specs, 2);
//! let squares: Vec<u64> = out.results.into_iter().map(|r| r.unwrap()).collect();
//! assert_eq!(squares, vec![0, 1, 4, 9]); // submission order, always
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::stats::Summary;

/// One schedulable unit of work: a label (for error reporting and progress)
/// plus the closure that performs the run and returns its result.
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
        f.debug_struct("RunSpec").field("label", &self.label).finish()
    }
}

/// A structured record of a run that panicked instead of returning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunError {
    /// Submission index of the failed run.
    pub index: usize,
    /// Label of the failed run.
    pub label: String,
    /// The panic payload, stringified when it was a `&str`/`String`
    /// (`"<non-string panic payload>"` otherwise).
    pub message: String,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "run #{} [{}] panicked: {}", self.index, self.label, self.message)
    }
}

impl std::error::Error for RunError {}

/// Everything a pool invocation produced.
#[derive(Debug)]
pub struct PoolOutput<T> {
    /// Per-run results **in submission order**: `Ok(T)` for runs that
    /// returned, `Err(RunError)` for runs that panicked.
    pub results: Vec<Result<T, RunError>>,
    /// Wall-clock time of the whole pool invocation.
    pub wall: Duration,
    /// Workers actually used.
    pub jobs: usize,
    /// Per-run wall-clock times in nanoseconds, merged across workers.
    pub per_run_nanos: Summary,
}

impl<T> PoolOutput<T> {
    /// Completed runs per wall-clock second.
    pub fn runs_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.results.len() as f64 / secs
    }

    /// Number of runs that panicked.
    pub fn failed(&self) -> usize {
        self.results.iter().filter(|r| r.is_err()).count()
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Upper bound on the *detected* default worker count. 128/256-core sweeps
/// legitimately want wide fan-out, so the clamp only guards against a
/// miscounting container runtime reporting absurd widths. An explicit
/// `--jobs`/`LTSE_JOBS` request is honored as given, above or below this
/// bound — that is the documented override for hosts that really do have
/// more cores.
pub const MAX_DEFAULT_JOBS: usize = 256;

/// Resolves the worker count: `explicit` if given, else the `LTSE_JOBS`
/// environment variable, else [`std::thread::available_parallelism`] clamped
/// to [`MAX_DEFAULT_JOBS`]. Always at least 1.
pub fn effective_jobs(explicit: Option<usize>) -> usize {
    explicit
        .or_else(|| {
            std::env::var("LTSE_JOBS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get().min(MAX_DEFAULT_JOBS))
                .unwrap_or(1)
        })
        .max(1)
}

/// Runs `f(0..n)` on `jobs` threads and returns the results in index order.
///
/// The calling thread and `jobs - 1` scoped helpers claim indices from one
/// shared counter, so a slow item never holds up the rest of the range.
/// With `jobs <= 1` or `n <= 1` everything runs inline on the calling
/// thread, at sequential cost.
///
/// Panic semantics: the caller sees the panic of the lowest panicking
/// index, whichever worker ran it. On threads each item runs under
/// `catch_unwind`, so every other index still runs before that panic is
/// resumed; inline, the first panic propagates at once. Callers that want
/// per-item isolation catch inside `f`, as [`run_pool`] does.
pub fn par_map_indexed<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    // The counter only hands out indices; results reach the caller through
    // the scope's joins, so `Relaxed` claims suffice.
    let next = AtomicUsize::new(0);
    let parts = on_workers(jobs.min(n), || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, catch_unwind(AssertUnwindSafe(|| f(i)))));
        }
    });

    let mut slots: Vec<Option<std::thread::Result<T>>> = (0..n).map(|_| None).collect();
    for (i, result) in parts.into_iter().flatten() {
        slots[i] = Some(result);
    }
    slots
        .into_iter()
        .map(|slot| match slot.expect("every index claimed exactly once") {
            Ok(v) => v,
            Err(payload) => resume_unwind(payload),
        })
        .collect()
}

/// Runs `work` on the calling thread and on `jobs - 1` scoped helpers (only
/// on the calling thread when `jobs <= 1`) and returns what each call
/// returned, the calling thread's first. `work` must not panic: callers
/// catch inside it.
pub(crate) fn on_workers<T, W>(jobs: usize, work: W) -> Vec<T>
where
    T: Send,
    W: Fn() -> T + Sync,
{
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..jobs).map(|_| scope.spawn(&work)).collect();
        let mut parts = vec![work()];
        parts.extend(
            helpers
                .into_iter()
                .map(|h| h.join().expect("work runs under catch_unwind")),
        );
        parts
    })
}

/// Executes `specs` on `jobs` workers and returns their results in
/// submission order. A run that panics becomes a [`RunError`] in its slot;
/// every other run still completes.
pub fn run_pool<T: Send>(specs: Vec<RunSpec<T>>, jobs: usize) -> PoolOutput<T> {
    let n = specs.len();
    let jobs = jobs.max(1).min(n.max(1));
    let started = Instant::now();

    // A job is `FnOnce + Send` but not `Sync`: each worker takes the one it
    // claimed out of its slot.
    let slots: Vec<Mutex<Option<RunSpec<T>>>> =
        specs.into_iter().map(|s| Mutex::new(Some(s))).collect();

    let outcomes = par_map_indexed(n, jobs, |index| {
        let RunSpec { label, job } = slots[index]
            .lock()
            .expect("slot lock")
            .take()
            .expect("each slot claimed exactly once");
        let run_started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(job)).map_err(|payload| RunError {
            index,
            label,
            message: panic_message(payload),
        });
        (result, run_started.elapsed().as_nanos() as u64)
    });

    let mut per_run_nanos = Summary::new();
    let mut results = Vec::with_capacity(n);
    for (result, nanos) in outcomes {
        per_run_nanos.record(nanos);
        results.push(result);
    }

    PoolOutput {
        results,
        wall: started.elapsed(),
        jobs,
        per_run_nanos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(n: u64) -> Vec<RunSpec<u64>> {
        (0..n)
            .map(|i| RunSpec::new(format!("sq/{i}"), move || i * i))
            .collect()
    }

    #[test]
    fn results_arrive_in_submission_order() {
        for jobs in [1, 2, 4, 7] {
            let out = run_pool(squares(20), jobs);
            let vals: Vec<u64> = out.results.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(vals, (0..20).map(|i| i * i).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn worker_counts_give_identical_results() {
        let one: Vec<_> = run_pool(squares(16), 1)
            .results
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let four: Vec<_> = run_pool(squares(16), 4)
            .results
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(one, four);
    }

    #[test]
    fn a_panicking_job_is_isolated() {
        let mut specs = squares(6);
        specs.insert(
            3,
            RunSpec::new("diverging-config", || -> u64 { panic!("livelocked at cycle 5000000") }),
        );
        let out = run_pool(specs, 3);
        assert_eq!(out.results.len(), 7);
        assert_eq!(out.failed(), 1);
        let err = out.results[3].as_ref().unwrap_err();
        assert_eq!(err.index, 3);
        assert_eq!(err.label, "diverging-config");
        assert!(err.message.contains("livelocked"), "{}", err.message);
        // Every other run still completed.
        for (i, r) in out.results.iter().enumerate() {
            if i != 3 {
                assert!(r.is_ok(), "run {i} must survive the panic");
            }
        }
    }

    #[test]
    fn empty_pool_is_fine() {
        let out = run_pool(Vec::<RunSpec<u8>>::new(), 4);
        assert!(out.results.is_empty());
        assert_eq!(out.failed(), 0);
        assert_eq!(out.per_run_nanos.count(), 0);
    }

    #[test]
    fn timing_summary_covers_every_run() {
        let out = run_pool(squares(9), 3);
        assert_eq!(out.per_run_nanos.count(), 9);
        assert!(out.runs_per_sec() > 0.0);
    }

    #[test]
    fn more_workers_than_jobs_is_clamped() {
        let out = run_pool(squares(2), 64);
        assert_eq!(out.jobs, 2);
        assert_eq!(out.results.len(), 2);
    }

    #[test]
    fn par_map_indexed_orders_and_balances() {
        for jobs in [1, 2, 5, 16] {
            let got = par_map_indexed(33, jobs, |i| i * 3);
            assert_eq!(got, (0..33).map(|i| i * 3).collect::<Vec<_>>(), "jobs={jobs}");
        }
        assert!(par_map_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn effective_jobs_priority() {
        // Explicit beats everything and is honored as given — even above the
        // default-path clamp.
        assert_eq!(effective_jobs(Some(3)), 3);
        assert_eq!(effective_jobs(Some(0)), 1, "clamped to at least 1");
        assert_eq!(effective_jobs(Some(MAX_DEFAULT_JOBS + 9)), MAX_DEFAULT_JOBS + 9);
        // Fallback is within [1, MAX_DEFAULT_JOBS] (env-var path is covered
        // by the integration smoke in scripts/verify.sh; mutating the
        // process environment from a unit test would race other tests).
        let detected = effective_jobs(None);
        assert!((1..=MAX_DEFAULT_JOBS).contains(&detected));
    }

    #[test]
    fn par_map_indexed_propagates_lowest_index_panic() {
        let ran = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_map_indexed(40, 3, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 7 || i == 31 {
                    panic!("item {i} diverged");
                }
                i
            })
        }));
        let payload = caught.expect_err("map must panic");
        assert_eq!(panic_message(payload), "item 7 diverged", "lowest index wins");
        assert_eq!(ran.load(Ordering::Relaxed), 40, "every index ran first");
    }
}
