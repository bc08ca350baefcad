//! A parallel, deterministic, index-ordered map.
//!
//! Every table and figure of the reproduction is a sweep of independent
//! full-system simulations — exactly the embarrassingly-parallel shape the
//! paper's GEMS evaluation had. The experiment sweeps (`ltse_bench::runner`)
//! and the schedule explorer's waves fan out through the same
//! [`par_map_indexed`] (the explorer's tail streams use the scoped-worker
//! spawn under it, with their own claim loop):
//!
//! * **Deterministic**: results come back in index order regardless of
//!   worker count or scheduling, so a sweep's output is byte-identical
//!   whether it ran on 1 worker or 256.
//! * **Panic-contained**: on threads each item runs under
//!   [`std::panic::catch_unwind`], so every other item finishes before the
//!   lowest-index panic is re-raised; callers that want per-item isolation
//!   catch inside the mapped function.
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
//! use ltse_sim::parallel::par_map_indexed;
//!
//! let squares = par_map_indexed(4, 2, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9]); // index order, always
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

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
/// per-item isolation catch inside `f`, as the experiment sweeps do.
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
        .map(
            |slot| match slot.expect("every index claimed exactly once") {
                Ok(v) => v,
                Err(payload) => resume_unwind(payload),
            },
        )
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_indexed_orders_and_balances() {
        for jobs in [1, 2, 5, 16] {
            let got = par_map_indexed(33, jobs, |i| i * 3);
            assert_eq!(
                got,
                (0..33).map(|i| i * 3).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
        assert!(par_map_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn effective_jobs_priority() {
        // Explicit beats everything and is honored as given — even above the
        // default-path clamp.
        assert_eq!(effective_jobs(Some(3)), 3);
        assert_eq!(effective_jobs(Some(0)), 1, "clamped to at least 1");
        assert_eq!(
            effective_jobs(Some(MAX_DEFAULT_JOBS + 9)),
            MAX_DEFAULT_JOBS + 9
        );
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
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("item 7 diverged"),
            "lowest index wins"
        );
        assert_eq!(ran.load(Ordering::Relaxed), 40, "every index ran first");
    }
}
