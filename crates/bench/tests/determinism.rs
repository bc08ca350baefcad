//! The tentpole guarantees, tested end to end at the experiment level:
//!
//! 1. **Determinism**: an experiment's rendered output is byte-identical
//!    whether its sweep ran on 1 worker or 4.
//! 2. **Panic isolation**: one diverging run surfaces as a labelled
//!    failure; every other run of the sweep still completes, on one worker
//!    as on several.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ltse_bench::experiments::ExperimentScale;
use ltse_bench::runner::{self, sweep, RunSpec};
use ltse_bench::{figure4, policy_sweep_sim, render, table3};

/// `runner::set_jobs` is process-global, so tests that change it must not
/// interleave.
static JOBS_GUARD: Mutex<()> = Mutex::new(());

fn tiny() -> ExperimentScale {
    ExperimentScale {
        threads: 4,
        units_per_thread: 2,
        seeds: 2,
        base_seed: 11,
        warmup_units: 0,
    }
}

#[test]
fn figure4_is_byte_identical_across_worker_counts() {
    let _guard = JOBS_GUARD.lock().unwrap();
    let scale = tiny();

    runner::set_jobs(Some(1));
    let serial = render::render_figure4(&figure4(&scale).expect("1-worker sweep"));

    runner::set_jobs(Some(4));
    let parallel = render::render_figure4(&figure4(&scale).expect("4-worker sweep"));

    runner::set_jobs(None);
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "worker count leaked into the results");
}

#[test]
fn table3_rows_are_identical_across_worker_counts() {
    let _guard = JOBS_GUARD.lock().unwrap();
    let scale = tiny();

    runner::set_jobs(Some(1));
    let one = table3(&scale).expect("1-worker sweep");
    runner::set_jobs(Some(3));
    let three = table3(&scale).expect("3-worker sweep");
    runner::set_jobs(None);

    assert_eq!(one.len(), three.len());
    for (a, b) in one.iter().zip(&three) {
        assert_eq!(a.benchmark, b.benchmark);
        assert_eq!(a.signature, b.signature);
        assert_eq!(a.transactions, b.transactions);
        assert_eq!(a.aborts, b.aborts);
        assert_eq!(a.stalls, b.stalls);
        assert_eq!(a.false_positive_pct, b.false_positive_pct);
    }
}

#[test]
fn policy_sweep_sim_rows_are_byte_identical_across_worker_counts() {
    let _guard = JOBS_GUARD.lock().unwrap();
    let scale = tiny();

    runner::set_jobs(Some(1));
    let serial = render::render_policy_sweep(&policy_sweep_sim(&scale).expect("1-worker sweep"));

    runner::set_jobs(Some(4));
    let parallel = render::render_policy_sweep(&policy_sweep_sim(&scale).expect("4-worker sweep"));

    runner::set_jobs(None);
    assert_eq!(
        serial.lines().count(),
        2 + 15,
        "title, header, 3 points x 5 policies"
    );
    assert_eq!(serial, parallel, "worker count leaked into the results");
}

#[test]
fn a_panicking_run_fails_its_sweep_without_killing_the_others() {
    let _guard = JOBS_GUARD.lock().unwrap();
    for jobs in [1, 4] {
        let mut specs: Vec<RunSpec<Result<u64, logtm_se::RunError>>> = (0..6u64)
            .map(|i| RunSpec::new(format!("stable/{i}"), move || Ok(i)))
            .collect();
        specs.insert(
            2,
            RunSpec::new("diverging-config", || {
                panic!("simulated livelock at cycle 5000000")
            }),
        );
        let err = sweep("panic_isolation_test", jobs, specs).unwrap_err();

        // Exactly the diverging run failed, by name, with its panic message.
        assert_eq!(err.runs, 7, "jobs={jobs}");
        assert_eq!(err.failures.len(), 1, "jobs={jobs}");
        assert_eq!(err.failures[0].label, "diverging-config");
        assert!(err.failures[0].reason.contains("simulated livelock"));
    }
    runner::take_timings();
}

#[test]
fn every_sibling_of_a_panicking_run_still_completes() {
    let _guard = JOBS_GUARD.lock().unwrap();
    for jobs in [1, 2] {
        // The panicking run comes first, so a sweep that stopped at it
        // would leave every sibling unrun.
        let completed = Arc::new(AtomicUsize::new(0));
        let mut specs: Vec<RunSpec<Result<u64, String>>> =
            vec![RunSpec::new("boom", || panic!("kaboom"))];
        for i in 0..5u64 {
            let completed = Arc::clone(&completed);
            specs.push(RunSpec::new(format!("ok/{i}"), move || {
                completed.fetch_add(1, Ordering::Relaxed);
                Ok(i * i)
            }));
        }
        let err = sweep("panic_isolation_siblings_test", jobs, specs).unwrap_err();

        assert_eq!(completed.load(Ordering::Relaxed), 5, "jobs={jobs}");
        assert_eq!(err.failures.len(), 1, "jobs={jobs}");
        assert_eq!(err.failures[0].label, "boom");
    }
    runner::take_timings();
}
