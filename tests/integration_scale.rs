//! Scale-out integration tests: the 64-context ceiling is gone.
//!
//! The paper's pitch is that signatures + logs decouple TM state from
//! caches so the design scales with core count; these tests run the
//! `MemConfig::scaled_cmp` configurations (64–256 cores, one L2 bank per
//! core, square mesh) end to end, with the differential serializability
//! oracle on, so "supports 256 contexts" means "256 transactional contexts
//! produce serializable histories", not merely "the config validates".
//!
//! `LTSE_SCALE_UNITS` overrides the per-thread work (default 1 — these are
//! smoke-sized; `scripts/verify.sh` runs them in release as the scale
//! smoke).

use logtm_se::{MemConfig, System, SystemBuilder, MAX_CORES};
use ltse_workloads::{Benchmark, SyncMode};

fn units() -> u64 {
    std::env::var("LTSE_SCALE_UNITS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

fn scaled_system(n_cores: u16, smt: u8, checked: bool) -> System {
    let mem = MemConfig::scaled_cmp(n_cores, smt);
    let n_ctxs = mem.n_ctxs();
    let mut s = SystemBuilder::paper_default()
        .mem_config(mem)
        .seed(0x5CA1E)
        .check_serializability(checked)
        .build();
    for p in Benchmark::Mp3d.programs(SyncMode::Tm, n_ctxs, units()) {
        s.add_thread(p);
    }
    s
}

fn run_checked(n_cores: u16, smt: u8) {
    let mut s = scaled_system(n_cores, smt, true);
    let r = s
        .run()
        .unwrap_or_else(|e| panic!("{n_cores}x{smt} run failed: {e}"));
    let errs = s.finish_checks();
    assert!(
        errs.is_empty(),
        "{n_cores}x{smt}: serializability violations: {}",
        errs.join("; ")
    );
    assert!(
        r.tm.commits > 0,
        "{n_cores}x{smt}: no transactions committed"
    );
    assert_eq!(
        r.threads_completed,
        n_cores as usize * smt as usize,
        "{n_cores}x{smt}: not all threads finished"
    );
}

#[test]
fn scaled_cmp_geometry_is_square_and_one_bank_per_core() {
    for (n, side) in [(64u16, 8usize), (128, 12), (256, 16)] {
        let cfg = MemConfig::scaled_cmp(n, 2);
        assert_eq!(cfg.n_banks, n, "{n} cores: one bank per core");
        assert_eq!(cfg.grid_width, side, "{n} cores: grid width");
        assert_eq!(cfg.grid_height, side, "{n} cores: grid height");
        assert!(cfg.grid_width * cfg.grid_height >= n as usize);
        assert_eq!(cfg.n_ctxs(), n as u32 * 2);
    }
}

#[test]
#[should_panic(expected = "cores")]
fn scaled_cmp_rejects_past_max_cores() {
    let _ = MemConfig::scaled_cmp(MAX_CORES as u16 + 1, 1);
}

#[test]
fn sweep_64_cores_serializable() {
    run_checked(64, 1);
}

#[test]
fn sweep_128_cores_serializable() {
    run_checked(128, 1);
}

#[test]
fn sweep_256_contexts_serializable() {
    // The acceptance-criterion run: 256 transactional contexts, oracle on.
    run_checked(256, 1);
}

#[test]
fn sweep_128_cores_2_smt_is_256_contexts() {
    // Same 256-context count reached through SMT instead of core count.
    run_checked(128, 2);
}

#[test]
fn scaled_runs_are_deterministic() {
    let run = |_: ()| {
        let mut s = scaled_system(128, 1, false);
        let r = s.run().expect("scaled run");
        (r.cycles, r.events_dispatched, r.tm.commits, r.tm.aborts)
    };
    assert_eq!(
        run(()),
        run(()),
        "128-core run must be a pure function of (config, seed)"
    );
}
