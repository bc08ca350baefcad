//! Determinism: the whole-system guarantee that a run is exactly
//! reproducible from `(configuration, seed)` — the foundation of the
//! paper-style multi-seed confidence-interval methodology.

use logtm_se::{CoherenceKind, SignatureKind};
use ltse_workloads::{run_benchmark, Benchmark, RunParams, SyncMode};

fn fingerprint(p: &RunParams) -> (u64, u64, u64, u64, u64, u64) {
    let r = run_benchmark(p).unwrap();
    (
        r.cycles.as_u64(),
        r.tm.commits,
        r.tm.aborts,
        r.tm.stalls,
        r.mem.l1_misses.get(),
        r.mem.nacks.get(),
    )
}

fn params(benchmark: Benchmark, mode: SyncMode, seed: u64) -> RunParams {
    RunParams {
        benchmark,
        mode,
        signature: SignatureKind::paper_bs_2kb(),
        threads: 8,
        units_per_thread: 4,
        seed,
        small_machine: false,
        sticky: true,
        coherence: CoherenceKind::DirectoryMesi,
    }
}

#[test]
fn identical_seeds_reproduce_exactly() {
    for benchmark in Benchmark::all() {
        for mode in [SyncMode::Tm, SyncMode::Lock] {
            let p = params(benchmark, mode, 0xDEC0DE);
            assert_eq!(
                fingerprint(&p),
                fingerprint(&p),
                "{benchmark} {mode} must be bit-identical across runs"
            );
        }
    }
}

#[test]
fn different_seeds_perturb_the_interleaving() {
    // At least the cycle count should differ across seeds for a contended
    // benchmark (this is what gives the confidence intervals meaning).
    let a = fingerprint(&params(Benchmark::BerkeleyDb, SyncMode::Tm, 1));
    let b = fingerprint(&params(Benchmark::BerkeleyDb, SyncMode::Tm, 2));
    assert_ne!(a.0, b.0, "seeds must perturb timing");
    // …but not the amount of committed work.
    assert_eq!(a.1, b.1, "work is fixed regardless of seed");
}

#[test]
fn multi_seed_sequences_are_stable() {
    // The harness derives per-datapoint seeds from a base seed; the whole
    // experiment pipeline is reproducible iff that derivation and each run
    // are.
    use logtm_se::substrates::sim::config::seed_sequence;
    let seeds_a = seed_sequence(0xC0FFEE, 5);
    let seeds_b = seed_sequence(0xC0FFEE, 5);
    assert_eq!(seeds_a, seeds_b);
    for &s in &seeds_a {
        let p = params(Benchmark::Mp3d, SyncMode::Tm, s);
        assert_eq!(fingerprint(&p), fingerprint(&p), "seed {s:#x}");
    }
}
