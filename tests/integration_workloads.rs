//! Workload-level integration: the five paper benchmarks complete in both
//! synchronization modes with footprints in the Table 2 neighbourhood, and
//! the qualitative Figure 4 orderings hold at small scale.

use logtm_se::{CoherenceKind, SignatureKind};
use ltse_workloads::{run_benchmark, Benchmark, RunParams, SyncMode};

fn params(benchmark: Benchmark, mode: SyncMode, kind: SignatureKind, seed: u64) -> RunParams {
    RunParams {
        benchmark,
        mode,
        signature: kind,
        threads: 16,
        units_per_thread: 8,
        seed,
        small_machine: false,
        sticky: true,
        coherence: CoherenceKind::DirectoryMesi,
    }
}

#[test]
fn all_benchmarks_complete_under_all_figure4_signatures() {
    for benchmark in Benchmark::all() {
        for kind in SignatureKind::figure4_set() {
            let r = run_benchmark(&params(benchmark, SyncMode::Tm, kind, 31))
                .unwrap_or_else(|e| panic!("{benchmark}/{kind}: {e}"));
            assert_eq!(r.tm.work_units, 16 * 8, "{benchmark}/{kind}");
            assert!(r.tm.commits >= r.tm.work_units, "{benchmark}/{kind}");
        }
    }
}

#[test]
fn lock_mode_has_no_transactions_and_same_work() {
    for benchmark in Benchmark::all() {
        let r = run_benchmark(&params(
            benchmark,
            SyncMode::Lock,
            SignatureKind::Perfect,
            32,
        ))
        .unwrap_or_else(|e| panic!("{benchmark}: {e}"));
        assert_eq!(r.tm.commits, 0, "{benchmark}");
        assert_eq!(r.tm.aborts, 0, "{benchmark}");
        assert_eq!(r.tm.work_units, 16 * 8, "{benchmark}");
    }
}

/// A benchmark's expected footprint neighbourhood: read-average band and
/// cap, write-average band and cap.
type FootprintBand = (Benchmark, (f64, f64), u64, (f64, f64), u64);

#[test]
fn footprints_sit_in_the_table2_neighbourhood() {
    // Paper Table 2: (read avg, read max, write avg, write max).
    let bands: [FootprintBand; 5] = [
        (Benchmark::BerkeleyDb, (4.0, 13.0), 40, (3.5, 11.0), 30),
        (Benchmark::Cholesky, (3.5, 4.0), 4, (1.8, 2.0), 2),
        (Benchmark::Radiosity, (1.0, 4.5), 32, (1.0, 4.5), 45),
        (Benchmark::Raytrace, (1.0, 8.0), 550, (1.0, 3.0), 3),
        (Benchmark::Mp3d, (1.5, 4.0), 20, (1.2, 3.5), 12),
    ];
    for (benchmark, read_band, read_max_cap, write_band, write_max_cap) in bands {
        let mut p = params(benchmark, SyncMode::Tm, SignatureKind::Perfect, 33);
        if benchmark == Benchmark::Raytrace {
            p.units_per_thread = 40; // enough cursor depth for a huge section
        }
        let r = run_benchmark(&p).unwrap();
        let ra = r.tm.read_set.mean().unwrap();
        let wa = r.tm.write_set.mean().unwrap();
        assert!(
            (read_band.0..=read_band.1).contains(&ra),
            "{benchmark} read avg {ra}"
        );
        assert!(
            (write_band.0..=write_band.1).contains(&wa),
            "{benchmark} write avg {wa}"
        );
        assert!(
            r.tm.read_set.max().unwrap() <= read_max_cap,
            "{benchmark} read max"
        );
        assert!(
            r.tm.write_set.max().unwrap() <= write_max_cap,
            "{benchmark} write max"
        );
    }
}

#[test]
fn raytrace_is_the_victimizing_benchmark() {
    // Result 4's qualitative claim: only Raytrace victimizes transactional
    // blocks in any number.
    let mut raytrace = params(
        Benchmark::Raytrace,
        SyncMode::Tm,
        SignatureKind::Perfect,
        34,
    );
    raytrace.units_per_thread = 60;
    let rt = run_benchmark(&raytrace).unwrap();
    assert!(
        rt.mem.tx_victimizations_exact() > 0,
        "raytrace's 550-block tail must overflow the 512-block L1"
    );

    for other in [Benchmark::Cholesky, Benchmark::Mp3d, Benchmark::Radiosity] {
        let r = run_benchmark(&params(other, SyncMode::Tm, SignatureKind::Perfect, 34)).unwrap();
        assert!(
            r.mem.tx_victimizations_exact() < 20,
            "{other} should victimize rarely (paper: <20)"
        );
    }
}

#[test]
fn berkeleydb_prefers_transactions_and_cholesky_is_parity() {
    // The Figure 4 ordering at reduced scale, single seed: BerkeleyDB's
    // single region mutex serializes the lock build; Cholesky's queue
    // serializes both equally.
    let thr = |benchmark, mode| {
        run_benchmark(&params(benchmark, mode, SignatureKind::paper_bs_2kb(), 35))
            .unwrap()
            .throughput_per_kcycle()
    };
    let bdb_speedup =
        thr(Benchmark::BerkeleyDb, SyncMode::Tm) / thr(Benchmark::BerkeleyDb, SyncMode::Lock);
    assert!(
        bdb_speedup > 1.05,
        "BerkeleyDB TM should win, got {bdb_speedup:.2}x"
    );

    let chol_speedup =
        thr(Benchmark::Cholesky, SyncMode::Tm) / thr(Benchmark::Cholesky, SyncMode::Lock);
    assert!(
        (0.75..=1.3).contains(&chol_speedup),
        "Cholesky should be near parity, got {chol_speedup:.2}x"
    );
}

#[test]
fn false_positive_rate_grows_as_signatures_shrink() {
    // Table 3's central trend, on BerkeleyDB.
    let fp = |kind| {
        run_benchmark(&params(Benchmark::BerkeleyDb, SyncMode::Tm, kind, 36))
            .unwrap()
            .tm
            .false_positive_pct()
            .unwrap_or(0.0)
    };
    let perfect = fp(SignatureKind::Perfect);
    let bs2k = fp(SignatureKind::BitSelect { bits: 2048 });
    let bs64 = fp(SignatureKind::BitSelect { bits: 64 });
    assert_eq!(perfect, 0.0);
    assert!(bs64 >= bs2k, "64-bit ({bs64:.1}%) ≥ 2 Kb ({bs2k:.1}%)");
    assert!(bs64 > 0.0, "a 64-bit filter must alias on BerkeleyDB");
}

#[test]
fn escape_actions_appear_in_berkeleydb_only() {
    for benchmark in Benchmark::all() {
        let r =
            run_benchmark(&params(benchmark, SyncMode::Tm, SignatureKind::Perfect, 37)).unwrap();
        if benchmark == Benchmark::BerkeleyDb {
            assert!(r.tm.escapes > 0, "BerkeleyDB models syscalls via escapes");
        } else {
            assert_eq!(r.tm.escapes, 0, "{benchmark}");
        }
    }
}
