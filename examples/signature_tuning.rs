//! Signature design-space exploration (paper §5 "Signature Design" and
//! Figure 4/Table 3): run the same contended workload under every signature
//! implementation and size, and watch false positives turn into stalls and
//! aborts.
//!
//! Run with: `cargo run --example signature_tuning`

use logtm_se::{SignatureKind, SystemBuilder, WordAddr};
use ltse_workloads::{CsProgram, HotColdArray, SyncMode};

fn run(kind: SignatureKind) -> (u64, u64, u64, Option<f64>) {
    let mut system = SystemBuilder::paper_default()
        .signature(kind)
        .seed(11)
        .build();
    // Eight threads, each reading 24-block slabs from its own region plus
    // one private hot RMW block: *no true conflicts at all* — every
    // conflict you see below is signature aliasing.
    for t in 0..8u64 {
        system.add_thread(Box::new(CsProgram::new(
            HotColdArray::new(
                WordAddr(8 * (1000 + t)),
                WordAddr(8 * (4096 + t * 512)),
                64,
                24,
                WordAddr(8 * 2048),
                30,
            ),
            SyncMode::Tm,
            t << 32,
        )));
    }
    let r = system.run().expect("run completes");
    (
        r.cycles.as_u64(),
        r.tm.stalls,
        r.tm.aborts,
        r.tm.false_positive_pct(),
    )
}

fn main() {
    println!("Signature tuning on a conflict-free workload (all conflicts are aliasing)");
    println!(
        "{:<14} {:>10} {:>8} {:>8} {:>9}",
        "Signature", "Cycles", "Stalls", "Aborts", "FalseP%"
    );
    let kinds = [
        SignatureKind::Perfect,
        SignatureKind::BitSelect { bits: 64 },
        SignatureKind::BitSelect { bits: 256 },
        SignatureKind::BitSelect { bits: 2048 },
        SignatureKind::DoubleBitSelect { bits: 64 },
        SignatureKind::DoubleBitSelect { bits: 2048 },
        SignatureKind::CoarseBitSelect {
            bits: 2048,
            blocks_per_macroblock: 16,
        },
    ];
    let mut perfect_cycles = None;
    for kind in kinds {
        let (cycles, stalls, aborts, fp) = run(kind);
        if kind == SignatureKind::Perfect {
            perfect_cycles = Some(cycles);
            assert_eq!(stalls, 0, "perfect signatures see no false conflicts");
        }
        println!(
            "{:<14} {:>10} {:>8} {:>8} {:>9}",
            kind.label(),
            cycles,
            stalls,
            aborts,
            fp.map(|p| format!("{p:.1}")).unwrap_or_else(|| "-".into())
        );
    }
    // A 2 Kb signature should track perfect closely on this footprint.
    let (bs2k, _, _, _) = run(SignatureKind::paper_bs_2kb());
    let perfect = perfect_cycles.expect("perfect ran");
    println!(
        "\n2 Kb BS is within {:.1}% of perfect — the paper's Result 2.",
        100.0 * (bs2k as f64 - perfect as f64).abs() / perfect as f64
    );
}
