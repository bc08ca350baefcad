//! Observability-layer overhead bench, with machine-readable output.
//!
//! The `ltse_sim::obs` layer claims to be zero-cost-when-off: every hook
//! site in the simulator is one `Option` null check. This bench proves it
//! on the same end-to-end contended-counter workload as `benches/hotpath.rs`
//! — obs-off is timed against obs-on in the same run, so the emitted
//! `obs_off_vs_on` ratio directly bounds the off-path overhead (a ratio of
//! ~1.0 means the disabled layer costs nothing; the acceptance bar is
//! off-path cost below 2%, i.e. ratio > 0.98). Micro-cases for the two obs
//! primitives (metric bumps and span-ring pushes) are timed alongside so a
//! future regression is attributable.
//!
//! Writes `BENCH_obs.json` through [`ltse_bench::harness`].

use logtm_se::{SignatureKind, SystemBuilder, WordAddr};
use ltse_bench::harness::{self, Bench};
use ltse_sim::obs::{ObsCore, StallCause};
use ltse_sim::rng::mix64;
use ltse_sim::Cycle;
use ltse_workloads::{CsProgram, SharedCounter, SyncMode};

/// The hotpath bench's end-to-end workload, with the obs layer toggled.
fn run_contended(observe: bool, cs_rounds: u64) -> logtm_se::RunReport {
    let mut sys = SystemBuilder::paper_default()
        .signature(SignatureKind::paper_bs_2kb())
        .seed(5)
        .observe(observe)
        .build();
    for t in 0..4u64 {
        sys.add_thread(Box::new(CsProgram::new(
            SharedCounter::new(WordAddr(t * 512), WordAddr(1 << 16), cs_rounds, 30),
            SyncMode::Tm,
            t,
        )));
    }
    sys.run().expect("run")
}

fn main() {
    let quick = harness::quick();
    let iters = harness::iters(if quick { 2 } else { 30 });
    let mut bench = Bench::new("obs");

    // ---- end to end: the off-path overhead bound ------------------------
    // `run_obs_on` is the baseline and `run_obs_off` the "optimized" side,
    // so the emitted ratio reads "how much faster is obs-off than obs-on";
    // the companion `obs_off_vs_on` inverts the roles to bound the cost of
    // merely *compiling in* the disabled layer against full attribution.
    // Larger than hotpath's 60 rounds: the off-vs-on delta is a few percent
    // at most, so the per-run time must dwarf timer and scheduler noise.
    let cs_rounds = if quick { 10 } else { 800 };
    let e2e_iters = iters.min(12).max(if quick { 2 } else { 8 });
    bench.group("end_to_end", e2e_iters);
    bench.case("run_obs_off", || run_contended(false, cs_rounds));
    bench.case("run_obs_on", || run_contended(true, cs_rounds));

    // ---- obs primitives -------------------------------------------------
    let bumps = if quick { 50_000u64 } else { 2_000_000 };
    bench.group("primitives", iters);
    bench.case("registry_bump", || {
        let mut o = ObsCore::new(0);
        for i in 0..bumps {
            // Rotate over a few static names like real hook sites do.
            match i % 3 {
                0 => o.bump("nacks_unjudged"),
                1 => o.bump("preemptions"),
                _ => o.add("partial_aborts", 1),
            }
        }
        o.report().metrics.get("preemptions")
    });
    let spans = if quick { 20_000u64 } else { 500_000 };
    bench.case("span_ring_push", || {
        let mut o = ObsCore::new(4096);
        for i in 0..spans {
            let tid = (i % 32) as u32;
            o.on_tx_begin(tid, Cycle(i));
            o.on_stall(tid, StallCause::CoherenceNack, Cycle(mix64(i) % 64));
            o.on_commit(tid, Cycle(i + 40));
        }
        o.report().spans_committed
    });

    let ratio = bench.speedup("obs_off_vs_on", "end_to_end", "run_obs_on", "run_obs_off");
    if let Some(s) = ratio {
        // The headline number: how much the *disabled* layer costs
        // relative to full attribution being on.
        eprintln!(
            "obs-off overhead vs obs-on               {:+.2}%",
            (1.0 / s - 1.0) * 100.0
        );
    }
    bench.finish();
}
