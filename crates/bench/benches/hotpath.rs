//! Hot-path micro-benchmarks, with machine-readable output.
//!
//! * `sig/conflict_sweep_*` times the signature call the simulator makes
//!   for every coherence request: `ReadWriteSignature::conflicts_with`, once
//!   per remote context.
//! * `event_queue/*` times a plain `BinaryHeap` event queue against the
//!   bucketed calendar `EventQueue` **in the same run**, so the emitted
//!   speedup is comparable across machines and PRs.
//! * `end_to_end/contended_counter` times a small transactional run, and
//!   `end_to_end/berkeleydb_{lock,tm}` one BerkeleyDB run each at Figure
//!   4's scale (32 threads on the paper's 16-core × 2-SMT CMP), recording
//!   its event count: the lock run spins on L1 hits of a core shared with
//!   an SMT sibling, the TM run stalls and retries NACKed misses.
//!   `end_to_end/small_checked_berkeleydb` runs `explore_oracle`'s machine
//!   (4 BerkeleyDB threads × 2 units on `small_for_tests`, perfect
//!   signatures) once unexplored under the serializability oracle, checked
//!   with `finish_checks`: victim coverage and signature checks on a short
//!   event loop.
//!
//! Writes `BENCH_hotpath.json` through [`ltse_bench::harness`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

use logtm_se::{CoherenceKind, SignatureKind, SystemBuilder, WordAddr};
use ltse_bench::harness::{self, Bench};
use ltse_sig::{ReadWriteSignature, SigOp};
use ltse_sim::rng::mix64;
use ltse_sim::{Cycle, EventQueue};
use ltse_workloads::{run_benchmark, Benchmark, CsProgram, RunParams, SharedCounter, SyncMode};

fn main() {
    let quick = harness::quick();
    let iters = harness::iters(if quick { 2 } else { 30 });
    let mut bench = Bench::new("hotpath");

    // ---- signature conflict sweep ---------------------------------------
    // The simulator's hot path is `check_cores_except`: one incoming
    // coherence request is checked against *every* remote context, one
    // `ReadWriteSignature::conflicts_with` call each. Time that call for an
    // incoming GETM, which consults both the read- and the write-set
    // (paper §2), swept over 16 contexts.
    const CTXS: usize = 16;
    let probes: Vec<u64> = {
        let n = if quick { 4_096 } else { 65_536 };
        (0..n).map(|i| mix64(i as u64) >> 20).collect()
    };

    bench.group("sig", iters);
    for (name, kind) in [
        ("conflict_sweep_bitselect", SignatureKind::paper_bs_2kb()),
        ("conflict_sweep_dbs", SignatureKind::paper_dbs_2kb()),
    ] {
        // Launder the kind so LLVM cannot constant-fold the variant — in the
        // simulator the kind is runtime configuration.
        let kind = black_box(kind);
        let ctxs: Vec<ReadWriteSignature> = (0..CTXS)
            .map(|c| {
                let mut rw = ReadWriteSignature::new(&kind);
                for i in 0..64u64 {
                    let a = mix64(i ^ (c as u64) << 32) >> 20;
                    rw.insert(SigOp::Read, a);
                    rw.insert(SigOp::Write, mix64(a) >> 20);
                }
                rw
            })
            .collect();
        bench.case(name, || {
            let mut hits = 0u64;
            for &a in &probes {
                for rw in &ctxs {
                    hits += rw.conflicts_with(SigOp::Write, a) as u64;
                }
            }
            hits
        });
    }

    // ---- event queue churn: reference BinaryHeap vs calendar queue ------
    // Classic hold model: keep ~1k events pending, pop one / push one with
    // mostly-small deltas (the simulator's actual scheduling profile).
    let churn_ops = if quick { 20_000 } else { 1_000_000 };
    let deltas: Vec<u64> = (0..1024)
        .map(|i| match mix64(i) % 10 {
            0..=5 => mix64(i ^ 7) % 8,          // cache-hit scale
            6..=8 => mix64(i ^ 9) % 200,        // network/memory scale
            _ => 1_000 + mix64(i ^ 11) % 4_000, // retry/backoff scale
        })
        .collect();

    bench.group("event_queue", iters);
    bench.case("churn_heap_ref", || {
        let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now;
        for i in 0..1_000u64 {
            heap.push(Reverse((deltas[i as usize % 1024], seq, i as u32)));
            seq += 1;
        }
        let mut acc = 0u64;
        for i in 0..churn_ops {
            let Reverse((t, _, p)) = heap.pop().expect("pending");
            now = t;
            acc ^= p as u64;
            heap.push(Reverse((now + deltas[(i % 1024) as usize], seq, p)));
            seq += 1;
        }
        acc
    });
    bench.case("churn_calendar", || {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..1_000u64 {
            q.push(Cycle(deltas[i as usize % 1024]), i as u32);
        }
        let mut acc = 0u64;
        for i in 0..churn_ops {
            let (_, p) = q.pop().expect("pending");
            acc ^= p as u64;
            q.push(Cycle(q.now().0 + deltas[(i % 1024) as usize]), p);
        }
        acc
    });

    // ---- end to end: contended-counter transactions ---------------------
    let cs_rounds = if quick { 10 } else { 60 };
    bench.group("end_to_end", iters.min(10));
    bench.case("contended_counter", || {
        let mut sys = SystemBuilder::paper_default()
            .signature(SignatureKind::paper_bs_2kb())
            .seed(5)
            .build();
        for t in 0..4u64 {
            sys.add_thread(Box::new(CsProgram::new(
                SharedCounter::new(WordAddr(t * 512), WordAddr(1 << 16), cs_rounds, 30),
                SyncMode::Tm,
                t,
            )));
        }
        sys.run().expect("run")
    });
    for (name, mode) in [
        ("berkeleydb_lock", SyncMode::Lock),
        ("berkeleydb_tm", SyncMode::Tm),
    ] {
        let params = RunParams {
            benchmark: Benchmark::BerkeleyDb,
            mode,
            signature: SignatureKind::paper_bs_2kb(),
            threads: 32,
            units_per_thread: if quick { 1 } else { 6 },
            seed: 7,
            small_machine: false,
            sticky: true,
            coherence: CoherenceKind::DirectoryMesi,
        };
        let events = run_benchmark(&params).expect("run").events_dispatched;
        bench.case_with(name, vec![("events", events.into())], || {
            run_benchmark(&params).expect("run")
        });
    }

    // One schedule of `explore_oracle` is ~0.1 ms, so it takes the full
    // iteration count.
    bench.group("end_to_end", iters);
    let small_checked = || {
        let mut sys = SystemBuilder::small_for_tests()
            .check_serializability(true)
            .build();
        for p in Benchmark::BerkeleyDb.programs(SyncMode::Tm, 4, 2) {
            sys.add_thread(p);
        }
        let report = sys.run().expect("run");
        let errors = sys.finish_checks();
        assert!(errors.is_empty(), "serializability: {errors:?}");
        report
    };
    let events = small_checked().events_dispatched;
    bench.case_with(
        "small_checked_berkeleydb",
        vec![("events", events.into())],
        small_checked,
    );

    bench.speedup(
        "event_queue_churn",
        "event_queue",
        "churn_heap_ref",
        "churn_calendar",
    );
    bench.finish();
}
