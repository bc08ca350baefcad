//! Hot-path micro-benchmarks, with machine-readable output.
//!
//! * `sig/conflict_sweep_*` times the signature call the simulator makes
//!   for every coherence request: `ReadWriteSignature::conflicts_with`, once
//!   per remote context.
//! * `event_queue/*` times a plain `BinaryHeap` event queue against the
//!   bucketed calendar `EventQueue` **in the same run**, so the emitted
//!   speedup is comparable across machines and PRs.
//! * `end_to_end/contended_counter` times a small transactional run.
//!
//! Output:
//!
//! * human-readable lines on **stderr**;
//! * a single JSON document on **stdout**, or to the file named by
//!   `LTSE_BENCH_JSON` if set (what `scripts/bench.sh` uses to produce
//!   `BENCH_hotpath.json`).
//!
//! Environment:
//!
//! * `LTSE_BENCH_QUICK=1` — CI smoke mode: tiny workloads, 2 iterations,
//!   still full JSON structure (no timing thresholds are asserted anywhere).
//! * `LTSE_BENCH_ITERS=N` — override the per-case iteration count.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use logtm_se::{SignatureKind, SystemBuilder, WordAddr};
use ltse_bench::harness;
use ltse_sig::{ReadWriteSignature, SigOp};
use ltse_sim::rng::mix64;
use ltse_sim::{Cycle, EventQueue};
use ltse_workloads::{CsProgram, SharedCounter, SyncMode};

struct CaseResult {
    group: &'static str,
    name: &'static str,
    mean_ms: f64,
    best_ms: f64,
    iters: usize,
}

fn time_case<T>(
    out: &mut Vec<CaseResult>,
    group: &'static str,
    name: &'static str,
    iters: usize,
    mut f: impl FnMut() -> T,
) {
    black_box(f()); // warmup
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..iters {
        let t0 = Instant::now();
        black_box(f());
        let dt = t0.elapsed().as_secs_f64();
        total += dt;
        best = best.min(dt);
    }
    let mean_ms = total / iters as f64 * 1e3;
    let best_ms = best * 1e3;
    eprintln!(
        "{:<44} mean {mean_ms:>9.3} ms   best {best_ms:>9.3} ms   ({iters} iters)",
        format!("{group}/{name}")
    );
    out.push(CaseResult {
        group,
        name,
        mean_ms,
        best_ms,
        iters,
    });
}

fn mean_of<'a>(out: &'a [CaseResult], group: &str, name: &str) -> Option<&'a CaseResult> {
    out.iter().find(|c| c.group == group && c.name == name)
}

/// best-time ratio `baseline / optimized` (higher = optimized is faster).
fn speedup(out: &[CaseResult], group: &str, baseline: &str, optimized: &str) -> Option<f64> {
    let b = mean_of(out, group, baseline)?;
    let o = mean_of(out, group, optimized)?;
    (o.best_ms > 0.0).then(|| b.best_ms / o.best_ms)
}

fn main() {
    let quick = std::env::var("LTSE_BENCH_QUICK").is_ok_and(|v| v == "1");
    let iters = harness::iters(if quick { 2 } else { 30 });
    let mut out: Vec<CaseResult> = Vec::new();

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

    for (name, kind) in [
        ("conflict_sweep_bitselect", SignatureKind::paper_bs_2kb()),
        ("conflict_sweep_bloom", SignatureKind::Bloom { bits: 2048, k: 4 }),
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
        time_case(&mut out, "sig", name, iters, || {
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
            0..=5 => mix64(i ^ 7) % 8,        // cache-hit scale
            6..=8 => mix64(i ^ 9) % 200,      // network/memory scale
            _ => 1_000 + mix64(i ^ 11) % 4_000, // retry/backoff scale
        })
        .collect();

    time_case(&mut out, "event_queue", "churn_heap_ref", iters, || {
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
    time_case(&mut out, "event_queue", "churn_calendar", iters, || {
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
    time_case(&mut out, "end_to_end", "contended_counter", iters.min(10), || {
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

    // ---- JSON ----------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"hotpath\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"cpus\": {},\n", harness::detected_cpus()));
    json.push_str("  \"cases\": [\n");
    for (i, c) in out.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"group\": \"{}\", \"name\": \"{}\", \"mean_ms\": {:.6}, \"best_ms\": {:.6}, \"iters\": {}}}{}\n",
            c.group,
            c.name,
            c.mean_ms,
            c.best_ms,
            c.iters,
            if i + 1 < out.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"speedups\": {\n");
    let pairs = [(
        "event_queue_churn",
        speedup(&out, "event_queue", "churn_heap_ref", "churn_calendar"),
    )];
    for (i, (name, s)) in pairs.iter().enumerate() {
        json.push_str(&format!(
            "    \"{name}\": {}{}\n",
            s.map_or("null".to_string(), |v| format!("{v:.3}")),
            if i + 1 < pairs.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");

    for (name, s) in pairs {
        if let Some(s) = s {
            eprintln!("speedup {name:<32} {s:.2}x");
        }
    }

    match std::env::var("LTSE_BENCH_JSON") {
        Ok(path) if !path.is_empty() => {
            std::fs::write(&path, &json).expect("write LTSE_BENCH_JSON file");
            eprintln!("wrote {path}");
        }
        _ => print!("{json}"),
    }
}
