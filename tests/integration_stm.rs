//! Differential testing of the real-concurrency STM backend against the
//! serializability oracle.
//!
//! Every case generates a random multi-threaded [`TxScript`] workload, runs
//! it on the TL2 STM (`ltse-stm`) with real OS threads, and replays the
//! recorded commit order through the same [`ltse_mem`] oracle the simulator
//! uses: every transactional read must match what a sequential execution in
//! commit order would have produced, and final memory must agree word for
//! word. The default budget runs well over a thousand seeded programs
//! across 2-, 4-, and 8-thread configurations.
//!
//! * `LTSE_STM_CASES=N` bounds the per-thread-count case budget (used by
//!   `scripts/verify.sh` for a quick smoke pass; unset, 400 cases per
//!   thread count = 1200 total).
//! * A failing case panics with a copy-pasteable reproducer: run
//!   `LTSE_STM_SEED=<seed> LTSE_STM_THREADS=<n> cargo test --release
//!   --test integration_stm stm_replays_one_seed` to re-execute exactly
//!   that program.

use std::sync::{Arc, Mutex};

use logtm_se::{FnProgram, Op, ScriptOp, SystemBuilder, TmBackend, TxScript, WordAddr};
use ltse_sim::check::{cases, pick, vec_of};
use ltse_sim::rng::Xoshiro256StarStar;
use ltse_stm::{StmBuilder, StmReport, StmSystem};

fn budget(default: usize) -> usize {
    std::env::var("LTSE_STM_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One random script op, biased toward the contended read-modify-write
/// shapes that make commit-time validation work for a living.
fn random_op(rng: &mut Xoshiro256StarStar) -> ScriptOp {
    // A small hot set plus a long cold tail: conflicts are common but not
    // universal, and the cold addresses exercise table hashing and stripe
    // aliasing rather than one saturated stripe.
    let word = if rng.gen_range(0, 4) < 3 {
        WordAddr(rng.gen_range(0, 6))
    } else {
        WordAddr(rng.gen_range(0, 1 << 20))
    };
    match rng.gen_range(0, 12) {
        0..=2 => ScriptOp::Read(word),
        3..=5 => ScriptOp::Write(word, rng.gen_range(0, 1000)),
        6..=8 => ScriptOp::AddTo(word, rng.gen_range(1, 8)),
        9..=10 => ScriptOp::FetchAdd(word, rng.gen_range(1, 8)),
        _ => ScriptOp::Work(rng.gen_range(1, 40)),
    }
}

fn random_script(rng: &mut Xoshiro256StarStar) -> (TxScript, u64) {
    let txs = vec_of(rng, 1, 5, |rng| vec_of(rng, 1, 6, random_op));
    let n_txs = txs.len() as u64;
    (TxScript::new(txs), n_txs)
}

/// Builds, runs, and oracle-checks one random STM workload, entirely
/// derived from `case_seed`. Panics with a reproducer line on any
/// violation.
fn run_case(case_seed: u64, threads: u32) -> StmReport {
    let repro = format!(
        "reproduce with: LTSE_STM_SEED={case_seed:#x} LTSE_STM_THREADS={threads} \
         cargo test --release --test integration_stm stm_replays_one_seed"
    );
    let mut rng = Xoshiro256StarStar::new(case_seed);
    // Vary the engine geometry too: tiny stripe counts force lock aliasing
    // between unrelated words, and a low retry cap exercises the serial
    // fallback path.
    let n_stripes = *pick(&mut rng, &[8usize, 64, 1 << 14]);
    let max_retries = *pick(&mut rng, &[1u32, 4, 32]);
    let mut sys = StmBuilder::new()
        .seed(case_seed)
        .n_stripes(n_stripes)
        .max_retries(max_retries)
        .check_serializability(true)
        .build();
    for w in 0..6u64 {
        if rng.gen_range(0, 2) == 1 {
            sys.poke_word(WordAddr(w), rng.gen_range(0, 100));
        }
    }
    let mut expected_txs = 0u64;
    for _ in 0..threads {
        let (script, n_txs) = random_script(&mut rng);
        expected_txs += n_txs;
        sys.add_thread(Box::new(script));
    }
    let report = sys
        .run()
        .unwrap_or_else(|e| panic!("STM run failed ({repro}): {e}"));
    let errs = sys.finish_checks();
    assert!(
        errs.is_empty(),
        "STM serializability violation ({repro}):\n{}",
        errs.join("\n")
    );
    // Every scripted transaction commits exactly once, whatever the
    // interleaving, and each one reports its work-unit marker.
    assert_eq!(report.commits, expected_txs, "commit count ({repro})");
    assert_eq!(report.work_units, expected_txs, "work units ({repro})");
    assert_eq!(
        report.threads_completed, threads as usize,
        "joins ({repro})"
    );
    report
}

fn fuzz(threads: u32, base_seed: u64) {
    let n = budget(400);
    let mut aborts = 0u64;
    cases(n, base_seed, |rng| {
        let case_seed = rng.gen_range(0, u64::MAX);
        aborts += run_case(case_seed, threads).aborts;
    });
    // Not an assertion — on a single-core host preemption points are rare
    // and some budgets see few conflicts — but the count going to stderr
    // makes a silently-conflict-free fuzz run visible.
    eprintln!("stm fuzz: {n} cases x {threads} threads, {aborts} aborts");
}

#[test]
fn stm_differential_fuzz_two_threads() {
    fuzz(2, 0x51_AA01);
}

#[test]
fn stm_differential_fuzz_four_threads() {
    fuzz(4, 0x51_AA02);
}

#[test]
fn stm_differential_fuzz_eight_threads() {
    fuzz(8, 0x51_AA03);
}

/// Re-runs exactly one generated case. No-op unless `LTSE_STM_SEED` is set
/// — this is the reproducer hook the fuzz tests name in their panic
/// messages.
#[test]
fn stm_replays_one_seed() {
    let Ok(raw) = std::env::var("LTSE_STM_SEED") else {
        return;
    };
    let seed = raw.trim().trim_start_matches("0x").trim_start_matches("0X");
    let seed = u64::from_str_radix(seed, 16)
        .or_else(|_| raw.trim().parse())
        .unwrap_or_else(|_| panic!("LTSE_STM_SEED must be hex or decimal, got `{raw}`"));
    let threads = std::env::var("LTSE_STM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let report = run_case(seed, threads);
    eprintln!("replayed seed {seed:#x} on {threads} threads: {report:?}");
}

/// The oracle must have teeth: with a one-shot injected write-back fault
/// (the STM analogue of skipping one undo-log entry), a contended run must
/// produce at least one detected violation.
#[test]
fn stm_injected_fault_is_detected() {
    let mut detected = 0;
    let runs = 20;
    for seed in 0..runs {
        let mut sys = StmBuilder::new()
            .seed(seed)
            .check_serializability(true)
            .fault_skip_one_writeback(true)
            .build();
        for _ in 0..4 {
            sys.add_thread(Box::new(TxScript::counter(WordAddr(0), 6)));
        }
        sys.run().expect("faulty run still completes");
        let errs = sys.finish_checks();
        if !errs.is_empty() {
            assert!(
                errs.iter()
                    .any(|e| e.contains("expects") || e.contains("diverges")),
                "violation text should pinpoint the divergence: {errs:?}"
            );
            detected += 1;
        }
    }
    // The fault drops a counter increment, which the final-memory sweep
    // catches deterministically; every run must be flagged.
    assert_eq!(
        detected,
        runs,
        "oracle missed an injected lost write-back in {} of {runs} runs",
        runs - detected
    );
}

/// Backend agreement: a fully commutative workload (transactional
/// counters) must land on the same final memory on the simulator and the
/// STM, through the common [`TmBackend`] trait.
#[test]
fn stm_and_sim_agree_on_counter_totals() {
    cases(budget(400).min(40), 0x51_AA04, |rng| {
        let threads = *pick(rng, &[2u32, 4]);
        let iters = rng.gen_range(1, 8) as usize;
        let addr = WordAddr(rng.gen_range(0, 32));
        let drive = |backend: &mut dyn TmBackend| -> u64 {
            for _ in 0..threads {
                backend.add_thread(Box::new(TxScript::counter(addr, iters)));
            }
            backend.run_backend().expect("run");
            backend.read_word(addr)
        };
        let mut sim = SystemBuilder::small_for_tests().seed(7).build();
        let mut stm: StmSystem = StmBuilder::new().seed(7).build();
        let total = threads as u64 * iters as u64;
        assert_eq!(drive(&mut sim), total, "sim total");
        assert_eq!(drive(&mut stm), total, "stm total");
    });
}

/// Op semantics agree across backends: one program per mode — inside a
/// transaction, bare, and in an escape action inside a transaction —
/// issues every memory op on preset words and records `last_value` at
/// every step. The simulator and the STM must produce the same trace and
/// the same final words, and both histories must replay clean.
#[test]
fn memory_ops_mean_the_same_on_both_backends() {
    let [a, b, c, d, e] = [0u64, 1, 2, 3, 4].map(|i| WordAddr(i * 64));
    let ops = [
        Op::Read(a),
        Op::Write(b, 99),
        Op::Cas {
            addr: c,
            expected: 33,
            new: 7,
        },
        Op::Cas {
            addr: d,
            expected: 0,
            new: 8,
        },
        Op::FetchAdd(e, 5),
    ];
    let modes: [(&str, &[Op], &[Op]); 3] = [
        ("transaction", &[Op::TxBegin], &[Op::TxCommit]),
        ("bare", &[], &[]),
        (
            "escape",
            &[Op::TxBegin, Op::EscapeBegin],
            &[Op::EscapeEnd, Op::TxCommit],
        ),
    ];
    for (mode, prologue, epilogue) in modes {
        let script: Vec<Op> = prologue
            .iter()
            .chain(&ops)
            .chain(epilogue)
            .chain(&[Op::Done])
            .copied()
            .collect();
        let run = |backend: &mut dyn TmBackend| {
            for (w, v) in [(a, 11), (b, 22), (c, 33), (d, 44), (e, 55)] {
                backend.poke_word(w, v);
            }
            let trace = Arc::new(Mutex::new(Vec::new()));
            let (seen, script) = (Arc::clone(&trace), script.clone());
            let mut step = 0;
            backend.add_thread(Box::new(FnProgram::new(move |t, aborted| {
                assert!(!aborted, "a lone thread cannot conflict");
                seen.lock().unwrap().push(t.last_value);
                step += 1;
                script[step - 1]
            })));
            backend.run_backend().expect("run completes");
            let finals = [a, b, c, d, e].map(|w| backend.read_word(w));
            let trace = trace.lock().unwrap().clone();
            (trace, finals, backend.finish_checks())
        };
        let sim = run(&mut SystemBuilder::small_for_tests()
            .check_serializability(true)
            .build());
        let stm = run(&mut StmBuilder::new().check_serializability(true).build());
        assert_eq!(sim.0, stm.0, "{mode}: last_value traces differ");
        assert_eq!(sim.1, stm.1, "{mode}: final words differ");
        assert!(sim.2.is_empty(), "{mode}: sim history: {:?}", sim.2);
        assert!(stm.2.is_empty(), "{mode}: stm history: {:?}", stm.2);
        // Read loads 11, Write leaves it, a CAS hit loads 33 and a miss 44,
        // the fetch-add loads 55.
        let mut want = vec![0; prologue.len()];
        want.extend([0, 11, 11, 33, 44]);
        want.extend(vec![55; epilogue.len() + 1]);
        assert_eq!(stm.0, want, "{mode}: last_value trace");
        assert_eq!(stm.1, [11, 99, 7, 44, 60], "{mode}: final words");
    }
}
