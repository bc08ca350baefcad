//! Seeded property tests for the TL2 engine, via `ltse_sim::check`.
//!
//! Each test states one invariant the STM's correctness argument rests on
//! — clock monotonicity, unique writer timestamps, exact sums under lock
//! aliasing, commit-time rejection of stale snapshots, serial-fallback
//! soundness, clean table-capacity failure — and hammers it with hundreds
//! of randomized cases. A failing case prints its index and seed through
//! `check::cases`, so any counterexample is immediately re-runnable.

use std::sync::Mutex;

use logtm_se::{ScriptOp, TxScript, WordAddr};
use ltse_sim::check::{cases, pick, vec_of};
use ltse_stm::{Conflict, Stm, StmBuilder, StmConfig};

fn small_stm(n_stripes: usize) -> Stm {
    Stm::new(StmConfig {
        n_stripes,
        ..StmConfig::default()
    })
}

/// The global clock only moves forward, every writer commit gets a fresh
/// timestamp, and timestamps issued by concurrently committing threads are
/// all distinct.
#[test]
fn clock_is_monotone_and_writer_versions_are_unique() {
    cases(60, 0x0057_A71C, |rng| {
        let stm = small_stm(*pick(rng, &[8, 1 << 10]));
        let threads = rng.gen_range(2, 5);
        let commits_per_thread = rng.gen_range(1, 20);
        let versions = Mutex::new(Vec::new());
        let (stm, versions) = (&stm, &versions);
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    let mut mine = Vec::new();
                    for i in 0..commits_per_thread {
                        // Per-thread words: no data conflicts. Stripe
                        // aliasing (8 stripes) can still surface transient
                        // Locked/Stale conflicts against a concurrent
                        // committer's lock — retry those, as the executor
                        // would; the uniqueness claim is about the clock,
                        // not about single-attempt commits.
                        let word = t * 1000 + i;
                        let info = loop {
                            let mut tx = stm.begin();
                            tx.write(word, i);
                            match tx.commit() {
                                Ok(info) => break info,
                                Err(Conflict::Locked { .. } | Conflict::Stale { .. }) => continue,
                                Err(e) => panic!("non-transient conflict: {e}"),
                            }
                        };
                        assert!(info.writer);
                        mine.push(info.version);
                    }
                    assert!(
                        mine.windows(2).all(|w| w[0] < w[1]),
                        "a thread's own commit timestamps must increase"
                    );
                    versions.lock().unwrap().extend(mine);
                });
            }
        });
        let mut versions = std::mem::take(&mut *versions.lock().unwrap());
        let n = versions.len();
        assert_eq!(n as u64, threads * commits_per_thread);
        versions.sort_unstable();
        versions.dedup();
        assert_eq!(versions.len(), n, "duplicate writer timestamp issued");
        let max = *versions.last().unwrap();
        assert!(stm.clock_now() >= max, "clock behind an issued timestamp");
    });
}

/// With absurdly few lock stripes, unrelated words share write-locks.
/// Aliasing may cost aborts — never increments. Transactional counters at
/// random (possibly colliding) addresses must sum exactly.
#[test]
fn stripe_aliasing_never_loses_writes() {
    cases(40, 0x0057_A72A, |rng| {
        let threads = rng.gen_range(2, 5) as u32;
        let mut sys = StmBuilder::new()
            .seed(rng.gen_range(0, u64::MAX))
            .n_stripes(*pick(rng, &[1usize, 2, 4]))
            .check_serializability(true)
            .build();
        // Few distinct counters over a huge address range: with 1-4
        // stripes every counter aliases with some other.
        let addrs = vec_of(rng, 1, 4, |rng| WordAddr(rng.gen_range(0, 1 << 30)));
        let iters = rng.gen_range(2, 10) as usize;
        let mut expected = std::collections::HashMap::new();
        for _ in 0..threads {
            for &a in &addrs {
                sys.add_thread(Box::new(TxScript::counter(a, iters)));
                *expected.entry(a.0).or_insert(0u64) += iters as u64;
            }
        }
        sys.run().expect("run completes");
        let errs = sys.finish_checks();
        assert!(errs.is_empty(), "oracle clean under aliasing: {errs:?}");
        for (&word, &total) in &expected {
            assert_eq!(sys.read_word(WordAddr(word)), total, "word {word}");
        }
    });
}

/// Commit-time validation must reject a writer whose read snapshot went
/// stale: if another transaction commits a write to a word after we read
/// it, our commit fails with `Stale` on exactly that word's stripe — and
/// with no interference, the same commit succeeds.
#[test]
fn read_set_validation_rejects_stale_snapshots() {
    cases(200, 0x0057_A73B, |rng| {
        let stm = small_stm(*pick(rng, &[8, 64, 1 << 12]));
        let word = rng.gen_range(0, 1 << 24);
        let interfere = rng.gen_range(0, 2) == 1;

        let mut victim = stm.begin();
        let seen = victim.read(word).expect("quiescent read");
        if interfere {
            let mut other = stm.begin();
            other.write(word, seen + 1);
            other.commit().expect("uncontended interferer commits");
        }
        // The victim must be a writer (read-only transactions serialize at
        // their read timestamp and need no commit-time validation). Write
        // to the *same* word so the stale stripe is unambiguous even when
        // the small stripe count aliases `out` onto it.
        victim.write(word, seen + 100);
        match (interfere, victim.commit()) {
            (true, Err(Conflict::Stale { stripe })) => {
                assert_eq!(stripe, stm.stripe_of(word), "stale stripe pinpointed")
            }
            (true, other) => panic!("stale snapshot must abort the commit, got {other:?}"),
            (false, Ok(info)) => assert!(info.writer),
            (false, Err(e)) => panic!("uncontended commit failed: {e}"),
        }
        if interfere {
            assert_eq!(
                stm.read_word_raw(word),
                seen + 1,
                "victim's abort left no trace"
            );
        }
    });
}

/// A transaction always observes its own buffered writes, and an aborted
/// transaction's buffer never leaks into shared memory.
#[test]
fn write_buffer_forwards_and_aborts_leave_no_trace() {
    cases(200, 0x0057_A74C, |rng| {
        let stm = small_stm(64);
        let word = rng.gen_range(0, 1 << 16);
        let before = rng.gen_range(0, 100);
        stm.poke_word_raw(word, before).expect("seed table");
        let mut tx = stm.begin();
        let vals = vec_of(rng, 1, 6, |rng| rng.gen_range(0, 1 << 20));
        for &v in &vals {
            tx.write(word, v);
            assert_eq!(tx.peek_buffered(word), Some(v));
            assert_eq!(tx.read(word).expect("own write"), v);
        }
        // Dropping the transaction without committing is an abort: the
        // lazily buffered writes must never have touched shared memory.
        drop(tx);
        assert_eq!(stm.read_word_raw(word), before);
    });
}

/// The serial fallback is livelock-proof *and* correct: with a retry budget
/// of zero every writer escalates to the exclusive token, yet sums stay
/// exact and the oracle stays clean.
#[test]
fn serial_fallback_alone_is_still_serializable() {
    cases(30, 0x0057_A75D, |rng| {
        let threads = rng.gen_range(2, 5) as u32;
        let iters = rng.gen_range(2, 8) as usize;
        let addr = WordAddr(rng.gen_range(0, 64));
        let mut sys = StmBuilder::new()
            .seed(rng.gen_range(0, u64::MAX))
            .max_retries(0)
            .check_serializability(true)
            .build();
        for _ in 0..threads {
            sys.add_thread(Box::new(TxScript::counter(addr, iters)));
        }
        let report = sys.run().expect("run completes");
        assert!(sys.finish_checks().is_empty());
        assert_eq!(sys.read_word(addr), threads as u64 * iters as u64);
        assert_eq!(
            report.serial_commits, report.commits,
            "every commit escalated"
        );
    });
}

/// Running out of word-table slots fails cleanly: the committing
/// transaction reports `TableFull` without publishing a torn prefix of its
/// write set, and earlier commits remain readable.
#[test]
fn table_exhaustion_is_clean_not_torn() {
    cases(100, 0x0057_A76E, |rng| {
        let stm = Stm::new(StmConfig {
            mem_slots: 8,
            n_stripes: 64,
            ..StmConfig::default()
        });
        // Capacity rounds to 8; leave room, then overflow in one commit.
        let keep = rng.gen_range(1, 4);
        for w in 0..keep {
            let mut tx = stm.begin();
            tx.write(w, w + 1);
            tx.commit().expect("within capacity");
        }
        let mut tx = stm.begin();
        for i in 0..16u64 {
            tx.write(1000 + i * 7919, i);
        }
        match tx.commit() {
            Err(Conflict::TableFull) => {}
            other => panic!("expected TableFull, got {other:?}"),
        }
        for w in 0..keep {
            assert_eq!(stm.read_word_raw(w), w + 1, "pre-existing value intact");
        }
        for i in 0..16u64 {
            assert_eq!(stm.read_word_raw(1000 + i * 7919), 0, "no torn write-back");
        }
    });
}

/// The serial gate under load: one abort escalates (`max_retries(1)`) and
/// two stripes alias every hot word, so serial transactions keep taking
/// the token while ordinary writers are mid-commit. Reads and `AddTo`s
/// over four hot words must still sum exactly and replay clean, every
/// serial-bit abort must count as a locked abort, and the serial path
/// must actually run.
#[test]
fn serial_gate_holds_under_escalation_and_aliasing() {
    const THREADS: u64 = 4;
    const TXS_PER_THREAD: usize = 3_000;
    let hot: Vec<WordAddr> = (0..4).map(|i| WordAddr(i * 8)).collect();
    let mut serial_commits = 0;
    cases(60, 0x0057_A77F, |rng| {
        let mut sys = StmBuilder::new()
            .seed(rng.gen_range(0, u64::MAX))
            .max_retries(1)
            .n_stripes(2)
            .check_serializability(true)
            .build();
        let mut expected = [0u64; 4];
        for _ in 0..THREADS {
            let txs = (0..TXS_PER_THREAD)
                .map(|_| {
                    vec_of(rng, 1, 4, |rng| {
                        let k = rng.gen_index(hot.len());
                        if rng.gen_range(0, 2) == 0 {
                            ScriptOp::Read(hot[k])
                        } else {
                            let delta = rng.gen_range(1, 8);
                            expected[k] += delta;
                            ScriptOp::AddTo(hot[k], delta)
                        }
                    })
                })
                .collect();
            sys.add_thread(Box::new(TxScript::new(txs)));
        }
        let r = sys.run().expect("run completes");
        let errs = sys.finish_checks();
        assert!(errs.is_empty(), "oracle clean: {errs:?}");
        for (&a, &want) in hot.iter().zip(&expected) {
            assert_eq!(sys.read_word(a), want, "word {}", a.0);
        }
        assert_eq!(r.commits, THREADS * TXS_PER_THREAD as u64);
        assert_eq!(r.aborts_locked + r.aborts_stale, r.aborts);
        serial_commits += r.serial_commits;
    });
    assert!(serial_commits > 0, "no transaction escalated");
}
