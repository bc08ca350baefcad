//! The workload-facing programming model.
//!
//! A workload is a set of [`ThreadProgram`]s, one per simulated thread. The
//! system repeatedly asks each program for its next [`Op`]; the op executes
//! against the simulated memory system with full coherence/TM semantics and
//! its result is delivered through [`ProgCtx::last_value`] at the next
//! `next_op` call. This mirrors how the paper drives GEMS from Simics: the
//! memory model sees a reference stream with explicit transaction markers
//! ("magic" instructions).

use ltse_mem::WordAddr;
use ltse_sim::rng::Xoshiro256StarStar;
use ltse_sim::Cycle;

/// One operation a thread asks the system to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Load a word; its value arrives in [`ProgCtx::last_value`].
    Read(WordAddr),
    /// Store a word (transactional when inside a transaction: the old value
    /// is logged first, eager version management).
    Write(WordAddr, u64),
    /// Atomic compare-and-swap; `last_value` receives the *old* value (the
    /// CAS succeeded iff `last_value == expected`). Used by the lock
    /// baseline.
    Cas {
        /// Word to update.
        addr: WordAddr,
        /// Expected old value.
        expected: u64,
        /// Value to install on match.
        new: u64,
    },
    /// Atomic fetch-and-add; `last_value` receives the old value.
    FetchAdd(WordAddr, u64),
    /// Compute for the given number of cycles without touching memory.
    Work(u64),
    /// Begin a (closed-nested when already in a transaction) transaction.
    TxBegin,
    /// Begin an open-nested transaction (must already be in a transaction).
    TxBeginOpen,
    /// Commit the innermost transaction.
    TxCommit,
    /// Enter an escape action: subsequent accesses are non-transactional
    /// (no signature insertion, no logging) until [`Op::EscapeEnd`].
    EscapeBegin,
    /// Leave an escape action.
    EscapeEnd,
    /// Mark one unit of work complete (the paper's Table 2 throughput
    /// metric). Free.
    WorkUnitDone,
    /// This thread has finished.
    Done,
}

/// Per-thread context handed to [`ThreadProgram::next_op`].
#[derive(Debug)]
pub struct ProgCtx<'a> {
    /// This thread's id.
    pub thread_id: u32,
    /// Result of the most recent *value-producing* op (a load's value, a
    /// CAS/fetch-add's old value). Ops without results — `Work`, `TxBegin`,
    /// `TxCommit`, escapes, `WorkUnitDone` — leave it unchanged, so a value
    /// read before computing survives until it is used.
    pub last_value: u64,
    /// Current simulated time.
    pub now: Cycle,
    /// This thread's deterministic RNG stream.
    pub rng: &'a mut Xoshiro256StarStar,
}

/// A resumable thread program.
///
/// Programs are state machines: each `next_op` call returns the next
/// operation, and the program advances its internal state. When the
/// enclosing transaction aborts, the system calls
/// [`ThreadProgram::on_tx_abort`]; the program must rewind its state so the
/// *next* `next_op` call re-issues the `TxBegin` of the aborted transaction
/// (the register-checkpoint restore of real hardware).
///
/// Programs must be [`Send`]: a whole configured [`crate::System`] (threads
/// included) crosses OS-thread boundaries when experiment sweeps fan out
/// over the parallel runner (`ltse_sim::parallel`).
pub trait ThreadProgram: Send {
    /// Produce the next operation.
    fn next_op(&mut self, t: &mut ProgCtx) -> Op;

    /// The current transaction aborted (after its log was unrolled). Rewind
    /// to re-issue `TxBegin`.
    fn on_tx_abort(&mut self, t: &mut ProgCtx);

    /// A *partial* abort (paper §3.2): only the innermost nested frame was
    /// unrolled; `remaining_depth` frames are still live. Return `true` if
    /// the program can rewind to re-issue the aborted inner `TxBegin`;
    /// returning `false` (the default) makes the system abort the remaining
    /// frames too and call [`ThreadProgram::on_tx_abort`].
    fn on_partial_abort(&mut self, t: &mut ProgCtx, remaining_depth: usize) -> bool {
        let _ = (t, remaining_depth);
        false
    }
}

/// A program built from a closure, for tests and simple scripts.
///
/// The closure receives `(ctx, abort_flag)` where `abort_flag` is `true`
/// on the first call after an abort.
///
/// ```
/// use logtm_se::{Op, FnProgram, WordAddr};
///
/// let mut hits = 0;
/// let _p = FnProgram::new(move |_t, _aborted| {
///     hits += 1;
///     if hits > 3 { Op::Done } else { Op::Read(WordAddr(0)) }
/// });
/// ```
pub struct FnProgram<F> {
    f: F,
    aborted: bool,
}

impl<F: FnMut(&mut ProgCtx, bool) -> Op + Send> FnProgram<F> {
    /// Wraps a closure as a program.
    pub fn new(f: F) -> Self {
        FnProgram { f, aborted: false }
    }
}

impl<F: FnMut(&mut ProgCtx, bool) -> Op + Send> ThreadProgram for FnProgram<F> {
    fn next_op(&mut self, t: &mut ProgCtx) -> Op {
        let aborted = std::mem::take(&mut self.aborted);
        (self.f)(t, aborted)
    }

    fn on_tx_abort(&mut self, _t: &mut ProgCtx) {
        self.aborted = true;
    }
}

/// One step of a [`TxScript`] transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptOp {
    /// Load a word.
    Read(WordAddr),
    /// Store a literal value.
    Write(WordAddr, u64),
    /// Load the word, then store `loaded + delta` as two separate ops — an
    /// increment that is atomic only thanks to the enclosing transaction,
    /// the canonical racy unit for the schedule explorer.
    AddTo(WordAddr, u64),
    /// Atomic fetch-and-add of `delta`.
    FetchAdd(WordAddr, u64),
    /// Compute for the given cycles without touching memory.
    Work(u64),
}

/// A declarative transactional program: a list of transactions, each a
/// sequence of [`ScriptOp`]s. Every transaction is automatically wrapped in
/// `TxBegin`/`TxCommit`, followed by a `WorkUnitDone`; an abort rewinds to
/// the failed transaction's `TxBegin`. Purpose-built for the schedule
/// explorer's differential tests, where workloads must be tiny, restartable,
/// and oblivious to the interleaving.
///
/// ```
/// use logtm_se::{SystemBuilder, TxScript, WordAddr};
///
/// let mut system = SystemBuilder::small_for_tests().seed(1).build();
/// system.add_thread(Box::new(TxScript::counter(WordAddr(0), 5)));
/// system.add_thread(Box::new(TxScript::counter(WordAddr(0), 5)));
/// system.run().expect("run completes");
/// assert_eq!(system.read_word(WordAddr(0)), 10);
/// ```
pub struct TxScript {
    txs: Vec<Vec<ScriptOp>>,
    tx_ix: usize,
    /// Cursor into the current transaction: 0 = begin; `1..=N` op `op - 1`
    /// of its `N` ops; `N+1` = commit; `N+2` = work-unit marker.
    op: usize,
    /// Sub-step within the op: an `AddTo` issues its read at 0 and its
    /// write at 1.
    sub: u8,
}

impl TxScript {
    /// A program running the given transactions in order.
    pub fn new(txs: Vec<Vec<ScriptOp>>) -> Self {
        TxScript {
            txs,
            tx_ix: 0,
            op: 0,
            sub: 0,
        }
    }

    /// `iters` transactions, each incrementing `addr` by a read-then-write
    /// pair.
    pub fn counter(addr: WordAddr, iters: usize) -> Self {
        TxScript::new(vec![vec![ScriptOp::AddTo(addr, 1)]; iters])
    }
}

impl ThreadProgram for TxScript {
    fn next_op(&mut self, t: &mut ProgCtx) -> Op {
        let Some(ops) = self.txs.get(self.tx_ix) else {
            return Op::Done;
        };
        let (op, sub) = (self.op, self.sub);
        self.op += 1;
        self.sub = 0;
        if op == 0 {
            return Op::TxBegin;
        }
        let Some(&script_op) = ops.get(op - 1) else {
            if op == ops.len() + 1 {
                return Op::TxCommit;
            }
            self.tx_ix += 1;
            self.op = 0;
            return Op::WorkUnitDone;
        };
        match (script_op, sub) {
            (ScriptOp::Read(a), _) => Op::Read(a),
            (ScriptOp::Write(a, v), _) => Op::Write(a, v),
            (ScriptOp::AddTo(a, _), 0) => {
                (self.op, self.sub) = (op, 1);
                Op::Read(a)
            }
            (ScriptOp::AddTo(a, d), _) => Op::Write(a, t.last_value.wrapping_add(d)),
            (ScriptOp::FetchAdd(a, d), _) => Op::FetchAdd(a, d),
            (ScriptOp::Work(c), _) => Op::Work(c),
        }
    }

    fn on_tx_abort(&mut self, _t: &mut ProgCtx) {
        (self.op, self.sub) = (0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(p: &mut dyn ThreadProgram, last_value: u64) -> Op {
        let mut rng = Xoshiro256StarStar::new(0);
        let mut ctx = ProgCtx {
            thread_id: 0,
            last_value,
            now: Cycle(0),
            rng: &mut rng,
        };
        p.next_op(&mut ctx)
    }

    #[test]
    fn tx_script_counter_emits_the_canonical_sequence() {
        let a = WordAddr(7);
        let mut p = TxScript::counter(a, 2);
        for round in 0..2 {
            assert_eq!(drive(&mut p, 0), Op::TxBegin, "round {round}");
            assert_eq!(drive(&mut p, 0), Op::Read(a));
            assert_eq!(drive(&mut p, 41), Op::Write(a, 42), "uses last_value");
            assert_eq!(drive(&mut p, 0), Op::TxCommit);
            assert_eq!(drive(&mut p, 0), Op::WorkUnitDone);
        }
        assert_eq!(drive(&mut p, 0), Op::Done);
    }

    #[test]
    fn tx_script_abort_rewinds_to_the_same_begin() {
        let a = WordAddr(7);
        let mut p = TxScript::counter(a, 1);
        assert_eq!(drive(&mut p, 0), Op::TxBegin);
        assert_eq!(drive(&mut p, 0), Op::Read(a));
        p.on_tx_abort(&mut ProgCtx {
            thread_id: 0,
            last_value: 0,
            now: Cycle(0),
            rng: &mut Xoshiro256StarStar::new(0),
        });
        assert_eq!(drive(&mut p, 0), Op::TxBegin, "retry from the top");
    }

    #[test]
    fn tx_script_mixed_ops_expand_in_order() {
        let mut p = TxScript::new(vec![vec![
            ScriptOp::Write(WordAddr(1), 5),
            ScriptOp::Work(9),
            ScriptOp::FetchAdd(WordAddr(2), 3),
        ]]);
        assert_eq!(drive(&mut p, 0), Op::TxBegin);
        assert_eq!(drive(&mut p, 0), Op::Write(WordAddr(1), 5));
        assert_eq!(drive(&mut p, 0), Op::Work(9));
        assert_eq!(drive(&mut p, 0), Op::FetchAdd(WordAddr(2), 3));
        assert_eq!(drive(&mut p, 0), Op::TxCommit);
        assert_eq!(drive(&mut p, 0), Op::WorkUnitDone);
        assert_eq!(drive(&mut p, 0), Op::Done);
    }

    #[test]
    fn fn_program_signals_abort_once() {
        let mut p = FnProgram::new(|_t, aborted| if aborted { Op::Done } else { Op::Work(1) });
        let mut rng = Xoshiro256StarStar::new(0);
        let mut ctx = ProgCtx {
            thread_id: 0,
            last_value: 0,
            now: Cycle(0),
            rng: &mut rng,
        };
        assert_eq!(p.next_op(&mut ctx), Op::Work(1));
        p.on_tx_abort(&mut ctx);
        assert_eq!(p.next_op(&mut ctx), Op::Done);
        assert_eq!(p.next_op(&mut ctx), Op::Work(1), "flag consumed");
    }
}
