//! Executing [`ThreadProgram`]s on real OS threads over the TL2 core, with
//! commit-order recording and differential replay through the
//! [`SerializabilityOracle`].
//!
//! [`StmSystem`] mirrors the simulator's `System` surface — `add_thread`,
//! `poke_word`, `run`, `read_word`, `finish_checks` — so workloads and tests
//! drive either backend through the same motions (and, via the `TmBackend`
//! trait in `logtm-se`, through the same trait object).
//!
//! # Op semantics on the STM backend
//!
//! * `TxBegin`/`TxCommit` bracket a TL2 transaction. Closed nesting is
//!   *flattened* (a depth counter; only the outermost commit publishes), the
//!   standard STM treatment. `TxBeginOpen` is flattened too — the STM has no
//!   open-nesting early release, so an "open" child simply joins its parent;
//!   this is a semantics *refinement* (more isolation, never less), so every
//!   history it admits is one the oracle accepts.
//! * Aborts always roll back the whole nest ([`ThreadProgram::on_tx_abort`];
//!   `on_partial_abort` is never invoked), then back off exponentially with
//!   jitter and retry. After [`StmConfig::max_retries`] consecutive aborts
//!   the retry runs under the serial token and cannot fail.
//! * Ops outside any transaction run as single-op TL2 transactions, giving
//!   them a commit timestamp so the replay can order them — the execution-
//!   order serialization the oracle assumes for bare accesses.
//! * Escape actions: reads bypass the STM entirely (forwarding from the
//!   enclosing write buffer, like eager hardware where transactional stores
//!   are in place); writes and RMWs run as their own mini transactions and
//!   are recorded separately so they survive an enclosing abort, matching
//!   `SerializabilityOracle::escape_write` semantics.
//!
//! # Replay ordering
//!
//! Every committed record carries a serialization version: a writer's unique
//! write version, or a read-only transaction's read timestamp. Records
//! replay sorted by `(version, writers-first, thread, per-thread seq)`:
//! writers sort before read-only records at the same version because a
//! read-only transaction at `rv` observed every write version `≤ rv`. Within
//! a thread this order provably preserves program order (versions never
//! decrease along a thread, and a later writer's version strictly exceeds
//! any earlier record's).
//!
//! The worker threads themselves are *scheduled by the OS* — unlike the
//! simulator there is no deterministic interleaving. Determinism lives one
//! level up: program streams are seeded, and whatever interleaving the OS
//! produces must replay cleanly, every run, or `finish_checks` reports it.

use std::time::{Duration, Instant};

use logtm_se::{BackoffKind, ContentionPolicy, Cycle, Op, ProgCtx, ThreadProgram, WordAddr};
use ltse_mem::SerializabilityOracle;
use ltse_sim::config::seed_sequence;
use ltse_sim::obs::ObsReport;
use ltse_sim::rng::Xoshiro256StarStar;

use crate::core::{CommitInfo, Conflict, SerialToken, Stm, StmConfig, Tx};

/// A fatal execution error. Transient conflicts never surface here — they
/// abort and retry inside the run; these are the ways a run can genuinely
/// fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StmError {
    /// `run` was called with no threads added.
    NoThreads,
    /// `run` was called twice.
    AlreadyRan,
    /// A thread exceeded [`StmConfig::max_ops_per_thread`] — a wedged or
    /// divergent workload.
    OpLimit {
        /// The offending thread.
        thread: u32,
    },
    /// The shared word table ran out of slots.
    TableFull {
        /// The thread whose access overflowed it.
        thread: u32,
    },
    /// A program broke the op protocol (commit without begin, `Done` inside
    /// a transaction, escape-end without escape-begin, …).
    Protocol {
        /// The offending thread.
        thread: u32,
        /// What it did.
        msg: String,
    },
    /// A worker thread panicked.
    WorkerPanic {
        /// The thread that panicked.
        thread: u32,
        /// The panic payload, if it was a string.
        msg: String,
    },
}

impl std::fmt::Display for StmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StmError::NoThreads => f.write_str("no threads added"),
            StmError::AlreadyRan => f.write_str("run() called twice"),
            StmError::OpLimit { thread } => {
                write!(f, "thread {thread} exceeded the per-thread op watchdog")
            }
            StmError::TableFull { thread } => {
                write!(f, "thread {thread} overflowed the stm word table")
            }
            StmError::Protocol { thread, msg } => {
                write!(f, "thread {thread} broke the op protocol: {msg}")
            }
            StmError::WorkerPanic { thread, msg } => {
                write!(f, "worker thread {thread} panicked: {msg}")
            }
        }
    }
}

impl std::error::Error for StmError {}

/// One replayable operation of a committed record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecOp {
    /// A committed load that observed `seen`.
    Read { word: u64, seen: u64 },
    /// A committed store.
    Write { word: u64, value: u64 },
}

/// One committed transaction (outermost, mini, or escape) as recorded for
/// replay.
#[derive(Debug, Clone)]
struct TxRecord {
    /// Serialization version (write version, or `rv` for read-only).
    version: u64,
    /// Did it publish any write?
    writer: bool,
    /// Executing thread.
    thread: u32,
    /// Per-thread record sequence number (sort tie-break).
    seq: u64,
    /// The record's data operations, in program order.
    ops: Vec<RecOp>,
}

/// Per-thread execution counters, merged into [`StmReport`].
#[derive(Debug, Clone, Copy, Default)]
struct WorkerStats {
    commits: u64,
    aborts: u64,
    aborts_locked: u64,
    aborts_stale: u64,
    serial_commits: u64,
    serial_fallbacks: u64,
    mini_commits: u64,
    mini_aborts: u64,
    work_units: u64,
    tx_reads: u64,
    tx_writes: u64,
    max_retry_streak: u32,
}

impl WorkerStats {
    fn merge(&mut self, o: &WorkerStats) {
        self.commits += o.commits;
        self.aborts += o.aborts;
        self.aborts_locked += o.aborts_locked;
        self.aborts_stale += o.aborts_stale;
        self.serial_commits += o.serial_commits;
        self.serial_fallbacks += o.serial_fallbacks;
        self.mini_commits += o.mini_commits;
        self.mini_aborts += o.mini_aborts;
        self.work_units += o.work_units;
        self.tx_reads += o.tx_reads;
        self.tx_writes += o.tx_writes;
        self.max_retry_streak = self.max_retry_streak.max(o.max_retry_streak);
    }
}

struct WorkerOut {
    stats: WorkerStats,
    log: Vec<TxRecord>,
}

/// What an STM run produced. The real-time analogue of the simulator's
/// `RunReport`: wall-clock time instead of cycles, commit/abort counters
/// instead of protocol statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StmReport {
    /// Wall-clock duration of the run (worker spawn to last join).
    pub wall: Duration,
    /// Outermost transactional commits.
    pub commits: u64,
    /// Transactional aborts (each followed by a retry).
    pub aborts: u64,
    /// Aborts caused by hitting a stripe locked by another writer
    /// (`Conflict::Locked`). `aborts_locked + aborts_stale == aborts`.
    pub aborts_locked: u64,
    /// Aborts caused by a stripe version newer than the read timestamp
    /// (`Conflict::Stale`).
    pub aborts_stale: u64,
    /// Commits that ran under the serial fallback token.
    pub serial_commits: u64,
    /// Times a transaction escalated to the serial token after exhausting
    /// [`StmConfig::max_retries`] consecutive aborts.
    pub serial_fallbacks: u64,
    /// Single-op transactions for accesses outside any transaction.
    pub mini_commits: u64,
    /// Retries of those single-op transactions.
    pub mini_aborts: u64,
    /// Work units completed (the paper's Table 2 throughput metric).
    pub work_units: u64,
    /// Transactional reads that reached commit recording.
    pub tx_reads: u64,
    /// Transactional writes that reached commit recording.
    pub tx_writes: u64,
    /// Worst consecutive-abort streak any transaction suffered.
    pub max_retry_streak: u32,
    /// Threads that ran to `Op::Done`.
    pub threads_completed: usize,
}

impl StmReport {
    /// Work units per wall-clock millisecond — the STM-side throughput
    /// number `BENCH_stm.json` compares against the simulator's
    /// units-per-kilocycle.
    pub fn units_per_ms(&self) -> f64 {
        let ms = self.wall.as_secs_f64() * 1e3;
        if ms <= 0.0 {
            0.0
        } else {
            self.work_units as f64 / ms
        }
    }
}

/// Configures and builds an [`StmSystem`] — the STM counterpart of the
/// simulator's `SystemBuilder`.
///
/// ```
/// use ltse_stm::StmBuilder;
/// use logtm_se::{TxScript, WordAddr};
///
/// let mut sys = StmBuilder::new().seed(7).check_serializability(true).build();
/// sys.poke_word(WordAddr(0), 5);
/// for _ in 0..4 {
///     sys.add_thread(Box::new(TxScript::counter(WordAddr(0), 25)));
/// }
/// let report = sys.run().expect("run completes");
/// assert_eq!(report.commits, 100);
/// assert_eq!(sys.read_word(WordAddr(0)), 105, "atomicity held");
/// assert!(sys.finish_checks().is_empty(), "history serializes");
/// ```
#[derive(Debug, Clone)]
pub struct StmBuilder {
    cfg: StmConfig,
    seed: u64,
    check: bool,
}

impl Default for StmBuilder {
    fn default() -> Self {
        StmBuilder::new()
    }
}

impl StmBuilder {
    /// Defaults: production-sized stripes/table, checking off.
    pub fn new() -> Self {
        StmBuilder {
            cfg: StmConfig::default(),
            seed: 1,
            check: false,
        }
    }

    /// Base seed for the per-thread program RNG streams.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Lock-stripe count (rounded up to a power of two; minimum 2). Small
    /// values force distinct words to share stripes — aliasing tests use 2.
    pub fn n_stripes(mut self, n: usize) -> Self {
        self.cfg.n_stripes = n;
        self
    }

    /// Word-table capacity (distinct addresses).
    pub fn mem_slots(mut self, n: usize) -> Self {
        self.cfg.mem_slots = n;
        self
    }

    /// Consecutive aborts before the serial fallback (0 = always serial).
    pub fn max_retries(mut self, n: u32) -> Self {
        self.cfg.max_retries = n;
        self
    }

    /// Post-abort backoff tuning: base and cap spin counts.
    pub fn backoff(mut self, base: u64, cap: u64) -> Self {
        self.cfg.backoff_base = base;
        self.cfg.backoff_cap = cap;
        self
    }

    /// Contention policy (vocabulary shared with the simulator); maps onto
    /// the STM's backoff family and serial-escalation threshold — see
    /// [`policy_levers`].
    pub fn contention(mut self, policy: ContentionPolicy) -> Self {
        self.cfg.contention = policy;
        self
    }

    /// Backoff family used by policies that do not force one of their own.
    pub fn backoff_kind(mut self, kind: BackoffKind) -> Self {
        self.cfg.backoff_kind = kind;
        self
    }

    /// Pins [`ContentionPolicy::Adaptive`] to one static policy's levers
    /// (determinism tests). Ignored by static policies.
    pub fn adaptive_pin(mut self, pin: Option<ContentionPolicy>) -> Self {
        self.cfg.adaptive_pin = pin;
        self
    }

    /// Per-thread op watchdog limit.
    pub fn max_ops_per_thread(mut self, n: u64) -> Self {
        self.cfg.max_ops_per_thread = n;
        self
    }

    /// Record commit order and read values, and replay them through the
    /// [`SerializabilityOracle`] in `finish_checks`.
    pub fn check_serializability(mut self, on: bool) -> Self {
        self.check = on;
        self
    }

    /// Test-only injected bug; see [`StmConfig::fault_skip_one_writeback`].
    pub fn fault_skip_one_writeback(mut self, on: bool) -> Self {
        self.cfg.fault_skip_one_writeback = on;
        self
    }

    /// Builds the system.
    pub fn build(self) -> StmSystem {
        StmSystem {
            stm: Stm::new(self.cfg),
            programs: Vec::new(),
            seed: self.seed,
            check: self.check,
            inits: Vec::new(),
            logs: Vec::new(),
            report: None,
            ran: false,
        }
    }
}

/// A configured multi-threaded STM run: programs in, report and (optionally)
/// an oracle-checked history out.
pub struct StmSystem {
    stm: Stm,
    programs: Vec<Box<dyn ThreadProgram>>,
    seed: u64,
    check: bool,
    inits: Vec<(u64, u64)>,
    logs: Vec<TxRecord>,
    report: Option<StmReport>,
    ran: bool,
}

impl std::fmt::Debug for StmSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StmSystem")
            .field("threads", &self.programs.len())
            .field("seed", &self.seed)
            .field("check", &self.check)
            .field("ran", &self.ran)
            .finish_non_exhaustive()
    }
}

impl StmSystem {
    /// Adds a program; returns its thread id.
    pub fn add_thread(&mut self, program: Box<dyn ThreadProgram>) -> u32 {
        self.programs.push(program);
        (self.programs.len() - 1) as u32
    }

    /// Seeds memory before the run (mirrors `System::poke_word`).
    ///
    /// # Panics
    ///
    /// Panics if the word table is already full — a configuration bug, not
    /// a runtime condition.
    pub fn poke_word(&mut self, addr: WordAddr, value: u64) {
        self.stm
            .poke_word_raw(addr.as_u64(), value)
            .expect("stm word table full during init: raise mem_slots");
        self.inits.push((addr.as_u64(), value));
    }

    /// Reads memory directly (post-run inspection).
    pub fn read_word(&self, addr: WordAddr) -> u64 {
        self.stm.read_word_raw(addr.as_u64())
    }

    /// The run's report, if `run` succeeded.
    pub fn report(&self) -> Option<&StmReport> {
        self.report.as_ref()
    }

    /// Runs every added program to completion on its own OS thread.
    pub fn run(&mut self) -> Result<StmReport, StmError> {
        if self.ran {
            return Err(StmError::AlreadyRan);
        }
        self.ran = true;
        let programs = std::mem::take(&mut self.programs);
        if programs.is_empty() {
            return Err(StmError::NoThreads);
        }
        let n = programs.len();
        let seeds = seed_sequence(self.seed, n);
        let stm = &self.stm;
        let check = self.check;

        let start = Instant::now();
        let results: Vec<Result<WorkerOut, StmError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = programs
                .into_iter()
                .zip(seeds)
                .enumerate()
                .map(|(tid, (program, seed))| {
                    scope.spawn(move || {
                        Worker::new(stm, tid as u32, seed, check).run(program)
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(tid, h)| {
                    h.join().unwrap_or_else(|payload| {
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".to_string());
                        Err(StmError::WorkerPanic {
                            thread: tid as u32,
                            msg,
                        })
                    })
                })
                .collect()
        });
        let wall = start.elapsed();

        let mut stats = WorkerStats::default();
        let mut completed = 0usize;
        for r in &results {
            match r {
                Ok(out) => {
                    stats.merge(&out.stats);
                    completed += 1;
                }
                Err(e) => return Err(e.clone()),
            }
        }
        for out in results.into_iter().flatten() {
            self.logs.extend(out.log);
        }

        let report = StmReport {
            wall,
            commits: stats.commits,
            aborts: stats.aborts,
            aborts_locked: stats.aborts_locked,
            aborts_stale: stats.aborts_stale,
            serial_commits: stats.serial_commits,
            serial_fallbacks: stats.serial_fallbacks,
            mini_commits: stats.mini_commits,
            mini_aborts: stats.mini_aborts,
            work_units: stats.work_units,
            tx_reads: stats.tx_reads,
            tx_writes: stats.tx_writes,
            max_retry_streak: stats.max_retry_streak,
            threads_completed: completed,
        };
        self.report = Some(report);
        Ok(report)
    }

    /// The run's counters re-expressed as the simulator's [`ObsReport`], so
    /// `--stats-json` rows reconcile for the STM backend the same way they
    /// do for the simulator. Retry aborts land in `aborts_conflict` (the
    /// conflict-resolution bucket — the only abort cause a TL2 STM has),
    /// with the finer cause split and the serial-fallback count exported
    /// through the metric registry. `None` before a successful `run`.
    pub fn obs_report(&self) -> Option<ObsReport> {
        let r = self.report?;
        let mut obs = ObsReport {
            aborts_conflict: r.aborts,
            spans_committed: r.commits,
            spans_aborted: r.aborts,
            ..ObsReport::default()
        };
        obs.metrics.add("stm_aborts_locked", r.aborts_locked);
        obs.metrics.add("stm_aborts_stale", r.aborts_stale);
        obs.metrics.add("stm_serial_fallbacks", r.serial_fallbacks);
        obs.metrics.add("stm_serial_commits", r.serial_commits);
        obs.metrics.add("stm_mini_commits", r.mini_commits);
        obs.metrics.add("stm_mini_aborts", r.mini_aborts);
        obs.metrics.add("stm_max_retry_streak", r.max_retry_streak as u64);
        Some(obs)
    }

    /// Replays the recorded history through a fresh [`SerializabilityOracle`]
    /// and sweeps the final memory state. Empty when the run serialized (or
    /// when checking was off). Callable repeatedly.
    pub fn finish_checks(&mut self) -> Vec<String> {
        if !self.check || self.report.is_none() {
            return Vec::new();
        }
        let mut oracle = SerializabilityOracle::new();
        for &(word, value) in &self.inits {
            oracle.init_word(word, value);
        }
        // Serialization order: version, then writers before read-only
        // transactions at the same version, then (thread, seq) — a total
        // order consistent with both the version order and every thread's
        // program order (see the module docs).
        self.logs
            .sort_by_key(|r| (r.version, !r.writer, r.thread, r.seq));
        for rec in &self.logs {
            oracle.begin(rec.thread, false);
            for op in &rec.ops {
                match *op {
                    RecOp::Read { word, seen } => oracle.read(rec.thread, word, seen),
                    RecOp::Write { word, value } => oracle.write(rec.thread, word, value),
                }
            }
            oracle.commit(rec.thread);
        }
        oracle.check_final(|word| self.stm.read_word_raw(word));
        oracle.take_errors()
    }

    /// The shared TL2 state, for tests that need raw protocol access.
    pub fn stm(&self) -> &Stm {
        &self.stm
    }
}

/// The STM's two real contention levers for one worker, derived from the
/// configured policy: which backoff family shapes a loser's wait, and the
/// consecutive-abort count at which the transaction escalates to the serial
/// token. TL2 resolves conflicts at commit time — there is no NACK matrix
/// to arbitrate — so the simulator's requester-centric policies translate
/// as:
///
/// * `RequesterStalls` — the configured family (default randomized
///   exponential): losers wait progressively longer, the stalling analogue.
/// * `RequesterAborts` — constant backoff: abort fast, retry fast.
/// * `SizeMatters` — linear backoff: waits grow with the streak but never
///   explode, approximating work-proportional politeness.
/// * `Karma` — the configured family with half the retry budget: chronic
///   losers serialize sooner, the age-priority analogue.
/// * `Adaptive` — family escalates with the streak (constant → linear →
///   randomized exponential); a pin reproduces a static policy's levers
///   exactly.
fn policy_levers(cfg: &StmConfig, streak: u32) -> (BackoffKind, u32) {
    let policy = match (cfg.contention, cfg.adaptive_pin) {
        (ContentionPolicy::Adaptive, Some(pin)) => pin,
        (p, _) => p,
    };
    match policy {
        ContentionPolicy::RequesterStalls => (cfg.backoff_kind, cfg.max_retries),
        ContentionPolicy::RequesterAborts => (BackoffKind::Constant, cfg.max_retries),
        ContentionPolicy::SizeMatters => (BackoffKind::Linear, cfg.max_retries),
        // `div_ceil` keeps the `0 = always serial` contract intact and
        // never rounds a nonzero budget down to always-serial.
        ContentionPolicy::Karma => (cfg.backoff_kind, cfg.max_retries.div_ceil(2)),
        ContentionPolicy::Adaptive => {
            let kind = if streak < 4 {
                BackoffKind::Constant
            } else if streak < 12 {
                BackoffKind::Linear
            } else {
                BackoffKind::RandExp
            };
            (kind, cfg.max_retries)
        }
    }
}

/// Post-abort backoff: yield the core (essential on single-CPU machines —
/// the conflicting thread cannot progress while we spin), then spin a
/// jittered count shaped by the backoff family.
fn backoff(rng: &mut Xoshiro256StarStar, attempt: u32, kind: BackoffKind, cfg: &StmConfig) {
    std::thread::yield_now();
    let spins = match kind {
        BackoffKind::RandExp => cfg.backoff_base.saturating_shl(attempt.min(16)),
        BackoffKind::Linear => cfg.backoff_base.saturating_mul(u64::from(attempt) + 1),
        BackoffKind::Constant => cfg.backoff_base,
    }
    .min(cfg.backoff_cap)
    .max(1);
    let jitter = rng.gen_range(spins / 2 + 1, spins + 2);
    for _ in 0..jitter {
        std::hint::spin_loop();
    }
}

/// Consecutive-abort bookkeeping for one worker. Extracted so the reset
/// rules — the streak clears only on a real commit, never on mere
/// serial-fallback entry — are unit-testable without staging real thread
/// interleavings.
#[derive(Debug, Default, Clone, Copy)]
struct RetryState {
    /// Consecutive aborts of the current transaction attempt.
    streak: u32,
    /// Lifetime high-water streak (exported as `max_retry_streak`).
    max_streak: u32,
}

impl RetryState {
    /// Records one more consecutive abort; returns the new streak (the
    /// backoff attempt number).
    fn on_abort(&mut self) -> u32 {
        self.streak += 1;
        self.max_streak = self.max_streak.max(self.streak);
        self.streak
    }

    /// A commit ends the streak, serial or not.
    fn on_commit(&mut self) {
        self.streak = 0;
    }

    /// Whether the next begin must run under the serial token.
    fn should_escalate(&self, max_retries: u32) -> bool {
        self.streak >= max_retries
    }
}

/// Busy-work for `Op::Work`, yielding periodically so spin-wait loops
/// (TATAS locks, barriers) cannot monopolize a core.
fn spin_work(cycles: u64) {
    let mut left = cycles;
    loop {
        let chunk = left.min(256);
        for _ in 0..chunk {
            std::hint::spin_loop();
        }
        left -= chunk;
        if left == 0 {
            break;
        }
        std::thread::yield_now();
    }
}

/// One OS thread's execution state.
struct Worker<'a> {
    stm: &'a Stm,
    cfg: StmConfig,
    tid: u32,
    rng: Xoshiro256StarStar,
    check: bool,
    last_value: u64,
    ops_done: u64,
    next_seq: u64,
    /// Closed-nesting depth (flattened: one physical tx at depth ≥ 1).
    depth: usize,
    /// Escape-action nesting depth.
    escape: usize,
    /// Consecutive-abort streak driving backoff and serial escalation.
    retry: RetryState,
    /// The outermost transaction's buffers, restarted at every `TxBegin`;
    /// live while `depth > 0`.
    tx: Tx<'a>,
    /// The buffers of mini transactions, which can run inside an escape
    /// action while `tx` is live.
    mini_tx: Tx<'a>,
    token: Option<SerialToken<'a>>,
    stats: WorkerStats,
    log: Vec<TxRecord>,
    /// Data ops of the live transaction, discarded on abort.
    rec: Vec<RecOp>,
}

impl<'a> Worker<'a> {
    fn new(stm: &'a Stm, tid: u32, seed: u64, check: bool) -> Self {
        Worker {
            stm,
            cfg: *stm.config(),
            tid,
            rng: Xoshiro256StarStar::new(seed),
            check,
            last_value: 0,
            ops_done: 0,
            next_seq: 0,
            depth: 0,
            escape: 0,
            retry: RetryState::default(),
            tx: Tx::new(stm, None),
            mini_tx: Tx::new(stm, None),
            token: None,
            stats: WorkerStats::default(),
            log: Vec::new(),
            rec: Vec::new(),
        }
    }

    fn protocol(&self, msg: &str) -> StmError {
        StmError::Protocol {
            thread: self.tid,
            msg: msg.to_string(),
        }
    }

    fn push_record(&mut self, version: u64, writer: bool, ops: &[RecOp]) {
        if !self.check {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.log.push(TxRecord {
            version,
            writer,
            thread: self.tid,
            seq,
            ops: ops.to_vec(),
        });
    }

    /// Aborts the live transaction: discard state, tell the program to
    /// rewind, back off. `cause` attributes the abort in the stats (and,
    /// via [`StmSystem::obs_report`], the observability layer).
    fn abort(&mut self, program: &mut dyn ThreadProgram, cause: Conflict) {
        debug_assert!(self.token.is_none(), "serial transactions cannot abort");
        self.token = None;
        self.depth = 0;
        self.escape = 0;
        self.rec.clear();
        let attempt = self.retry.on_abort();
        self.stats.aborts += 1;
        match cause {
            Conflict::Locked { .. } => self.stats.aborts_locked += 1,
            Conflict::Stale { .. } => self.stats.aborts_stale += 1,
            // TableFull is fatal and handled before reaching here; count it
            // as locked-like if it ever slips through rather than panic.
            Conflict::TableFull => self.stats.aborts_locked += 1,
        }
        self.stats.max_retry_streak = self.stats.max_retry_streak.max(self.retry.max_streak);
        let mut ctx = ProgCtx {
            thread_id: self.tid,
            last_value: self.last_value,
            now: Cycle(self.ops_done),
            rng: &mut self.rng,
        };
        program.on_tx_abort(&mut ctx);
        let (kind, _) = policy_levers(&self.cfg, attempt);
        backoff(&mut self.rng, attempt, kind, &self.cfg);
    }

    /// Runs `body` + commit as a single-op transaction, retrying through
    /// transient conflicts (bounded, then serial). Used for every access
    /// outside a transaction, and for escape writes inside one.
    fn mini<R>(
        &mut self,
        mut body: impl FnMut(&mut Tx<'a>) -> Result<R, Conflict>,
    ) -> Result<(R, CommitInfo), StmError> {
        let mut retry = RetryState::default();
        loop {
            // If this worker already holds the serial token (an escape
            // action inside a serial transaction), the mini MUST run under
            // it: taking the commit read-gate from the token-holding thread
            // would self-deadlock on the RwLock.
            let (kind, max_retries) = policy_levers(&self.cfg, retry.streak);
            let escalated = if self.token.is_none() && retry.should_escalate(max_retries) {
                Some(self.stm.serial_token())
            } else {
                None
            };
            let tx = &mut self.mini_tx;
            tx.restart(self.token.as_ref().or(escalated.as_ref()));
            match body(tx).and_then(|r| tx.try_commit().map(|info| (r, info))) {
                Ok(out) => {
                    self.stats.mini_commits += 1;
                    return Ok(out);
                }
                Err(Conflict::TableFull) => {
                    return Err(StmError::TableFull { thread: self.tid })
                }
                Err(_) => {
                    drop(escalated);
                    self.stats.mini_aborts += 1;
                    let attempt = retry.on_abort();
                    backoff(&mut self.rng, attempt, kind, &self.cfg);
                }
            }
        }
    }

    fn run(mut self, mut program: Box<dyn ThreadProgram>) -> Result<WorkerOut, StmError> {
        loop {
            let op = {
                let mut ctx = ProgCtx {
                    thread_id: self.tid,
                    last_value: self.last_value,
                    now: Cycle(self.ops_done),
                    rng: &mut self.rng,
                };
                program.next_op(&mut ctx)
            };
            self.ops_done += 1;
            if self.ops_done > self.cfg.max_ops_per_thread {
                return Err(StmError::OpLimit { thread: self.tid });
            }
            match op {
                Op::Done => {
                    if self.depth > 0 {
                        return Err(self.protocol("Done inside a transaction"));
                    }
                    if self.escape > 0 {
                        return Err(self.protocol("Done inside an escape action"));
                    }
                    return Ok(WorkerOut {
                        stats: self.stats,
                        log: self.log,
                    });
                }
                Op::TxBegin => {
                    if self.escape > 0 {
                        return Err(self.protocol("TxBegin inside an escape action"));
                    }
                    if self.depth == 0 {
                        let (_, max_retries) = policy_levers(&self.cfg, self.retry.streak);
                        if self.retry.should_escalate(max_retries) {
                            self.token = Some(self.stm.serial_token());
                            self.stats.serial_fallbacks += 1;
                        }
                        self.tx.restart(self.token.as_ref());
                        self.rec.clear();
                    }
                    self.depth += 1;
                }
                Op::TxBeginOpen => {
                    if self.depth == 0 {
                        return Err(self.protocol("open-nested begin outside a transaction"));
                    }
                    self.depth += 1; // flattened, like closed nesting
                }
                Op::TxCommit => match self.depth {
                    0 => return Err(self.protocol("TxCommit without TxBegin")),
                    d if d > 1 => self.depth -= 1,
                    _ => {
                        match self.tx.try_commit() {
                            Ok(info) => {
                                self.depth = 0;
                                self.retry.on_commit();
                                self.token = None; // releases the serial gate
                                self.stats.commits += 1;
                                if info.serial {
                                    self.stats.serial_commits += 1;
                                }
                                let ops = std::mem::take(&mut self.rec);
                                self.push_record(info.version, info.writer, &ops);
                                self.rec = ops;
                            }
                            Err(Conflict::TableFull) => {
                                return Err(StmError::TableFull { thread: self.tid })
                            }
                            Err(c) => self.abort(program.as_mut(), c),
                        }
                    }
                },
                Op::EscapeBegin => self.escape += 1,
                Op::EscapeEnd => {
                    if self.escape == 0 {
                        return Err(self.protocol("EscapeEnd without EscapeBegin"));
                    }
                    self.escape -= 1;
                }
                Op::WorkUnitDone => self.stats.work_units += 1,
                Op::Work(c) => spin_work(c),
                Op::Read(a) => self.do_read(a, program.as_mut())?,
                Op::Write(a, v) => self.do_write(a, v)?,
                Op::Cas {
                    addr,
                    expected,
                    new,
                } => self.do_cas(addr, expected, new, program.as_mut())?,
                Op::FetchAdd(a, d) => self.do_fetch_add(a, d, program.as_mut())?,
            }
        }
    }

    fn do_read(&mut self, a: WordAddr, program: &mut dyn ThreadProgram) -> Result<(), StmError> {
        let word = a.as_u64();
        if self.escape > 0 {
            // Escape read: unchecked, sees the enclosing tx's buffered
            // stores (eager-hardware illusion) or raw memory.
            let buffered = if self.depth > 0 {
                self.tx.peek_buffered(word)
            } else {
                None
            };
            self.last_value = buffered.unwrap_or_else(|| self.stm.read_word_raw(word));
        } else if self.depth > 0 {
            match self.tx.read(word) {
                Ok(v) => {
                    self.last_value = v;
                    self.stats.tx_reads += 1;
                    if self.check {
                        self.rec.push(RecOp::Read { word, seen: v });
                    }
                }
                Err(Conflict::TableFull) => {
                    return Err(StmError::TableFull { thread: self.tid })
                }
                Err(c) => self.abort(program, c),
            }
        } else {
            // Bare load: a read-only mini transaction (commit cannot fail),
            // serialized at its rv. Yield after — bare loads are how lock
            // and barrier spin-waits poll, and on one core the writer we
            // are waiting for needs the CPU.
            let (v, info) = self.mini(|tx| tx.read(word))?;
            self.last_value = v;
            self.push_record(info.version, false, &[RecOp::Read { word, seen: v }]);
            std::thread::yield_now();
        }
        Ok(())
    }

    fn do_write(&mut self, a: WordAddr, v: u64) -> Result<(), StmError> {
        let word = a.as_u64();
        if self.escape == 0 && self.depth > 0 {
            self.tx.write(word, v);
            self.stats.tx_writes += 1;
            if self.check {
                self.rec.push(RecOp::Write { word, value: v });
            }
        } else {
            // Bare or escape store: its own mini transaction. Recorded as an
            // independent writer record, so (for the escape case) it stays
            // in the history even if the enclosing transaction aborts —
            // escape stores are never rolled back.
            let ((), info) = self.mini(|tx| {
                tx.write(word, v);
                Ok(())
            })?;
            self.push_record(info.version, true, &[RecOp::Write { word, value: v }]);
        }
        Ok(())
    }

    fn do_cas(
        &mut self,
        a: WordAddr,
        expected: u64,
        new: u64,
        program: &mut dyn ThreadProgram,
    ) -> Result<(), StmError> {
        let word = a.as_u64();
        if self.escape == 0 && self.depth > 0 {
            match self.tx.read(word) {
                Ok(v) => {
                    self.stats.tx_reads += 1;
                    if self.check {
                        self.rec.push(RecOp::Read { word, seen: v });
                    }
                    if v == expected {
                        self.tx.write(word, new);
                        self.stats.tx_writes += 1;
                        if self.check {
                            self.rec.push(RecOp::Write { word, value: new });
                        }
                    }
                    self.last_value = v;
                }
                Err(Conflict::TableFull) => {
                    return Err(StmError::TableFull { thread: self.tid })
                }
                Err(c) => self.abort(program, c),
            }
        } else {
            let (seen, info) = self.mini(|tx| {
                let v = tx.read(word)?;
                if v == expected {
                    tx.write(word, new);
                }
                Ok(v)
            })?;
            let swapped = seen == expected;
            let read = RecOp::Read { word, seen };
            let write = RecOp::Write { word, value: new };
            // A bare CAS records its read, an escape CAS does not; only a
            // successful one records its write.
            match (self.escape > 0, swapped) {
                (false, true) => self.push_record(info.version, true, &[read, write]),
                (false, false) => self.push_record(info.version, false, &[read]),
                (true, true) => self.push_record(info.version, true, &[write]),
                (true, false) => {}
            }
            self.last_value = seen;
            if !swapped {
                // A failed bare CAS is a lock-acquisition spin iteration.
                std::thread::yield_now();
            }
        }
        Ok(())
    }

    fn do_fetch_add(
        &mut self,
        a: WordAddr,
        d: u64,
        program: &mut dyn ThreadProgram,
    ) -> Result<(), StmError> {
        let word = a.as_u64();
        if self.escape == 0 && self.depth > 0 {
            match self.tx.read(word) {
                Ok(v) => {
                    let new = v.wrapping_add(d);
                    self.tx.write(word, new);
                    self.stats.tx_reads += 1;
                    self.stats.tx_writes += 1;
                    if self.check {
                        self.rec.push(RecOp::Read { word, seen: v });
                        self.rec.push(RecOp::Write { word, value: new });
                    }
                    self.last_value = v;
                }
                Err(Conflict::TableFull) => {
                    return Err(StmError::TableFull { thread: self.tid })
                }
                Err(c) => self.abort(program, c),
            }
        } else {
            let (seen, info) = self.mini(|tx| {
                let v = tx.read(word)?;
                tx.write(word, v.wrapping_add(d));
                Ok(v)
            })?;
            let read = RecOp::Read { word, seen };
            let write = RecOp::Write {
                word,
                value: seen.wrapping_add(d),
            };
            // An escape RMW records only its write; a bare one its read too.
            if self.escape > 0 {
                self.push_record(info.version, true, &[write]);
            } else {
                self.push_record(info.version, true, &[read, write]);
            }
            self.last_value = seen;
        }
        Ok(())
    }
}

/// `u64::checked_shl`-with-saturation helper used by [`backoff`]: shifting
/// past the width saturates instead of wrapping.
trait SaturatingShl {
    fn saturating_shl(self, rhs: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, rhs: u32) -> Self {
        self.checked_shl(rhs).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logtm_se::{FnProgram, ScriptOp, TxScript};

    fn checked(seed: u64) -> StmSystem {
        StmBuilder::new()
            .seed(seed)
            .n_stripes(64)
            .mem_slots(1 << 12)
            .check_serializability(true)
            .build()
    }

    #[test]
    fn retry_streak_resets_only_on_commit() {
        let mut r = RetryState::default();
        assert!(!r.should_escalate(2));
        assert_eq!(r.on_abort(), 1);
        assert_eq!(r.on_abort(), 2);
        assert!(r.should_escalate(2), "threshold reached");
        // Serial-fallback *entry* must not clear the streak: the escalation
        // decision is re-evaluated at every begin, and a streak silently
        // reset here would bounce a starving transaction back into the
        // optimistic path before it ever commits.
        assert!(r.should_escalate(2), "still escalated until a commit");
        r.on_commit();
        assert!(!r.should_escalate(2), "commit ends the streak");
        assert_eq!(r.max_streak, 2, "high-water survives the reset");
        assert_eq!(r.on_abort(), 1, "a new streak counts from one");
        assert_eq!(r.max_streak, 2);
    }

    #[test]
    fn policy_levers_map_each_policy() {
        let cfg = StmConfig::default();
        assert_eq!(policy_levers(&cfg, 0), (BackoffKind::RandExp, cfg.max_retries));
        let with = |p| StmConfig {
            contention: p,
            ..cfg
        };
        let m = cfg.max_retries;
        assert_eq!(
            policy_levers(&with(ContentionPolicy::RequesterAborts), 9),
            (BackoffKind::Constant, m)
        );
        assert_eq!(
            policy_levers(&with(ContentionPolicy::SizeMatters), 9),
            (BackoffKind::Linear, m)
        );
        assert_eq!(
            policy_levers(&with(ContentionPolicy::Karma), 9),
            (BackoffKind::RandExp, m.div_ceil(2)),
            "karma halves the retry budget"
        );
        let ad = with(ContentionPolicy::Adaptive);
        assert_eq!(policy_levers(&ad, 0).0, BackoffKind::Constant);
        assert_eq!(policy_levers(&ad, 5).0, BackoffKind::Linear);
        assert_eq!(policy_levers(&ad, 20).0, BackoffKind::RandExp);
        // Karma preserves the `0 = always serial` contract.
        let zero = StmConfig {
            contention: ContentionPolicy::Karma,
            max_retries: 0,
            ..cfg
        };
        assert_eq!(policy_levers(&zero, 0).1, 0);
    }

    #[test]
    fn pinned_adaptive_levers_match_the_static_policy() {
        for p in ContentionPolicy::ALL {
            if p == ContentionPolicy::Adaptive {
                continue;
            }
            let pinned = StmConfig {
                contention: ContentionPolicy::Adaptive,
                adaptive_pin: Some(p),
                ..StmConfig::default()
            };
            let fixed = StmConfig {
                contention: p,
                ..StmConfig::default()
            };
            for streak in [0, 3, 8, 40] {
                assert_eq!(
                    policy_levers(&pinned, streak),
                    policy_levers(&fixed, streak),
                    "{p:?} at streak {streak}"
                );
            }
        }
    }

    #[test]
    fn contended_counters_sum_exactly() {
        let mut sys = checked(7);
        sys.poke_word(WordAddr(0), 5);
        for _ in 0..4 {
            sys.add_thread(Box::new(TxScript::counter(WordAddr(0), 50)));
        }
        let r = sys.run().expect("run completes");
        assert_eq!(r.commits, 200);
        assert_eq!(r.work_units, 200);
        assert_eq!(r.threads_completed, 4);
        assert_eq!(sys.read_word(WordAddr(0)), 205);
        assert!(sys.finish_checks().is_empty());
    }

    #[test]
    fn mixed_script_ops_replay_clean() {
        let mut sys = checked(11);
        let (a, b) = (WordAddr(0), WordAddr(8));
        for t in 0..4u64 {
            let ops = if t % 2 == 0 {
                vec![ScriptOp::AddTo(a, 1), ScriptOp::FetchAdd(b, 2), ScriptOp::Work(20)]
            } else {
                vec![ScriptOp::FetchAdd(b, 2), ScriptOp::AddTo(a, 1)]
            };
            sys.add_thread(Box::new(TxScript::new(vec![ops; 25])));
        }
        sys.run().expect("run completes");
        assert_eq!(sys.read_word(WordAddr(0)), 100);
        assert_eq!(sys.read_word(WordAddr(8)), 200);
        assert!(sys.finish_checks().is_empty());
    }

    #[test]
    fn bare_ops_outside_transactions_serialize() {
        // A bare-CAS spinlock protecting a non-atomic counter: pure mini-tx
        // traffic, no TxBegin anywhere.
        let lock = WordAddr(100);
        let ctr = WordAddr(0);
        let mut sys = checked(3);
        for _ in 0..3 {
            let mut iters = 0u32;
            let mut step = 0u8;
            sys.add_thread(Box::new(FnProgram::new(move |t, _| {
                match step {
                    0 => {
                        if iters == 40 {
                            return Op::Done;
                        }
                        step = 1;
                        Op::Cas { addr: lock, expected: 0, new: 1 }
                    }
                    1 => {
                        if t.last_value != 0 {
                            step = 0; // lost the CAS; spin again
                            return Op::Work(10);
                        }
                        step = 2;
                        Op::Read(ctr)
                    }
                    2 => {
                        step = 3;
                        Op::Write(ctr, t.last_value + 1)
                    }
                    _ => {
                        step = 0;
                        iters += 1;
                        Op::Write(lock, 0)
                    }
                }
            })));
        }
        let r = sys.run().expect("run completes");
        assert_eq!(sys.read_word(ctr), 120, "spinlock held mutual exclusion");
        assert!(r.mini_commits > 0);
        assert_eq!(r.commits, 0);
        assert!(sys.finish_checks().is_empty());
    }

    #[test]
    fn closed_nesting_flattens() {
        let a = WordAddr(0);
        let mut sys = checked(5);
        let mut step = 0u8;
        sys.add_thread(Box::new(FnProgram::new(move |t, _| {
            step += 1;
            match step {
                1 => Op::TxBegin,
                2 => Op::TxBegin,     // closed child
                3 => Op::TxBeginOpen, // flattened too
                4 => Op::Read(a),
                5 => Op::Write(a, t.last_value + 9),
                6 | 7 => Op::TxCommit, // close the children…
                8 => Op::TxCommit,     // …then the real commit
                _ => Op::Done,
            }
        })));
        let r = sys.run().expect("run completes");
        assert_eq!(r.commits, 1, "one flattened physical transaction");
        assert_eq!(sys.read_word(a), 9);
        assert!(sys.finish_checks().is_empty());
    }

    #[test]
    fn escape_writes_survive_an_enclosing_abort() {
        let data = WordAddr(0);
        let marker = WordAddr(8);
        let mut sys = checked(9);
        let mut step = 0u8;
        let mut tries = 0u32;
        sys.add_thread(Box::new(FnProgram::new(move |t, aborted| {
            if aborted {
                step = 0;
            }
            step += 1;
            match step {
                1 => {
                    tries += 1;
                    Op::TxBegin
                }
                2 => Op::Read(data),
                3 => Op::EscapeBegin,
                // One escape store per attempt: visible even for the attempt
                // that aborts.
                4 => Op::Write(marker, tries as u64),
                5 => Op::EscapeEnd,
                6 => Op::Write(data, t.last_value + 1),
                7 => Op::TxCommit,
                _ => Op::Done,
            }
        })));
        // A second thread racing on `data` to provoke at least the chance of
        // aborts; the invariant below holds either way.
        sys.add_thread(Box::new(TxScript::counter(data, 30)));
        let r = sys.run().expect("run completes");
        assert_eq!(sys.read_word(data), 31);
        let marker_val = sys.read_word(marker);
        assert!(marker_val >= 1, "escape write applied at least once");
        assert_eq!(r.threads_completed, 2);
        assert!(sys.finish_checks().is_empty());
    }

    #[test]
    fn serial_fallback_only_still_sums() {
        let mut sys = StmBuilder::new()
            .seed(13)
            .max_retries(0) // every transaction takes the serial path
            .check_serializability(true)
            .build();
        for _ in 0..3 {
            sys.add_thread(Box::new(TxScript::counter(WordAddr(0), 20)));
        }
        let r = sys.run().expect("run completes");
        assert_eq!(r.commits, 60);
        assert_eq!(r.serial_commits, 60, "max_retries=0 serializes everything");
        assert_eq!(r.serial_fallbacks, 60, "every begin escalated");
        assert_eq!(r.aborts, 0, "serial transactions cannot abort");
        assert_eq!(sys.read_word(WordAddr(0)), 60);
        assert!(sys.finish_checks().is_empty());
    }

    #[test]
    fn max_retries_zero_runs_bare_ops_serially_too() {
        // `0` makes every transaction serial, the single-op minis of bare
        // accesses included: none may run speculatively first, so two
        // threads hammering one word never abort.
        const ADDS: u64 = 100_000;
        let mut sys = StmBuilder::new().seed(23).max_retries(0).build();
        for _ in 0..2 {
            let mut left = ADDS;
            sys.add_thread(Box::new(FnProgram::new(move |_, _| {
                if left == 0 {
                    return Op::Done;
                }
                left -= 1;
                Op::FetchAdd(WordAddr(0), 1)
            })));
        }
        let r = sys.run().expect("run completes");
        assert_eq!(r.mini_aborts, 0, "a serial mini cannot abort");
        assert_eq!(r.mini_commits, 2 * ADDS);
        assert_eq!(sys.read_word(WordAddr(0)), 2 * ADDS);
    }

    #[test]
    fn abort_causes_partition_and_obs_report_reconciles() {
        // High contention on one word with few stripes provokes aborts;
        // whatever happens, the per-cause split must partition the total
        // and the ObsReport view must reconcile with the raw report.
        let mut sys = StmBuilder::new()
            .seed(17)
            .n_stripes(2)
            .mem_slots(1 << 10)
            .check_serializability(true)
            .build();
        sys.poke_word(WordAddr(0), 0);
        for _ in 0..4 {
            sys.add_thread(Box::new(TxScript::counter(WordAddr(0), 50)));
        }
        let r = sys.run().expect("run completes");
        assert_eq!(r.aborts_locked + r.aborts_stale, r.aborts);
        let obs = sys.obs_report().expect("obs view after a successful run");
        assert_eq!(obs.abort_total(), r.aborts);
        assert_eq!(obs.aborts_conflict, r.aborts);
        assert_eq!(obs.spans_committed, r.commits);
        assert_eq!(
            obs.metrics.get("stm_aborts_locked") + obs.metrics.get("stm_aborts_stale"),
            r.aborts
        );
        assert_eq!(obs.metrics.get("stm_serial_fallbacks"), r.serial_fallbacks);
        assert!(sys.finish_checks().is_empty());
    }

    #[test]
    fn injected_writeback_fault_is_caught_by_the_oracle() {
        let run = |fault: bool| {
            let mut sys = StmBuilder::new()
                .seed(21)
                .check_serializability(true)
                .fault_skip_one_writeback(fault)
                .build();
            for _ in 0..2 {
                sys.add_thread(Box::new(TxScript::counter(WordAddr(0), 10)));
            }
            sys.run().expect("run completes");
            sys.finish_checks()
        };
        assert!(run(false).is_empty(), "healthy STM replays clean");
        let errs = run(true);
        assert!(
            !errs.is_empty(),
            "oracle must catch the dropped write-back"
        );
        let all = errs.join("; ");
        assert!(
            all.contains("expects") || all.contains("diverges"),
            "expected a replay divergence, got: {all}"
        );
    }

    #[test]
    fn run_twice_and_empty_are_errors() {
        let mut sys = StmBuilder::new().build();
        assert_eq!(sys.run(), Err(StmError::NoThreads));
        let mut sys = StmBuilder::new().build();
        sys.add_thread(Box::new(TxScript::counter(WordAddr(0), 1)));
        sys.run().expect("first run");
        assert_eq!(sys.run(), Err(StmError::AlreadyRan));
    }

    #[test]
    fn op_watchdog_fails_wedged_programs() {
        let mut sys = StmBuilder::new().max_ops_per_thread(1000).build();
        sys.add_thread(Box::new(FnProgram::new(|_, _| Op::Work(1))));
        assert_eq!(sys.run(), Err(StmError::OpLimit { thread: 0 }));
    }

    #[test]
    fn protocol_violations_are_reported() {
        let mut sys = StmBuilder::new().build();
        sys.add_thread(Box::new(FnProgram::new(|_, _| Op::TxCommit)));
        assert!(matches!(
            sys.run(),
            Err(StmError::Protocol { thread: 0, .. })
        ));
    }

    #[test]
    fn table_full_surfaces_as_a_run_error() {
        let mut sys = StmBuilder::new().mem_slots(8).build();
        sys.add_thread(Box::new(TxScript::new(vec![(0..12u64)
            .map(|i| ScriptOp::Write(WordAddr(i * 8), 1))
            .collect()])));
        assert_eq!(sys.run(), Err(StmError::TableFull { thread: 0 }));
    }
}
