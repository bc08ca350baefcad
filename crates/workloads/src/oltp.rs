//! Streaming open-loop OLTP/KV workload generator.
//!
//! Models the request-shaped traffic of a key-value/OLTP service front-end:
//! each thread is a worker draining an open-loop arrival process of short
//! multi-key transactions over a Zipfian-skewed key space. Unlike the
//! Table-2 workloads (which materialize a fixed section stream up front),
//! every transaction here is synthesized *lazily* from a per-transaction
//! PRNG seed, so a single run can commit millions of transactions in
//! bounded memory — per-thread state is a fixed-size op array plus a
//! quantized latency histogram, independent of transaction count.
//!
//! # Determinism and cross-backend equivalence
//!
//! The op stream of transaction `i` on thread `t` is a pure function of
//! `(seed, t, i)`: aborts replay the exact same reads and writes, and the
//! simulator and the STM backend execute identical per-thread streams. All
//! writes are commutative [`Op::FetchAdd`]s, so the final KV state is
//! independent of commit interleaving — the two backends must agree on
//! every key's final value ([`OltpOutcome::kv_fingerprint`]), which the
//! differential tests assert alongside the `SerializabilityOracle`.
//!
//! # Pacing and latency
//!
//! On the simulator, arrivals are *absolute simulated cycles*: a worker
//! whose next transaction is not yet due issues [`Op::Work`] until the
//! arrival time, and commit latency is `commit_cycle - arrival_cycle`,
//! which includes open-loop queueing delay when the system falls behind.
//! The STM backend runs on real threads where [`ltse_sim::Cycle`] is just
//! an op counter, so there the same gap parameter becomes think-time
//! `Op::Work` units and latency is wall-clock nanoseconds from first
//! `TxBegin` (spanning retries) to commit.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use logtm_se::{
    BackendReport, ContentionPolicy, MemConfig, Op, ProgCtx, SystemBuilder, ThreadProgram,
    TmBackend, WordAddr, MAX_CORES,
};
use ltse_sim::config::seed_sequence;
use ltse_sim::rng::{mix64, Xoshiro256StarStar};
use ltse_sim::stats::Histogram;
use ltse_stm::StmBuilder;

use crate::backend::BackendKind;

/// Words per key: one cache block, so distinct keys never share a block
/// and conflicts reflect key-level contention only.
const WORDS_PER_KEY: u64 = 8;

/// Hard cap on ops per transaction (the per-thread op buffer is this big).
pub const MAX_TX_OPS: usize = 16;

/// Latency values keep this many significant bits before being recorded,
/// bounding histogram size (≤ ~2100 distinct buckets over the full u64
/// range) at ≲3% relative error.
const LATENCY_SIG_BITS: u32 = 6;

/// Domain-separation tag mixed into the base seed before deriving
/// per-thread streams ("OLTP" in ASCII).
const SEED_TAG: u64 = 0x4f4c_5450;

/// Configuration for one open-loop OLTP run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OltpConfig {
    /// Worker threads (one open-loop client each).
    pub threads: u32,
    /// Transactions each thread must commit.
    pub txs_per_thread: u64,
    /// Key-space size; key `k` lives at word `8k`.
    pub keys: u64,
    /// Zipfian skew in `[0, 1)`; `0.0` is uniform, `0.99` is YCSB-hot.
    pub theta: f64,
    /// Percentage of ops that are reads (the rest are fetch-adds).
    pub read_pct: u8,
    /// Minimum ops per transaction (≥ 1).
    pub ops_min: u8,
    /// Maximum ops per transaction (≤ [`MAX_TX_OPS`]).
    pub ops_max: u8,
    /// Mean inter-arrival gap: simulated cycles on `sim`, think-time work
    /// units on `stm`. `0` degenerates to a closed loop.
    pub mean_gap: u64,
    /// Base seed; every thread and transaction derives from it.
    pub seed: u64,
}

impl Default for OltpConfig {
    fn default() -> Self {
        OltpConfig {
            threads: 8,
            txs_per_thread: 100,
            keys: 1024,
            theta: 0.8,
            read_pct: 80,
            ops_min: 2,
            ops_max: 8,
            mean_gap: 200,
            seed: 42,
        }
    }
}

impl OltpConfig {
    /// Total transactions the run must commit.
    pub fn total_txs(&self) -> u64 {
        self.threads as u64 * self.txs_per_thread
    }

    /// Checks parameter ranges, returning a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads == 0 {
            return Err("threads must be >= 1".into());
        }
        if self.threads as usize > MAX_CORES {
            return Err(format!("threads must be <= {MAX_CORES}"));
        }
        if self.txs_per_thread == 0 {
            return Err("txs_per_thread must be >= 1".into());
        }
        if self.keys == 0 {
            return Err("keys must be >= 1".into());
        }
        if !(0.0..1.0).contains(&self.theta) {
            return Err(format!("theta must be in [0, 1), got {}", self.theta));
        }
        if self.read_pct > 100 {
            return Err("read_pct must be <= 100".into());
        }
        if self.ops_min == 0 {
            return Err("ops_min must be >= 1".into());
        }
        if self.ops_min > self.ops_max {
            return Err("ops_min must be <= ops_max".into());
        }
        if self.ops_max as usize > MAX_TX_OPS {
            return Err(format!("ops_max must be <= {MAX_TX_OPS}"));
        }
        Ok(())
    }
}

/// YCSB-style Zipfian sampler over `[0, n)`, rank 0 hottest.
///
/// Uses the Gray et al. rejection-free inversion (the YCSB
/// `ZipfianGenerator` without item scrambling, so rank order is stable and
/// testable). Constants are precomputed once — `new` is `O(n)`, `sample`
/// is `O(1)`.
#[derive(Debug, Clone, Copy)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

impl Zipfian {
    /// Builds a sampler for `n` items with skew `theta` in `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is outside `[0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 1, "Zipfian needs n >= 1");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        if theta == 0.0 {
            return Zipfian {
                n,
                theta,
                alpha: 0.0,
                zetan: 0.0,
                eta: 0.0,
                zeta2: 0.0,
            };
        }
        let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = if n == 1 {
            0.0
        } else {
            (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan)
        };
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2,
        }
    }

    /// The probability of rank 0 (the hottest item).
    pub fn hot_mass(&self) -> f64 {
        if self.theta == 0.0 {
            1.0 / self.n as f64
        } else {
            1.0 / self.zetan
        }
    }

    /// Draws one rank in `[0, n)`.
    pub fn sample(&self, rng: &mut Xoshiro256StarStar) -> u64 {
        if self.theta == 0.0 {
            return rng.gen_range(0, self.n);
        }
        let u = rng.gen_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if self.n >= 2 && uz < self.zeta2 {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// Drops all but the top [`LATENCY_SIG_BITS`] significant bits of `v`, so
/// histograms over arbitrary latency ranges stay small.
fn quantize_latency(v: u64) -> u64 {
    let bits = 64 - v.leading_zeros();
    if bits <= LATENCY_SIG_BITS {
        v
    } else {
        let shift = bits - LATENCY_SIG_BITS;
        (v >> shift) << shift
    }
}

/// Which clock paces arrivals and measures latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PaceClock {
    /// Simulated cycles (`ProgCtx::now`): absolute open-loop arrivals.
    Cycles,
    /// Wall clock: think-time pacing, `Instant`-based latency in ns.
    Wall,
}

/// Results funnelled out of the worker programs.
#[derive(Default)]
struct Collector {
    committed: u64,
    latency: Histogram,
}

/// One synthesized transactional op.
#[derive(Debug, Clone, Copy)]
enum TxOp {
    Read(WordAddr),
    Add(WordAddr, u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for the next arrival (or done).
    Arrive,
    /// Issue `TxBegin`.
    Begin,
    /// Issue body ops, then `TxCommit`.
    Ops,
    /// The commit succeeded: record latency, advance.
    Record,
    /// All transactions committed; merged into the collector.
    Finished,
}

/// An open-loop OLTP worker: a [`ThreadProgram`] state machine that
/// synthesizes each transaction on demand from a per-transaction seed.
struct OltpProgram {
    // Immutable parameters.
    zipf: Zipfian,
    clock: PaceClock,
    thread_seed: u64,
    txs_per_thread: u64,
    read_pct: u8,
    ops_min: u8,
    ops_max: u8,
    mean_gap: u64,
    // Arrival process (advanced exactly once per transaction, never on
    // abort, so retries don't perturb the schedule).
    arrival_rng: Xoshiro256StarStar,
    arrival: u64,
    think: u64,
    // Current transaction.
    tx_ix: u64,
    ops: [TxOp; MAX_TX_OPS],
    n_ops: u8,
    op_ix: u8,
    phase: Phase,
    start_instant: Option<Instant>,
    // Results.
    hist: Histogram,
    committed: u64,
    collector: Arc<Mutex<Collector>>,
}

impl OltpProgram {
    fn new(
        cfg: &OltpConfig,
        zipf: Zipfian,
        clock: PaceClock,
        thread_seed: u64,
        collector: Arc<Mutex<Collector>>,
    ) -> Self {
        let mut p = OltpProgram {
            zipf,
            clock,
            thread_seed,
            txs_per_thread: cfg.txs_per_thread,
            read_pct: cfg.read_pct,
            ops_min: cfg.ops_min,
            ops_max: cfg.ops_max,
            mean_gap: cfg.mean_gap,
            arrival_rng: Xoshiro256StarStar::new(mix64(thread_seed ^ SEED_TAG)),
            arrival: 0,
            think: 0,
            tx_ix: 0,
            ops: [TxOp::Read(WordAddr(0)); MAX_TX_OPS],
            n_ops: 0,
            op_ix: 0,
            phase: Phase::Arrive,
            start_instant: None,
            hist: Histogram::new(),
            committed: 0,
            collector,
        };
        let gap = p.sample_gap();
        p.arrival = gap;
        p.think = gap;
        p.gen_tx();
        p
    }

    fn sample_gap(&mut self) -> u64 {
        if self.mean_gap == 0 {
            0
        } else {
            self.arrival_rng.gen_range(0, 2 * self.mean_gap + 1)
        }
    }

    /// Regenerates the op array for `tx_ix` from its derived seed. Called
    /// once per transaction — an abort keeps the array and replays it.
    fn gen_tx(&mut self) {
        let tx_tag = mix64(self.tx_ix.wrapping_add(1));
        let mut rng = Xoshiro256StarStar::new(mix64(self.thread_seed ^ tx_tag));
        let span = (self.ops_max - self.ops_min) as u64 + 1;
        self.n_ops = self.ops_min + rng.gen_range(0, span) as u8;
        for i in 0..self.n_ops as usize {
            let key = self.zipf.sample(&mut rng);
            let addr = WordAddr(key * WORDS_PER_KEY);
            self.ops[i] = if rng.gen_range(0, 100) < self.read_pct as u64 {
                TxOp::Read(addr)
            } else {
                TxOp::Add(addr, 1 + rng.gen_range(0, 8))
            };
        }
    }

    /// Moves to the next transaction after a commit.
    fn advance(&mut self) {
        self.tx_ix += 1;
        self.start_instant = None;
        if self.tx_ix < self.txs_per_thread {
            let gap = self.sample_gap();
            self.arrival = self.arrival.saturating_add(gap);
            self.think = gap;
            self.gen_tx();
        }
    }
}

impl ThreadProgram for OltpProgram {
    fn next_op(&mut self, t: &mut ProgCtx) -> Op {
        loop {
            match self.phase {
                Phase::Arrive => {
                    if self.tx_ix >= self.txs_per_thread {
                        if let Ok(mut c) = self.collector.lock() {
                            c.committed += self.committed;
                            c.latency.merge(&self.hist);
                        }
                        self.phase = Phase::Finished;
                        return Op::Done;
                    }
                    self.phase = Phase::Begin;
                    match self.clock {
                        PaceClock::Cycles => {
                            let now = t.now.as_u64();
                            if now < self.arrival {
                                return Op::Work(self.arrival - now);
                            }
                        }
                        PaceClock::Wall => {
                            if self.think > 0 {
                                return Op::Work(self.think);
                            }
                        }
                    }
                }
                Phase::Begin => {
                    if self.clock == PaceClock::Wall && self.start_instant.is_none() {
                        self.start_instant = Some(Instant::now());
                    }
                    self.op_ix = 0;
                    self.phase = Phase::Ops;
                    return Op::TxBegin;
                }
                Phase::Ops => {
                    if self.op_ix < self.n_ops {
                        let op = self.ops[self.op_ix as usize];
                        self.op_ix += 1;
                        return match op {
                            TxOp::Read(a) => Op::Read(a),
                            TxOp::Add(a, d) => Op::FetchAdd(a, d),
                        };
                    }
                    self.phase = Phase::Record;
                    return Op::TxCommit;
                }
                Phase::Record => {
                    let latency = match self.clock {
                        PaceClock::Cycles => t.now.as_u64().saturating_sub(self.arrival),
                        PaceClock::Wall => self
                            .start_instant
                            .map(|s| s.elapsed().as_nanos() as u64)
                            .unwrap_or(0),
                    };
                    self.hist.record(quantize_latency(latency));
                    self.committed += 1;
                    self.advance();
                    self.phase = Phase::Arrive;
                    return Op::WorkUnitDone;
                }
                Phase::Finished => return Op::Done,
            }
        }
    }

    fn on_tx_abort(&mut self, _t: &mut ProgCtx) {
        // Replay the same transaction: keep the op array, the arrival time,
        // and (on the wall clock) the start instant, so latency spans
        // retries and the schedule is abort-independent.
        debug_assert!(matches!(self.phase, Phase::Ops | Phase::Record));
        self.phase = Phase::Begin;
    }
}

/// The result of one [`run_oltp`] call.
#[derive(Debug, Clone)]
pub struct OltpOutcome {
    /// Which engine ran the workload.
    pub backend: BackendKind,
    /// The backend's own report (wall time, commits, aborts, …).
    pub report: BackendReport,
    /// Transactions committed as counted by the workers (one per
    /// `WorkUnitDone`); equals [`OltpConfig::total_txs`] on success.
    pub committed_txs: u64,
    /// Commit-latency histogram, quantized to ~3% relative error.
    /// Simulated cycles on `sim`, wall-clock nanoseconds on `stm`.
    pub latency: Histogram,
    /// Order-independent digest of the final KV state: XOR over
    /// `mix64(mix64(key + 1) ^ value)` for every nonzero key. Identical
    /// across backends for the same config because all writes commute.
    pub kv_fingerprint: u64,
}

impl OltpOutcome {
    /// Commit-latency percentile in permille (`500` = p50, `999` = p999).
    pub fn latency_permille(&self, p: u32) -> Option<u64> {
        self.latency.percentile_permille(p)
    }

    /// Committed transactions per wall-clock second.
    pub fn goodput_tx_per_sec(&self) -> f64 {
        let secs = self.report.wall.as_secs_f64();
        if secs > 0.0 {
            self.committed_txs as f64 / secs
        } else {
            0.0
        }
    }
}

/// Smallest core count whose `scaled_cmp` hosts `threads` contexts.
fn sim_cores_for(threads: u32) -> u16 {
    threads.max(4).min(MAX_CORES as u32) as u16
}

/// Contention-management overrides threaded into both backends by
/// [`run_oltp_with`]. `None` fields keep each backend's defaults, so
/// `PolicyTune::default()` reproduces [`run_oltp`] exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyTune {
    /// Contention policy (shared vocabulary across both backends).
    pub contention: Option<ContentionPolicy>,
    /// Consecutive-abort threshold for serial escalation: the simulator's
    /// `TmConfig::escalate_after` and the STM's `max_retries` — one knob,
    /// both serial fallbacks.
    pub escalate_after: Option<u32>,
}

/// Runs one open-loop OLTP configuration on the chosen backend.
///
/// `check` enables the serializability oracle (its replay log grows with
/// commit count, so leave it off for throughput measurement). Returns an
/// error if the config is invalid, the run fails, or the oracle objects.
pub fn run_oltp(kind: BackendKind, cfg: &OltpConfig, check: bool) -> Result<OltpOutcome, String> {
    run_oltp_with(kind, cfg, check, &PolicyTune::default())
}

/// [`run_oltp`] with contention-management overrides applied to whichever
/// backend runs (the policy-sweep experiment's entry point).
pub fn run_oltp_with(
    kind: BackendKind,
    cfg: &OltpConfig,
    check: bool,
    tune: &PolicyTune,
) -> Result<OltpOutcome, String> {
    cfg.validate()?;
    let zipf = Zipfian::new(cfg.keys, cfg.theta);
    let collector = Arc::new(Mutex::new(Collector::default()));
    let clock = match kind {
        BackendKind::Sim => PaceClock::Cycles,
        BackendKind::Stm => PaceClock::Wall,
    };
    let mut backend: Box<dyn TmBackend> = match kind {
        BackendKind::Sim => {
            let mut b = SystemBuilder::paper_default()
                .mem_config(MemConfig::scaled_cmp(sim_cores_for(cfg.threads), 1))
                .seed(cfg.seed)
                .check_serializability(check)
                .escalate_after(tune.escalate_after);
            if let Some(p) = tune.contention {
                b = b.contention(p);
            }
            Box::new(b.build())
        }
        BackendKind::Stm => {
            // One word per key is touched; size the word table well past the
            // key count so it never fills.
            let slots = cfg.keys.saturating_mul(2).next_power_of_two().max(1 << 18) as usize;
            let mut b = StmBuilder::new()
                .seed(cfg.seed)
                .mem_slots(slots)
                .check_serializability(check);
            if let Some(p) = tune.contention {
                b = b.contention(p);
            }
            if let Some(n) = tune.escalate_after {
                b = b.max_retries(n);
            }
            Box::new(b.build())
        }
    };
    for &thread_seed in &seed_sequence(cfg.seed ^ SEED_TAG, cfg.threads as usize) {
        backend.add_thread(Box::new(OltpProgram::new(
            cfg,
            zipf,
            clock,
            thread_seed,
            Arc::clone(&collector),
        )));
    }
    let report = backend.run_backend()?;
    if check {
        let errs = backend.finish_checks();
        if !errs.is_empty() {
            return Err(format!("oracle violations: {}", errs.join("; ")));
        }
    }
    let mut kv_fingerprint = 0u64;
    for k in 0..cfg.keys {
        let v = backend.read_word(WordAddr(k * WORDS_PER_KEY));
        if v != 0 {
            kv_fingerprint ^= mix64(mix64(k + 1) ^ v);
        }
    }
    let c = collector
        .lock()
        .map_err(|_| "oltp collector poisoned".to_string())?;
    Ok(OltpOutcome {
        backend: kind,
        report,
        committed_txs: c.committed,
        latency: c.latency.clone(),
        kv_fingerprint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> OltpConfig {
        OltpConfig {
            threads: 4,
            txs_per_thread: 50,
            keys: 128,
            theta: 0.6,
            read_pct: 50,
            ops_min: 2,
            ops_max: 6,
            mean_gap: 50,
            seed: 7,
        }
    }

    #[test]
    fn config_validation_rejects_bad_parameters() {
        assert!(OltpConfig::default().validate().is_ok());
        for bad in [
            OltpConfig {
                threads: 0,
                ..small()
            },
            OltpConfig {
                txs_per_thread: 0,
                ..small()
            },
            OltpConfig { keys: 0, ..small() },
            OltpConfig {
                theta: 1.0,
                ..small()
            },
            OltpConfig {
                read_pct: 101,
                ..small()
            },
            OltpConfig {
                ops_min: 0,
                ..small()
            },
            OltpConfig {
                ops_min: 9,
                ops_max: 8,
                ..small()
            },
            OltpConfig {
                ops_max: MAX_TX_OPS as u8 + 1,
                ..small()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn zipfian_theta_zero_is_uniform() {
        let z = Zipfian::new(100, 0.0);
        let mut rng = Xoshiro256StarStar::new(3);
        let mut counts = [0u64; 100];
        let draws = 100_000;
        for _ in 0..draws {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let expected = draws as f64 / 100.0;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.25, "rank {i}: {c} vs expected {expected}");
        }
    }

    #[test]
    fn zipfian_skew_concentrates_mass_on_hot_keys() {
        let n = 1000;
        let z = Zipfian::new(n, 0.99);
        let mut rng = Xoshiro256StarStar::new(11);
        let draws = 200_000u64;
        let mut hot = 0u64;
        let mut top10 = 0u64;
        for _ in 0..draws {
            let r = z.sample(&mut rng);
            if r == 0 {
                hot += 1;
            }
            if r < 10 {
                top10 += 1;
            }
        }
        // Empirical hot-key mass must sit near the analytic 1/zeta(n, θ)
        // and far above the uniform 1/n.
        let hot_frac = hot as f64 / draws as f64;
        let expect = z.hot_mass();
        assert!(
            (hot_frac - expect).abs() < 0.02,
            "hot mass {hot_frac:.4} vs analytic {expect:.4}"
        );
        assert!(hot_frac > 20.0 / n as f64, "skew missing: {hot_frac:.4}");
        assert!(
            top10 as f64 / draws as f64 > 0.35,
            "top-10 mass too small: {}",
            top10 as f64 / draws as f64
        );
    }

    #[test]
    fn quantize_keeps_small_values_exact_and_bounds_error() {
        for v in 0..64 {
            assert_eq!(quantize_latency(v), v);
        }
        for v in [1000u64, 123_456, 1 << 40, u64::MAX] {
            let q = quantize_latency(v);
            assert!(q <= v);
            assert!((v - q) as f64 / (v as f64) < 0.04, "{v} -> {q}");
        }
    }

    #[test]
    fn sim_run_is_deterministic_across_concurrent_runs() {
        // Two runs of the same config on different OS threads (as the
        // parallel sweep runner would launch them) must agree exactly.
        let cfg = small();
        let h1 = std::thread::spawn(move || run_oltp(BackendKind::Sim, &cfg, false).unwrap());
        let h2 = std::thread::spawn(move || run_oltp(BackendKind::Sim, &cfg, false).unwrap());
        let a = h1.join().unwrap();
        let b = h2.join().unwrap();
        assert_eq!(a.committed_txs, cfg.total_txs());
        assert_eq!(a.committed_txs, b.committed_txs);
        assert_eq!(a.latency, b.latency, "latency histograms must match");
        assert_eq!(a.kv_fingerprint, b.kv_fingerprint);
        assert_eq!(a.report.sim_cycles, b.report.sim_cycles);
        assert_eq!(a.report.commits, b.report.commits);
        assert_eq!(a.report.aborts, b.report.aborts);
    }

    #[test]
    fn both_backends_reach_identical_final_kv_state_under_oracle() {
        let cfg = small();
        let sim = run_oltp(BackendKind::Sim, &cfg, true).expect("sim run");
        let stm = run_oltp(BackendKind::Stm, &cfg, true).expect("stm run");
        assert_eq!(sim.committed_txs, cfg.total_txs());
        assert_eq!(stm.committed_txs, cfg.total_txs());
        assert_eq!(
            sim.kv_fingerprint, stm.kv_fingerprint,
            "commutative writes must converge to one KV state"
        );
        assert!(sim.report.sim_cycles.is_some());
        assert!(stm.report.sim_cycles.is_none());
        assert!(sim.latency_permille(500).is_some());
        assert!(stm.latency_permille(999).is_some());
    }

    #[test]
    fn streaming_keeps_histogram_bounded_at_high_tx_counts() {
        // 20k transactions on two threads: the latency histogram must stay
        // within the quantization bound (≤ ~2100 distinct values over the
        // full u64 range) rather than growing with transaction count, and
        // per-program state is a fixed array — nothing is materialized up
        // front.
        let cfg = OltpConfig {
            threads: 2,
            txs_per_thread: 10_000,
            keys: 512,
            theta: 0.5,
            read_pct: 90,
            ops_min: 1,
            ops_max: 3,
            mean_gap: 10,
            seed: 19,
        };
        let out = run_oltp(BackendKind::Sim, &cfg, false).expect("sim run");
        assert_eq!(out.committed_txs, 20_000);
        let distinct = out.latency.iter().count();
        let bound = (1 << (LATENCY_SIG_BITS - 1)) * 64 + 64;
        assert!(
            distinct <= bound,
            "{distinct} histogram entries exceeds quantization bound {bound}"
        );
        let p50 = out.latency_permille(500).unwrap();
        let p999 = out.latency_permille(999).unwrap();
        assert!(p50 <= p999);
    }

    #[test]
    fn open_loop_latency_includes_queueing_delay() {
        // A saturated open loop (tiny gap) must show commit latencies well
        // above the per-transaction service time as the backlog builds.
        let base = OltpConfig {
            threads: 4,
            txs_per_thread: 200,
            keys: 64,
            theta: 0.9,
            read_pct: 20,
            ops_min: 4,
            ops_max: 8,
            mean_gap: 1,
            seed: 23,
        };
        let relaxed = OltpConfig {
            mean_gap: 20_000,
            ..base
        };
        let hot = run_oltp(BackendKind::Sim, &base, false).unwrap();
        let cold = run_oltp(BackendKind::Sim, &relaxed, false).unwrap();
        let hot_p50 = hot.latency_permille(500).unwrap();
        let cold_p50 = cold.latency_permille(500).unwrap();
        assert!(
            hot_p50 > cold_p50,
            "saturated p50 {hot_p50} should exceed relaxed p50 {cold_p50}"
        );
    }
}
