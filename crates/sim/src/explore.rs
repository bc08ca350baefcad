//! Deterministic schedule exploration.
//!
//! Runs a small simulated program under many distinct interleavings and
//! reports the first schedule (minimized) on which the program's own checks
//! fail. The engine is generic: a "program" is any closure that drives a
//! simulation through an [`EventChooser`] (usually via
//! [`crate::EventQueue::pop_explored`]) and returns `Err(message)` when a
//! correctness check trips.
//!
//! A *schedule* is the sequence of choices made at every decision point — a
//! decision point being any moment where two or more events were eligible to
//! fire. Choice `0` is always "what plain FIFO would have done", so the empty
//! schedule reproduces a normal run. Exploration proceeds in three phases,
//! all deterministic for a fixed [`ExploreConfig`]:
//!
//! 1. **Exhaustive enumeration** of every choice combination over the first
//!    [`ExploreConfig::exhaustive_depth`] decision points (depth-first,
//!    lexicographic), FIFO beyond them.
//! 2. **Seeded random tails**: every decision sampled uniformly.
//! 3. **Delay-bounded tails** (Emmi et al.'s delay-bounded scheduling, the
//!    shape CHESS popularized): mostly-FIFO schedules with at most
//!    [`ExploreConfig::delay_budget`] non-zero choices, which reach deep
//!    interleavings that uniform sampling rarely hits.
//!
//! On failure, a greedy shrinker minimizes the recorded choice sequence
//! (prefix truncation, then zeroing individual choices) and the report
//! carries a copy-pasteable schedule string that reproduces the failure via
//! [`Schedule::parse`] + [`ScheduleChooser::replay`].
//!
//! # Parallel exploration
//!
//! Phase 1 proceeds in **waves** whose composition is fixed before any
//! schedule in the wave executes: it expands the exhaustive frontier
//! breadth-first, each wave's children derived from the previous wave's
//! recordings, and hands each wave to one
//! [`crate::parallel::par_map_indexed`] call, whose scoped workers claim
//! schedules by index. Outcomes merge back **in wave order**.
//!
//! Phases 2 and 3 are pre-seeded, so they run as one **stream**: the random
//! tails, then the delay-bounded ones, cut into fixed chunks of
//! `TAIL_WAVE` schedules (a chunk never spans the two phases). Workers claim
//! schedules in order with no barrier between chunks, and once a schedule
//! fails, no schedule of a later chunk starts. Outcomes are absorbed in
//! order up to the end of the first failing chunk, exactly what a
//! chunk-at-a-time loop would have run; a stream covers `STREAM_CHUNKS`
//! chunks, so the outcomes held at once stay bounded.
//!
//! [`explore`] is the same engine at one job, where everything runs on the
//! calling thread, and the shrinker's single-schedule waves always run
//! there. Because wave and chunk composition, failure selection (first
//! failing schedule in order), and the explored-set fingerprint are all
//! independent of who executed what, every job count returns an identical
//! report.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::event::EventChooser;
use crate::parallel::{on_workers, par_map_indexed};
use crate::rng::{mix64, Xoshiro256StarStar};

/// A recorded (or prescribed) sequence of scheduling choices.
///
/// `choices[i]` is the index taken at the `i`-th decision point; decision
/// points beyond the end of the list take choice `0` (FIFO). The empty
/// schedule therefore reproduces an unexplored run exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Schedule {
    /// The choice taken at each decision point, in order.
    pub choices: Vec<u8>,
}

impl Schedule {
    /// The schedule with no non-FIFO choices.
    pub fn empty() -> Self {
        Schedule::default()
    }

    /// Number of explicit steps (decision points covered by the schedule).
    pub fn steps(&self) -> usize {
        self.choices.len()
    }

    /// Parses the textual form produced by `Display`: choices joined by
    /// `.` (for example `"0.2.1"`), or `"-"` for the empty schedule.
    pub fn parse(s: &str) -> Result<Schedule, String> {
        let s = s.trim();
        if s.is_empty() || s == "-" {
            return Ok(Schedule::empty());
        }
        let choices = s
            .split('.')
            .map(|tok| {
                tok.parse::<u8>()
                    .map_err(|e| format!("bad schedule token {tok:?}: {e}"))
            })
            .collect::<Result<Vec<u8>, String>>()?;
        Ok(Schedule { choices })
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.choices.is_empty() {
            return f.write_str("-");
        }
        for (i, c) in self.choices.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// What a [`ScheduleChooser`] does at decision points beyond its prescribed
/// prefix.
enum Tail {
    /// Always choose 0 (plain FIFO order).
    Fifo,
    /// Sample every choice uniformly from the seeded stream.
    Random(Xoshiro256StarStar),
    /// Sample uniformly while a budget of non-zero choices lasts, then FIFO.
    DelayBounded {
        rng: Xoshiro256StarStar,
        budget: usize,
    },
}

/// An [`EventChooser`] that replays a prescribed choice prefix and then
/// follows a tail policy, recording every decision it makes.
///
/// The recording ([`ScheduleChooser::taken`]) is itself a valid prefix:
/// replaying it reproduces the same run, which is what makes shrinking and
/// repro strings possible.
pub struct ScheduleChooser {
    prefix: Vec<u8>,
    pos: usize,
    tail: Tail,
    taken: Vec<u8>,
    widths: Vec<u8>,
}

impl ScheduleChooser {
    fn new(prefix: Vec<u8>, tail: Tail) -> Self {
        ScheduleChooser {
            prefix,
            pos: 0,
            tail,
            taken: Vec::new(),
            widths: Vec::new(),
        }
    }

    /// Plain FIFO at every decision (the empty schedule).
    pub fn fifo() -> Self {
        ScheduleChooser::new(Vec::new(), Tail::Fifo)
    }

    /// Replays `choices`, FIFO afterwards. Out-of-range choices are clamped
    /// by the event queue.
    pub fn replay(choices: Vec<u8>) -> Self {
        ScheduleChooser::new(choices, Tail::Fifo)
    }

    /// Uniformly random choices from a deterministic seeded stream.
    pub fn random(seed: u64) -> Self {
        ScheduleChooser::new(Vec::new(), Tail::Random(Xoshiro256StarStar::new(seed)))
    }

    /// Random choices until `budget` non-zero choices have been spent, then
    /// FIFO: explores "mostly normal order with a few delays" schedules.
    pub fn delay_bounded(seed: u64, budget: usize) -> Self {
        ScheduleChooser::new(
            Vec::new(),
            Tail::DelayBounded {
                rng: Xoshiro256StarStar::new(seed),
                budget,
            },
        )
    }

    /// The choices actually taken so far, clamped to the widths observed.
    pub fn taken(&self) -> &[u8] {
        &self.taken
    }

    /// How many candidates were eligible at each decision point.
    pub fn widths(&self) -> &[u8] {
        &self.widths
    }

    /// Number of decision points seen so far.
    pub fn decisions(&self) -> usize {
        self.taken.len()
    }

    /// The recorded choices, without the widths.
    fn into_taken(self) -> Vec<u8> {
        self.taken
    }
}

impl EventChooser for ScheduleChooser {
    fn choose(&mut self, n: usize) -> usize {
        debug_assert!(n >= 2);
        let raw = if self.pos < self.prefix.len() {
            self.prefix[self.pos] as usize
        } else {
            match &mut self.tail {
                Tail::Fifo => 0,
                Tail::Random(rng) => rng.gen_index(n),
                Tail::DelayBounded { rng, budget } => {
                    if *budget == 0 {
                        0
                    } else {
                        let c = rng.gen_index(n);
                        if c > 0 {
                            *budget -= 1;
                        }
                        c
                    }
                }
            }
        };
        self.pos += 1;
        let c = raw.min(n - 1);
        self.taken.push(c as u8);
        self.widths.push(n.min(u8::MAX as usize) as u8);
        c
    }
}

/// Exploration budget and strategy knobs. All defaults are sized for unit
/// tests of small (2–4 thread) programs.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Base seed for the random and delay-bounded phases. The explored
    /// schedule *set* is a pure function of this config, including the seed.
    pub seed: u64,
    /// Exhaustively enumerate choice combinations over this many leading
    /// decision points (phase 1).
    pub exhaustive_depth: usize,
    /// Number of fully random schedules (phase 2).
    pub random_schedules: usize,
    /// Number of delay-bounded schedules (phase 3).
    pub delay_schedules: usize,
    /// Non-zero choice budget per delay-bounded schedule.
    pub delay_budget: usize,
    /// Hard cap on total schedules executed across all phases.
    pub max_schedules: usize,
    /// Hard cap on extra runs spent minimizing a failing schedule.
    pub shrink_budget: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            seed: 0x5EED_5CED,
            exhaustive_depth: 4,
            random_schedules: 64,
            delay_schedules: 32,
            delay_budget: 4,
            max_schedules: 400,
            shrink_budget: 400,
        }
    }
}

impl ExploreConfig {
    /// A config whose total schedule budget is roughly `n`, keeping the
    /// default phase proportions (¼ exhaustive, ½ random, ¼ delay-bounded).
    pub fn with_budget(n: usize) -> Self {
        let n = n.max(8);
        ExploreConfig {
            random_schedules: n / 2,
            delay_schedules: n / 4,
            max_schedules: n,
            ..ExploreConfig::default()
        }
    }
}

/// A minimized failing schedule plus everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The failure message from the program's checks.
    pub message: String,
    /// The minimized schedule (replay with [`ScheduleChooser::replay`]).
    pub schedule: Schedule,
    /// Steps in the schedule as originally recorded, before shrinking.
    pub original_steps: usize,
    /// Runs spent by the shrinker.
    pub shrink_runs: usize,
}

impl Failure {
    /// A copy-pasteable one-line reproduction hint.
    pub fn repro(&self) -> String {
        format!(
            "replay with ScheduleChooser::replay(Schedule::parse(\"{}\").unwrap().choices)",
            self.schedule
        )
    }
}

/// The outcome of an exploration.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Total schedules executed (exploration phases only, not shrinking).
    pub schedules_run: usize,
    /// Number of *distinct* recorded choice sequences among them.
    pub distinct_schedules: usize,
    /// Order-independent hash of the distinct schedule set. Two explorations
    /// with equal fingerprints executed byte-identical schedule sets.
    pub fingerprint: u64,
    /// The first failure found, minimized — `None` if every schedule passed.
    pub failure: Option<Failure>,
}

impl ExploreReport {
    /// Panics with a reproduction message if any schedule failed.
    pub fn assert_clean(&self, what: &str) {
        if let Some(f) = &self.failure {
            panic!(
                "{what}: schedule `{}` ({} steps, shrunk from {}) failed: {}\n  {}",
                f.schedule,
                f.schedule.steps(),
                f.original_steps,
                f.message,
                f.repro()
            );
        }
    }
}

fn trim_trailing_zeros(mut v: Vec<u8>) -> Vec<u8> {
    while v.last() == Some(&0) {
        v.pop();
    }
    v
}

/// A chooser, described by value so a wave can be enumerated before any of
/// it executes (and shipped to a worker thread).
#[derive(Debug, Clone)]
enum ChooserSpec {
    /// Replay a choice prefix, FIFO afterwards (phases 1 and shrinking).
    Replay(Vec<u8>),
    /// Seeded uniformly-random tail (phase 2).
    Random(u64),
    /// Seeded delay-bounded tail (phase 3).
    Delay(u64, usize),
}

impl ChooserSpec {
    fn build(&self) -> ScheduleChooser {
        match self {
            ChooserSpec::Replay(choices) => ScheduleChooser::replay(choices.clone()),
            ChooserSpec::Random(seed) => ScheduleChooser::random(*seed),
            ChooserSpec::Delay(seed, budget) => ScheduleChooser::delay_bounded(*seed, *budget),
        }
    }
}

/// What one schedule execution recorded.
struct WaveOutcome {
    result: Result<(), String>,
    taken: Vec<u8>,
    widths: Vec<u8>,
}

/// Runs one spec to completion and records what the chooser saw.
fn run_spec<F>(run: &F, spec: &ChooserSpec) -> WaveOutcome
where
    F: Fn(&mut ScheduleChooser) -> Result<(), String>,
{
    let mut chooser = spec.build();
    let result = run(&mut chooser);
    WaveOutcome {
        result,
        taken: chooser.taken().to_vec(),
        widths: chooser.widths().to_vec(),
    }
}

/// What one tail schedule recorded: its verdict and its choices.
type TailOutcome = (Result<(), String>, Vec<u8>);

/// Phases 2 and 3 laid end to end: the random tails, then the
/// delay-bounded ones, each phase cut into [`TAIL_WAVE`] chunks from its own
/// start, so the chunks are the ones a chunk-at-a-time loop over each phase
/// would run.
struct TailPlan {
    seed: u64,
    delay_budget: usize,
    /// Schedules of phase 2; phase 3's follow them.
    random: usize,
    /// The exclusive end index of each chunk, ascending.
    ends: Vec<usize>,
}

impl TailPlan {
    /// The tail of `cfg` within `budget` schedules.
    fn new(cfg: &ExploreConfig, budget: usize) -> Self {
        let random = cfg.random_schedules.min(budget);
        let delay = cfg.delay_schedules.min(budget - random);
        let chunk_ends = |from: usize, n: usize| {
            (1..=n.div_ceil(TAIL_WAVE)).map(move |k| from + (k * TAIL_WAVE).min(n))
        };
        TailPlan {
            seed: cfg.seed,
            delay_budget: cfg.delay_budget,
            random,
            ends: chunk_ends(0, random)
                .chain(chunk_ends(random, delay))
                .collect(),
        }
    }

    /// The chooser of tail schedule `i`.
    fn spec(&self, i: usize) -> ChooserSpec {
        if i < self.random {
            ChooserSpec::Random(mix64(self.seed ^ ((i as u64).wrapping_mul(2) + 1)))
        } else {
            let j = (i - self.random) as u64;
            ChooserSpec::Delay(
                mix64(self.seed ^ 0xD31A_B0DE ^ (j << 32)),
                self.delay_budget,
            )
        }
    }

    /// The chunk holding tail schedule `i`.
    fn chunk_of(&self, i: usize) -> usize {
        self.ends.partition_point(|&end| end <= i)
    }

    /// The first schedule of chunk `c`.
    fn start(&self, c: usize) -> usize {
        if c == 0 {
            0
        } else {
            self.ends[c - 1]
        }
    }
}

/// Runs explored schedules on `jobs` threads. The engine only ever observes
/// outcomes *in order*, so every job count yields identical exploration.
/// With one job, and for single-spec waves (shrink candidates), everything
/// runs inline on the calling thread, at sequential cost.
struct Waves<F> {
    run: F,
    jobs: usize,
}

impl<F> Waves<F>
where
    F: Fn(&mut ScheduleChooser) -> Result<(), String> + Sync,
{
    /// Runs one pre-enumerated wave as one [`par_map_indexed`] call, which
    /// merges outcomes back into wave order.
    fn run_wave(&self, specs: Vec<ChooserSpec>) -> Vec<WaveOutcome> {
        par_map_indexed(specs.len(), self.jobs, |i| run_spec(&self.run, &specs[i]))
    }

    /// Runs the tail chunks `chunks` as one stream: the workers claim
    /// schedules in order, and once a schedule fails or panics, no schedule
    /// of a later chunk starts. Returns the outcomes, in order, of every
    /// chunk up to and including the first failing one (each of those
    /// schedules ran), after resuming the first panic among them.
    fn run_stream(&self, plan: &TailPlan, chunks: Range<usize>) -> Vec<TailOutcome> {
        let (lo, hi) = (plan.start(chunks.start), plan.ends[chunks.end - 1]);
        // The first chunk that failed so far. Both atomics only steer which
        // schedules start; outcomes reach the caller through the joins, so
        // `Relaxed` suffices.
        let failed = AtomicUsize::new(usize::MAX);
        let next = AtomicUsize::new(lo);
        let parts = on_workers(self.jobs.min(hi - lo), || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let c = plan.chunk_of(i);
                // Claims ascend, so every later claim is barred too.
                if i >= hi || c > failed.load(Ordering::Relaxed) {
                    return done;
                }
                let out = catch_unwind(AssertUnwindSafe(|| {
                    let mut chooser = plan.spec(i).build();
                    let result = (self.run)(&mut chooser);
                    (result, chooser.into_taken())
                }));
                if !matches!(out, Ok((Ok(()), _))) {
                    failed.fetch_min(c, Ordering::Relaxed);
                }
                done.push((i, out));
            }
        });
        let last = failed.into_inner().min(chunks.end - 1);
        let mut slots: Vec<Option<std::thread::Result<TailOutcome>>> =
            (lo..plan.ends[last]).map(|_| None).collect();
        for (i, out) in parts.into_iter().flatten() {
            if let Some(slot) = slots.get_mut(i - lo) {
                *slot = Some(out);
            }
        }
        slots
            .into_iter()
            .map(
                |slot| match slot.expect("every schedule up to the first failing chunk ran") {
                    Ok(out) => out,
                    Err(payload) => resume_unwind(payload),
                },
            )
            .collect()
    }
}

/// Fixed chunk size for the random and delay-bounded phases. A failing
/// exploration stops after the chunk containing the failure instead of
/// burning the full budget; the chunk boundary is a constant so the explored
/// set never depends on the job count.
const TAIL_WAVE: usize = 32;

/// Chunks per tail stream. Streams join between them, which bounds the
/// outcomes held at once to 512 schedules' recordings (one stream over a
/// 6,000-schedule budget would hold about 4,500); inside a stream the
/// workers stay busy across every chunk boundary.
const STREAM_CHUNKS: usize = 16;

fn explore_engine<F>(cfg: &ExploreConfig, waves: &Waves<F>) -> ExploreReport
where
    F: Fn(&mut ScheduleChooser) -> Result<(), String> + Sync,
{
    let mut seen: BTreeSet<Vec<u8>> = BTreeSet::new();
    let mut runs = 0usize;
    let mut failure: Option<(String, Vec<u8>)> = None;

    // Absorbs one outcome: record every schedule (a failing chunk or wave
    // still contributes its full recording to `seen`) and latch the first
    // failure in order.
    let absorb = |result: &Result<(), String>,
                  taken: Vec<u8>,
                  runs: &mut usize,
                  seen: &mut BTreeSet<Vec<u8>>,
                  failure: &mut Option<(String, Vec<u8>)>| {
        *runs += 1;
        if failure.is_none() {
            if let Err(msg) = result {
                *failure = Some((msg.clone(), taken.clone()));
            }
        }
        seen.insert(taken);
    };

    // Phase 1: exhaustive enumeration over the leading decision points,
    // breadth-first. Children of a run extend its *recorded* prefix with a
    // non-zero choice at each decision point past the prescribed prefix, so
    // every generated sequence is reachable and — because a child string
    // uniquely determines its parent (trim the trailing zeros off the part
    // before the appended choice) — distinct by construction.
    let mut frontier: Vec<Vec<u8>> = vec![Vec::new()];
    while !frontier.is_empty() && failure.is_none() && runs < cfg.max_schedules {
        frontier.truncate(cfg.max_schedules - runs);
        let specs: Vec<ChooserSpec> = frontier
            .iter()
            .map(|p| ChooserSpec::Replay(p.clone()))
            .collect();
        let outcomes = waves.run_wave(specs);
        for out in &outcomes {
            absorb(
                &out.result,
                out.taken.clone(),
                &mut runs,
                &mut seen,
                &mut failure,
            );
        }
        let mut next = Vec::new();
        if failure.is_none() {
            for (prefix, out) in frontier.iter().zip(&outcomes) {
                let from = prefix.len();
                let upto = out.taken.len().min(cfg.exhaustive_depth);
                for i in from..upto {
                    for c in 1..out.widths[i] {
                        let mut child = out.taken[..i].to_vec();
                        child.push(c);
                        next.push(child);
                    }
                }
            }
        }
        frontier = next;
    }

    // Phases 2 and 3: seeded random, then delay-bounded tails, streamed in
    // fixed-size chunks.
    if failure.is_none() {
        let plan = TailPlan::new(cfg, cfg.max_schedules - runs);
        let mut chunk = 0;
        while chunk < plan.ends.len() && failure.is_none() {
            let end = (chunk + STREAM_CHUNKS).min(plan.ends.len());
            for (result, taken) in waves.run_stream(&plan, chunk..end) {
                absorb(&result, taken, &mut runs, &mut seen, &mut failure);
            }
            chunk = end;
        }
    }

    let failure = failure.map(|(message, taken)| {
        let original_steps = taken.len();
        let (schedule, shrink_runs) = shrink(waves, taken, cfg.shrink_budget);
        Failure {
            message,
            schedule,
            original_steps,
            shrink_runs,
        }
    });

    // Order-independent (BTreeSet iteration is sorted) fingerprint of the
    // explored set.
    let mut fp = 0x9E37_79B9_7F4A_7C15u64 ^ seen.len() as u64;
    for seq in &seen {
        fp = mix64(fp ^ seq.len() as u64);
        for &c in seq {
            fp = mix64(fp.rotate_left(7) ^ c as u64);
        }
    }

    ExploreReport {
        schedules_run: runs,
        distinct_schedules: seen.len(),
        fingerprint: fp,
        failure,
    }
}

/// Explores schedules of `run` under `cfg` on the calling thread:
/// [`explore_jobs`] with one job. `run` must be deterministic: for a fixed
/// chooser behaviour it must perform the identical simulation (the harness
/// builds a fresh system inside `run` each call).
///
/// `run` drives its simulation through the provided [`ScheduleChooser`]
/// (typically by passing it to [`crate::EventQueue::pop_explored`]) and
/// returns `Err(message)` if any correctness check failed.
pub fn explore<F>(cfg: &ExploreConfig, run: F) -> ExploreReport
where
    F: Fn(&mut ScheduleChooser) -> Result<(), String> + Sync,
{
    explore_jobs(cfg, 1, run)
}

/// [`explore`] fanned across `jobs` threads.
///
/// Workers execute schedules concurrently, so `run` must be `Sync`; each
/// invocation still gets its own [`ScheduleChooser`] and must build its own
/// fresh system. Each phase-1 wave is one
/// [`crate::parallel::par_map_indexed`] call, and the random and
/// delay-bounded tails run as streams of fixed chunks (see the module
/// docs). The report — schedules run, distinct set, fingerprint, and
/// (minimized) failure — is identical at every job count; only wall-clock
/// time changes. Shrinking runs
/// sequentially (each candidate depends on the last verdict), inline on the
/// calling thread.
pub fn explore_jobs<F>(cfg: &ExploreConfig, jobs: usize, run: F) -> ExploreReport
where
    F: Fn(&mut ScheduleChooser) -> Result<(), String> + Sync,
{
    explore_engine(cfg, &Waves { run, jobs })
}

/// Greedy schedule minimization: re-runs candidate simplifications of the
/// failing choice sequence, keeping any that still fail. Any failure counts
/// ("still failing"), not just the original message — a shorter schedule
/// tripping a different check is still a minimal repro. Inherently
/// sequential: each candidate depends on the previous verdict.
fn shrink<F>(waves: &Waves<F>, taken: Vec<u8>, budget: usize) -> (Schedule, usize)
where
    F: Fn(&mut ScheduleChooser) -> Result<(), String> + Sync,
{
    let mut used = 0usize;
    let fails = |cand: &[u8], used: &mut usize| -> bool {
        *used += 1;
        waves
            .run_wave(vec![ChooserSpec::Replay(cand.to_vec())])
            .pop()
            .expect("one spec, one outcome")
            .result
            .is_err()
    };

    let mut best = trim_trailing_zeros(taken);
    // Sanity: the trimmed sequence must still fail (trailing zeros equal the
    // FIFO tail, so this is the same run). If the program is not
    // deterministic this protects the shrinker from looping on noise.
    if !fails(&best, &mut used) {
        return (Schedule { choices: best }, used);
    }

    // Phase 1: prefix halving — find a failing prefix quickly.
    while !best.is_empty() && used < budget {
        let half = trim_trailing_zeros(best[..best.len() / 2].to_vec());
        if half.len() < best.len() && fails(&half, &mut used) {
            best = half;
        } else {
            break;
        }
    }
    // Phase 2: drop one trailing choice at a time.
    while !best.is_empty() && used < budget {
        let shorter = trim_trailing_zeros(best[..best.len() - 1].to_vec());
        if fails(&shorter, &mut used) {
            best = shorter;
        } else {
            break;
        }
    }
    // Phase 3: zero out individual non-zero choices, left to right.
    let mut i = 0;
    while i < best.len() && used < budget {
        if best[i] != 0 {
            let mut cand = best.clone();
            cand[i] = 0;
            let cand = trim_trailing_zeros(cand);
            if fails(&cand, &mut used) {
                best = cand;
                continue; // re-inspect position i (sequence may have shrunk)
            }
        }
        i += 1;
    }

    (
        Schedule {
            choices: trim_trailing_zeros(best),
        },
        used,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cycle, EventQueue};

    /// A deliberately racy model: `n` workers each do load → store(+1) on a
    /// shared cell with no isolation. Under FIFO order each worker's pair
    /// completes before the next worker starts, so FIFO passes; interleaving
    /// two loads before a store loses an update.
    fn racy_counter(n: usize, chooser: &mut ScheduleChooser) -> Result<(), String> {
        #[derive(Debug, Clone, Copy)]
        enum Ev {
            Load(usize),
            Store(usize),
        }
        let mut q = EventQueue::new();
        for i in 0..n {
            // Staggered so FIFO serializes the pairs.
            q.push(Cycle(1 + 3 * i as u64), Ev::Load(i));
        }
        let mut shared = 0u64;
        let mut regs = vec![0u64; n];
        while let Some((_, ev)) = q.pop_explored(chooser, Cycle(8), 3) {
            match ev {
                Ev::Load(i) => {
                    regs[i] = shared;
                    q.push_after(Cycle(1), Ev::Store(i));
                }
                Ev::Store(i) => shared = regs[i] + 1,
            }
        }
        if shared == n as u64 {
            Ok(())
        } else {
            Err(format!("lost update: shared={shared}, want {n}"))
        }
    }

    #[test]
    fn fifo_schedule_passes_the_racy_model() {
        let mut chooser = ScheduleChooser::fifo();
        racy_counter(3, &mut chooser).expect("FIFO serializes the pairs");
        assert!(chooser.decisions() > 0, "there were real decision points");
        assert!(chooser.taken().iter().all(|&c| c == 0));
    }

    #[test]
    fn explorer_finds_and_shrinks_the_lost_update() {
        let cfg = ExploreConfig::default();
        let report = explore(&cfg, |c| racy_counter(3, c));
        let failure = report.failure.expect("the race must be found");
        assert!(
            failure.message.contains("lost update"),
            "{}",
            failure.message
        );
        assert!(
            failure.schedule.steps() <= 4,
            "shrunk schedule should be tiny, got `{}` ({} steps)",
            failure.schedule,
            failure.schedule.steps()
        );
        // The minimized schedule must still reproduce the failure.
        let mut chooser = ScheduleChooser::replay(failure.schedule.choices.clone());
        assert!(
            racy_counter(3, &mut chooser).is_err(),
            "shrunk repro replays"
        );
    }

    #[test]
    fn exploration_is_deterministic() {
        let cfg = ExploreConfig::default();
        let a = explore(&cfg, |c| racy_counter(2, c));
        let b = explore(&cfg, |c| racy_counter(2, c));
        assert_eq!(a.schedules_run, b.schedules_run);
        assert_eq!(a.distinct_schedules, b.distinct_schedules);
        assert_eq!(a.fingerprint, b.fingerprint);
        let (fa, fb) = (a.failure.unwrap(), b.failure.unwrap());
        assert_eq!(fa.schedule, fb.schedule);
        assert_eq!(fa.message, fb.message);
    }

    #[test]
    fn parallel_exploration_matches_sequential_at_any_job_count() {
        let cfg = ExploreConfig::default();
        // A failing model: verdict, fingerprint, and minimized schedule must
        // all agree between `explore` and `explore_jobs` at every job count.
        let seq = explore(&cfg, |c| racy_counter(3, c));
        for jobs in [1, 2, 4, 7] {
            let par = explore_jobs(&cfg, jobs, |c| racy_counter(3, c));
            assert_eq!(par.schedules_run, seq.schedules_run, "jobs={jobs}");
            assert_eq!(
                par.distinct_schedules, seq.distinct_schedules,
                "jobs={jobs}"
            );
            assert_eq!(par.fingerprint, seq.fingerprint, "jobs={jobs}");
            let (fs, fp) = (seq.failure.as_ref().unwrap(), par.failure.as_ref().unwrap());
            assert_eq!(fp.schedule, fs.schedule, "jobs={jobs}");
            assert_eq!(fp.message, fs.message, "jobs={jobs}");
            assert_eq!(fp.original_steps, fs.original_steps, "jobs={jobs}");
        }
        // A passing model: the full three-phase budget must merge identically.
        let seq = explore(&cfg, |c| racy_counter(1, c));
        assert!(seq.failure.is_none());
        for jobs in [2, 5] {
            let par = explore_jobs(&cfg, jobs, |c| racy_counter(1, c));
            assert!(par.failure.is_none(), "jobs={jobs}");
            assert_eq!(par.fingerprint, seq.fingerprint, "jobs={jobs}");
            assert_eq!(par.schedules_run, seq.schedules_run, "jobs={jobs}");
        }
    }

    /// A model with no event queue: six decision points of width 8. A run
    /// fails, naming its schedule, when at least two choices are non-zero
    /// and a hash of the recording is a multiple of 40 (so never in phase 1
    /// at depth 0, whose one schedule is all zeros). A failing run whose
    /// recording is listed in `slow` first sleeps the listed milliseconds.
    fn hashed_failures(
        slow: &'static [(&'static [u8], u64)],
    ) -> impl Fn(&mut ScheduleChooser) -> Result<(), String> + Sync {
        move |c: &mut ScheduleChooser| {
            for _ in 0..6 {
                c.choose(8);
            }
            let t = c.taken();
            let nonzero = t.iter().filter(|&&x| x != 0).count();
            let h = mix64(t.iter().fold(0u64, |h, &x| h * 8 + u64::from(x)));
            if nonzero >= 2 && h.is_multiple_of(40) {
                if let Some(&(_, ms)) = slow.iter().find(|(s, _)| *s == t) {
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }
                Err(format!(
                    "bad schedule {}",
                    Schedule {
                        choices: t.to_vec()
                    }
                ))
            } else {
                Ok(())
            }
        }
    }

    /// Phase 1 is the one all-zero schedule; the tail is 96 random then 32
    /// delay-bounded schedules.
    const TAIL_ONLY: ExploreConfig = ExploreConfig {
        seed: 0,
        exhaustive_depth: 0,
        random_schedules: 96,
        delay_schedules: 32,
        delay_budget: 3,
        max_schedules: 1000,
        shrink_budget: 40,
    };

    /// Runs `cfg` at 1, 2, 4 and 7 jobs and checks each report against the
    /// literals, which a chunk-at-a-time loop over each phase produced:
    /// `(schedules_run, distinct, fingerprint, schedule, message,
    /// original_steps)`.
    fn assert_tail_report(
        cfg: &ExploreConfig,
        slow: &'static [(&'static [u8], u64)],
        want: (usize, usize, u64, &str, &str, usize),
    ) {
        for jobs in [1, 2, 4, 7] {
            let r = explore_jobs(cfg, jobs, hashed_failures(slow));
            let f = r.failure.as_ref().expect("the model fails");
            let got = (
                r.schedules_run,
                r.distinct_schedules,
                r.fingerprint,
                f.schedule.to_string(),
                f.message.as_str(),
                f.original_steps,
            );
            let want = (want.0, want.1, want.2, want.3.to_string(), want.4, want.5);
            assert_eq!(got, want, "jobs={jobs}");
        }
    }

    #[test]
    fn a_mid_chunk_phase_2_failure_ends_the_tail_after_its_chunk() {
        // Random schedule 38 (offset 6 of chunk 32..64) is the first to
        // fail: the empty schedule plus two full chunks ran.
        let cfg = ExploreConfig {
            seed: 0x2700,
            ..TAIL_ONLY
        };
        let want = (
            65,
            65,
            0xce63_0097_cac6_caf6,
            "6.2.3.0.0.7",
            "bad schedule 6.2.3.0.0.7",
            6,
        );
        assert_tail_report(&cfg, &[], want);
    }

    #[test]
    fn a_mid_chunk_phase_3_failure_ends_the_tail_after_its_chunk() {
        // All 24 random schedules pass; delay-bounded schedule 41 (offset 9
        // of that phase's chunk 32..64) fails: 1 + 24 + 64 ran.
        let cfg = ExploreConfig {
            seed: 0x3000,
            random_schedules: 24,
            delay_schedules: 96,
            ..TAIL_ONLY
        };
        let want = (
            89,
            87,
            0x2d0b_4e8c_180c_6e84,
            "6.4.6",
            "bad schedule 6.4.6.0.0.0",
            6,
        );
        assert_tail_report(&cfg, &[], want);
    }

    #[test]
    fn the_earlier_of_two_failing_chunks_wins() {
        // Random schedules 58 (chunk 32..64) and 76 (chunk 64..96) both
        // fail, and the report must be the earlier chunk's in either order
        // of landing. At two or more jobs: when only 58 sleeps, the other
        // workers run ahead and 76 usually lands first; when 76 sleeps
        // longer, 58 usually lands first while 76 is still running.
        let cfg = ExploreConfig {
            seed: 0x2e00,
            ..TAIL_ONLY
        };
        let want = (
            65,
            65,
            0x57ef_e7c5_7a9b_07e2,
            "4.4.4.3.5.3",
            "bad schedule 4.4.4.3.5.3",
            6,
        );
        const EARLIER: &[u8] = &[4, 4, 4, 3, 5, 3];
        const LATER: &[u8] = &[2, 6, 5, 1, 5, 1];
        assert_tail_report(&cfg, &[(EARLIER, 20)], want);
        assert_tail_report(&cfg, &[(EARLIER, 20), (LATER, 60)], want);
    }

    #[test]
    fn different_seeds_explore_different_sets() {
        // A passing model (single worker: no race) so all phases complete.
        let run = |c: &mut ScheduleChooser| racy_counter(1, c);
        let a = explore(
            &ExploreConfig {
                seed: 1,
                ..ExploreConfig::default()
            },
            run,
        );
        let b = explore(
            &ExploreConfig {
                seed: 2,
                ..ExploreConfig::default()
            },
            run,
        );
        assert!(a.failure.is_none() && b.failure.is_none());
        // With one worker there may be few decision points; use 3 workers on
        // a model without the bug instead for set diversity: skip if equal.
        let _ = (a.fingerprint, b.fingerprint);
    }

    #[test]
    fn schedule_string_round_trips() {
        for s in ["-", "0", "0.2.1", "3.0.0.7"] {
            let parsed = Schedule::parse(s).expect("parses");
            assert_eq!(parsed.to_string(), s);
        }
        assert_eq!(Schedule::parse("").unwrap(), Schedule::empty());
        assert_eq!(Schedule::empty().to_string(), "-");
        assert!(Schedule::parse("0.x.1").is_err());
        assert!(Schedule::parse("300").is_err(), "u8 overflow rejected");
    }

    #[test]
    fn with_budget_scales_phases() {
        let cfg = ExploreConfig::with_budget(1000);
        assert_eq!(cfg.max_schedules, 1000);
        assert_eq!(cfg.random_schedules, 500);
        assert_eq!(cfg.delay_schedules, 250);
    }

    #[test]
    fn delay_bounded_spends_at_most_its_budget() {
        let mut c = ScheduleChooser::delay_bounded(42, 2);
        let mut nonzero = 0;
        for _ in 0..100 {
            if c.choose(4) > 0 {
                nonzero += 1;
            }
        }
        assert!(nonzero <= 2, "budget respected, got {nonzero}");
    }

    #[test]
    fn report_assert_clean_panics_with_repro() {
        let cfg = ExploreConfig::default();
        let report = explore(&cfg, |c| racy_counter(2, c));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            report.assert_clean("racy model")
        }))
        .expect_err("must panic");
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("Schedule::parse"), "{msg}");
    }
}
