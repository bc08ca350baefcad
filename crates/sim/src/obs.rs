//! Structured observability for transactional runs.
//!
//! The simulator's aggregate counters ([`crate::stats`], the TM layer's
//! `TmStats`) say *how many* commits, aborts, and stalls a run had; this
//! module says *why*. An [`ObsCore`] — held in an `Option` by the system
//! layer so disabled observability costs one pointer-null check per event —
//! collects:
//!
//! * **Stall attribution** ([`StallCause`]): every NACK-induced stall is
//!   classified as a coherence NACK, a same-core SMT sibling conflict, or a
//!   summary-signature trap. The cause totals reconcile exactly with the
//!   TM layer's `stalls` counter.
//! * **Abort attribution** ([`AbortCause`]): conflict-resolution aborts,
//!   summary-stall-limit self-aborts, sticky-disabled overflow aborts, and
//!   software aborts of parked transactions. Totals reconcile with `aborts`.
//! * **Detection-path split** ([`DetectPath`]): whether the NACKing
//!   conflictor still held the block in its L1 (an in-cache conflict any
//!   cache-resident HTM would also catch) or was covered only by the
//!   decoupled signature/sticky state — the paper's central decoupling
//!   claim made measurable.
//! * **Conflict judgement**: each coherence NACK re-judged against the
//!   nacker's exact shadow sets (side-effect-free), splitting true sharing
//!   from signature aliasing per *event* rather than per signature check.
//! * **Who-NACKed-whom**: a sparse (nacker context, requester context)
//!   matrix of NACK events.
//! * **Per-thread cycle breakdown** ([`CycleBreakdown`]): useful /
//!   stalled / aborted-and-undone / log-walk cycles, mirroring the paper's
//!   §6 execution-time accounting.
//! * **Transaction spans** ([`TxSpan`]): a bounded ring of per-transaction
//!   records (begin, end, outcome, stall time, NACKs) for timeline-style
//!   inspection, with drop accounting like [`crate::trace::TraceBuffer`].
//! * A free-form [`MetricRegistry`] of named counters for one-off
//!   instrumentation, iterated in deterministic (sorted) order.
//!
//! Everything here is plain deterministic data: two runs of the same
//! `(config, seed)` produce identical [`ObsReport`]s.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use crate::Cycle;

/// Why a transactional request stalled. One increment per stall event, so
/// the per-cause totals sum to the TM layer's `stalls` counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// NACKed through the coherence protocol by a remote core's signature.
    CoherenceNack,
    /// Conflict with the other SMT context on the same core (never visible
    /// to coherence, §2).
    SiblingNack,
    /// The per-context summary signature matched: a descheduled transaction
    /// may hold the block (§4.1).
    SummaryConflict,
}

impl StallCause {
    /// Stable lowercase name (used as a JSON key).
    pub fn as_str(self) -> &'static str {
        match self {
            StallCause::CoherenceNack => "coherence_nack",
            StallCause::SiblingNack => "sibling_nack",
            StallCause::SummaryConflict => "summary_conflict",
        }
    }
}

/// Why a transaction aborted. One increment per aborted transaction, so the
/// per-cause totals sum to the TM layer's `aborts` counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCause {
    /// Conflict resolution decided the requester dies (possible deadlock
    /// cycle, or a requester-aborts contention policy).
    ConflictResolution,
    /// Self-abort after stalling too long against a summary signature while
    /// holding isolation.
    SummaryStallLimit,
    /// Sticky states disabled (ablation A2): a transactional block was
    /// victimized and conflict coverage was lost, forcing a conservative
    /// abort.
    StickyOverflow,
    /// Aborted in software by another thread's summary-conflict trap
    /// handler while parked (descheduled mid-transaction, §4.1).
    ParkedBySummaryHandler,
}

impl AbortCause {
    /// Stable lowercase name (used as a JSON key).
    pub fn as_str(self) -> &'static str {
        match self {
            AbortCause::ConflictResolution => "conflict_resolution",
            AbortCause::SummaryStallLimit => "summary_stall_limit",
            AbortCause::StickyOverflow => "sticky_overflow",
            AbortCause::ParkedBySummaryHandler => "parked_by_summary_handler",
        }
    }
}

/// Where a coherence-NACKing conflict was physically detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectPath {
    /// The nacker's L1 still holds the block: a cache-resident HTM would
    /// have caught this conflict too.
    InCache,
    /// The block is gone from the nacker's L1 — only the decoupled
    /// signature (via a sticky directory state or a broadcast check) kept
    /// the conflict visible. This is the case LogTM-SE exists for.
    Sticky,
}

/// Named counters bumped from anywhere in the stack, iterated in
/// deterministic (lexicographic) order.
///
/// ```
/// use ltse_sim::obs::MetricRegistry;
///
/// let mut m = MetricRegistry::new();
/// m.bump("overflow_events");
/// m.add("log_nack_bounces", 3);
/// assert_eq!(m.get("log_nack_bounces"), 3);
/// assert_eq!(m.get("unknown"), 0);
/// let names: Vec<&str> = m.iter().map(|(n, _)| n).collect();
/// assert_eq!(names, ["log_nack_bounces", "overflow_events"]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricRegistry {
    counters: BTreeMap<&'static str, u64>,
}

impl MetricRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricRegistry::default()
    }

    /// Increments `name` by one.
    pub fn bump(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Adds `n` to `name` (saturating).
    pub fn add(&mut self, name: &'static str, n: u64) {
        let c = self.counters.entry(name).or_insert(0);
        *c = c.saturating_add(n);
    }

    /// Current value of `name` (0 if never bumped).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Iterates `(name, value)` pairs in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(n, v)| (*n, *v))
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether no counter was ever bumped.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

/// Per-thread cycle accounting in the style of the paper's §6 execution
/// breakdown. The categories are defined as:
///
/// * `useful` — time inside transactions that committed, minus the stall
///   time spent within them.
/// * `stalled` — time spent waiting out NACK/summary stalls.
/// * `aborted` — time inside transactions that ultimately aborted (the TM
///   layer's `wasted_cycles`, attributed per thread).
/// * `log_walk` — abort-handler time: trap, undo-log walk, and restore
///   traffic.
///
/// Non-transactional time (barriers, plain work) is intentionally not
/// categorized, so the four buckets do not sum to wall-clock cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Cycles in committed transactions net of their stall time.
    pub useful: u64,
    /// Cycles waiting out stalls.
    pub stalled: u64,
    /// Cycles in transactions that aborted.
    pub aborted: u64,
    /// Cycles walking undo logs in abort handlers.
    pub log_walk: u64,
}

impl CycleBreakdown {
    /// Sum of all four buckets.
    pub fn total(&self) -> u64 {
        self.useful + self.stalled + self.aborted + self.log_walk
    }

    /// Accumulates another breakdown into this one.
    pub fn merge(&mut self, o: &CycleBreakdown) {
        self.useful = self.useful.saturating_add(o.useful);
        self.stalled = self.stalled.saturating_add(o.stalled);
        self.aborted = self.aborted.saturating_add(o.aborted);
        self.log_walk = self.log_walk.saturating_add(o.log_walk);
    }
}

/// One outermost transaction's lifetime record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxSpan {
    /// Software thread id.
    pub thread: u32,
    /// Cycle the outermost begin executed.
    pub begin: Cycle,
    /// Cycle the outcome (commit or abort) was decided.
    pub end: Cycle,
    /// `true` for commit, `false` for abort.
    pub committed: bool,
    /// Stall-wait cycles accumulated during the span.
    pub stall_cycles: u64,
    /// NACK/stall events during the span.
    pub stalls: u32,
}

/// A bounded ring of [`TxSpan`]s with drop accounting, plus total
/// committed/aborted span counters that keep counting after the ring wraps.
#[derive(Debug, Clone, Default)]
struct SpanBuffer {
    spans: VecDeque<TxSpan>,
    capacity: usize,
    dropped: u64,
    committed: u64,
    aborted: u64,
}

impl SpanBuffer {
    fn new(capacity: usize) -> Self {
        SpanBuffer {
            spans: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            ..SpanBuffer::default()
        }
    }

    fn push(&mut self, span: TxSpan) {
        if span.committed {
            self.committed += 1;
        } else {
            self.aborted += 1;
        }
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.spans.len() == self.capacity {
            self.spans.pop_front();
            self.dropped += 1;
        }
        self.spans.push_back(span);
    }
}

/// A span currently open (outermost begin seen, outcome pending).
#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    begin: Cycle,
    stall_cycles: u64,
    stalls: u32,
}

#[derive(Debug, Clone, Default)]
struct ThreadObs {
    cycles: CycleBreakdown,
    open: Option<OpenSpan>,
}

/// The live observability collector. Owned (boxed, optional) by the system
/// layer; every hook is a no-op at the call site when the option is `None`.
#[derive(Debug, Clone)]
pub struct ObsCore {
    metrics: MetricRegistry,
    stall_causes: [u64; 3],
    abort_causes: [u64; 4],
    detect_in_cache: u64,
    detect_sticky: u64,
    judged_true: u64,
    judged_false: u64,
    nack_pairs: BTreeMap<(u32, u32), u64>,
    threads: Vec<ThreadObs>,
    spans: SpanBuffer,
}

fn stall_idx(cause: StallCause) -> usize {
    match cause {
        StallCause::CoherenceNack => 0,
        StallCause::SiblingNack => 1,
        StallCause::SummaryConflict => 2,
    }
}

fn abort_idx(cause: AbortCause) -> usize {
    match cause {
        AbortCause::ConflictResolution => 0,
        AbortCause::SummaryStallLimit => 1,
        AbortCause::StickyOverflow => 2,
        AbortCause::ParkedBySummaryHandler => 3,
    }
}

impl ObsCore {
    /// Creates a collector retaining at most `span_capacity` transaction
    /// spans.
    pub fn new(span_capacity: usize) -> Self {
        ObsCore {
            metrics: MetricRegistry::new(),
            stall_causes: [0; 3],
            abort_causes: [0; 4],
            detect_in_cache: 0,
            detect_sticky: 0,
            judged_true: 0,
            judged_false: 0,
            nack_pairs: BTreeMap::new(),
            threads: Vec::new(),
            spans: SpanBuffer::new(span_capacity),
        }
    }

    fn thread_mut(&mut self, tid: u32) -> &mut ThreadObs {
        let i = tid as usize;
        if i >= self.threads.len() {
            self.threads.resize_with(i + 1, ThreadObs::default);
        }
        &mut self.threads[i]
    }

    /// Free-form counter bump.
    pub fn bump(&mut self, name: &'static str) {
        self.metrics.bump(name);
    }

    /// Free-form counter add.
    pub fn add(&mut self, name: &'static str, n: u64) {
        self.metrics.add(name, n);
    }

    /// An outermost transaction began on `tid`.
    pub fn on_tx_begin(&mut self, tid: u32, now: Cycle) {
        let t = self.thread_mut(tid);
        if t.open.is_none() {
            t.open = Some(OpenSpan {
                begin: now,
                stall_cycles: 0,
                stalls: 0,
            });
        }
    }

    /// A stall event for `tid`: attribute the cause and the wait it costs.
    /// Must be called exactly once per TM-layer `stalls` increment for the
    /// totals to reconcile.
    pub fn on_stall(&mut self, tid: u32, cause: StallCause, wait: Cycle) {
        self.stall_causes[stall_idx(cause)] += 1;
        let t = self.thread_mut(tid);
        t.cycles.stalled = t.cycles.stalled.saturating_add(wait.as_u64());
        if let Some(open) = t.open.as_mut() {
            open.stall_cycles += wait.as_u64();
            open.stalls += 1;
        }
    }

    /// A coherence NACK happened: `nacker_ctx` refused `requester_ctx`'s
    /// request. `path` says how the conflict was still visible;
    /// `judged_true` is the exact-set re-judgement (`None` when the nacker
    /// had no thread to judge against).
    pub fn on_nack_pair(
        &mut self,
        nacker_ctx: u32,
        requester_ctx: u32,
        path: DetectPath,
        judged_true: Option<bool>,
    ) {
        match path {
            DetectPath::InCache => self.detect_in_cache += 1,
            DetectPath::Sticky => self.detect_sticky += 1,
        }
        match judged_true {
            Some(true) => self.judged_true += 1,
            Some(false) => self.judged_false += 1,
            None => self.metrics.bump("nacks_unjudged"),
        }
        *self
            .nack_pairs
            .entry((nacker_ctx, requester_ctx))
            .or_insert(0) += 1;
    }

    /// `tid`'s outermost transaction committed at `now`.
    pub fn on_commit(&mut self, tid: u32, now: Cycle) {
        let t = self.thread_mut(tid);
        let open = t.open.take().unwrap_or(OpenSpan {
            begin: now,
            stall_cycles: 0,
            stalls: 0,
        });
        let span_cycles = now.saturating_sub(open.begin).as_u64();
        t.cycles.useful = t
            .cycles
            .useful
            .saturating_add(span_cycles.saturating_sub(open.stall_cycles));
        self.spans.push(TxSpan {
            thread: tid,
            begin: open.begin,
            end: now,
            committed: true,
            stall_cycles: open.stall_cycles,
            stalls: open.stalls,
        });
    }

    /// `tid` aborted one outermost transaction at `now`, exactly as the TM
    /// layer counted it. `wasted` is the cycles the TM layer charged the
    /// transaction as wasted and `log_walk` the handler + restore-traffic
    /// time.
    pub fn on_abort(
        &mut self,
        tid: u32,
        now: Cycle,
        cause: AbortCause,
        wasted: u64,
        log_walk: Cycle,
    ) {
        self.abort_causes[abort_idx(cause)] += 1;
        let t = self.thread_mut(tid);
        t.cycles.aborted = t.cycles.aborted.saturating_add(wasted);
        t.cycles.log_walk = t.cycles.log_walk.saturating_add(log_walk.as_u64());
        if let Some(open) = t.open.take() {
            self.spans.push(TxSpan {
                thread: tid,
                begin: open.begin,
                end: now,
                committed: false,
                stall_cycles: open.stall_cycles,
                stalls: open.stalls,
            });
        }
    }

    /// A partial (inner-frame) abort on `tid`: the outer span stays open,
    /// only handler time is charged.
    pub fn on_partial_abort(&mut self, tid: u32, log_walk: Cycle) {
        self.metrics.bump("partial_aborts");
        let t = self.thread_mut(tid);
        t.cycles.log_walk = t.cycles.log_walk.saturating_add(log_walk.as_u64());
    }

    /// The warm-up boundary: discard everything collected so far, but keep
    /// in-flight spans open, re-anchored at `now` (mirroring how the TM
    /// layer zeroes its stats while transactions stay live).
    pub fn reset(&mut self, now: Cycle) {
        let capacity = self.spans.capacity;
        let open_threads: Vec<u32> = self
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.open.is_some())
            .map(|(i, _)| i as u32)
            .collect();
        *self = ObsCore::new(capacity);
        for tid in open_threads {
            self.on_tx_begin(tid, now);
        }
    }

    /// Snapshots everything into a plain-data report.
    pub fn report(&self) -> ObsReport {
        ObsReport {
            metrics: self.metrics.clone(),
            stalls_coherence: self.stall_causes[0],
            stalls_sibling: self.stall_causes[1],
            stalls_summary: self.stall_causes[2],
            aborts_conflict: self.abort_causes[0],
            aborts_summary_limit: self.abort_causes[1],
            aborts_sticky_overflow: self.abort_causes[2],
            aborts_parked: self.abort_causes[3],
            nacks_in_cache: self.detect_in_cache,
            nacks_sticky: self.detect_sticky,
            nacks_judged_true: self.judged_true,
            nacks_judged_false: self.judged_false,
            nack_pairs: self
                .nack_pairs
                .iter()
                .map(|(&(n, r), &c)| (n, r, c))
                .collect(),
            per_thread: self.threads.iter().map(|t| t.cycles).collect(),
            spans_committed: self.spans.committed,
            spans_aborted: self.spans.aborted,
            spans_dropped: self.spans.dropped,
            spans: self.spans.spans.iter().copied().collect(),
        }
    }
}

/// Immutable snapshot of an [`ObsCore`], carried on the run report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsReport {
    /// Free-form named counters, in sorted name order.
    pub metrics: MetricRegistry,
    /// Stalls caused by coherence NACKs.
    pub stalls_coherence: u64,
    /// Stalls caused by same-core SMT sibling conflicts.
    pub stalls_sibling: u64,
    /// Stalls caused by summary-signature traps.
    pub stalls_summary: u64,
    /// Aborts from conflict resolution.
    pub aborts_conflict: u64,
    /// Self-aborts after the summary-stall limit.
    pub aborts_summary_limit: u64,
    /// Aborts forced by lost conflict coverage (sticky disabled).
    pub aborts_sticky_overflow: u64,
    /// Parked transactions aborted in software by a summary trap handler.
    pub aborts_parked: u64,
    /// Coherence NACKs where the nacker's L1 still held the block.
    pub nacks_in_cache: u64,
    /// Coherence NACKs visible only through decoupled signature state.
    pub nacks_sticky: u64,
    /// Coherence NACKs judged true sharing by the exact sets.
    pub nacks_judged_true: u64,
    /// Coherence NACKs judged signature aliasing (false positives).
    pub nacks_judged_false: u64,
    /// Sparse (nacker ctx, requester ctx, count) NACK matrix, sorted.
    pub nack_pairs: Vec<(u32, u32, u64)>,
    /// Per-thread cycle breakdowns, indexed by thread id.
    pub per_thread: Vec<CycleBreakdown>,
    /// Spans closed as committed (counts past ring capacity).
    pub spans_committed: u64,
    /// Spans closed as aborted (counts past ring capacity).
    pub spans_aborted: u64,
    /// Spans evicted from the bounded ring.
    pub spans_dropped: u64,
    /// Retained spans, oldest first.
    pub spans: Vec<TxSpan>,
}

impl ObsReport {
    /// Total attributed stalls (must equal the TM layer's `stalls`).
    pub fn stall_total(&self) -> u64 {
        self.stalls_coherence + self.stalls_sibling + self.stalls_summary
    }

    /// Total attributed aborts (must equal the TM layer's `aborts`).
    pub fn abort_total(&self) -> u64 {
        self.aborts_conflict
            + self.aborts_summary_limit
            + self.aborts_sticky_overflow
            + self.aborts_parked
    }

    /// Total coherence-NACK events with a classified detection path.
    pub fn nack_detect_total(&self) -> u64 {
        self.nacks_in_cache + self.nacks_sticky
    }

    /// Cycle breakdown summed over all threads.
    pub fn cycles_total(&self) -> CycleBreakdown {
        let mut total = CycleBreakdown::default();
        for t in &self.per_thread {
            total.merge(t);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_orders_and_saturates() {
        let mut m = MetricRegistry::new();
        m.add("z", u64::MAX);
        m.add("z", 5);
        m.bump("a");
        assert_eq!(m.get("z"), u64::MAX, "saturating");
        assert_eq!(m.get("a"), 1);
        let names: Vec<&str> = m.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a", "z"], "deterministic order");
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn commit_span_accounting_subtracts_stall_time() {
        let mut o = ObsCore::new(16);
        o.on_tx_begin(3, Cycle(100));
        o.on_stall(3, StallCause::CoherenceNack, Cycle(20));
        o.on_stall(3, StallCause::SummaryConflict, Cycle(10));
        o.on_commit(3, Cycle(200));
        let r = o.report();
        assert_eq!(r.stall_total(), 2);
        assert_eq!(r.stalls_coherence, 1);
        assert_eq!(r.stalls_summary, 1);
        assert_eq!(r.spans_committed, 1);
        assert_eq!(r.spans.len(), 1);
        let span = r.spans[0];
        assert_eq!(span.thread, 3);
        assert_eq!(span.stall_cycles, 30);
        assert_eq!(span.stalls, 2);
        assert!(span.committed);
        // useful = (200 - 100) - 30 stalled.
        assert_eq!(r.per_thread[3].useful, 70);
        assert_eq!(r.per_thread[3].stalled, 30);
        assert_eq!(r.cycles_total().total(), 100);
    }

    #[test]
    fn abort_closes_span_and_charges_wasted_and_log_walk() {
        let mut o = ObsCore::new(16);
        o.on_tx_begin(0, Cycle(10));
        o.on_abort(0, Cycle(50), AbortCause::ConflictResolution, 40, Cycle(7));
        let r = o.report();
        assert_eq!(r.abort_total(), 1);
        assert_eq!(r.aborts_conflict, 1);
        assert_eq!(r.spans_aborted, 1);
        assert!(!r.spans[0].committed);
        assert_eq!(r.per_thread[0].aborted, 40);
        assert_eq!(r.per_thread[0].log_walk, 7);
    }

    #[test]
    fn nack_pairs_and_detection_paths_accumulate() {
        let mut o = ObsCore::new(4);
        o.on_nack_pair(2, 0, DetectPath::InCache, Some(true));
        o.on_nack_pair(2, 0, DetectPath::Sticky, Some(false));
        o.on_nack_pair(5, 1, DetectPath::Sticky, None);
        let r = o.report();
        assert_eq!(r.nacks_in_cache, 1);
        assert_eq!(r.nacks_sticky, 2);
        assert_eq!(r.nacks_judged_true, 1);
        assert_eq!(r.nacks_judged_false, 1);
        assert_eq!(r.metrics.get("nacks_unjudged"), 1);
        assert_eq!(r.nack_pairs, vec![(2, 0, 2), (5, 1, 1)]);
    }

    #[test]
    fn span_ring_bounds_and_counts_past_capacity() {
        let mut o = ObsCore::new(2);
        for i in 0..5u64 {
            o.on_tx_begin(0, Cycle(i * 10));
            o.on_commit(0, Cycle(i * 10 + 5));
        }
        let r = o.report();
        assert_eq!(r.spans_committed, 5, "counter keeps counting");
        assert_eq!(r.spans.len(), 2, "ring stays bounded");
        assert_eq!(r.spans_dropped, 3);
        assert_eq!(r.spans[0].begin, Cycle(30), "oldest retained");
    }

    #[test]
    fn reset_keeps_open_spans_reanchored() {
        let mut o = ObsCore::new(8);
        o.on_tx_begin(1, Cycle(0));
        o.on_stall(1, StallCause::SiblingNack, Cycle(9));
        o.bump("warmup_noise");
        o.reset(Cycle(1000));
        let r = o.report();
        assert_eq!(r.stall_total(), 0, "counters cleared");
        assert_eq!(r.metrics.len(), 0);
        // The open transaction survives the boundary, re-anchored.
        o.on_commit(1, Cycle(1100));
        let r = o.report();
        assert_eq!(r.spans_committed, 1);
        assert_eq!(r.spans[0].begin, Cycle(1000));
        assert_eq!(r.per_thread[1].useful, 100);
    }

    #[test]
    fn cause_names_are_stable() {
        assert_eq!(StallCause::CoherenceNack.as_str(), "coherence_nack");
        assert_eq!(StallCause::SiblingNack.as_str(), "sibling_nack");
        assert_eq!(StallCause::SummaryConflict.as_str(), "summary_conflict");
        assert_eq!(
            AbortCause::ConflictResolution.as_str(),
            "conflict_resolution"
        );
        assert_eq!(
            AbortCause::SummaryStallLimit.as_str(),
            "summary_stall_limit"
        );
        assert_eq!(AbortCause::StickyOverflow.as_str(), "sticky_overflow");
        assert_eq!(
            AbortCause::ParkedBySummaryHandler.as_str(),
            "parked_by_summary_handler"
        );
    }

    #[test]
    fn partial_abort_keeps_span_open() {
        let mut o = ObsCore::new(8);
        o.on_tx_begin(2, Cycle(0));
        o.on_partial_abort(2, Cycle(11));
        o.on_commit(2, Cycle(40));
        let r = o.report();
        assert_eq!(r.metrics.get("partial_aborts"), 1);
        assert_eq!(r.per_thread[2].log_walk, 11);
        assert_eq!(r.spans_committed, 1);
        assert_eq!(r.spans_aborted, 0);
    }
}
