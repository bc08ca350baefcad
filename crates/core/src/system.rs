//! The composed, runnable system: cores + memory system + TM units + OS.

use std::collections::{HashMap, VecDeque};

use ltse_mem::{
    AccessKind, AccessOutcome, Asid, BlockAddr, ConflictOracle, CtxId, MemorySystem, PageId,
    SerializabilityOracle, WordAddr, WORDS_PER_BLOCK,
};
use ltse_sim::config::SimLimits;
use ltse_sim::obs::{AbortCause, DetectPath, ObsCore, ObsReport, StallCause};
use ltse_sim::rng::Xoshiro256StarStar;
use ltse_sim::trace::{TraceBuffer, TraceTag};
use ltse_sim::{Cycle, EventChooser, EventQueue};
use ltse_tm::config::{
    BACKOFF_BASE_CYCLES, BACKOFF_CAP_SHIFT, BEGIN_CYCLES, SIG_SAVE_CYCLES, STALL_RETRY_CYCLES,
};
use ltse_tm::conflict::Resolution;
use ltse_tm::{NestKind, OsModel, PreAccessCheck, ThreadTmState, TmUnit};

use crate::builder::{PreemptionConfig, SystemBuilder};
use crate::program::{Op, ProgCtx, ThreadProgram};
use crate::report::RunReport;

/// Retries against a summary signature before an in-transaction requester
/// gives up and aborts itself (a descheduled conflicting transaction can
/// only be resolved by the OS running it; aborting frees our isolation in
/// the meantime).
const SUMMARY_STALL_ABORT_LIMIT: u32 = 64;

/// Transaction spans the observability layer retains; older spans are
/// dropped with drop accounting.
const OBS_SPAN_CAPACITY: usize = 4096;

/// Why a run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The cycle watchdog fired (likely livelock or an undersized budget).
    CycleLimit {
        /// Time at which the watchdog fired.
        at: Cycle,
        /// Threads not yet finished.
        unfinished: usize,
    },
    /// The event watchdog fired.
    EventLimit,
    /// `run()` was called with no threads.
    NoThreads,
    /// More threads than hardware contexts, but preemption is disabled so
    /// the surplus threads could never run.
    TooManyThreads {
        /// Threads requested.
        threads: usize,
        /// Hardware contexts available.
        ctxs: usize,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::CycleLimit { at, unfinished } => {
                write!(
                    f,
                    "cycle watchdog fired at {at} with {unfinished} threads unfinished"
                )
            }
            RunError::EventLimit => write!(f, "event watchdog fired"),
            RunError::NoThreads => write!(f, "no threads to run"),
            RunError::TooManyThreads { threads, ctxs } => write!(
                f,
                "{threads} threads exceed {ctxs} contexts and preemption is disabled"
            ),
        }
    }
}

impl std::error::Error for RunError {}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Resume { thread: u32, seq: u64 },
    PreemptTick,
    RelocatePage { asid: Asid, vpage: u64 },
}

struct ThreadSlot {
    program: Box<dyn ThreadProgram>,
    asid: Asid,
    rng: Xoshiro256StarStar,
    ctx: Option<CtxId>,
    last_value: u64,
    pending_op: Option<Op>,
    pending_abort: bool,
    summary_stalls: u32,
    /// Consecutive partial aborts without an inner commit — bounded so the
    /// paper's "repeats this process" loop cannot livelock.
    partial_streak: u32,
    ready_while_parked: bool,
    done: bool,
    seq: u64,
}

impl ThreadSlot {
    /// Calls into thread `tid`'s program with the [`ProgCtx`] it sees at
    /// `now`.
    fn with_prog<R>(
        &mut self,
        tid: u32,
        now: Cycle,
        f: impl FnOnce(&mut dyn ThreadProgram, &mut ProgCtx) -> R,
    ) -> R {
        let mut ctx = ProgCtx {
            thread_id: tid,
            last_value: self.last_value,
            now,
            rng: &mut self.rng,
        };
        f(&mut *self.program, &mut ctx)
    }
}

/// A configured simulated machine with its threads. Create one with
/// [`SystemBuilder`], add [`ThreadProgram`]s, then [`System::run`].
pub struct System {
    pub(crate) mem: MemorySystem,
    pub(crate) tm: TmUnit,
    pub(crate) os: OsModel,
    limits: SimLimits,
    preemption: Option<PreemptionConfig>,
    threads: Vec<ThreadSlot>,
    queue: EventQueue<Ev>,
    run_queue: VecDeque<u32>,
    /// Per-process virtual→physical page maps (identity unless relocated).
    page_tables: HashMap<Asid, HashMap<u64, u64>>,
    next_free_ppage: u64,
    preempt_rr: usize,
    rng: Xoshiro256StarStar,
    finished: usize,
    events_dispatched: u64,
    /// Reusable buffer for abort undo-walks, so per-abort bookkeeping does
    /// not allocate on the hot path (taken with `mem::take`, put back after
    /// the restore loop).
    undo_scratch: Vec<(WordAddr, [u64; 8])>,
    trace: Option<TraceBuffer>,
    /// Structured observability ([`SystemBuilder::observe`]); `None` = off,
    /// costing a single null check per instrumented event.
    obs: Option<Box<ObsCore>>,
    /// Units of work left before the warm-up boundary (0 = measuring).
    warmup_remaining: u64,
    /// Cycle at which measurement began (warm-up boundary, or 0).
    measure_from: Cycle,
    /// Differential serializability checker
    /// ([`SystemBuilder::check_serializability`]); `None` = checking off.
    oracle: Option<SerializabilityOracle>,
}

/// Packs an address-space id and a *virtual* word address into an oracle
/// key. Virtual addresses are stable across page relocation, so the oracle
/// never sees physical placement.
fn oracle_key(asid: Asid, vaddr: WordAddr) -> u64 {
    ((asid.0 as u64) << 48) | vaddr.as_u64()
}

/// Inverse of [`oracle_key`].
fn oracle_key_parts(key: u64) -> (Asid, WordAddr) {
    (Asid((key >> 48) as u16), WordAddr(key & ((1 << 48) - 1)))
}

impl System {
    pub(crate) fn from_builder(b: &SystemBuilder) -> Self {
        let mem = MemorySystem::new(b.mem);
        let tm = TmUnit::empty_with_smt(b.tm, b.mem.n_ctxs(), b.mem.smt_per_core);
        let os = OsModel::new(b.tm.signature);
        System {
            mem,
            tm,
            os,
            limits: b.limits,
            preemption: b.preemption,
            threads: Vec::new(),
            // Size the calendar window from the context count: bigger
            // systems keep more events in flight over longer latency tails,
            // and a wider window keeps them off the heap fallback. 256-core
            // × 2-SMT lands at 4096 buckets (32 KB of occupancy+ring).
            queue: EventQueue::with_buckets(
                (b.mem.n_ctxs() as usize * 8)
                    .next_power_of_two()
                    .clamp(ltse_sim::DEFAULT_BUCKETS, 4096),
            ),
            run_queue: VecDeque::new(),
            page_tables: HashMap::new(),
            // Relocation targets live far above workload data but below the
            // log region.
            next_free_ppage: 1 << 32,
            preempt_rr: 0,
            rng: Xoshiro256StarStar::new(b.seed),
            finished: 0,
            events_dispatched: 0,
            undo_scratch: Vec::new(),
            trace: (b.trace_capacity > 0).then(|| TraceBuffer::new(b.trace_capacity)),
            obs: b.observe.then(|| Box::new(ObsCore::new(OBS_SPAN_CAPACITY))),
            warmup_remaining: b.warmup_units,
            measure_from: Cycle::ZERO,
            oracle: b.check_serializability.then(SerializabilityOracle::new),
        }
    }

    #[inline]
    fn trace(&mut self, at: Cycle, tag: TraceTag, detail: impl FnOnce() -> String) {
        if let Some(t) = self.trace.as_mut() {
            t.push(at, tag, detail());
        }
    }

    /// Renders the retained event trace (empty unless
    /// [`SystemBuilder::trace`] enabled tracing).
    pub fn trace_dump(&self) -> String {
        self.trace
            .as_ref()
            .map(TraceBuffer::dump)
            .unwrap_or_default()
    }

    /// Snapshot of the observability layer's attribution data, if
    /// [`SystemBuilder::observe`] enabled it (also carried on
    /// [`RunReport::obs`]).
    pub fn obs_report(&self) -> Option<ObsReport> {
        self.obs.as_deref().map(ObsCore::report)
    }

    /// Adds a thread (ASID 0) running `program`. Returns its thread id.
    pub fn add_thread(&mut self, program: Box<dyn ThreadProgram>) -> u32 {
        self.add_thread_in_process(program, Asid(0))
    }

    /// Adds a thread in the given address space.
    pub fn add_thread_in_process(&mut self, program: Box<dyn ThreadProgram>, asid: Asid) -> u32 {
        let tid = self.threads.len() as u32;
        let state = ThreadTmState::new(
            tid,
            asid,
            self.tm.config(),
            TmUnit::log_base_for_thread(tid),
            self.rng.next_u64(),
        );
        let ctx = if tid < self.tm.n_ctxs() {
            self.tm.install_thread(tid, state);
            Some(tid)
        } else {
            self.os.park_thread(state);
            self.run_queue.push_back(tid);
            None
        };
        self.threads.push(ThreadSlot {
            program,
            asid,
            rng: self.rng.split(),
            ctx,
            last_value: 0,
            pending_op: None,
            pending_abort: false,
            summary_stalls: 0,
            partial_streak: 0,
            ready_while_parked: false,
            done: false,
            seq: 0,
        });
        tid
    }

    /// Schedules a physical relocation of the page backing virtual page
    /// `vpage` of `asid` at simulated time `at` (paper §4.2 paging).
    pub fn schedule_page_relocation(&mut self, at: Cycle, asid: Asid, vpage: u64) {
        self.queue.push(at, Ev::RelocatePage { asid, vpage });
    }

    /// Reads a word of (ASID-0) memory, honouring page relocations. For
    /// assertions in tests and examples.
    pub fn read_word(&self, addr: WordAddr) -> u64 {
        self.mem.read_word(self.translate(Asid(0), addr))
    }

    /// Reads a word in a specific address space.
    pub fn read_word_in(&self, asid: Asid, addr: WordAddr) -> u64 {
        self.mem.read_word(self.translate(asid, addr))
    }

    /// Pre-loads a word of memory before the run (workload initialization,
    /// no timing).
    pub fn poke_word(&mut self, addr: WordAddr, value: u64) {
        let phys = self.translate(Asid(0), addr);
        self.mem.write_word(phys, value);
        if let Some(o) = self.oracle.as_mut() {
            o.init_word(oracle_key(Asid(0), addr), value);
        }
    }

    /// Runs until every thread is done. Returns the collected report.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] on watchdog expiry or an unrunnable
    /// configuration (no threads; more threads than contexts without
    /// preemption).
    pub fn run(&mut self) -> Result<RunReport, RunError> {
        self.run_inner(None)
    }

    /// Runs under schedule-exploration control: whenever several events are
    /// nearly simultaneous (within `horizon` cycles of the earliest, up to
    /// `window` candidates), `chooser` picks which fires, via
    /// [`ltse_sim::EventQueue::pop_explored`]. A FIFO chooser reproduces
    /// [`System::run`] exactly; a [`ltse_sim::explore::ScheduleChooser`]
    /// systematically perturbs the interleaving so the explorer can search
    /// for serializability violations. Timing statistics are still collected
    /// but are *not* faithful under reordering — use this for correctness
    /// checking, not performance measurement.
    ///
    /// # Errors
    ///
    /// As for [`System::run`].
    pub fn run_explored(
        &mut self,
        chooser: &mut dyn EventChooser,
        window: usize,
        horizon: Cycle,
    ) -> Result<RunReport, RunError> {
        self.run_inner(Some((chooser, window, horizon)))
    }

    fn run_inner(
        &mut self,
        mut explored: Option<(&mut dyn EventChooser, usize, Cycle)>,
    ) -> Result<RunReport, RunError> {
        if self.threads.is_empty() {
            return Err(RunError::NoThreads);
        }
        if self.threads.len() > self.tm.n_ctxs() as usize && self.preemption.is_none() {
            return Err(RunError::TooManyThreads {
                threads: self.threads.len(),
                ctxs: self.tm.n_ctxs() as usize,
            });
        }

        // Seed each installed thread's first resume with a small random
        // perturbation (the paper's §6.1 methodology).
        for tid in 0..self.threads.len() as u32 {
            if self.threads[tid as usize].ctx.is_some() {
                let jitter = Cycle(self.threads[tid as usize].rng.gen_range(0, 32));
                self.schedule_resume(tid, jitter);
            }
        }
        if let Some(p) = self.preemption {
            self.queue.push(p.quantum, Ev::PreemptTick);
        }

        // Keep the dispatch counter and limits in locals: the per-event loop
        // is the hottest path in the simulator and `self.events_dispatched`
        // is only observable between runs, so batching the writeback (flushed
        // on every exit path) keeps the bookkeeping off the critical path.
        let max_cycles = self.limits.max_cycles;
        let max_events = self.limits.max_events;
        let mut dispatched = self.events_dispatched;
        loop {
            let next = match explored.as_mut() {
                Some((chooser, window, horizon)) => {
                    self.queue.pop_explored(&mut **chooser, *horizon, *window)
                }
                None => self.queue.pop(),
            };
            let Some((now, ev)) = next else { break };
            dispatched += 1;
            if now > max_cycles {
                self.events_dispatched = dispatched;
                return Err(RunError::CycleLimit {
                    at: now,
                    unfinished: self.threads.len() - self.finished,
                });
            }
            if dispatched > max_events {
                self.events_dispatched = dispatched;
                return Err(RunError::EventLimit);
            }
            match ev {
                Ev::Resume { thread, seq } => self.on_resume(now, thread, seq),
                Ev::PreemptTick => self.on_preempt_tick(now),
                Ev::RelocatePage { asid, vpage } => self.do_relocate_page(now, asid, vpage),
            }
            if self.finished == self.threads.len() {
                break;
            }
        }
        self.events_dispatched = dispatched;

        Ok(self.report())
    }

    /// Builds the report from the current state (also valid after `run`).
    pub fn report(&self) -> RunReport {
        RunReport {
            cycles: self.queue.now(),
            measured_cycles: self.queue.now().saturating_sub(self.measure_from),
            tm: self.tm.aggregate_stats(),
            mem: self.mem.stats().clone(),
            os: self.os.stats.clone(),
            threads_completed: self.finished,
            events_dispatched: self.events_dispatched,
            obs: self.obs.as_deref().map(ObsCore::report),
        }
    }

    /// The memory system (for inspection in tests/benches).
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// The TM unit (for inspection in tests/benches).
    pub fn tm(&self) -> &TmUnit {
        &self.tm
    }

    /// The serializability oracle, if [`SystemBuilder::check_serializability`]
    /// enabled one (for inspecting replay counters in tests).
    pub fn oracle(&self) -> Option<&SerializabilityOracle> {
        self.oracle.as_ref()
    }

    /// Runs the end-of-run differential checks and drains every recorded
    /// violation: commit-order replay divergences collected during the run,
    /// leftover per-context transactional state, and a final-state sweep
    /// comparing real memory against the sequential reference over every
    /// touched word. Empty means the run was serializable and clean. Returns
    /// empty (checking nothing) unless the system was built with
    /// [`SystemBuilder::check_serializability`].
    pub fn finish_checks(&mut self) -> Vec<String> {
        let Some(mut oracle) = self.oracle.take() else {
            return Vec::new();
        };
        for ctx in 0..self.tm.n_ctxs() {
            for v in self.tm.post_tx_violations(ctx) {
                oracle.note(v);
            }
        }
        oracle.check_final(|key| {
            let (asid, vaddr) = oracle_key_parts(key);
            self.read_word_in(asid, vaddr)
        });
        let errors = oracle.take_errors();
        self.oracle = Some(oracle);
        errors
    }

    // ------------------------------------------------------------------
    fn translate(&self, asid: Asid, addr: WordAddr) -> WordAddr {
        const WORDS_PER_PAGE: u64 = 512; // 4 KB pages of 8-byte words
        if self.page_tables.is_empty() {
            // Most runs never relocate a page; skip the per-access hash
            // lookup entirely until the first relocation installs a table.
            return addr;
        }
        if TmUnit::is_log_block(addr.block()) {
            return addr; // log regions are identity-mapped
        }
        let Some(table) = self.page_tables.get(&asid) else {
            return addr;
        };
        let vpage = addr.as_u64() / WORDS_PER_PAGE;
        match table.get(&vpage) {
            Some(&ppage) => WordAddr(ppage * WORDS_PER_PAGE + addr.as_u64() % WORDS_PER_PAGE),
            None => addr,
        }
    }

    fn schedule_resume(&mut self, tid: u32, delay: Cycle) {
        let slot = &mut self.threads[tid as usize];
        slot.seq += 1;
        let seq = slot.seq;
        self.queue
            .push_after(delay, Ev::Resume { thread: tid, seq });
    }

    fn on_resume(&mut self, now: Cycle, tid: u32, seq: u64) {
        let slot = &self.threads[tid as usize];
        if slot.done || seq != slot.seq {
            return; // stale event
        }
        if slot.ctx.is_none() {
            self.threads[tid as usize].ready_while_parked = true;
            return;
        }
        if slot.pending_abort {
            self.threads[tid as usize].pending_abort = false;
            // Only the sticky-disabled overflow drain sets `pending_abort`,
            // so the cause attribution is unambiguous.
            self.do_abort(now, tid, AbortCause::StickyOverflow);
            return;
        }

        let op = match self.threads[tid as usize].pending_op.take() {
            Some(op) => op,
            None => self.threads[tid as usize].with_prog(tid, now, |p, t| p.next_op(t)),
        };
        self.exec_op(now, tid, op);
    }

    fn exec_op(&mut self, now: Cycle, tid: u32, op: Op) {
        let ctx = self.threads[tid as usize]
            .ctx
            .expect("running thread has a ctx");
        match op {
            Op::Done => {
                self.threads[tid as usize].done = true;
                self.finished += 1;
                // Free the context for parked threads.
                if let Some(state) = self.tm.take_thread(ctx) {
                    self.tm.retire_thread(state);
                }
                self.threads[tid as usize].ctx = None;
                if let Some(next) = self.pop_runnable() {
                    self.wake_onto_ctx(now, next, ctx);
                }
            }
            Op::Work(cycles) => {
                self.schedule_resume(tid, Cycle(cycles.max(1)));
            }
            Op::WorkUnitDone => {
                if let Some(t) = self.tm.thread_mut(ctx) {
                    t.stats.work_units += 1;
                }
                if self.warmup_remaining > 0 {
                    self.warmup_remaining -= 1;
                    if self.warmup_remaining == 0 {
                        // Warm-up boundary: discard everything measured so
                        // far; caches, signatures, and logs stay warm.
                        self.tm.reset_stats();
                        self.mem.reset_stats();
                        if let Some(o) = self.obs.as_deref_mut() {
                            o.reset(now);
                        }
                        self.measure_from = now;
                        self.trace(now, TraceTag::Measure, || "warm-up complete".into());
                    }
                }
                self.schedule_resume(tid, Cycle(1));
            }
            Op::TxBegin | Op::TxBeginOpen => {
                let kind = if matches!(op, Op::TxBeginOpen) {
                    NestKind::Open
                } else {
                    NestKind::Closed
                };
                let was_nested = self.tm.in_tx(ctx);
                // Bounded-retry escalation (`TmConfig::escalate_after`):
                // once the abort streak reaches the threshold, the retry
                // must hold the global serialization token before it can
                // begin. If another thread holds it, poll — the holder is
                // exempt from conflict aborts, so it commits in bounded
                // time and the token frees.
                if !was_nested {
                    if let Some(limit) = self.tm.config().escalate_after {
                        let streak = self.tm.thread(ctx).map_or(0, |t| t.abort_attempts());
                        if streak >= limit && !self.tm.try_acquire_serial(ctx) {
                            self.trace(now, TraceTag::Begin, || {
                                format!("tid={tid} ctx={ctx} waiting on serialization token")
                            });
                            self.retry_op(tid, op, STALL_RETRY_CYCLES);
                            return;
                        }
                    }
                }
                self.trace(now, TraceTag::Begin, || {
                    format!("tid={tid} ctx={ctx} kind={kind:?} nested={was_nested}")
                });
                if !was_nested {
                    if let Some(o) = self.obs.as_deref_mut() {
                        o.on_tx_begin(tid, now);
                    }
                }
                if let Some(o) = self.oracle.as_mut() {
                    o.begin(tid, kind == NestKind::Open);
                }
                let header_addr = self.tm.begin_tx(ctx, kind, now);
                // The header write is a real store into the (private) log.
                let out = self
                    .mem
                    .access(ctx, AccessKind::Store, header_addr.block(), &self.tm);
                let mut cost = BEGIN_CYCLES + out.latency();
                if was_nested {
                    cost += SIG_SAVE_CYCLES; // signature save to header
                }
                self.schedule_resume(tid, cost);
            }
            Op::TxCommit => {
                let outcome = self.tm.commit_tx(ctx, now);
                self.trace(now, TraceTag::Commit, || {
                    format!("tid={tid} ctx={ctx} outermost={}", outcome.outermost)
                });
                if outcome.outermost {
                    if let Some(o) = self.obs.as_deref_mut() {
                        o.on_commit(tid, now);
                    }
                }
                self.threads[tid as usize].partial_streak = 0; // progress
                let mut cost = outcome.cycles;
                if outcome.needs_summary_update {
                    let asid = self.threads[tid as usize].asid;
                    cost += self.os.on_outer_commit(&mut self.tm, asid, tid);
                }
                if let Some(o) = self.oracle.as_mut() {
                    o.commit(tid);
                    if outcome.outermost {
                        for v in self.tm.post_tx_violations(ctx) {
                            self.oracle.as_mut().expect("still set").note(v);
                        }
                    }
                }
                self.schedule_resume(tid, cost);
            }
            Op::EscapeBegin => {
                self.tm.escape_begin(ctx);
                self.schedule_resume(tid, Cycle(1));
            }
            Op::EscapeEnd => {
                self.tm.escape_end(ctx);
                self.schedule_resume(tid, Cycle(1));
            }
            Op::Read(addr) => self.exec_mem_op(now, tid, op, AccessKind::Load, addr),
            Op::Write(addr, _) | Op::Cas { addr, .. } | Op::FetchAdd(addr, _) => {
                self.exec_mem_op(now, tid, op, AccessKind::Store, addr)
            }
        }
    }

    fn exec_mem_op(&mut self, now: Cycle, tid: u32, op: Op, kind: AccessKind, vaddr: WordAddr) {
        let ctx = self.threads[tid as usize]
            .ctx
            .expect("running thread has a ctx");
        let asid = self.threads[tid as usize].asid;
        let paddr = self.translate(asid, vaddr);
        let block = paddr.block();

        // TM-layer checks: summary signature, then same-core siblings.
        match self.tm.pre_access(ctx, self.mem.core_of(ctx), kind, block) {
            PreAccessCheck::SummaryConflict => {
                // The paper's §4.1: a summary hit "immediately traps to a
                // conflict handler, since stalling is not sufficient to
                // resolve a conflict with a descheduled thread". The
                // handler aborts the parked conflictor in software, and the
                // trapping thread stalls for the handler's duration plus
                // its own retry.
                let victim = self
                    .os
                    .parked_tx_conflictor(asid, sig_op(kind), block.as_u64());
                let handler = match victim {
                    Some(victim) => {
                        self.threads[tid as usize].summary_stalls = 0;
                        self.abort_parked_thread(now, ctx, asid, victim)
                    }
                    // No parked conflictor: either the summary hit was a
                    // false positive, or the conflicting thread has been
                    // rescheduled (its contribution persists until commit).
                    // Stall; if that drags on while we hold isolation, abort
                    // ourselves.
                    None => {
                        let slot = &mut self.threads[tid as usize];
                        slot.summary_stalls += 1;
                        if self.tm.in_tx(ctx) && slot.summary_stalls > SUMMARY_STALL_ABORT_LIMIT {
                            slot.summary_stalls = 0;
                            self.do_abort(now, tid, AbortCause::SummaryStallLimit);
                            return;
                        }
                        Cycle::ZERO
                    }
                };
                if let Some(t) = self.tm.thread_mut(ctx) {
                    t.stats.stalls += 1;
                }
                self.stall(
                    tid,
                    op,
                    StallCause::SummaryConflict,
                    handler + STALL_RETRY_CYCLES,
                );
                return;
            }
            PreAccessCheck::SiblingConflict { nacker } => {
                if let Some(t) = self.tm.thread_mut(ctx) {
                    t.stats.sibling_stalls += 1;
                }
                let resolution = self.tm.on_nack(ctx, Some(nacker));
                let cause = StallCause::SiblingNack;
                self.resolve(now, tid, op, cause, resolution, STALL_RETRY_CYCLES);
                return;
            }
            PreAccessCheck::Clear => {}
        }

        // `pre_access` has just checked the same-core siblings, so an L1 hit
        // need not ask the oracle again.
        let outcome = self.mem.access_siblings_checked(ctx, kind, block, &self.tm);
        self.drain_overflow_events();

        match outcome {
            AccessOutcome::Nacked { latency, nacker } => {
                // Classify the NACK *before* resolving it: a NACK changes no
                // cache or signature state, so a post-hoc peek is faithful.
                // In-cache means the nacker's L1 still holds the block (a
                // cache-resident HTM would also have seen this conflict);
                // sticky means detection relied on LogTM-SE's decoupled
                // state. The exact-set re-judgement separates true sharing
                // from signature aliasing.
                let (path, judged) = if self.obs.is_some() {
                    let in_cache = self.mem.l1_contains(self.mem.core_of(nacker), block);
                    let judged = self
                        .tm
                        .thread(nacker)
                        .and_then(|t| t.judge_conflict(sig_op(kind), block));
                    let path = if in_cache {
                        DetectPath::InCache
                    } else {
                        DetectPath::Sticky
                    };
                    (path, judged)
                } else {
                    (DetectPath::InCache, None)
                };
                let resolution = self.tm.on_nack(ctx, Some(nacker));
                self.trace(now, TraceTag::Nack, || {
                    format!("tid={tid} {kind} {block} by ctx{nacker} -> {resolution:?}")
                });
                if let Some(o) = self.obs.as_deref_mut() {
                    o.on_nack_pair(nacker, ctx, path, judged);
                }
                let wait = latency + STALL_RETRY_CYCLES;
                self.resolve(now, tid, op, StallCause::CoherenceNack, resolution, wait);
            }
            AccessOutcome::Done(done) => {
                self.tm.record_access(ctx, kind, block);
                let mut total = done.latency;

                // Eager version management: log the old value before the
                // first transactional overwrite of the block. The log
                // filter and undo records hold *virtual* addresses (paper
                // §2/§4.2 — "its virtual address and previous contents must
                // be written to the log"), so aborts restore the data
                // wherever the page lives by then.
                if kind == AccessKind::Store {
                    let mem = &self.mem;
                    let vblock = vaddr.block();
                    if let Some(log_write) = self
                        .tm
                        .log_store_if_needed(ctx, vblock, || read_block_words(mem, block))
                    {
                        // The log region is thread-private, but a hashed
                        // signature on another core can still alias its
                        // physical address and falsely NACK the log store;
                        // model that as one bounced round trip (the store
                        // retries and succeeds — no true conflict exists).
                        let log_out = self.mem.access(
                            ctx,
                            AccessKind::Store,
                            log_write.addr.block(),
                            &self.tm,
                        );
                        total += log_out.latency();
                        if !log_out.is_done() {
                            if let Some(o) = self.obs.as_deref_mut() {
                                o.bump("log_store_nack_bounces");
                            }
                            let retry = self.mem.access(
                                ctx,
                                AccessKind::Store,
                                log_write.addr.block(),
                                &self.tm,
                            );
                            total += STALL_RETRY_CYCLES + retry.latency();
                        }
                    }
                }

                // Apply the op's data semantics, in place.
                let loaded = op.loads().then(|| self.mem.read_word(paddr));
                let stored = op.stored(loaded);
                if let Some(v) = stored {
                    self.mem.write_word(paddr, v);
                }
                if let Some(o) = self.oracle.as_mut() {
                    let in_escape = self.tm.thread(ctx).is_some_and(|t| t.in_escape());
                    o.access(tid, oracle_key(asid, vaddr), loaded, stored, in_escape);
                }
                let slot = &mut self.threads[tid as usize];
                if let Some(v) = loaded {
                    slot.last_value = v;
                }
                slot.summary_stalls = 0;
                // Tiny per-op perturbation keeps multi-seed runs
                // statistically independent (§6.1).
                let jitter = Cycle(slot.rng.gen_range(0, 2));
                self.schedule_resume(tid, total + jitter);
            }
        }
    }

    /// Re-issues `op` after `wait`: the one place a held-back op's retry is
    /// scheduled.
    fn retry_op(&mut self, tid: u32, op: Op, wait: Cycle) {
        self.threads[tid as usize].pending_op = Some(op);
        self.schedule_resume(tid, wait);
    }

    /// A stall of `tid` on `op`: obs is told `wait`, and `op` retries after
    /// that same `wait`. The caller has counted the stall in `TmStats`.
    fn stall(&mut self, tid: u32, op: Op, cause: StallCause, wait: Cycle) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.on_stall(tid, cause, wait);
        }
        self.retry_op(tid, op, wait);
    }

    /// Acts on a NACK's verdict, which `TmUnit::on_nack` has counted as a
    /// stall either way: a stall retries `op` after `wait`; an abort costs
    /// no stall wait, as its time lands in the aborted bucket instead.
    fn resolve(
        &mut self,
        now: Cycle,
        tid: u32,
        op: Op,
        cause: StallCause,
        resolution: Resolution,
        wait: Cycle,
    ) {
        match resolution {
            Resolution::Stall => self.stall(tid, op, cause, wait),
            Resolution::Abort => {
                if let Some(o) = self.obs.as_deref_mut() {
                    o.on_stall(tid, cause, Cycle::ZERO);
                }
                self.do_abort(now, tid, AbortCause::ConflictResolution);
            }
        }
    }

    /// Aborts `tid`'s transaction: unrolls the log (restoring memory and
    /// charging the restore traffic), rewinds the program, and schedules
    /// the retry after handler cost + randomized backoff.
    ///
    /// For a nested transaction the handler first tries a **partial abort**
    /// (paper §3.2): unroll only the innermost frame, restore the parent's
    /// signature, and retry the inner transaction — if the program supports
    /// resuming there and the streak of fruitless partial aborts is short.
    ///
    /// `cause` attributes the abort in the observability layer; it does not
    /// change the abort's mechanics.
    fn do_abort(&mut self, now: Cycle, tid: u32, cause: AbortCause) {
        let ctx = self.threads[tid as usize]
            .ctx
            .expect("abort of a running thread");
        let asid = self.threads[tid as usize].asid;
        let depth = self.tm.thread(ctx).map(|t| t.depth()).unwrap_or(0);
        if depth > 1 && self.threads[tid as usize].partial_streak < 3 {
            let undo = &mut self.undo_scratch;
            let handler = self
                .tm
                .abort_innermost(ctx, &mut |base, old| undo.push((base, *old)));
            let log_walk = handler + self.restore_undo(ctx, asid);
            if let Some(o) = self.oracle.as_mut() {
                o.abort_innermost(tid);
            }
            // Counted whether or not the program can resume mid-nest: the
            // frame is already unrolled either way.
            if let Some(o) = self.obs.as_deref_mut() {
                o.on_partial_abort(tid, log_walk);
            }
            let slot = &mut self.threads[tid as usize];
            if slot.with_prog(tid, now, |p, t| p.on_partial_abort(t, depth - 1)) {
                slot.partial_streak += 1;
                slot.pending_op = None;
                // The partial-abort retry waits under the same
                // randomized-exponential backoff as a full abort, scaled by
                // the streak of fruitless partials, so repeated inner-frame
                // collisions spread out instead of re-colliding inside a
                // flat window.
                let backoff = ltse_tm::conflict::abort_backoff(
                    &mut slot.rng,
                    BACKOFF_BASE_CYCLES,
                    BACKOFF_CAP_SHIFT,
                    slot.partial_streak - 1,
                );
                self.schedule_resume(tid, log_walk + backoff);
                return;
            }
            // Program can't resume mid-nest: fall through to a full abort
            // of the remaining frames (the inner one is already unrolled).
        }
        self.threads[tid as usize].partial_streak = 0;
        let undo = &mut self.undo_scratch;
        let costs = self
            .tm
            .abort_tx(ctx, now, &mut |base, old| undo.push((base, *old)));
        self.trace(now, TraceTag::Abort, || {
            format!(
                "tid={tid} restored={} backoff={}",
                costs.restored_blocks, costs.backoff
            )
        });
        let log_walk = costs.handler_cycles + self.restore_undo(ctx, asid);
        let mut os_cost = Cycle::ZERO;
        if costs.needs_summary_update {
            os_cost = self.os.on_outer_abort(&mut self.tm, asid, tid);
        }
        self.end_aborted_tx(now, tid, cause, costs.wasted_cycles, log_walk);
        if let Some(o) = self.oracle.as_mut() {
            for v in self.tm.post_tx_violations(ctx) {
                o.note(v);
            }
        }
        self.schedule_resume(tid, log_walk + costs.backoff + os_cost);
    }

    /// Software abort of a *parked* thread's transaction (the summary-
    /// signature trap handler's escape valve, paper §4.1). The handler runs
    /// on the trapping thread's core, so the restore traffic is charged to
    /// `handler_ctx`. Returns the handler's cost.
    fn abort_parked_thread(
        &mut self,
        now: Cycle,
        handler_ctx: CtxId,
        asid: Asid,
        victim: u32,
    ) -> Cycle {
        let undo = &mut self.undo_scratch;
        let costs = self
            .os
            .abort_parked(&mut self.tm, asid, victim, now, &mut |base, old| {
                undo.push((base, *old))
            });
        let cost = costs.handler_cycles + self.restore_undo(handler_ctx, asid);
        let cause = AbortCause::ParkedBySummaryHandler;
        self.end_aborted_tx(now, victim, cause, costs.wasted_cycles, cost);
        cost
    }

    /// The abort handler's restore: writes back the undo records the LIFO
    /// log walk left in `undo_scratch`, in walk order, as stores from `ctx`,
    /// and returns their memory traffic. Undo records hold virtual
    /// addresses; each is translated now, so a relocated page is restored
    /// at its new home (§4.2). The whole abort happens within one event, so
    /// isolation is not observable by other threads mid-restore (the
    /// paper's handler holds isolation until the walk completes).
    fn restore_undo(&mut self, ctx: CtxId, asid: Asid) -> Cycle {
        let mut undo = std::mem::take(&mut self.undo_scratch);
        let mut traffic = Cycle::ZERO;
        for (vbase, old) in undo.drain(..) {
            let pbase = self.translate(asid, vbase);
            let out = self
                .mem
                .access(ctx, AccessKind::Store, pbase.block(), &self.tm);
            traffic += out.latency();
            for (i, w) in old.iter().enumerate() {
                self.mem.write_word(pbase.offset(i as u64), *w);
            }
        }
        self.undo_scratch = undo;
        self.drain_overflow_events();
        traffic
    }

    /// Books an outermost abort of `tid` in obs and the oracle, and rewinds
    /// its program to re-issue `TxBegin`.
    fn end_aborted_tx(
        &mut self,
        now: Cycle,
        tid: u32,
        cause: AbortCause,
        wasted: u64,
        log_walk: Cycle,
    ) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.on_abort(tid, now, cause, wasted, log_walk);
        }
        if let Some(o) = self.oracle.as_mut() {
            o.abort_all(tid);
        }
        let slot = &mut self.threads[tid as usize];
        slot.pending_op = None;
        slot.pending_abort = false;
        slot.with_prog(tid, now, |p, t| p.on_tx_abort(t));
    }

    /// With sticky states disabled (ablation A2), evictions of
    /// transactional blocks silently lose conflict coverage; the affected
    /// transactions must conservatively abort, like cache-resident HTMs on
    /// overflow.
    fn drain_overflow_events(&mut self) {
        if !self.mem.has_overflow_events() {
            return;
        }
        for ev in self.mem.take_overflow_events() {
            for ctx in self.mem.config().ctxs_on_core(ev.core) {
                let Some(t) = self.tm.thread(ctx) else {
                    continue;
                };
                if t.covers_hw(ev.block) {
                    let tid = t.thread_id;
                    if !self.threads[tid as usize].done {
                        if !self.threads[tid as usize].pending_abort {
                            if let Some(o) = self.obs.as_deref_mut() {
                                o.bump("overflow_coverage_losses");
                            }
                        }
                        self.threads[tid as usize].pending_abort = true;
                        // Force a prompt wake-up to process the abort.
                        self.schedule_resume(tid, Cycle(1));
                    }
                }
            }
        }
    }

    fn pop_runnable(&mut self) -> Option<u32> {
        while let Some(tid) = self.run_queue.pop_front() {
            if !self.threads[tid as usize].done {
                return Some(tid);
            }
        }
        None
    }

    fn wake_onto_ctx(&mut self, _now: Cycle, tid: u32, ctx: CtxId) {
        let asid = self.threads[tid as usize].asid;
        let cost = self.os.reschedule(&mut self.tm, asid, tid, ctx);
        let slot = &mut self.threads[tid as usize];
        slot.ctx = Some(ctx);
        // Whether a resume landed while parked or the thread never started,
        // it needs a kick; the reschedule cost delays it either way.
        slot.ready_while_parked = false;
        self.schedule_resume(tid, cost);
    }

    fn on_preempt_tick(&mut self, now: Cycle) {
        let Some(p) = self.preemption else { return };
        if self.finished < self.threads.len() {
            self.queue.push_after(p.quantum, Ev::PreemptTick);
        }

        // Only preempt when someone is waiting for a context.
        if self
            .run_queue
            .iter()
            .all(|&t| self.threads[t as usize].done)
        {
            return;
        }
        let n_ctxs = self.tm.n_ctxs() as usize;
        for probe in 0..n_ctxs {
            let ctx = ((self.preempt_rr + probe) % n_ctxs) as CtxId;
            let Some(t) = self.tm.thread(ctx) else {
                continue;
            };
            if p.defer_in_tx && t.in_tx() {
                continue; // preemption-deferral (paper §4.1, [29])
            }
            let victim_tid = t.thread_id;
            if self.threads[victim_tid as usize].done {
                continue;
            }
            self.preempt_rr = (ctx as usize + 1) % n_ctxs;
            // Deschedule the victim...
            self.trace(now, TraceTag::Preempt, || {
                format!("tid={victim_tid} off ctx{ctx}")
            });
            if let Some(o) = self.obs.as_deref_mut() {
                o.bump("preemptions");
            }
            let _cost = self.os.deschedule(&mut self.tm, ctx);
            self.threads[victim_tid as usize].ctx = None;
            self.run_queue.push_back(victim_tid);
            // ...and give the context to the next waiter.
            if let Some(next) = self.pop_runnable() {
                self.wake_onto_ctx(now, next, ctx);
            }
            return;
        }
    }

    fn do_relocate_page(&mut self, now: Cycle, asid: Asid, vpage: u64) {
        self.trace(now, TraceTag::PageMove, || format!("{asid} vpage={vpage}"));
        if let Some(o) = self.obs.as_deref_mut() {
            o.bump("page_moves");
        }
        const WORDS_PER_PAGE: u64 = 512;
        let table = self.page_tables.entry(asid).or_default();
        let old_ppage = table.get(&vpage).copied().unwrap_or(vpage);
        let new_ppage = self.next_free_ppage;
        self.next_free_ppage += 1;
        table.insert(vpage, new_ppage);
        // Copy the data to its new physical home.
        for w in 0..WORDS_PER_PAGE {
            let v = self.mem.read_word(WordAddr(old_ppage * WORDS_PER_PAGE + w));
            self.mem
                .write_word(WordAddr(new_ppage * WORDS_PER_PAGE + w), v);
        }
        // Physical pages and signature pages are both 4 KB = 64 blocks.
        let old_first_block = old_ppage * WORDS_PER_PAGE / WORDS_PER_BLOCK;
        let new_first_block = new_ppage * WORDS_PER_PAGE / WORDS_PER_BLOCK;
        self.os.relocate_page(
            &mut self.tm,
            asid,
            PageId(old_first_block / ltse_mem::BLOCKS_PER_PAGE),
            PageId(new_first_block / ltse_mem::BLOCKS_PER_PAGE),
        );
        // OS cache shoot-down of the old frame, and conservative directory
        // invalidation of the new one: rehashed signatures may cover the
        // new physical blocks, so their first access must broadcast
        // signature checks instead of being granted silent exclusivity.
        for i in 0..ltse_mem::BLOCKS_PER_PAGE {
            let old_block = BlockAddr(old_first_block + i);
            self.mem.invalidate_block_everywhere(old_block);
            let new_block = BlockAddr(new_first_block + i);
            if !self.tm.coverage(new_block, None).hw.is_empty() {
                self.mem.mark_block_lost(new_block);
            }
        }
    }
}

fn sig_op(kind: AccessKind) -> ltse_sig::SigOp {
    match kind {
        AccessKind::Load => ltse_sig::SigOp::Read,
        AccessKind::Store => ltse_sig::SigOp::Write,
    }
}

fn read_block_words(mem: &MemorySystem, block: BlockAddr) -> [u64; 8] {
    let base = block.first_word();
    std::array::from_fn(|i| mem.read_word(base.offset(i as u64)))
}

// A configured System (threads included) must be able to cross OS threads:
// the parallel experiment runner builds and runs whole systems on pool
// workers. Compile-time check so a future non-Send field fails here, with
// context, rather than deep inside a sweep.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<System>();
    assert_send::<SystemBuilder>();
    assert_send::<RunError>();
    assert_send::<Box<dyn ThreadProgram>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SystemBuilder;
    use crate::program::FnProgram;
    use ltse_sig::SignatureKind;

    /// A counter-increment program: `iters` transactions of
    /// read-modify-write on `addr`, marking a work unit per commit.
    struct Counter {
        addr: WordAddr,
        iters: u32,
        step: u8,
    }

    impl Counter {
        fn new(addr: WordAddr, iters: u32) -> Self {
            Counter {
                addr,
                iters,
                step: 0,
            }
        }
    }

    impl ThreadProgram for Counter {
        fn next_op(&mut self, t: &mut ProgCtx) -> Op {
            match self.step {
                0 => {
                    if self.iters == 0 {
                        return Op::Done;
                    }
                    self.step = 1;
                    Op::TxBegin
                }
                1 => {
                    self.step = 2;
                    Op::Read(self.addr)
                }
                2 => {
                    self.step = 3;
                    Op::Write(self.addr, t.last_value + 1)
                }
                3 => {
                    self.step = 4;
                    Op::TxCommit
                }
                _ => {
                    self.step = 0;
                    self.iters -= 1;
                    Op::WorkUnitDone
                }
            }
        }

        fn on_tx_abort(&mut self, _t: &mut ProgCtx) {
            self.step = 0;
        }
    }

    fn small(kind: SignatureKind, seed: u64) -> System {
        SystemBuilder::small_for_tests()
            .signature(kind)
            .seed(seed)
            .build()
    }

    #[test]
    fn single_thread_counts_correctly() {
        let mut s = small(SignatureKind::Perfect, 1);
        s.add_thread(Box::new(Counter::new(WordAddr(0), 50)));
        let r = s.run().unwrap();
        assert_eq!(s.read_word(WordAddr(0)), 50);
        assert_eq!(r.tm.commits, 50);
        assert_eq!(r.tm.aborts, 0, "no contention, no aborts");
        assert_eq!(r.tm.work_units, 50);
        assert!(r.cycles > Cycle::ZERO);
    }

    #[test]
    fn contended_counter_is_atomic() {
        for kind in [
            SignatureKind::Perfect,
            SignatureKind::paper_bs_64(),
            SignatureKind::paper_dbs_2kb(),
        ] {
            let mut s = small(kind, 7);
            for _ in 0..4 {
                s.add_thread(Box::new(Counter::new(WordAddr(0), 25)));
            }
            let r = s.run().unwrap();
            assert_eq!(s.read_word(WordAddr(0)), 100, "{kind}: atomicity");
            assert_eq!(r.tm.commits, 100, "{kind}");
            assert!(r.tm.stalls > 0, "{kind}: contention must cause stalls");
        }
    }

    #[test]
    fn aborted_transactions_leave_no_trace() {
        // Heavy same-word contention: every abort must restore the old
        // value, so the final count equals the committed increments exactly.
        let mut s = small(SignatureKind::Perfect, 3);
        for _ in 0..4 {
            s.add_thread(Box::new(Counter::new(WordAddr(0), 10)));
        }
        let r = s.run().unwrap();
        assert_eq!(s.read_word(WordAddr(0)), 40);
        assert_eq!(r.tm.commits, 40);
    }

    #[test]
    fn obs_off_by_default_and_report_carries_none() {
        let mut s = small(SignatureKind::Perfect, 1);
        s.add_thread(Box::new(Counter::new(WordAddr(0), 5)));
        let r = s.run().unwrap();
        assert!(r.obs.is_none());
        assert!(s.obs_report().is_none());
    }

    /// The heart of the observability contract: every cause-attributed
    /// counter must sum to the corresponding aggregate TM statistic, under
    /// contention, for exact and aliasing signatures alike.
    #[test]
    fn obs_attribution_reconciles_with_tm_stats() {
        for kind in [
            SignatureKind::Perfect,
            SignatureKind::paper_bs_64(),
            SignatureKind::paper_dbs_2kb(),
        ] {
            let mut s = SystemBuilder::small_for_tests()
                .signature(kind)
                .seed(7)
                .observe(true)
                .build();
            for _ in 0..4 {
                s.add_thread(Box::new(Counter::new(WordAddr(0), 25)));
            }
            let r = s.run().unwrap();
            let o = r.obs.as_ref().expect("observe(true) fills the report");
            assert_eq!(o.stall_total(), r.tm.stalls, "{kind}: stall causes");
            assert_eq!(
                o.stalls_sibling, r.tm.sibling_stalls,
                "{kind}: sibling split"
            );
            assert_eq!(o.abort_total(), r.tm.aborts, "{kind}: abort causes");
            assert_eq!(
                o.cycles_total().aborted,
                r.tm.wasted_cycles,
                "{kind}: aborted cycles"
            );
            assert_eq!(
                o.metrics.get("partial_aborts"),
                r.tm.partial_aborts,
                "{kind}: partial aborts"
            );
            assert_eq!(
                o.spans_committed, r.tm.commits,
                "{kind}: one committed span per commit"
            );
            // Every classified NACK carries exactly one detection path,
            // one judgement outcome, and one (nacker, requester) pair.
            let judged =
                o.nacks_judged_true + o.nacks_judged_false + o.metrics.get("nacks_unjudged");
            assert_eq!(o.nack_detect_total(), judged, "{kind}: judgement total");
            let paired: u64 = o.nack_pairs.iter().map(|&(_, _, n)| n).sum();
            assert_eq!(o.nack_detect_total(), paired, "{kind}: pair total");
            // Contention on one word through exact sets is all true sharing.
            if kind == SignatureKind::Perfect {
                assert_eq!(o.nacks_judged_false, 0, "perfect sets cannot alias");
            }
            assert!(r.tm.stalls > 0, "{kind}: the workload must contend");
        }
    }

    #[test]
    fn obs_reconciles_across_warmup_boundary() {
        let mut s = SystemBuilder::small_for_tests()
            .signature(SignatureKind::paper_bs_2kb())
            .seed(11)
            .observe(true)
            .warmup_units(20)
            .build();
        for _ in 0..4 {
            s.add_thread(Box::new(Counter::new(WordAddr(0), 25)));
        }
        let r = s.run().unwrap();
        let o = r.obs.as_ref().unwrap();
        // The warm-up reset zeroes both sides at the same instant, so the
        // post-warmup totals still reconcile — and the measured window saw
        // fewer commits than the whole run.
        assert_eq!(o.stall_total(), r.tm.stalls);
        assert_eq!(o.abort_total(), r.tm.aborts);
        assert_eq!(o.spans_committed, r.tm.commits);
        assert!(r.tm.commits < 100, "warm-up discarded some commits");
        assert_eq!(s.read_word(WordAddr(0)), 100, "warm-up is observational");
    }

    #[test]
    fn obs_cycle_breakdown_is_sane() {
        let mut s = SystemBuilder::small_for_tests()
            .signature(SignatureKind::Perfect)
            .seed(3)
            .observe(true)
            .build();
        for _ in 0..4 {
            s.add_thread(Box::new(Counter::new(WordAddr(0), 25)));
        }
        let r = s.run().unwrap();
        let o = r.obs.as_ref().unwrap();
        let total = o.cycles_total();
        assert!(total.useful > 0, "committed work accrues useful cycles");
        assert!(total.stalled > 0, "contention accrues stall waits");
        assert_eq!(o.per_thread.len(), 4);
        // Spans are per-transaction: committed ones outnumber everything
        // else here, and each stays within the run.
        assert_eq!(
            o.spans_committed + o.spans_aborted,
            o.spans.len() as u64 + o.spans_dropped
        );
        for sp in &o.spans {
            assert!(sp.end >= sp.begin);
            assert!(sp.end <= r.cycles);
        }
    }

    #[test]
    fn obs_identical_run_is_deterministic() {
        let run = |seed| {
            let mut s = SystemBuilder::small_for_tests()
                .signature(SignatureKind::paper_bs_64())
                .seed(seed)
                .observe(true)
                .build();
            for _ in 0..4 {
                s.add_thread(Box::new(Counter::new(WordAddr(0), 20)));
            }
            s.run().unwrap().obs.unwrap()
        };
        assert_eq!(run(42), run(42), "obs must not perturb determinism");
    }

    #[test]
    fn obs_is_purely_observational() {
        // Toggling the layer must not change the simulation itself.
        let run = |observe: bool| {
            let mut s = SystemBuilder::small_for_tests()
                .signature(SignatureKind::paper_bs_2kb())
                .seed(9)
                .observe(observe)
                .build();
            for _ in 0..4 {
                s.add_thread(Box::new(Counter::new(WordAddr(0), 20)));
            }
            let r = s.run().unwrap();
            (
                r.cycles,
                r.tm.commits,
                r.tm.aborts,
                r.tm.stalls,
                r.mem.messages.get(),
                r.mem.nacks.get(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut s = small(SignatureKind::paper_bs_2kb(), seed);
            for _ in 0..4 {
                s.add_thread(Box::new(Counter::new(WordAddr(0), 20)));
            }
            let r = s.run().unwrap();
            (r.cycles, r.tm.commits, r.tm.aborts, r.tm.stalls)
        };
        assert_eq!(run(42), run(42));
        // Different seeds perturb the interleaving (almost surely different
        // cycle counts).
        assert_ne!(run(1).0, run(2).0);
    }

    #[test]
    fn no_threads_is_an_error() {
        let mut s = small(SignatureKind::Perfect, 1);
        assert!(matches!(s.run(), Err(RunError::NoThreads)));
    }

    #[test]
    fn too_many_threads_without_preemption_is_an_error() {
        let mut s = small(SignatureKind::Perfect, 1);
        for _ in 0..9 {
            // small_for_tests has 8 contexts
            s.add_thread(Box::new(Counter::new(WordAddr(0), 1)));
        }
        assert!(matches!(s.run(), Err(RunError::TooManyThreads { .. })));
    }

    #[test]
    fn work_op_advances_time_only() {
        let mut s = small(SignatureKind::Perfect, 1);
        let mut emitted = 0;
        s.add_thread(Box::new(FnProgram::new(move |_t, _| {
            emitted += 1;
            match emitted {
                1 => Op::Work(1000),
                _ => Op::Done,
            }
        })));
        let r = s.run().unwrap();
        assert!(r.cycles >= Cycle(1000));
        assert_eq!(r.mem.l1_hits.get() + r.mem.l1_misses.get(), 0);
    }

    #[test]
    fn header_store_l1_hit_is_nacked_by_an_aliasing_smt_sibling() {
        // Thread 0 (core 0, slot 0) commits one transaction, so its log
        // header block sits in core 0's L1, then begins another: the header
        // store hits there and bypasses the pre-access check. Meanwhile
        // thread 1 (core 0, slot 1) holds a transaction that wrote `data`;
        // on 64-bit bit-select signatures block 64 aliases the header block
        // (2^40), so only the L1 hit's own sibling check can NACK the store.
        let run = |data: WordAddr| {
            let mut s = SystemBuilder::paper_default()
                .signature(SignatureKind::BitSelect { bits: 64 })
                .seed(3)
                .build();
            let script0 = [
                Op::TxBegin,
                Op::TxCommit,
                Op::Work(3_000),
                Op::TxBegin,
                Op::TxCommit,
            ];
            let script1 = [
                Op::Work(1_000),
                Op::TxBegin,
                Op::Write(data, 1),
                Op::Work(20_000),
                Op::TxCommit,
            ];
            for script in [script0, script1] {
                let mut next = script.into_iter();
                s.add_thread(Box::new(FnProgram::new(move |_t, aborted| {
                    assert!(!aborted, "no transaction here aborts");
                    next.next().unwrap_or(Op::Done)
                })));
            }
            let r = s.run().unwrap();
            (r.mem.nacks.get(), r.tm.false_conflicts_signalled.get())
        };
        let header = TmUnit::log_base_for_thread(0).block();
        assert_eq!(header.as_u64() % 64, 64 % 64, "block 64 aliases the header");
        let (nacks, false_conflicts) = run(BlockAddr(65).first_word());
        assert_eq!(
            run(BlockAddr(64).first_word()),
            (nacks + 1, false_conflicts + 1)
        );
    }

    #[test]
    fn escape_actions_do_not_isolate() {
        // Thread 0 writes block X inside an escape action within its tx;
        // thread 1 must be able to write it concurrently (no NACK), so the
        // run completes without thread 0 committing first.
        let mut s = small(SignatureKind::Perfect, 5);
        let mut step0 = 0;
        s.add_thread(Box::new(FnProgram::new(move |_t, aborted| {
            if aborted {
                step0 = 0;
            }
            step0 += 1;
            match step0 {
                1 => Op::TxBegin,
                2 => Op::EscapeBegin,
                3 => Op::Write(WordAddr(512), 1),
                4 => Op::EscapeEnd,
                5 => Op::Work(5000), // hold the tx open a long time
                6 => Op::TxCommit,
                _ => Op::Done,
            }
        })));
        let mut step1 = 0;
        s.add_thread(Box::new(FnProgram::new(move |_t, _| {
            step1 += 1;
            match step1 {
                1 => Op::Work(200), // let thread 0 get going
                2 => Op::Write(WordAddr(512), 2),
                _ => Op::Done,
            }
        })));
        let r = s.run().unwrap();
        assert_eq!(r.tm.escapes, 1);
        assert_eq!(r.tm.aborts, 0, "escape writes are not isolated");
    }

    #[test]
    fn preemption_round_robins_threads_over_contexts() {
        let mut s = SystemBuilder::small_for_tests()
            .seed(9)
            .preemption(Cycle(2_000), true)
            .build();
        // 12 threads over 8 contexts.
        for _ in 0..12 {
            s.add_thread(Box::new(Counter::new(WordAddr(0), 10)));
        }
        let r = s.run().unwrap();
        assert_eq!(s.read_word(WordAddr(0)), 120);
        assert_eq!(r.tm.commits, 120);
        assert!(r.os.deschedules > 0, "preemption happened");
        assert_eq!(r.threads_completed, 12);
    }

    #[test]
    fn preemption_mid_transaction_maintains_isolation() {
        // No deferral: threads get descheduled inside transactions, so
        // summary signatures must carry their isolation.
        let mut s = SystemBuilder::small_for_tests()
            .seed(11)
            .preemption(Cycle(300), false)
            .build();
        for _ in 0..10 {
            s.add_thread(Box::new(Counter::new(WordAddr(0), 8)));
        }
        let r = s.run().unwrap();
        assert_eq!(s.read_word(WordAddr(0)), 80, "atomicity across switches");
        assert_eq!(r.tm.commits, 80);
        assert!(r.os.tx_deschedules > 0, "some switch hit a transaction");
    }

    #[test]
    fn page_relocation_mid_run_preserves_isolation_and_data() {
        let mut s = small(SignatureKind::paper_bs_2kb(), 13);
        for _ in 0..4 {
            s.add_thread(Box::new(Counter::new(WordAddr(3), 30)));
        }
        // Relocate the page containing word 3 (vpage 0) mid-run, twice.
        s.schedule_page_relocation(Cycle(400), Asid(0), 0);
        s.schedule_page_relocation(Cycle(1_200), Asid(0), 0);
        let r = s.run().unwrap();
        assert_eq!(s.read_word(WordAddr(3)), 120, "data + atomicity survive");
        assert_eq!(r.tm.commits, 120);
        assert_eq!(r.os.pages_relocated, 2);
        assert!(r.cycles > Cycle(1_200), "run spanned both relocations");
    }

    /// Always picks the earliest event: must reproduce `run()` exactly.
    struct FifoChooser;
    impl EventChooser for FifoChooser {
        fn choose(&mut self, _n: usize) -> usize {
            0
        }
    }

    #[test]
    fn run_explored_with_fifo_chooser_matches_run() {
        let run = |explored: bool| {
            let mut s = small(SignatureKind::paper_bs_2kb(), 42);
            for _ in 0..4 {
                s.add_thread(Box::new(Counter::new(WordAddr(0), 10)));
            }
            let r = if explored {
                s.run_explored(&mut FifoChooser, 4, Cycle(4)).unwrap()
            } else {
                s.run().unwrap()
            };
            (
                r.cycles,
                r.tm.commits,
                r.tm.aborts,
                s.read_word(WordAddr(0)),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn oracle_passes_a_clean_contended_run() {
        let mut s = SystemBuilder::small_for_tests()
            .seed(3)
            .check_serializability(true)
            .build();
        for _ in 0..4 {
            s.add_thread(Box::new(Counter::new(WordAddr(0), 10)));
        }
        let r = s.run().unwrap();
        assert!(r.tm.aborts > 0, "this seed is known to abort");
        let errs = s.finish_checks();
        assert!(errs.is_empty(), "{errs:?}");
        let o = s.oracle().expect("oracle attached");
        assert_eq!(o.committed_txs(), 40);
        assert!(o.checked_reads() >= 40);
    }

    /// Two-word transactions taken in opposite orders: conflicts form a
    /// cycle, so some transaction aborts *after* its first store was logged —
    /// exactly the state in which `fault_skip_one_undo` corrupts memory.
    fn opposite_order_workload(s: &mut System) {
        use crate::program::{ScriptOp, TxScript};
        let (a, b) = (WordAddr(0), WordAddr(8)); // distinct blocks
        for t in 0..4 {
            let ops = if t % 2 == 0 {
                vec![ScriptOp::AddTo(a, 1), ScriptOp::AddTo(b, 1)]
            } else {
                vec![ScriptOp::AddTo(b, 1), ScriptOp::AddTo(a, 1)]
            };
            s.add_thread(Box::new(TxScript::new(vec![ops; 10])));
        }
    }

    #[test]
    fn oracle_catches_the_injected_undo_fault() {
        // Same machine and workload, but the abort handler silently skips
        // one undo record: memory diverges from the serial replay and the
        // oracle must say so even though the run itself "succeeds".
        let mut s = SystemBuilder::small_for_tests()
            .seed(3)
            .check_serializability(true)
            .fault_skip_one_undo(true)
            .build();
        opposite_order_workload(&mut s);
        let _ = s.run();
        let errs = s.finish_checks();
        assert!(!errs.is_empty(), "the skipped undo record must be detected");
    }

    #[test]
    fn oracle_passes_the_opposite_order_workload_without_the_fault() {
        let mut s = SystemBuilder::small_for_tests()
            .seed(3)
            .check_serializability(true)
            .build();
        opposite_order_workload(&mut s);
        let r = s.run().unwrap();
        assert!(r.tm.aborts > 0, "the cycle must force aborts");
        let errs = s.finish_checks();
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn oracle_ignores_escape_action_effects_correctly() {
        // The escape-action scenario from `escape_actions_do_not_isolate`,
        // with checking on: escape writes are immediate and survive, and the
        // oracle must not flag the run.
        let mut s = SystemBuilder::small_for_tests()
            .seed(5)
            .check_serializability(true)
            .build();
        let mut step0 = 0;
        s.add_thread(Box::new(FnProgram::new(move |_t, aborted| {
            if aborted {
                step0 = 0;
            }
            step0 += 1;
            match step0 {
                1 => Op::TxBegin,
                2 => Op::EscapeBegin,
                3 => Op::Write(WordAddr(512), 1),
                4 => Op::EscapeEnd,
                5 => Op::Work(5000),
                6 => Op::TxCommit,
                _ => Op::Done,
            }
        })));
        let mut step1 = 0;
        s.add_thread(Box::new(FnProgram::new(move |_t, _| {
            step1 += 1;
            match step1 {
                1 => Op::Work(200),
                2 => Op::Write(WordAddr(512), 2),
                _ => Op::Done,
            }
        })));
        s.run().unwrap();
        let errs = s.finish_checks();
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn report_before_run_is_empty() {
        let s = small(SignatureKind::Perfect, 1);
        let r = s.report();
        assert_eq!(r.tm.commits, 0);
        assert_eq!(r.cycles, Cycle::ZERO);
    }
}
