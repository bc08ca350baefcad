//! The operating-system model: thread suspension/migration with summary
//! signatures (paper §4.1) and transactional paging (§4.2).
//!
//! The OS maintains, per process, the contribution of every
//! descheduled-mid-transaction thread to the process **summary signature**,
//! using counting signatures (the paper's footnote 1, after VTM's XF) so
//! removing one thread's contribution never clobbers bits owed to another.
//! On every deschedule/commit it pushes refreshed summaries to all thread
//! contexts running that process; each context's summary excludes its own
//! thread's contribution ("to prevent conflicts with its own read- and
//! write-sets").

use std::collections::HashMap;

use ltse_mem::{Asid, CtxId, PageId};
use ltse_sig::{
    CountingSignature, PerfectSignature, ReadWriteSignature, SavedSignature, ShadowedRwSignature,
    SigRepr, SignatureKind,
};
use ltse_sim::Cycle;

use crate::ctx::{AbortCosts, ThreadTmState};
use crate::unit::TmUnit;

/// Fixed OS-operation costs (cycles), chosen to make context switches
/// "relatively high" cost as the paper says, so preemption-deferral has
/// something to save.
const DESCHEDULE_CYCLES: u64 = 400;
const RESCHEDULE_CYCLES: u64 = 400;
const SUMMARY_INSTALL_CYCLES_PER_CTX: u64 = 150;
const PAGE_SIGWALK_CYCLES: u64 = 250;

/// One descheduled thread's saved signature contribution.
#[derive(Debug, Clone)]
struct Contribution {
    read_save: SavedSignature,
    write_save: SavedSignature,
    exact_read: Vec<u64>,
    exact_write: Vec<u64>,
}

/// Per-process OS bookkeeping.
#[derive(Debug)]
struct Process {
    /// Counting filters for hashed signature kinds (`None` for `Perfect`).
    counting_read: Option<CountingSignature>,
    counting_write: Option<CountingSignature>,
    /// Contributions of threads descheduled mid-transaction; persist until
    /// the thread's transaction commits (even after reschedule, §4.1).
    contributions: HashMap<u32, Contribution>,
    /// Parked thread states, by thread id.
    parked: HashMap<u32, ThreadTmState>,
}

impl Process {
    fn new(kind: &SignatureKind) -> Self {
        Process {
            counting_read: counting_filter(kind),
            counting_write: counting_filter(kind),
            contributions: HashMap::new(),
            parked: HashMap::new(),
        }
    }
}

/// An empty counting filter as wide as a `kind` signature, or `None` for
/// perfect signatures (their summaries are exact unions instead).
fn counting_filter(kind: &SignatureKind) -> Option<CountingSignature> {
    match kind {
        SignatureKind::Perfect => None,
        _ => Some(CountingSignature::new(SigRepr::new(kind).bits_len())),
    }
}

/// OS statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OsStats {
    /// Threads descheduled (context switched out).
    pub deschedules: u64,
    /// Threads descheduled while inside a transaction.
    pub tx_deschedules: u64,
    /// Threads (re)scheduled onto a context.
    pub reschedules: u64,
    /// Summary signatures pushed to hardware contexts.
    pub summary_installs: u64,
    /// Summary recomputations triggered by transaction commits.
    pub commit_recomputes: u64,
    /// Pages relocated while transactional state referenced them.
    pub pages_relocated: u64,
}

/// The OS model. One instance manages all processes of a run.
#[derive(Debug)]
pub struct OsModel {
    kind: SignatureKind,
    processes: HashMap<Asid, Process>,
    /// Statistics.
    pub stats: OsStats,
}

impl OsModel {
    /// Creates an OS model for systems configured with `kind` signatures.
    pub fn new(kind: SignatureKind) -> Self {
        OsModel {
            kind,
            processes: HashMap::new(),
            stats: OsStats::default(),
        }
    }

    fn process(&mut self, asid: Asid) -> &mut Process {
        let kind = self.kind;
        self.processes
            .entry(asid)
            .or_insert_with(|| Process::new(&kind))
    }

    /// Parks a fresh (idle) thread state without it ever having run — used
    /// when more threads are created than hardware contexts exist.
    ///
    /// # Panics
    ///
    /// Panics if the thread is mid-transaction (use
    /// [`OsModel::deschedule`] for that).
    pub fn park_thread(&mut self, state: ThreadTmState) {
        assert!(
            !state.in_tx(),
            "park_thread is for idle threads; deschedule running ones"
        );
        let asid = state.asid;
        let id = state.thread_id;
        self.process(asid).parked.insert(id, state);
    }

    /// Thread ids currently parked (descheduled) for `asid`.
    pub fn parked_threads(&self, asid: Asid) -> Vec<u32> {
        self.processes
            .get(&asid)
            .map(|p| {
                let mut v: Vec<u32> = p.parked.keys().copied().collect();
                v.sort_unstable();
                v
            })
            .unwrap_or_default()
    }

    /// Descheduls the thread on `ctx`: saves its signatures (into the
    /// conceptual log frame), merges them into the process summary, parks
    /// the state, and pushes refreshed summaries to every context still
    /// running the process. Returns the cycle cost to charge.
    ///
    /// # Panics
    ///
    /// Panics if no thread is installed on `ctx`.
    pub fn deschedule(&mut self, tm: &mut TmUnit, ctx: CtxId) -> Cycle {
        let mut state = tm
            .take_thread(ctx)
            .unwrap_or_else(|| panic!("no thread on ctx {ctx} to deschedule"));
        self.stats.deschedules += 1;
        let asid = state.asid;
        let thread_id = state.thread_id;
        let mut cost = Cycle(DESCHEDULE_CYCLES);

        if state.in_tx() {
            self.stats.tx_deschedules += 1;
            state.in_summary = true;
            let (read_save, write_save) = state.sig().hw().save();
            let contribution = Contribution {
                exact_read: state.sig().exact_read_blocks(),
                exact_write: state.sig().exact_write_blocks(),
                read_save,
                write_save,
            };
            let proc = self.process(asid);
            // A second deschedule in the same transaction replaces the
            // thread's earlier save, so those bits leave the counts too;
            // commit removes only the latest save, and anything left over
            // would stay in every later summary.
            let replaced = proc.contributions.remove(&thread_id);
            if let (Some(cr), Some(cw)) = (&mut proc.counting_read, &mut proc.counting_write) {
                if let Some(old) = &replaced {
                    cr.remove(&old.read_save);
                    cw.remove(&old.write_save);
                }
                cr.add(&contribution.read_save);
                cw.add(&contribution.write_save);
            }
            proc.contributions.insert(thread_id, contribution);
            self.process(asid).parked.insert(thread_id, state);
            cost += self.refresh_summaries(tm, asid);
        } else {
            self.process(asid).parked.insert(thread_id, state);
        }
        cost
    }

    /// Schedules parked `thread_id` onto idle context `ctx` (same or a
    /// different core — migration is the same operation). The thread's own
    /// contribution stays in the process summary until it commits; the
    /// summary installed on `ctx` excludes it.
    ///
    /// # Panics
    ///
    /// Panics if the thread is not parked or `ctx` is occupied.
    pub fn reschedule(&mut self, tm: &mut TmUnit, asid: Asid, thread_id: u32, ctx: CtxId) -> Cycle {
        let state = self
            .process(asid)
            .parked
            .remove(&thread_id)
            .unwrap_or_else(|| panic!("thread {thread_id} is not parked"));
        self.stats.reschedules += 1;
        tm.install_thread(ctx, state);
        let summary = self.summary_for(asid, Some(thread_id));
        if let Some(t) = tm.thread_mut(ctx) {
            t.install_summary(summary);
        }
        self.stats.summary_installs += 1;
        Cycle(RESCHEDULE_CYCLES + SUMMARY_INSTALL_CYCLES_PER_CTX)
    }

    /// Called when a thread's outermost transaction aborts and it had been
    /// context-switched during the transaction: the aborted transaction's
    /// isolation is released, so its summary contribution must go too.
    pub fn on_outer_abort(&mut self, tm: &mut TmUnit, asid: Asid, thread_id: u32) -> Cycle {
        self.on_outer_commit(tm, asid, thread_id)
    }

    /// Finds a *parked* thread whose exact saved read/write-sets conflict
    /// with an access of kind `op` to `block` — the thread a summary-
    /// signature trap handler would have to deal with. When several do, the
    /// lowest thread id wins, so the choice does not depend on `HashMap`
    /// iteration order.
    pub fn parked_tx_conflictor(&self, asid: Asid, op: ltse_sig::SigOp, block: u64) -> Option<u32> {
        let proc = self.processes.get(&asid)?;
        proc.contributions
            .iter()
            .filter(|(id, _)| proc.parked.contains_key(id))
            .filter(|(_, c)| match op {
                ltse_sig::SigOp::Read => c.exact_write.contains(&block),
                ltse_sig::SigOp::Write => {
                    c.exact_read.contains(&block) || c.exact_write.contains(&block)
                }
            })
            .map(|(id, _)| *id)
            .min()
    }

    /// Aborts a *descheduled* transaction in software — the escape valve of
    /// the paper's §4.1 conflict handler ("stalling is not sufficient to
    /// resolve a conflict with a descheduled thread"). The handler (running
    /// on the trapping thread's core) walks the parked thread's log; the
    /// caller applies the undo records to memory via `restore`. The parked
    /// thread's contribution leaves the process summary and refreshed
    /// summaries are pushed.
    ///
    /// Returns the victim's abort costs. Its `handler_cycles` include the
    /// summary refresh, which is done here, so `needs_summary_update` is
    /// always false.
    ///
    /// # Panics
    ///
    /// Panics if the thread is not parked mid-transaction.
    pub fn abort_parked(
        &mut self,
        tm: &mut TmUnit,
        asid: Asid,
        thread_id: u32,
        now: Cycle,
        restore: &mut dyn FnMut(ltse_mem::WordAddr, &[u64; 8]),
    ) -> AbortCosts {
        let config = *tm.config();
        let proc = self.process(asid);
        let state = proc
            .parked
            .get_mut(&thread_id)
            .unwrap_or_else(|| panic!("thread {thread_id} is not parked"));
        assert!(
            state.in_tx(),
            "parked thread {thread_id} has no transaction"
        );
        let mut costs = state.abort_all(&config, now, restore);
        if std::mem::take(&mut costs.needs_summary_update) {
            costs.handler_cycles += self.on_outer_abort(tm, asid, thread_id);
        }
        costs
    }

    /// Called when a thread's outermost transaction commits and it had been
    /// context-switched during the transaction: removes its contribution
    /// and pushes updated summaries (paper: "On transaction commit,
    /// LogTM-SE traps to the OS, which pushes an updated summary signature
    /// to active threads").
    pub fn on_outer_commit(&mut self, tm: &mut TmUnit, asid: Asid, thread_id: u32) -> Cycle {
        let proc = self.process(asid);
        if let Some(contribution) = proc.contributions.remove(&thread_id) {
            if let (Some(cr), Some(cw)) = (&mut proc.counting_read, &mut proc.counting_write) {
                cr.remove(&contribution.read_save);
                cw.remove(&contribution.write_save);
            }
            self.stats.commit_recomputes += 1;
            return self.refresh_summaries(tm, asid);
        }
        Cycle::ZERO
    }

    /// Relocates physical page `old` to `new` for process `asid` while
    /// transactions may reference it (paper §4.2): interrupts every running
    /// thread of the process and rewrites its signatures; queues the remap
    /// for parked threads (applied before they resume); rebuilds the
    /// summary structures so saved contributions cover the new address too.
    pub fn relocate_page(
        &mut self,
        tm: &mut TmUnit,
        asid: Asid,
        old: PageId,
        new: PageId,
    ) -> Cycle {
        self.stats.pages_relocated += 1;
        let mut cost = Cycle(0);

        // Running threads: interrupt, walk, and update in place.
        for ctx in 0..tm.n_ctxs() {
            let Some(t) = tm.thread_mut(ctx) else {
                continue;
            };
            if t.asid != asid {
                continue;
            }
            t.remap_page_now(old, new);
            cost += Cycle(PAGE_SIGWALK_CYCLES);
        }

        // Parked threads: queue a signal (applied at reschedule).
        let kind = self.kind;
        let proc = self.process(asid);
        for t in proc.parked.values_mut() {
            t.queue_page_remap(old, new);
        }

        // Rebuild contributions conservatively: each saved signature gets
        // the new page's blocks inserted wherever the old page's may be.
        let mut rebuilt = false;
        for contribution in proc.contributions.values_mut() {
            let mut tmp = ReadWriteSignature::new(&kind);
            tmp.restore(&(
                contribution.read_save.clone(),
                contribution.write_save.clone(),
            ));
            tmp.rehash_page(
                old.first_block().as_u64(),
                new.first_block().as_u64(),
                ltse_mem::BLOCKS_PER_PAGE,
            );
            let (r, w) = tmp.save();
            contribution.read_save = r;
            contribution.write_save = w;
            let remap_exact = |v: &mut Vec<u64>| {
                let old_base = old.first_block().as_u64();
                let new_base = new.first_block().as_u64();
                let extra: Vec<u64> = v
                    .iter()
                    .filter(|&&b| b >= old_base && b < old_base + ltse_mem::BLOCKS_PER_PAGE)
                    .map(|&b| new_base + (b - old_base))
                    .collect();
                v.extend(extra);
            };
            remap_exact(&mut contribution.exact_read);
            remap_exact(&mut contribution.exact_write);
            rebuilt = true;
        }
        if rebuilt {
            // Counting filters no longer match the rewritten saves; rebuild
            // them from scratch.
            if let (Some(mut cr), Some(mut cw)) = (counting_filter(&kind), counting_filter(&kind)) {
                for c in proc.contributions.values() {
                    cr.add(&c.read_save);
                    cw.add(&c.write_save);
                }
                proc.counting_read = Some(cr);
                proc.counting_write = Some(cw);
            }
            cost += self.refresh_summaries(tm, asid);
        }
        cost
    }

    /// Builds the summary signature for a context running `exclude_thread`
    /// of process `asid` — the union of all *other* contributions — or
    /// `None` when no contribution remains.
    fn summary_for(
        &mut self,
        asid: Asid,
        exclude_thread: Option<u32>,
    ) -> Option<ShadowedRwSignature> {
        let kind = self.kind;
        let proc = self.process(asid);
        let relevant: Vec<&Contribution> = proc
            .contributions
            .iter()
            .filter(|(id, _)| Some(**id) != exclude_thread)
            .map(|(_, c)| c)
            .collect();
        if relevant.is_empty() {
            return None;
        }

        let mut exact_read = PerfectSignature::new();
        let mut exact_write = PerfectSignature::new();
        for c in &relevant {
            for &b in &c.exact_read {
                exact_read.insert(b);
            }
            for &b in &c.exact_write {
                exact_write.insert(b);
            }
        }
        Some(match (&proc.counting_read, &proc.counting_write) {
            (Some(cr), Some(cw)) => {
                // Counting structures cover ALL contributions; clone and
                // subtract the excluded thread's.
                let mut cr = cr.clone();
                let mut cw = cw.clone();
                if let Some(ex) = exclude_thread {
                    if let Some(c) = proc.contributions.get(&ex) {
                        cr.remove(&c.read_save);
                        cw.remove(&c.write_save);
                    }
                }
                ShadowedRwSignature::from_raw(
                    ReadWriteSignature::from_parts(cr.materialize(&kind), cw.materialize(&kind)),
                    exact_read,
                    exact_write,
                )
            }
            // Perfect signatures: the exact union is the summary.
            _ => ShadowedRwSignature::from_exact(exact_read, exact_write),
        })
    }

    /// Pushes refreshed summaries to every context running `asid`.
    fn refresh_summaries(&mut self, tm: &mut TmUnit, asid: Asid) -> Cycle {
        let mut installs = 0u64;
        for ctx in 0..tm.n_ctxs() {
            let Some(t) = tm.thread(ctx) else { continue };
            if t.asid != asid {
                continue;
            }
            let thread_id = t.thread_id;
            let summary = self.summary_for(asid, Some(thread_id));
            if let Some(t) = tm.thread_mut(ctx) {
                t.install_summary(summary);
                installs += 1;
            }
        }
        self.stats.summary_installs += installs;
        Cycle(installs * SUMMARY_INSTALL_CYCLES_PER_CTX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TmConfig;
    use crate::ctx::NestKind;
    use ltse_mem::{AccessKind, BlockAddr};
    use ltse_sig::SigOp;

    fn setup(kind: SignatureKind) -> (TmUnit, OsModel) {
        let tm = TmUnit::with_smt(TmConfig::default_with(kind), 8, 2);
        let os = OsModel::new(kind);
        (tm, os)
    }

    #[test]
    fn deschedule_installs_summary_on_running_contexts() {
        for kind in [SignatureKind::Perfect, SignatureKind::paper_bs_2kb()] {
            let (mut tm, mut os) = setup(kind);
            tm.begin_tx(0, NestKind::Closed, Cycle(0));
            tm.record_access(0, AccessKind::Store, BlockAddr(42));
            let cost = os.deschedule(&mut tm, 0);
            assert!(cost > Cycle(DESCHEDULE_CYCLES - 1));
            assert!(tm.thread(0).is_none());
            // Every other context of the process sees the summary.
            let t1 = tm.thread(1).unwrap();
            assert!(t1.check_summary(SigOp::Write, BlockAddr(42)), "{kind}");
            assert!(t1.check_summary(SigOp::Read, BlockAddr(42)), "{kind}");
            assert!(
                !t1.check_summary(SigOp::Read, BlockAddr(43)) || kind != SignatureKind::Perfect
            );
        }
    }

    #[test]
    fn deschedule_idle_thread_adds_no_summary() {
        let (mut tm, mut os) = setup(SignatureKind::Perfect);
        os.deschedule(&mut tm, 3);
        assert!(tm.thread(1).unwrap().summary().is_none());
        assert_eq!(os.stats.tx_deschedules, 0);
        assert_eq!(os.parked_threads(Asid(0)), vec![3]);
    }

    #[test]
    fn reschedule_excludes_own_contribution() {
        let (mut tm, mut os) = setup(SignatureKind::paper_bs_2kb());
        tm.begin_tx(0, NestKind::Closed, Cycle(0));
        tm.record_access(0, AccessKind::Store, BlockAddr(42));
        os.deschedule(&mut tm, 0);
        // Migrate to context 6 (different core).
        os.deschedule(&mut tm, 6); // park the idle default thread first
        os.reschedule(&mut tm, Asid(0), 0, 6);
        let t = tm.thread(6).unwrap();
        assert_eq!(t.thread_id, 0);
        assert!(t.in_tx(), "transaction survived the migration");
        assert!(
            !t.check_summary(SigOp::Write, BlockAddr(42)),
            "own sets excluded from own summary"
        );
        // Another context still sees the (uncommitted) contribution.
        assert!(tm
            .thread(1)
            .unwrap()
            .check_summary(SigOp::Write, BlockAddr(42)));
    }

    #[test]
    fn commit_clears_summaries_everywhere() {
        let (mut tm, mut os) = setup(SignatureKind::paper_bs_2kb());
        tm.begin_tx(0, NestKind::Closed, Cycle(0));
        tm.record_access(0, AccessKind::Store, BlockAddr(42));
        os.deschedule(&mut tm, 0);
        os.deschedule(&mut tm, 6);
        os.reschedule(&mut tm, Asid(0), 0, 6);
        let out = tm.commit_tx(6, Cycle(100));
        assert!(out.needs_summary_update);
        os.on_outer_commit(&mut tm, Asid(0), 0);
        for ctx in [1u32, 2, 3, 4, 5, 7] {
            assert!(
                !tm.thread(ctx)
                    .unwrap()
                    .check_summary(SigOp::Write, BlockAddr(42)),
                "ctx {ctx} summary cleared"
            );
        }
        assert_eq!(os.stats.commit_recomputes, 1);
    }

    #[test]
    fn two_descheduled_threads_remove_one_keeps_other() {
        let (mut tm, mut os) = setup(SignatureKind::paper_bs_2kb());
        tm.begin_tx(0, NestKind::Closed, Cycle(0));
        tm.record_access(0, AccessKind::Store, BlockAddr(100));
        tm.begin_tx(2, NestKind::Closed, Cycle(1));
        tm.record_access(2, AccessKind::Store, BlockAddr(200));
        os.deschedule(&mut tm, 0);
        os.deschedule(&mut tm, 2);
        // Commit thread 0's tx vicariously: reschedule it, commit, notify.
        os.reschedule(&mut tm, Asid(0), 0, 0);
        tm.commit_tx(0, Cycle(50));
        os.on_outer_commit(&mut tm, Asid(0), 0);
        let t1 = tm.thread(1).unwrap();
        assert!(!t1.check_summary(SigOp::Write, BlockAddr(100)), "0 gone");
        assert!(t1.check_summary(SigOp::Write, BlockAddr(200)), "2 remains");
    }

    #[test]
    fn second_deschedule_in_one_tx_leaves_no_stale_summary_bits() {
        let (mut tm, mut os) = setup(SignatureKind::paper_bs_2kb());
        tm.begin_tx(0, NestKind::Closed, Cycle(0));
        tm.record_access(0, AccessKind::Store, BlockAddr(100));
        for _ in 0..2 {
            os.deschedule(&mut tm, 0);
            os.reschedule(&mut tm, Asid(0), 0, 0);
        }
        tm.commit_tx(0, Cycle(50));
        os.on_outer_commit(&mut tm, Asid(0), 0);
        // The next mid-transaction deschedule rebuilds every summary from
        // the counting filters: only thread 2's write may be in them.
        tm.begin_tx(2, NestKind::Closed, Cycle(60));
        tm.record_access(2, AccessKind::Store, BlockAddr(200));
        os.deschedule(&mut tm, 2);
        let t1 = tm.thread(1).unwrap();
        assert!(t1.check_summary(SigOp::Write, BlockAddr(200)));
        assert!(
            !t1.check_summary(SigOp::Write, BlockAddr(100)),
            "committed transaction's bits left in the summary"
        );
    }

    #[test]
    fn summary_conflict_blocks_other_process_never() {
        let (mut tm, mut os) = setup(SignatureKind::paper_bs_2kb());
        // Thread on ctx 4 belongs to a different process.
        tm.thread_mut(4).unwrap().asid = Asid(9);
        tm.begin_tx(0, NestKind::Closed, Cycle(0));
        tm.record_access(0, AccessKind::Store, BlockAddr(42));
        os.deschedule(&mut tm, 0);
        assert!(
            tm.thread(4).unwrap().summary().is_none(),
            "other process gets no summary"
        );
    }

    #[test]
    fn page_relocation_updates_running_parked_and_summary() {
        let (mut tm, mut os) = setup(SignatureKind::paper_bs_2kb());
        let old = PageId(5);
        let new = PageId(77);
        // Running thread with the page in its write-set.
        tm.begin_tx(1, NestKind::Closed, Cycle(0));
        tm.record_access(1, AccessKind::Store, old.block(3));
        // Parked thread with the page in its read-set.
        tm.begin_tx(2, NestKind::Closed, Cycle(1));
        tm.record_access(2, AccessKind::Load, old.block(7));
        os.deschedule(&mut tm, 2);

        os.relocate_page(&mut tm, Asid(0), old, new);

        // Running thread's signature covers the new physical address.
        assert!(tm
            .thread(1)
            .unwrap()
            .check_conflict(SigOp::Read, new.block(3)));
        // Summaries (built from the parked thread's save) cover it too.
        assert!(tm
            .thread(3)
            .unwrap()
            .check_summary(SigOp::Write, new.block(7)));
        // Parked thread applies the remap when rescheduled.
        os.deschedule(&mut tm, 7);
        os.reschedule(&mut tm, Asid(0), 2, 7);
        assert!(tm
            .thread(7)
            .unwrap()
            .check_conflict(SigOp::Write, new.block(7)));
        assert_eq!(os.stats.pages_relocated, 1);
    }

    #[test]
    fn parked_conflictor_found_by_exact_sets() {
        let (mut tm, mut os) = setup(SignatureKind::paper_bs_64());
        tm.begin_tx(0, NestKind::Closed, Cycle(0));
        tm.record_access(0, AccessKind::Load, BlockAddr(42));
        os.deschedule(&mut tm, 0);
        // A write to 42 conflicts with the parked read-set…
        assert_eq!(os.parked_tx_conflictor(Asid(0), SigOp::Write, 42), Some(0));
        // …a read does not (read-read), and aliases (42+64 under BS_64)
        // never match because the lookup uses the exact shadow sets.
        assert_eq!(os.parked_tx_conflictor(Asid(0), SigOp::Read, 42), None);
        assert_eq!(
            os.parked_tx_conflictor(Asid(0), SigOp::Write, 42 + 64),
            None
        );
        // Other processes never match.
        assert_eq!(os.parked_tx_conflictor(Asid(9), SigOp::Write, 42), None);
    }

    #[test]
    fn two_parked_conflictors_pick_the_lowest_thread_id() {
        // Every fresh `OsModel` draws new `HashMap` keys, so 64 rounds cover
        // both iteration orders of the two contributions.
        for _ in 0..64 {
            let (mut tm, mut os) = setup(SignatureKind::paper_bs_2kb());
            for ctx in [5, 2] {
                tm.begin_tx(ctx, NestKind::Closed, Cycle(0));
                tm.record_access(ctx, AccessKind::Load, BlockAddr(42));
                os.deschedule(&mut tm, ctx);
            }
            assert_eq!(os.parked_tx_conflictor(Asid(0), SigOp::Write, 42), Some(2));
        }
    }

    #[test]
    fn abort_parked_releases_summary_and_returns_undo() {
        let (mut tm, mut os) = setup(SignatureKind::paper_bs_2kb());
        tm.begin_tx(0, NestKind::Closed, Cycle(0));
        tm.record_access(0, AccessKind::Store, BlockAddr(7));
        tm.log_store_if_needed(0, BlockAddr(7), || [99; 8]);
        os.deschedule(&mut tm, 0);
        assert!(tm
            .thread(1)
            .unwrap()
            .check_summary(SigOp::Write, BlockAddr(7)));

        let mut restored = Vec::new();
        let cost = os.abort_parked(&mut tm, Asid(0), 0, Cycle(50), &mut |base, old| {
            restored.push((base, old[0]));
        });
        assert!(cost.handler_cycles > Cycle(0));
        assert_eq!(cost.wasted_cycles, 50, "began at 0, aborted at 50");
        assert!(!cost.needs_summary_update, "the OS refreshed the summary");
        assert_eq!(restored.len(), 1);
        assert_eq!(restored[0].1, 99, "old contents handed to the caller");
        // Isolation released everywhere.
        assert!(!tm
            .thread(1)
            .unwrap()
            .check_summary(SigOp::Write, BlockAddr(7)));
        assert_eq!(os.parked_tx_conflictor(Asid(0), SigOp::Write, 7), None);
        // The thread stays parked, idle, and can be rescheduled normally.
        os.deschedule(&mut tm, 3);
        os.reschedule(&mut tm, Asid(0), 0, 3);
        assert!(!tm.thread(3).unwrap().in_tx());
    }

    #[test]
    #[should_panic(expected = "not parked")]
    fn reschedule_unknown_thread_panics() {
        let (mut tm, mut os) = setup(SignatureKind::Perfect);
        os.reschedule(&mut tm, Asid(0), 99, 0);
    }
}
