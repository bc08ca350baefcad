//! LogTM's distributed conflict resolution, adopted by LogTM-SE (§2):
//! "the core stalls, retries its coherence operation, and aborts on a
//! possible deadlock cycle."
//!
//! The mechanism (from the LogTM paper): each transaction carries a
//! timestamp from its begin. A context sets its `possible_cycle` flag when
//! it NACKs a request from an **older** transaction. A requester whose
//! request is NACKed by an **older** transaction while its own
//! `possible_cycle` flag is set conservatively assumes a deadlock cycle and
//! aborts. Everyone else stalls and retries.
//!
//! The paper leaves anything smarter to "more sophisticated future versions
//! \[that\] could trap to a contention manager". This module is that hook,
//! with one representation per concept:
//!
//! * **Policies** ([`ContentionPolicy`]): the baseline plus four managers,
//!   and [`ContentionPolicy::resolve`], the one per-NACK decision over a
//!   [`NackContext`].
//! * **Conflict history** ([`ConflictHistory`]): a light, always-on
//!   per-thread record of abort and stall streaks. It is maintained
//!   identically under *every* policy (so pinning the adaptive selector to
//!   a static policy is byte-identical to running that policy), and it
//!   works with the observability layer off.
//! * **Adaptive selection** ([`select_policy`]): a pure function of the
//!   requester's history and invested work. It consumes **no** RNG draws,
//!   so explore-mode schedules see identical randomness under every policy.
//! * **Backoff** ([`abort_backoff`]): the paper's randomized-exponential
//!   window, waited after every full and partial abort.

use ltse_sim::rng::Xoshiro256StarStar;
use ltse_sim::Cycle;

/// A transaction's position in the age order: begin time plus a context-id
/// tie-break so the order is total.
///
/// ```
/// use ltse_sim::Cycle;
/// use ltse_tm::conflict::TxStamp;
///
/// let a = TxStamp::new(Cycle(10), 0);
/// let b = TxStamp::new(Cycle(10), 1);
/// let c = TxStamp::new(Cycle(99), 0);
/// assert!(a.older_than(b));
/// assert!(b.older_than(c));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxStamp {
    /// Cycle at (outermost) transaction begin.
    pub begin: Cycle,
    /// Owning thread context id (tie-break).
    pub ctx: u32,
}

impl TxStamp {
    /// Creates a stamp.
    pub fn new(begin: Cycle, ctx: u32) -> Self {
        TxStamp { begin, ctx }
    }

    /// Strictly older (wins conflicts) than `other`.
    pub fn older_than(&self, other: TxStamp) -> bool {
        self < &other
    }
}

/// What a NACKed requester should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Stall, then retry the coherence request after the configured
    /// interval.
    Stall,
    /// Possible deadlock cycle: abort the transaction.
    Abort,
}

/// The contention-management policy applied when a request is NACKed.
///
/// The paper's baseline "stalls, retries its coherence operation, and
/// aborts on a possible deadlock cycle", and notes that "more sophisticated
/// future versions could trap to a contention manager" — the four variants
/// after the baseline are such managers. [`ContentionPolicy::resolve`]
/// applies one to a NACK.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ContentionPolicy {
    /// LogTM's default: requester stalls; abort only when the timestamp /
    /// `possible_cycle` rule detects a potential deadlock.
    #[default]
    RequesterStalls,
    /// The simplest manager: a transactional requester aborts itself on
    /// any NACK (early-HTM behaviour; maximal wasted work, zero deadlock
    /// machinery).
    RequesterAborts,
    /// A work-weighted manager: on a possible deadlock cycle the requester
    /// aborts only if it has invested *less* work (fewer undo records) than
    /// the conflicting transaction; otherwise it keeps stalling and lets
    /// the deadlock rule fire on the other side.
    SizeMatters,
    /// Age-based (Greedy/Timestamp-style): the strictly younger side of a
    /// conflict aborts immediately, the older side stalls. Deadlock-free
    /// without `possible_cycle` tracking; preserved begin stamps across
    /// retries make the oldest transaction win eventually.
    Karma,
    /// Online adaptive selection: every NACK is resolved by the static
    /// policy [`select_policy`] picks from the requester's
    /// [`ConflictHistory`] (abort streaks → `Karma`,
    /// convoys with nothing invested → `RequesterAborts`, otherwise the
    /// baseline `RequesterStalls`).
    Adaptive,
}

impl ContentionPolicy {
    /// Every variant, for exhaustive sweeps and reflection tests.
    pub const ALL: [ContentionPolicy; 5] = [
        ContentionPolicy::RequesterStalls,
        ContentionPolicy::RequesterAborts,
        ContentionPolicy::SizeMatters,
        ContentionPolicy::Karma,
        ContentionPolicy::Adaptive,
    ];

    /// The static (non-adaptive) variants — the candidates an
    /// [`Adaptive`](ContentionPolicy::Adaptive) manager may be pinned to.
    pub const STATIC: [ContentionPolicy; 4] = [
        ContentionPolicy::RequesterStalls,
        ContentionPolicy::RequesterAborts,
        ContentionPolicy::SizeMatters,
        ContentionPolicy::Karma,
    ];

    /// The CLI/JSON name.
    pub fn name(&self) -> &'static str {
        match self {
            ContentionPolicy::RequesterStalls => "requester_stalls",
            ContentionPolicy::RequesterAborts => "requester_aborts",
            ContentionPolicy::SizeMatters => "size_matters",
            ContentionPolicy::Karma => "karma",
            ContentionPolicy::Adaptive => "adaptive",
        }
    }

    /// Decides `(requester resolution, nacker sets possible_cycle)` for one
    /// NACK.
    ///
    /// A non-transactional requester (a plain or escape-action access)
    /// holds no isolation anyone could wait on, and a summary-signature
    /// conflict has no live nacker context (the OS breaks it by
    /// rescheduling the parked thread): both always stall, with no flag.
    /// Between two transactions the nacker sets `possible_cycle` when the
    /// requester is older, and the policy decides whether the requester
    /// aborts.
    pub fn resolve(self, cx: &NackContext) -> (Resolution, bool) {
        let (Some(req), Some(nk)) = (cx.requester, cx.nacker) else {
            return (Resolution::Stall, false);
        };
        let deadlock_possible = nk.older_than(req) && cx.requester_possible_cycle;
        let abort = match self {
            ContentionPolicy::RequesterStalls => deadlock_possible,
            ContentionPolicy::RequesterAborts => true,
            ContentionPolicy::SizeMatters => {
                deadlock_possible && cx.requester_work <= cx.nacker_work
            }
            ContentionPolicy::Karma => nk.older_than(req),
            ContentionPolicy::Adaptive => {
                return select_policy(self, None, &cx.history, cx.requester_work).resolve(cx);
            }
        };
        let resolution = if abort {
            Resolution::Abort
        } else {
            Resolution::Stall
        };
        (resolution, req.older_than(nk))
    }
}

impl std::str::FromStr for ContentionPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ContentionPolicy::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| format!("unknown contention policy '{s}'"))
    }
}

/// Everything [`ContentionPolicy::resolve`] may consult for one NACK.
#[derive(Debug, Clone, Copy)]
pub struct NackContext {
    /// The NACKed context's stamp (`None`: not in a transaction).
    pub requester: Option<TxStamp>,
    /// The requester's `possible_cycle` flag.
    pub requester_possible_cycle: bool,
    /// The conflicting context's stamp (`None`: summary-signature conflict).
    pub nacker: Option<TxStamp>,
    /// Requester's invested work (undo records).
    pub requester_work: usize,
    /// Nacker's invested work (undo records).
    pub nacker_work: usize,
    /// The requester's conflict history.
    pub history: ConflictHistory,
}

/// The two streaks [`select_policy`] reads: how contention has been
/// treating one thread. Maintained unconditionally (a couple of integer
/// bumps on paths that already trap to software), under every policy, with
/// the observability layer on or off — so the adaptive selector always has
/// its input, and enabling it changes no other thread-visible state.
/// Lifetime totals (stalls, aborts, commits, wasted cycles) live in
/// [`crate::TmStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConflictHistory {
    /// Consecutive outermost aborts since the last commit.
    pub abort_streak: u32,
    /// Consecutive stalls since the last commit or abort.
    pub stall_streak: u32,
}

impl ConflictHistory {
    /// This thread's request was NACKed and it will stall.
    pub fn on_stall(&mut self) {
        self.stall_streak = self.stall_streak.saturating_add(1);
    }

    /// This thread's outermost transaction aborted.
    pub fn on_abort(&mut self) {
        self.abort_streak = self.abort_streak.saturating_add(1);
        self.stall_streak = 0;
    }

    /// This thread committed an outermost transaction.
    pub fn on_commit(&mut self) {
        self.abort_streak = 0;
        self.stall_streak = 0;
    }
}

/// Maps a configured policy to the concrete static policy applied to the
/// next conflict. Static policies map to themselves; `Adaptive` consults
/// the requester's history:
///
/// * a thread on an abort streak has been losing conflicts — switch to the
///   age-based [`Karma`](ContentionPolicy::Karma) arbitration, which
///   guarantees the oldest transaction progresses and empirically wins on
///   hot-key workloads;
/// * a thread stalling repeatedly with (almost) nothing invested is paying
///   convoy latency to protect nothing — restart it cheaply via
///   [`RequesterAborts`](ContentionPolicy::RequesterAborts) and let backoff
///   de-synchronize the colliders;
/// * otherwise the paper's baseline stall policy is the right default.
///
/// Pure function of its arguments: **no RNG draws**, so an `Adaptive` run
/// pinned to a static policy is byte-identical to that policy. A pin of
/// `Adaptive` itself is ignored (falls through to the heuristic).
pub fn select_policy(
    policy: ContentionPolicy,
    pin: Option<ContentionPolicy>,
    history: &ConflictHistory,
    requester_work: usize,
) -> ContentionPolicy {
    if policy != ContentionPolicy::Adaptive {
        return policy;
    }
    if let Some(p) = pin {
        if p != ContentionPolicy::Adaptive {
            return p;
        }
    }
    if history.abort_streak >= 2 {
        // Repeated aborts mean the stall-first default is losing work to
        // conflict cycles: switch to age-based arbitration, which always
        // makes forward progress on the oldest transaction and empirically
        // dominates on hot-key workloads.
        ContentionPolicy::Karma
    } else if requester_work <= 1 && history.stall_streak >= 4 {
        // A requester that has invested almost nothing but keeps running
        // into busy lines is cheapest to restart outright.
        ContentionPolicy::RequesterAborts
    } else {
        ContentionPolicy::RequesterStalls
    }
}

/// Randomized-exponential backoff after the `attempt`-th consecutive abort:
/// a uniform draw from `[0, base << min(attempt, cap_shift))`. A zero
/// window returns `Cycle::ZERO` without touching the RNG.
pub fn abort_backoff(
    rng: &mut Xoshiro256StarStar,
    base: Cycle,
    cap_shift: u32,
    attempt: u32,
) -> Cycle {
    let window = base.as_u64() << attempt.min(cap_shift);
    if window == 0 {
        return Cycle::ZERO;
    }
    Cycle(rng.gen_range(0, window))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    fn st(t: u64, ctx: u32) -> TxStamp {
        TxStamp::new(Cycle(t), ctx)
    }

    fn cx(req: Option<TxStamp>, flag: bool, nk: Option<TxStamp>) -> NackContext {
        NackContext {
            requester: req,
            requester_possible_cycle: flag,
            nacker: nk,
            requester_work: 0,
            nacker_work: 0,
            history: ConflictHistory::default(),
        }
    }

    /// One NACK under `policy` with a calm history.
    fn resolve_nack_with(
        policy: ContentionPolicy,
        requester: Option<TxStamp>,
        requester_possible_cycle: bool,
        nacker: Option<TxStamp>,
        requester_work: usize,
        nacker_work: usize,
    ) -> (Resolution, bool) {
        policy.resolve(&NackContext {
            requester_work,
            nacker_work,
            ..cx(requester, requester_possible_cycle, nacker)
        })
    }

    /// One NACK under the paper's baseline policy.
    fn resolve_nack(
        requester: Option<TxStamp>,
        requester_possible_cycle: bool,
        nacker: Option<TxStamp>,
    ) -> (Resolution, bool) {
        resolve_nack_with(
            ContentionPolicy::RequesterStalls,
            requester,
            requester_possible_cycle,
            nacker,
            0,
            0,
        )
    }

    #[test]
    fn age_order_total() {
        assert!(st(1, 0).older_than(st(2, 0)));
        assert!(st(1, 0).older_than(st(1, 1)));
        assert!(!st(1, 1).older_than(st(1, 1)));
    }

    #[test]
    fn young_requester_stalls() {
        // Older nacker, requester never blocked anyone older → stall.
        let (r, flag) = resolve_nack(Some(st(100, 1)), false, Some(st(10, 0)));
        assert_eq!(r, Resolution::Stall);
        assert!(!flag, "nacker is older; no cycle possible through it");
    }

    #[test]
    fn possible_cycle_aborts() {
        // Requester already NACKed someone older (flag set) and is now
        // blocked by an older transaction → deadlock possible → abort.
        let (r, _) = resolve_nack(Some(st(100, 1)), true, Some(st(10, 0)));
        assert_eq!(r, Resolution::Abort);
    }

    #[test]
    fn older_requester_makes_nacker_flag() {
        // Requester older than nacker → nacker sets possible_cycle;
        // requester (older) just stalls.
        let (r, flag) = resolve_nack(Some(st(10, 0)), false, Some(st(100, 1)));
        assert_eq!(r, Resolution::Stall);
        assert!(flag);
    }

    #[test]
    fn classic_deadlock_resolves_one_abort() {
        // T_old (ts 10) and T_young (ts 20) each hold what the other wants.
        // Step 1: T_old requests; T_young NACKs an older tx → young sets flag.
        let (r1, young_flags) = resolve_nack(Some(st(10, 0)), false, Some(st(20, 1)));
        assert_eq!(r1, Resolution::Stall);
        assert!(young_flags);
        // Step 2: T_young requests; T_old NACKs. Young's flag is set and the
        // nacker is older → young aborts; old survives.
        let (r2, old_flags) = resolve_nack(Some(st(20, 1)), young_flags, Some(st(10, 0)));
        assert_eq!(r2, Resolution::Abort);
        assert!(!old_flags);
    }

    #[test]
    fn non_transactional_requester_stalls() {
        let (r, flag) = resolve_nack(None, false, Some(st(5, 0)));
        assert_eq!(r, Resolution::Stall);
        assert!(!flag);
    }

    #[test]
    fn summary_conflict_stalls() {
        let (r, flag) = resolve_nack(Some(st(5, 0)), true, None);
        assert_eq!(r, Resolution::Stall);
        assert!(!flag);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let mut rng = ltse_sim::rng::Xoshiro256StarStar::new(1);
        let base = Cycle(64);
        for attempt in 0..20 {
            let b = abort_backoff(&mut rng, base, 4, attempt);
            let window = 64u64 << attempt.min(4);
            assert!(b.as_u64() < window, "draw within window");
            assert!(b.as_u64() < 64u64 << 4, "capped window");
        }
    }

    #[test]
    fn requester_aborts_policy_always_aborts_transactions() {
        let (r, _) = resolve_nack_with(
            ContentionPolicy::RequesterAborts,
            Some(st(5, 0)),
            false,
            Some(st(99, 1)),
            0,
            0,
        );
        assert_eq!(r, Resolution::Abort);
        // …but non-transactional requesters still just retry.
        let (r, _) = resolve_nack_with(
            ContentionPolicy::RequesterAborts,
            None,
            false,
            Some(st(5, 0)),
            0,
            0,
        );
        assert_eq!(r, Resolution::Stall);
    }

    #[test]
    fn size_matters_spares_the_bigger_transaction() {
        // Deadlock-possible situation; requester has MORE invested work →
        // it stalls (the other side's rule will fire instead).
        let (r, _) = resolve_nack_with(
            ContentionPolicy::SizeMatters,
            Some(st(100, 1)),
            true,
            Some(st(10, 0)),
            50,
            3,
        );
        assert_eq!(r, Resolution::Stall);
        // Less invested work → abort as usual.
        let (r, _) = resolve_nack_with(
            ContentionPolicy::SizeMatters,
            Some(st(100, 1)),
            true,
            Some(st(10, 0)),
            1,
            3,
        );
        assert_eq!(r, Resolution::Abort);
    }

    #[test]
    fn backoff_zero_base() {
        let mut rng = ltse_sim::rng::Xoshiro256StarStar::new(1);
        assert_eq!(abort_backoff(&mut rng, Cycle(0), 4, 3), Cycle::ZERO);
    }

    #[test]
    fn karma_policy_aborts_the_younger_side() {
        let (r, _) = resolve_nack_with(
            ContentionPolicy::Karma,
            Some(st(100, 1)),
            false,
            Some(st(10, 0)),
            0,
            0,
        );
        assert_eq!(r, Resolution::Abort, "younger requester loses");
        let (r, flag) = resolve_nack_with(
            ContentionPolicy::Karma,
            Some(st(10, 0)),
            false,
            Some(st(100, 1)),
            0,
            0,
        );
        assert_eq!(r, Resolution::Stall, "older requester waits");
        assert!(flag, "nacker of an older tx still flags possible_cycle");
    }

    /// Counts `ContentionPolicy` variants through an exhaustive match —
    /// adding a variant without extending `ALL` (and therefore the
    /// name round-trip below) is a compile error here, the
    /// same reflection trick `TmStats::merge`'s test uses.
    #[test]
    fn policy_all_is_exhaustive() {
        fn ordinal(p: ContentionPolicy) -> usize {
            match p {
                ContentionPolicy::RequesterStalls => 0,
                ContentionPolicy::RequesterAborts => 1,
                ContentionPolicy::SizeMatters => 2,
                ContentionPolicy::Karma => 3,
                ContentionPolicy::Adaptive => 4,
            }
        }
        assert_eq!(ContentionPolicy::ALL.len(), 5);
        for (i, p) in ContentionPolicy::ALL.into_iter().enumerate() {
            assert_eq!(ordinal(p), i, "ALL must list every variant once, in order");
        }
    }

    #[test]
    fn policy_names_round_trip_every_variant() {
        for p in ContentionPolicy::ALL {
            assert_eq!(p.name().parse::<ContentionPolicy>(), Ok(p));
        }
        assert!("bogus".parse::<ContentionPolicy>().is_err());
    }

    #[test]
    fn backoff_zero_base_skips_the_rng() {
        let mut a = Xoshiro256StarStar::new(9);
        let mut b = Xoshiro256StarStar::new(9);
        assert_eq!(abort_backoff(&mut a, Cycle(0), 6, 3), Cycle::ZERO);
        // `a` drew nothing: it must still agree with the untouched `b`.
        assert_eq!(a.gen_range(0, 1 << 30), b.gen_range(0, 1 << 30));
    }

    #[test]
    fn history_streaks_reset_correctly() {
        let mut h = ConflictHistory::default();
        h.on_stall();
        h.on_stall();
        assert_eq!(h.stall_streak, 2);
        h.on_abort();
        assert_eq!((h.abort_streak, h.stall_streak), (1, 0));
        h.on_abort();
        assert_eq!(h.abort_streak, 2);
        h.on_commit();
        assert_eq!((h.abort_streak, h.stall_streak), (0, 0));
    }

    #[test]
    fn karma_youngest_always_loses() {
        let km = ContentionPolicy::Karma;
        // Younger requester NACKed by older: abort, flag unset.
        let (r, f) = km.resolve(&cx(Some(st(100, 1)), false, Some(st(10, 0))));
        assert_eq!(r, Resolution::Abort);
        assert!(!f);
        // Older requester NACKed by younger: stall, nacker flags.
        let (r, f) = km.resolve(&cx(Some(st(10, 0)), false, Some(st(100, 1))));
        assert_eq!(r, Resolution::Stall);
        assert!(f);
        // Non-transactional and summary conflicts stall as everywhere else.
        assert_eq!(
            km.resolve(&cx(None, false, Some(st(1, 0)))).0,
            Resolution::Stall
        );
        assert_eq!(
            km.resolve(&cx(Some(st(1, 0)), true, None)).0,
            Resolution::Stall
        );
    }

    #[test]
    fn adaptive_selection_is_pure_and_pinnable() {
        let calm = ConflictHistory::default();
        let mut losing = ConflictHistory::default();
        losing.on_abort();
        losing.on_abort();
        let mut convoy = ConflictHistory::default();
        for _ in 0..5 {
            convoy.on_stall();
        }
        assert_eq!(
            select_policy(ContentionPolicy::Adaptive, None, &calm, 0),
            ContentionPolicy::RequesterStalls
        );
        assert_eq!(
            select_policy(ContentionPolicy::Adaptive, None, &losing, 5),
            ContentionPolicy::Karma
        );
        assert_eq!(
            select_policy(ContentionPolicy::Adaptive, None, &convoy, 0),
            ContentionPolicy::RequesterAborts
        );
        // Work invested suppresses the cheap-restart path.
        assert_eq!(
            select_policy(ContentionPolicy::Adaptive, None, &convoy, 8),
            ContentionPolicy::RequesterStalls
        );
        // Static policies ignore history entirely.
        for p in ContentionPolicy::ALL {
            if p != ContentionPolicy::Adaptive {
                assert_eq!(select_policy(p, None, &losing, 0), p);
            }
        }
        // A pin overrides the heuristic; pinning Adaptive falls through.
        assert_eq!(
            select_policy(
                ContentionPolicy::Adaptive,
                Some(ContentionPolicy::Karma),
                &losing,
                0
            ),
            ContentionPolicy::Karma
        );
        assert_eq!(
            select_policy(
                ContentionPolicy::Adaptive,
                Some(ContentionPolicy::Adaptive),
                &losing,
                0
            ),
            ContentionPolicy::Karma
        );
    }

    #[test]
    fn adaptive_resolves_as_the_policy_it_selects() {
        let mut losing = ConflictHistory::default();
        losing.on_abort();
        losing.on_abort();
        for history in [ConflictHistory::default(), losing] {
            for (req, nk) in [
                (Some(st(5, 0)), Some(st(9, 1))),
                (Some(st(9, 1)), Some(st(5, 0))),
                (None, Some(st(5, 0))),
                (Some(st(5, 0)), None),
            ] {
                for flag in [false, true] {
                    let c = NackContext {
                        history,
                        ..cx(req, flag, nk)
                    };
                    let chosen =
                        select_policy(ContentionPolicy::Adaptive, None, &history, c.requester_work);
                    assert_eq!(
                        ContentionPolicy::Adaptive.resolve(&c),
                        chosen.resolve(&c),
                        "{history:?} {chosen:?}"
                    );
                }
            }
        }
    }

    /// The `(Resolution, nacker flag)` of every case of a 540-case grid,
    /// pinned so that a change to any policy's rule shows up as a diff:
    /// `S`tall or `A`bort, then `1` if the nacker sets `possible_cycle`.
    /// One line per policy, history (calm, an abort streak of 2, a stall
    /// streak of 5) and requester (none, stamp 50); one group per nacker
    /// (none, older stamp 10, younger stamp 90); six cases per group,
    /// `possible_cycle` (off, on) by (requester, nacker) work (0, 1),
    /// (1, 1), (5, 1).
    const DECISION_TABLE: &str = "\
requester_stalls calm none: S0S0S0S0S0S0 S0S0S0S0S0S0 S0S0S0S0S0S0\n\
requester_stalls calm tx50: S0S0S0S0S0S0 S0S0S0A0A0A0 S1S1S1S1S1S1\n\
requester_stalls aborts2 none: S0S0S0S0S0S0 S0S0S0S0S0S0 S0S0S0S0S0S0\n\
requester_stalls aborts2 tx50: S0S0S0S0S0S0 S0S0S0A0A0A0 S1S1S1S1S1S1\n\
requester_stalls stalls5 none: S0S0S0S0S0S0 S0S0S0S0S0S0 S0S0S0S0S0S0\n\
requester_stalls stalls5 tx50: S0S0S0S0S0S0 S0S0S0A0A0A0 S1S1S1S1S1S1\n\
requester_aborts calm none: S0S0S0S0S0S0 S0S0S0S0S0S0 S0S0S0S0S0S0\n\
requester_aborts calm tx50: S0S0S0S0S0S0 A0A0A0A0A0A0 A1A1A1A1A1A1\n\
requester_aborts aborts2 none: S0S0S0S0S0S0 S0S0S0S0S0S0 S0S0S0S0S0S0\n\
requester_aborts aborts2 tx50: S0S0S0S0S0S0 A0A0A0A0A0A0 A1A1A1A1A1A1\n\
requester_aborts stalls5 none: S0S0S0S0S0S0 S0S0S0S0S0S0 S0S0S0S0S0S0\n\
requester_aborts stalls5 tx50: S0S0S0S0S0S0 A0A0A0A0A0A0 A1A1A1A1A1A1\n\
size_matters calm none: S0S0S0S0S0S0 S0S0S0S0S0S0 S0S0S0S0S0S0\n\
size_matters calm tx50: S0S0S0S0S0S0 S0S0S0A0A0S0 S1S1S1S1S1S1\n\
size_matters aborts2 none: S0S0S0S0S0S0 S0S0S0S0S0S0 S0S0S0S0S0S0\n\
size_matters aborts2 tx50: S0S0S0S0S0S0 S0S0S0A0A0S0 S1S1S1S1S1S1\n\
size_matters stalls5 none: S0S0S0S0S0S0 S0S0S0S0S0S0 S0S0S0S0S0S0\n\
size_matters stalls5 tx50: S0S0S0S0S0S0 S0S0S0A0A0S0 S1S1S1S1S1S1\n\
karma calm none: S0S0S0S0S0S0 S0S0S0S0S0S0 S0S0S0S0S0S0\n\
karma calm tx50: S0S0S0S0S0S0 A0A0A0A0A0A0 S1S1S1S1S1S1\n\
karma aborts2 none: S0S0S0S0S0S0 S0S0S0S0S0S0 S0S0S0S0S0S0\n\
karma aborts2 tx50: S0S0S0S0S0S0 A0A0A0A0A0A0 S1S1S1S1S1S1\n\
karma stalls5 none: S0S0S0S0S0S0 S0S0S0S0S0S0 S0S0S0S0S0S0\n\
karma stalls5 tx50: S0S0S0S0S0S0 A0A0A0A0A0A0 S1S1S1S1S1S1\n\
adaptive calm none: S0S0S0S0S0S0 S0S0S0S0S0S0 S0S0S0S0S0S0\n\
adaptive calm tx50: S0S0S0S0S0S0 S0S0S0A0A0A0 S1S1S1S1S1S1\n\
adaptive aborts2 none: S0S0S0S0S0S0 S0S0S0S0S0S0 S0S0S0S0S0S0\n\
adaptive aborts2 tx50: S0S0S0S0S0S0 A0A0A0A0A0A0 S1S1S1S1S1S1\n\
adaptive stalls5 none: S0S0S0S0S0S0 S0S0S0S0S0S0 S0S0S0S0S0S0\n\
adaptive stalls5 tx50: S0S0S0S0S0S0 A0A0S0A0A0A0 A1A1S1A1A1S1\n";

    #[test]
    fn resolve_matches_the_recorded_decision_table() {
        let histories = [
            ("calm", ConflictHistory::default()),
            (
                "aborts2",
                ConflictHistory {
                    abort_streak: 2,
                    ..Default::default()
                },
            ),
            (
                "stalls5",
                ConflictHistory {
                    stall_streak: 5,
                    ..Default::default()
                },
            ),
        ];
        let mut table = String::new();
        for policy in ContentionPolicy::ALL {
            for (hname, history) in histories {
                for (rname, requester) in [("none", None), ("tx50", Some(st(50, 0)))] {
                    write!(table, "{} {hname} {rname}:", policy.name()).unwrap();
                    for nacker in [None, Some(st(10, 1)), Some(st(90, 1))] {
                        table.push(' ');
                        for flag in [false, true] {
                            for (requester_work, nacker_work) in [(0, 1), (1, 1), (5, 1)] {
                                let (r, f) = policy.resolve(&NackContext {
                                    requester_work,
                                    nacker_work,
                                    history,
                                    ..cx(requester, flag, nacker)
                                });
                                table.push(if r == Resolution::Abort { 'A' } else { 'S' });
                                table.push(if f { '1' } else { '0' });
                            }
                        }
                    }
                    table.push('\n');
                }
            }
        }
        assert_eq!(table, DECISION_TABLE);
    }
}
