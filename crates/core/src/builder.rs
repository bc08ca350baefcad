//! Configuring a [`System`].

use ltse_mem::{CoherenceKind, MemConfig};
use ltse_sig::SignatureKind;
use ltse_sim::config::SimLimits;
use ltse_sim::Cycle;
use ltse_tm::conflict::ContentionPolicy;
use ltse_tm::TmConfig;

use crate::system::System;

/// Preemption-timer configuration for the context-switch experiments
/// (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreemptionConfig {
    /// Scheduling quantum.
    pub quantum: Cycle,
    /// Defer preempting a thread that is inside a transaction (the paper's
    /// preemption-control mechanisms, citation \[29\]).
    pub defer_in_tx: bool,
}

/// Builder for a [`System`]. Defaults to the paper's Table 1 machine with
/// perfect signatures.
///
/// ```
/// use logtm_se::{SystemBuilder, SignatureKind};
///
/// let system = SystemBuilder::paper_default()
///     .signature(SignatureKind::paper_bs_2kb())
///     .seed(42)
///     .build();
/// assert_eq!(system.tm().n_ctxs(), 32); // 16 cores × 2-way SMT
/// ```
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    pub(crate) mem: MemConfig,
    pub(crate) tm: TmConfig,
    pub(crate) limits: SimLimits,
    pub(crate) seed: u64,
    pub(crate) preemption: Option<PreemptionConfig>,
    pub(crate) trace_capacity: usize,
    pub(crate) warmup_units: u64,
    pub(crate) check_serializability: bool,
    pub(crate) observe: bool,
}

impl SystemBuilder {
    /// The paper's baseline CMP (Table 1) with perfect signatures.
    pub fn paper_default() -> Self {
        SystemBuilder {
            mem: MemConfig::paper_cmp(),
            tm: TmConfig::default_with(SignatureKind::Perfect),
            limits: SimLimits::default(),
            seed: 0,
            preemption: None,
            trace_capacity: 0,
            warmup_units: 0,
            check_serializability: false,
            observe: false,
        }
    }

    /// A small, fast machine for unit tests (4 cores × 2 SMT, tiny caches,
    /// uniform low latencies, tight watchdogs).
    pub fn small_for_tests() -> Self {
        SystemBuilder {
            mem: MemConfig::small_for_tests(),
            tm: TmConfig::default_with(SignatureKind::Perfect),
            limits: SimLimits::for_tests(),
            seed: 0,
            preemption: None,
            trace_capacity: 0,
            warmup_units: 0,
            check_serializability: false,
            observe: false,
        }
    }

    /// Sets the signature implementation for every thread context.
    pub fn signature(mut self, kind: SignatureKind) -> Self {
        self.tm.signature = kind;
        self
    }

    /// Sets the run's perturbation seed (the paper's §6.1 methodology runs
    /// each datapoint under several seeds).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the memory-system configuration.
    pub fn mem_config(mut self, mem: MemConfig) -> Self {
        self.mem = mem;
        self
    }

    /// Enables or disables LogTM sticky states (ablation A2).
    pub fn sticky(mut self, enabled: bool) -> Self {
        self.mem.sticky_enabled = enabled;
        self
    }

    /// Selects the coherence substrate: the §5 directory (default) or the
    /// §7 broadcast-snooping variant.
    pub fn coherence(mut self, kind: CoherenceKind) -> Self {
        self.mem.coherence = kind;
        self
    }

    /// Selects the contention-management policy applied on NACKs (the
    /// paper's "trap to a contention manager" future work).
    pub fn contention(mut self, policy: ContentionPolicy) -> Self {
        self.tm.contention = policy;
        self
    }

    /// Enables bounded-retry escalation: after `aborts` consecutive aborts
    /// of one transaction, its retry acquires the global serialization
    /// token and runs exempt from conflict-resolution aborts (the hardware
    /// analogue of the STM backend's serial fallback). `None` disables.
    pub fn escalate_after(mut self, aborts: Option<u32>) -> Self {
        self.tm.escalate_after = aborts;
        self
    }

    /// Pins [`ContentionPolicy::Adaptive`] to one static policy — for
    /// determinism tests that prove a pinned adaptive run is byte-identical
    /// to the static configuration. Ignored by static policies.
    pub fn adaptive_pin(mut self, pin: Option<ContentionPolicy>) -> Self {
        self.tm.adaptive_pin = pin;
        self
    }

    /// Partitions the machine over `n_chips` chips (§7 "Multiple CMPs"):
    /// inter-chip messages pay the configured crossing latency.
    ///
    /// # Panics
    ///
    /// The build panics later if `n_chips` does not divide the core and
    /// bank counts.
    pub fn chips(mut self, n_chips: u8) -> Self {
        self.mem.n_chips = n_chips;
        self
    }

    /// Sets the log-filter capacity (0 disables filtering; ablation A3).
    pub fn log_filter_entries(mut self, entries: usize) -> Self {
        self.tm.log_filter_entries = entries;
        self
    }

    /// Discards all statistics once `units` units of work have completed
    /// (caches and transactional state stay warm): the paper's
    /// "representative execution samples" methodology. The report then
    /// covers only the steady-state region; `RunReport::cycles` still spans
    /// the whole run, with `RunReport::measured_cycles` covering the
    /// measured window.
    pub fn warmup_units(mut self, units: u64) -> Self {
        self.warmup_units = units;
        self
    }

    /// Enables event tracing: the system keeps the most recent `capacity`
    /// transactional/protocol events (begins, commits, aborts, NACKs,
    /// context switches, page moves) retrievable via
    /// [`crate::System::trace_dump`]. Zero cost when unset.
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Attaches the structured observability layer
    /// ([`ltse_sim::obs::ObsCore`]) to the run: every stall and abort is
    /// attributed to a cause, every coherence NACK is classified by
    /// detection path (in-cache vs. decoupled sticky/signature) and by
    /// true-sharing-vs-aliasing judgement, per-thread cycle breakdowns are
    /// kept in the paper's §6 style, and a bounded ring of per-transaction
    /// spans is retained. Retrieve results with
    /// [`crate::System::obs_report`] (also carried on
    /// [`crate::RunReport::obs`]). Off by default: the entire layer then
    /// costs one null-pointer check per instrumented event.
    pub fn observe(mut self, enabled: bool) -> Self {
        self.observe = enabled;
        self
    }

    /// Attaches a differential serializability oracle to the run: every
    /// committed transaction is replayed, in commit order, against a
    /// sequential reference memory, checking read values, final state, and
    /// post-transaction hardware invariants. Errors are collected and
    /// returned by [`crate::System::finish_checks`]. Meant for the schedule
    /// explorer (`ltse_sim::explore`) and correctness tests; adds per-access
    /// bookkeeping, so leave it off for performance experiments.
    pub fn check_serializability(mut self, enabled: bool) -> Self {
        self.check_serializability = enabled;
        self
    }

    /// **Test-only fault injection** (see
    /// [`ltse_tm::TmConfig::fault_skip_one_undo`]): makes the abort handler
    /// skip one undo record, so checker tests can prove the oracle catches a
    /// broken undo path.
    pub fn fault_skip_one_undo(mut self, enabled: bool) -> Self {
        self.tm.fault_skip_one_undo = enabled;
        self
    }

    /// Sets the watchdog limits.
    pub fn limits(mut self, limits: SimLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Enables the preemption timer: threads round-robin over contexts
    /// every `quantum` cycles; `defer_in_tx` skips victims that are inside
    /// a transaction.
    pub fn preemption(mut self, quantum: Cycle, defer_in_tx: bool) -> Self {
        self.preemption = Some(PreemptionConfig {
            quantum,
            defer_in_tx,
        });
        self
    }

    /// The memory configuration currently held by the builder.
    pub fn mem_config_view(&self) -> &MemConfig {
        &self.mem
    }

    /// Builds the system (cold caches, no threads yet).
    pub fn build(&self) -> System {
        System::from_builder(self)
    }
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table1() {
        let b = SystemBuilder::paper_default();
        assert_eq!(b.mem.n_cores, 16);
        assert_eq!(b.mem.smt_per_core, 2);
        assert_eq!(b.mem.l1.capacity_blocks(), 512); // 32 KB / 64 B
        assert_eq!(
            b.mem.l2_bank.capacity_blocks() * b.mem.n_banks as usize,
            131_072 // 8 MB / 64 B
        );
    }

    #[test]
    fn builder_knobs_apply() {
        let b = SystemBuilder::small_for_tests()
            .signature(SignatureKind::paper_bs_64())
            .coherence(CoherenceKind::SnoopingMesi)
            .sticky(false)
            .log_filter_entries(0)
            .seed(99)
            .check_serializability(true)
            .fault_skip_one_undo(true)
            .contention(ContentionPolicy::Adaptive)
            .escalate_after(Some(4))
            .adaptive_pin(Some(ContentionPolicy::Karma))
            .observe(true)
            .preemption(Cycle(100), true);
        assert!(b.observe);
        assert_eq!(b.tm.signature, SignatureKind::paper_bs_64());
        assert!(b.check_serializability);
        assert!(b.tm.fault_skip_one_undo);
        assert_eq!(b.mem.coherence, CoherenceKind::SnoopingMesi);
        assert!(!b.mem.sticky_enabled);
        assert_eq!(b.tm.log_filter_entries, 0);
        assert_eq!(b.tm.contention, ContentionPolicy::Adaptive);
        assert_eq!(b.tm.escalate_after, Some(4));
        assert_eq!(b.tm.adaptive_pin, Some(ContentionPolicy::Karma));
        assert_eq!(b.seed, 99);
        assert_eq!(
            b.preemption,
            Some(PreemptionConfig {
                quantum: Cycle(100),
                defer_in_tx: true
            })
        );
    }
}
