//! Experiment harness: every table and figure of the paper's evaluation,
//! regenerated as structured data plus aligned-text rendering.
//!
//! The `repro` binary is the command-line front end; the `benches/` timing
//! targets reuse the same experiment functions at reduced scale. See
//! DESIGN.md's experiment index for the mapping from paper artifact to
//! function. Every experiment runs its runs through [`runner::sweep`], a
//! deterministic pool with per-run panic isolation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod json;
pub mod render;
pub mod runner;
pub mod stats_json;

pub use experiments::{
    figure4, log_filter_ablation, multi_cmp_comparison, nesting_ablation, oltp_compare,
    oltp_config, oltp_experiment, policy_oltp_config, policy_points, policy_sweep,
    policy_sweep_sim, signature_sweep, smt_comparison, snooping_comparison, sticky_ablation,
    stm_compare, table2, table3, victimization, virtualization_overhead, ExperimentScale, Fig4Bar,
    Fig4Row, LogFilterRow, MultiCmpRow, NestingRow, OltpRow, PolicyPoint, PolicySweepRow, SmtRow,
    SnoopRow, StickyRow, StmRow, SweepRow, Table2Row, Table3Row, VictimRow, VirtRow, OLTP_POINTS,
    POLICY_OLTP_POINTS,
};
