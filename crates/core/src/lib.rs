//! # LogTM-SE: Decoupling Hardware Transactional Memory from Caches
//!
//! A from-scratch Rust reproduction of the HPCA-13 (2007) paper by Yen,
//! Bobba, Marty, Moore, Volos, Hill, Swift, and Wood.
//!
//! LogTM-SE is a hardware transactional memory (HTM) whose principal state
//! lives in two software-visible structures — **signatures** for eager
//! conflict detection and a **per-thread undo log** for eager version
//! management — leaving L1 cache arrays untouched and making transactions
//! virtualizable (cache victimization, unbounded open/closed nesting,
//! context switching/migration, paging).
//!
//! This crate composes the workspace's substrates into a runnable simulated
//! CMP (the paper's Table 1 machine by default):
//!
//! * [`SystemBuilder`] / [`System`] — configure and run a simulation.
//! * [`ThreadProgram`] / [`Op`] — how workloads express their memory
//!   accesses, transactions, locks, and computation.
//! * [`RunReport`] — cycles, commits/aborts/stalls, false-positive rates,
//!   victimizations, set sizes: everything the paper's tables chart.
//!
//! Re-exported building blocks: `ltse_sig` (signatures), `ltse_mem` (the
//! memory system), `ltse_tm` (the TM core), `ltse_sim` (kernel).
//!
//! # Quickstart
//!
//! Two threads atomically increment a shared counter 100 times each:
//!
//! ```
//! use logtm_se::{Op, ProgCtx, SystemBuilder, ThreadProgram, WordAddr};
//!
//! struct Incr {
//!     remaining: u32,
//!     step: u8,
//! }
//!
//! impl ThreadProgram for Incr {
//!     fn next_op(&mut self, t: &mut ProgCtx) -> Op {
//!         const COUNTER: WordAddr = WordAddr(0);
//!         match self.step {
//!             0 => {
//!                 if self.remaining == 0 {
//!                     return Op::Done;
//!                 }
//!                 self.step = 1;
//!                 Op::TxBegin
//!             }
//!             1 => {
//!                 self.step = 2;
//!                 Op::Read(COUNTER)
//!             }
//!             2 => {
//!                 self.step = 3;
//!                 Op::Write(COUNTER, t.last_value + 1)
//!             }
//!             _ => {
//!                 self.step = 0;
//!                 self.remaining -= 1;
//!                 Op::TxCommit
//!             }
//!         }
//!     }
//!
//!     fn on_tx_abort(&mut self, _t: &mut ProgCtx) {
//!         self.step = 0; // rewind to re-issue TxBegin
//!     }
//! }
//!
//! let mut system = SystemBuilder::small_for_tests()
//!     .seed(1)
//!     .build();
//! system.add_thread(Box::new(Incr { remaining: 100, step: 0 }));
//! system.add_thread(Box::new(Incr { remaining: 100, step: 0 }));
//! let report = system.run().expect("run completes");
//!
//! assert_eq!(system.read_word(WordAddr(0)), 200, "atomicity held");
//! assert_eq!(report.tm.commits, 200, "every attempt eventually commits");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod builder;
mod program;
mod report;
mod system;

pub use backend::{BackendReport, TmBackend};
pub use builder::SystemBuilder;
pub use program::{FnProgram, Op, ProgCtx, ScriptOp, ThreadProgram, TxScript};
pub use report::RunReport;
pub use system::{RunError, System};

// Re-export the vocabulary types users need.
pub use ltse_mem::SerializabilityOracle;
pub use ltse_mem::{
    AccessKind, Asid, BlockAddr, CacheConfig, CoherenceKind, CoreId, CtxId, LatencyConfig,
    MemConfig, PageId, WordAddr, MAX_CORES,
};
pub use ltse_sig::SignatureKind;
pub use ltse_sim::explore::{
    explore, explore_jobs, ExploreConfig, ExploreReport, Schedule, ScheduleChooser,
};
pub use ltse_sim::obs::{AbortCause, CycleBreakdown, DetectPath, ObsReport, StallCause, TxSpan};
pub use ltse_sim::{config::SimLimits, Cycle, EventChooser};
pub use ltse_tm::conflict::ContentionPolicy;
pub use ltse_tm::{ConflictHistory, NestKind, TmConfig};

/// The supporting crates, re-exported for advanced use.
pub mod substrates {
    pub use ltse_mem as mem;
    pub use ltse_sig as sig;
    pub use ltse_sim as sim;
    pub use ltse_tm as tm;
}
