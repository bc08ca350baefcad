//! Workload models for the LogTM-SE evaluation.
//!
//! The paper (§6.2) converts lock-based multi-threaded programs — BerkeleyDB
//! and four SPLASH benchmarks (Cholesky, Radiosity, Raytrace, Mp3d) — to use
//! transactions in place of lock-protected critical sections, and measures
//! throughput in units of work (Table 2). The original programs are SPARC
//! binaries driven by Simics; what the evaluation actually depends on is
//! each program's *critical-section footprint*: how many blocks transactions
//! read and write (average and tail), how skewed the contention is, and how
//! much non-critical work separates sections.
//!
//! This crate models exactly that, calibrated to the paper's Table 2:
//!
//! | Benchmark  | txns/unit profile | read avg/max | write avg/max |
//! |------------|-------------------|--------------|---------------|
//! | BerkeleyDB | hot lock-subsystem metadata | 8.1 / 30 | 6.8 / 28 |
//! | Cholesky   | regular task pops           | 4.0 / 4  | 2.0 / 2  |
//! | Radiosity  | task queues + stealing      | 2.0 / 25 | 1.5 / 45 |
//! | Raytrace   | hot ray-id counter + rare huge read-set | 5.8 / **550** | 2.0 / 3 |
//! | Mp3d       | particle/cell updates       | 2.2 / 18 | 1.7 / 10 |
//!
//! Every workload runs in two [`SyncMode`]s over the *same* section stream:
//! `Tm` brackets each section with `TxBegin`/`TxCommit`; `Lock` guards it
//! with a test-and-test-and-set spinlock simulated through the same memory
//! system (so Figure 4's "speedup over locks" is apples-to-apples).
//!
//! # Example
//!
//! ```
//! use ltse_workloads::{Benchmark, RunParams, SyncMode};
//! use logtm_se::{CoherenceKind, SignatureKind};
//!
//! let report = ltse_workloads::run_benchmark(&RunParams {
//!     benchmark: Benchmark::Mp3d,
//!     mode: SyncMode::Tm,
//!     signature: SignatureKind::Perfect,
//!     threads: 8,
//!     units_per_thread: 4,
//!     seed: 1,
//!     small_machine: true,
//!     sticky: true,
//!     coherence: CoherenceKind::DirectoryMesi,
//! })
//! .expect("runs to completion");
//! assert_eq!(report.tm.work_units, 32);
//! assert!(report.tm.commits > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod berkeleydb;
mod cholesky;
mod dist;
mod driver;
mod locks;
mod micro;
mod mp3d;
mod oltp;
mod radiosity;
mod raytrace;
mod spec;

pub use backend::{build_backend, run_on_backend, BackendKind};
pub use driver::{BodyOp, CsProgram, Section, SectionSource, SyncMode};
pub use locks::{BarrierDriver, LockDriver, LockOutcome};
pub use micro::{HotColdArray, RepeatedWriter, SharedCounter};
pub use oltp::{run_oltp, run_oltp_with, OltpConfig, OltpOutcome, PolicyTune, Zipfian, MAX_TX_OPS};
pub use spec::{run_benchmark, Benchmark, RunParams};

pub use berkeleydb::BerkeleyDb;
pub use cholesky::Cholesky;
pub use mp3d::Mp3d;
pub use radiosity::Radiosity;
pub use raytrace::Raytrace;
