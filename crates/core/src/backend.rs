//! A common driving surface for transactional-memory backends.
//!
//! The workspace has two independently implemented TMs that execute the
//! same [`ThreadProgram`] workloads: the cycle-level LogTM-SE simulator
//! ([`System`], eager versioning, signatures, deterministic) and the
//! real-concurrency TL2 STM in `ltse-stm` (lazy versioning, lock stripes,
//! OS threads). [`TmBackend`] is the narrow waist both implement, so
//! experiment drivers, differential tests, and benches can configure a
//! workload once and point it at either engine.
//!
//! The trait deliberately covers only the *driving* motions — seed memory,
//! add programs, run, inspect words, collect oracle verdicts — and reports
//! through the least common denominator [`BackendReport`]. Backend-specific
//! riches (the simulator's protocol statistics, the STM's retry counters)
//! stay on the concrete types.

use std::time::Duration;

use ltse_mem::WordAddr;

use crate::{System, ThreadProgram};

/// Backend-agnostic run results: the counters every TM implementation can
/// produce, plus the one timing measure each side natively has.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BackendReport {
    /// Wall-clock duration of the run. For the simulator this is real time
    /// spent simulating (not meaningful as a throughput basis); for real
    /// backends it is the actual execution time.
    pub wall: Duration,
    /// Simulated cycles, when the backend models time (`None` for real
    /// backends, where wall time is the only clock).
    pub sim_cycles: Option<u64>,
    /// Outermost transactional commits.
    pub commits: u64,
    /// Transactional aborts.
    pub aborts: u64,
    /// Transactions that escalated to the serial fallback after too many
    /// consecutive aborts.
    pub serial_escalations: u64,
    /// Work units completed (the paper's Table 2 throughput metric).
    pub work_units: u64,
    /// Threads that ran to completion.
    pub threads_completed: usize,
}

/// A transactional-memory engine that can execute [`ThreadProgram`]s.
///
/// Implementations: [`System`] (the LogTM-SE simulator, backend name
/// `"sim"`) and `ltse_stm::StmSystem` (the TL2 STM, backend name `"stm"`).
///
/// The expected lifecycle is `poke_word`* → `add_thread`* → `run_backend`
/// → (`read_word` | `finish_checks`)*.
pub trait TmBackend {
    /// Short stable identifier (`"sim"`, `"stm"`) for CLI flags and JSON.
    fn backend_name(&self) -> &'static str;

    /// Adds a program; returns its thread id.
    fn add_thread(&mut self, program: Box<dyn ThreadProgram>) -> u32;

    /// Seeds a memory word before the run.
    fn poke_word(&mut self, addr: WordAddr, value: u64);

    /// Reads a memory word (post-run inspection).
    fn read_word(&self, addr: WordAddr) -> u64;

    /// Runs every added program to completion. Errors are rendered to
    /// strings: the two backends fail in structurally different ways, and
    /// callers at this level only route failures upward.
    fn run_backend(&mut self) -> Result<BackendReport, String>;

    /// Oracle verdicts for the finished run (empty when clean or when the
    /// backend was built without checking).
    fn finish_checks(&mut self) -> Vec<String>;
}

impl TmBackend for System {
    fn backend_name(&self) -> &'static str {
        "sim"
    }

    fn add_thread(&mut self, program: Box<dyn ThreadProgram>) -> u32 {
        System::add_thread(self, program)
    }

    fn poke_word(&mut self, addr: WordAddr, value: u64) {
        System::poke_word(self, addr, value);
    }

    fn read_word(&self, addr: WordAddr) -> u64 {
        System::read_word(self, addr)
    }

    fn run_backend(&mut self) -> Result<BackendReport, String> {
        let start = std::time::Instant::now();
        let r = System::run(self).map_err(|e| e.to_string())?;
        Ok(BackendReport {
            wall: start.elapsed(),
            sim_cycles: Some(r.cycles.as_u64()),
            commits: r.tm.commits,
            aborts: r.tm.aborts,
            serial_escalations: r.tm.serial_escalations,
            work_units: r.tm.work_units,
            threads_completed: r.threads_completed,
        })
    }

    fn finish_checks(&mut self) -> Vec<String> {
        System::finish_checks(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SystemBuilder, TxScript};

    #[test]
    fn simulator_drives_through_the_backend_trait() {
        let mut sys = SystemBuilder::small_for_tests()
            .seed(4)
            .check_serializability(true)
            .build();
        let backend: &mut dyn TmBackend = &mut sys;
        assert_eq!(backend.backend_name(), "sim");
        backend.poke_word(WordAddr(0), 3);
        for _ in 0..2 {
            backend.add_thread(Box::new(TxScript::counter(WordAddr(0), 4)));
        }
        let r = backend.run_backend().expect("run completes");
        assert_eq!(r.commits, 8);
        assert_eq!(r.work_units, 8);
        assert_eq!(r.threads_completed, 2);
        assert!(r.sim_cycles.unwrap() > 0);
        assert_eq!(backend.read_word(WordAddr(0)), 11);
        assert!(backend.finish_checks().is_empty());
    }

    #[test]
    fn run_errors_render_to_strings() {
        let mut sys = SystemBuilder::small_for_tests().build();
        let backend: &mut dyn TmBackend = &mut sys;
        let err = backend.run_backend().unwrap_err();
        assert!(!err.is_empty(), "no-thread run must explain itself");
    }
}
