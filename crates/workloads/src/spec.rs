//! Benchmark registry and the one-call runner the harness uses.

use logtm_se::{CoherenceKind, RunError, RunReport, SignatureKind, SystemBuilder, ThreadProgram};

use crate::berkeleydb::BerkeleyDb;
use crate::cholesky::Cholesky;
use crate::driver::{CsProgram, SyncMode};
use crate::mp3d::Mp3d;
use crate::radiosity::Radiosity;
use crate::raytrace::Raytrace;

/// The paper's five benchmarks (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// BerkeleyDB lock-subsystem stress (1000-word database driver).
    BerkeleyDb,
    /// SPLASH Cholesky, input tk14.O.
    Cholesky,
    /// SPLASH Radiosity, batch input.
    Radiosity,
    /// SPLASH Raytrace, teapot input.
    Raytrace,
    /// SPLASH Mp3d, 128 molecules.
    Mp3d,
}

impl Benchmark {
    /// All benchmarks in the paper's Table 2 row order.
    pub fn all() -> [Benchmark; 5] {
        [
            Benchmark::BerkeleyDb,
            Benchmark::Cholesky,
            Benchmark::Radiosity,
            Benchmark::Raytrace,
            Benchmark::Mp3d,
        ]
    }

    /// The paper's name for the benchmark.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::BerkeleyDb => "BerkeleyDB",
            Benchmark::Cholesky => "Cholesky",
            Benchmark::Radiosity => "Radiosity",
            Benchmark::Raytrace => "Raytrace",
            Benchmark::Mp3d => "Mp3d",
        }
    }

    /// Table 2 "Input" column.
    pub fn input_label(&self) -> &'static str {
        match self {
            Benchmark::BerkeleyDb => "1000 words",
            Benchmark::Cholesky => "tk14.O",
            Benchmark::Radiosity => "batch",
            Benchmark::Raytrace => "small image (teapot)",
            Benchmark::Mp3d => "128 molecules",
        }
    }

    /// Table 2 "Unit of Work" column.
    pub fn unit_label(&self) -> &'static str {
        match self {
            Benchmark::BerkeleyDb => "1 database read",
            Benchmark::Cholesky => "task (paper: factorization)",
            Benchmark::Radiosity => "1 task",
            Benchmark::Raytrace => "1 ray (paper: parallel phase)",
            Benchmark::Mp3d => "1 step",
        }
    }

    /// Builds the per-thread programs for this benchmark.
    pub fn programs(
        &self,
        mode: SyncMode,
        threads: u32,
        units_per_thread: u64,
    ) -> Vec<Box<dyn ThreadProgram>> {
        (0..threads as u64)
            .map(|t| -> Box<dyn ThreadProgram> {
                let token = (t + 1) << 40;
                match self {
                    Benchmark::BerkeleyDb => Box::new(CsProgram::new(
                        BerkeleyDb::new(units_per_thread),
                        mode,
                        token,
                    )),
                    Benchmark::Cholesky => {
                        Box::new(CsProgram::new(Cholesky::new(units_per_thread), mode, token))
                    }
                    Benchmark::Radiosity => Box::new(CsProgram::new(
                        Radiosity::new(t, threads as u64, units_per_thread),
                        mode,
                        token,
                    )),
                    Benchmark::Raytrace => Box::new(CsProgram::new(
                        Raytrace::new(t, units_per_thread),
                        mode,
                        token,
                    )),
                    Benchmark::Mp3d => Box::new(CsProgram::new(
                        Mp3d::new(t, threads as u64, units_per_thread),
                        mode,
                        token,
                    )),
                }
            })
            .collect()
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters for one benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunParams {
    /// Which benchmark.
    pub benchmark: Benchmark,
    /// Transactions or the lock baseline.
    pub mode: SyncMode,
    /// Signature configuration (ignored by the lock baseline except that
    /// the TM hardware still exists idle).
    pub signature: SignatureKind,
    /// Worker threads (the paper uses up to 32 contexts).
    pub threads: u32,
    /// Units of work per thread.
    pub units_per_thread: u64,
    /// Perturbation seed (§6.1 methodology).
    pub seed: u64,
    /// Use the small test machine instead of the paper's Table 1 CMP.
    pub small_machine: bool,
    /// LogTM sticky states enabled (ablation A2 sets false).
    pub sticky: bool,
    /// Coherence substrate (§5 directory by default; §7 snooping).
    pub coherence: CoherenceKind,
}

impl RunParams {
    /// Paper-machine defaults for a benchmark/mode/signature triple.
    pub fn paper(benchmark: Benchmark, mode: SyncMode, signature: SignatureKind) -> Self {
        RunParams {
            benchmark,
            mode,
            signature,
            threads: 32,
            units_per_thread: 16,
            seed: 0,
            small_machine: false,
            sticky: true,
            coherence: CoherenceKind::DirectoryMesi,
        }
    }

    /// The simulated machine these parameters describe, before any thread
    /// is added; every other builder setting keeps its default.
    pub(crate) fn system_builder(&self) -> SystemBuilder {
        let builder = if self.small_machine {
            SystemBuilder::small_for_tests()
        } else {
            SystemBuilder::paper_default()
        };
        builder
            .signature(self.signature)
            .sticky(self.sticky)
            .coherence(self.coherence)
            .seed(self.seed)
    }
}

/// Runs one benchmark configuration to completion.
///
/// # Errors
///
/// Propagates [`RunError`] from the system (watchdogs, misconfiguration).
pub fn run_benchmark(params: &RunParams) -> Result<RunReport, RunError> {
    let mut system = params.system_builder().build();
    for program in params
        .benchmark
        .programs(params.mode, params.threads, params.units_per_thread)
    {
        system.add_thread(program);
    }
    system.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_runs_in_both_modes() {
        for benchmark in Benchmark::all() {
            for mode in [SyncMode::Tm, SyncMode::Lock] {
                let r = run_benchmark(&RunParams {
                    benchmark,
                    mode,
                    signature: SignatureKind::Perfect,
                    threads: 4,
                    units_per_thread: 3,
                    seed: 9,
                    small_machine: false,
                    sticky: true,
                    coherence: CoherenceKind::DirectoryMesi,
                })
                .unwrap_or_else(|e| panic!("{benchmark} {mode}: {e}"));
                assert_eq!(r.tm.work_units, 12, "{benchmark} {mode}");
                match mode {
                    SyncMode::Tm => assert!(r.tm.commits > 0, "{benchmark}"),
                    SyncMode::Lock => assert_eq!(r.tm.commits, 0, "{benchmark}"),
                }
            }
        }
    }

    #[test]
    fn registry_metadata_complete() {
        for b in Benchmark::all() {
            assert!(!b.name().is_empty());
            assert!(!b.input_label().is_empty());
            assert!(!b.unit_label().is_empty());
            assert_eq!(b.to_string(), b.name());
        }
    }

    #[test]
    fn programs_match_thread_count() {
        let ps = Benchmark::Mp3d.programs(SyncMode::Tm, 7, 2);
        assert_eq!(ps.len(), 7);
    }
}
