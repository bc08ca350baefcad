//! Running the Table-2 workloads on either TM backend.
//!
//! [`BackendKind`] names the two engines behind [`logtm_se::TmBackend`]: the
//! cycle-level simulator (`sim`, the default everywhere) and the
//! real-concurrency TL2 STM in `ltse-stm` (`stm`). [`build_backend`] turns a
//! [`RunParams`] into a ready-to-run boxed backend; [`run_on_backend`] is
//! the one-call counterpart of [`crate::run_benchmark`].
//!
//! The STM interprets [`RunParams`] narrowly: it honours `benchmark`,
//! `mode`, `threads`, `units_per_thread`, and `seed`. The remaining fields
//! describe *simulated hardware* — signature geometry, stickiness, cache
//! size, coherence protocol — which a software TM on real silicon has no
//! analogue for; they are accepted and ignored so one `RunParams` can drive
//! an apples-to-apples sim-vs-stm pair.

use logtm_se::TmBackend;
use ltse_stm::StmBuilder;

use crate::spec::RunParams;

/// Which TM engine executes a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The LogTM-SE cycle-level simulator (deterministic, single OS
    /// thread, simulated time).
    #[default]
    Sim,
    /// The TL2-style software TM (real OS threads, wall-clock time).
    Stm,
}

impl BackendKind {
    /// The CLI/JSON name (`"sim"` / `"stm"`).
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Stm => "stm",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(BackendKind::Sim),
            "stm" => Ok(BackendKind::Stm),
            other => Err(format!("unknown backend '{other}' (expected sim|stm)")),
        }
    }
}

/// Builds a backend of the given kind, configured for `params`, with the
/// benchmark's per-thread programs already added. Pass `check` to enable
/// serializability recording (differential tests on; benches off).
pub fn build_backend(kind: BackendKind, params: &RunParams, check: bool) -> Box<dyn TmBackend> {
    let mut backend: Box<dyn TmBackend> = match kind {
        BackendKind::Sim => Box::new(params.system_builder().check_serializability(check).build()),
        BackendKind::Stm => Box::new(
            StmBuilder::new()
                .seed(params.seed)
                .check_serializability(check)
                .build(),
        ),
    };
    for program in params
        .benchmark
        .programs(params.mode, params.threads, params.units_per_thread)
    {
        backend.add_thread(program);
    }
    backend
}

/// Runs one benchmark configuration on the chosen backend. Like
/// [`crate::run_benchmark`], but backend-generic and reporting the common
/// [`logtm_se::BackendReport`]; checking is off (measurement mode).
pub fn run_on_backend(
    kind: BackendKind,
    params: &RunParams,
) -> Result<logtm_se::BackendReport, String> {
    build_backend(kind, params, false).run_backend()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::SyncMode;
    use crate::spec::Benchmark;
    use logtm_se::{CoherenceKind, SignatureKind};

    fn small(benchmark: Benchmark) -> RunParams {
        RunParams {
            benchmark,
            mode: SyncMode::Tm,
            signature: SignatureKind::Perfect,
            threads: 4,
            units_per_thread: 3,
            seed: 9,
            small_machine: true,
            sticky: true,
            coherence: CoherenceKind::DirectoryMesi,
        }
    }

    #[test]
    fn kind_parses_and_prints() {
        assert_eq!("sim".parse::<BackendKind>().unwrap(), BackendKind::Sim);
        assert_eq!("stm".parse::<BackendKind>().unwrap(), BackendKind::Stm);
        assert!("hw".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::Stm.to_string(), "stm");
        assert_eq!(BackendKind::default(), BackendKind::Sim);
    }

    #[test]
    fn both_backends_complete_the_same_work() {
        for benchmark in [Benchmark::BerkeleyDb, Benchmark::Mp3d] {
            let params = small(benchmark);
            let sim = run_on_backend(BackendKind::Sim, &params)
                .unwrap_or_else(|e| panic!("sim {benchmark}: {e}"));
            let stm = run_on_backend(BackendKind::Stm, &params)
                .unwrap_or_else(|e| panic!("stm {benchmark}: {e}"));
            assert_eq!(sim.work_units, 12, "{benchmark}");
            assert_eq!(stm.work_units, 12, "{benchmark}");
            assert_eq!(stm.threads_completed, 4, "{benchmark}");
            assert!(sim.sim_cycles.is_some() && stm.sim_cycles.is_none());
            assert!(stm.commits > 0, "{benchmark}: Tm mode must commit");
        }
    }

    #[test]
    fn stm_backend_serializes_a_full_workload_under_check() {
        let mut backend = build_backend(BackendKind::Stm, &small(Benchmark::Radiosity), true);
        backend.run_backend().expect("run completes");
        let errs = backend.finish_checks();
        assert!(errs.is_empty(), "oracle clean, got: {errs:?}");
    }
}
