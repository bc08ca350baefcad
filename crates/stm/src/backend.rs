//! [`TmBackend`] implementation: the STM as a drop-in engine behind the
//! simulator's driving surface.

use logtm_se::{BackendReport, ThreadProgram, TmBackend, WordAddr};

use crate::exec::StmSystem;

impl TmBackend for StmSystem {
    fn backend_name(&self) -> &'static str {
        "stm"
    }

    fn add_thread(&mut self, program: Box<dyn ThreadProgram>) -> u32 {
        StmSystem::add_thread(self, program)
    }

    fn poke_word(&mut self, addr: WordAddr, value: u64) {
        StmSystem::poke_word(self, addr, value);
    }

    fn read_word(&self, addr: WordAddr) -> u64 {
        StmSystem::read_word(self, addr)
    }

    fn run_backend(&mut self) -> Result<BackendReport, String> {
        let r = StmSystem::run(self).map_err(|e| e.to_string())?;
        Ok(BackendReport {
            wall: r.wall,
            sim_cycles: None,
            commits: r.commits,
            aborts: r.aborts,
            serial_escalations: r.serial_fallbacks,
            work_units: r.work_units,
            threads_completed: r.threads_completed,
        })
    }

    fn finish_checks(&mut self) -> Vec<String> {
        StmSystem::finish_checks(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StmBuilder;
    use logtm_se::TxScript;

    #[test]
    fn stm_drives_through_the_backend_trait() {
        let mut sys = StmBuilder::new()
            .seed(2)
            .check_serializability(true)
            .build();
        let backend: &mut dyn TmBackend = &mut sys;
        assert_eq!(backend.backend_name(), "stm");
        backend.poke_word(WordAddr(0), 3);
        for _ in 0..2 {
            backend.add_thread(Box::new(TxScript::counter(WordAddr(0), 4)));
        }
        let r = backend.run_backend().expect("run completes");
        assert_eq!(r.commits, 8);
        assert_eq!(r.work_units, 8);
        assert_eq!(r.threads_completed, 2);
        assert_eq!(r.sim_cycles, None, "the STM has no simulated clock");
        assert_eq!(backend.read_word(WordAddr(0)), 11);
        assert!(backend.finish_checks().is_empty());
    }

    #[test]
    fn both_backends_agree_on_the_same_workload() {
        // The differential idea in one unit test: identical programs, both
        // engines, identical final state and work accounting.
        let drive = |backend: &mut dyn TmBackend| {
            backend.poke_word(WordAddr(0), 7);
            for _ in 0..3 {
                backend.add_thread(Box::new(TxScript::counter(WordAddr(0), 5)));
            }
            let r = backend.run_backend().expect("run completes");
            assert!(
                backend.finish_checks().is_empty(),
                "{}",
                backend.backend_name()
            );
            (r.commits, r.work_units, backend.read_word(WordAddr(0)))
        };
        let mut stm = StmBuilder::new()
            .seed(6)
            .check_serializability(true)
            .build();
        let stm_out = drive(&mut stm);
        let mut sim = logtm_se::SystemBuilder::small_for_tests()
            .seed(6)
            .check_serializability(true)
            .build();
        let sim_out = drive(&mut sim);
        assert_eq!(stm_out, sim_out, "(commits, units, final) must agree");
    }
}
