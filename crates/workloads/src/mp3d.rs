//! The Mp3d workload model (SPLASH, 128 molecules).
//!
//! Mp3d simulates rarefied hypersonic flow: each step moves molecules
//! through space cells, updating per-cell state when a molecule enters or
//! leaves, with occasional multi-molecule collisions. The paper's Table 2:
//! read avg 2.2 / max 18, write avg 1.7 / max 10; one unit of work = one
//! step (512 units, 17 733 transactions).
//!
//! Model: per-molecule move sections (read molecule + cell, write both),
//! with a small probability of a collision section touching several cells
//! and molecules at once (the tails). Cells are shared; molecules are
//! mostly thread-private — conflicts arise when molecules land in the same
//! cell, which is the workload's natural (moderate) contention.

use logtm_se::WordAddr;
use ltse_sim::rng::Xoshiro256StarStar;

use crate::dist::uniform_incl;
use crate::driver::{BodyOp, Section, SectionSource};

mod layout {
    /// Molecule state blocks (128 molecules, one block each).
    pub const MOLECULE_BASE: u64 = 0x60_0000;
    pub const MOLECULES: u64 = 128;
    /// Space-cell blocks.
    pub const CELL_BASE: u64 = 0x60_8000;
    pub const CELLS: u64 = 512;
    /// Per-cell mutexes (lock mode).
    pub const CELL_MUTEX_BASE: u64 = 0x61_0000;
    /// The per-step barrier (counter + sense words).
    pub const STEP_BARRIER: u64 = 0x61_8000;
}

fn molecule(idx: u64) -> WordAddr {
    WordAddr(layout::MOLECULE_BASE + (idx % layout::MOLECULES) * 8)
}

fn cell(idx: u64) -> WordAddr {
    WordAddr(layout::CELL_BASE + (idx % layout::CELLS) * 8)
}

fn cell_mutex(idx: u64) -> WordAddr {
    WordAddr(layout::CELL_MUTEX_BASE + (idx % layout::CELLS) * 8)
}

/// Section source for one Mp3d worker.
#[derive(Debug, Clone)]
pub struct Mp3d {
    thread_id: u64,
    n_threads: u64,
    steps_remaining: u64,
    moves_left_in_step: u64,
    moves_per_step: u64,
    cursor: u64,
}

impl Mp3d {
    /// A worker running `steps` simulation steps, each moving its share of
    /// the 128 molecules.
    pub fn new(thread_id: u64, n_threads: u64, steps: u64) -> Self {
        let moves_per_step = (layout::MOLECULES / n_threads.max(1)).max(1);
        Mp3d {
            thread_id,
            n_threads,
            steps_remaining: steps,
            moves_left_in_step: moves_per_step,
            moves_per_step,
            cursor: thread_id * 57,
        }
    }
}

impl SectionSource for Mp3d {
    fn next_section(&mut self, rng: &mut Xoshiro256StarStar) -> Option<Section> {
        if self.steps_remaining == 0 {
            return None;
        }
        self.cursor += 1;

        // My molecule for this move, and the (shared) cell it lands in.
        let mol = self.thread_id + self.n_threads * (self.cursor % self.moves_per_step.max(1));
        let target_cell = rng.gen_range(0, layout::CELLS);

        let unit_done = self.moves_left_in_step == 1;
        if unit_done {
            self.steps_remaining -= 1;
            self.moves_left_in_step = self.moves_per_step;
        } else {
            self.moves_left_in_step -= 1;
        }

        let body = if rng.gen_bool(0.06) {
            // Collision: several molecules and neighbouring cells at once —
            // the Table 2 tails (reads ≤18, writes ≤10).
            let extra = uniform_incl(rng, 3, 8);
            let mut body = Vec::with_capacity(2 + 2 * extra as usize + 2 * (extra / 2 + 1) as usize);
            body.push(BodyOp::Read(molecule(mol)));
            body.push(BodyOp::Update(cell(target_cell)));
            for i in 0..extra {
                body.push(BodyOp::Read(molecule(mol + i * 7 + 1)));
                body.push(BodyOp::Read(cell(target_cell + i + 1)));
            }
            for i in 0..(extra / 2 + 1) {
                body.push(BodyOp::Update(cell(target_cell + i + 1)));
                body.push(BodyOp::Write(molecule(mol + i * 7 + 1)));
            }
            body
        } else {
            // Plain move: 2 reads, ~1.7 writes on average.
            let (read_next, write_back) = (rng.gen_bool(0.4), rng.gen_bool(0.6));
            let mut body = Vec::with_capacity(2 + read_next as usize + write_back as usize);
            body.push(BodyOp::Read(molecule(mol)));
            body.push(BodyOp::Update(cell(target_cell)));
            if read_next {
                body.push(BodyOp::Read(cell(target_cell + 1)));
            }
            if write_back {
                body.push(BodyOp::Write(molecule(mol)));
            }
            body
        };

        Some(Section {
            think: uniform_incl(rng, 1_500, 4_500),
            lock: cell_mutex(target_cell),
            body,
            unit_done,
            // The real Mp3d separates steps with a barrier; we keep it
            // (paper §6.2: "retaining barriers and other synchronization
            // mechanisms").
            barrier_after: unit_done
                .then_some((WordAddr(layout::STEP_BARRIER), self.n_threads)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{CsProgram, SyncMode};
    use logtm_se::{SignatureKind, SystemBuilder};

    fn run_tm(seed: u64, steps: u64, threads: u64) -> logtm_se::RunReport {
        let mut sys = SystemBuilder::paper_default()
            .signature(SignatureKind::Perfect)
            .seed(seed)
            .build();
        for t in 0..threads {
            sys.add_thread(Box::new(CsProgram::new(
                Mp3d::new(t, threads, steps),
                SyncMode::Tm,
                t << 32,
            )));
        }
        sys.run().unwrap()
    }

    #[test]
    fn footprint_matches_table2_band() {
        let r = run_tm(51, 6, 8);
        let read_avg = r.tm.read_set.mean().unwrap();
        let write_avg = r.tm.write_set.mean().unwrap();
        assert!((1.8..=4.0).contains(&read_avg), "read avg {read_avg}");
        assert!((1.2..=3.5).contains(&write_avg), "write avg {write_avg}");
        assert!(r.tm.read_set.max().unwrap() <= 20);
        assert!(r.tm.write_set.max().unwrap() <= 12);
        assert_eq!(r.tm.work_units, 48);
    }

    #[test]
    fn units_count_steps_not_moves() {
        let r = run_tm(52, 3, 4);
        assert_eq!(r.tm.work_units, 12);
        // Each step moves ~128/4 = 32 molecules ⇒ many more txns than units.
        assert!(r.tm.commits >= 12 * 16);
    }
}
