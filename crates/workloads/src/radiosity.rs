//! The Radiosity workload model (SPLASH, batch input).
//!
//! Radiosity's parallel phase is task-queue driven with work stealing: the
//! common critical section is a cheap pop from the worker's own queue, but
//! occasionally a worker rebalances — grabbing a batch of tasks from a
//! victim's queue — producing the skew the paper's Table 2 reports: read
//! avg 2.0 but max 25, write avg 1.5 but max **45**.
//!
//! One unit of work = one task processed (paper: "1 task", 512 units,
//! 11 172 measured transactions — ≈22 transactions per unit; our sections
//! are coarser but the footprint distribution matches).

use logtm_se::WordAddr;
use ltse_sim::rng::Xoshiro256StarStar;

use crate::dist::uniform_incl;
use crate::driver::{BodyOp, Section, SectionSource};

mod layout {
    /// Per-thread task-queue header blocks (one block per queue).
    pub const QUEUE_BASE: u64 = 0x40_0000;
    /// Task descriptor pools, one region per owning queue so a steal
    /// touches exactly the victim's descriptors (guarded by the victim's
    /// mutex in lock mode — the same data the locks protect).
    pub const TASK_BASE: u64 = 0x40_8000;
    pub const TASK_BLOCKS_PER_QUEUE: u64 = 64;
    /// Per-queue mutexes (lock mode).
    pub const QUEUE_MUTEX_BASE: u64 = 0x41_0000;
}

fn queue_head(owner: u64) -> WordAddr {
    WordAddr(layout::QUEUE_BASE + owner * 8)
}

fn queue_mutex(owner: u64) -> WordAddr {
    WordAddr(layout::QUEUE_MUTEX_BASE + owner * 8)
}

fn task_block(owner: u64, idx: u64) -> WordAddr {
    WordAddr(
        layout::TASK_BASE
            + (owner * layout::TASK_BLOCKS_PER_QUEUE + idx % layout::TASK_BLOCKS_PER_QUEUE) * 8,
    )
}

/// Section source for one Radiosity worker.
#[derive(Debug, Clone)]
pub struct Radiosity {
    thread_id: u64,
    n_threads: u64,
    tasks_remaining: u64,
    cursor: u64,
    /// Probability of a steal/rebalance section instead of a local pop.
    steal_prob: f64,
}

impl Radiosity {
    /// A worker processing `tasks` tasks; `thread_id`/`n_threads` locate
    /// its own queue and its steal victims.
    pub fn new(thread_id: u64, n_threads: u64, tasks: u64) -> Self {
        Radiosity {
            thread_id,
            n_threads,
            tasks_remaining: tasks,
            cursor: thread_id * 131,
            steal_prob: 0.02,
        }
    }
}

impl SectionSource for Radiosity {
    fn next_section(&mut self, rng: &mut Xoshiro256StarStar) -> Option<Section> {
        if self.tasks_remaining == 0 {
            return None;
        }
        self.tasks_remaining -= 1;
        self.cursor += 1;

        let section = if rng.gen_bool(self.steal_prob) && self.n_threads > 1 {
            // Rebalance: scan the victim queue (long read set) and move a
            // batch of task descriptors (long write set) — the Table 2
            // tail (reads ≤25, writes ≤45).
            let victim = (self.thread_id + 1 + rng.gen_range(0, self.n_threads - 1))
                % self.n_threads;
            let scan = uniform_incl(rng, 6, 23);
            let moved = uniform_incl(rng, 8, 43);
            let mut body = Vec::with_capacity(2 + (scan + moved) as usize);
            body.push(BodyOp::Update(queue_head(victim)));
            body.push(BodyOp::Update(queue_head(self.thread_id)));
            // Steals take descriptors from the tail half of the victim's
            // region; the victim's pops work the head half, so the only
            // common block is the queue header itself (as in the real
            // deques).
            for i in 0..scan {
                body.push(BodyOp::Read(task_block(victim, 32 + (self.cursor * 17 + i) % 32)));
            }
            for i in 0..moved {
                body.push(BodyOp::Write(task_block(victim, 32 + (self.cursor * 17 + i) % 32)));
            }
            Section {
                think: uniform_incl(rng, 800, 2_000),
                lock: queue_mutex(victim),
                body,
                unit_done: true,
                barrier_after: None,
            }
        } else {
            // The common case: pop a task from our own queue — tiny
            // footprint (reads avg ≈2, writes ≈1.5).
            let (read_next, write_back) = (rng.gen_bool(0.5), rng.gen_bool(0.5));
            let mut body = Vec::with_capacity(2 + read_next as usize + write_back as usize);
            body.push(BodyOp::Update(queue_head(self.thread_id)));
            body.push(BodyOp::Read(task_block(self.thread_id, (self.cursor * 31) % 32)));
            if read_next {
                body.push(BodyOp::Read(task_block(self.thread_id, (self.cursor * 31 + 1) % 32)));
            }
            if write_back {
                body.push(BodyOp::Write(task_block(self.thread_id, (self.cursor * 31) % 32)));
            }
            Section {
                think: uniform_incl(rng, 2_000, 6_000),
                lock: queue_mutex(self.thread_id),
                body,
                unit_done: true,
                barrier_after: None,
            }
        };
        Some(section)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{CsProgram, SyncMode};
    use logtm_se::{SignatureKind, SystemBuilder};

    fn run_tm(seed: u64, tasks: u64) -> logtm_se::RunReport {
        let mut sys = SystemBuilder::paper_default()
            .signature(SignatureKind::Perfect)
            .seed(seed)
            .build();
        for t in 0..8u64 {
            sys.add_thread(Box::new(CsProgram::new(
                Radiosity::new(t, 8, tasks),
                SyncMode::Tm,
                t << 32,
            )));
        }
        sys.run().unwrap()
    }

    #[test]
    fn footprint_is_small_but_skewed() {
        let r = run_tm(31, 120);
        let read_avg = r.tm.read_set.mean().unwrap();
        let write_avg = r.tm.write_set.mean().unwrap();
        assert!((1.5..=4.5).contains(&read_avg), "read avg {read_avg}");
        assert!((1.0..=4.5).contains(&write_avg), "write avg {write_avg}");
        assert!(
            r.tm.read_set.max().unwrap() >= 10,
            "steal sections make a long read tail"
        );
        assert!(
            r.tm.write_set.max().unwrap() >= 20,
            "steal sections make a long write tail"
        );
        assert!(r.tm.write_set.max().unwrap() <= 45);
    }

    #[test]
    fn local_pops_rarely_conflict() {
        let r = run_tm(32, 40);
        assert_eq!(r.tm.work_units, 320);
        // Own-queue pops are private; only steals contend.
        assert!(r.tm.aborts < r.tm.commits / 5);
    }
}
