//! The Raytrace workload model (SPLASH, teapot input).
//!
//! Raytrace's critical sections are tiny but *hot*: every ray grabs an id
//! from a global counter, and the memory allocator's free lists are shared.
//! The paper's Table 2 shows the outlier that defines this benchmark: read
//! set average 5.8 but **maximum 550 blocks** — rare huge transactions that
//! overflow a 512-block L1 and make Raytrace the only benchmark with
//! significant victimization (Result 4: 481 victimized blocks in 48 K
//! transactions) and the one hurt most by small bit-select signatures
//! (Figure 4 / Table 3).
//!
//! Model: three section flavours — the global ray-id counter bump (common,
//! maximal contention), a free-list allocation (moderate footprint), and a
//! rare grid-traversal section reading hundreds of scene blocks.

use logtm_se::WordAddr;
use ltse_sim::rng::Xoshiro256StarStar;

use crate::dist::{clamped_geo, uniform_incl};
use crate::driver::{BodyOp, Section, SectionSource};

mod layout {
    /// The global ray-id counter block.
    pub const RAY_COUNTER: u64 = 0x50_0000;
    /// Read-mostly global job bookkeeping block.
    pub const JOB_BOARD: u64 = 0x50_0040;
    /// Memory-allocator free-list blocks.
    pub const FREELIST_BASE: u64 = 0x50_1000;
    pub const FREELIST_BLOCKS: u64 = 16;
    /// Scene (grid/BSP) blocks traversed by the rare huge sections.
    pub const SCENE_BASE: u64 = 0x51_0000;
    pub const SCENE_BLOCKS: u64 = 640;
    /// Mutexes (lock mode): counter lock, allocator lock, scene lock.
    pub const COUNTER_MUTEX: u64 = 0x52_0000;
    pub const ALLOC_MUTEX: u64 = 0x52_0008;
    pub const SCENE_MUTEX: u64 = 0x52_0010;
}

fn block(base: u64, idx: u64) -> WordAddr {
    WordAddr(base + idx * 8)
}

/// Section source for one Raytrace worker.
#[derive(Debug, Clone)]
pub struct Raytrace {
    rays_remaining: u64,
    cursor: u64,
    /// Probability a ray needs an allocation section.
    alloc_prob: f64,
    /// Probability a ray triggers the huge traversal section.
    huge_prob: f64,
}

impl Raytrace {
    /// A worker tracing `rays` rays (each ray = one unit of work).
    pub fn new(thread_id: u64, rays: u64) -> Self {
        Raytrace {
            rays_remaining: rays,
            cursor: thread_id * 977,
            alloc_prob: 0.45,
            huge_prob: 1.0 / 400.0,
        }
    }
}

impl SectionSource for Raytrace {
    fn next_section(&mut self, rng: &mut Xoshiro256StarStar) -> Option<Section> {
        if self.rays_remaining == 0 {
            return None;
        }
        self.cursor += 1;

        let huge_now = self.cursor % (1.0_f64 / self.huge_prob) as u64 == 137;
        if huge_now {
            // Rare: rebuild/traverse a big chunk of the scene structure
            // under one critical section — the 550-block read-set tail.
            let reads = uniform_incl(rng, 220, 550);
            let start = rng.gen_range(0, layout::SCENE_BLOCKS);
            let mut body = Vec::with_capacity(reads as usize + 2);
            for i in 0..reads {
                body.push(BodyOp::Read(block(
                    layout::SCENE_BASE,
                    (start + i) % layout::SCENE_BLOCKS,
                )));
            }
            body.push(BodyOp::Write(block(layout::SCENE_BASE, start)));
            body.push(BodyOp::Write(block(
                layout::SCENE_BASE,
                (start + reads / 2) % layout::SCENE_BLOCKS,
            )));
            return Some(Section {
                think: uniform_incl(rng, 400, 900),
                lock: WordAddr(layout::SCENE_MUTEX),
                body,
                unit_done: false,
                barrier_after: None,
            });
        }

        if rng.gen_bool(self.alloc_prob) {
            // Allocator: walk a free list, unlink a node.
            let head = rng.gen_skewed_index(layout::FREELIST_BLOCKS as usize) as u64;
            let walk = clamped_geo(rng, 5.0, 12);
            // Unlink from the head first (one owned-line RMW), then walk
            // the rest of the list read-only.
            let unlink_next = rng.gen_bool(0.5);
            let mut body =
                Vec::with_capacity(1 + unlink_next as usize + walk.saturating_sub(1) as usize);
            body.push(BodyOp::Update(block(layout::FREELIST_BASE, head)));
            if unlink_next {
                body.push(BodyOp::Update(block(
                    layout::FREELIST_BASE,
                    (head + 1) % layout::FREELIST_BLOCKS,
                )));
            }
            for i in 1..walk {
                body.push(BodyOp::Read(block(
                    layout::FREELIST_BASE,
                    (head + i + 1) % layout::FREELIST_BLOCKS,
                )));
            }
            return Some(Section {
                think: uniform_incl(rng, 900, 2_400),
                lock: WordAddr(layout::ALLOC_MUTEX),
                body,
                unit_done: false,
                barrier_after: None,
            });
        }

        // The common case: bump the global ray-id counter, then trace the
        // ray outside the critical section.
        self.rays_remaining -= 1;
        Some(Section {
            think: uniform_incl(rng, 2_500, 7_000),
            lock: WordAddr(layout::COUNTER_MUTEX),
            body: vec![
                BodyOp::Update(WordAddr(layout::RAY_COUNTER)),
                BodyOp::Read(WordAddr(layout::JOB_BOARD)),
            ],
            unit_done: true,
            barrier_after: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{CsProgram, SyncMode};
    use logtm_se::{SignatureKind, SystemBuilder};

    fn run_tm(seed: u64, rays: u64, threads: u64) -> logtm_se::RunReport {
        let mut sys = SystemBuilder::paper_default()
            .signature(SignatureKind::Perfect)
            .seed(seed)
            .build();
        for t in 0..threads {
            sys.add_thread(Box::new(CsProgram::new(
                Raytrace::new(t, rays),
                SyncMode::Tm,
                t << 32,
            )));
        }
        sys.run().unwrap()
    }

    #[test]
    fn counter_sections_dominate_and_contend() {
        let r = run_tm(41, 60, 16);
        assert_eq!(r.tm.work_units, 960);
        assert!(
            r.tm.stalls > 100,
            "global counter must create heavy stalling, got {}",
            r.tm.stalls
        );
        let read_avg = r.tm.read_set.mean().unwrap();
        assert!((1.0..=8.0).contains(&read_avg), "read avg {read_avg}");
        assert!(r.tm.write_set.max().unwrap() <= 3);
    }

    #[test]
    fn huge_sections_produce_the_550_tail_and_victimize() {
        // Enough rays that the 1/400 huge section fires several times.
        let r = run_tm(42, 260, 8);
        let max_read = r.tm.read_set.max().unwrap();
        assert!(
            (220..=550).contains(&max_read),
            "huge traversal tail missing: {max_read}"
        );
        // A >512-block read set cannot fit the 512-block L1: Result 4's
        // victimization shows up here (and only here among the workloads).
        assert!(
            r.mem.tx_victimizations_exact() > 0,
            "raytrace must victimize transactional blocks"
        );
    }
}
