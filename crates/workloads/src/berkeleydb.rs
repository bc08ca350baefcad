//! The BerkeleyDB workload model.
//!
//! Paper §6.2: "a database storage manager library … We converted the
//! mutex-based critical sections in BerkeleyDB to transactions. The
//! resulting transactions contain non-transactional pieces of code such as
//! system calls, I/O operations, and memory allocation, which are handled
//! using non-transactional escape actions. A simple multithreaded driver
//! program initializes a database with 1000 words and then creates a group
//! of worker threads that randomly read from the database. This driver
//! stresses the BerkeleyDB lock subsystem due to repeated requests for
//! locks on database objects."
//!
//! Model: one unit of work = one database read = three critical sections —
//! acquire a database-object lock in the (hot, skewed) lock subsystem,
//! fetch the record through the buffer pool, release the lock. The lock
//! subsystem's metadata blocks are the contention point; in `Lock` mode a
//! single lock-region mutex guards them (as BerkeleyDB's region locks do),
//! which is exactly the conservatism transactions win against in Figure 4.
//!
//! Footprint calibration (Table 2): read avg 8.1 / max 30, write avg
//! 6.8 / max 28 per transaction.

use logtm_se::WordAddr;
use ltse_sim::rng::Xoshiro256StarStar;

use crate::dist::{clamped_geo, uniform_incl};
use crate::driver::{BodyOp, Section, SectionSource};

/// Word-address layout of the simulated BerkeleyDB process image.
mod layout {
    /// The lock-subsystem region: hot metadata (lock table buckets,
    /// lockers, the region header).
    pub const LOCK_REGION_BASE: u64 = 0x20_0000;
    /// Lock-table bucket blocks. A handful of header blocks at the start
    /// of the region are hotter than the rest (skewed contention), but two
    /// concurrent database reads usually lock *different* objects — the
    /// paper's TM win exists precisely because the region mutex serializes
    /// conservatively while true data conflicts are much rarer.
    pub const LOCK_REGION_BLOCKS: u64 = 128;
    /// The hot header prefix of the lock region.
    pub const LOCK_HOT_BLOCKS: u64 = 8;
    /// The database pages ("1000 words" in the paper's driver; modelled as
    /// 128 pages/blocks so record fetches touch several).
    pub const DB_BASE: u64 = 0x21_0000;
    pub const DB_BLOCKS: u64 = 128;
    /// Buffer-pool bookkeeping blocks.
    pub const BUF_BASE: u64 = 0x22_0000;
    pub const BUF_BLOCKS: u64 = 32;
    /// Lock-region mutexes (lock mode): the region is guarded by a small
    /// number of hashed mutexes, as BerkeleyDB's region locks are.
    pub const REGION_MUTEX_BASE: u64 = 0x23_0000;
    pub const REGION_MUTEXES: u64 = 1;
    /// Per-page mutexes (lock mode), one per DB page.
    pub const PAGE_MUTEX_BASE: u64 = 0x23_1000;
}

fn block(base: u64, idx: u64) -> WordAddr {
    WordAddr(base + idx * 8)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    AcquireLocks,
    Fetch,
    ReleaseLocks,
}

/// Section source for one BerkeleyDB worker thread.
#[derive(Debug, Clone)]
pub struct BerkeleyDb {
    units_remaining: u64,
    step: Step,
}

impl BerkeleyDb {
    /// A worker performing `units` database reads.
    pub fn new(units: u64) -> Self {
        BerkeleyDb {
            units_remaining: units,
            step: Step::AcquireLocks,
        }
    }

    /// Picks a hot lock-subsystem starting bucket: geometrically skewed so
    /// a few buckets dominate (the "repeated requests for locks on database
    /// objects" of the paper's driver). Sections then walk a run of
    /// consecutive bucket-chain blocks from there, so footprints are made
    /// of distinct blocks.
    fn hot_start(rng: &mut Xoshiro256StarStar) -> u64 {
        if rng.gen_bool(0.45) {
            rng.gen_skewed_index(layout::LOCK_HOT_BLOCKS as usize) as u64
        } else {
            rng.gen_range(0, layout::LOCK_REGION_BLOCKS)
        }
    }

    fn hot_block(start: u64, i: u64) -> WordAddr {
        block(
            layout::LOCK_REGION_BASE,
            (start + i) % layout::LOCK_REGION_BLOCKS,
        )
    }

    /// The region mutex guarding the bucket run starting at `start`.
    /// BerkeleyDB guards the whole lock region with a single region mutex
    /// (`REGION_MUTEXES == 1`); the hashing stays so the partitioned
    /// variant is a one-constant change.
    #[allow(clippy::modulo_one)] // REGION_MUTEXES is a tunable constant
    fn region_mutex(start: u64) -> WordAddr {
        block(layout::REGION_MUTEX_BASE, start % layout::REGION_MUTEXES)
    }
}

impl SectionSource for BerkeleyDb {
    fn next_section(&mut self, rng: &mut Xoshiro256StarStar) -> Option<Section> {
        if self.units_remaining == 0 {
            return None;
        }
        let section = match self.step {
            Step::AcquireLocks => {
                // Walk lock-table buckets, allocate a locker, link it in.
                self.step = Step::Fetch;
                let start = Self::hot_start(rng);
                let writes = clamped_geo(rng, 7.0, 20);
                let reads = clamped_geo(rng, 6.0, 20);
                let mut body = Vec::with_capacity((writes + reads) as usize + 1);
                for i in 0..writes {
                    body.push(BodyOp::Update(Self::hot_block(start, i)));
                }
                for i in 0..reads {
                    body.push(BodyOp::Read(Self::hot_block(start, writes + i)));
                }
                body.push(BodyOp::Work(uniform_incl(rng, 20, 60)));
                Section {
                    think: uniform_incl(rng, 250, 700),
                    lock: Self::region_mutex(start),
                    body,
                    unit_done: false,
                    barrier_after: None,
                }
            }
            Step::Fetch => {
                // Read the record through the buffer pool; touch a few
                // bufferpool headers; occasionally call into the allocator
                // (escape action in TM mode).
                self.step = Step::ReleaseLocks;
                let page = rng.gen_index(layout::DB_BLOCKS as usize) as u64;
                let reads = clamped_geo(rng, 9.0, 30);
                let writes = clamped_geo(rng, 3.0, 8);
                let mut body = Vec::with_capacity((reads + writes) as usize + 1);
                for i in 0..reads {
                    let b = (page + i * 7) % layout::DB_BLOCKS;
                    body.push(BodyOp::Read(block(layout::DB_BASE, b)));
                }
                for _ in 0..writes {
                    let b = rng.gen_index(layout::BUF_BLOCKS as usize) as u64;
                    body.push(BodyOp::Write(block(layout::BUF_BASE, b)));
                }
                if rng.gen_bool(0.1) {
                    body.push(BodyOp::EscapedWork(uniform_incl(rng, 100, 300)));
                }
                Section {
                    think: uniform_incl(rng, 30, 90),
                    lock: block(layout::PAGE_MUTEX_BASE, page),
                    body,
                    unit_done: false,
                    barrier_after: None,
                }
            }
            Step::ReleaseLocks => {
                // Unlink the locker, update bucket chains.
                self.step = Step::AcquireLocks;
                self.units_remaining -= 1;
                let start = Self::hot_start(rng);
                let writes = clamped_geo(rng, 7.0, 20);
                let reads = clamped_geo(rng, 4.0, 16);
                let mut body = Vec::with_capacity((writes + reads) as usize);
                for i in 0..writes {
                    body.push(BodyOp::Update(Self::hot_block(start, i)));
                }
                for i in 0..reads {
                    body.push(BodyOp::Read(Self::hot_block(start, writes + i)));
                }
                Section {
                    think: uniform_incl(rng, 250, 700),
                    lock: Self::region_mutex(start),
                    body,
                    unit_done: true,
                    barrier_after: None,
                }
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

    #[test]
    fn three_sections_per_unit() {
        let mut rng = Xoshiro256StarStar::new(1);
        let mut w = BerkeleyDb::new(2);
        let mut sections = 0;
        let mut units = 0;
        while let Some(s) = w.next_section(&mut rng) {
            sections += 1;
            if s.unit_done {
                units += 1;
            }
        }
        assert_eq!(sections, 6);
        assert_eq!(units, 2);
    }

    #[test]
    fn footprint_lands_near_table2() {
        // Run on the paper machine shape (shrunk thread count) and check
        // the committed set sizes sit in the Table 2 neighbourhood:
        // read avg 8.1/max 30, write avg 6.8/max 28.
        let mut sys = SystemBuilder::paper_default()
            .signature(SignatureKind::Perfect)
            .seed(11)
            .build();
        for t in 0..8u64 {
            sys.add_thread(Box::new(CsProgram::new(
                BerkeleyDb::new(12),
                SyncMode::Tm,
                t << 32,
            )));
        }
        let r = sys.run().unwrap();
        let read_avg = r.tm.read_set.mean().unwrap();
        let write_avg = r.tm.write_set.mean().unwrap();
        assert!(
            (4.0..=13.0).contains(&read_avg),
            "read avg {read_avg} out of band"
        );
        assert!(
            (3.5..=11.0).contains(&write_avg),
            "write avg {write_avg} out of band"
        );
        assert!(r.tm.read_set.max().unwrap() <= 32);
        assert!(r.tm.write_set.max().unwrap() <= 30);
        assert_eq!(r.tm.work_units, 96);
        assert!(r.tm.escapes > 0, "escape actions exercised");
    }

    #[test]
    fn lock_mode_contends_on_the_region_mutex() {
        let mut sys = SystemBuilder::paper_default().seed(12).build();
        for t in 0..8u64 {
            sys.add_thread(Box::new(CsProgram::new(
                BerkeleyDb::new(8),
                SyncMode::Lock,
                t << 32,
            )));
        }
        let r = sys.run().unwrap();
        assert_eq!(r.tm.work_units, 64);
        assert_eq!(r.tm.commits, 0);
    }
}
