//! Timing bench: simulator micro-costs — memory-system access paths and
//! the TM fast paths (begin/commit, logging), the operations LogTM-SE
//! claims are cheap.

use logtm_se::{SignatureKind, SystemBuilder, WordAddr};
use ltse_bench::harness::{self, Bench};
use ltse_mem::{AccessKind, BlockAddr, MemConfig, MemorySystem, NullOracle};
use ltse_workloads::{CsProgram, SharedCounter, SyncMode};

fn main() {
    let mut bench = Bench::new("microbench");
    bench.group("mem_paths", harness::iters(50));
    bench.case("l1_hit_loop", || {
        let mut m = MemorySystem::new(MemConfig::paper_cmp());
        let ctx = m.config().ctx(0, 0);
        m.access(ctx, AccessKind::Load, BlockAddr(1), &NullOracle);
        for _ in 0..4096 {
            m.access(ctx, AccessKind::Load, BlockAddr(1), &NullOracle);
        }
        m.stats().dram_accesses.get()
    });
    bench.case("cold_miss_stream", || {
        let mut m = MemorySystem::new(MemConfig::paper_cmp());
        let ctx = m.config().ctx(0, 0);
        for i in 0..256u64 {
            m.access(ctx, AccessKind::Load, BlockAddr(i * 3), &NullOracle);
        }
        m.stats().dram_accesses.get()
    });

    bench.group("tm_fast_paths", harness::iters(20));
    bench.case("counter_tx_throughput", || {
        let mut sys = SystemBuilder::paper_default()
            .signature(SignatureKind::paper_bs_2kb())
            .seed(5)
            .build();
        for t in 0..4u64 {
            sys.add_thread(Box::new(CsProgram::new(
                SharedCounter::new(WordAddr(t * 512), WordAddr(1 << 16), 50, 30),
                SyncMode::Tm,
                t,
            )));
        }
        sys.run().expect("run")
    });
}
