//! A checked, explored simulator run allocates nothing in steady state:
//! every allocation made inside `System::run_explored` is per-run set-up or
//! a buffer growing to its working size (exact read/write sets, undo
//! bodies, oracle frames and reference map, cache and memory maps), so the
//! count does not grow with the number of transactions.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use logtm_se::{
    ContentionPolicy, Cycle, EventChooser, ScriptOp, SignatureKind, SystemBuilder, TxScript,
    WordAddr,
};

/// Counts every allocation and reallocation, then defers to the system
/// allocator.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `SystemAlloc`,
// which upholds the `GlobalAlloc` contract; the counter touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        SystemAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        SystemAlloc.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        SystemAlloc.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Picks pseudo-randomly without recording its picks (`ScheduleChooser`
/// keeps one entry per decision, which legitimately grows with the run).
struct Lcg(u64);

impl EventChooser for Lcg {
    fn choose(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) as usize % n
    }
}

const THREADS: u64 = 4;

/// Allocations made inside `run_explored` by four threads, each committing
/// `txs` transactions that write six private blocks and then either read a
/// private word or (`shared`) fetch-add one word all threads share.
/// Returns the count and the run's aborts.
fn allocs_in_run(kind: SignatureKind, shared: bool, txs: usize) -> (u64, u64) {
    let mut sys = SystemBuilder::small_for_tests()
        .signature(kind)
        .contention(ContentionPolicy::RequesterAborts)
        .check_serializability(true)
        .seed(3)
        .build();
    let counter = WordAddr(0);
    for t in 0..THREADS {
        let block = |i: u64| WordAddr(((t + 1) * 64 + i) * 8);
        let mut tx: Vec<ScriptOp> = (0..6).map(|i| ScriptOp::Write(block(i), t + 1)).collect();
        tx.push(if shared {
            ScriptOp::FetchAdd(counter, 1)
        } else {
            ScriptOp::Read(block(6))
        });
        sys.add_thread(Box::new(TxScript::new(vec![tx; txs])));
    }
    let mut chooser = Lcg(7);
    let before = ALLOCS.load(Relaxed);
    let report = sys
        .run_explored(&mut chooser, 4, Cycle(8))
        .expect("run completes");
    let allocs = ALLOCS.load(Relaxed) - before;
    assert_eq!(report.tm.commits, THREADS * txs as u64);
    let errors = sys.finish_checks();
    assert!(errors.is_empty(), "{kind:?} shared={shared}: {errors:?}");
    if shared {
        assert_eq!(sys.read_word(counter), THREADS * txs as u64);
    }
    (allocs, report.tm.aborts)
}

#[test]
fn explored_checked_runs_allocate_nothing_in_steady_state() {
    for kind in [SignatureKind::Perfect, SignatureKind::paper_bs_2kb()] {
        for shared in [false, true] {
            let (small, _) = allocs_in_run(kind, shared, 200);
            let (large, aborts) = allocs_in_run(kind, shared, 2_000);
            if shared {
                assert!(aborts > 0, "{kind:?}: the shared counter never aborted");
            }
            assert_eq!(
                small, large,
                "{kind:?} shared={shared}: allocations inside run_explored grew \
                 with the transaction count"
            );
        }
    }
}
