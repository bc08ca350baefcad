//! A steady-state STM transaction allocates nothing: every allocation made
//! inside `StmSystem::run` is per-run set-up (threads, result vectors) or a
//! worker's buffers growing to their working size, so the count does not
//! grow with the number of transactions.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use logtm_se::{ScriptOp, TxScript, WordAddr};
use ltse_stm::StmBuilder;

/// Counts every allocation and reallocation, then defers to the system
/// allocator.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made inside `run` by two threads, each committing `txs`
/// transactions that read and write words no other thread touches.
fn allocs_in_run(txs: usize) -> u64 {
    let mut sys = StmBuilder::new().seed(5).build();
    for t in 0..2u64 {
        let (a, b) = (WordAddr(t * 64), WordAddr(t * 64 + 8));
        let tx = vec![
            ScriptOp::AddTo(a, 1),
            ScriptOp::Read(b),
            ScriptOp::Write(b, t),
        ];
        sys.add_thread(Box::new(TxScript::new(vec![tx; txs])));
    }
    let before = ALLOCS.load(Relaxed);
    let report = sys.run().expect("run completes");
    let allocs = ALLOCS.load(Relaxed) - before;
    assert_eq!(report.commits, 2 * txs as u64);
    assert_eq!(report.aborts, 0, "disjoint words cannot conflict");
    allocs
}

#[test]
fn transactions_allocate_nothing_in_steady_state() {
    let small = allocs_in_run(1_000);
    let large = allocs_in_run(10_000);
    assert_eq!(
        small, large,
        "allocations inside run grew with the transaction count"
    );
}
