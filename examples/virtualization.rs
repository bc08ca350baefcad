//! Virtualization showcase (paper §§3–4): more threads than hardware
//! contexts, preemption in the middle of transactions (summary signatures
//! keep descheduled transactions isolated), and a page relocation while
//! transactions reference the page.
//!
//! Run with: `cargo run --example virtualization`

use logtm_se::{Asid, Cycle, Op, ProgCtx, SignatureKind, SystemBuilder, ThreadProgram, WordAddr};

/// Each thread increments its own counter word; all 48 live in virtual
/// page 0, so the page relocations move every thread's data mid-run.
fn counter_of(thread: u32) -> WordAddr {
    WordAddr(thread as u64 * 8) // one 64-byte block each — no false sharing
}

struct Incr {
    remaining: u32,
    step: u8,
    me: u32,
}

impl ThreadProgram for Incr {
    fn next_op(&mut self, t: &mut ProgCtx) -> Op {
        match self.step {
            0 => {
                if self.remaining == 0 {
                    return Op::Done;
                }
                self.step = 1;
                Op::TxBegin
            }
            1 => {
                self.step = 2;
                Op::Read(counter_of(self.me))
            }
            2 => {
                self.step = 3;
                // Hold the transaction open long enough that the preemption
                // timer regularly lands inside one.
                Op::Work(150)
            }
            3 => {
                self.step = 4;
                Op::Write(counter_of(self.me), t.last_value + 1)
            }
            4 => {
                self.step = 5;
                Op::TxCommit
            }
            _ => {
                self.step = 0;
                self.remaining -= 1;
                Op::WorkUnitDone
            }
        }
    }

    fn on_tx_abort(&mut self, _t: &mut ProgCtx) {
        self.step = 0;
    }
}

fn main() {
    // 48 software threads over 32 hardware contexts, preempted every 2000
    // cycles with NO in-transaction deferral — context switches land inside
    // transactions and the OS must maintain summary signatures.
    let mut system = SystemBuilder::paper_default()
        .signature(SignatureKind::paper_bs_2kb())
        .seed(3)
        .preemption(Cycle(2_000), false)
        .build();

    let threads = 48u32;
    let iters = 400u32;
    for t in 0..threads {
        system.add_thread(Box::new(Incr {
            remaining: iters,
            step: 0,
            me: t,
        }));
    }

    // Relocate the physical page backing the counter twice, mid-run
    // (paper §4.2): signatures are rewritten with the new physical
    // addresses; undo records hold virtual addresses so aborts restore the
    // new frame.
    system.schedule_page_relocation(Cycle(20_000), Asid(0), 0);
    system.schedule_page_relocation(Cycle(60_000), Asid(0), 0);

    let report = system.run().expect("simulation completes");
    let total: u64 = (0..threads).map(|t| system.read_word(counter_of(t))).sum();

    println!("Virtualization: 48 threads / 32 contexts, preemption + paging");
    println!("  sum of counters          : {total}");
    println!("  context switches         : {}", report.os.deschedules);
    println!("  …of which mid-transaction: {}", report.os.tx_deschedules);
    println!(
        "  summary sigs installed   : {}",
        report.os.summary_installs
    );
    println!(
        "  summary-recompute commits: {}",
        report.os.commit_recomputes
    );
    println!("  pages relocated          : {}", report.os.pages_relocated);
    println!("  commits                  : {}", report.tm.commits);
    println!("  aborts                   : {}", report.tm.aborts);

    let expect = threads as u64 * iters as u64;
    assert_eq!(
        total, expect,
        "atomicity across context switches, migration, and paging"
    );
    println!("  atomicity                : OK ({expect})");
    assert!(report.os.tx_deschedules > 0, "switches hit transactions");
    assert_eq!(report.os.pages_relocated, 2);
}
