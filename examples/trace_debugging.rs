//! Debugging a deadlock-prone workload with the event tracer: two threads
//! acquire two hot blocks in opposite orders, LogTM's `possible_cycle` rule
//! breaks the cycle, and the trace shows exactly who NACKed whom, who
//! aborted, and what the undo log restored.
//!
//! Run with: `cargo run --example trace_debugging`

use logtm_se::{Op, ProgCtx, SignatureKind, SystemBuilder, ThreadProgram, WordAddr};

/// Updates two blocks with a deliberate hold between them — the classic
/// opposite-order deadlock shape.
struct Deadlocker {
    first: WordAddr,
    second: WordAddr,
    remaining: u32,
    step: u8,
}

impl ThreadProgram for Deadlocker {
    fn next_op(&mut self, _t: &mut ProgCtx) -> Op {
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
                Op::FetchAdd(self.first, 1)
            }
            2 => {
                self.step = 3;
                Op::Work(100) // hold `first` while wanting `second`
            }
            3 => {
                self.step = 4;
                Op::FetchAdd(self.second, 1)
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
    let a = WordAddr(0);
    let b = WordAddr(64);
    let mut system = SystemBuilder::paper_default()
        .signature(SignatureKind::Perfect)
        .trace(64) // keep the last 64 protocol events
        .seed(2)
        .build();
    system.add_thread(Box::new(Deadlocker {
        first: a,
        second: b,
        remaining: 12,
        step: 0,
    }));
    system.add_thread(Box::new(Deadlocker {
        first: b,
        second: a,
        remaining: 12,
        step: 0,
    }));

    let report = system.run().expect("run completes");

    println!("Opposite-order updates: LogTM resolves the deadlock cycles");
    println!(
        "  block A = {}  block B = {}",
        system.read_word(a),
        system.read_word(b)
    );
    println!(
        "  commits={} aborts={} stalls={}",
        report.tm.commits, report.tm.aborts, report.tm.stalls
    );
    assert_eq!(system.read_word(a), 24);
    assert_eq!(system.read_word(b), 24);
    assert!(
        report.tm.aborts > 0,
        "cycles must have been broken by aborts"
    );

    println!("\nLast {} traced events:", 64);
    print!("{}", system.trace_dump());
    println!("(read bottom-up: a NACK chain ending in `-> Abort`, the ABORT");
    println!(" with its undo-restore count, then the retried BEGIN/COMMIT.)");
}
