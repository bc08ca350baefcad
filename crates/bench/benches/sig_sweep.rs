//! Timing bench: raw signature operation throughput (insert + lookup)
//! across implementations and sizes — the hardware-cost side of the
//! signature design space (paper §5, "Signature Design").

use ltse_bench::harness::{self, Bench};
use ltse_sig::{SigRepr, SignatureKind};

fn main() {
    let mut bench = Bench::new("sig_sweep");
    bench.group("sig_ops", harness::iters(200));
    let kinds = [
        SignatureKind::Perfect,
        SignatureKind::BitSelect { bits: 64 },
        SignatureKind::BitSelect { bits: 2048 },
        SignatureKind::DoubleBitSelect { bits: 2048 },
        SignatureKind::CoarseBitSelect {
            bits: 2048,
            blocks_per_macroblock: 16,
        },
        SignatureKind::Bloom { bits: 2048, k: 4 },
    ];
    for kind in kinds {
        bench.case(&format!("insert_lookup/{}", kind.label()), || {
            let mut sig = SigRepr::new(&kind);
            for a in 0..256u64 {
                sig.insert_block(a * 97);
            }
            let mut hits = 0u32;
            for a in 0..256u64 {
                if sig.test_block(a * 89) {
                    hits += 1;
                }
            }
            hits
        });
        bench.case(&format!("save_restore/{}", kind.label()), || {
            let mut sig = SigRepr::new(&kind);
            for a in 0..64u64 {
                sig.insert_block(a * 131);
            }
            let saved = sig.save_state();
            let mut fresh = SigRepr::new(&kind);
            fresh.restore_saved(&saved);
            fresh.fill()
        });
    }
}
