//! Property-based tests for the signature invariants the paper's correctness
//! argument rests on: no false negatives, clear releases everything, union is
//! an over-approximation of set union, and save/restore is lossless.
//! Randomized deterministically through `ltse_sim::check`.

use ltse_sim::check::{cases, vec_of};
use ltse_sim::rng::Xoshiro256StarStar;

use ltse_sig::{
    ConflictVerdict, CountingSignature, ReadWriteSignature, ShadowedRwSignature, SigOp, SigRepr,
    SignatureKind,
};

fn random_kind(rng: &mut Xoshiro256StarStar) -> SignatureKind {
    match rng.gen_index(6) {
        0 => SignatureKind::Perfect,
        1 => SignatureKind::BitSelect {
            bits: 1 << rng.gen_range(4, 13),
        },
        2 => SignatureKind::DoubleBitSelect {
            bits: 1 << rng.gen_range(4, 13),
        },
        3 => SignatureKind::CoarseBitSelect {
            bits: 1 << rng.gen_range(4, 13),
            blocks_per_macroblock: 16,
        },
        4 => SignatureKind::PermutedDbs {
            bits: 1 << rng.gen_range(4, 13),
        },
        _ => SignatureKind::Bloom {
            bits: 1 << rng.gen_range(6, 13),
            k: rng.gen_range(1, 7) as u32,
        },
    }
}

#[test]
fn no_false_negatives() {
    cases(64, 0xF0151, |rng| {
        let kind = random_kind(rng);
        let addrs = vec_of(rng, 1, 200, |r| r.gen_range(0, 1 << 32));
        let mut sig = SigRepr::new(&kind);
        for &a in &addrs {
            sig.insert_block(a);
        }
        for &a in &addrs {
            assert!(sig.test_block(a), "{kind} lost {a:#x}");
        }
    });
}

#[test]
fn clear_releases_everything_inserted() {
    cases(64, 0xC1EA2, |rng| {
        let kind = random_kind(rng);
        let addrs = vec_of(rng, 1, 100, |r| r.gen_range(0, 1 << 32));
        let mut sig = SigRepr::new(&kind);
        for &a in &addrs {
            sig.insert_block(a);
        }
        sig.clear_all();
        assert!(sig.is_clear());
        // Perfect signatures must drop every address; hashed ones must too
        // because all bits are zero.
        for &a in &addrs {
            assert!(!sig.test_block(a));
        }
    });
}

#[test]
fn union_superset_of_both() {
    cases(64, 0x04107, |rng| {
        let kind = random_kind(rng);
        let a_addrs = vec_of(rng, 0, 60, |r| r.gen_range(0, 1 << 24));
        let b_addrs = vec_of(rng, 0, 60, |r| r.gen_range(0, 1 << 24));
        let mut a = SigRepr::new(&kind);
        let mut b = SigRepr::new(&kind);
        for &x in &a_addrs {
            a.insert_block(x);
        }
        for &x in &b_addrs {
            b.insert_block(x);
        }
        a.union_repr(&b);
        for &x in a_addrs.iter().chain(&b_addrs) {
            assert!(a.test_block(x));
        }
    });
}

#[test]
fn save_restore_is_lossless() {
    cases(64, 0x5A7E, |rng| {
        let kind = random_kind(rng);
        let addrs = vec_of(rng, 0, 100, |r| r.gen_range(0, 1 << 32));
        let mut sig = SigRepr::new(&kind);
        for &a in &addrs {
            sig.insert_block(a);
        }
        let saved = sig.save_state();
        let mut fresh = SigRepr::new(&kind);
        fresh.restore_saved(&saved);
        for &a in &addrs {
            assert!(fresh.test_block(a));
        }
        assert_eq!(fresh.fill(), sig.fill());
    });
}

#[test]
fn shadow_never_sees_false_negative() {
    cases(64, 0x5AD0, |rng| {
        let kind = random_kind(rng);
        let writes = vec_of(rng, 0, 50, |r| r.gen_range(0, 1 << 20));
        let probes = vec_of(rng, 0, 50, |r| r.gen_range(0, 1 << 20));
        let mut rw = ShadowedRwSignature::new(&kind);
        for &w in &writes {
            rw.insert(SigOp::Write, w);
        }
        // classify() asserts internally that (sig=false, exact=true) never
        // happens; exercise it over arbitrary probes.
        for &p in &probes {
            let v = rw.classify(SigOp::Write, p);
            if writes.contains(&p) {
                assert_eq!(v, ConflictVerdict::True);
            }
        }
    });
}

#[test]
fn rw_conflict_semantics() {
    cases(64, 0x2BC0, |rng| {
        let kind = random_kind(rng);
        let addr = rng.gen_range(0, 1 << 20);
        // Write-write and read-write always conflict on the same address;
        // read-read never conflicts (checked exactly only for Perfect).
        let mut w = ReadWriteSignature::new(&kind);
        w.insert(SigOp::Write, addr);
        assert!(w.conflicts_with(SigOp::Read, addr));
        assert!(w.conflicts_with(SigOp::Write, addr));

        let mut r = ReadWriteSignature::new(&kind);
        r.insert(SigOp::Read, addr);
        assert!(r.conflicts_with(SigOp::Write, addr));
        if kind == SignatureKind::Perfect {
            assert!(!r.conflicts_with(SigOp::Read, addr));
        }
    });
}

#[test]
fn counting_signature_matches_naive_union() {
    cases(64, 0xC0047, |rng| {
        let per_thread: Vec<Vec<u64>> =
            vec_of(rng, 1, 5, |r| vec_of(r, 0, 30, |r2| r2.gen_range(0, 1 << 16)));
        let kind = SignatureKind::BitSelect { bits: 512 };
        let mut counting = CountingSignature::new(512);
        let saves: Vec<_> = per_thread
            .iter()
            .map(|addrs| {
                let mut s = SigRepr::new(&kind);
                for &a in addrs {
                    s.insert_block(a);
                }
                s.save_state()
            })
            .collect();
        for s in &saves {
            counting.add(s);
        }
        // Remove the first thread; the remainder must still cover threads 1..
        if saves.len() > 1 {
            counting.remove(&saves[0]);
            let m = counting.materialize(&kind);
            for addrs in per_thread.iter().skip(1) {
                for &a in addrs {
                    assert!(m.test_block(a));
                }
            }
        }
        // Removing everything empties the structure.
        for s in saves.iter().skip(1) {
            counting.remove(s);
        }
        if saves.len() > 1 {
            assert!(!counting.any_set());
        }
    });
}

#[test]
fn rehash_page_covers_new_locations() {
    cases(64, 0x2E4A54, |rng| {
        let kind = random_kind(rng);
        let offsets = vec_of(rng, 1, 20, |r| r.gen_range(0, 64));
        let old_base = 1024u64;
        let new_base = 8192u64;
        let mut sig = SigRepr::new(&kind);
        for &o in &offsets {
            sig.insert_block(old_base + o);
        }
        sig.rehash_page(old_base, new_base, 64);
        for &o in &offsets {
            assert!(sig.test_block(old_base + o), "old retained");
            assert!(sig.test_block(new_base + o), "new covered");
        }
    });
}
