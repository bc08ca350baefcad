//! Property-based tests for the signature invariants the paper's correctness
//! argument rests on: no false negatives, clear releases everything, and
//! save/restore is lossless. Randomized deterministically through
//! `ltse_sim::check`.

use std::collections::BTreeSet;

use ltse_sim::check::{cases, vec_of};
use ltse_sim::rng::Xoshiro256StarStar;

use ltse_sig::{
    ConflictVerdict, CountingSignature, PerfectSignature, ReadWriteSignature, SavedSignature,
    ShadowedRwSignature, SigOp, SigRepr, SignatureKind,
};

fn random_kind(rng: &mut Xoshiro256StarStar) -> SignatureKind {
    match rng.gen_index(4) {
        0 => SignatureKind::Perfect,
        1 => SignatureKind::BitSelect {
            bits: 1 << rng.gen_range(4, 13),
        },
        2 => SignatureKind::DoubleBitSelect {
            bits: 1 << rng.gen_range(4, 13),
        },
        _ => SignatureKind::CoarseBitSelect {
            bits: 1 << rng.gen_range(4, 13),
            blocks_per_macroblock: 16,
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
        assert_eq!(fresh.save_state(), saved, "{kind}");
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
        let per_thread: Vec<Vec<u64>> = vec_of(rng, 1, 5, |r| {
            vec_of(r, 0, 30, |r2| r2.gen_range(0, 1 << 16))
        });
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
            assert!(counting.materialize(&kind).is_clear());
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

/// `PerfectSignature` (a sorted `Vec`) against a `BTreeSet` reference over
/// random interleavings of duplicate inserts, clear-then-reuse, bulk inserts,
/// `restore` from an unsorted list with duplicates, and `rehash_page`. After
/// every step: `len`, ascending `iter`, `save` bytes, equality with a set
/// built fresh from the reference, and exact membership of every element
/// and of fresh probes.
#[test]
fn perfect_signature_matches_btreeset_reference() {
    cases(64, 0x9E8F_EC07, |rng| {
        // A narrow address span makes duplicates, hits and page overlap
        // common.
        let span = 1u64 << rng.gen_range(6, 11);
        let mut sig = PerfectSignature::new();
        let mut reference = BTreeSet::new();
        for _ in 0..rng.gen_range(1, 120) {
            match rng.gen_index(8) {
                0..=3 => {
                    let a = rng.gen_range(0, span);
                    sig.insert(a);
                    reference.insert(a);
                }
                4 => {
                    sig.clear();
                    reference.clear();
                }
                5 => {
                    let addrs = vec_of(rng, 0, 40, |r| r.gen_range(0, span));
                    for &a in &addrs {
                        sig.insert(a);
                    }
                    reference.extend(addrs);
                }
                6 => {
                    let list = vec_of(rng, 0, 40, |r| r.gen_range(0, span));
                    sig.restore(&SavedSignature::Exact(list.clone()));
                    reference = list.into_iter().collect();
                }
                _ => {
                    let pages = span / 64 + 1;
                    let old = rng.gen_range(0, pages) * 64;
                    let new = rng.gen_range(0, pages) * 64;
                    sig.rehash_page(old, new, 64);
                    for i in 0..64 {
                        if reference.contains(&(old + i)) {
                            reference.insert(new + i);
                        }
                    }
                }
            }
            assert_eq!(sig.len(), reference.len());
            assert_eq!(sig.is_empty(), reference.is_empty());
            assert!(sig.iter().eq(reference.iter().copied()), "iter order");
            let sorted: Vec<u64> = reference.iter().copied().collect();
            assert_eq!(sig.save(), SavedSignature::Exact(sorted.clone()));
            let mut fresh = PerfectSignature::new();
            for &a in &sorted {
                fresh.insert(a);
            }
            assert_eq!(sig, fresh);
            for &a in &sorted {
                assert!(sig.maybe_contains(a), "lost {a}");
            }
            for _ in 0..16 {
                let p = rng.gen_range(0, 2 * span + 64);
                assert_eq!(sig.maybe_contains(p), reference.contains(&p), "probe {p}");
            }
        }
    });
}

/// `PerfectSignature`'s 256-bit membership filter never changes an answer.
/// Random sequences of `insert`, `clear`, bulk inserts, `restore` (from an
/// unsorted list with duplicates) and `rehash_page` run against a
/// `BTreeSet` model; after every step every address of a probe range
/// answers exactly, and a set rebuilt from the model in shuffled order (or
/// restored from a reversed list with every element twice) compares equal
/// and saves the same bytes. One case in four bursts past 1,000 members,
/// which sets (nearly) every filter bit, so misses must still fall through
/// to the binary search and come back `false`.
#[test]
fn perfect_signature_filter_never_changes_an_answer() {
    cases(48, 0xF1_17E2, |rng| {
        let span = 1u64 << rng.gen_range(8, 13);
        let burst = rng.gen_index(4) == 0;
        let mut sig = PerfectSignature::new();
        let mut model = BTreeSet::new();
        for step in 0..rng.gen_range(4, 40) {
            match rng.gen_index(9) {
                _ if burst && step == 1 => {
                    // Every third address over a span past 3,000: well
                    // over 1,000 members, interleaved with non-members.
                    let span = span.max(4096);
                    let mut xs: Vec<u64> = (0..span).filter(|a| a % 3 == 0).collect();
                    rng.shuffle(&mut xs);
                    for &a in &xs {
                        sig.insert(a);
                    }
                    model.extend(xs);
                    assert!(sig.len() > 1000);
                }
                0..=3 => {
                    let a = rng.gen_range(0, span);
                    sig.insert(a);
                    model.insert(a);
                }
                4 => {
                    sig.clear();
                    model.clear();
                }
                5 | 6 => {
                    let addrs = vec_of(rng, 0, 60, |r| r.gen_range(0, span));
                    for &a in &addrs {
                        sig.insert(a);
                    }
                    model.extend(addrs);
                }
                7 => {
                    let mut list = vec_of(rng, 0, 60, |r| r.gen_range(0, span));
                    let dups = vec_of(rng, 0, 10, |r| r.gen_range(0, span));
                    list.extend(dups.iter().chain(&dups));
                    rng.shuffle(&mut list);
                    sig.restore(&SavedSignature::Exact(list.clone()));
                    model = list.into_iter().collect();
                }
                _ => {
                    let pages = span / 64;
                    let old = rng.gen_range(0, pages) * 64;
                    let new = rng.gen_range(0, pages) * 64;
                    sig.rehash_page(old, new, 64);
                    for i in 0..64 {
                        if model.contains(&(old + i)) {
                            model.insert(new + i);
                        }
                    }
                }
            }
            let hi = model.last().map_or(span, |&m| m.max(span)) + 64;
            for a in 0..hi {
                assert_eq!(sig.maybe_contains(a), model.contains(&a), "probe {a}");
            }
            for _ in 0..32 {
                let far = rng.next_u64();
                assert_eq!(
                    sig.maybe_contains(far),
                    model.contains(&far),
                    "probe {far:#x}"
                );
            }
            assert_eq!(sig.len(), model.len());

            let mut shuffled: Vec<u64> = model.iter().copied().collect();
            rng.shuffle(&mut shuffled);
            let mut rebuilt = PerfectSignature::new();
            for &a in &shuffled {
                rebuilt.insert(a);
            }
            assert_eq!(rebuilt, sig, "same set, different insertion order");
            assert_eq!(rebuilt.save(), sig.save());
            let twice: Vec<u64> = model.iter().rev().chain(model.iter()).copied().collect();
            let mut restored = PerfectSignature::new();
            restored.insert(u64::MAX); // stale contents restore must drop
            restored.restore(&SavedSignature::Exact(twice));
            assert_eq!(
                restored, sig,
                "restored from a reversed list with duplicates"
            );
        }
    });
}

/// `ReadWriteSignature`'s one-dispatch answers against the answers composed
/// from each set's own `SigRepr::test_block`: an incoming read tests the
/// write set, an incoming write and `in_either_set` test either set.
#[test]
fn rw_answers_compose_per_set_test_block() {
    cases(64, 0xE17E_5E75, |rng| {
        let kind = random_kind(rng);
        let span = 1u64 << rng.gen_range(8, 20);
        let (mut read, mut write) = (SigRepr::new(&kind), SigRepr::new(&kind));
        for a in vec_of(rng, 0, 100, |r| r.gen_range(0, span)) {
            read.insert_block(a);
        }
        for a in vec_of(rng, 0, 100, |r| r.gen_range(0, span)) {
            write.insert_block(a);
        }
        let rw = ReadWriteSignature::from_parts(read.clone(), write.clone());
        for a in vec_of(rng, 200, 400, |r| r.gen_range(0, span)) {
            let either = read.test_block(a) || write.test_block(a);
            assert_eq!(
                rw.conflicts_with(SigOp::Read, a),
                write.test_block(a),
                "{kind}"
            );
            assert_eq!(rw.conflicts_with(SigOp::Write, a), either, "{kind}");
            assert_eq!(rw.in_either_set(a), either, "{kind}");
        }
    });
}

/// A perfect `ShadowedRwSignature` keeps no shadow of its own; a reference
/// kept beside it as two `PerfectSignature`s must agree with it on every
/// verdict, the exact sizes and blocks, a save/restore round trip and a
/// page rehash.
#[test]
fn perfect_shadowed_signature_matches_a_two_set_reference() {
    cases(64, 0x5EAD_0F5E, |rng| {
        let mut rw = ShadowedRwSignature::new(&SignatureKind::Perfect);
        let (mut read, mut write) = (PerfectSignature::new(), PerfectSignature::new());
        let span = 1u64 << rng.gen_range(6, 10);
        for _ in 0..rng.gen_range(0, 80) {
            let a = rng.gen_range(0, span);
            if rng.gen_bool(0.5) {
                rw.insert(SigOp::Write, a);
                write.insert(a);
            } else {
                rw.insert(SigOp::Read, a);
                read.insert(a);
            }
        }
        let agree =
            |rw: &ShadowedRwSignature, read: &PerfectSignature, write: &PerfectSignature| {
                assert_eq!(rw.exact_read_set_size(), read.len());
                assert_eq!(rw.exact_write_set_size(), write.len());
                assert_eq!(rw.exact_read_blocks(), read.iter().collect::<Vec<_>>());
                assert_eq!(rw.exact_write_blocks(), write.iter().collect::<Vec<_>>());
                assert_eq!(rw.is_empty(), read.is_empty() && write.is_empty());
                for a in 0..span * 2 {
                    let on_write = write.maybe_contains(a);
                    let on_either = read.maybe_contains(a) || on_write;
                    for (op, hit) in [(SigOp::Read, on_write), (SigOp::Write, on_either)] {
                        let want = if hit {
                            ConflictVerdict::True
                        } else {
                            ConflictVerdict::None
                        };
                        assert_eq!(rw.classify(op, a), want, "{op} {a}");
                        assert_eq!(rw.conflicts_exactly(op, a), hit, "{op} {a}");
                    }
                    assert_eq!(rw.in_either_set(a), on_either, "{a}");
                }
            };
        agree(&rw, &read, &write);

        let saved = rw.save();
        let mut fresh = ShadowedRwSignature::new(&SignatureKind::Perfect);
        fresh.restore(&saved);
        assert_eq!(fresh.save(), saved);
        agree(&fresh, &read, &write);

        let pages = span / 64 + 1;
        let (old, new) = (
            rng.gen_range(0, pages) * 64,
            rng.gen_range(0, pages + 2) * 64,
        );
        rw.rehash_page(old, new, 64);
        read.rehash_page(old, new, 64);
        write.rehash_page(old, new, 64);
        agree(&rw, &read, &write);

        rw.clear();
        assert!(rw.is_empty());
        agree(&rw, &PerfectSignature::new(), &PerfectSignature::new());
    });
}
