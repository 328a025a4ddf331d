//! Randomized invariants: every intersection kernel computes the same set
//! as a BTreeSet-based oracle, on arbitrary inputs, every count variant
//! returns the length its materializing twin produces, and a BSR set held
//! as a dense bitmap meets another set exactly as a merge does.

use sm_intersect::{
    intersect_buf, intersect_count, merge, BsrBitmap, BsrSet, BsrView, IntersectKind,
};
use sm_runtime::check::Check;
use sm_runtime::rng::Rng64;
use sm_runtime::{ensure, ensure_eq};
use std::collections::BTreeSet;

const ALL_KINDS: [IntersectKind; 4] = [
    IntersectKind::Merge,
    IntersectKind::Galloping,
    IntersectKind::Hybrid,
    IntersectKind::Bsr,
];

fn sorted_unique(rng: &mut Rng64, len: usize, universe: u32) -> Vec<u32> {
    let set: BTreeSet<u32> = (0..len).map(|_| rng.gen_range(0u32..universe)).collect();
    set.into_iter().collect()
}

fn oracle(a: &[u32], b: &[u32]) -> Vec<u32> {
    let sb: BTreeSet<u32> = b.iter().copied().collect();
    a.iter().copied().filter(|x| sb.contains(x)).collect()
}

#[test]
fn kernels_match_oracle() {
    Check::new("kernels_match_oracle").cases(64).run(
        |rng, size| {
            let max_len = 1 + size as usize * 3;
            let a_len = rng.gen_range(0..max_len + 1);
            let b_len = rng.gen_range(0..max_len + 1);
            let a = sorted_unique(rng, a_len, 2000);
            let b = sorted_unique(rng, b_len, 2000);
            (a, b)
        },
        |(a, b)| {
            let expect = oracle(a, b);
            for kind in ALL_KINDS {
                let mut out = Vec::new();
                intersect_buf(kind, a, b, &mut out);
                ensure_eq!(&out, &expect, "kind {kind:?} disagrees with oracle");
                ensure_eq!(
                    intersect_count(kind, a, b),
                    out.len(),
                    "kind {kind:?}: count disagrees with the materialized length"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn kernels_match_on_skewed_sizes() {
    // Tiny `a` against large `b`: the regime where galloping/hybrid take
    // their fast paths.
    Check::new("kernels_match_on_skewed_sizes").cases(48).run(
        |rng, size| {
            let a_len = rng.gen_range(0..8usize);
            let a = sorted_unique(rng, a_len, 100_000);
            let b_len = 500 + (size as usize).min(100);
            let b = sorted_unique(rng, b_len, 100_000);
            (a, b)
        },
        |(a, b)| {
            let expect = oracle(a, b);
            for kind in ALL_KINDS {
                let mut out = Vec::new();
                intersect_buf(kind, a, b, &mut out);
                ensure_eq!(&out, &expect, "kind {kind:?} disagrees with oracle");
                ensure_eq!(intersect_count(kind, a, b), out.len(), "kind {kind:?}");
            }
            Ok(())
        },
    );
}

#[test]
fn bsr_round_trip() {
    Check::new("bsr_round_trip").cases(64).run(
        |rng, size| {
            // full-u32 values stress the block-id/bitmap split
            sorted_unique(rng, size as usize * 4, u32::MAX)
        },
        |xs| {
            let s = BsrSet::from_sorted(xs);
            ensure_eq!(&s.to_vec(), xs);
            ensure_eq!(s.len(), xs.len());
            for &x in xs {
                ensure!(s.contains(x), "BSR lost element {x}");
            }
            Ok(())
        },
    );
}

#[test]
fn bsr_arena_views_match_merge() {
    // Both sets encoded back to back in one arena, as the candidate space
    // stores them, and intersected through borrowed views.
    Check::new("bsr_arena_views_match_merge").cases(64).run(
        |rng, size| {
            let max_len = 1 + size as usize * 3;
            let a_len = rng.gen_range(0..max_len + 1);
            let b_len = rng.gen_range(0..max_len + 1);
            let a = sorted_unique(rng, a_len, 2000);
            let b = sorted_unique(rng, b_len, 2000);
            (a, b)
        },
        |(a, b)| {
            let (mut bases, mut states) = (Vec::new(), Vec::new());
            BsrSet::encode_sorted(a, &mut bases, &mut states);
            let split = bases.len();
            BsrSet::encode_sorted(b, &mut bases, &mut states);
            let va = BsrView::new(&bases[..split], &states[..split], a.len());
            let vb = BsrView::new(&bases[split..], &states[split..], b.len());
            for (view, xs) in [(va, a), (vb, b)] {
                let mut decoded = Vec::new();
                view.decode_into(&mut decoded);
                ensure_eq!(&decoded, xs, "arena view does not decode to its input");
            }
            let mut want = Vec::new();
            merge(a, b, &mut want);
            let mut out = BsrSet::default();
            va.intersect_into(vb, &mut out);
            ensure_eq!(
                out.to_vec(),
                want.clone(),
                "view ∩ view disagrees with merge"
            );
            ensure_eq!(out.len(), want.len());
            ensure_eq!(
                va.intersect_count(vb),
                want.len(),
                "view ∩ view counted without decoding disagrees with merge"
            );
            // Owned scratch result against an arena view (the fold step).
            let mut again = BsrSet::default();
            out.view().intersect_into(vb, &mut again);
            ensure_eq!(again.view().intersect_count(vb), want.len());
            ensure_eq!(again.to_vec(), want, "scratch ∩ view disagrees with merge");
            Ok(())
        },
    );
}

#[test]
fn bsr_bitmap_probe_matches_merge() {
    // A set held as a dense bitmap, probed block by word with another —
    // counted and decoded — then replaced by a third set, which must leave
    // no bit of the first behind.
    Check::new("bsr_bitmap_probe_matches_merge").cases(64).run(
        |rng, size| {
            let max_len = 1 + size as usize * 3;
            let mut set = || {
                let len = rng.gen_range(0..max_len + 1);
                sorted_unique(rng, len, 2000)
            };
            (set(), set(), set())
        },
        |(a, b, c)| {
            let vb = BsrSet::from_sorted(b);
            let mut held = BsrBitmap::default();
            for x in [a, c] {
                held.assign(BsrSet::from_sorted(x).view());
                ensure_eq!(held.len(), x.len());
                let mut want = Vec::new();
                merge(x, b, &mut want);
                ensure_eq!(
                    held.intersect_count(vb.view()),
                    want.len(),
                    "bitmap probe counted disagrees with merge"
                );
                let mut out = Vec::new();
                held.intersect_decode_into(vb.view(), &mut out);
                ensure_eq!(out, want, "bitmap probe decoded disagrees with merge");
            }
            held.clear();
            ensure!(held.is_empty());
            ensure_eq!(
                held.intersect_count(vb.view()),
                0,
                "cleared bitmap kept bits"
            );
            Ok(())
        },
    );
}
