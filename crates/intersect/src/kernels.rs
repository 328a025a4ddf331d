//! Flat sorted-array intersection kernels.

/// Cardinality ratio above which [`hybrid`] switches from merge to
/// galloping. EmptyHeaded and the paper's implementation use a constant in
/// this range; 32 balances the probe overhead against skipped comparisons.
pub const HYBRID_RATIO: usize = 32;

/// Which intersection kernel to use; selectable per-engine so Figure 10
/// can compare them under identical workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum IntersectKind {
    /// Two-pointer merge.
    Merge,
    /// Galloping/binary probing of the larger side.
    Galloping,
    /// Merge for similar cardinalities, galloping for skewed ones.
    #[default]
    Hybrid,
    /// QFilter-style block-bitmap intersection (see [`crate::bsr`]).
    Bsr,
}

impl IntersectKind {
    /// Stable display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            IntersectKind::Merge => "Merge",
            IntersectKind::Galloping => "Galloping",
            IntersectKind::Hybrid => "Hybrid",
            IntersectKind::Bsr => "QFilter",
        }
    }
}

/// Where a kernel puts the members of `a ∩ b`: appended to a buffer, or
/// only counted. Each kernel is written once over this, so a count runs
/// exactly the comparisons of the materializing call.
trait Out {
    fn put(&mut self, x: u32);
}

impl Out for Vec<u32> {
    #[inline(always)]
    fn put(&mut self, x: u32) {
        self.push(x);
    }
}

impl Out for usize {
    #[inline(always)]
    fn put(&mut self, _: u32) {
        *self += 1;
    }
}

/// Two-pointer merge intersection. Appends `a ∩ b` to `out`.
///
/// ```
/// let mut out = Vec::new();
/// sm_intersect::merge(&[1, 3, 5, 7], &[2, 3, 4, 7], &mut out);
/// assert_eq!(out, vec![3, 7]);
/// ```
pub fn merge(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    merge_to(a, b, out);
}

#[inline(always)]
fn merge_to(a: &[u32], b: &[u32], out: &mut impl Out) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x < y {
            i += 1;
        } else if y < x {
            j += 1;
        } else {
            out.put(x);
            i += 1;
            j += 1;
        }
    }
}

/// Exponential search: smallest index `k >= lo` with `hay[k] >= needle`,
/// or `hay.len()` if none.
#[inline]
fn gallop_to(hay: &[u32], lo: usize, needle: u32) -> usize {
    if lo >= hay.len() || hay[lo] >= needle {
        return lo;
    }
    // Invariant: hay[lo + prev] < needle. Double the step until the probe
    // overshoots, then binary-search the bracketed window.
    let mut prev = 0usize;
    let mut step = 1usize;
    while lo + step < hay.len() && hay[lo + step] < needle {
        prev = step;
        step <<= 1;
    }
    let left = lo + prev + 1;
    let right = (lo + step + 1).min(hay.len());
    match hay[left..right].binary_search(&needle) {
        Ok(k) | Err(k) => left + k,
    }
}

/// Galloping intersection: probes each element of the smaller list into the
/// larger one with exponential + binary search. Appends to `out`.
///
/// ```
/// let big: Vec<u32> = (0..1000).collect();
/// let mut out = Vec::new();
/// sm_intersect::galloping(&[5, 500, 2000], &big, &mut out);
/// assert_eq!(out, vec![5, 500]);
/// ```
pub fn galloping(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    galloping_to(a, b, out);
}

#[inline(always)]
fn galloping_to(a: &[u32], b: &[u32], out: &mut impl Out) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut pos = 0usize;
    for &x in small {
        pos = gallop_to(large, pos, x);
        if pos >= large.len() {
            break;
        }
        if large[pos] == x {
            out.put(x);
            pos += 1;
        }
    }
}

/// Hybrid policy: merge when the cardinalities are within
/// [`HYBRID_RATIO`]×, galloping otherwise. This is the paper's default.
pub fn hybrid(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    hybrid_to(a, b, out);
}

#[inline(always)]
fn hybrid_to(a: &[u32], b: &[u32], out: &mut impl Out) {
    let (small, large) = if a.len() <= b.len() {
        (a.len(), b.len())
    } else {
        (b.len(), a.len())
    };
    if small == 0 {
        return;
    }
    if large / small >= HYBRID_RATIO {
        galloping_to(a, b, out);
    } else {
        merge_to(a, b, out);
    }
}

/// Dispatch on [`IntersectKind`], appending `a ∩ b` to `out`.
///
/// For [`IntersectKind::Bsr`] this converts on the fly, which is only
/// sensible for measurement; engines that commit to BSR precompute
/// [`crate::BsrSet`]s instead.
pub fn intersect_buf(kind: IntersectKind, a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    match kind {
        IntersectKind::Merge => merge_to(a, b, out),
        IntersectKind::Galloping => galloping_to(a, b, out),
        IntersectKind::Hybrid => hybrid_to(a, b, out),
        IntersectKind::Bsr => {
            let ba = crate::BsrSet::from_sorted(a);
            let bb = crate::BsrSet::from_sorted(b);
            ba.intersect_into_vec(&bb, out);
        }
    }
}

/// `|a ∩ b|` by `kind`'s own kernel, without materializing the result —
/// the count variant of [`intersect_buf`] (same conversion caveat for
/// [`IntersectKind::Bsr`], which counts through
/// [`crate::BsrView::intersect_count`]).
///
/// ```
/// use sm_intersect::{intersect_count, IntersectKind};
/// assert_eq!(intersect_count(IntersectKind::Galloping, &[1, 3, 5], &[3, 5, 8]), 2);
/// ```
pub fn intersect_count(kind: IntersectKind, a: &[u32], b: &[u32]) -> usize {
    let mut n = 0usize;
    match kind {
        IntersectKind::Merge => merge_to(a, b, &mut n),
        IntersectKind::Galloping => galloping_to(a, b, &mut n),
        IntersectKind::Hybrid => hybrid_to(a, b, &mut n),
        IntersectKind::Bsr => {
            let ba = crate::BsrSet::from_sorted(a);
            let bb = crate::BsrSet::from_sorted(b);
            n = ba.view().intersect_count(bb.view());
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_all(a: &[u32], b: &[u32]) -> Vec<Vec<u32>> {
        [
            IntersectKind::Merge,
            IntersectKind::Galloping,
            IntersectKind::Hybrid,
            IntersectKind::Bsr,
        ]
        .iter()
        .map(|&k| {
            let mut out = Vec::new();
            intersect_buf(k, a, b, &mut out);
            out
        })
        .collect()
    }

    #[test]
    fn kernels_agree_on_basic_cases() {
        let cases: &[(&[u32], &[u32], &[u32])] = &[
            (&[], &[], &[]),
            (&[1], &[], &[]),
            (&[], &[2], &[]),
            (&[1, 2, 3], &[2, 3, 4], &[2, 3]),
            (&[1, 5, 9], &[2, 6, 10], &[]),
            (&[1, 2, 3], &[1, 2, 3], &[1, 2, 3]),
            (&[0, 31, 32, 63, 64], &[31, 64], &[31, 64]),
            (&[u32::MAX - 1, u32::MAX], &[u32::MAX], &[u32::MAX]),
        ];
        for &(a, b, want) in cases {
            for got in run_all(a, b) {
                assert_eq!(got, want, "a={a:?} b={b:?}");
            }
        }
    }

    #[test]
    fn galloping_with_skewed_sizes() {
        let large: Vec<u32> = (0..10_000).map(|i| i * 3).collect();
        let small = vec![3, 2998 * 3, 9999 * 3, 30001];
        let mut out = Vec::new();
        galloping(&small, &large, &mut out);
        assert_eq!(out, vec![3, 2998 * 3, 9999 * 3]);
        // symmetric argument order
        let mut out2 = Vec::new();
        galloping(&large, &small, &mut out2);
        assert_eq!(out2, out);
    }

    #[test]
    fn hybrid_picks_both_paths() {
        // similar sizes → merge path
        let a: Vec<u32> = (0..100).collect();
        let b: Vec<u32> = (50..150).collect();
        let mut out = Vec::new();
        hybrid(&a, &b, &mut out);
        assert_eq!(out, (50..100).collect::<Vec<u32>>());
        // skewed sizes → galloping path
        let big: Vec<u32> = (0..100_000).collect();
        let tiny = vec![5, 99_999];
        out.clear();
        hybrid(&tiny, &big, &mut out);
        assert_eq!(out, tiny);
    }

    #[test]
    fn count_matches_materialized() {
        let a: Vec<u32> = (0..500).map(|i| i * 2).collect();
        let b: Vec<u32> = (0..500).map(|i| i * 3).collect();
        let mut out = Vec::new();
        merge(&a, &b, &mut out);
        for kind in [
            IntersectKind::Merge,
            IntersectKind::Galloping,
            IntersectKind::Hybrid,
            IntersectKind::Bsr,
        ] {
            assert_eq!(intersect_count(kind, &a, &b), out.len(), "{kind:?}");
            assert_eq!(intersect_count(kind, &[], &a), 0, "{kind:?}");
        }
    }

    #[test]
    fn names() {
        assert_eq!(IntersectKind::Hybrid.name(), "Hybrid");
        assert_eq!(IntersectKind::Bsr.name(), "QFilter");
        assert_eq!(IntersectKind::default(), IntersectKind::Hybrid);
    }
}
