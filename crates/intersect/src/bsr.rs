//! Base-and-State Representation (BSR) — a portable stand-in for the
//! QFilter SIMD intersection of Han, Zou and Yu (SIGMOD 2018).
//!
//! Each sorted `u32` set is re-encoded as pairs `(base, state)` where
//! `base = value >> 5` and `state` is a 32-bit bitmap of the low 5 bits of
//! every member sharing that base. Intersecting two BSR sets is a merge
//! over bases with a single `AND` per aligned pair, so one word operation
//! covers up to 32 elements — the same throughput lever QFilter pulls with
//! shuffles. On dense neighbor sets (web/social graphs like `eu`, `hu`)
//! most blocks carry many bits and BSR wins; on sparse sets nearly every
//! block carries one bit and the conversion/merge overhead makes it lose
//! to [`crate::hybrid`] — exactly the trade-off in the paper's Figure 10.

/// A set of `u32`s in base/state block form.
///
/// ```
/// use sm_intersect::BsrSet;
/// let a = BsrSet::from_sorted(&[0, 1, 2, 40]);
/// let b = BsrSet::from_sorted(&[1, 2, 3, 41]);
/// let mut out = Vec::new();
/// a.intersect_into_vec(&b, &mut out);
/// assert_eq!(out, vec![1, 2]);
/// assert!(a.contains(40) && !a.contains(41));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BsrSet {
    bases: Vec<u32>,
    states: Vec<u32>,
    len: usize,
}

/// A borrowed BSR set: parallel `bases`/`states` block slices plus the
/// element count. Lets a caller keep many encoded sets in one arena (the
/// candidate space does) and still intersect them; [`BsrSet`] is the
/// owning form.
#[derive(Clone, Copy, Debug)]
pub struct BsrView<'a> {
    bases: &'a [u32],
    states: &'a [u32],
    len: usize,
}

impl<'a> BsrView<'a> {
    /// View over blocks produced by [`BsrSet::encode_sorted`]; `len` is the
    /// number of encoded elements.
    #[inline]
    pub fn new(bases: &'a [u32], states: &'a [u32], len: usize) -> Self {
        debug_assert_eq!(bases.len(), states.len());
        BsrView { bases, states, len }
    }

    /// Number of elements.
    #[inline]
    pub fn len(self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Call `f(base, a_state & b_state)` for every base both sets carry:
    /// the one block merge behind every BSR intersection below.
    #[inline(always)]
    fn for_common_blocks(self, other: BsrView<'_>, mut f: impl FnMut(u32, u32)) {
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.bases.len() && j < other.bases.len() {
            let (ba, bb) = (self.bases[i], other.bases[j]);
            if ba < bb {
                i += 1;
            } else if bb < ba {
                j += 1;
            } else {
                f(ba, self.states[i] & other.states[j]);
                i += 1;
                j += 1;
            }
        }
    }

    /// Intersect with `other` into a BSR `out` (cleared first).
    pub fn intersect_into(self, other: BsrView<'_>, out: &mut BsrSet) {
        out.bases.clear();
        out.states.clear();
        out.len = 0;
        self.for_common_blocks(other, |base, s| {
            if s != 0 {
                out.bases.push(base);
                out.states.push(s);
                out.len += s.count_ones() as usize;
            }
        });
    }

    /// `|self ∩ other|` without materializing it: the aligned blocks are
    /// ANDed and their bits counted, nothing is decoded.
    pub fn intersect_count(self, other: BsrView<'_>) -> usize {
        let mut n = 0usize;
        self.for_common_blocks(other, |_, s| n += s.count_ones() as usize);
        n
    }

    /// Decode into a caller-provided buffer (appended; no allocation when
    /// the buffer has capacity) — the hot-path variant used by the
    /// QFilter-style enumeration engine.
    pub fn decode_into(self, out: &mut Vec<u32>) {
        out.reserve(self.len);
        for (&base, &state) in self.bases.iter().zip(self.states) {
            decode_block(base, state, out);
        }
    }
}

/// Append the members of one `(base, state)` block to `out`, ascending.
#[inline(always)]
fn decode_block(base: u32, state: u32, out: &mut Vec<u32>) {
    let mut s = state;
    let hi = base << 5;
    while s != 0 {
        out.push(hi | s.trailing_zeros());
        s &= s - 1;
    }
}

impl BsrSet {
    /// Encode a strictly-ascending slice.
    pub fn from_sorted(sorted: &[u32]) -> Self {
        let (mut bases, mut states) = (Vec::new(), Vec::new());
        Self::encode_sorted(sorted, &mut bases, &mut states);
        BsrSet {
            bases,
            states,
            len: sorted.len(),
        }
    }

    /// Append the blocks of a strictly-ascending slice to `bases`/`states`
    /// (the arena form of [`BsrSet::from_sorted`]; read back through
    /// [`BsrView::new`] over the appended range).
    pub fn encode_sorted(sorted: &[u32], bases: &mut Vec<u32>, states: &mut Vec<u32>) {
        debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        let mut i = 0;
        while i < sorted.len() {
            let base = sorted[i] >> 5;
            let mut state = 0u32;
            while i < sorted.len() && sorted[i] >> 5 == base {
                state |= 1 << (sorted[i] & 31);
                i += 1;
            }
            bases.push(base);
            states.push(state);
        }
    }

    /// Borrowed view of this set.
    #[inline]
    pub fn view(&self) -> BsrView<'_> {
        BsrView::new(&self.bases, &self.states, self.len)
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of blocks (distinct bases).
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.bases.len()
    }

    /// Average elements per block — the density that decides whether BSR
    /// pays off.
    pub fn fill_ratio(&self) -> f64 {
        if self.bases.is_empty() {
            0.0
        } else {
            self.len as f64 / self.bases.len() as f64
        }
    }

    /// Intersect with `other` into a BSR `out` (cleared first).
    pub fn intersect_into(&self, other: &BsrSet, out: &mut BsrSet) {
        self.view().intersect_into(other.view(), out);
    }

    /// Intersect with `other`, appending decoded `u32`s to `out`.
    pub fn intersect_into_vec(&self, other: &BsrSet, out: &mut Vec<u32>) {
        self.view()
            .for_common_blocks(other.view(), |base, s| decode_block(base, s, out));
    }

    /// Decode back to a sorted `Vec<u32>`.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len);
        self.view().decode_into(&mut out);
        out
    }

    /// Membership test.
    pub fn contains(&self, x: u32) -> bool {
        let base = x >> 5;
        match self.bases.binary_search(&base) {
            Ok(i) => self.states[i] & (1 << (x & 31)) != 0,
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let xs = vec![0, 1, 31, 32, 33, 64, 1000, u32::MAX];
        let s = BsrSet::from_sorted(&xs);
        assert_eq!(s.to_vec(), xs);
        assert_eq!(s.len(), xs.len());
        assert_eq!(s.num_blocks(), 5); // {0,1,31}, {32,33}, {64}, {1000}, {MAX}
    }

    #[test]
    fn intersection_matches_merge() {
        let a: Vec<u32> = (0..200).map(|i| i * 2).collect();
        let b: Vec<u32> = (0..200).map(|i| i * 3).collect();
        let sa = BsrSet::from_sorted(&a);
        let sb = BsrSet::from_sorted(&b);
        let mut out = Vec::new();
        sa.intersect_into_vec(&sb, &mut out);
        let mut want = Vec::new();
        crate::kernels::merge(&a, &b, &mut want);
        assert_eq!(out, want);
        // BSR-to-BSR variant
        let mut obsr = BsrSet::default();
        sa.intersect_into(&sb, &mut obsr);
        assert_eq!(obsr.to_vec(), want);
        assert_eq!(obsr.len(), want.len());
    }

    #[test]
    fn empty_cases() {
        let e = BsrSet::from_sorted(&[]);
        assert!(e.is_empty());
        assert_eq!(e.fill_ratio(), 0.0);
        let s = BsrSet::from_sorted(&[7]);
        let mut out = Vec::new();
        e.intersect_into_vec(&s, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn contains() {
        let s = BsrSet::from_sorted(&[3, 64, 65]);
        assert!(s.contains(3));
        assert!(s.contains(65));
        assert!(!s.contains(4));
        assert!(!s.contains(96));
    }

    #[test]
    fn fill_ratio_dense_vs_sparse() {
        let dense: Vec<u32> = (0..320).collect(); // 10 full blocks
        let sparse: Vec<u32> = (0..320).map(|i| i * 100).collect();
        assert_eq!(BsrSet::from_sorted(&dense).fill_ratio(), 32.0);
        assert!(BsrSet::from_sorted(&sparse).fill_ratio() < 1.5);
    }
}
