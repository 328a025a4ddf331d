//! Small utilities shared by the filters and engines.

use sm_graph::VertexId;

/// A plain dense bitmap over data vertices.
///
/// Filters use these as transient membership sets for `C(u)` during
/// refinement; the engines use one as the `visited` set. Words are `u64`.
#[derive(Clone, Debug)]
pub struct Bitmap {
    words: Vec<u64>,
}

impl Bitmap {
    /// All-zeros bitmap able to hold `n` bits.
    pub fn new(n: usize) -> Self {
        Bitmap {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Set bit `i`.
    #[inline]
    pub fn set(&mut self, i: VertexId) {
        self.words[i as usize >> 6] |= 1u64 << (i & 63);
    }

    /// Clear bit `i`.
    #[inline]
    pub fn unset(&mut self, i: VertexId) {
        self.words[i as usize >> 6] &= !(1u64 << (i & 63));
    }

    /// Test bit `i`.
    #[inline]
    pub fn get(&self, i: VertexId) -> bool {
        self.words[i as usize >> 6] & (1u64 << (i & 63)) != 0
    }

    /// Set every bit in `list`.
    pub fn set_all(&mut self, list: &[VertexId]) {
        for &i in list {
            self.set(i);
        }
    }

    /// Clear the whole bitmap.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Make room for `n` bits; the added bits are zero.
    pub fn grow(&mut self, n: usize) {
        if self.words.len() < n.div_ceil(64) {
            self.words.resize(n.div_ceil(64), 0);
        }
    }
}

/// Semi-perfect bipartite matching by augmenting paths (Kuhn's algorithm)
/// on caller-owned scratch, sized for GraphQL's pseudo-isomorphism test
/// where the left side is `N(u)` (≤ query degree, tiny), the right side is
/// `N(v)`, and the test runs once per candidate: nothing is allocated or
/// cleared per test beyond the rows themselves.
#[derive(Default)]
pub struct BipartiteMatcher {
    /// `rows[l]` lists the right vertices adjacent to left vertex `l`.
    rows: Vec<Vec<u32>>,
    num_left: usize,
    /// Left vertex matched to each right vertex ([`FREE`] if none). Only
    /// entries named by an edge of the current graph are meaningful:
    /// [`BipartiteMatcher::add_edge`] resets them.
    match_right: Vec<u32>,
    /// `seen[r] == stamp` ⇔ the current augmenting search visited `r`.
    seen: Vec<u64>,
    stamp: u64,
}

const FREE: u32 = u32::MAX;

impl BipartiteMatcher {
    /// Start a new graph with left vertices `0..num_left`, right vertices
    /// `0..num_right` and no edges.
    pub fn reset(&mut self, num_left: usize, num_right: usize) {
        if self.rows.len() < num_left {
            self.rows.resize_with(num_left, Vec::new);
        }
        self.rows[..num_left].iter_mut().for_each(Vec::clear);
        self.num_left = num_left;
        if self.match_right.len() < num_right {
            self.match_right.resize(num_right, FREE);
            self.seen.resize(num_right, 0);
        }
    }

    /// Add the edge `(l, r)`.
    #[inline]
    pub fn add_edge(&mut self, l: usize, r: u32) {
        self.rows[l].push(r);
        self.match_right[r as usize] = FREE;
    }

    /// Whether some matching covers every left vertex.
    pub fn covers_left(&mut self) -> bool {
        (0..self.num_left).all(|l| {
            self.stamp += 1;
            self.augment(l)
        })
    }

    fn augment(&mut self, l: usize) -> bool {
        for i in 0..self.rows[l].len() {
            let r = self.rows[l][i] as usize;
            if self.seen[r] != self.stamp {
                self.seen[r] = self.stamp;
                let owner = self.match_right[r];
                if owner == FREE || self.augment(owner as usize) {
                    self.match_right[r] = l as u32;
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_ops() {
        let mut b = Bitmap::new(130);
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(128));
        b.unset(64);
        assert!(!b.get(64));
        b.set_all(&[3, 5]);
        assert!(b.get(3) && b.get(5));
        b.set(7);
        b.clear();
        assert!(!b.get(7));
    }

    fn covers(num_right: usize, adj: &[Vec<u32>]) -> bool {
        let mut m = BipartiteMatcher::default();
        // A stale graph first: reuse must not leak matches or visits.
        m.reset(2, 3);
        m.add_edge(0, 2);
        m.add_edge(1, 2);
        assert!(!m.covers_left());
        m.reset(adj.len(), num_right);
        for (l, row) in adj.iter().enumerate() {
            for &r in row {
                m.add_edge(l, r);
            }
        }
        m.covers_left()
    }

    #[test]
    fn perfect_matching_found() {
        // 3x3, perfect matching exists
        assert!(covers(3, &[vec![0, 1], vec![1, 2], vec![0]]));
    }

    #[test]
    fn deficient_matching() {
        // two lefts compete for one right
        assert!(!covers(1, &[vec![0], vec![0]]));
    }

    #[test]
    fn augmenting_path_needed() {
        // l0-{r0}, l1-{r0,r1}: greedy l0→r0 forces l1 to augment to r1
        assert!(covers(2, &[vec![0], vec![0, 1]]));
    }

    #[test]
    fn empty_sides() {
        assert!(covers(0, &[]));
        assert!(!covers(3, &[vec![], vec![]]));
    }
}
