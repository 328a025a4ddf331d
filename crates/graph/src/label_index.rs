//! Label → vertex index and label-pair edge statistics.

use crate::graph::Graph;
use crate::types::{Label, VertexId};

/// Maps each label to the sorted list of vertices carrying it.
///
/// Backing storage is a CSR over labels so lookups are two array reads; the
/// LDF filter iterates `vertices_with_label(L(u))` instead of scanning all
/// of `V(G)`. The inverse, each vertex's index in that label-sorted array
/// ([`LabelIndex::ranks`]), numbers every label class contiguously and in
/// id order, so a sorted set of same-label vertices is an increasing run of
/// ranks — what the candidate space's position lookup relies on.
#[derive(Clone, Debug)]
pub struct LabelIndex {
    offsets: Vec<usize>,
    vertices: Vec<VertexId>,
    /// `vertices[ranks[v]] == v`.
    ranks: Vec<u32>,
    num_labels: usize,
}

impl LabelIndex {
    /// Build the index from a per-vertex label array.
    pub fn build(labels: &[Label]) -> Self {
        let max_label = labels.iter().copied().max().map_or(0, |l| l as usize + 1);
        let mut counts = vec![0usize; max_label];
        for &l in labels {
            counts[l as usize] += 1;
        }
        let num_labels = counts.iter().filter(|&&c| c > 0).count();
        let mut offsets = vec![0usize; max_label + 1];
        for l in 0..max_label {
            offsets[l + 1] = offsets[l] + counts[l];
        }
        let mut vertices = vec![0 as VertexId; labels.len()];
        let mut ranks = vec![0u32; labels.len()];
        let mut cursor = offsets[..max_label].to_vec();
        for (v, &l) in labels.iter().enumerate() {
            let at = cursor[l as usize];
            vertices[at] = v as VertexId;
            ranks[v] = at as u32;
            cursor[l as usize] += 1;
        }
        // Vertices enter in increasing id order, so each bucket is sorted.
        LabelIndex {
            offsets,
            vertices,
            ranks,
            num_labels,
        }
    }

    /// Number of distinct labels that occur at least once.
    #[inline]
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// Number of label buckets: one past the largest label id (0 for an
    /// empty graph). Unlike [`LabelIndex::num_labels`] this bounds every
    /// id, gaps included.
    #[inline]
    pub fn label_bound(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Sorted vertices carrying label `l` (empty slice if unused).
    #[inline]
    pub fn vertices_with_label(&self, l: Label) -> &[VertexId] {
        let l = l as usize;
        if l + 1 >= self.offsets.len() {
            &[]
        } else {
            &self.vertices[self.offsets[l]..self.offsets[l + 1]]
        }
    }

    /// Number of vertices carrying label `l`.
    #[inline]
    pub fn frequency(&self, l: Label) -> usize {
        self.vertices_with_label(l).len()
    }

    /// Every vertex's index in the label-sorted vertex array (label
    /// classes in label order, each in increasing id order), indexed by
    /// vertex id.
    #[inline]
    pub fn ranks(&self) -> &[u32] {
        &self.ranks
    }
}

/// Counts, for every unordered label pair `(la, lb)`, the number of edges in
/// `G` whose endpoints carry those labels — the edge weights `w(e)` in
/// QuickSI's infrequent-edge-first ordering.
#[derive(Clone, Debug)]
pub struct LabelPairEdgeCounts {
    counts: std::collections::HashMap<(Label, Label), u64>,
}

impl LabelPairEdgeCounts {
    /// Scan all edges of `g` once. `O(|E|)`.
    pub fn build(g: &Graph) -> Self {
        let mut counts = std::collections::HashMap::new();
        // Dense counting for realistic label universes: one array
        // increment per edge instead of a hash probe. The build sits on
        // every service (re)start, including snapshot recovery.
        let lmax = (0..g.num_vertices() as VertexId)
            .map(|v| g.label(v) as usize + 1)
            .max()
            .unwrap_or(0);
        if lmax > 0 && lmax <= 512 {
            let mut dense = vec![0u64; lmax * lmax];
            for u in 0..g.num_vertices() as VertexId {
                let lu = g.label(u) as usize;
                for &v in g.neighbors(u) {
                    if v <= u {
                        continue;
                    }
                    let lv = g.label(v) as usize;
                    let (a, b) = if lu <= lv { (lu, lv) } else { (lv, lu) };
                    dense[a * lmax + b] += 1;
                }
            }
            for a in 0..lmax {
                for b in a..lmax {
                    let c = dense[a * lmax + b];
                    if c > 0 {
                        counts.insert((a as Label, b as Label), c);
                    }
                }
            }
        } else {
            for (u, v) in g.edges() {
                let key = Self::key(g.label(u), g.label(v));
                *counts.entry(key).or_insert(0u64) += 1;
            }
        }
        LabelPairEdgeCounts { counts }
    }

    #[inline]
    fn key(a: Label, b: Label) -> (Label, Label) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Number of edges in the indexed graph between labels `a` and `b`.
    #[inline]
    pub fn count(&self, a: Label, b: Label) -> u64 {
        self.counts.get(&Self::key(a, b)).copied().unwrap_or(0)
    }

    /// Record one more edge between labels `a` and `b` — incremental
    /// maintenance under graph updates, so installs patch the previous
    /// counts instead of rescanning every edge.
    #[inline]
    pub fn insert_pair(&mut self, a: Label, b: Label) {
        *self.counts.entry(Self::key(a, b)).or_insert(0) += 1;
    }

    /// Every tracked pair with its count, keys normalized (`a <= b`) and
    /// ascending — a deterministic order for serialization.
    pub fn sorted_pairs(&self) -> Vec<((Label, Label), u64)> {
        let mut out: Vec<_> = self.counts.iter().map(|(&k, &c)| (k, c)).collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Rebuild from serialized pairs. Returns `None` if any pair is
    /// denormalized (`a > b`) or has a zero count — shapes
    /// [`LabelPairEdgeCounts::build`] never produces.
    pub fn from_pairs(pairs: impl IntoIterator<Item = ((Label, Label), u64)>) -> Option<Self> {
        let mut counts = std::collections::HashMap::new();
        for ((a, b), c) in pairs {
            if a > b || c == 0 || counts.insert((a, b), c).is_some() {
                return None;
            }
        }
        Some(LabelPairEdgeCounts { counts })
    }

    /// Record one fewer edge between labels `a` and `b`. The pair must be
    /// tracked; removing the last edge drops the entry so the map stays
    /// equal to a fresh [`LabelPairEdgeCounts::build`].
    #[inline]
    pub fn remove_pair(&mut self, a: Label, b: Label) {
        let k = Self::key(a, b);
        match self.counts.get_mut(&k) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                self.counts.remove(&k);
            }
            None => debug_assert!(false, "removing an untracked label pair"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn index_buckets() {
        let idx = LabelIndex::build(&[2, 0, 2, 1, 2]);
        assert_eq!(idx.num_labels(), 3);
        assert_eq!(idx.label_bound(), 3);
        assert_eq!(idx.vertices_with_label(2), &[0, 2, 4]);
        assert_eq!(idx.vertices_with_label(0), &[1]);
        assert_eq!(idx.frequency(1), 1);
        assert_eq!(idx.frequency(5), 0);
        assert!(idx.vertices_with_label(100).is_empty());
        // Ranks run through the classes in label order.
        assert_eq!(idx.ranks(), &[2, 0, 3, 1, 4]);
    }

    /// Walk the classes in label order: the `i`-th vertex overall has rank
    /// `i`, and every vertex is visited once.
    fn assert_rank_inverts(idx: &LabelIndex, n: usize) {
        let walk: Vec<VertexId> = (0..idx.label_bound() as Label)
            .flat_map(|l| idx.vertices_with_label(l).iter().copied())
            .collect();
        assert_eq!(walk.len(), n);
        for (i, &v) in walk.iter().enumerate() {
            assert_eq!(idx.ranks()[v as usize], i as u32, "vertex {v}");
        }
    }

    /// The rank is the inverse of the label-sorted vertex array, on every
    /// path that builds a graph: the builder, `Graph::from_csr`, and
    /// (in `sm-durable`'s tests) snapshot decode.
    #[test]
    fn rank_inverts_the_label_sorted_vertices() {
        let g = graph_from_edges(&[3, 1, 3, 0, 1, 1, 0], &[(0, 1), (1, 2), (3, 4), (5, 6)]);
        let (offsets, neighbors, labels) = g.csr();
        let copy = Graph::from_csr(offsets.to_vec(), neighbors.to_vec(), labels.to_vec()).unwrap();
        for g in [&g, &copy] {
            assert_rank_inverts(g.label_index(), g.num_vertices());
        }
    }

    #[test]
    fn empty_labels() {
        assert!(LabelIndex::build(&[]).ranks().is_empty());
        let idx = LabelIndex::build(&[]);
        assert_eq!(idx.num_labels(), 0);
        assert_eq!(idx.label_bound(), 0);
        assert!(idx.vertices_with_label(0).is_empty());
    }

    #[test]
    fn unused_label_gap() {
        // label 1 never occurs
        let idx = LabelIndex::build(&[0, 2]);
        assert_eq!(idx.num_labels(), 2);
        assert_eq!(idx.label_bound(), 3, "gaps count toward the bound");
        assert!(idx.vertices_with_label(1).is_empty());
    }

    #[test]
    fn pair_adjustments_match_a_fresh_build() {
        let g = graph_from_edges(&[0, 1, 0, 1], &[(0, 1), (2, 3), (1, 3)]);
        let mut c = LabelPairEdgeCounts::build(&g);
        // Mirror deleting (2,3) and inserting (0,2): A-B loses one, A-A
        // gains one — exactly what a rebuild of the updated graph shows.
        c.remove_pair(0, 1);
        c.insert_pair(0, 0);
        let g2 = graph_from_edges(&[0, 1, 0, 1], &[(0, 1), (0, 2), (1, 3)]);
        let fresh = LabelPairEdgeCounts::build(&g2);
        for (a, b) in [(0, 0), (0, 1), (1, 1)] {
            assert_eq!(c.count(a, b), fresh.count(a, b));
        }
        c.remove_pair(1, 1);
        assert_eq!(c.count(1, 1), 0);
    }

    #[test]
    fn label_pair_counts() {
        // A-B, A-B, B-B
        let g = graph_from_edges(&[0, 1, 0, 1], &[(0, 1), (2, 3), (1, 3)]);
        let c = LabelPairEdgeCounts::build(&g);
        assert_eq!(c.count(0, 1), 2);
        assert_eq!(c.count(1, 0), 2);
        assert_eq!(c.count(1, 1), 1);
        assert_eq!(c.count(0, 0), 0);
        assert_eq!(c.count(4, 4), 0);
    }
}
