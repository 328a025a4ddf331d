//! Candidate vertex sets `C(u)`, stored as one flat CSR arena.

use sm_graph::{Graph, VertexId};

/// One sorted candidate set per query vertex (paper notation `C(u)`),
/// flattened into a CSR arena: `offsets[u]..offsets[u + 1]` indexes the
/// shared `ids` array. A whole run's candidates live in two contiguous
/// allocations, so plans can be cloned/shared cheaply and per-set `Vec`
/// headers never reach the enumeration hot path.
///
/// Completeness (Definition 2.2 of the paper) is the correctness contract
/// every filter must uphold: if `(u, v)` appears in any match then
/// `v ∈ C(u)`. The integration tests check this against the brute-force
/// reference matcher.
#[derive(Clone, Debug, PartialEq)]
pub struct Candidates {
    /// `offsets[u]..offsets[u + 1]` delimits `C(u)` in `ids`.
    offsets: Vec<u32>,
    /// All candidate sets back to back, each slice sorted ascending.
    ids: Vec<VertexId>,
}

impl Candidates {
    /// Freeze per-vertex candidate sets into the CSR arena. Each set must
    /// be sorted ascending. Filters build plain `Vec<Vec<_>>` sets while
    /// refining and call this once at the end.
    pub fn new(sets: Vec<Vec<VertexId>>) -> Self {
        Self::from_sets(&sets)
    }

    /// [`Candidates::new`] from borrowed sets.
    pub fn from_sets(sets: &[Vec<VertexId>]) -> Self {
        debug_assert!(sets.iter().all(|s| s.windows(2).all(|w| w[0] < w[1])));
        let total: usize = sets.iter().map(|s| s.len()).sum();
        let mut offsets = Vec::with_capacity(sets.len() + 1);
        let mut ids = Vec::with_capacity(total);
        offsets.push(0u32);
        for s in sets {
            ids.extend_from_slice(s);
            offsets.push(ids.len() as u32);
        }
        Candidates { offsets, ids }
    }

    /// Candidate set of query vertex `u`.
    #[inline]
    pub fn get(&self, u: VertexId) -> &[VertexId] {
        let u = u as usize;
        &self.ids[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Number of query vertices covered.
    #[inline]
    pub fn num_query_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether some candidate set is empty (no match can exist).
    pub fn any_empty(&self) -> bool {
        self.offsets.windows(2).any(|w| w[0] == w[1])
    }

    /// Total candidate count `Σ_u |C(u)|`.
    pub fn total(&self) -> usize {
        self.ids.len()
    }

    /// The paper's Figure 8 metric: `Σ_u |C(u)| / |V(q)|`.
    pub fn average(&self) -> f64 {
        let n = self.num_query_vertices();
        if n == 0 {
            0.0
        } else {
            self.total() as f64 / n as f64
        }
    }

    /// Memory footprint of the candidate arena (ids + offsets), in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.ids.len() * std::mem::size_of::<VertexId>()
            + self.offsets.len() * std::mem::size_of::<u32>()
    }

    /// Keep in `C(u)` only the candidates `keep` accepts.
    pub(crate) fn retain(&mut self, u: VertexId, keep: impl Fn(VertexId) -> bool) {
        let u = u as usize;
        let set = self.offsets[u] as usize..self.offsets[u + 1] as usize;
        let kept: Vec<VertexId> = self.ids[set.clone()]
            .iter()
            .copied()
            .filter(|&v| keep(v))
            .collect();
        let removed = (set.len() - kept.len()) as u32;
        self.ids.splice(set, kept);
        self.offsets[u + 1..].iter_mut().for_each(|o| *o -= removed);
    }

    /// Position of data vertex `v` within `C(u)`, if present.
    #[inline]
    pub fn position(&self, u: VertexId, v: VertexId) -> Option<usize> {
        self.get(u).binary_search(&v).ok()
    }

    /// Debug validation: every candidate satisfies the label/degree
    /// constraint (a cheap necessary condition for completeness-preserving
    /// filters, used in tests).
    pub fn respects_ldf(&self, q: &Graph, g: &Graph) -> bool {
        (0..self.num_query_vertices()).all(|u| {
            let u = u as VertexId;
            self.get(u)
                .iter()
                .all(|&v| g.label(v) == q.label(u) && g.degree(v) >= q.degree(u))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_graph::builder::graph_from_edges;

    #[test]
    fn retain_filters_one_set() {
        let mut c = Candidates::new(vec![vec![1, 2], vec![0, 3, 4, 5], vec![6]]);
        c.retain(1, |v| v % 2 == 1);
        assert_eq!(c.get(0), &[1, 2]);
        assert_eq!(c.get(1), &[3, 5]);
        assert_eq!(c.get(2), &[6]);
        c.retain(2, |_| false);
        assert!(c.any_empty());
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn metrics() {
        let c = Candidates::new(vec![vec![0, 2], vec![1], vec![]]);
        assert_eq!(c.total(), 3);
        assert!((c.average() - 1.0).abs() < 1e-12);
        assert!(c.any_empty());
        // 3 ids + 4 offsets, 4 bytes each
        assert_eq!(c.memory_bytes(), 28);
        assert_eq!(c.num_query_vertices(), 3);
    }

    #[test]
    fn csr_slices_match_input_sets() {
        let sets = vec![vec![0, 2], vec![1], vec![], vec![5, 7, 9]];
        let c = Candidates::new(sets.clone());
        for (u, s) in sets.iter().enumerate() {
            assert_eq!(c.get(u as VertexId), s.as_slice());
        }
    }

    #[test]
    fn position_lookup() {
        let c = Candidates::new(vec![vec![3, 7, 9]]);
        assert_eq!(c.position(0, 7), Some(1));
        assert_eq!(c.position(0, 4), None);
    }

    #[test]
    fn ldf_validation() {
        let q = graph_from_edges(&[0, 1], &[(0, 1)]);
        let g = graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let good = Candidates::new(vec![vec![0, 2], vec![1]]);
        assert!(good.respects_ldf(&q, &g));
        let bad = Candidates::new(vec![vec![1], vec![1]]); // wrong label for u0
        assert!(!bad.respects_ldf(&q, &g));
    }
}
