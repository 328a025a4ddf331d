//! Shared filter building blocks.

use crate::context::{DataContext, QueryContext};
use sm_graph::{NlfIndex, VertexId};
use sm_intersect::intersect_nonempty;

/// Label-and-degree test for a single `(u, v)` pair.
#[inline]
pub fn ldf_pass(q: &QueryContext<'_>, g: &DataContext<'_>, u: VertexId, v: VertexId) -> bool {
    g.graph.label(v) == q.graph.label(u) && g.graph.degree(v) >= q.graph.degree(u)
}

/// NLF dominance test for a single `(u, v)` pair (assumes labels equal).
#[inline]
pub fn nlf_pass(q: &QueryContext<'_>, g: &DataContext<'_>, u: VertexId, v: VertexId) -> bool {
    NlfIndex::dominates(g.nlf.entry(v), q.nlf.entry(u))
}

/// One LDF candidate set: vertices of `G` with `L(v) = L(u)` and
/// `d(v) >= d(u)`, produced in sorted order from the label index.
pub fn ldf_set(q: &QueryContext<'_>, g: &DataContext<'_>, u: VertexId) -> Vec<VertexId> {
    let du = q.graph.degree(u);
    g.graph
        .vertices_with_label(q.graph.label(u))
        .iter()
        .copied()
        .filter(|&v| g.graph.degree(v) >= du)
        .collect()
}

/// One LDF+NLF candidate set.
pub fn ldf_nlf_set(q: &QueryContext<'_>, g: &DataContext<'_>, u: VertexId) -> Vec<VertexId> {
    let du = q.graph.degree(u);
    g.graph
        .vertices_with_label(q.graph.label(u))
        .iter()
        .copied()
        .filter(|&v| g.graph.degree(v) >= du && nlf_pass(q, g, u, v))
        .collect()
}

/// The LDF+NLF candidate set of every query vertex. Query vertices are
/// visited grouped by label, so the label's vertex list is scanned — and
/// each data vertex's degree and NLF entry fetched — once per label
/// rather than once per same-labelled query vertex.
pub fn ldf_nlf_sets(q: &QueryContext<'_>, g: &DataContext<'_>) -> Vec<Vec<VertexId>> {
    let label = |u: &VertexId| q.graph.label(*u);
    let mut by_label: Vec<VertexId> = q.graph.vertices().collect();
    by_label.sort_by_key(label);
    let mut sets = vec![Vec::new(); by_label.len()];
    for group in by_label.chunk_by(|a, b| label(a) == label(b)) {
        for &v in g.graph.vertices_with_label(label(&group[0])) {
            let (dv, entry) = (g.graph.degree(v), g.nlf.entry(v));
            for &u in group {
                if dv >= q.graph.degree(u) && NlfIndex::dominates(entry, q.nlf.entry(u)) {
                    sets[u as usize].push(v);
                }
            }
        }
    }
    sets
}

/// Filtering Rule 3.1 for one candidate: `v` survives w.r.t. neighbor `u'`
/// iff `N(v) ∩ C(u') ≠ ∅`.
#[inline]
pub fn rule31_pass(g: &DataContext<'_>, v: VertexId, c_other: &[VertexId]) -> bool {
    intersect_nonempty(g.graph.neighbors(v), c_other)
}

/// Prune the raw candidate set of `u` in place, keeping candidates with a
/// neighbor in every `sets[u']` for `u'` in `others`. Operates on the
/// mutable per-vertex sets a filter refines before freezing them into
/// [`Candidates`]. Returns whether anything was removed.
pub fn prune_by_rule31(
    g: &DataContext<'_>,
    sets: &mut [Vec<VertexId>],
    u: VertexId,
    others: &[VertexId],
) -> bool {
    if others.is_empty() {
        return false;
    }
    // Split borrow: take the set out, filter against the rest, put back.
    let mut set = std::mem::take(&mut sets[u as usize]);
    let before = set.len();
    set.retain(|&v| {
        others
            .iter()
            .all(|&u2| rule31_pass(g, v, &sets[u2 as usize]))
    });
    let changed = set.len() != before;
    sets[u as usize] = set;
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataContext, QueryContext};
    use sm_graph::builder::graph_from_edges;

    #[test]
    fn ldf_set_respects_label_and_degree() {
        // query u: label 0, degree 2; data: v0 lbl0 d1, v1 lbl0 d2, v2 lbl1 d2
        let q = graph_from_edges(&[0, 1, 1], &[(0, 1), (0, 2)]);
        let g = graph_from_edges(&[0, 0, 1, 1, 1], &[(0, 2), (1, 2), (1, 3), (2, 4)]);
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        assert_eq!(ldf_set(&qc, &gc, 0), vec![1]);
    }

    #[test]
    fn nlf_tightens_ldf() {
        // query u0 (label 0) needs two label-1 neighbors
        let q = graph_from_edges(&[0, 1, 1], &[(0, 1), (0, 2)]);
        // v0: two label-1 nbrs; v1: one label-1 + one label-2 nbr
        let g = graph_from_edges(&[0, 0, 1, 1, 1, 2], &[(0, 2), (0, 3), (1, 4), (1, 5)]);
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        assert_eq!(ldf_set(&qc, &gc, 0), vec![0, 1]);
        assert_eq!(ldf_nlf_set(&qc, &gc, 0), vec![0]);
    }

    #[test]
    fn grouped_sets_equal_per_vertex_sets() {
        // u1 and u2 share label 1 but differ in degree and NLF entry.
        let q = graph_from_edges(&[0, 1, 1, 2], &[(0, 1), (0, 2), (2, 3)]);
        let g = graph_from_edges(
            &[0, 1, 1, 2, 0, 1],
            &[(0, 1), (0, 2), (2, 3), (4, 5), (4, 1), (5, 3)],
        );
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let want: Vec<_> = q.vertices().map(|u| ldf_nlf_set(&qc, &gc, u)).collect();
        assert_eq!(ldf_nlf_sets(&qc, &gc), want);
        assert!(
            want[1] != want[2],
            "the group must not be trivially uniform"
        );
    }

    #[test]
    fn rule31_pruning() {
        let g = graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (2, 3)]);
        let gc = DataContext::new(&g);
        let mut sets = vec![vec![0, 1, 2, 3], vec![1]];
        let changed = prune_by_rule31(&gc, &mut sets, 0, &[1]);
        assert!(changed);
        // only v0 has a neighbor in C(u1) = {1}
        assert_eq!(sets[0], &[0]);
        // empty `others` is a no-op
        assert!(!prune_by_rule31(&gc, &mut sets, 0, &[]));
    }
}
