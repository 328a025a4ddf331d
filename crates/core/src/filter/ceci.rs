//! CECI's filtering (Bhattarai, Liu, Huang; SIGMOD 2019), per Section
//! 3.1.1 of the study.
//!
//! Phase 1 walks the BFS order `δ`: `C(u)` is generated from the tree
//! parent's candidates (Generation Rule 3.1), then every backward edge —
//! the tree edge *and* non-tree edges — prunes **bidirectionally**: `v`
//! leaves `C(u)` if it has no neighbor in `C(u_b)`, and `v'` leaves
//! `C(u_b)` if it has no neighbor in `C(u)`.
//!
//! Phase 2 walks reverse `δ` and refines `C(u)` against the candidate sets
//! of `u`'s **tree children only** — the asymmetry (ignoring non-tree
//! forward edges) is why the study finds CECI's pruning power weaker than
//! CFL's and DP-iso's (Figure 8), and we deliberately keep it.

use crate::candidates::Candidates;
use crate::context::{DataContext, QueryContext};
use crate::filter::common::{generate, ldf_nlf_sets, sparsest_root, vertex_mask, Membership};
use sm_graph::traversal::BfsTree;
use sm_graph::VertexId;

/// CECI candidate sets plus the BFS tree its compact embedding cluster
/// index hangs off. The root is [`sparsest_root`] over the NLF sets.
pub fn ceci_candidates(q: &QueryContext<'_>, g: &DataContext<'_>) -> (Candidates, BfsTree) {
    let qg = q.graph;
    let mut nlf_sets = ldf_nlf_sets(q, g);
    let root = sparsest_root(q, |u| nlf_sets[u as usize].len());
    let tree = BfsTree::build(qg, root);
    let mut sets: Vec<Vec<VertexId>> = vec![Vec::new(); qg.num_vertices()];
    sets[root as usize] = std::mem::take(&mut nlf_sets[root as usize]);
    let mut m = Membership::new(g.graph, &sets);

    // Phase 1: construction and filtering along δ.
    for idx in 1..tree.order.len() {
        let u = tree.order[idx];
        let parent = tree.parent[u as usize];
        sets[u as usize] = generate(q, g, &mut m, &sets[parent as usize], u, 0);
        // Bidirectional pruning against every backward neighbor (parent
        // included, per "rules out v from C(u_p) if v has no neighbors in
        // C(u)").
        for &ub in qg.neighbors(u) {
            if tree.rank[ub as usize] < idx {
                m.retain(u, &mut sets[u as usize], |m, v| m.covers(v, 1 << ub));
                m.retain(ub, &mut sets[ub as usize], |m, v| m.covers(v, 1 << u));
            }
        }
        if sets[u as usize].is_empty() {
            return (Candidates::new(sets), tree);
        }
    }

    // Phase 2: reverse-δ refinement against tree children only.
    for &u in tree.order.iter().rev() {
        let children = vertex_mask(tree.children[u as usize].iter().copied());
        if children != 0 {
            m.retain(u, &mut sets[u as usize], |m, v| m.covers(v, children));
        }
    }
    (Candidates::new(sets), tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_data, paper_match, paper_query};
    use crate::{DataContext, QueryContext};

    #[test]
    fn completeness_on_fixture() {
        let q = paper_query();
        let g = paper_data();
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let (c, _) = ceci_candidates(&qc, &gc);
        for (u, &v) in paper_match().iter().enumerate() {
            assert!(c.get(u as u32).contains(&v), "u{u} lost v{v}");
        }
    }

    #[test]
    fn bidirectional_pruning_example_3_3() {
        // Mirrors the paper's Example 3.3: non-tree backward edges prune in
        // both directions during phase 1, so dead-end candidates disappear.
        let q = paper_query();
        let g = paper_data();
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let (c, _) = ceci_candidates(&qc, &gc);
        // The B-labeled query vertex must not keep v2/v6 (no D neighbor).
        assert_eq!(c.get(1), &[4]);
    }

    #[test]
    fn subset_of_nlf() {
        let q = paper_query();
        let g = paper_data();
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let nlf = crate::filter::nlf::nlf_candidates(&qc, &gc);
        let (c, _) = ceci_candidates(&qc, &gc);
        for u in q.vertices() {
            for &v in c.get(u) {
                assert!(nlf.get(u).contains(&v));
            }
        }
    }
}
