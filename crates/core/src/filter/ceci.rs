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
use crate::filter::common::{ldf_nlf_sets, nlf_pass, rule31_pass, NlfGate};
use sm_graph::traversal::BfsTree;
use sm_graph::VertexId;

/// CECI's root: `argmin |C_nlf(u)| / d(u)`, given every `C_nlf(u)`.
pub fn select_ceci_root(q: &QueryContext<'_>, nlf_sets: &[Vec<VertexId>]) -> VertexId {
    q.graph
        .vertices()
        .map(|u| {
            let c = nlf_sets[u as usize].len() as f64;
            (c / q.graph.degree(u).max(1) as f64, u)
        })
        .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)))
        .map(|(_, u)| u)
        .expect("non-empty query")
}

/// CECI candidate sets plus the BFS tree its compact embedding cluster
/// index hangs off.
pub fn ceci_candidates(q: &QueryContext<'_>, g: &DataContext<'_>) -> (Candidates, BfsTree) {
    let qg = q.graph;
    let nq = qg.num_vertices();
    let mut nlf_sets = ldf_nlf_sets(q, g);
    let root = select_ceci_root(q, &nlf_sets);
    let tree = BfsTree::build(qg, root);
    let mut sets: Vec<Vec<VertexId>> = vec![Vec::new(); nq];

    // Phase 1: construction and filtering along δ.
    sets[root as usize] = std::mem::take(&mut nlf_sets[root as usize]);
    for idx in 1..tree.order.len() {
        let u = tree.order[idx];
        let parent = tree.parent[u as usize];
        let du = qg.degree(u);
        let lu = qg.label(u);
        let mut gen: Vec<VertexId> = Vec::new();
        for &vp in &sets[parent as usize] {
            for &v in g.graph.neighbors(vp) {
                if g.graph.label(v) == lu && g.graph.degree(v) >= du {
                    gen.push(v);
                }
            }
        }
        gen.sort_unstable();
        gen.dedup();
        let gate = NlfGate::new(q, g, u);
        gen.retain(|&v| nlf_pass(g, &gate, v));
        sets[u as usize] = gen;
        // Bidirectional pruning against every backward neighbor (parent
        // included, per "rules out v from C(u_p) if v has no neighbors in
        // C(u)").
        let backward: Vec<VertexId> = qg
            .neighbors(u)
            .iter()
            .copied()
            .filter(|&u2| tree.rank[u2 as usize] < idx)
            .collect();
        for &ub in &backward {
            let cb = std::mem::take(&mut sets[ub as usize]);
            sets[u as usize].retain(|&v| rule31_pass(g, v, &cb));
            sets[ub as usize] = cb;
            let cu = std::mem::take(&mut sets[u as usize]);
            sets[ub as usize].retain(|&v| rule31_pass(g, v, &cu));
            sets[u as usize] = cu;
        }
        if sets[u as usize].is_empty() {
            return (Candidates::new(sets), tree);
        }
    }

    // Phase 2: reverse-δ refinement against tree children only.
    for idx in (0..tree.order.len()).rev() {
        let u = tree.order[idx];
        let children = tree.children[u as usize].clone();
        if children.is_empty() {
            continue;
        }
        let mut cu = std::mem::take(&mut sets[u as usize]);
        cu.retain(|&v| {
            children
                .iter()
                .all(|&uc| rule31_pass(g, v, &sets[uc as usize]))
        });
        sets[u as usize] = cu;
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
