//! CFL's filtering (Bi et al., SIGMOD 2016): BFS-tree guided top-down
//! generation plus bottom-up refinement, per Section 3.1.1 of the study.
//!
//! Processing vertices in BFS order `δ`:
//!
//! * **Generation (top-down)** — `C(u)` is generated from the candidates of
//!   `u`'s already-processed neighbors (Generation Rule 3.1 with
//!   `X = N(u) ∩ δ-prefix`), gated by LDF and NLF. After generating
//!   `C(u)`, each *non-tree* backward edge `(u', u)` also prunes the
//!   earlier set `C(u')` (the backward pruning of the paper's Example 3.2,
//!   where `v6` leaves `C(u1)` once `C(u2)` exists).
//! * **Refinement (bottom-up)** — in reverse `δ`, `v ∈ C(u)` must have a
//!   neighbor in `C(u')` for every δ-later neighbor `u'` (Filtering Rule
//!   3.1).
//!
//! The root is chosen among up to three core vertices minimizing
//! `|{v : L(v)=L(u)}| / d(u)`, breaking ties by the smallest NLF candidate
//! set — the paper's Section 3.2 description of CFL's start-vertex rule.

use crate::candidates::Candidates;
use crate::context::{DataContext, QueryContext};
use crate::filter::common::{generate, ldf_nlf_count, ldf_nlf_set, vertex_mask, Membership};
use sm_graph::traversal::BfsTree;
use sm_graph::VertexId;

/// Pick CFL's root: top-3 core vertices by `label_freq / degree`, then the
/// one with the smallest NLF candidate set.
pub fn select_cfl_root(q: &QueryContext<'_>, g: &DataContext<'_>) -> VertexId {
    let qg = q.graph;
    let pool: Vec<VertexId> = if q.core_mask.iter().any(|&c| c) {
        qg.vertices().filter(|&u| q.is_core(u)).collect()
    } else {
        qg.vertices().collect()
    };
    let mut scored: Vec<(f64, VertexId)> = pool
        .iter()
        .map(|&u| {
            let freq = g.graph.label_frequency(qg.label(u)) as f64;
            (freq / qg.degree(u).max(1) as f64, u)
        })
        .collect();
    scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    scored
        .iter()
        .take(3)
        .map(|&(_, u)| (ldf_nlf_count(q, g, u), u))
        .min()
        .map(|(_, u)| u)
        .expect("non-empty query")
}

/// CFL candidate sets, plus the BFS tree the compressed path index and
/// CFL's ordering are built over.
pub fn cfl_candidates(q: &QueryContext<'_>, g: &DataContext<'_>) -> (Candidates, BfsTree) {
    let qg = q.graph;
    let root = select_cfl_root(q, g);
    let tree = BfsTree::build(qg, root);
    let mut sets: Vec<Vec<VertexId>> = vec![Vec::new(); qg.num_vertices()];
    sets[root as usize] = ldf_nlf_set(q, g, root);
    let mut m = Membership::new(g.graph, &sets);

    // Top-down generation along δ.
    for idx in 1..tree.order.len() {
        let u = tree.order[idx];
        // Backward neighbors in δ (both the tree parent and non-tree).
        let is_backward = |u2: VertexId| tree.rank[u2 as usize] < idx;
        let backward = vertex_mask(
            qg.neighbors(u)
                .iter()
                .copied()
                .filter(|&u2| is_backward(u2)),
        );
        debug_assert!(backward != 0, "query must be connected");
        // Generate from the parent's candidates' neighborhoods, gated by
        // LDF + NLF + Rule 3.1 against every backward neighbor.
        let parent = tree.parent[u as usize];
        sets[u as usize] = generate(q, g, &mut m, &sets[parent as usize], u, backward);
        if sets[u as usize].is_empty() {
            return (Candidates::new(sets), tree);
        }
        // Backward pruning through non-tree backward edges: the earlier set
        // must keep a neighbor in the new C(u).
        for &u2 in qg.neighbors(u) {
            if is_backward(u2) && u2 != parent {
                m.retain(u2, &mut sets[u2 as usize], |m, v2| m.covers(v2, 1 << u));
            }
        }
    }

    // Bottom-up refinement in reverse δ against δ-later neighbors.
    for idx in (0..tree.order.len()).rev() {
        let u = tree.order[idx];
        let forward = vertex_mask(
            qg.neighbors(u)
                .iter()
                .copied()
                .filter(|&u2| tree.rank[u2 as usize] > idx),
        );
        if forward != 0 {
            m.retain(u, &mut sets[u as usize], |m, v| m.covers(v, forward));
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
        let (c, tree) = cfl_candidates(&qc, &gc);
        for (u, &v) in paper_match().iter().enumerate() {
            assert!(
                c.get(u as u32).contains(&v),
                "u{u} lost v{v}: {:?}",
                c.get(u as u32)
            );
        }
        assert_eq!(tree.order.len(), 4);
    }

    #[test]
    fn refinement_prunes_example_3_2_analogue() {
        // In the paper's Example 3.2, the generation prunes v6 from C(u1)
        // via the non-tree edge and the refinement removes v1 from C(u2).
        // In our fixture the final sets must be exactly the match supports.
        let q = paper_query();
        let g = paper_data();
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let (c, _) = cfl_candidates(&qc, &gc);
        assert_eq!(c.get(0), &[0]);
        // u1 (B): v2 has no D neighbor, v6 has no D neighbor → only v4.
        assert_eq!(c.get(1), &[4]);
        // u2 (C): only v5 has degree 3 with A, B, D neighbors.
        assert_eq!(c.get(2), &[5]);
        assert_eq!(c.get(3), &[12]);
    }

    #[test]
    fn root_is_core_vertex() {
        let q = paper_query();
        let g = paper_data();
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let root = select_cfl_root(&qc, &gc);
        assert!(qc.is_core(root));
    }

    #[test]
    fn subset_of_nlf() {
        let q = paper_query();
        let g = paper_data();
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let nlf = crate::filter::nlf::nlf_candidates(&qc, &gc);
        let (c, _) = cfl_candidates(&qc, &gc);
        for u in q.vertices() {
            for &v in c.get(u) {
                assert!(nlf.get(u).contains(&v));
            }
        }
    }
}
