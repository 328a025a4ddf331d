//! The STEADY baseline of the paper's Figure 8: candidate sets refined by
//! Filtering Rule 3.1 until a fixpoint ("steady state").
//!
//! This is the strongest pruning achievable under Observation 3.1 — every
//! practical filter stops earlier to save preprocessing time, so STEADY
//! bounds their pruning power from below (fewest candidates). It is a
//! semijoin-reduction / arc-consistency computation and can be slow; the
//! study uses it purely as a yardstick.

use crate::candidates::Candidates;
use crate::context::{DataContext, QueryContext};
use crate::filter::common::{ldf_nlf_sets, vertex_mask, Membership};
use sm_graph::VertexId;

/// Rule 3.1 fixpoint starting from LDF+NLF sets.
pub fn steady_candidates(q: &QueryContext<'_>, g: &DataContext<'_>) -> Candidates {
    let qg = q.graph;
    let nq = qg.num_vertices();
    let mut sets = ldf_nlf_sets(q, g);
    let mut m = Membership::new(g.graph, &sets);
    // Worklist of query vertices whose candidates may need re-checking.
    let mut dirty: Vec<bool> = vec![true; nq];
    let mut queue: std::collections::VecDeque<VertexId> = (0..nq as VertexId).collect();
    while let Some(u) = queue.pop_front() {
        dirty[u as usize] = false;
        let nbrs = qg.neighbors(u);
        let mask = vertex_mask(nbrs.iter().copied());
        let cu = &mut sets[u as usize];
        let before = cu.len();
        m.retain(u, cu, |m, v| m.covers(v, mask));
        if cu.is_empty() {
            break;
        }
        if cu.len() != before {
            // Neighbors' candidates may now be invalid.
            for &u2 in nbrs {
                if !dirty[u2 as usize] {
                    dirty[u2 as usize] = true;
                    queue.push_back(u2);
                }
            }
        }
    }
    Candidates::new(sets)
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
        let c = steady_candidates(&qc, &gc);
        for (u, &v) in paper_match().iter().enumerate() {
            assert!(c.get(u as u32).contains(&v));
        }
    }

    #[test]
    fn steady_is_at_least_as_tight_as_every_filter() {
        let q = paper_query();
        let g = paper_data();
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let steady = steady_candidates(&qc, &gc);
        let (cfl, _) = crate::filter::cfl::cfl_candidates(&qc, &gc);
        let (ceci, _) = crate::filter::ceci::ceci_candidates(&qc, &gc);
        let (dp, _) = crate::filter::dpiso::dpiso_candidates(&qc, &gc, 3);
        for u in q.vertices() {
            for other in [&cfl, &ceci, &dp] {
                assert!(
                    steady.get(u).len() <= other.get(u).len(),
                    "u{u}: steady {:?} vs {:?}",
                    steady.get(u),
                    other.get(u)
                );
            }
        }
    }

    #[test]
    fn fixpoint_is_stable() {
        // Running the fixpoint on its own output must change nothing: every
        // candidate already has a neighbor in each neighbor's set.
        let q = paper_query();
        let g = paper_data();
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let c = steady_candidates(&qc, &gc);
        for u in q.vertices() {
            for &v in c.get(u) {
                for &u2 in q.neighbors(u) {
                    let cu2 = c.get(u2);
                    assert!(g.neighbors(v).iter().any(|w| cu2.binary_search(w).is_ok()));
                }
            }
        }
    }
}
