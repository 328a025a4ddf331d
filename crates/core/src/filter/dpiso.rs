//! DP-iso's filtering (Han et al., SIGMOD 2019), per Section 3.1.1 of the
//! study.
//!
//! Candidates are seeded by LDF only, then refined by `k` alternating
//! directional sweeps over the BFS order `δ` (default `k = 3`, as in the
//! original paper):
//!
//! * odd passes walk **reverse δ** and require a neighbor in `C(u')` for
//!   every δ-later neighbor `u'` (the first such pass also applies NLF);
//! * even passes walk **along δ** and require a neighbor in `C(u')` for
//!   every δ-earlier neighbor `u'`.

use crate::candidates::Candidates;
use crate::context::{DataContext, QueryContext};
use crate::filter::common::{ldf_set, nlf_pass, sparsest_root, vertex_mask, Membership, NlfGate};
use sm_graph::traversal::BfsTree;
use sm_graph::VertexId;
use sm_runtime::trace::{Counter, CounterBlock, Trace};

/// The `k` of the original DP-iso paper.
pub const DEFAULT_REFINEMENT_ROUNDS: usize = 3;

/// DP-iso candidate sets plus the BFS tree that fixes `δ` (and hence the
/// DAG of the adaptive ordering). The root is [`sparsest_root`] over the
/// LDF seed sets.
pub fn dpiso_candidates(
    q: &QueryContext<'_>,
    g: &DataContext<'_>,
    rounds: usize,
) -> (Candidates, BfsTree) {
    dpiso_candidates_traced(q, g, rounds, &Trace::disabled())
}

/// [`dpiso_candidates`] with observability: each refinement round becomes
/// a `filter_round` span and prunes are tallied into
/// [`Counter::CandidatesPruned`] / [`Counter::FilterRounds`]. Counters
/// flush under worker 0 when `trace` is enabled; with the disabled handle
/// this is the exact code path of the untraced variant.
pub fn dpiso_candidates_traced(
    q: &QueryContext<'_>,
    g: &DataContext<'_>,
    rounds: usize,
    trace: &Trace,
) -> (Candidates, BfsTree) {
    let qg = q.graph;
    let mut sets: Vec<Vec<VertexId>> = qg.vertices().map(|u| ldf_set(q, g, u)).collect();
    let root = sparsest_root(q, |u| sets[u as usize].len());
    let tree = BfsTree::build(qg, root);
    let mut m = Membership::new(g.graph, &sets);
    let mut counters = CounterBlock::new();

    'rounds: for round in 0..rounds {
        let round_span = trace.is_enabled().then(|| trace.span("filter_round"));
        let mut pruned_this_round: u64 = 0;
        let reverse = round % 2 == 0;
        let apply_nlf = round == 0;
        let order: Vec<VertexId> = if reverse {
            tree.order.iter().rev().copied().collect()
        } else {
            tree.order.clone()
        };
        let mut changed = false;
        let mut died = false;
        for &u in &order {
            let rank_u = tree.rank[u as usize];
            let against = vertex_mask(qg.neighbors(u).iter().copied().filter(|&u2| {
                let r2 = tree.rank[u2 as usize];
                if reverse {
                    r2 > rank_u
                } else {
                    r2 < rank_u
                }
            }));
            if against == 0 && !apply_nlf {
                continue;
            }
            let cu = &mut sets[u as usize];
            let before = cu.len();
            let gate = apply_nlf.then(|| NlfGate::new(q, g, u));
            m.retain(u, cu, |m, v| {
                gate.as_ref().is_none_or(|gate| nlf_pass(g, gate, v)) && m.covers(v, against)
            });
            changed |= cu.len() != before;
            pruned_this_round += (before - cu.len()) as u64;
            if cu.is_empty() {
                died = true;
                break;
            }
        }
        counters.bump(Counter::FilterRounds);
        counters.add(Counter::CandidatesPruned, pruned_this_round);
        drop(round_span);
        if died {
            break 'rounds;
        }
        if !changed && round > 0 {
            break;
        }
    }
    trace.flush_counters(0, &counters);
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
        let (c, _) = dpiso_candidates(&qc, &gc, DEFAULT_REFINEMENT_ROUNDS);
        for (u, &v) in paper_match().iter().enumerate() {
            assert!(c.get(u as u32).contains(&v), "u{u} lost v{v}");
        }
    }

    #[test]
    fn more_rounds_tighten_or_equal() {
        let q = paper_query();
        let g = paper_data();
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let (c1, _) = dpiso_candidates(&qc, &gc, 1);
        let (c3, _) = dpiso_candidates(&qc, &gc, 3);
        for u in q.vertices() {
            assert!(c3.get(u).len() <= c1.get(u).len());
            for &v in c3.get(u) {
                assert!(c1.get(u).contains(&v));
            }
        }
    }

    #[test]
    fn example_3_4_style_refinement() {
        // The first (reverse-δ) pass applies NLF and prunes against δ-later
        // neighbors; on the fixture the final candidates collapse to the
        // unique match supports.
        let q = paper_query();
        let g = paper_data();
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let (c, _) = dpiso_candidates(&qc, &gc, DEFAULT_REFINEMENT_ROUNDS);
        assert_eq!(c.get(0), &[0]);
        assert_eq!(c.get(1), &[4]);
        assert_eq!(c.get(2), &[5]);
        assert_eq!(c.get(3), &[12]);
    }

    #[test]
    fn zero_rounds_is_ldf() {
        let q = paper_query();
        let g = paper_data();
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let (c0, _) = dpiso_candidates(&qc, &gc, 0);
        let ldf = crate::filter::ldf::ldf_candidates(&qc, &gc);
        for u in q.vertices() {
            assert_eq!(c0.get(u), ldf.get(u));
        }
    }
}
