//! GraphQL's filtering (He & Singh, SIGMOD 2008), as described in
//! Section 3.1.1 of the study.
//!
//! Two steps:
//!
//! 1. **Local pruning** — the profile of `u` (sorted labels of `u` and its
//!    neighbors within distance `r`) must be a sub-multiset of the profile
//!    of `v`. With the paper's default `r = 1` this is LDF plus
//!    neighbor-label multiset containment (i.e. the NLF dominance test).
//! 2. **Global refinement** — the pseudo subgraph isomorphism test: for
//!    `v ∈ C(u)`, build the bipartite graph between `N(u)` and `N(v)` with
//!    an edge `(u', v')` iff `v' ∈ C(u')`, and demand a *semi-perfect*
//!    matching (all of `N(u)` matched). Repeated `k` times (default 1).
//!
//! The semi-perfect matching is what distinguishes GraphQL's Observation
//! 3.2 from the weaker Observation 3.1 used by CFL/CECI/DP-iso: it
//! additionally enforces that the neighbor candidates can be chosen
//! *distinctly*, which matters when candidate sets overlap (few labels).
//!
//! One refinement sweep costs `Σ_u Σ_{v ∈ C(u)} deg(v)` adjacency reads
//! (plus the matchings): `N(v)` is walked once per candidate, reading the
//! [`Membership`] words. Most tests end inside that walk: handing each
//! data neighbor greedily to an unmatched query neighbor already builds a
//! matching, and only when greedy strands a non-empty row does the test
//! rebuild the rows and search augmenting paths.
//!
//! **Leaves left unrefined.** [`gql_candidates`] skips the query vertices
//! of its `unrefined` mask, whose sets stay at their NLF result.
//! [`crate::Pipeline::plan`] passes the non-root leaves (degree-1 query
//! vertices) of the recommended RI plans, whose static `Intersect` search
//! reads a leaf `u` with neighbour `p` only through `p`'s `A` rows. Its
//! refinement is unobservable there:
//!
//! 1. `u`'s local candidates are `A[p→u](M(p)) = N(M(p)) ∩ C(u)`, and
//!    `M(p)` is a surviving candidate of `p`.
//! 2. So every `w` in that row has a neighbour in `C(p)` in every sweep
//!    (sets only shrink) and passes `u`'s test: the row is unchanged.
//! 3. Likewise, while `x ∈ C(p)` is tested, each `w ∈ N(x) ∩ NLF(u)` is
//!    still in `C(u)`: `p`'s verdicts, and so every other set, are too.

use crate::candidates::Candidates;
use crate::context::{DataContext, QueryContext};
use crate::filter::common::{ldf_nlf_sets, vertex_mask, Membership};
use crate::util::BipartiteMatcher;
use sm_graph::VertexId;

/// Tunables of the GraphQL filter.
#[derive(Clone, Copy, Debug)]
pub struct GqlParams {
    /// Number of global-refinement sweeps (paper default: 1).
    pub refinement_rounds: usize,
}

impl Default for GqlParams {
    fn default() -> Self {
        GqlParams {
            refinement_rounds: 1,
        }
    }
}

/// GraphQL candidate sets: local pruning then `k` rounds of global
/// refinement of every query vertex outside the `unrefined` mask (bit `u`
/// set: `C(u)` stays at its NLF result; see the module doc for when that
/// is exact).
pub fn gql_candidates(
    q: &QueryContext<'_>,
    g: &DataContext<'_>,
    params: GqlParams,
    unrefined: u64,
) -> Candidates {
    // Local pruning with r = 1 profiles. Refinement shrinks these raw sets
    // in place; they are frozen into the CSR arena only on return.
    let mut sets = ldf_nlf_sets(q, g);
    if sets.iter().any(|s| s.is_empty()) {
        return Candidates::new(sets);
    }
    // Global refinement, with the words kept in sync as sets shrink.
    let mut m = Membership::new(g.graph, &sets);
    let mut matcher = BipartiteMatcher::default();
    for _ in 0..params.refinement_rounds {
        let mut changed = false;
        for u in q.graph.vertices().filter(|&u| unrefined >> u & 1 == 0) {
            let qn_mask = vertex_mask(q.graph.neighbors(u).iter().copied());
            let set = &mut sets[u as usize];
            let before = set.len();
            m.retain(u, set, |m, v| {
                let gn = g.graph.neighbors(v);
                semi_perfect_matching_exists(gn, m.words(), qn_mask, &mut matcher)
            });
            changed |= set.len() != before;
            if set.is_empty() {
                return Candidates::new(sets);
            }
        }
        if !changed {
            break;
        }
    }
    Candidates::new(sets)
}

/// Whether the bipartite graph between `N(u)` (the bits of `qn_mask`) and
/// `N(v) = gn` (edges: `(u', v')` with `v' ∈ C(u')`) admits a matching
/// covering all of `N(u)`.
fn semi_perfect_matching_exists(
    gn: &[VertexId],
    member: &[u64],
    qn_mask: u64,
    matcher: &mut BipartiteMatcher,
) -> bool {
    // Greedy pass: hand each data neighbor to the lowest still-unmatched
    // query neighbor it is a candidate of. Whatever it builds is a valid
    // matching, so covering `N(u)` settles the test (usually long before
    // `N(v)` is exhausted); an empty row settles it the other way.
    let (mut matched, mut nonempty_rows) = (0u64, 0u64);
    for &v2 in gn {
        if matched == qn_mask {
            return true;
        }
        let bits = member[v2 as usize] & qn_mask;
        nonempty_rows |= bits;
        let free = bits & !matched;
        matched |= free & free.wrapping_neg();
    }
    if matched == qn_mask {
        return true;
    }
    if nonempty_rows != qn_mask {
        return false;
    }
    // Greedy got stuck although every row has an edge: only augmenting
    // paths can tell (query neighbors sharing candidates). A query
    // neighbor's row is its rank among the bits of `qn_mask`.
    matcher.reset(qn_mask.count_ones() as usize, gn.len());
    for (j, &v2) in gn.iter().enumerate() {
        let mut bits = member[v2 as usize] & qn_mask;
        while bits != 0 {
            let bit = bits & bits.wrapping_neg();
            matcher.add_edge((qn_mask & (bit - 1)).count_ones() as usize, j as u32);
            bits ^= bit;
        }
    }
    matcher.covers_left()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::reference;
    use crate::fixtures::{paper_data, paper_match, paper_query};
    use crate::{DataContext, QueryContext};
    use sm_graph::builder::graph_from_edges;
    use sm_graph::gen::query::{extract_query, Density};
    use sm_graph::gen::random::{assign_labels_skewed, assign_labels_zipf};
    use sm_graph::gen::rmat::{rmat_graph, RmatParams};
    use sm_runtime::rng::Rng64;

    #[test]
    fn one_pass_refinement_equals_reference() {
        let base = rmat_graph(1500, 8.0, 3, RmatParams::PAPER, 7);
        let graphs = [
            assign_labels_zipf(&base, 6, 1.0, 11),
            assign_labels_skewed(&base, 4, 0.7, 13),
            base,
        ];
        // Shapes the refinement special-cases, each of which must occur.
        let (mut leaves, mut repeated_labels, mut pruned) = (0, 0, 0);
        for (gi, g) in graphs.iter().enumerate() {
            let gc = DataContext::new(g);
            let mut rng = Rng64::seed_from_u64(100 + gi as u64);
            for size in [4, 6, 9, 12, 16] {
                for density in [Density::Sparse, Density::Any] {
                    let Some(q) = (0..40).find_map(|_| extract_query(g, size, density, &mut rng))
                    else {
                        continue;
                    };
                    let qc = QueryContext::new(&q);
                    for u in q.vertices() {
                        let mut labels: Vec<_> =
                            q.neighbors(u).iter().map(|&u2| q.label(u2)).collect();
                        labels.sort_unstable();
                        leaves += usize::from(labels.len() == 1);
                        repeated_labels += usize::from(labels.windows(2).any(|w| w[0] == w[1]));
                    }
                    let local = crate::filter::nlf::nlf_candidates(&qc, &gc);
                    for refinement_rounds in [1, 2, 4] {
                        let params = GqlParams { refinement_rounds };
                        let got = gql_candidates(&qc, &gc, params, 0);
                        assert_eq!(
                            got,
                            reference::gql(&qc, &gc, params),
                            "graph {gi} size {size} {density:?} rounds {refinement_rounds}"
                        );
                        pruned += local.total() - got.total();
                    }
                }
            }
        }
        assert!(leaves > 0 && repeated_labels > 0 && pruned > 0);
    }

    #[test]
    fn greedy_dead_end_falls_back_to_augmenting_paths() {
        // u0's neighbors u1, u2 share a label; u2 also needs an l2 neighbor.
        let q = graph_from_edges(&[0, 1, 1, 2], &[(0, 1), (0, 2), (2, 3)]);
        // v0's first neighbor w1 is a candidate of both (it has the l2
        // neighbor x), its second, w2, of u1 only. Greedy hands w1 to u1 and
        // strands u2; the matching u1→w2, u2→w1 exists.
        let g = graph_from_edges(&[0, 1, 1, 2], &[(0, 1), (0, 2), (1, 3)]);
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let c = gql_candidates(&qc, &gc, GqlParams::default(), 0);
        assert_eq!(c.get(0), &[0]);
        assert_eq!(c.get(1), &[1, 2]);
        assert_eq!(c.get(2), &[1]);
        assert_eq!(c, reference::gql(&qc, &gc, GqlParams::default()));
        // The Hall-violating twin (both neighbors need w1) agrees too.
        let q = graph_from_edges(&[0, 1, 1, 2, 2], &[(0, 1), (0, 2), (1, 3), (2, 4)]);
        let qc = QueryContext::new(&q);
        let want = reference::gql(&qc, &gc, GqlParams::default());
        assert_eq!(gql_candidates(&qc, &gc, GqlParams::default(), 0), want);
        assert!(want.get(0).is_empty());
    }

    #[test]
    fn completeness_on_fixture() {
        let q = paper_query();
        let g = paper_data();
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let c = gql_candidates(&qc, &gc, GqlParams::default(), 0);
        for (u, &v) in paper_match().iter().enumerate() {
            assert!(c.get(u as u32).contains(&v), "u{u} lost v{v}");
        }
    }

    #[test]
    fn global_refinement_prunes_example_3_1() {
        // Example 3.1 of the paper: v1 in C(u2) is removed because the
        // bipartite graph between N(u2) and N(v1) has no semi-perfect
        // matching. In our fixture: C(u2) after refinement excludes v1
        // (v1's only D-neighbor options are missing) and v3.
        let q = paper_query();
        let g = paper_data();
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let c = gql_candidates(&qc, &gc, GqlParams::default(), 0);
        // u2 is the C-labeled query vertex adjacent to u0, u1, u3.
        assert!(c.get(2).contains(&5));
        assert!(
            !c.get(2).contains(&1),
            "v1 should be pruned: {:?}",
            c.get(2)
        );
    }

    #[test]
    fn semi_perfect_matching_distinctness() {
        // Hall violation that only Observation 3.2's condition (2) catches:
        // u0 has two same-labeled neighbors u1, u2 that must map to
        // *distinct* data vertices, but v0 offers only one qualifying
        // neighbor (w1). Rule 3.1 keeps v0 (both S_{u'} are non-empty);
        // GraphQL's semi-perfect matching prunes it.
        //
        // q: u0(l0)-u1(l1)-u3(l2), u0-u2(l1)-u4(l2)
        let q = graph_from_edges(&[0, 1, 1, 2, 2], &[(0, 1), (0, 2), (1, 3), (2, 4)]);
        // G: v0(l0)-w1(l1)-x(l2), v0-w2(l1). w2 is a leaf, so only w1 is a
        // candidate for u1 and for u2.
        let g = graph_from_edges(&[0, 1, 1, 2], &[(0, 1), (0, 2), (1, 3)]);
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let c = gql_candidates(&qc, &gc, GqlParams::default(), 0);
        assert!(c.get(0).is_empty(), "v0 should be pruned: {:?}", c.get(0));
        // sanity: the STEADY (Rule 3.1 fixpoint) baseline keeps v0
        let steady = crate::filter::steady::steady_candidates(&qc, &gc);
        assert!(steady.get(0).contains(&0));
    }

    #[test]
    fn more_rounds_never_add_candidates() {
        let q = paper_query();
        let g = paper_data();
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let c1 = gql_candidates(
            &qc,
            &gc,
            GqlParams {
                refinement_rounds: 1,
            },
            0,
        );
        let c4 = gql_candidates(
            &qc,
            &gc,
            GqlParams {
                refinement_rounds: 4,
            },
            0,
        );
        for u in q.vertices() {
            for &v in c4.get(u) {
                assert!(c1.get(u).contains(&v));
            }
        }
    }
}
