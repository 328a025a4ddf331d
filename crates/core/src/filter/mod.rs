//! Filtering methods (Section 3.1 of the paper): compute a complete
//! candidate vertex set `C(u)` for every query vertex.
//!
//! All filters preserve **completeness** (Definition 2.2): they only remove
//! data vertices that provably cannot participate in any match. They differ
//! in which necessary condition they apply, in what order, and how many
//! refinement rounds they run:
//!
//! | Filter | Condition | Seed, root | Structure |
//! |---|---|---|---|
//! | [`FilterKind::Ldf`] | label + degree | — | none |
//! | [`FilterKind::Nlf`] | + neighbor label frequencies | — | none |
//! | [`FilterKind::GraphQl`] | profile containment + pseudo subgraph isomorphism (semi-perfect bipartite matching) | NLF | none |
//! | [`FilterKind::Cfl`] | Rule 3.1 top-down generation + bottom-up refinement | generated; [`cfl::select_cfl_root`] | BFS tree |
//! | [`FilterKind::Ceci`] | Rule 3.1 along BFS order, reverse refinement via children | generated; [`common::sparsest_root`] over NLF | BFS tree |
//! | [`FilterKind::DpIso`] | Rule 3.1, `k` alternating directional passes | LDF; [`common::sparsest_root`] over LDF | BFS order (DAG) |
//! | [`FilterKind::Steady`] | Rule 3.1 to fixpoint (baseline upper bound on pruning power) | NLF | none |
//!
//! The five refining filters mirror their sets in one
//! [`common::Membership`] and test Rule 3.1 (or, for GraphQL, the
//! matching) through its words; CFL and CECI share [`common::generate`].

pub mod ceci;
pub mod cfl;
pub mod common;
pub mod dpiso;
pub mod gql;
pub mod ldf;
pub mod nlf;
mod reference;
pub mod steady;

use crate::candidates::Candidates;
use crate::context::{DataContext, QueryContext};
use sm_graph::traversal::BfsTree;
use sm_graph::VertexId;

/// Which filtering method to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FilterKind {
    /// Label-and-degree filtering (baseline; what QuickSI/RI/VF2++ use).
    Ldf,
    /// LDF + neighbor-label-frequency filtering.
    Nlf,
    /// GraphQL: local profile pruning + global pseudo-iso refinement.
    GraphQl,
    /// CFL: BFS-tree top-down generation, bottom-up refinement.
    Cfl,
    /// CECI: BFS-order construction + reverse refinement via tree children.
    Ceci,
    /// DP-iso: LDF seed + k alternating directional refinement passes.
    DpIso,
    /// Fixpoint of Filtering Rule 3.1 — the paper's STEADY baseline.
    Steady,
}

impl FilterKind {
    /// Stable display name used in experiment output (paper abbreviations).
    pub fn name(self) -> &'static str {
        match self {
            FilterKind::Ldf => "LDF",
            FilterKind::Nlf => "NLF",
            FilterKind::GraphQl => "GQL",
            FilterKind::Cfl => "CFL",
            FilterKind::Ceci => "CECI",
            FilterKind::DpIso => "DP",
            FilterKind::Steady => "STEADY",
        }
    }

    /// All filter kinds, in the order the paper's figures list them.
    pub fn all() -> [FilterKind; 7] {
        [
            FilterKind::Ldf,
            FilterKind::Nlf,
            FilterKind::GraphQl,
            FilterKind::Cfl,
            FilterKind::Ceci,
            FilterKind::DpIso,
            FilterKind::Steady,
        ]
    }
}

/// Result of running a filter: candidate sets plus, for the tree-based
/// filters, the BFS tree their auxiliary structure (and ordering method)
/// hangs off.
pub struct FilterOutput {
    /// Per-query-vertex candidate sets.
    pub candidates: Candidates,
    /// BFS tree used during filtering (CFL / CECI / DP-iso), if any.
    pub bfs_tree: Option<BfsTree>,
}

/// Label-only candidate sets — the sound baseline under homomorphism
/// semantics. Every real filter prunes on degree or neighborhood
/// frequency (`d(v) >= d(u)`, NLF counts, refinement rounds), which is
/// only valid when distinct query neighbors need distinct images;
/// homomorphisms may fold them onto one data vertex. Returns `None`
/// when some candidate set is empty.
pub fn label_only_filter(q: &QueryContext<'_>, g: &DataContext<'_>) -> Option<FilterOutput> {
    let sets = (0..q.num_vertices() as VertexId)
        .map(|u| g.graph.vertices_with_label(q.graph.label(u)).to_vec())
        .collect();
    let out = FilterOutput {
        candidates: Candidates::new(sets),
        bfs_tree: None,
    };
    if out.candidates.any_empty() {
        None
    } else {
        Some(out)
    }
}

/// Run the chosen filter. Returns `None` when some candidate set is empty,
/// i.e. the query provably has no match.
pub fn run_filter(
    kind: FilterKind,
    q: &QueryContext<'_>,
    g: &DataContext<'_>,
) -> Option<FilterOutput> {
    run_filter_traced(kind, q, g, &sm_runtime::Trace::disabled())
}

/// [`run_filter`] with an observability handle: round-based filters
/// (currently DP-iso) record per-round spans, pruned-candidate counters
/// and `filter_round` events into `trace`. Other filters run unchanged —
/// their single pass is already covered by the pipeline's `filter` span.
pub fn run_filter_traced(
    kind: FilterKind,
    q: &QueryContext<'_>,
    g: &DataContext<'_>,
    trace: &sm_runtime::Trace,
) -> Option<FilterOutput> {
    let out = match kind {
        FilterKind::Ldf => FilterOutput {
            candidates: ldf::ldf_candidates(q, g),
            bfs_tree: None,
        },
        FilterKind::Nlf => FilterOutput {
            candidates: nlf::nlf_candidates(q, g),
            bfs_tree: None,
        },
        FilterKind::GraphQl => FilterOutput {
            candidates: gql::gql_candidates(q, g, gql::GqlParams::default(), 0),
            bfs_tree: None,
        },
        FilterKind::Cfl => {
            let (c, t) = cfl::cfl_candidates(q, g);
            FilterOutput {
                candidates: c,
                bfs_tree: Some(t),
            }
        }
        FilterKind::Ceci => {
            let (c, t) = ceci::ceci_candidates(q, g);
            FilterOutput {
                candidates: c,
                bfs_tree: Some(t),
            }
        }
        FilterKind::DpIso => {
            let (c, t) =
                dpiso::dpiso_candidates_traced(q, g, dpiso::DEFAULT_REFINEMENT_ROUNDS, trace);
            FilterOutput {
                candidates: c,
                bfs_tree: Some(t),
            }
        }
        FilterKind::Steady => FilterOutput {
            candidates: steady::steady_candidates(q, g),
            bfs_tree: None,
        },
    };
    if out.candidates.any_empty() {
        None
    } else {
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_graph::builder::graph_from_edges;

    #[test]
    fn names_and_all() {
        assert_eq!(FilterKind::all().len(), 7);
        assert_eq!(FilterKind::GraphQl.name(), "GQL");
        assert_eq!(FilterKind::Steady.name(), "STEADY");
    }

    #[test]
    fn empty_candidates_reported_as_none() {
        // query label 5 never occurs in data
        let q = graph_from_edges(&[5, 5], &[(0, 1)]);
        let g = graph_from_edges(&[0, 0], &[(0, 1)]);
        let qc = crate::QueryContext::new(&q);
        let gc = crate::DataContext::new(&g);
        for kind in FilterKind::all() {
            assert!(run_filter(kind, &qc, &gc).is_none(), "{}", kind.name());
        }
    }
}
