//! Ordering methods (Section 3.2 of the paper): pick the matching order
//! `φ`, a permutation of `V(q)`.
//!
//! | Method | Strategy |
//! |---|---|
//! | [`OrderKind::QuickSi`] | infrequent-edge first over label statistics of `G` |
//! | [`OrderKind::GraphQl`] | left-deep join: greedy min `\|C(u)\|` over the connected frontier |
//! | [`OrderKind::Cfl`] | path-based: BFS-tree root-to-leaf paths ranked by estimated embedding counts |
//! | [`OrderKind::Ceci`] | the BFS traversal order itself |
//! | [`OrderKind::Ri`] | structure-only greedy maximizing backward neighbors, with RI's tie-breakers |
//! | [`OrderKind::Vf2pp`] | BFS level order, within levels max backward neighbors / degree / label rarity |
//! | [`OrderKind::Adaptive`] | DP-iso: vertex chosen at runtime (engine-side); the static part is the BFS order `δ` that fixes the DAG |
//! | [`OrderKind::Fixed`] | externally supplied order (spectrum analysis) |
//!
//! Every produced order is **connected**: each vertex after the first has
//! at least one backward neighbor. The engines rely on this to bound local
//! candidates.

pub mod ceci;
pub mod cfl;
pub mod gql;
pub mod qsi;
pub mod random;
pub mod ri;
pub mod vf2pp;

use crate::candidate_space::CandidateSpace;
use crate::candidates::Candidates;
use crate::context::{DataContext, QueryContext};
use sm_graph::traversal::BfsTree;
use sm_graph::types::NO_VERTEX;
use sm_graph::VertexId;

/// Which ordering method to run.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum OrderKind {
    /// QuickSI's infrequent-edge-first order.
    QuickSi,
    /// GraphQL's left-deep join (min candidate count) order.
    GraphQl,
    /// CFL's path-based order.
    Cfl,
    /// CECI's BFS order.
    Ceci,
    /// RI's structure-only greedy order.
    Ri,
    /// VF2++'s BFS-level order.
    Vf2pp,
    /// DP-iso's adaptive runtime ordering (static part: BFS order `δ`).
    Adaptive,
    /// An externally supplied matching order (spectrum analysis).
    Fixed(Vec<VertexId>),
}

impl OrderKind {
    /// Stable display name (paper abbreviations).
    pub fn name(&self) -> &'static str {
        match self {
            OrderKind::QuickSi => "QSI",
            OrderKind::GraphQl => "GQL",
            OrderKind::Cfl => "CFL",
            OrderKind::Ceci => "CECI",
            OrderKind::Ri => "RI",
            OrderKind::Vf2pp => "VF2PP",
            OrderKind::Adaptive => "DP",
            OrderKind::Fixed(_) => "FIXED",
        }
    }

    /// The seven named ordering methods compared in Figure 11.
    pub fn all_static() -> Vec<OrderKind> {
        vec![
            OrderKind::QuickSi,
            OrderKind::GraphQl,
            OrderKind::Cfl,
            OrderKind::Ceci,
            OrderKind::Ri,
            OrderKind::Vf2pp,
            OrderKind::Adaptive,
        ]
    }
}

/// Everything an ordering method may consult.
pub struct OrderInput<'a> {
    /// Query context.
    pub q: &'a QueryContext<'a>,
    /// Data context.
    pub g: &'a DataContext<'a>,
    /// Candidate sets from the filtering step.
    pub candidates: &'a Candidates,
    /// BFS tree from a tree-based filter, if one ran.
    pub bfs_tree: Option<&'a BfsTree>,
    /// Auxiliary structure, if already built.
    pub space: Option<&'a CandidateSpace>,
}

/// Compute the matching order for `kind`.
pub fn run_order(kind: &OrderKind, input: &OrderInput<'_>) -> Vec<VertexId> {
    match kind {
        OrderKind::QuickSi => qsi::qsi_order(input),
        OrderKind::GraphQl => gql::gql_order(input),
        OrderKind::Cfl => cfl::cfl_order(input),
        OrderKind::Ceci => ceci::ceci_order(input),
        OrderKind::Ri => ri::ri_order(input),
        OrderKind::Vf2pp => vf2pp::vf2pp_order(input),
        // The adaptive strategy consumes the BFS order δ as its DAG spine.
        OrderKind::Adaptive => ceci::bfs_delta_order(input),
        OrderKind::Fixed(order) => order.clone(),
    }
}

/// Rewrite a connected static `order` so it never roots at a leaf and
/// matches every leaf last, the way CFL's core-forest-leaf and DP-iso's
/// leaf decompositions do: the leaves then form the tail of `φ`, which a
/// count-only run counts as one product instead of walking it (see
/// [`crate::plan::QueryPlan::suffix_start`]).
///
/// A stable partition: every degree-1 vertex moves, in its relative
/// order, behind all the others. The root becomes the first non-leaf of
/// `order`, and the result stays connected when `order` is. A leaf's one
/// neighbour is a non-leaf (unless the query is K₂, whose order is kept),
/// and a non-leaf whose only backward neighbour was a leaf is the
/// neighbour of a leaf root, which it replaces. An `order` with no leaves
/// is returned unchanged.
pub fn leaves_last(q: &sm_graph::Graph, order: &[VertexId]) -> Vec<VertexId> {
    let mut out = order.to_vec();
    out.sort_by_key(|&u| q.degree(u) == 1);
    out
}

/// Whether `order` is a permutation of `V(q)` in which every vertex after
/// the first has a backward neighbor (connected prefix).
pub fn is_connected_order(q: &sm_graph::Graph, order: &[VertexId]) -> bool {
    let n = q.num_vertices();
    if order.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for (i, &u) in order.iter().enumerate() {
        if (u as usize) >= n || seen[u as usize] {
            return false;
        }
        if i > 0 && !q.neighbors(u).iter().any(|&u2| seen[u2 as usize]) {
            return false;
        }
        seen[u as usize] = true;
    }
    true
}

/// Backward neighbors of every vertex under `order` (paper notation
/// `N^φ_+(u)`), indexed by query vertex id.
pub fn backward_neighbors(q: &sm_graph::Graph, order: &[VertexId]) -> Vec<Vec<VertexId>> {
    let n = q.num_vertices();
    let mut rank = vec![usize::MAX; n];
    for (i, &u) in order.iter().enumerate() {
        rank[u as usize] = i;
    }
    let mut out = vec![Vec::new(); n];
    for &u in order {
        let mut b: Vec<VertexId> = q
            .neighbors(u)
            .iter()
            .copied()
            .filter(|&u2| rank[u2 as usize] < rank[u as usize])
            .collect();
        // Sort by match time so engines can pick the most recent / first.
        b.sort_by_key(|&u2| rank[u2 as usize]);
        out[u as usize] = b;
    }
    out
}

/// Derive per-vertex pivot parents from an order: the earliest-matched
/// backward neighbor (or a supplied tree parent when it is backward).
///
/// This is the one canonical derivation — [`crate::plan::QueryPlan`] calls
/// it at plan-build time and the engines consume the result; none of them
/// re-derive parents per run.
pub fn derive_parents(
    q: &sm_graph::Graph,
    order: &[VertexId],
    tree: Option<&BfsTree>,
) -> Vec<VertexId> {
    let n = q.num_vertices();
    let mut rank = vec![usize::MAX; n];
    for (i, &u) in order.iter().enumerate() {
        rank[u as usize] = i;
    }
    let mut parent = vec![NO_VERTEX; n];
    for &u in order {
        if rank[u as usize] == 0 {
            continue;
        }
        // Prefer the BFS-tree parent when it precedes u in the order (the
        // TreeIndex method depends on that edge list existing).
        if let Some(t) = tree {
            let p = t.parent[u as usize];
            if p != NO_VERTEX && rank[p as usize] < rank[u as usize] {
                parent[u as usize] = p;
                continue;
            }
        }
        parent[u as usize] = q
            .neighbors(u)
            .iter()
            .copied()
            .filter(|&u2| rank[u2 as usize] < rank[u as usize])
            .min_by_key(|&u2| rank[u2 as usize])
            .unwrap_or(NO_VERTEX);
    }
    parent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{run_filter, FilterKind};
    use crate::fixtures::{paper_data, paper_query};

    #[test]
    fn all_methods_emit_connected_orders() {
        let q = paper_query();
        let g = paper_data();
        let qc = crate::QueryContext::new(&q);
        let gc = crate::DataContext::new(&g);
        let f = run_filter(FilterKind::GraphQl, &qc, &gc).unwrap();
        let input = OrderInput {
            q: &qc,
            g: &gc,
            candidates: &f.candidates,
            bfs_tree: f.bfs_tree.as_ref(),
            space: None,
        };
        for kind in OrderKind::all_static() {
            let order = run_order(&kind, &input);
            assert!(is_connected_order(&q, &order), "{}: {order:?}", kind.name());
        }
    }

    #[test]
    fn backward_neighbors_of_natural_order() {
        let q = paper_query();
        let order = vec![0, 1, 2, 3];
        let b = backward_neighbors(&q, &order);
        assert!(b[0].is_empty());
        assert_eq!(b[1], vec![0]);
        assert_eq!(b[2], vec![0, 1]);
        assert_eq!(b[3], vec![1, 2]);
    }

    #[test]
    fn derive_parents_prefers_tree_parent() {
        let q = paper_query();
        let tree = BfsTree::build(&q, 0);
        let order = vec![0u32, 1, 2, 3];
        let p = derive_parents(&q, &order, Some(&tree));
        assert_eq!(p[0], NO_VERTEX);
        assert_eq!(p[1], 0);
        assert_eq!(p[2], 0);
        assert_eq!(p[3], 1); // tree parent of u3 is u1
                             // without the tree, earliest backward neighbor
        let p2 = derive_parents(&q, &order, None);
        assert_eq!(p2[3], 1);
    }

    /// A random connected query on `n` vertices: a random tree plus
    /// `extra` random edges.
    fn random_query(n: usize, extra: usize, rng: &mut sm_runtime::rng::Rng64) -> sm_graph::Graph {
        let mut edges: Vec<(VertexId, VertexId)> = (1..n as VertexId)
            .map(|v| (rng.gen_range(0..v), v))
            .collect();
        for _ in 0..extra {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a != b {
                edges.push((a as VertexId, b as VertexId));
            }
        }
        sm_graph::builder::graph_from_edges(&vec![0; n], &edges)
    }

    /// Whether every degree-1 vertex of `order` comes after every other.
    fn leaves_trail(q: &sm_graph::Graph, order: &[VertexId]) -> bool {
        order
            .windows(2)
            .all(|w| q.degree(w[0]) != 1 || q.degree(w[1]) == 1)
    }

    #[test]
    fn leaves_last_is_a_connected_order_rooted_in_a_non_leaf() {
        let mut rng = sm_runtime::rng::Rng64::seed_from_u64(33);
        for case in 0..400 {
            let n = rng.gen_range(1..13usize);
            let q = random_query(n, rng.gen_range(0..n), &mut rng);
            let phi = random::random_connected_order(&q, &mut rng);
            let out = leaves_last(&q, &phi);
            let why = format!("case {case}: {phi:?} -> {out:?}");
            assert!(is_connected_order(&q, &out), "{why}");
            if n <= 2 {
                assert_eq!(out, phi, "{why}");
                continue;
            }
            assert!(q.degree(out[0]) >= 2, "leaf root: {why}");
            assert!(leaves_trail(&q, &out), "{why}");
            // Leaves and non-leaves each keep their order in φ.
            for leaf in [false, true] {
                let part = |o: &[VertexId]| -> Vec<VertexId> {
                    o.iter()
                        .copied()
                        .filter(|&u| (q.degree(u) == 1) == leaf)
                        .collect()
                };
                assert_eq!(part(&out), part(&phi), "{why}");
            }
        }
    }

    #[test]
    fn leaves_last_on_fixed_shapes() {
        use sm_graph::builder::graph_from_edges;
        // No leaves (the paper's query, a 5-cycle with a chord): every
        // connected order comes back unchanged.
        let pq = paper_query();
        assert_eq!(leaves_last(&pq, &[3, 1, 0, 2]), vec![3, 1, 0, 2]);
        let cycle = graph_from_edges(&[0; 5], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]);
        let mut rng = sm_runtime::rng::Rng64::seed_from_u64(5);
        for phi in random::sample_orders(&cycle, 50, &mut rng) {
            assert_eq!(leaves_last(&cycle, &phi), phi);
        }
        // K₁ and K₂ are kept.
        assert_eq!(leaves_last(&graph_from_edges(&[0], &[]), &[0]), vec![0]);
        let k2 = graph_from_edges(&[0, 1], &[(0, 1)]);
        assert_eq!(leaves_last(&k2, &[1, 0]), vec![1, 0]);
        // Star with centre 2 and leaves 0, 1, 3, 4: a leaf-rooted order
        // moves the centre to the front and keeps the leaves' order.
        let star = graph_from_edges(&[0; 5], &[(2, 0), (2, 1), (2, 3), (2, 4)]);
        assert_eq!(leaves_last(&star, &[3, 2, 4, 0, 1]), vec![2, 3, 4, 0, 1]);
        assert_eq!(leaves_last(&star, &[2, 1, 0, 4, 3]), vec![2, 1, 0, 4, 3]);
        // Path 0-1-2-3 rooted at leaf 0: root 1, then 2, then the leaves.
        let path = graph_from_edges(&[0; 4], &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(leaves_last(&path, &[0, 1, 2, 3]), vec![1, 2, 0, 3]);
        assert_eq!(leaves_last(&path, &[3, 2, 1, 0]), vec![2, 1, 3, 0]);
    }

    #[test]
    fn connected_order_validation() {
        let q = paper_query();
        assert!(is_connected_order(&q, &[0, 1, 2, 3]));
        assert!(is_connected_order(&q, &[3, 1, 0, 2]));
        assert!(!is_connected_order(&q, &[0, 3, 1, 2])); // u3 not adjacent u0
        assert!(!is_connected_order(&q, &[0, 1, 2])); // too short
        assert!(!is_connected_order(&q, &[0, 0, 1, 2])); // duplicate
    }
}
