//! [`QueryPlan`]: the compile-once plan IR of the framework.
//!
//! Following the "compile once, execute many" discipline of query-plan
//! systems, everything an enumeration run needs that does not change
//! between runs is derived exactly once here — the filter's candidate
//! sets (as a flat CSR arena), the matching order `φ`, the per-vertex
//! pivot parents and backward/forward neighbor lists, VF2++'s forward
//! label requirements, DP-iso's weight array, the independent suffix a
//! count-only run counts in one step, and the [`CandidateSpace`] edge
//! views. [`crate::exec::Executor`] then runs the plan sequentially or
//! across workers; every parallel worker shares the same `&QueryPlan`
//! immutably, and no engine re-derives any of it per run.

use crate::candidate_space::CandidateSpace;
use crate::candidates::Candidates;
use crate::enumerate::{Injectivity, LcMethod, MatchConfig};
use crate::order;
use sm_graph::traversal::BfsTree;
use sm_graph::{Graph, Label, VertexId};
use std::time::Duration;

/// Per-query-vertex adjacency flattened into a CSR (offsets + flat ids)
/// arena, mirroring the layout of [`Candidates`].
#[derive(Clone, Debug, Default)]
struct VertexLists {
    offsets: Vec<u32>,
    items: Vec<VertexId>,
}

impl VertexLists {
    fn from_lists(lists: &[Vec<VertexId>]) -> Self {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let mut items = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        offsets.push(0u32);
        for l in lists {
            items.extend_from_slice(l);
            offsets.push(items.len() as u32);
        }
        VertexLists { offsets, items }
    }

    #[inline]
    fn get(&self, u: VertexId) -> &[VertexId] {
        let u = u as usize;
        &self.items[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }
}

/// A compiled, immutable plan for one `(query, config)` pair.
///
/// Built once per pipeline run by [`crate::Pipeline::plan`] (or assembled
/// directly via [`QueryPlan::assemble`] when the caller brings its own
/// candidates/order) and executed any number of times — sequentially,
/// with a caller-owned [`crate::enumerate::scratch::Scratch`], or shared
/// by reference across the workers of a parallel run.
pub struct QueryPlan {
    /// The query graph (owned, so the plan is self-contained and can
    /// outlive the caller's borrow — the prerequisite for plan caching).
    query: Graph,
    /// Local-candidate computation method under the static order.
    pub method: LcMethod,
    /// Whether the engine picks the next vertex adaptively (DP-iso)
    /// instead of following `order`.
    pub adaptive: bool,
    /// Effective run configuration (pipeline flags folded in).
    pub config: MatchConfig,
    /// Candidate sets from the filtering step (flat CSR arena).
    pub candidates: Candidates,
    /// The query vertex whose candidates were cut to the shard's owned
    /// vertices ([`crate::DataContext::with_owned`]), if any. `C(anchor)`
    /// is then no longer implied by label and degree, so
    /// [`LcMethod::Direct`], which scans `N(parent)`, checks it.
    pub(crate) anchor: Option<VertexId>,
    /// Matching order `φ` (the BFS order `δ` for adaptive plans).
    order: Vec<VertexId>,
    /// Pivot parent per query vertex (`NO_VERTEX` at the root).
    parents: Vec<VertexId>,
    /// Backward neighbors `N^φ_+(u)` per query vertex, sorted by match
    /// time. For adaptive plans these are exactly the DAG parents.
    backward: VertexLists,
    /// Forward (order-later) neighbors per query vertex — the DAG
    /// children driving adaptive extendability.
    forward: VertexLists,
    /// VF2++'s forward label requirements (empty unless
    /// `config.vf2pp_rule`).
    vf2pp_req: Vec<Vec<(Label, u32)>>,
    /// Per query vertex, the other query vertices with the same label as
    /// a bitset: only their images can lie in `C(u)`, so a counted
    /// suffix vertex whose mask is empty needs no collision test.
    same_label: Vec<u64>,
    /// Start `s` of the independent suffix `φ[s..n]` a count-only run
    /// counts in one step (see [`QueryPlan::suffix_start`]).
    suffix_start: usize,
    /// The suffix vertices that share their label with another suffix
    /// vertex (under isomorphism; none otherwise): the same-label pairs
    /// the count corrects for.
    suffix_pairs: u64,
    /// Auxiliary structure `A`, when the method (or adaptive order)
    /// needs one.
    pub space: Option<CandidateSpace>,
    /// BFS tree fixing `δ` (tree-based filters; always present on
    /// adaptive plans).
    pub tree: Option<BfsTree>,
    /// DP-iso's weight array `W[u][pos]` (empty unless adaptive).
    pub weights: Vec<Vec<f64>>,
    /// Time spent in the filtering step.
    pub filter_time: Duration,
    /// Time spent computing the matching order.
    pub order_time: Duration,
    /// Time spent building the auxiliary structure and plan tables.
    pub build_time: Duration,
}

impl QueryPlan {
    /// Assemble a plan from preprocessed parts, deriving every
    /// order-dependent table (parents, backward/forward lists, VF2++
    /// requirements, adaptive weights) through the canonical
    /// implementations in [`crate::order`].
    ///
    /// Requirements (asserted): `order` is a permutation of `V(q)`;
    /// space-backed methods come with a space; adaptive plans come with
    /// both a fully built space and the BFS tree whose order equals
    /// `order`.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        q: &Graph,
        candidates: Candidates,
        order: Vec<VertexId>,
        tree: Option<BfsTree>,
        space: Option<CandidateSpace>,
        method: LcMethod,
        config: MatchConfig,
        adaptive: bool,
    ) -> QueryPlan {
        let n = q.num_vertices();
        assert_eq!(order.len(), n, "order must cover every query vertex");
        assert_eq!(candidates.num_query_vertices(), n);
        if method.needs_space() || adaptive {
            assert!(
                space.is_some(),
                "{:?} requires a CandidateSpace",
                if adaptive {
                    "adaptive".to_string()
                } else {
                    format!("{method:?}")
                }
            );
        }
        if adaptive {
            let t = tree.as_ref().expect("adaptive plans require a BFS tree");
            assert_eq!(
                order, t.order,
                "adaptive plans use the tree's BFS order δ as the matching order"
            );
        }
        // See enumerate::failing_sets: the emptyset class is unsound when
        // LC depends on more than the backward neighbors' mappings.
        assert!(
            !(config.failing_sets && config.vf2pp_rule),
            "failing sets are incompatible with VF2++'s extra runtime rule"
        );
        // Failing-set classes and the VF2++ rule both reason about
        // injectivity conflicts; neither is sound under the relaxed
        // (homomorphism / edge-injective) modes. Callers compiling a
        // relaxed-mode plan must disable them (the service does so
        // automatically).
        let iso = config.semantics.injectivity == Injectivity::Isomorphism;
        assert!(
            iso || !config.failing_sets,
            "failing sets require isomorphism semantics"
        );
        assert!(
            iso || !config.vf2pp_rule,
            "the VF2++ rule requires isomorphism semantics"
        );

        let parents = order::derive_parents(q, &order, tree.as_ref());
        let backward_lists = order::backward_neighbors(q, &order);
        let forward_lists = forward_neighbors(q, &order);
        let vf2pp_req = if config.vf2pp_rule {
            forward_label_requirements(q, &order)
        } else {
            vec![Vec::new(); n]
        };
        let weights = if adaptive {
            weight_array(
                q,
                &candidates,
                space.as_ref().expect("checked above"),
                tree.as_ref().expect("checked above"),
            )
        } else {
            Vec::new()
        };
        let same_label = same_label_masks(q);
        let (suffix_start, suffix_pairs) = if adaptive {
            (n.saturating_sub(1), 0)
        } else {
            independent_suffix(q, &order, &same_label, config.semantics.injectivity)
        };
        QueryPlan {
            query: q.clone(),
            method,
            adaptive,
            config,
            candidates,
            anchor: None,
            order,
            parents,
            backward: VertexLists::from_lists(&backward_lists),
            forward: VertexLists::from_lists(&forward_lists),
            vf2pp_req,
            same_label,
            suffix_start,
            suffix_pairs,
            space,
            tree,
            weights,
            filter_time: Duration::ZERO,
            order_time: Duration::ZERO,
            build_time: Duration::ZERO,
        }
    }

    /// The query graph this plan was compiled for.
    #[inline]
    pub fn query(&self) -> &Graph {
        &self.query
    }

    /// Number of query vertices.
    #[inline]
    pub fn num_query_vertices(&self) -> usize {
        self.order.len()
    }

    /// The matching order `φ`.
    #[inline]
    pub fn order(&self) -> &[VertexId] {
        &self.order
    }

    /// The first vertex of the matching order.
    #[inline]
    pub fn root(&self) -> VertexId {
        self.order[0]
    }

    /// Pivot parents per query vertex.
    #[inline]
    pub fn parents(&self) -> &[VertexId] {
        &self.parents
    }

    /// Backward neighbors of `u` under `φ`, sorted by match time (the
    /// DAG parents on adaptive plans).
    #[inline]
    pub fn backward(&self, u: VertexId) -> &[VertexId] {
        self.backward.get(u)
    }

    /// Forward neighbors of `u` under `φ` (the DAG children on adaptive
    /// plans).
    #[inline]
    pub fn forward(&self, u: VertexId) -> &[VertexId] {
        self.forward.get(u)
    }

    /// VF2++'s forward label requirements of `u` (empty when the rule is
    /// off).
    #[inline]
    pub fn vf2pp_req(&self, u: VertexId) -> &[(Label, u32)] {
        &self.vf2pp_req[u as usize]
    }

    /// The other query vertices labelled like `u`, as a bitset.
    #[inline]
    pub fn same_label(&self, u: VertexId) -> u64 {
        self.same_label[u as usize]
    }

    /// Where the independent suffix `S = φ[s..n]` starts: the longest
    /// suffix with no query edge inside it and, unless the plan is
    /// homomorphic, no label on more than two of its vertices, with
    /// `s ≥ 1` (`s = n − 1` when that is all there is). Every `LC` in `S`
    /// is then fixed by the prefix, so a count-only run counts the
    /// completions of a node at depth `s` as a product instead of walking
    /// `S`. Adaptive plans pick their last vertices at run time and get
    /// `n − 1`: only the last level is counted.
    #[inline]
    pub fn suffix_start(&self) -> usize {
        self.suffix_start
    }

    /// The vertices of the independent suffix that share their label with
    /// another one of it, as a bitset (empty unless the plan is
    /// isomorphic and static).
    #[inline]
    pub(crate) fn suffix_pairs(&self) -> u64 {
        self.suffix_pairs
    }

    /// Total plan-build time (filter + order + table/space build) in
    /// nanoseconds — the "compile" side of the compile/execute split.
    pub fn plan_build_ns(&self) -> u64 {
        (self.filter_time + self.order_time + self.build_time).as_nanos() as u64
    }
}

/// Forward (order-later) neighbors of every vertex under `order`, sorted
/// by match time — the DAG children of DP-iso's decomposition.
fn forward_neighbors(q: &Graph, order: &[VertexId]) -> Vec<Vec<VertexId>> {
    let n = q.num_vertices();
    let mut rank = vec![usize::MAX; n];
    for (i, &u) in order.iter().enumerate() {
        rank[u as usize] = i;
    }
    let mut out = vec![Vec::new(); n];
    for &u in order {
        let mut f: Vec<VertexId> = q
            .neighbors(u)
            .iter()
            .copied()
            .filter(|&u2| rank[u2 as usize] > rank[u as usize])
            .collect();
        f.sort_by_key(|&u2| rank[u2 as usize]);
        out[u as usize] = f;
    }
    out
}

/// For each query vertex, the bitset of the *other* query vertices that
/// carry its label (`|V(q)| ≤ 64`, the framework limit).
fn same_label_masks(q: &Graph) -> Vec<u64> {
    q.vertices()
        .map(|u| {
            q.vertices()
                .filter(|&w| w != u && q.label(w) == q.label(u))
                .fold(0u64, |mask, w| mask | 1u64 << w)
        })
        .collect()
}

/// [`QueryPlan::suffix_start`] and [`QueryPlan::suffix_pairs`] of a
/// static `order`: grow the suffix from the last vertex while the next
/// earlier one has no neighbour in it and, except under homomorphism,
/// fewer than two same-label vertices in it.
fn independent_suffix(
    q: &Graph,
    order: &[VertexId],
    same_label: &[u64],
    injectivity: Injectivity,
) -> (usize, u64) {
    let Some(&last) = order.last() else {
        return (0, 0);
    };
    let labelled = injectivity != Injectivity::Homomorphism;
    let (mut s, mut members, mut pairs) = (order.len() - 1, 1u64 << last, 0u64);
    while s > 1 {
        let u = order[s - 1];
        let same = if labelled {
            same_label[u as usize] & members
        } else {
            0
        };
        if same.count_ones() >= 2 || q.neighbors(u).iter().any(|&w| members >> w & 1 == 1) {
            break;
        }
        if same != 0 {
            pairs |= same | 1u64 << u;
        }
        members |= 1u64 << u;
        s -= 1;
    }
    (s, pairs)
}

/// For each query vertex `u`, the labels (with multiplicities) of its
/// *forward* neighbors under `order` — VF2++'s runtime requirement table.
pub(crate) fn forward_label_requirements(q: &Graph, order: &[VertexId]) -> Vec<Vec<(Label, u32)>> {
    let n = q.num_vertices();
    let mut rank = vec![usize::MAX; n];
    for (i, &u) in order.iter().enumerate() {
        rank[u as usize] = i;
    }
    let mut out = vec![Vec::new(); n];
    for &u in order {
        let mut labels: Vec<Label> = q
            .neighbors(u)
            .iter()
            .copied()
            .filter(|&u2| rank[u2 as usize] > rank[u as usize])
            .map(|u2| q.label(u2))
            .collect();
        labels.sort_unstable();
        let mut req = Vec::new();
        let mut i = 0;
        while i < labels.len() {
            let l = labels[i];
            let mut c = 0u32;
            while i < labels.len() && labels[i] == l {
                c += 1;
                i += 1;
            }
            req.push((l, c));
        }
        out[u as usize] = req;
    }
    out
}

/// DP-iso's weight array `W[u][pos]` over candidate positions: estimated
/// tree-like path embeddings below each candidate, computed bottom-up
/// over the BFS DAG (leaves weigh 1; inner vertices take the minimum over
/// children of the candidate-edge-summed child weights).
/// It reads every row of `space`, which must be built in full
/// ([`CandidateSpace::build`]).
pub fn weight_array(
    q: &Graph,
    candidates: &Candidates,
    space: &CandidateSpace,
    tree: &BfsTree,
) -> Vec<Vec<f64>> {
    let n = q.num_vertices();
    let rank = &tree.rank;
    let mut w: Vec<Vec<f64>> = vec![Vec::new(); n];
    for &u in tree.order.iter().rev() {
        let children: Vec<VertexId> = q
            .neighbors(u)
            .iter()
            .copied()
            .filter(|&c| rank[c as usize] > rank[u as usize])
            .collect();
        let len = candidates.get(u).len();
        let mut wu = vec![1.0f64; len];
        if !children.is_empty() {
            for (pos, w_pos) in wu.iter_mut().enumerate() {
                let mut best = f64::INFINITY;
                for &c in &children {
                    let sum: f64 = space
                        .built_neighbors(u, pos, c)
                        .iter()
                        .map(|&p| w[c as usize][p as usize])
                        .sum();
                    best = best.min(sum);
                }
                *w_pos = best;
            }
        }
        w[u as usize] = wu;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate_space::SpaceCoverage;
    use crate::fixtures::{paper_data, paper_query};
    use crate::{DataContext, QueryContext};
    use sm_graph::types::NO_VERTEX;

    fn fixture_plan(method: LcMethod) -> QueryPlan {
        let q = paper_query();
        let g = paper_data();
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let cand = crate::filter::ldf::ldf_candidates(&qc, &gc);
        let order = vec![0, 1, 2, 3];
        let space = (method.needs_space()).then(|| {
            CandidateSpace::build(&q, &g, &cand, SpaceCoverage::OrderDirected(&order), false)
        });
        QueryPlan::assemble(
            &q,
            cand,
            order,
            None,
            space,
            method,
            MatchConfig::default(),
            false,
        )
    }

    #[test]
    fn tables_derive_from_the_order() {
        let plan = fixture_plan(LcMethod::Direct);
        assert_eq!(plan.order(), &[0, 1, 2, 3]);
        assert_eq!(plan.root(), 0);
        assert!(plan.backward(0).is_empty());
        assert_eq!(plan.backward(1), &[0]);
        assert_eq!(plan.backward(2), &[0, 1]);
        assert_eq!(plan.backward(3), &[1, 2]);
        // forward mirrors backward
        assert_eq!(plan.forward(0), &[1, 2]);
        assert!(plan.forward(3).is_empty());
        assert_eq!(plan.parents()[0], NO_VERTEX);
        assert_eq!(plan.parents()[1], 0);
        // no vf2pp rule: requirements stay empty
        assert!(plan.vf2pp_req(0).is_empty());
        // labels A, B, C, D: no vertex shares one
        assert!((0..4).all(|u| plan.same_label(u) == 0));
        assert!(plan.weights.is_empty());
    }

    #[test]
    fn same_label_masks_exclude_the_vertex_itself() {
        let q = sm_graph::builder::graph_from_edges(&[0, 1, 0, 0], &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(same_label_masks(&q), vec![0b1100, 0, 0b1001, 0b0101]);
    }

    #[test]
    fn suffix_start_stops_at_edges_and_third_labels() {
        let suffix = |labels: &[Label], edges: &[(VertexId, VertexId)], inj| {
            let q = sm_graph::builder::graph_from_edges(labels, edges);
            let order: Vec<VertexId> = q.vertices().collect();
            independent_suffix(&q, &order, &same_label_masks(&q), inj)
        };
        let star = [(0, 1), (0, 2), (0, 3), (0, 4)];
        let iso = Injectivity::Isomorphism;
        // Every leaf hangs off the root only: the suffix is all of them.
        assert_eq!(suffix(&[0, 1, 2, 3, 4], &star, iso), (1, 0));
        // An edge inside the suffix stops it.
        let chord = [(0, 1), (0, 2), (0, 3), (0, 4), (2, 3)];
        assert_eq!(suffix(&[0, 1, 2, 3, 4], &chord, iso), (3, 0));
        // A third same label stops it; the two it keeps are a pair.
        let labels = [0, 1, 1, 1, 2];
        assert_eq!(suffix(&labels, &star, iso), (2, 0b01100));
        assert_eq!(suffix(&labels, &star, Injectivity::EdgeInjective).0, 2);
        // A homomorphism has no collisions, so labels do not matter.
        assert_eq!(suffix(&labels, &star, Injectivity::Homomorphism), (1, 0));
        // The suffix never takes the root; a one-vertex query is counted
        // from depth 0.
        assert_eq!(suffix(&[0, 0], &[(0, 1)], iso), (1, 0));
        assert_eq!(suffix(&[0], &[], iso), (0, 0));
    }

    #[test]
    fn vf2pp_requirements_follow_the_config() {
        let q = paper_query();
        let g = paper_data();
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let cand = crate::filter::ldf::ldf_candidates(&qc, &gc);
        let cfg = MatchConfig {
            vf2pp_rule: true,
            ..Default::default()
        };
        let plan = QueryPlan::assemble(
            &q,
            cand,
            vec![0, 1, 2, 3],
            None,
            None,
            LcMethod::Direct,
            cfg,
            false,
        );
        // u0's forward neighbors are u1 (B) and u2 (C).
        assert_eq!(plan.vf2pp_req(0), &[(1, 1), (2, 1)]);
        // u3 is last: no forward neighbors.
        assert!(plan.vf2pp_req(3).is_empty());
    }

    #[test]
    fn adaptive_plan_builds_weights() {
        let q = paper_query();
        let g = paper_data();
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let (cand, tree) = crate::filter::dpiso::dpiso_candidates(&qc, &gc, 3);
        let order = tree.order.clone();
        let space =
            CandidateSpace::build(&q, &g, &cand, SpaceCoverage::OrderDirected(&order), false);
        let plan = QueryPlan::assemble(
            &q,
            cand,
            order,
            Some(tree),
            Some(space),
            LcMethod::Intersect,
            MatchConfig::default(),
            true,
        );
        // The adaptive order picks its last vertices at run time: only the
        // last level is counted.
        assert_eq!(plan.suffix_start(), plan.num_query_vertices() - 1);
        assert_eq!(plan.suffix_pairs(), 0);
        // The δ-last vertex has no DAG children: all weights are 1.
        let last = *plan.order().last().unwrap();
        assert!(plan.weights[last as usize].iter().all(|&x| x == 1.0));
        // The root's weights are finite and >= 0 on a satisfiable query.
        let root = plan.root();
        assert!(plan.weights[root as usize]
            .iter()
            .all(|&x| x.is_finite() && x >= 0.0));
        // Backward lists equal the DAG parents.
        for &u in plan.order() {
            for &p in plan.backward(u) {
                assert!(plan.forward(p).contains(&u));
            }
        }
        assert_eq!(
            plan.plan_build_ns(),
            0,
            "assemble leaves timings to the pipeline"
        );
    }
}
