#![cfg(test)]
//! List-based reference filters for the tests: every filter as first
//! written. Filtering Rule 3.1 searches `N(v)` in one sorted candidate
//! list per (candidate, query neighbour) pair, the NLF test is the
//! label-count merge alone, and GraphQL keeps one bitmap per query vertex
//! and runs an allocating Kuhn matching per candidate. The filters proper
//! must reproduce these element for element, BFS trees included.

use super::FilterKind;
use crate::candidates::Candidates;
use crate::context::{DataContext, QueryContext};
use crate::filter::dpiso::DEFAULT_REFINEMENT_ROUNDS;
use crate::filter::gql::GqlParams;
use crate::util::Bitmap;
use sm_graph::traversal::BfsTree;
use sm_graph::{NlfIndex, VertexId};

/// Filtering Rule 3.1 for one pair: whether `N(v) ∩ c ≠ ∅`.
fn rule31(g: &DataContext<'_>, v: VertexId, c: &[VertexId]) -> bool {
    g.graph
        .neighbors(v)
        .iter()
        .any(|w| c.binary_search(w).is_ok())
}

/// LDF for one pair.
fn ldf_admits(q: &QueryContext<'_>, g: &DataContext<'_>, u: VertexId, v: VertexId) -> bool {
    g.graph.label(v) == q.graph.label(u) && g.graph.degree(v) >= q.graph.degree(u)
}

/// LDF + NLF for one pair, without signature words.
fn nlf_admits(q: &QueryContext<'_>, g: &DataContext<'_>, u: VertexId, v: VertexId) -> bool {
    ldf_admits(q, g, u, v) && NlfIndex::dominates(g.nlf.entry(v), q.nlf.entry(u))
}

/// The LDF set of every query vertex.
pub fn ldf(q: &QueryContext<'_>, g: &DataContext<'_>) -> Vec<Vec<VertexId>> {
    q.graph
        .vertices()
        .map(|u| {
            g.graph
                .vertices()
                .filter(|&v| ldf_admits(q, g, u, v))
                .collect()
        })
        .collect()
}

/// The LDF + NLF set of every query vertex.
pub fn nlf(q: &QueryContext<'_>, g: &DataContext<'_>) -> Vec<Vec<VertexId>> {
    q.graph
        .vertices()
        .map(|u| {
            g.graph
                .vertices()
                .filter(|&v| nlf_admits(q, g, u, v))
                .collect()
        })
        .collect()
}

/// `argmin |sets[u]| / d(u)`, ties to the smaller id.
fn root_by_ratio(q: &QueryContext<'_>, sets: &[Vec<VertexId>]) -> VertexId {
    q.graph
        .vertices()
        .map(|u| {
            let c = sets[u as usize].len() as f64;
            (c / q.graph.degree(u).max(1) as f64, u)
        })
        .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)))
        .map(|(_, u)| u)
        .unwrap()
}

/// Generation Rule 3.1: the neighbours of `parent_set` that pass NLF for
/// `u`, sorted and deduplicated.
fn generate(
    q: &QueryContext<'_>,
    g: &DataContext<'_>,
    parent_set: &[VertexId],
    u: VertexId,
) -> Vec<VertexId> {
    let mut gen: Vec<VertexId> = parent_set
        .iter()
        .flat_map(|&vp| g.graph.neighbors(vp).iter().copied())
        .filter(|&v| nlf_admits(q, g, u, v))
        .collect();
    gen.sort_unstable();
    gen.dedup();
    gen
}

/// The neighbours of `u` whose rank in `tree` satisfies `keep`.
fn neighbors_by_rank(
    q: &QueryContext<'_>,
    tree: &BfsTree,
    u: VertexId,
    keep: impl Fn(usize) -> bool,
) -> Vec<VertexId> {
    q.graph
        .neighbors(u)
        .iter()
        .copied()
        .filter(|&u2| keep(tree.rank[u2 as usize]))
        .collect()
}

/// Keep the candidates of `sets[u]` with a neighbour in every
/// `sets[u']`, `u'` in `against`.
fn prune(g: &DataContext<'_>, sets: &mut [Vec<VertexId>], u: VertexId, against: &[VertexId]) {
    let mut set = std::mem::take(&mut sets[u as usize]);
    set.retain(|&v| against.iter().all(|&u2| rule31(g, v, &sets[u2 as usize])));
    sets[u as usize] = set;
}

/// CFL: top-down generation with backward pruning through non-tree
/// edges, then bottom-up refinement against δ-later neighbours.
pub fn cfl(q: &QueryContext<'_>, g: &DataContext<'_>) -> (Candidates, BfsTree) {
    let root = crate::filter::cfl::select_cfl_root(q, g);
    let tree = BfsTree::build(q.graph, root);
    let mut sets = vec![Vec::new(); q.num_vertices()];
    sets[root as usize] = nlf(q, g).swap_remove(root as usize);
    for idx in 1..tree.order.len() {
        let u = tree.order[idx];
        let backward = neighbors_by_rank(q, &tree, u, |r| r < idx);
        let parent = tree.parent[u as usize];
        sets[u as usize] = generate(q, g, &sets[parent as usize], u);
        prune(g, &mut sets, u, &backward);
        if sets[u as usize].is_empty() {
            return (Candidates::new(sets), tree);
        }
        for &u2 in backward.iter().filter(|&&u2| u2 != parent) {
            prune(g, &mut sets, u2, &[u]);
        }
    }
    for idx in (0..tree.order.len()).rev() {
        let u = tree.order[idx];
        let forward = neighbors_by_rank(q, &tree, u, |r| r > idx);
        prune(g, &mut sets, u, &forward);
    }
    (Candidates::new(sets), tree)
}

/// CECI: generation along δ with bidirectional pruning against every
/// backward neighbour, then reverse-δ refinement against tree children.
pub fn ceci(q: &QueryContext<'_>, g: &DataContext<'_>) -> (Candidates, BfsTree) {
    let mut nlf_sets = nlf(q, g);
    let root = root_by_ratio(q, &nlf_sets);
    let tree = BfsTree::build(q.graph, root);
    let mut sets = vec![Vec::new(); q.num_vertices()];
    sets[root as usize] = std::mem::take(&mut nlf_sets[root as usize]);
    for idx in 1..tree.order.len() {
        let u = tree.order[idx];
        let parent = tree.parent[u as usize];
        sets[u as usize] = generate(q, g, &sets[parent as usize], u);
        for ub in neighbors_by_rank(q, &tree, u, |r| r < idx) {
            prune(g, &mut sets, u, &[ub]);
            prune(g, &mut sets, ub, &[u]);
        }
        if sets[u as usize].is_empty() {
            return (Candidates::new(sets), tree);
        }
    }
    for &u in tree.order.iter().rev() {
        prune(g, &mut sets, u, &tree.children[u as usize]);
    }
    (Candidates::new(sets), tree)
}

/// DP-iso: LDF seed, then `rounds` alternating directional passes (the
/// first applies NLF), stopping early once a pass after the first
/// changes nothing.
pub fn dpiso(q: &QueryContext<'_>, g: &DataContext<'_>, rounds: usize) -> (Candidates, BfsTree) {
    let mut sets = ldf(q, g);
    let root = root_by_ratio(q, &sets);
    let tree = BfsTree::build(q.graph, root);
    for round in 0..rounds {
        let reverse = round % 2 == 0;
        let apply_nlf = round == 0;
        let mut order = tree.order.clone();
        if reverse {
            order.reverse();
        }
        let mut changed = false;
        for u in order {
            let rank_u = tree.rank[u as usize];
            let ahead = |r: usize| if reverse { r > rank_u } else { r < rank_u };
            let against = neighbors_by_rank(q, &tree, u, ahead);
            if against.is_empty() && !apply_nlf {
                continue;
            }
            let before = sets[u as usize].len();
            if apply_nlf {
                sets[u as usize].retain(|&v| nlf_admits(q, g, u, v));
            }
            prune(g, &mut sets, u, &against);
            changed |= sets[u as usize].len() != before;
            if sets[u as usize].is_empty() {
                return (Candidates::new(sets), tree);
            }
        }
        if !changed && round > 0 {
            break;
        }
    }
    (Candidates::new(sets), tree)
}

/// STEADY: Rule 3.1 against every neighbour, to the fixpoint, from the
/// NLF sets.
pub fn steady(q: &QueryContext<'_>, g: &DataContext<'_>) -> Candidates {
    let nq = q.num_vertices();
    let mut sets = nlf(q, g);
    let mut dirty = vec![true; nq];
    let mut queue: std::collections::VecDeque<VertexId> = (0..nq as VertexId).collect();
    while let Some(u) = queue.pop_front() {
        dirty[u as usize] = false;
        let before = sets[u as usize].len();
        prune(g, &mut sets, u, q.graph.neighbors(u));
        if sets[u as usize].is_empty() {
            break;
        }
        if sets[u as usize].len() != before {
            for &u2 in q.graph.neighbors(u) {
                if !dirty[u2 as usize] {
                    dirty[u2 as usize] = true;
                    queue.push_back(u2);
                }
            }
        }
    }
    Candidates::new(sets)
}

/// GraphQL: NLF, then `params.refinement_rounds` sweeps of the
/// semi-perfect matching test, `N(v)` re-scanned once per query neighbour.
pub fn gql(q: &QueryContext<'_>, g: &DataContext<'_>, params: GqlParams) -> Candidates {
    let mut sets = nlf(q, g);
    if sets.iter().any(|s| s.is_empty()) {
        return Candidates::new(sets);
    }
    let mut bitmaps: Vec<Bitmap> = sets
        .iter()
        .map(|s| {
            let mut b = Bitmap::new(g.graph.num_vertices());
            b.set_all(s);
            b
        })
        .collect();
    for _ in 0..params.refinement_rounds {
        let mut changed = false;
        for u in q.graph.vertices() {
            let mut set = std::mem::take(&mut sets[u as usize]);
            let before = set.len();
            set.retain(|&v| {
                let gn = g.graph.neighbors(v);
                let adj: Vec<Vec<u32>> = q
                    .graph
                    .neighbors(u)
                    .iter()
                    .map(|&u2| {
                        let hits = (0..gn.len() as u32)
                            .filter(|&j| bitmaps[u2 as usize].get(gn[j as usize]));
                        hits.collect()
                    })
                    .collect();
                let ok = max_matching(gn.len(), &adj) == adj.len();
                if !ok {
                    bitmaps[u as usize].unset(v);
                }
                ok
            });
            changed |= set.len() != before;
            let empty = set.is_empty();
            sets[u as usize] = set;
            if empty {
                return Candidates::new(sets);
            }
        }
        if !changed {
            break;
        }
    }
    Candidates::new(sets)
}

/// Size of a maximum matching (`adj[l]` = rights adjacent to left `l`).
fn max_matching(num_right: usize, adj: &[Vec<u32>]) -> usize {
    fn augment(l: usize, adj: &[Vec<u32>], owner: &mut [i32], seen: &mut [bool]) -> bool {
        for &r in &adj[l] {
            let r = r as usize;
            if !seen[r] {
                seen[r] = true;
                if owner[r] < 0 || augment(owner[r] as usize, adj, owner, seen) {
                    owner[r] = l as i32;
                    return true;
                }
            }
        }
        false
    }
    let mut owner = vec![-1i32; num_right];
    (0..adj.len())
        .filter(|&l| augment(l, adj, &mut owner, &mut vec![false; num_right]))
        .count()
}

/// The reference of `kind` at its default parameters: candidate sets and,
/// for CFL, CECI and DP-iso, the BFS tree.
pub fn run(
    kind: FilterKind,
    q: &QueryContext<'_>,
    g: &DataContext<'_>,
) -> (Candidates, Option<BfsTree>) {
    let with_tree = |(c, t): (Candidates, BfsTree)| (c, Some(t));
    match kind {
        FilterKind::Ldf => (Candidates::new(ldf(q, g)), None),
        FilterKind::Nlf => (Candidates::new(nlf(q, g)), None),
        FilterKind::GraphQl => (gql(q, g, GqlParams::default()), None),
        FilterKind::Cfl => with_tree(cfl(q, g)),
        FilterKind::Ceci => with_tree(ceci(q, g)),
        FilterKind::DpIso => with_tree(dpiso(q, g, DEFAULT_REFINEMENT_ROUNDS)),
        FilterKind::Steady => (steady(q, g), None),
    }
}

/// Every filter's candidate sets and BFS tree, from the functions the
/// pipeline dispatches to, before [`run_filter`](super::run_filter)'s
/// empty-set check.
fn filtered(
    kind: FilterKind,
    q: &QueryContext<'_>,
    g: &DataContext<'_>,
) -> (Candidates, Option<BfsTree>) {
    use super::{ceci, cfl, dpiso, gql, ldf, nlf, steady};
    let with_tree = |(c, t): (Candidates, BfsTree)| (c, Some(t));
    match kind {
        FilterKind::Ldf => (ldf::ldf_candidates(q, g), None),
        FilterKind::Nlf => (nlf::nlf_candidates(q, g), None),
        FilterKind::GraphQl => (gql::gql_candidates(q, g, GqlParams::default(), 0), None),
        FilterKind::Cfl => with_tree(cfl::cfl_candidates(q, g)),
        FilterKind::Ceci => with_tree(ceci::ceci_candidates(q, g)),
        FilterKind::DpIso => with_tree(dpiso::dpiso_candidates(q, g, DEFAULT_REFINEMENT_ROUNDS)),
        FilterKind::Steady => (steady::steady_candidates(q, g), None),
    }
}

#[test]
fn every_filter_equals_its_reference() {
    use sm_graph::gen::query::{generate_query_set, Density, QuerySetSpec};
    use sm_graph::gen::rmat::{rmat_graph, RmatParams};
    // Candidates pruned by the Rule 3.1 filters below NLF, in all and at
    // query vertices 32..64 (the word's high half).
    let (mut pruned, mut pruned_high) = (0, 0);
    for (gi, labels) in [2, 6, 24].into_iter().enumerate() {
        let data = rmat_graph(800, 8.0, labels, RmatParams::PAPER, 40 + gi as u64);
        let g = DataContext::new(&data);
        let mut queries = Vec::new();
        for (num_vertices, density) in [
            (4, Density::Any),
            (8, Density::Dense),
            (12, Density::Sparse),
            (24, Density::Any),
            (40, Density::Sparse),
            (64, Density::Any),
        ] {
            let spec = QuerySetSpec {
                num_vertices,
                density,
                count: 3,
            };
            queries.extend(generate_query_set(&data, spec, 50 + gi as u64));
        }
        assert!(queries.iter().any(|q| q.num_vertices() > 32));
        for (qi, query) in queries.iter().enumerate() {
            let q = QueryContext::new(query);
            for kind in FilterKind::all() {
                let (got, want) = (filtered(kind, &q, &g), run(kind, &q, &g));
                assert_eq!(got.0, want.0, "graph {gi} query {qi} {}", kind.name());
                assert_eq!(got.1, want.1, "graph {gi} query {qi} {} tree", kind.name());
            }
            // An adaptive plan whose filter builds no tree roots one by
            // DP-iso's rule.
            let fallback = crate::Pipeline::new(
                "NLF-adaptive",
                FilterKind::Nlf,
                crate::OrderKind::Adaptive,
                crate::LcMethod::Intersect,
            );
            if let Ok(plan) = fallback.plan(query, &g, &crate::MatchConfig::default()) {
                let (_, tree) = dpiso(&q, &g, 0);
                assert_eq!(plan.order(), tree.order, "graph {gi} query {qi} fallback");
            }
            for rounds in [0, 1, 2, 5] {
                let got = crate::filter::dpiso::dpiso_candidates(&q, &g, rounds);
                assert_eq!(
                    got,
                    dpiso(&q, &g, rounds),
                    "graph {gi} query {qi} rounds {rounds}"
                );
            }
            let floor = Candidates::new(nlf(&q, &g));
            if floor.any_empty() {
                continue;
            }
            for kind in [
                FilterKind::Cfl,
                FilterKind::Ceci,
                FilterKind::DpIso,
                FilterKind::Steady,
            ] {
                let (c, _) = filtered(kind, &q, &g);
                if c.any_empty() {
                    continue;
                }
                for u in query.vertices() {
                    let dropped = floor.get(u).len() - c.get(u).len();
                    pruned += dropped;
                    pruned_high += if u >= 32 { dropped } else { 0 };
                }
            }
        }
    }
    assert!(
        pruned > 0 && pruned_high > 0,
        "pruned {pruned}, high {pruned_high}"
    );
}
