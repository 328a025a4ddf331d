//! Leaving leaves unrefined is exact. `recommended()`'s RI plans keep a
//! non-root leaf's candidate set at its NLF result instead of GraphQL's
//! refined one (`Pipeline::leaves_last`), because their static
//! `Intersect` search reads a leaf only through its parent's `A` rows.
//!
//! Each such plan is compared with its `OrderKind::Fixed(φ)` twin: the
//! same order, but outside the gate, so every set is refined. Both must
//! agree on matches, outcome, recursions, backtracks, peak depth and every
//! local-candidate counter, and on the embeddings of a materializing run.
//! The cells: RMAT graphs with Zipf and skewed labels; random connected
//! queries of 3–16 vertices, stars and paths (K₂, whose root is a leaf,
//! among them); isomorphism and edge-injective semantics; count-only and
//! materializing; failing sets off and on; 1, 2 and 4 threads. The stored
//! sets are checked too: a non-root leaf's lies between GraphQL's and
//! NLF's, and every other set is GraphQL's.

use sm_graph::builder::graph_from_edges;
use sm_graph::gen::query::{extract_query, Density};
use sm_graph::gen::random::{assign_labels_skewed, assign_labels_zipf};
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_graph::{Graph, GraphStats, VertexId};
use sm_match::algorithm::recommended;
use sm_match::enumerate::parallel::ParallelStrategy;
use sm_match::enumerate::{CollectSink, EnumStats};
use sm_match::filter::gql::{gql_candidates, GqlParams};
use sm_match::filter::nlf::nlf_candidates;
use sm_match::order::OrderKind;
use sm_match::{
    Candidates, DataContext, Executor, Injectivity, MatchSemantics, QueryContext, QueryPlan,
};
use sm_runtime::rng::Rng64;
use sm_runtime::Counter;

/// Queries whose true count exceeds this are skipped, so the
/// materializing runs stay small.
const LIMIT: u64 = 10_000;

/// The counters a same-search-tree claim covers.
const COUNTERS: [Counter; 7] = [
    Counter::IntersectMerge,
    Counter::IntersectGalloping,
    Counter::IntersectHybrid,
    Counter::IntersectQfilter,
    Counter::LcCacheHits,
    Counter::Backtracks,
    Counter::PeakDepth,
];

fn data_graphs() -> Vec<Graph> {
    let base = rmat_graph(600, 6.0, 3, RmatParams::PAPER, 7);
    vec![
        assign_labels_zipf(&base, 6, 1.0, 11),
        assign_labels_skewed(&base, 4, 0.7, 13),
        assign_labels_zipf(&base, 3, 1.5, 17),
    ]
}

/// A star centred on a data vertex with `k` of its neighbours, labelled
/// as they are.
fn star(g: &Graph, k: usize, rng: &mut Rng64) -> Option<Graph> {
    let v = (0..64)
        .map(|_| rng.gen_range(0..g.num_vertices()) as VertexId)
        .find(|&v| g.degree(v) >= k)?;
    let mut labels = vec![g.label(v)];
    labels.extend(g.neighbors(v)[..k].iter().map(|&w| g.label(w)));
    let edges: Vec<_> = (1..=k as VertexId).map(|i| (0, i)).collect();
    Some(graph_from_edges(&labels, &edges))
}

/// A path of `k` vertices along a walk of distinct data vertices.
fn path(g: &Graph, k: usize, rng: &mut Rng64) -> Option<Graph> {
    let mut walk = vec![rng.gen_range(0..g.num_vertices()) as VertexId];
    while walk.len() < k {
        let last = *walk.last().expect("non-empty");
        let next: Vec<_> = g
            .neighbors(last)
            .iter()
            .copied()
            .filter(|w| !walk.contains(w))
            .collect();
        if next.is_empty() {
            return None;
        }
        walk.push(next[rng.gen_range(0..next.len())]);
    }
    let labels: Vec<_> = walk.iter().map(|&v| g.label(v)).collect();
    let edges: Vec<_> = (1..k as VertexId).map(|i| (i - 1, i)).collect();
    Some(graph_from_edges(&labels, &edges))
}

fn queries(g: &Graph, seed: u64) -> Vec<Graph> {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut out = Vec::new();
    for _ in 0..3 {
        for size in [3, 4, 6, 9, 12, 16] {
            for density in [Density::Sparse, Density::Any] {
                out.extend((0..40).find_map(|_| extract_query(g, size, density, &mut rng)));
            }
        }
        for k in 2..=5 {
            out.extend((0..40).find_map(|_| star(g, k, &mut rng)));
        }
        for k in 2..=6 {
            out.extend((0..40).find_map(|_| path(g, k, &mut rng)));
        }
    }
    out
}

fn run(plan: &QueryPlan, g: &Graph, threads: usize) -> (EnumStats, Vec<Vec<VertexId>>) {
    let (stats, sinks) =
        Executor::new(plan, g).run_parallel::<CollectSink>(threads, ParallelStrategy::Morsel);
    let mut rows: Vec<_> = sinks.into_iter().flat_map(|s| s.matches).collect();
    rows.sort_unstable();
    (stats, rows)
}

/// The plan's stored sets against GraphQL's and NLF's: a non-root leaf's
/// set lies between them, every other set is GraphQL's. Returns how many
/// leaf sets kept a candidate GraphQL prunes.
fn check_sets(plan: &QueryPlan, gql: &Candidates, nlf: &Candidates, cell: &str) -> usize {
    let q = plan.query();
    let mut kept = 0;
    for u in q.vertices() {
        let (stored, refined) = (plan.candidates.get(u), gql.get(u));
        if q.degree(u) == 1 && u != plan.root() && q.num_vertices() >= 3 {
            let within = |small: &[VertexId], large: &[VertexId]| {
                small.iter().all(|v| large.binary_search(v).is_ok())
            };
            assert!(within(refined, stored), "GQL ⊄ stored at leaf u{u}: {cell}");
            assert!(
                within(stored, nlf.get(u)),
                "stored ⊄ NLF at leaf u{u}: {cell}"
            );
            kept += usize::from(stored.len() > refined.len());
        } else {
            assert_eq!(stored, refined, "u{u} is not GraphQL's set: {cell}");
        }
    }
    kept
}

#[test]
fn unrefined_leaves_leave_the_search_unchanged() {
    let (mut kept, mut compared, mut k2) = (0, 0, 0);
    for (gi, g) in data_graphs().iter().enumerate() {
        let gc = DataContext::new(g);
        let stats = GraphStats::of(g);
        for (qi, q) in queries(g, 100 + gi as u64).iter().enumerate() {
            let (p, rec) = recommended(&stats, q.num_vertices());
            assert_eq!(p.order, OrderKind::Ri, "sparse data orders by RI");
            let qc = QueryContext::new(q);
            let gql = gql_candidates(&qc, &gc, GqlParams::default(), 0);
            let nlf = nlf_candidates(&qc, &gc);
            k2 += usize::from(q.num_vertices() == 2);
            for inj in [Injectivity::Isomorphism, Injectivity::EdgeInjective] {
                let emit = MatchSemantics {
                    injectivity: inj,
                    ..MatchSemantics::default()
                };
                let mut capped = rec.clone().with_semantics(emit.count_only());
                capped.max_matches = Some(LIMIT + 1);
                let big = p.run(q, &gc, &capped).matches > LIMIT;
                for sem in [emit, emit.count_only()] {
                    for fs in [false, true] {
                        let mut cfg = rec.clone().with_failing_sets(fs).with_semantics(sem);
                        cfg.max_matches = None;
                        let cell = format!(
                            "graph {gi} query {qi} |V(q)|={} {} count_only={} fs={fs}",
                            q.num_vertices(),
                            inj.name(),
                            !sem.emits(),
                        );
                        let Ok(plan) = p.plan(q, &gc, &cfg) else {
                            assert!(gql.any_empty(), "gated plan empty, GQL not: {cell}");
                            continue;
                        };
                        let mut twin = p.clone();
                        twin.order = OrderKind::Fixed(plan.order().to_vec());
                        let twin_plan = twin.plan(q, &gc, &cfg).expect("same sets, same verdict");
                        assert_eq!(twin_plan.candidates, gql, "the twin refines all: {cell}");
                        let k = check_sets(&plan, &gql, &nlf, &cell);
                        kept += k;
                        if big {
                            continue;
                        }
                        compared += usize::from(k > 0);
                        for threads in [1, 2, 4] {
                            let cell = format!("{cell} threads={threads}");
                            let (a, rows_a) = run(&plan, g, threads);
                            let (b, rows_b) = run(&twin_plan, g, threads);
                            assert_eq!(a.matches, b.matches, "matches: {cell}");
                            assert_eq!(a.outcome, b.outcome, "outcome: {cell}");
                            assert_eq!(rows_a, rows_b, "embeddings: {cell}");
                            assert_eq!(a.recursions, b.recursions, "recursions: {cell}");
                            for c in COUNTERS {
                                let name = Counter::NAMES[c as usize];
                                assert_eq!(a.counters.get(c), b.counters.get(c), "{name}: {cell}");
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(kept > 0, "no plan kept a candidate GraphQL prunes");
    assert!(compared > 0, "no such plan was run");
    assert!(k2 > 0, "no K₂ query");
}
