//! Engine edge cases: degenerate queries and orders the main experiments
//! never exercise.

use sm_graph::builder::graph_from_edges;
use sm_match::candidate_space::{CandidateSpace, SpaceCoverage};
use sm_match::enumerate::engine::{enumerate, EngineInput};
use sm_match::enumerate::{CollectSink, CountSink, LcMethod, MatchConfig};
use sm_match::{Algorithm, DataContext, Pipeline, QueryPlan};

fn run_engine(q: &sm_graph::Graph, g: &sm_graph::Graph, order: Vec<u32>, method: LcMethod) -> u64 {
    let qc = sm_match::QueryContext::new(q);
    let gc = DataContext::new(g);
    let cand = sm_match::filter::ldf::ldf_candidates(&qc, &gc);
    let space = method
        .needs_space()
        .then(|| CandidateSpace::build(q, g, &cand, SpaceCoverage::OrderDirected(&order), false));
    let plan = QueryPlan::assemble(
        q,
        cand,
        order,
        None,
        space,
        method,
        MatchConfig::find_all(),
        false,
    );
    let input = EngineInput::new(&plan, g);
    let mut sink = CountSink;
    enumerate(&input, &mut sink).matches
}

#[test]
fn single_vertex_query() {
    let q = graph_from_edges(&[1], &[]);
    let g = graph_from_edges(&[1, 1, 0], &[(0, 2), (1, 2)]);
    for method in [
        LcMethod::Direct,
        LcMethod::CandidateScan,
        LcMethod::Intersect,
    ] {
        assert_eq!(run_engine(&q, &g, vec![0], method), 2, "{method:?}");
    }
}

#[test]
fn disconnected_order_falls_back_to_full_scan() {
    // Order u0, u2, u1 on the path u0-u1-u2: u2 has no backward neighbor
    // when placed second; the engine must cartesian-scan its candidates
    // and still count correctly.
    let q = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2)]);
    let g = graph_from_edges(&[0, 1, 2, 2], &[(0, 1), (1, 2), (1, 3)]);
    let want = sm_match::reference::brute_force_count(&q, &g, None);
    for method in [
        LcMethod::Direct,
        LcMethod::CandidateScan,
        LcMethod::Intersect,
    ] {
        assert_eq!(
            run_engine(&q, &g, vec![0, 2, 1], method),
            want,
            "{method:?}"
        );
    }
}

#[test]
fn query_as_large_as_data() {
    // |V(q)| = |V(G)|: exactly the automorphisms survive.
    let q = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
    let g = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
    assert_eq!(run_engine(&q, &g, vec![0, 1, 2], LcMethod::Intersect), 6);
}

#[test]
fn query_larger_than_data_is_unmatchable() {
    let q = graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3)]);
    let g = graph_from_edges(&[0, 0], &[(0, 1)]);
    assert_eq!(run_engine(&q, &g, vec![0, 1, 2, 3], LcMethod::Direct), 0);
}

#[test]
fn max_size_query_is_supported() {
    // 64-vertex path query (the framework's limit) on a long path graph.
    let n = 64usize;
    let labels = vec![0u32; n];
    let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    let q = graph_from_edges(&labels, &edges);
    let big_labels = vec![0u32; 80];
    let big_edges: Vec<(u32, u32)> = (0..79u32).map(|i| (i, i + 1)).collect();
    let g = graph_from_edges(&big_labels, &big_edges);
    let gc = DataContext::new(&g);
    let cfg = MatchConfig::find_all().with_failing_sets(true);
    let out = Algorithm::Ri.optimized().run(&q, &gc, &cfg);
    // 17 start offsets x 2 directions
    assert_eq!(out.matches, 34);
}

#[test]
fn automorphic_query_counts_orbit_multiples() {
    // A 4-cycle has 8 automorphisms; matched into a 4-cycle data graph it
    // must report exactly 8.
    let c4 = graph_from_edges(&[0; 4], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let gc = DataContext::new(&c4);
    for alg in Algorithm::all() {
        let out = alg.optimized().run(&c4, &gc, &MatchConfig::find_all());
        assert_eq!(out.matches, 8, "{}", alg.abbrev());
    }
}

#[test]
fn collect_sink_embeddings_are_valid() {
    let q = graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2)]);
    let g = graph_from_edges(&[0, 1, 0, 1, 0], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
    let gc = DataContext::new(&g);
    let p: Pipeline = Algorithm::Ceci.optimized();
    let mut sink = CollectSink::default();
    let out = p.run_with_sink(&q, &gc, &MatchConfig::find_all(), &mut sink);
    assert_eq!(out.matches as usize, sink.matches.len());
    for m in &sink.matches {
        // label-preserving
        for u in q.vertices() {
            assert_eq!(q.label(u), g.label(m[u as usize]));
        }
        // edge-preserving
        for (a, b) in q.edges() {
            assert!(g.has_edge(m[a as usize], m[b as usize]));
        }
        // injective
        let set: std::collections::HashSet<_> = m.iter().collect();
        assert_eq!(set.len(), m.len());
    }
}
