//! Additional Glasgow solver coverage: limits, labeled workloads, and
//! pruning behaviour.

use sm_glasgow::{estimate_memory, glasgow_match, GlasgowConfig, GlasgowError};
use sm_graph::builder::graph_from_edges;
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use std::time::Duration;

#[test]
fn time_limit_reported() {
    // Single-label moderately dense graph + 9-vertex dense query: the
    // search space is enormous. A zero time limit has passed before the
    // search starts, so the solver's first cancellation poll (every 1 024
    // nodes) must stop it: timed out, within two poll intervals. The cap
    // lies far past any match the first poll interval can find; it only
    // ends a run whose poll is broken.
    let g = rmat_graph(5_000, 16.0, 1, RmatParams::PAPER, 3);
    let mut edges = Vec::new();
    for i in 0..9u32 {
        for j in (i + 1)..9u32 {
            if j == i + 1 || (i + j) % 3 == 0 {
                edges.push((i, j));
            }
        }
    }
    let q = graph_from_edges(&[0; 9], &edges);
    let cfg = GlasgowConfig {
        max_matches: Some(1 << 16),
        time_limit: Some(Duration::ZERO),
        ..Default::default()
    };
    let stats = glasgow_match(&q, &g, &cfg).unwrap();
    assert!(stats.timed_out, "{stats:?}");
    assert!(stats.nodes < 2048, "{stats:?}");
}

#[test]
fn memory_estimate_grows_quadratically() {
    let q = graph_from_edges(&[0, 0], &[(0, 1)]);
    let small = rmat_graph(1_000, 4.0, 2, RmatParams::PAPER, 1);
    let large = rmat_graph(4_000, 4.0, 2, RmatParams::PAPER, 1);
    let ms = estimate_memory(&q, &small);
    let ml = estimate_memory(&q, &large);
    // 4x vertices -> ~16x bitset state
    assert!(ml > ms * 10, "{ms} -> {ml}");
}

#[test]
fn oom_error_displays() {
    let e = GlasgowError::OutOfMemory {
        required: 1000,
        budget: 10,
    };
    let s = format!("{e}");
    assert!(s.contains("1000") && s.contains("10"));
}

#[test]
fn labeled_random_workload_agrees_with_framework() {
    use sm_match::{Algorithm, DataContext, MatchConfig};
    let g = rmat_graph(800, 8.0, 5, RmatParams::PAPER, 77);
    let ctx = DataContext::new(&g);
    // a few hand-built labeled patterns
    let patterns = [
        graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2)]),
        graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]),
        graph_from_edges(&[0, 0, 1, 1], &[(0, 2), (0, 3), (1, 2), (1, 3)]),
        graph_from_edges(&[2, 3, 4, 0], &[(0, 1), (1, 2), (2, 3), (0, 3)]),
    ];
    let glw = GlasgowConfig {
        max_matches: None,
        ..Default::default()
    };
    for (i, q) in patterns.iter().enumerate() {
        let want = Algorithm::GraphQl
            .optimized()
            .run(q, &ctx, &MatchConfig::find_all())
            .matches;
        let got = glasgow_match(q, &g, &glw).unwrap().matches;
        assert_eq!(got, want, "pattern {i}");
    }
}

#[test]
fn nds_prunes_star_centers() {
    // Query: star center with 3 leaves of degree >= 2 each. Data vertex
    // with 3 degree-1 leaves must be excluded by the NDS unary constraint
    // with zero search nodes beyond the root call.
    let q = graph_from_edges(
        &[0, 1, 1, 1, 2, 2, 2],
        &[(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)],
    );
    let g = graph_from_edges(&[0, 1, 1, 1], &[(0, 1), (0, 2), (0, 3)]);
    let stats = glasgow_match(&q, &g, &GlasgowConfig::default()).unwrap();
    assert_eq!(stats.matches, 0);
    assert!(
        stats.nodes <= 1,
        "NDS should prune before search: {}",
        stats.nodes
    );
}

#[test]
fn counting_all_different_detects_pigeonhole() {
    // Two same-labeled leaves competing for one data vertex: the union of
    // domains is too small once one is assigned.
    let q = graph_from_edges(&[0, 1, 1], &[(0, 1), (0, 2)]);
    let g = graph_from_edges(&[0, 1], &[(0, 1)]);
    let stats = glasgow_match(&q, &g, &GlasgowConfig::default()).unwrap();
    assert_eq!(stats.matches, 0);
}
