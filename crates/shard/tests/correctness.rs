//! Cross-shard correctness: for every partitioner, shard count, and an
//! automorphism-rich query zoo (cycles, cliques, stars, paths), the
//! sharded embedding set equals single-`Service` ground truth exactly
//! (sorted comparison of full embeddings, not just counts).

use sm_graph::builder::graph_from_edges;
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_graph::{Graph, VertexId};
use sm_service::{QueryRequest, Service, ServiceConfig, ServiceOutcome};
use sm_shard::{PartitionStrategy, ShardConfig, ShardedService};

/// Sorted full embedding set via the single-service streaming path.
fn ground_truth(g: &Graph, q: &Graph) -> Vec<Vec<VertexId>> {
    let svc = Service::new(g.clone(), ServiceConfig::default());
    let mut out: Vec<Vec<VertexId>> = svc.submit(QueryRequest::streaming(q.clone())).collect();
    out.sort_unstable();
    out
}

/// Sorted full embedding set via the sharded scatter-gather path.
fn sharded(g: &Graph, q: &Graph, strategy: PartitionStrategy, shards: usize) -> Vec<Vec<VertexId>> {
    let svc = ShardedService::new(
        g.clone(),
        ShardConfig {
            shards,
            strategy,
            halo_depth: 3,
            seed: 7,
            ..ShardConfig::default()
        },
    );
    let mut stream = svc.submit(QueryRequest::streaming(q.clone()));
    let mut out: Vec<Vec<VertexId>> = stream.by_ref().collect();
    let report = stream.report().expect("terminal after drain");
    assert_eq!(report.outcome, ServiceOutcome::Complete);
    assert_eq!(report.matches as usize, out.len());
    out.sort_unstable();
    out
}

/// The automorphism-rich query zoo: every query is connected, has at
/// least one edge, and diameter ≤ 3.
fn query_zoo() -> Vec<(&'static str, Graph)> {
    vec![
        ("edge", graph_from_edges(&[0, 0], &[(0, 1)])),
        (
            "triangle",
            graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]),
        ),
        (
            "square",
            graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3), (3, 0)]),
        ),
        (
            "clique4",
            graph_from_edges(
                &[0, 0, 0, 0],
                &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
            ),
        ),
        (
            "star3",
            graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (0, 2), (0, 3)]),
        ),
        (
            "path3",
            graph_from_edges(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3)]),
        ),
        (
            "labeled-triangle",
            graph_from_edges(&[0, 1, 1], &[(0, 1), (1, 2), (0, 2)]),
        ),
    ]
}

fn check_all(g: &Graph, tag: &str) {
    for (name, q) in query_zoo() {
        let truth = ground_truth(g, &q);
        for strategy in [PartitionStrategy::Hash, PartitionStrategy::LabelAware] {
            for shards in [1, 2, 4] {
                let got = sharded(g, &q, strategy, shards);
                assert_eq!(
                    got,
                    truth,
                    "{tag}/{name}: {strategy:?} x {shards} shards diverged \
                     (got {} embeddings, expected {})",
                    got.len(),
                    truth.len()
                );
            }
        }
    }
}

#[test]
fn rmat_dense_labels() {
    // Few labels → many automorphic embeddings crossing shard borders.
    let g = rmat_graph(220, 6.0, 2, RmatParams::PAPER, 13);
    check_all(&g, "rmat-2lab");
}

#[test]
fn rmat_more_labels() {
    let g = rmat_graph(300, 5.0, 4, RmatParams::PAPER, 29);
    check_all(&g, "rmat-4lab");
}

#[test]
fn handcrafted_boundary_graph() {
    // A ladder: every rung is a potential shard boundary, so square
    // embeddings routinely straddle two shards and must be stitched
    // through the halo.
    let n = 20;
    let mut labels = Vec::new();
    let mut edges = Vec::new();
    for i in 0..n {
        labels.push(0);
        labels.push(0);
        let (a, b) = (2 * i as VertexId, 2 * i as VertexId + 1);
        edges.push((a, b));
        if i + 1 < n {
            edges.push((a, a + 2));
            edges.push((b, b + 2));
        }
    }
    let g = graph_from_edges(&labels, &edges);
    check_all(&g, "ladder");
}

#[test]
fn counts_agree_between_count_and_streaming_paths() {
    let g = rmat_graph(200, 5.0, 3, RmatParams::PAPER, 5);
    let tri = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
    let truth = ground_truth(&g, &tri).len() as u64;
    let svc = ShardedService::new(
        g,
        ShardConfig {
            shards: 4,
            strategy: PartitionStrategy::LabelAware,
            ..ShardConfig::default()
        },
    );
    let rep = svc.run_count(tri);
    assert_eq!(rep.outcome, ServiceOutcome::Complete);
    assert_eq!(rep.matches, truth, "count-only path agrees with streaming");
}

#[test]
fn block_gather_equals_single_service_at_any_capacity() {
    let g = rmat_graph(220, 6.0, 2, RmatParams::PAPER, 13);
    let square = graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let truth = ground_truth(&g, &square);
    let cap = truth.len() as u64 / 2 + 3;
    // Capacity 1 makes every hop a one-row block (full backpressure on
    // both hops); at 1024 the cap lands inside a gathered block.
    for stream_capacity in [1, 1024] {
        let svc = ShardedService::new(
            g.clone(),
            ShardConfig {
                shards: 2,
                seed: 7,
                service: ServiceConfig {
                    stream_capacity,
                    ..ServiceConfig::default()
                },
                ..ShardConfig::default()
            },
        );
        let mut stream = svc.submit(QueryRequest::streaming(square.clone()));
        let mut out: Vec<Vec<VertexId>> = Vec::new();
        while let Some(block) = stream.next_block() {
            out.extend(block.iter().map(<[VertexId]>::to_vec));
        }
        let report = stream.report().expect("terminal after drain");
        assert_eq!(report.outcome, ServiceOutcome::Complete);
        out.sort_unstable();
        assert_eq!(out, truth, "capacity {stream_capacity}");

        let mut stream = svc.submit(QueryRequest::streaming(square.clone()).with_cap(cap));
        let mut capped: Vec<Vec<VertexId>> = stream.by_ref().collect();
        let report = stream.report().expect("terminal after drain");
        assert_eq!(report.outcome, ServiceOutcome::CapHit);
        assert_eq!(report.matches, cap);
        assert_eq!(capped.len() as u64, cap, "capacity {stream_capacity}");
        capped.sort_unstable();
        capped.dedup();
        assert_eq!(capped.len() as u64, cap, "no embedding delivered twice");
        assert!(capped.iter().all(|m| truth.binary_search(m).is_ok()));
    }
}
