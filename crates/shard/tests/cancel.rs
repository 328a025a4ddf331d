//! Client cancellation on the sharded tier: an explicit `cancel()` and a
//! dropped live stream both reach every shard, whose runs are parked on
//! backpressure (a small `stream_capacity`), and each shard service
//! counts the drop-cancel; a shard that refuses admission makes the
//! merged reply `Rejected` and cancels the shards that admitted it. In
//! every case the tier answers the next query exactly.

use sm_graph::builder::graph_from_edges;
use sm_graph::gen::random::erdos_renyi;
use sm_graph::{Graph, VertexId};
use sm_runtime::{Counter, Rng64};
use sm_service::{QueryRequest, Service, ServiceConfig, ServiceOutcome};
use sm_shard::{assign_owners, PartitionStrategy, ShardConfig, ShardedService};
use std::time::{Duration, Instant};

/// Rows a shard buffers before its worker parks.
const CAPACITY: usize = 4;

fn triangle(label: u32) -> Graph {
    graph_from_edges(&[label; 3], &[(0, 1), (1, 2), (0, 2)])
}

/// Single-label graph with thousands of triangle embeddings on every
/// shard.
fn busy_graph() -> Graph {
    erdos_renyi(400, 4_000, 1, 0x5EED)
}

fn tier(graph: Graph, shards: usize, service: ServiceConfig) -> ShardedService {
    ShardedService::new(
        graph,
        ShardConfig {
            shards,
            strategy: PartitionStrategy::Hash,
            halo_depth: 2,
            seed: 11,
            service: ServiceConfig {
                stream_capacity: CAPACITY,
                ..service
            },
        },
    )
}

/// Poll `get` until it returns true or `timeout` passes: a shard
/// finalizes a cancelled run on its worker thread.
fn eventually(timeout: Duration, get: impl Fn() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < timeout {
        if get() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    get()
}

/// Each shard service's drop-cancel count.
fn drop_cancels(svc: &ShardedService) -> Vec<u64> {
    svc.shard_details()
        .iter()
        .map(|d| d.counters.get(Counter::QueriesCancelledByDrop))
        .collect()
}

fn every_shard_counts_a_drop_cancel(svc: &ShardedService, what: &str) {
    assert!(
        eventually(Duration::from_secs(10), || drop_cancels(svc)
            .iter()
            .all(|&c| c == 1)),
        "{what}: drop-cancels per shard {:?}",
        drop_cancels(svc)
    );
}

#[test]
fn cancel_reaches_every_parked_shard() {
    let expected = Service::new(busy_graph(), ServiceConfig::default())
        .run_count(triangle(0))
        .matches;
    for shards in [1, 2] {
        let svc = tier(busy_graph(), shards, ServiceConfig::default());
        let mut stream = svc.submit(QueryRequest::streaming(triangle(0)));
        assert_eq!(stream.by_ref().take(3).count(), 3);
        stream.cancel();
        // No pull after the cancel: it reaches the shard streams itself.
        every_shard_counts_a_drop_cancel(&svc, &format!("{shards} shards"));
        let report = stream.wait();
        assert_eq!(report.outcome, ServiceOutcome::Cancelled, "{shards} shards");
        let next = svc.run_count(triangle(0));
        assert_eq!(next.outcome, ServiceOutcome::Complete);
        assert_eq!(next.matches, expected, "{shards} shards: the next query");
    }
}

#[test]
fn dropping_the_live_stream_cancels_every_shard() {
    let expected = Service::new(busy_graph(), ServiceConfig::default())
        .run_count(triangle(0))
        .matches;
    for shards in [1, 2] {
        let svc = tier(busy_graph(), shards, ServiceConfig::default());
        let mut stream = svc.submit(QueryRequest::streaming(triangle(0)));
        assert!(stream.next().is_some());
        drop(stream);
        every_shard_counts_a_drop_cancel(&svc, &format!("{shards} shards"));
        // Every shard's run ended `Cancelled`, the merged outcome.
        for (si, r) in svc.metrics_report().per_shard.iter().enumerate() {
            let cancelled: u64 = r
                .total_by_outcome
                .iter()
                .filter(|(o, _)| *o == ServiceOutcome::Cancelled.name())
                .map(|(_, h)| h.count())
                .sum();
            assert_eq!(cancelled, 1, "{shards} shards: shard {si}");
        }
        let next = svc.run_count(triangle(0));
        assert_eq!(next.outcome, ServiceOutcome::Complete);
        assert_eq!(next.matches, expected, "{shards} shards: the next query");
    }
}

/// Two label classes, each owned by one shard of a two-shard hash
/// partition, with triangles inside each class and no edge between
/// them: a label-`s` query runs on shard `s` alone (the other shard
/// holds no vertex of that label and finishes it at submission).
fn split_graph() -> Graph {
    const N: usize = 240;
    let owner = assign_owners(
        &graph_from_edges(&[0; N], &[]),
        PartitionStrategy::Hash,
        2,
        11,
    );
    let mut rng = Rng64::seed_from_u64(0xCA7);
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for u in 0..N {
        for v in u + 1..N {
            if owner[u] == owner[v] && rng.gen_range(0..100u32) < 15 {
                edges.push((u as VertexId, v as VertexId));
            }
        }
    }
    graph_from_edges(&owner, &edges)
}

#[test]
fn a_rejecting_shard_rejects_the_query_and_cancels_the_others() {
    let g = split_graph();
    let expected = Service::new(g.clone(), ServiceConfig::default())
        .run_count(triangle(0))
        .matches;
    assert!(expected > 2 * CAPACITY as u64, "shard 0 must park");
    // One query in each shard's system at a time.
    let one = ServiceConfig {
        max_active: 1,
        queue_capacity: 0,
        ..ServiceConfig::default()
    };
    let svc = tier(g, 2, one);
    // Shard 0 parks on this stream and stays full; shard 1 finished it.
    let mut holder = svc.submit(QueryRequest::streaming(triangle(0)));
    assert!(holder.next().is_some());
    // Shard 0 refuses the next query; shard 1 admits it and parks.
    let rejected = svc.submit(QueryRequest::streaming(triangle(1)));
    assert!(
        rejected.report().is_some(),
        "a rejection is terminal at once"
    );
    assert_eq!(rejected.wait().outcome, ServiceOutcome::Rejected);
    assert!(
        eventually(Duration::from_secs(10), || drop_cancels(&svc) == [0, 1]),
        "shard 1's run is cancelled: drop-cancels {:?}",
        drop_cancels(&svc)
    );
    let details = svc.shard_details();
    assert_eq!(details[0].counters.get(Counter::QueriesRejected), 1);
    drop(holder);
    assert!(
        eventually(Duration::from_secs(10), || drop_cancels(&svc) == [1, 1]),
        "dropping the holder cancels shard 0: {:?}",
        drop_cancels(&svc)
    );
    let next = svc.run_count(triangle(0));
    assert_eq!(next.outcome, ServiceOutcome::Complete);
    assert_eq!(next.matches, expected);
}
