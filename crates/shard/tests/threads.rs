//! The sharded tier starts no thread per query: its merged stream pulls
//! the shards on the client's thread. Its own test binary, with one
//! test, because the process-wide thread count it reads would also see
//! the threads of any test running beside it.

#![cfg(target_os = "linux")]

use sm_graph::builder::graph_from_edges;
use sm_graph::gen::random::erdos_renyi;
use sm_service::{QueryRequest, ResultStream, ServiceConfig};
use sm_shard::{ShardConfig, ShardedService};

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn undrained_submissions_start_no_thread() {
    let svc = ShardedService::new(
        erdos_renyi(400, 4_000, 1, 0x5EED),
        ShardConfig {
            shards: 2,
            halo_depth: 2,
            service: ServiceConfig {
                stream_capacity: 4,
                ..ServiceConfig::default()
            },
            ..ShardConfig::default()
        },
    );
    let triangle = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
    let before = threads();
    // Eight live streams, none drained: the shards park on backpressure.
    let streams: Vec<ResultStream> = (0..8)
        .map(|_| svc.submit(QueryRequest::streaming(triangle.clone())))
        .collect();
    assert_eq!(threads(), before, "a submission started a thread");
    drop(streams);
}
