//! Sharded-tier telemetry tests: the tier report is the merge of its
//! shards, the router's own counters reach every exposition (counter
//! block, metrics report, trace flush) through one fold, the router's
//! cap enforcement shows up as drop-cancels on the shards it cut short,
//! and the shard-labeled Prometheus exposition round-trips.

use sm_delta::UpdateBatch;
use sm_durable::{DurabilityOptions, FsyncPolicy};
use sm_graph::builder::graph_from_edges;
use sm_graph::gen::random::erdos_renyi;
use sm_graph::Graph;
use sm_match::MatchSemantics;
use sm_runtime::metrics::prom;
use sm_runtime::{Counter, Trace};
use sm_service::{QueryRequest, ServiceConfig, ServiceOutcome};
use sm_shard::{ShardConfig, ShardedService};
use std::time::{Duration, Instant};

fn triangle() -> Graph {
    graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)])
}

/// Single-label graph with many triangles spread across shards.
fn busy_graph() -> Graph {
    erdos_renyi(400, 4_000, 1, 0x5EED)
}

fn tier(shards: usize) -> ShardedService {
    ShardedService::new(
        busy_graph(),
        ShardConfig {
            shards,
            halo_depth: 2,
            seed: 11,
            ..ShardConfig::default()
        },
    )
}

/// Poll `get` until it returns true or `timeout` passes — shard
/// finalization runs on worker threads and can land after the router's
/// merged report is first observable.
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

#[test]
fn tier_report_is_merge_of_shards() {
    let svc = tier(3);
    let n = 4;
    for _ in 0..n {
        let rep = svc.run_count(triangle());
        assert_eq!(rep.outcome, ServiceOutcome::Complete);
        assert!(rep.matches > 0);
    }
    // Every shard executed every fanned-out query.
    assert!(eventually(Duration::from_secs(5), || {
        svc.metrics_report().merged.total().count() == 3 * n
    }));
    let r = svc.metrics_report();
    assert_eq!(r.per_shard.len(), 3);
    // The merged histogram is exactly the shard histograms combined.
    let mut manual = sm_runtime::metrics::HistSnapshot::empty();
    for s in &r.per_shard {
        manual.merge(&s.total());
    }
    assert_eq!(manual.count(), r.merged.total().count());
    assert_eq!(manual.sum(), r.merged.total().sum());
    // Router-path counters fold into the merged block only.
    assert_eq!(r.merged.counters.get(Counter::QueriesFannedOut), 3 * n);
    for s in &r.per_shard {
        assert_eq!(s.counters.get(Counter::QueriesFannedOut), 0);
        assert_eq!(s.counters.get(Counter::QueriesAdmitted), n);
    }
    // The partition gauges ride along on the merged report.
    assert!(r.merged.counters.get(Counter::HaloVerticesReplicated) > 0);
}

/// Counters no shard service knows about: the router's tallies and
/// gauges, and its journal's WAL / recovery totals.
const ROUTER_OWNED: [Counter; 11] = [
    Counter::QueriesFannedOut,
    Counter::BoundaryEmbeddingsStitched,
    Counter::QueriesRejected,
    Counter::TopkEarlyExits,
    Counter::HaloVerticesReplicated,
    Counter::ShardSkew,
    Counter::WalAppends,
    Counter::WalBytes,
    Counter::SnapshotsWritten,
    Counter::Recoveries,
    Counter::ReplayedBatches,
];

/// `counters()`, `metrics_report()` and the trace flush on drop must
/// agree on every router-owned counter: a durable tier's Prometheus
/// exposition shows its WAL activity, and its run profile its
/// rejections and top-k exits.
#[test]
fn every_exposition_carries_the_same_router_counters() {
    let dir = std::env::temp_dir().join(format!("sm-shard-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = |trace: &Trace| ShardConfig {
        shards: 2,
        halo_depth: 2,
        seed: 11,
        service: ServiceConfig {
            trace: trace.clone(),
            ..ServiceConfig::default()
        },
        ..ShardConfig::default()
    };
    let opts = DurabilityOptions {
        fsync: FsyncPolicy::Off,
        snapshot_threshold_bytes: 0,
        ..Default::default()
    };
    // Edges at a brand-new vertex (id 400): certainly effective.
    let updates = [
        UpdateBatch::new().add_vertex(0).add_edge(0, 400),
        UpdateBatch::new().add_edge(1, 400),
        UpdateBatch::new().delete_edge(0, 400),
    ];
    let svc =
        ShardedService::new_durable(busy_graph(), cfg(&Trace::disabled()), &dir, opts).unwrap();
    for b in &updates[..2] {
        assert!(!svc.apply_update(b).noop);
    }
    drop(svc); // crash: two batches to replay

    let trace = Trace::enabled();
    let svc = ShardedService::open(&dir, cfg(&trace), opts).unwrap();
    assert!(!svc.apply_update(&updates[2]).noop);
    assert!(svc.snapshot_now().unwrap());
    assert_eq!(svc.run_count(triangle()).outcome, ServiceOutcome::Complete);
    let topk =
        QueryRequest::streaming(triangle()).with_semantics(MatchSemantics::default().top_k(2));
    assert_eq!(svc.submit(topk).wait().outcome, ServiceOutcome::CapHit);
    let disconnected = graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (2, 3)]);
    assert_eq!(
        svc.run_count(disconnected).outcome,
        ServiceOutcome::Rejected
    );

    let counters = svc.counters();
    let report = svc.metrics_report().merged.counters;
    for c in ROUTER_OWNED {
        assert_eq!(report.get(c), counters.get(c), "{}", c.name());
    }
    // ...and none of them is vacuously zero.
    for c in ROUTER_OWNED {
        if c != Counter::BoundaryEmbeddingsStitched {
            assert!(counters.get(c) > 0, "{} never moved", c.name());
        }
    }
    assert_eq!(counters.get(Counter::ReplayedBatches), 2);
    assert_eq!(counters.get(Counter::WalAppends), 1, "since the reopen");

    // The trace flush: shard services flush their own blocks (which hold
    // none of these), the router flushes exactly its own.
    drop(svc);
    let flushed = trace.snapshot().totals();
    for c in ROUTER_OWNED {
        assert_eq!(flushed.get(c), counters.get(c), "flushed {}", c.name());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn router_cap_cancel_counts_as_drop_cancel_on_shards() {
    let svc = tier(3);
    // A streamed cap above the stream capacity on a triangle-rich graph
    // (7 938 embeddings, about a third owned by each shard): the gather
    // thread stops at the cap while the shards it has not drained yet
    // are parked on backpressure, and cancels them — each cancelled
    // shard service counts a drop-cancel, the same counter a
    // walked-away client would bump.
    let cap = ServiceConfig::default().stream_capacity as u64 + 476;
    let rep = svc
        .submit(QueryRequest::streaming(triangle()).with_cap(cap))
        .wait();
    assert_eq!(rep.outcome, ServiceOutcome::CapHit);
    assert_eq!(rep.matches, cap, "router cap is exact");
    assert!(
        eventually(Duration::from_secs(5), || {
            svc.metrics_report()
                .merged
                .counters
                .get(Counter::QueriesCancelledByDrop)
                >= 1
        }),
        "cap-cut shard streams are counted as drop-cancels"
    );
    // The cancelled runs appear in the merged per-outcome histograms.
    let r = svc.metrics_report();
    let cancelled: u64 = r
        .merged
        .total_by_outcome
        .iter()
        .filter(|(o, _)| *o == "cancelled")
        .map(|(_, h)| h.count())
        .sum();
    assert!(cancelled >= 1);
}

#[test]
fn sharded_prometheus_exposition_round_trips() {
    let svc = tier(2);
    let n = 3;
    for _ in 0..n {
        svc.run_count(triangle());
    }
    assert!(eventually(Duration::from_secs(5), || {
        svc.metrics_report().merged.total().count() == 2 * n
    }));
    let text = svc.metrics_report().to_prometheus();
    let samples = prom::parse(&text).expect("sharded exposition parses back");
    // The merged series (no shard label) and both per-shard series
    // coexist in the same family.
    let admitted: Vec<_> = samples
        .iter()
        .filter(|s| s.name == "sm_queries_admitted")
        .collect();
    assert_eq!(admitted.len(), 3, "merged + one series per shard");
    let merged = admitted
        .iter()
        .find(|s| s.labels.is_empty())
        .expect("unlabeled merged series");
    assert_eq!(merged.value, (2 * n) as f64);
    for shard in ["0", "1"] {
        let s = admitted
            .iter()
            .find(|s| s.labels.iter().any(|(k, v)| k == "shard" && v == shard))
            .unwrap_or_else(|| panic!("shard {shard} series missing"));
        assert_eq!(s.value, n as f64);
    }
}

/// The tier counts update batches once, in the router's
/// `updates_applied`: after k effective batches the merged counter block
/// and the unlabelled Prometheus series both read k.
#[test]
fn updates_applied_counts_every_sharded_batch() {
    let svc = tier(2);
    let batches = [
        UpdateBatch::new().add_vertex(0).add_edge(0, 400),
        UpdateBatch::new().add_edge(1, 400),
        UpdateBatch::new().delete_edge(0, 400),
    ];
    for b in &batches {
        assert!(!svc.apply_update(b).noop);
    }
    let k = batches.len() as u64;
    let report = svc.metrics_report();
    assert_eq!(report.merged.counters.get(Counter::UpdatesApplied), k);
    let samples = prom::parse(&report.to_prometheus()).expect("exposition parses back");
    let merged = samples
        .iter()
        .find(|s| s.name == "sm_updates_applied" && s.labels.is_empty())
        .expect("unlabelled updates_applied series");
    assert_eq!(merged.value, k as f64);
}
