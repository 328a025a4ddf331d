//! Sharded serving scaling — the `sm-shard` scatter-gather tier under a
//! multi-client workload, swept over shard counts (`--shards`, default
//! 1,2,4,8) on Yeast plus a seeded RMAT graph.
//!
//! What the table shows, per (dataset, shard count):
//!
//! * **throughput** and latency percentiles (p50/p99) across all client
//!   submissions routed through the scatter-gather path,
//! * the **halo cost** — how many vertices the k-hop replication
//!   duplicates onto non-owner shards at this shard count,
//! * **skew** — the max per-shard local edge count as a percentage of
//!   the even share (100% = perfectly balanced),
//! * **stitched** — embeddings that crossed a shard border and were
//!   attributed through the halo (exactly-once via minimum-id
//!   ownership).
//!
//! The experiment is also a correctness smoke (CI runs it): every
//! sharded per-query count is asserted equal to the single-`Service`
//! ground-truth count of the same query, and the router's fan-out
//! counter must equal submissions x shards — violations panic.

use crate::args::HarnessOptions;
use crate::table::{ms, percentile, TextTable};
use sm_graph::builder::graph_from_edges;
use sm_graph::gen::query::{generate_query_set, Density, QuerySetSpec};
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_graph::traversal::diameter;
use sm_graph::Graph;
use sm_runtime::{Counter, Rng64};
use sm_service::{Service, ServiceConfig, ServiceOutcome};
use sm_shard::{PartitionStrategy, ShardConfig, ShardedService};
use std::sync::Arc;
use std::time::Instant;

/// Rounds each client walks the query set.
const ROUNDS: usize = 3;

/// Queries the sharded tier supports: connected, at least one edge.
/// The halo depth is then sized to the largest surviving diameter, so
/// every kept query is answerable at any shard count.
pub(crate) fn supported_queries(g: &Graph, count: usize, seed: u64) -> (Vec<Graph>, u32) {
    let mut qs: Vec<Graph> = generate_query_set(
        g,
        QuerySetSpec {
            num_vertices: 8,
            density: Density::Dense,
            count,
        },
        seed,
    )
    .into_iter()
    .filter(|q| q.num_edges() >= 1 && diameter(q).is_some())
    .collect();
    if qs.is_empty() {
        // Degenerate generator output: fall back to a triangle.
        qs.push(graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]));
    }
    let halo = qs.iter().filter_map(diameter).max().unwrap_or(1).max(1);
    (qs, halo)
}

/// Run the sharding experiment.
pub fn run(opts: &HarnessOptions) {
    let strategy = PartitionStrategy::from_name(&opts.partitioner)
        .expect("args parser admits only hash|label");
    let count = opts.queries.clamp(2, 6);
    let clients = opts.clients;
    let total_workers = opts.threads.max(2);

    // Yeast (the paper's smallest dataset) plus a seeded RMAT stand-in
    // with more vertices and skewed degrees — partitioning behaves very
    // differently on the two.
    let mut datasets: Vec<(String, Graph)> = Vec::new();
    for spec in super::datasets_for(opts, &["ye"]) {
        datasets.push((spec.name.to_string(), super::load(&spec).graph));
    }
    datasets.push((
        "rmat-1k".to_string(),
        rmat_graph(1000, 8.0, 4, RmatParams::PAPER, opts.seed),
    ));

    println!(
        "\n=== Sharded serving: {} clients x {} rounds, {} partitioner, shards {:?} ({} total workers, seed {}) ===",
        clients, ROUNDS, strategy.name(), opts.shards, total_workers, opts.seed,
    );
    let mut t = TextTable::new(vec![
        "dataset", "shards", "queries", "wall ms", "q/s", "p50 ms", "p99 ms", "svc p99", "halo",
        "skew", "stitched",
    ]);

    for (ds_name, graph) in &datasets {
        let (queries, halo_depth) = supported_queries(graph, count, opts.seed ^ 0x51AB);
        // Single-service ground truth with the same cap semantics: the
        // router enforces the exact same default cap across shards.
        let oracle = Service::new(graph.clone(), ServiceConfig::default());
        let expected: Vec<u64> = queries
            .iter()
            .map(|q| oracle.run_count(q.clone()).matches)
            .collect();
        drop(oracle);

        for &shards in &opts.shards {
            // Fixed total worker budget: scaling out divides the pool.
            let per_shard_workers = total_workers.div_ceil(shards);
            let svc = Arc::new(ShardedService::new(
                graph.clone(),
                ShardConfig {
                    shards,
                    strategy,
                    halo_depth,
                    seed: opts.seed,
                    service: {
                        let mut svc_cfg = ServiceConfig {
                            workers: per_shard_workers.max(1),
                            max_active: clients.max(2),
                            ..ServiceConfig::default()
                        };
                        super::apply_plan(&mut svc_cfg, &opts.plan);
                        svc_cfg
                    },
                },
            ));
            let started = Instant::now();
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let svc = svc.clone();
                    let queries = queries.clone();
                    let expected = expected.clone();
                    // Seeded per-(client, shard-count) schedule: the same
                    // --seed replays the same submission order.
                    let mut rng = Rng64::seed_from_u64(
                        opts.seed
                            ^ (c as u64).wrapping_mul(0x9e37)
                            ^ (shards as u64).wrapping_mul(0xA5A5_A5A5),
                    );
                    std::thread::spawn(move || {
                        let mut lat = Vec::new();
                        for _ in 0..ROUNDS {
                            for _ in 0..queries.len() {
                                let idx = rng.next_u64_below(queries.len() as u64) as usize;
                                let t0 = Instant::now();
                                let report = svc.run_count(queries[idx].clone());
                                lat.push(t0.elapsed().as_secs_f64() * 1e3);
                                let complete = matches!(
                                    report.outcome,
                                    ServiceOutcome::Complete | ServiceOutcome::CapHit
                                );
                                assert!(complete, "unexpected outcome {:?}", report.outcome);
                                assert_eq!(
                                    report.matches,
                                    expected[idx],
                                    "count mismatch on query {idx} at {} shards: \
                                     sharded {} vs single-service {}",
                                    svc.num_shards(),
                                    report.matches,
                                    expected[idx]
                                );
                            }
                        }
                        lat
                    })
                })
                .collect();
            let mut lat: Vec<f64> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect();
            let wall = started.elapsed().as_secs_f64() * 1e3;
            lat.sort_by(|a, b| a.partial_cmp(b).unwrap());

            // Merged shard-side telemetry: per-shard submit→terminal
            // latency folded across shards (the shard services see one
            // fan-out submission per client query each).
            let tier = svc.metrics_report();
            let total = tier.merged.total();
            let counters = svc.counters();
            let fanned = counters.get(Counter::QueriesFannedOut);
            let stitched = counters.get(Counter::BoundaryEmbeddingsStitched);
            let halo_vertices = counters.get(Counter::HaloVerticesReplicated);
            let skew = counters.get(Counter::ShardSkew);
            assert_eq!(
                fanned,
                (lat.len() * shards) as u64,
                "every submission fans out to every shard"
            );
            t.row(vec![
                ds_name.clone(),
                shards.to_string(),
                lat.len().to_string(),
                ms(wall),
                format!("{:.0}", lat.len() as f64 / (wall / 1e3).max(1e-9)),
                ms(percentile(&lat, 0.5)),
                ms(percentile(&lat, 0.99)),
                ms(total.quantile(0.99) as f64 / 1e6),
                halo_vertices.to_string(),
                format!("{skew}%"),
                stitched.to_string(),
            ]);
        }
    }
    t.print();
    println!(
        "(per-query sharded counts asserted equal to single-service ground truth; \
         halo = vertices replicated onto non-owner shards; skew = max shard's local \
         edges vs even share; stitched = kept embeddings crossing a shard border)"
    );
}
