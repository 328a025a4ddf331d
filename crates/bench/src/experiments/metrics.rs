//! Telemetry-surface experiments: the `top` live view and the
//! `metrics-overhead` CI gate.
//!
//! **`top`** runs a multi-client workload against a sharded tier for
//! `--duration-ms` and prints a refreshed per-shard line every
//! `--refresh-ms`: queries/s and cache hit rate since the previous
//! refresh, service-side p99, plus the tier's halo/skew gauges — all
//! read from [`sm_shard::ShardedService::metrics_report`], the same
//! snapshot a scraper would poll. The report's series are cumulative,
//! so the rates are the change in a query count and in
//! `plan_cache_{hits,misses}` between two refreshes, divided by the
//! time between them — what a scraper computes from two scrapes. A
//! shard's query count is its histogram's `total().count()`. The tier's
//! is the client's: every client query runs once on every shard, so the
//! merged histogram counts it once per shard, and so does the router's
//! `queries_fanned_out`; the "all" line reads the latter over the shard
//! count.
//!
//! **`metrics-overhead`** is the cost gate for always-on telemetry: the
//! same single-service workload runs with metrics enabled and disabled
//! in back-to-back per-query pairs, each query's best observed time
//! per side is kept, and the median per-query slowdown of the enabled
//! path must stay within
//! [`OVERHEAD_BOUND`] of the disabled one — the budget that justifies
//! defaulting [`sm_service::MetricsConfig::enabled`] to `true`. The
//! gate also round-trips the Prometheus exposition through
//! [`sm_runtime::metrics::prom::parse`] so a scrape regression fails CI
//! here, not in a dashboard.

use crate::args::HarnessOptions;
use sm_graph::builder::graph_from_edges;
use sm_graph::gen::query::{generate_query_set, Density, QuerySetSpec};
use sm_graph::gen::random::erdos_renyi;
use sm_graph::traversal::diameter;
use sm_graph::Graph;
use sm_runtime::metrics::prom;
use sm_runtime::{Counter, Rng64};
use sm_service::{MetricsConfig, MetricsReport, QueryRequest, Service, ServiceConfig};
use sm_shard::{PartitionStrategy, ShardConfig, ShardedService};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The cumulative series a `top` rate is the delta of: queries reaching
/// a terminal state, plan-cache hits and lookups.
#[derive(Clone, Copy, Default)]
struct Tally {
    queries: u64,
    hits: u64,
    lookups: u64,
}

impl Tally {
    /// One shard's series: each run it served is one of its queries.
    fn of_shard(r: &MetricsReport) -> Tally {
        Tally::with_queries(r, r.total().count())
    }

    /// The tier's series from its merged report: client queries, each
    /// fanned out to all `shards`.
    fn of_tier(r: &MetricsReport, shards: usize) -> Tally {
        let fanned_out = r.counters.get(Counter::QueriesFannedOut);
        Tally::with_queries(r, fanned_out / shards as u64)
    }

    fn with_queries(r: &MetricsReport, queries: u64) -> Tally {
        let hits = r.counters.get(Counter::PlanCacheHits);
        Tally {
            queries,
            hits,
            lookups: hits + r.counters.get(Counter::PlanCacheMisses),
        }
    }

    /// Queries/s and cache hit % between `prev` and `self`, `secs`
    /// apart (hit % reads 0 when nothing was looked up).
    fn rates_since(self, prev: Tally, secs: f64) -> (f64, f64) {
        let lookups = self.lookups - prev.lookups;
        let hit_pct = if lookups == 0 {
            0.0
        } else {
            (self.hits - prev.hits) as f64 * 100.0 / lookups as f64
        };
        let qps = (self.queries - prev.queries) as f64 / secs.max(1e-9);
        (qps, hit_pct)
    }
}

/// Allowed relative slowdown of the metrics-enabled service (2%).
pub const OVERHEAD_BOUND: f64 = 0.02;

/// Rounds in the overhead gate; each round runs one disabled/enabled
/// instance pair through [`OVERHEAD_PASSES`] passes of the query set.
const OVERHEAD_ROUNDS: usize = 20;

/// Query-set passes per round. Rounds × passes is the number of timed
/// samples each query's best-observed time is taken over.
const OVERHEAD_PASSES: usize = 6;

/// Service instances per side. Each instance's heap layout is a fresh
/// draw (ASLR, allocation order), and layout luck persists for the
/// whole process — a per-instance bias no amount of re-sampling on that
/// instance removes. Taking each query's best time across several
/// instances per side removes the draw along with the noise.
const OVERHEAD_INSTANCES: usize = 5;

/// Per-query embedding cap in the overhead workload: the generated
/// queries would otherwise enumerate unbounded millions on the dense
/// synthetic graph. Capped counts are exact (`CapHit` counts equal the
/// cap), so both services must still report identical totals.
const OVERHEAD_CAP: u64 = 20_000;

/// Queries the sharded tier supports: connected, at least one edge.
/// The halo depth is then sized to the largest surviving diameter, so
/// every kept query is answerable at any shard count.
fn supported_queries(g: &Graph, count: usize, seed: u64) -> (Vec<Graph>, u32) {
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

/// The `top` subcommand: live per-shard telemetry under load.
pub fn top(opts: &HarnessOptions) {
    let strategy = PartitionStrategy::from_name(&opts.partitioner)
        .expect("args parser admits only hash|label");
    // A per-shard view needs at least two shards to be interesting:
    // take the first requested count ≥ 2, else the last.
    let shards = opts
        .shards
        .iter()
        .copied()
        .find(|&s| s >= 2)
        .or_else(|| opts.shards.last().copied())
        .unwrap_or(2);
    let specs = super::datasets_for(opts, &["ye"]);
    let Some(spec) = specs.first() else {
        eprintln!("top: no dataset resolved");
        return;
    };
    let ds = super::load(spec);
    let (queries, halo_depth) =
        supported_queries(&ds.graph, opts.queries.clamp(2, 6), opts.seed ^ 0x51AB);
    let clients = opts.clients;
    let svc = Arc::new(ShardedService::new(
        ds.graph.clone(),
        ShardConfig {
            shards,
            strategy,
            halo_depth,
            seed: opts.seed,
            service: ServiceConfig {
                workers: opts.threads.max(2).div_ceil(shards),
                max_active: clients.max(2),
                ..ServiceConfig::default()
            },
        },
    ));
    println!(
        "\n=== top: {} clients over {} ({} shards, {} partitioner), {:?} at {:?} refresh ===",
        clients,
        spec.name,
        shards,
        strategy.name(),
        opts.duration,
        opts.refresh,
    );
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let svc = svc.clone();
            let stop = stop.clone();
            let queries = queries.clone();
            let mut rng = Rng64::seed_from_u64(opts.seed ^ (c as u64).wrapping_mul(0x9e37));
            std::thread::spawn(move || {
                let mut done = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let idx = rng.next_u64_below(queries.len() as u64) as usize;
                    svc.run_count(queries[idx].clone());
                    done += 1;
                }
                done
            })
        })
        .collect();
    let started = Instant::now();
    let mut ticks = 0u64;
    let (mut last_at, mut last_all) = (started, Tally::default());
    let mut last_shard = vec![Tally::default(); shards];
    while started.elapsed() < opts.duration {
        std::thread::sleep(opts.refresh.min(opts.duration));
        ticks += 1;
        let tier = svc.metrics_report();
        let now = Instant::now();
        let secs = now.duration_since(last_at).as_secs_f64();
        last_at = now;
        let skew = tier.merged.counters.get(Counter::ShardSkew);
        let halo = tier.merged.counters.get(Counter::HaloVerticesReplicated);
        let all = Tally::of_tier(&tier.merged, shards);
        let (qps, hit) = all.rates_since(last_all, secs);
        last_all = all;
        println!(
            "[{:5.1}s] all: {qps:7.1} q/s  p99 {:8.2} ms  hit {hit:3.0}%  skew {skew}%  halo {halo}",
            started.elapsed().as_secs_f64(),
            tier.merged.total().quantile(0.99) as f64 / 1e6,
        );
        for (i, (r, last)) in tier.per_shard.iter().zip(&mut last_shard).enumerate() {
            let now = Tally::of_shard(r);
            let (qps, hit) = now.rates_since(*last, secs);
            *last = now;
            println!(
                "         shard {i}: {qps:7.1} q/s  p99 {:8.2} ms  hit {hit:3.0}%",
                r.total().quantile(0.99) as f64 / 1e6,
            );
        }
    }
    stop.store(true, Ordering::Relaxed);
    let total_done: u64 = workers
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .sum();
    let tier = svc.metrics_report();
    assert!(
        tier.merged.enabled && tier.merged.total().count() >= total_done,
        "telemetry saw every client submission ({} < {total_done})",
        tier.merged.total().count(),
    );
    // Every client query has returned, so the "all" total is exact.
    let all = Tally::of_tier(&tier.merged, shards).queries;
    assert_eq!(all, total_done, "the \"all\" total counts client queries");
    println!(
        "top: {total_done} client queries over {ticks} refreshes; final merged p99 {:.2} ms",
        tier.merged.total().quantile(0.99) as f64 / 1e6
    );
}

/// The `metrics-overhead` subcommand: the always-on-telemetry cost
/// gate. Exits nonzero when the enabled service is more than
/// `bound` slower than the disabled one (CI passes
/// [`OVERHEAD_BOUND`]; the smoke test passes `None` — at smoke scale
/// the measurement is noise, only the wiring is under test), or when
/// the Prometheus exposition fails to parse back.
pub fn overhead(opts: &HarnessOptions, bound: Option<f64>) {
    // Serving-representative workload: a seeded Erdős–Rényi graph with
    // a small label alphabet, so each cached Q6 query enumerates
    // thousands of embeddings (up to [`OVERHEAD_CAP`]) — the telemetry's
    // fixed per-query cost is measured against real enumeration work,
    // not against the submission machinery alone.
    let graph = erdos_renyi(2_000, 12_000, 4, 0xC0FFEE ^ opts.seed);
    let queries: Vec<_> = generate_query_set(
        &graph,
        QuerySetSpec {
            num_vertices: 6,
            density: Density::Sparse,
            count: opts.queries.clamp(2, 6),
        },
        opts.seed ^ 0x0BED,
    )
    .into_iter()
    .filter(|q| q.num_edges() >= 1)
    .collect();
    // One worker, deliberately: serial morsel execution makes each
    // query's runtime reproducible (a parallel cap race finishes at a
    // scheduler-dependent moment, burying a 2% signal in run-to-run
    // noise), and the telemetry cost under test is per-query, not
    // per-worker.
    let workers = 1;
    let build = |enabled: bool| {
        Service::new(
            graph.clone(),
            ServiceConfig {
                workers,
                metrics: MetricsConfig {
                    enabled,
                    ..MetricsConfig::default()
                },
                ..ServiceConfig::default()
            },
        )
    };
    // Steady-state serving cost: [`OVERHEAD_INSTANCES`] services per
    // configuration (construction interleaved so neither side gets the
    // systematically luckier heap addresses), a warm pass each to
    // compile and cache every plan (and fill the slow log to its
    // converged shape), then interleaved cache-hit passes — the path the
    // always-on default actually pays for on every query. Each timed
    // sample is one query run back to back on the disabled and the
    // enabled service (order alternating), so an off/on pair shares the
    // same ~millisecond of machine weather — frequency drift and noisy
    // neighbors hit both sides of a pair, not one. The statistic is
    // each query's **best** observed time per side over all of that
    // side's instances, summed: the work is deterministic and serial,
    // so timing noise is strictly additive and the minimum over many
    // samples converges to the true execution time — while the minimum
    // over several instances also sheds each instance's persistent
    // memory-layout draw, which re-sampling one instance never
    // averages out.
    let timed = |svc: &Service, q: &sm_graph::Graph, best: &mut f64| -> u64 {
        let t0 = Instant::now();
        let m = svc
            .submit(QueryRequest::count(q.clone()).with_cap(OVERHEAD_CAP))
            .wait()
            .matches;
        *best = best.min(t0.elapsed().as_secs_f64());
        m
    };
    let mut svcs_off = Vec::new();
    let mut svcs_on = Vec::new();
    for _ in 0..OVERHEAD_INSTANCES {
        svcs_off.push(build(false));
        svcs_on.push(build(true));
    }
    let mut best_off = vec![f64::INFINITY; queries.len()];
    let mut best_on = vec![f64::INFINITY; queries.len()];
    // Warm-up (plan compile + cache, allocator) discarded.
    let mut sink = f64::INFINITY;
    for j in 0..OVERHEAD_INSTANCES {
        for q in &queries {
            timed(&svcs_off[j], q, &mut sink);
            timed(&svcs_on[j], q, &mut sink);
        }
    }
    for i in 0..OVERHEAD_ROUNDS {
        let j = i % OVERHEAD_INSTANCES;
        let (off, on) = (&svcs_off[j], &svcs_on[j]);
        for p in 0..OVERHEAD_PASSES {
            for (qi, q) in queries.iter().enumerate() {
                // Alternate which side runs first within each pair, so
                // even a weather shift *between* the two runs of a pair
                // never lands systematically on one side.
                let (m0, m1) = if (i + p + qi) % 2 == 0 {
                    let m0 = timed(off, q, &mut best_off[qi]);
                    (m0, timed(on, q, &mut best_on[qi]))
                } else {
                    let m1 = timed(on, q, &mut best_on[qi]);
                    (timed(off, q, &mut best_off[qi]), m1)
                };
                assert_eq!(m0, m1, "telemetry must not change results");
            }
        }
    }
    let disabled: f64 = best_off.iter().sum();
    let enabled: f64 = best_on.iter().sum();
    // Gate statistic: the **median** of per-query overhead ratios. The
    // telemetry cost under test is per-query, so every query should
    // show it; the median reports that consensus while shrugging off
    // one query whose minima landed on an unlucky layout draw — which
    // a sum over queries would let tip the whole gate.
    let mut ratios: Vec<f64> = best_on
        .iter()
        .zip(&best_off)
        .map(|(on, off)| on / off.max(1e-9) - 1.0)
        .collect();
    ratios.sort_by(|a, b| a.total_cmp(b));
    let overhead = (ratios[(ratios.len() - 1) / 2] + ratios[ratios.len() / 2]) / 2.0;
    println!(
        "metrics-overhead: disabled {:.2} ms, enabled {:.2} ms per query set \
         (best-of-{} per query over {} instances/side), median overhead {:+.2}% (bound {})",
        disabled * 1e3,
        enabled * 1e3,
        OVERHEAD_ROUNDS * OVERHEAD_PASSES,
        OVERHEAD_INSTANCES,
        overhead * 100.0,
        bound.map_or("none".to_string(), |b| format!("{:.0}%", b * 100.0)),
    );

    // Prometheus parse-back smoke on the service that did real work.
    let text = svcs_on[0].metrics_report().to_prometheus();
    let samples = prom::parse(&text).expect("exposition parses back");
    assert!(
        samples
            .iter()
            .any(|s| s.name == "sm_queries_admitted" && s.value >= queries.len() as f64),
        "exposition carries the admission counter"
    );
    assert!(
        samples.iter().any(|s| s.name == "sm_query_total_ns_count"),
        "exposition carries the latency summary"
    );
    println!(
        "metrics-overhead: exposition parse-back ok ({} samples)",
        samples.len()
    );

    if let Some(b) = bound {
        if overhead > b {
            eprintln!(
                "metrics-overhead: always-on telemetry exceeds the {:.0}% bound",
                b * 100.0
            );
            std::process::exit(1);
        }
    }
}
