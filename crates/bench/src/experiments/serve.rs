//! Multi-client service throughput — an extension experiment over the
//! `sm-service` layer: N client threads submit a small query workload
//! (each client walking the set from a different offset, so the same
//! plans are requested concurrently) against one [`Service`].
//!
//! What the table shows, per configuration:
//!
//! * **throughput** and latency percentiles (p50/p99) across all client
//!   submissions,
//! * the **plan-cache hit rate** — with caching on, every query after a
//!   plan's first compilation reuses it; the `no-cache` row pays
//!   compilation on every submission,
//! * a **deadline** row where every query carries a tiny budget and must
//!   terminate with an explicit `Deadline` outcome (partial counts), not
//!   a hang.
//!
//! The experiment is also a correctness smoke (CI runs it): every
//! concurrent per-query count is asserted equal to the sequential
//! [`sm_match::Pipeline`] count of the same query, and the cached run
//! must observe a nonzero hit rate — violations panic.

use crate::args::HarnessOptions;
use crate::table::{ms, percentile, TextTable};
use sm_graph::gen::query::{Density, QuerySetSpec};
use sm_match::{DataContext, MatchConfig};
use sm_runtime::{Counter, Rng64};
use sm_service::{QueryRequest, Service, ServiceConfig, ServiceOutcome};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rounds each client walks the query set.
const ROUNDS: usize = 4;

/// Run the service experiment.
pub fn run(opts: &HarnessOptions) {
    let specs = super::datasets_for(opts, &["ye"]);
    let Some(spec) = specs.first() else {
        eprintln!("serve: no dataset resolved");
        return;
    };
    let ds = super::load(spec);
    let queries = super::query_set(
        &ds,
        QuerySetSpec {
            num_vertices: 8,
            density: Density::Dense,
            count: opts.queries.clamp(2, 6),
        },
    );
    let clients = opts.clients;
    let pipeline = sm_match::Algorithm::GraphQl.optimized();

    // Sequential ground truth, one plan compile + run per query.
    let gc = DataContext::new(&ds.graph);
    let cfg = MatchConfig::default(); // 10^5 cap, no time limit
    let expected: Vec<u64> = queries
        .iter()
        .map(|q| pipeline.run(q, &gc, &cfg).matches)
        .collect();
    println!(
        "\n=== Service: {} clients x {} rounds over {} queries (Q8D) on {} ({} workers, seed {}, plan {}) ===",
        clients,
        ROUNDS,
        queries.len(),
        spec.name,
        opts.threads.max(2),
        opts.seed,
        opts.plan.label(),
    );

    let mut t = TextTable::new(vec![
        "mode", "queries", "wall ms", "q/s", "p50 ms", "p99 ms", "svc p50", "svc p99", "hit rate",
        "outcomes",
    ]);
    for (mode, cache_capacity) in [("cached", 256usize), ("no-cache", 0)] {
        let mut svc_cfg = ServiceConfig {
            workers: opts.threads.max(2),
            max_active: clients.max(2),
            cache_capacity,
            pipeline: pipeline.clone(),
            ..ServiceConfig::default()
        };
        super::apply_plan(&mut svc_cfg, &opts.plan);
        let svc = Arc::new(Service::new(ds.graph.clone(), svc_cfg));
        let started = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let svc = svc.clone();
                let queries = queries.clone();
                let expected = expected.clone();
                // Seeded per-client schedule: the same --seed replays the
                // same submission order run to run, while different
                // clients still interleave the same plans concurrently.
                let mut rng = Rng64::seed_from_u64(opts.seed ^ (c as u64).wrapping_mul(0x9e37));
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
                                report.matches, expected[idx],
                                "count mismatch on query {idx}: concurrent {} vs sequential {}",
                                report.matches, expected[idx]
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
        let counters = svc.counters();
        let (hits, misses, _, _) = svc.cache_stats();
        let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
        if cache_capacity > 0 {
            assert!(
                hits > 0,
                "cached mode must observe plan-cache hits (got {hits}/{misses})"
            );
        }
        // Service-side (submit→terminal) latency from the always-on
        // telemetry histograms — the cross-check for the client-observed
        // percentiles above.
        let report = svc.metrics_report();
        let total = report.total();
        assert_eq!(
            total.count(),
            lat.len() as u64,
            "telemetry saw every submission"
        );
        t.row(vec![
            mode.to_string(),
            lat.len().to_string(),
            ms(wall),
            format!("{:.0}", lat.len() as f64 / (wall / 1e3).max(1e-9)),
            ms(percentile(&lat, 0.5)),
            ms(percentile(&lat, 0.99)),
            ms(total.quantile(0.50) as f64 / 1e6),
            ms(total.quantile(0.99) as f64 / 1e6),
            format!("{:.0}%", hit_rate * 100.0),
            format!(
                "admitted={} rejected={}",
                counters.get(Counter::QueriesAdmitted),
                counters.get(Counter::QueriesRejected)
            ),
        ]);
    }

    // Deadline row: every query under a 1-tick budget terminates with an
    // explicit Deadline outcome (or completes if it truly was that fast).
    {
        let mut svc_cfg = ServiceConfig {
            workers: opts.threads.max(2),
            pipeline: pipeline.clone(),
            default_deadline: Some(Duration::from_micros(1)),
            ..ServiceConfig::default()
        };
        super::apply_plan(&mut svc_cfg, &opts.plan);
        let svc = Service::new(ds.graph.clone(), svc_cfg);
        let started = Instant::now();
        let mut deadline_hits = 0usize;
        let mut lat = Vec::new();
        for q in &queries {
            let t0 = Instant::now();
            let report = svc.submit(QueryRequest::count(q.clone())).wait();
            lat.push(t0.elapsed().as_secs_f64() * 1e3);
            match report.outcome {
                ServiceOutcome::Deadline => deadline_hits += 1,
                ServiceOutcome::Complete | ServiceOutcome::CapHit => {}
                other => panic!("deadline run ended with {other:?}"),
            }
        }
        let wall = started.elapsed().as_secs_f64() * 1e3;
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let total = svc.metrics_report().total();
        t.row(vec![
            "deadline-1µs".to_string(),
            queries.len().to_string(),
            ms(wall),
            format!("{:.0}", queries.len() as f64 / (wall / 1e3).max(1e-9)),
            ms(percentile(&lat, 0.5)),
            ms(percentile(&lat, 0.99)),
            ms(total.quantile(0.50) as f64 / 1e6),
            ms(total.quantile(0.99) as f64 / 1e6),
            "-".to_string(),
            format!("deadline={deadline_hits}/{}", queries.len()),
        ]);
    }
    t.print();
    println!("(per-query counts asserted equal to sequential Pipeline runs; 'cached' must hit the plan cache. hit rate counts plan-cache lookups; q/s is client-observed throughput)");
}
