//! End-to-end telemetry tests: the metrics report covers the full
//! query lifecycle, drop-cancellation is counted, the slow-query log's
//! adaptive tail capture attaches a profile, reports merge, and the
//! Prometheus exposition round-trips.

use sm_graph::builder::graph_from_edges;
use sm_graph::gen::random::erdos_renyi;
use sm_graph::Graph;
use sm_runtime::metrics::prom;
use sm_runtime::Counter;
use sm_service::{MetricsConfig, QueryRequest, Service, ServiceConfig, ServiceOutcome};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn triangle() -> Graph {
    graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)])
}

/// A graph with plenty of triangles so streaming queries stay alive
/// long enough to cancel.
fn busy_graph() -> Graph {
    erdos_renyi(300, 3_000, 1, 0xBEEF)
}

/// Poll `get` until it returns true or `timeout` passes. Counters are
/// bumped by worker threads during finalization, which can land after
/// the client observes the terminal report.
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
fn report_covers_query_lifecycle() {
    let svc = Service::new(busy_graph(), ServiceConfig::default());
    let n = 5;
    let mut matches = 0;
    for _ in 0..n {
        let rep = svc.run_count(triangle());
        assert_eq!(rep.outcome, ServiceOutcome::Complete);
        matches += rep.matches;
    }
    assert!(matches > 0, "workload must actually match");
    let ok = eventually(Duration::from_secs(5), || {
        svc.metrics_report().total().count() == n
    });
    let r = svc.metrics_report();
    assert!(r.enabled, "metrics default on");
    assert!(ok, "every query reaches the total histogram");
    // Per-phase histograms all saw every query.
    for (name, h) in [
        ("queue_wait", &r.queue_wait),
        ("plan", &r.plan),
        ("execute", &r.execute),
        ("result_size", &r.result_size),
    ] {
        assert_eq!(h.count(), n, "{name} histogram count");
    }
    // All runs completed: the per-outcome split puts them under
    // "complete" and nowhere else.
    for (outcome, h) in &r.total_by_outcome {
        let expect = if *outcome == "complete" { n } else { 0 };
        assert_eq!(h.count(), expect, "outcome {outcome}");
    }
    // One canonical form, submitted n times: first compile is a miss,
    // the rest hit. Embeddings are the result-size sum.
    assert_eq!(r.counters.get(Counter::QueriesAdmitted), n);
    assert_eq!(r.counters.get(Counter::PlanCacheHits), n - 1);
    assert_eq!(r.counters.get(Counter::PlanCacheMisses), 1);
    assert_eq!(r.result_size.sum(), matches);
    // The slow log converged to the single form's worst occurrence.
    assert_eq!(r.slow.len(), 1);
    assert!(r.slow[0].report.elapsed > Duration::ZERO);
    assert_eq!(r.slow[0].report.matches, matches / n);
    // Latency sanity: phases nest inside the total.
    let total = r.total();
    assert!(total.sum() >= r.execute.sum());
    assert!(total.quantile(0.5) >= r.execute.quantile(0.5) / 2);
}

/// A query's report is built once: the slow-query log keeps the report
/// its client got, and the latency histogram records the same elapsed.
#[test]
fn the_slow_log_keeps_the_clients_report() {
    let svc = Service::new(busy_graph(), ServiceConfig::default());
    let report = svc.submit(QueryRequest::count(triangle())).wait();
    assert_eq!(report.outcome, ServiceOutcome::Complete);
    let r = svc.metrics_report();
    assert_eq!(r.slow.len(), 1, "the first query is the slowest yet");
    assert_eq!(r.slow[0].report, report);
    assert_eq!(r.total().count(), 1);
    assert_eq!(r.total().sum(), report.elapsed.as_nanos() as u64);
}

/// Concurrent clients on one service: the telemetry sees every
/// submission, none lost between runs finalizing at the same time.
#[test]
fn concurrent_submissions_all_reach_the_total_histogram() {
    let cfg = ServiceConfig {
        workers: 2,
        max_active: 4,
        ..ServiceConfig::default()
    };
    let svc = Arc::new(Service::new(busy_graph(), cfg));
    let (clients, per_client) = (4, 6);
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let svc = svc.clone();
            std::thread::spawn(move || {
                for _ in 0..per_client {
                    let rep = svc.run_count(triangle());
                    assert_eq!(rep.outcome, ServiceOutcome::Complete);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let n = clients * per_client;
    assert!(
        eventually(Duration::from_secs(5), || {
            svc.metrics_report().total().count() == n
        }),
        "every concurrent submission reaches the total histogram"
    );
    let r = svc.metrics_report();
    assert_eq!(r.counters.get(Counter::QueriesAdmitted), n);
}

#[test]
fn queue_wait_starts_when_the_plan_is_ready() {
    // One cold submission on an idle service queues behind nothing: its
    // queue wait is the hop from plan-ready to activation, not the
    // canonicalize + probe + compile that ran before it.
    let svc = Service::new(
        erdos_renyi(4_000, 60_000, 2, 0xBEEF),
        ServiceConfig::default(),
    );
    let q = graph_from_edges(&[0, 1, 0, 1, 0], &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)]);
    let rep = svc.run_count(q);
    assert!(!rep.cache_hit && rep.plan_build_ns > 0, "a cold compile");
    assert!(eventually(Duration::from_secs(5), || {
        svc.metrics_report().queue_wait.count() == 1
    }));
    let waited_ns = svc.metrics_report().queue_wait.sum();
    assert!(
        waited_ns < rep.plan_build_ns / 4,
        "queue wait {waited_ns} ns must not contain the {} ns compile",
        rep.plan_build_ns
    );
}

#[test]
fn dropping_stream_counts_drop_cancel() {
    // Tiny buffer keeps the producer blocked (query alive) while the
    // client walks away.
    let svc = Service::new(
        busy_graph(),
        ServiceConfig {
            stream_capacity: 2,
            ..ServiceConfig::default()
        },
    );
    let mut stream = svc.submit(QueryRequest::streaming(triangle()));
    assert!(stream.next().is_some(), "graph has triangles");
    drop(stream);
    assert!(
        eventually(Duration::from_secs(5), || {
            svc.counters().get(Counter::QueriesCancelledByDrop) >= 1
        }),
        "abandoning a live stream is counted as a drop-cancel"
    );
    // The cancelled run still lands in the telemetry, under its own
    // outcome series.
    assert!(eventually(Duration::from_secs(5), || {
        svc.metrics_report()
            .total_by_outcome
            .iter()
            .any(|(o, h)| *o == "cancelled" && h.count() == 1)
    }));
}

#[test]
fn explicit_cancel_counts_drop_cancel() {
    let svc = Service::new(
        busy_graph(),
        ServiceConfig {
            stream_capacity: 2,
            ..ServiceConfig::default()
        },
    );
    let stream = svc.submit(QueryRequest::streaming(triangle()));
    stream.cancel();
    let rep = stream.wait();
    assert_eq!(rep.outcome, ServiceOutcome::Cancelled);
    assert!(eventually(Duration::from_secs(5), || {
        svc.counters().get(Counter::QueriesCancelledByDrop) >= 1
    }));
}

#[test]
fn disabled_metrics_report_is_inert_but_counters_live() {
    let svc = Service::new(
        busy_graph(),
        ServiceConfig {
            metrics: MetricsConfig {
                enabled: false,
                ..MetricsConfig::default()
            },
            ..ServiceConfig::default()
        },
    );
    let rep = svc.run_count(triangle());
    assert_eq!(rep.outcome, ServiceOutcome::Complete);
    let r = svc.metrics_report();
    assert!(!r.enabled);
    assert_eq!(r.total().count(), 0, "no histogram records when disabled");
    assert!(r.slow.is_empty());
    // The registry counters are service state, not telemetry — they
    // stay correct either way.
    assert_eq!(r.counters.get(Counter::QueriesAdmitted), 1);
}

#[test]
fn tail_capture_attaches_profile_on_reoccurrence() {
    // Threshold zero: every query crosses it, arming its canonical
    // form — the second submission of the same form runs traced.
    let svc = Service::new(
        busy_graph(),
        ServiceConfig {
            metrics: MetricsConfig {
                slow_threshold: Some(Duration::ZERO),
                ..MetricsConfig::default()
            },
            ..ServiceConfig::default()
        },
    );
    assert_eq!(svc.run_count(triangle()).outcome, ServiceOutcome::Complete);
    assert!(
        eventually(Duration::from_secs(5), || {
            svc.metrics_report().slow.len() == 1
        }),
        "first occurrence logged"
    );
    assert!(
        svc.metrics_report().slow[0].profile.is_none(),
        "no profile yet — capture arms for the next occurrence"
    );
    assert_eq!(svc.run_count(triangle()).outcome, ServiceOutcome::Complete);
    assert!(
        eventually(Duration::from_secs(5), || {
            svc.metrics_report().slow[0].profile.is_some()
        }),
        "re-occurrence of an armed form carries a rendered profile"
    );
    let r = svc.metrics_report();
    let profile = r.slow[0].profile.as_ref().expect("profile attached");
    assert!(!profile.is_empty());
}

#[test]
fn reports_merge_like_one_service() {
    let svc_a = Service::new(busy_graph(), ServiceConfig::default());
    let svc_b = Service::new(busy_graph(), ServiceConfig::default());
    svc_a.run_count(triangle());
    svc_b.run_count(triangle());
    svc_b.run_count(triangle());
    assert!(eventually(Duration::from_secs(5), || {
        svc_a.metrics_report().total().count() == 1 && svc_b.metrics_report().total().count() == 2
    }));
    let mut merged = svc_a.metrics_report();
    merged.merge_from(&svc_b.metrics_report());
    assert_eq!(merged.total().count(), 3);
    assert_eq!(merged.counters.get(Counter::QueriesAdmitted), 3);
    // Merged extrema bracket both sides'.
    let (a, b) = (
        svc_a.metrics_report().total(),
        svc_b.metrics_report().total(),
    );
    assert_eq!(merged.total().min(), a.min().min(b.min()));
    assert_eq!(merged.total().max(), a.max().max(b.max()));
}

#[test]
fn prometheus_exposition_round_trips() {
    let svc = Service::new(busy_graph(), ServiceConfig::default());
    let n = 3;
    for _ in 0..n {
        svc.run_count(triangle());
    }
    assert!(eventually(Duration::from_secs(5), || {
        svc.metrics_report().total().count() == n
    }));
    let text = svc.metrics_report().to_prometheus();
    let samples = prom::parse(&text).expect("exposition parses back");
    let get = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .unwrap_or_else(|| panic!("sample {name} missing"))
            .value
    };
    assert_eq!(get("sm_queries_admitted"), n as f64);
    assert_eq!(get("sm_query_execute_ns_count"), n as f64);
    assert_eq!(get("sm_plan_cache_hits"), (n - 1) as f64);
    // The per-outcome latency family keeps its outcome label through
    // the round-trip, and its sum is real time.
    assert!(samples.iter().any(|s| {
        s.name == "sm_query_total_ns_sum"
            && s.labels
                .iter()
                .any(|(k, v)| k == "outcome" && v == "complete")
            && s.value > 0.0
    }));
    // Every family is announced: the six latency/size summaries and one
    // series per registry counter, and nothing else — the windowed rate
    // gauges are gone, each rate being a reader's delta of a series here.
    let announced: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE sm_"))
        .filter_map(|l| l.split(' ').next())
        .collect();
    let histograms = [
        "query_drain_ns",
        "query_execute_ns",
        "query_plan_ns",
        "query_queue_wait_ns",
        "query_result_size",
        "query_total_ns",
    ];
    for family in histograms.into_iter().chain(Counter::ALL.map(|c| c.name())) {
        assert!(announced.contains(&family), "family {family} missing");
    }
    assert_eq!(announced.len(), histograms.len() + Counter::ALL.len());
    for gone in [
        "rate_queries_per_sec",
        "rate_embeddings_per_sec",
        "rate_updates_per_sec",
        "cache_hit_rate_window",
    ] {
        assert!(!announced.contains(&gone), "{gone} is still exported");
    }
}
