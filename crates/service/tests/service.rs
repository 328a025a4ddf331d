//! End-to-end service tests: concurrent-vs-sequential agreement, plan
//! sharing across permuted submissions, deterministic deadline handling
//! on empty work, admission rejection, and streamed-embedding validity.

use sm_graph::builder::graph_from_edges;
use sm_graph::{Graph, VertexId};
use sm_match::enumerate::parallel::ParallelStrategy;
use sm_match::enumerate::CountSink;
use sm_match::{DataContext, MatchConfig, Pipeline};
use sm_service::{QueryRequest, Service, ServiceConfig, ServiceOutcome};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Deterministic pseudo-random data graph: `n` vertices, `labels`
/// label values, about `m` distinct edges.
fn random_graph(n: u32, labels: u32, m: usize, mut seed: u64) -> Graph {
    let mut step = || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 33) as u32
    };
    let vlabels: Vec<u32> = (0..n).map(|_| step() % labels).collect();
    let mut edges = Vec::new();
    let mut seen = std::collections::HashSet::new();
    while edges.len() < m {
        let a = step() % n;
        let b = step() % n;
        if a != b && seen.insert((a.min(b), a.max(b))) {
            edges.push((a, b));
        }
    }
    graph_from_edges(&vlabels, &edges)
}

/// Apply a vertex permutation to a graph: vertex `v` becomes `perm[v]`.
fn permuted(g: &Graph, perm: &[VertexId]) -> Graph {
    let n = g.num_vertices();
    let mut labels = vec![0u32; n];
    for v in 0..n as VertexId {
        labels[perm[v as usize] as usize] = g.label(v);
    }
    let mut edges = Vec::new();
    for v in 0..n as VertexId {
        for &w in g.neighbors(v) {
            if v < w {
                edges.push((perm[v as usize], perm[w as usize]));
            }
        }
    }
    graph_from_edges(&labels, &edges)
}

fn sequential_count(q: &Graph, g: &Graph, pipeline: &Pipeline, cap: Option<u64>) -> u64 {
    let ctx = DataContext::new(g);
    let cfg = MatchConfig {
        max_matches: cap,
        ..MatchConfig::find_all()
    };
    pipeline.run(q, &ctx, &cfg).matches
}

fn test_queries() -> Vec<Graph> {
    vec![
        // triangle
        graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]),
        // path of 4
        graph_from_edges(&[0, 1, 0, 2], &[(0, 1), (1, 2), (2, 3)]),
        // star
        graph_from_edges(&[1, 0, 0, 2], &[(0, 1), (0, 2), (0, 3)]),
        // triangle with tail
        graph_from_edges(&[0, 0, 1, 2], &[(0, 1), (1, 2), (0, 2), (2, 3)]),
    ]
}

#[test]
fn concurrent_counts_agree_with_sequential() {
    let g = random_graph(250, 3, 900, 0xC0FFEE);
    let queries = test_queries();
    let pipeline = ServiceConfig::default().pipeline.clone();
    let expected: Vec<u64> = queries
        .iter()
        .map(|q| sequential_count(q, &g, &pipeline, None))
        .collect();
    assert!(
        expected.iter().any(|&c| c > 0),
        "fixture should have matches"
    );

    let svc = Arc::new(Service::new(
        g,
        ServiceConfig {
            workers: 4,
            max_active: 4,
            ..ServiceConfig::default()
        },
    ));
    let handles: Vec<_> = (0..4)
        .map(|client| {
            let svc = svc.clone();
            let queries = queries.clone();
            let expected = expected.clone();
            thread::spawn(move || {
                // Each client walks the query set from a different offset
                // so distinct plans are in flight simultaneously.
                for round in 0..3 {
                    for i in 0..queries.len() {
                        let idx = (client + round + i) % queries.len();
                        let report = svc.run_count(queries[idx].clone());
                        assert_eq!(report.outcome, ServiceOutcome::Complete);
                        assert_eq!(
                            report.matches, expected[idx],
                            "query {idx} count drifted under concurrency"
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // 4 distinct plans, 48 submissions. Concurrent cold-start misses can
    // double-compile a plan (each of the 4 clients may miss each plan
    // once before anyone populates it), but never more than that.
    let (hits, misses, _, len) = svc.cache_stats();
    assert_eq!(hits + misses, 48);
    assert_eq!(len, queries.len());
    assert!(misses <= 16, "at most one cold miss per client per plan");
    assert!(hits >= 32, "got only {hits} hits");
}

#[test]
fn permuted_queries_share_one_plan_and_counts() {
    let g = random_graph(150, 3, 500, 0xBEEF);
    let q = graph_from_edges(&[0, 0, 1, 2], &[(0, 1), (1, 2), (0, 2), (2, 3)]);
    // a nontrivial relabeling of the same query
    let q_perm = permuted(&q, &[2, 0, 3, 1]);

    let svc = Service::new(g, ServiceConfig::default());
    let first = svc.run_count(q.clone());
    let second = svc.run_count(q_perm);
    let third = svc.run_count(q);
    assert!(!first.cache_hit);
    assert!(second.cache_hit, "permuted query must reuse the plan");
    assert!(third.cache_hit);
    assert_eq!(first.matches, second.matches);
    assert_eq!(first.matches, third.matches);
    assert_eq!(second.plan_build_ns, 0, "hits compile nothing");
    let (hits, misses, _, len) = svc.cache_stats();
    assert_eq!((hits, misses, len), (2, 1, 1));
}

#[test]
fn empty_work_finishes_deterministically() {
    let g = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]);
    let svc = Service::new(g, ServiceConfig::default());
    // label 9 exists nowhere: the filter proves unsatisfiability.
    let q = graph_from_edges(&[9, 9], &[(0, 1)]);

    // Without a deadline: Complete with zero matches, immediately.
    let r = svc.submit(QueryRequest::count(q.clone())).wait();
    assert_eq!(r.outcome, ServiceOutcome::Complete);
    assert_eq!(r.matches, 0);

    // With an already-expired deadline: Deadline, never a hang — the
    // run is finalized at submission, no worker is involved.
    let r = svc
        .submit(QueryRequest::count(q.clone()).with_deadline(Duration::ZERO))
        .wait();
    assert_eq!(r.outcome, ServiceOutcome::Deadline);
    assert_eq!(r.matches, 0);

    // Unsatisfiable outcomes are cached too (negative-result entry).
    let r = svc.submit(QueryRequest::count(q)).wait();
    assert!(r.cache_hit);
    assert_eq!(r.outcome, ServiceOutcome::Complete);
}

#[test]
fn expired_deadline_on_runnable_plan_reports_deadline() {
    let g = random_graph(100, 2, 400, 0xABCD);
    let q = graph_from_edges(&[0, 1], &[(0, 1)]);
    let svc = Service::new(g, ServiceConfig::default());
    let r = svc
        .submit(QueryRequest::count(q).with_deadline(Duration::ZERO))
        .wait();
    // Workers observe the expired token before running any morsel.
    assert_eq!(r.outcome, ServiceOutcome::Deadline);
    assert_eq!(r.matches, 0);
}

#[test]
fn cap_hit_is_exact() {
    // Edge query on a clique: plenty of matches, cap at 7.
    let k6: Vec<(u32, u32)> = (0..6u32)
        .flat_map(|a| ((a + 1)..6).map(move |b| (a, b)))
        .collect();
    let g = graph_from_edges(&[0; 6], &k6);
    let q = graph_from_edges(&[0, 0], &[(0, 1)]);
    let svc = Service::new(
        g,
        ServiceConfig {
            workers: 3,
            ..ServiceConfig::default()
        },
    );
    for _ in 0..4 {
        let r = svc
            .submit(QueryRequest::count(q.clone()).with_cap(7))
            .wait();
        assert_eq!(r.outcome, ServiceOutcome::CapHit);
        assert_eq!(r.matches, 7, "capped counts must be exact across workers");
    }
}

#[test]
fn saturation_rejects_and_recovers() {
    let k8: Vec<(u32, u32)> = (0..8u32)
        .flat_map(|a| ((a + 1)..8).map(move |b| (a, b)))
        .collect();
    let g = graph_from_edges(&[0; 8], &k8);
    // 4-paths in K8: lots of embeddings to stream.
    let q = graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3)]);
    let svc = Service::new(
        g,
        ServiceConfig {
            workers: 1,
            max_active: 1,
            queue_capacity: 0,
            stream_capacity: 1,
            ..ServiceConfig::default()
        },
    );
    // The first query fills its 1-slot buffer and blocks the worker.
    let mut s1 = svc.submit(QueryRequest::streaming(q.clone()));
    let first = s1.next();
    assert!(first.is_some(), "streaming query yields embeddings");

    // System full (1 active, queue capacity 0): reject immediately.
    let r = svc.submit(QueryRequest::count(q.clone())).wait();
    assert_eq!(r.outcome, ServiceOutcome::Rejected);

    // Abandoning the stream cancels the query; the slot frees once the
    // worker observes the cancellation (bounded retry, not a fixed sleep).
    drop(s1);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let r = svc.run_count(q.clone());
        if r.outcome == ServiceOutcome::Complete {
            break;
        }
        assert_eq!(r.outcome, ServiceOutcome::Rejected);
        assert!(
            std::time::Instant::now() < deadline,
            "slot never freed after stream drop"
        );
        thread::sleep(Duration::from_millis(5));
    }
    let counters = svc.counters();
    assert!(
        counters.get(sm_runtime::Counter::QueriesRejected) >= 1,
        "rejections counted"
    );
}

#[test]
fn pending_queue_promotes_in_order() {
    let g = random_graph(120, 3, 400, 0x5EED);
    let queries = test_queries();
    let pipeline = ServiceConfig::default().pipeline.clone();
    let expected: Vec<u64> = queries
        .iter()
        .map(|q| sequential_count(q, &g, &pipeline, None))
        .collect();
    let svc = Service::new(
        g,
        ServiceConfig {
            workers: 1,
            max_active: 1,
            queue_capacity: 16,
            ..ServiceConfig::default()
        },
    );
    // Submit everything at once: one runs, the rest queue and promote.
    let streams: Vec<_> = queries
        .iter()
        .map(|q| svc.submit(QueryRequest::count(q.clone())))
        .collect();
    for (i, s) in streams.into_iter().enumerate() {
        let r = s.wait();
        assert_eq!(r.outcome, ServiceOutcome::Complete);
        assert_eq!(r.matches, expected[i]);
    }
}

#[test]
fn streamed_embeddings_are_valid_and_remapped() {
    let g = random_graph(80, 3, 300, 0xFACE);
    let q = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2)]);
    let q_perm = permuted(&q, &[1, 2, 0]);
    let svc = Service::new(g.clone(), ServiceConfig::default());

    let check = |query: &Graph, expect_hit: bool| {
        let mut stream = svc.submit(QueryRequest::streaming(query.clone()));
        let mut n = 0u64;
        for m in stream.by_ref() {
            assert_eq!(m.len(), query.num_vertices());
            for u in 0..query.num_vertices() as VertexId {
                assert_eq!(
                    g.label(m[u as usize]),
                    query.label(u),
                    "label-preserving in the client's vertex ids"
                );
                for &w in query.neighbors(u) {
                    assert!(
                        g.has_edge(m[u as usize], m[w as usize]),
                        "edge-preserving in the client's vertex ids"
                    );
                }
            }
            n += 1;
        }
        let report = stream.report().expect("terminal after None");
        assert_eq!(report.outcome, ServiceOutcome::Complete);
        assert_eq!(report.cache_hit, expect_hit);
        assert_eq!(report.matches, n, "every counted match was delivered");
        n
    };

    let direct = check(&q, false);
    // The permuted query hits the same plan; its embeddings must be
    // expressed in *its* vertex ids (the remap), and be just as many.
    let remapped = check(&q_perm, true);
    assert_eq!(direct, remapped);
    assert!(direct > 0, "fixture should match");
    let streamed = svc.counters().get(sm_runtime::Counter::EmbeddingsStreamed);
    assert_eq!(streamed, direct + remapped);
}

#[test]
fn block_pulls_equal_row_pulls_at_every_capacity() {
    // Enough 3-paths that a worker fills whole blocks at the default
    // capacity; capacities 1 and 2 shrink the blocks to 1 and 2 rows.
    let g = random_graph(60, 1, 240, 0xB10C);
    let q = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]);
    let ctx = DataContext::new(&g);
    let want = ServiceConfig::default()
        .pipeline
        .run(&q, &ctx, &MatchConfig::find_all())
        .matches;
    assert!(want > 2048, "fixture must overflow one block, got {want}");
    let cap = want / 2 + 1;
    for stream_capacity in [1, 2, 1024] {
        let svc = Service::new(
            g.clone(),
            ServiceConfig {
                stream_capacity,
                ..ServiceConfig::default()
            },
        );
        let mut by_row: Vec<Vec<VertexId>> =
            svc.submit(QueryRequest::streaming(q.clone())).collect();
        let mut stream = svc.submit(QueryRequest::streaming(q.clone()));
        let mut by_block: Vec<Vec<VertexId>> = Vec::new();
        while let Some(block) = stream.next_block() {
            assert_eq!(block.stride(), q.num_vertices());
            by_block.extend(block.iter().map(<[VertexId]>::to_vec));
        }
        let report = stream.report().expect("terminal after None");
        assert_eq!(report.outcome, ServiceOutcome::Complete);
        assert_eq!(report.matches, want);
        by_row.sort_unstable();
        by_block.sort_unstable();
        assert_eq!(by_block.len() as u64, want);
        assert_eq!(by_row, by_block, "capacity {stream_capacity}");

        // A cap that lands inside a block: exactly `cap` rows arrive.
        let mut stream = svc.submit(QueryRequest::streaming(q.clone()).with_cap(cap));
        let mut capped: Vec<Vec<VertexId>> = Vec::new();
        while let Some(block) = stream.next_block() {
            capped.extend(block.iter().map(<[VertexId]>::to_vec));
        }
        let report = stream.report().expect("terminal after None");
        assert_eq!(report.outcome, ServiceOutcome::CapHit);
        assert_eq!(report.matches, cap);
        assert_eq!(capped.len() as u64, cap, "capacity {stream_capacity}");
        assert!(capped.iter().all(|m| by_row.binary_search(m).is_ok()));
    }
}

#[test]
fn swap_graph_invalidates_cached_plans() {
    let g1 = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]);
    let g2 = graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3)]);
    let q = graph_from_edges(&[0, 0], &[(0, 1)]);
    let svc = Service::new(g1, ServiceConfig::default());
    assert_eq!(svc.run_count(q.clone()).matches, 4);
    assert!(svc.run_count(q.clone()).cache_hit);
    svc.swap_graph(g2);
    assert_eq!(svc.epoch(), 1);
    let r = svc.run_count(q.clone());
    assert!(!r.cache_hit, "old epoch's plan must be unreachable");
    assert_eq!(r.matches, 6);
    assert!(svc.run_count(q).cache_hit);
}

#[test]
fn adaptive_plans_are_dealt_into_morsels_like_any_other() {
    let g = random_graph(120, 3, 450, 0xD1CE);
    let queries = test_queries();
    let pipeline = sm_match::Algorithm::DpIso.optimized();
    let expected: Vec<u64> = queries
        .iter()
        .map(|q| sequential_count(q, &g, &pipeline, None))
        .collect();
    // The executor deals an adaptive plan's C(root) across workers…
    let ctx = DataContext::new(&g);
    for (q, &want) in queries.iter().zip(&expected) {
        let plan = pipeline
            .plan(q, &ctx, &MatchConfig::find_all())
            .expect("satisfiable");
        assert!(plan.adaptive);
        let (stats, _) = sm_match::Executor::new(&plan, &g)
            .run_parallel::<CountSink>(4, ParallelStrategy::Morsel);
        assert_eq!(stats.matches, want);
        let pool = stats
            .parallel
            .expect("adaptive plans run on the morsel pool");
        assert!(pool.total_morsels() > 1, "{}", pool.total_morsels());
    }
    // …and so does the service's scheduler.
    let svc = Service::new(
        g,
        ServiceConfig {
            pipeline,
            workers: 2,
            ..ServiceConfig::default()
        },
    );
    for (q, &want) in queries.iter().zip(&expected) {
        let r = svc.run_count(q.clone());
        assert_eq!(r.outcome, ServiceOutcome::Complete);
        assert_eq!(r.matches, want);
    }
}
