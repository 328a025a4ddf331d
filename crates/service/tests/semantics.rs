//! Service-level [`MatchSemantics`] behavior: plans are shared within a
//! mode but never across modes, count-only reports agree with streamed
//! materialization, top-k is exact, sample-k is rejected up front,
//! standing queries refuse non-isomorphism semantics, and the three new
//! semantics counters surface through [`Service::counters`].

use sm_graph::builder::graph_from_edges;
use sm_graph::{Graph, VertexId};
use sm_match::{Injectivity, MatchSemantics};
use sm_runtime::Counter;
use sm_service::{QueryRequest, Service, ServiceConfig, ServiceOutcome, StandingError};

/// Deterministic pseudo-random data graph (same generator the main
/// service tests use).
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

fn mode(inj: Injectivity) -> MatchSemantics {
    MatchSemantics {
        injectivity: inj,
        ..MatchSemantics::default().count_only()
    }
}

#[test]
fn plans_shared_within_a_mode_never_across() {
    let g = random_graph(120, 3, 400, 0x5E11A);
    let q = graph_from_edges(&[0, 0, 1, 2], &[(0, 1), (1, 2), (0, 2), (2, 3)]);
    let svc = Service::new(g, ServiceConfig::default());

    let iso = svc
        .submit(QueryRequest::count(q.clone()).with_semantics(mode(Injectivity::Isomorphism)))
        .wait();
    assert!(!iso.cache_hit);

    // Same base query under homomorphism: a different plan, never shared.
    let homo = svc
        .submit(QueryRequest::count(q.clone()).with_semantics(mode(Injectivity::Homomorphism)))
        .wait();
    assert!(!homo.cache_hit, "modes must never share a cached plan");
    assert!(
        homo.matches >= iso.matches,
        "homomorphisms contain isomorphisms: {} >= {}",
        homo.matches,
        iso.matches
    );

    // A permuted twin in the *same* mode reuses the cached plan.
    let twin = svc
        .submit(
            QueryRequest::count(permuted(&q, &[2, 0, 3, 1]))
                .with_semantics(mode(Injectivity::Homomorphism)),
        )
        .wait();
    assert!(twin.cache_hit, "permuted twin within a mode must hit");
    assert_eq!(twin.matches, homo.matches);

    // Two entries for one base query ⇒ the cache observed a split.
    let (_, _, _, len) = svc.cache_stats();
    assert_eq!(len, 2);
    assert!(
        svc.counters().get(Counter::SemanticsCacheSplits) >= 1,
        "split counter must record the iso/homo divergence"
    );
}

#[test]
fn count_only_agrees_with_streamed_materialization() {
    let g = random_graph(120, 3, 400, 0xFACADE);
    let q = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2)]);
    let svc = Service::new(g, ServiceConfig::default());

    let mut stream = svc.submit(QueryRequest::streaming(q.clone()));
    let mut materialized = 0u64;
    while stream.next().is_some() {
        materialized += 1;
    }
    let streamed_report = stream.wait();
    assert_eq!(streamed_report.outcome, ServiceOutcome::Complete);
    assert_eq!(streamed_report.matches, materialized);

    // The count-only run reports the same total without materializing.
    let counted = svc.submit(QueryRequest::count(q)).wait();
    assert_eq!(counted.outcome, ServiceOutcome::Complete);
    assert_eq!(counted.matches, materialized);
    assert!(
        svc.counters().get(Counter::CountOnlyRuns) >= 1,
        "count-only submissions must bump the counter"
    );
}

#[test]
fn top_k_is_exact_and_counted() {
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
    for _ in 0..3 {
        let r = svc
            .submit(
                QueryRequest::count(q.clone()).with_semantics(MatchSemantics::default().top_k(5)),
            )
            .wait();
        assert_eq!(r.outcome, ServiceOutcome::CapHit);
        assert_eq!(r.matches, 5, "top-k must be exact across workers");
    }
    assert!(svc.counters().get(Counter::TopkEarlyExits) >= 3);

    // Top-k also streams exactly k embeddings.
    let mut stream =
        svc.submit(QueryRequest::streaming(q).with_semantics(MatchSemantics::default().top_k(4)));
    let mut seen = 0u64;
    while stream.next().is_some() {
        seen += 1;
    }
    let r = stream.wait();
    assert_eq!(r.outcome, ServiceOutcome::CapHit);
    assert_eq!(seen, 4);
}

#[test]
fn sample_k_is_rejected_before_admission() {
    let g = random_graph(60, 2, 150, 0xD1CE);
    let q = graph_from_edges(&[0, 1], &[(0, 1)]);
    let svc = Service::new(g, ServiceConfig::default());
    let r = svc
        .submit(QueryRequest::count(q).with_semantics(MatchSemantics::default().sample_k(3, 7)))
        .wait();
    assert_eq!(
        r.outcome,
        ServiceOutcome::Rejected,
        "reservoir sampling is a sequential-executor mode; the service refuses it"
    );
    assert_eq!(r.matches, 0);
}

#[test]
fn standing_queries_refuse_relaxed_semantics() {
    let g = random_graph(60, 2, 150, 0xBEE);
    let q = graph_from_edges(&[0, 1], &[(0, 1)]);
    let svc = Service::new(g, ServiceConfig::default());
    assert!(matches!(
        svc.register_standing_with(&q, mode(Injectivity::Homomorphism)),
        Err(StandingError::UnsupportedSemantics)
    ));
    assert!(matches!(
        svc.register_standing_with(&q, MatchSemantics::default().top_k(3)),
        Err(StandingError::UnsupportedSemantics)
    ));
    // Default semantics go through the normal registration path.
    assert!(svc
        .register_standing_with(&q, MatchSemantics::default())
        .is_ok());
}
