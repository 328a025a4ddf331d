//! Sharded [`MatchSemantics`]: count-only pushdown and relaxed
//! injectivity agree with a single-`Service` oracle at 1/2/4 shards,
//! top-k is exact through the cross-shard cap machinery, sample-k is
//! rejected at the router, and standing registration refuses relaxed
//! semantics.

use sm_graph::builder::graph_from_edges;
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_graph::Graph;
use sm_match::{Injectivity, MatchSemantics};
use sm_runtime::trace::Counter;
use sm_service::{QueryRequest, Service, ServiceConfig, ServiceOutcome, StandingError};
use sm_shard::{PartitionStrategy, ShardConfig, ShardedService};

fn data_graph() -> Graph {
    rmat_graph(300, 6.0, 3, RmatParams::PAPER, 0xABCDE)
}

fn sharded_service(g: &Graph, shards: usize) -> ShardedService {
    ShardedService::new(
        g.clone(),
        ShardConfig {
            shards,
            strategy: PartitionStrategy::Hash,
            halo_depth: 3,
            seed: 7,
            ..ShardConfig::default()
        },
    )
}

fn mode(inj: Injectivity) -> MatchSemantics {
    MatchSemantics {
        injectivity: inj,
        ..MatchSemantics::default().count_only()
    }
}

fn queries() -> Vec<(&'static str, Graph)> {
    vec![
        ("edge", graph_from_edges(&[0, 1], &[(0, 1)])),
        (
            "triangle",
            graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]),
        ),
        ("path3", graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2)])),
    ]
}

#[test]
fn count_only_pushdown_matches_single_service_at_every_shard_count() {
    let g = data_graph();
    let single = Service::new(g.clone(), ServiceConfig::default());
    for (name, q) in queries() {
        for inj in [
            Injectivity::Isomorphism,
            Injectivity::EdgeInjective,
            Injectivity::Homomorphism,
        ] {
            let truth = single
                .submit(QueryRequest::count(q.clone()).with_semantics(mode(inj)))
                .wait();
            assert_eq!(truth.outcome, ServiceOutcome::Complete);
            for shards in [1, 2, 4] {
                let svc = sharded_service(&g, shards);
                let r = svc
                    .submit(QueryRequest::count(q.clone()).with_semantics(mode(inj)))
                    .wait();
                assert_eq!(r.outcome, ServiceOutcome::Complete);
                assert_eq!(
                    r.matches, truth.matches,
                    "{name}: {inj:?} count diverged at {shards} shards"
                );
            }
        }
    }
}

#[test]
fn capped_counts_take_the_gather_path_and_stay_exact() {
    let g = data_graph();
    let q = graph_from_edges(&[0, 1], &[(0, 1)]);
    let single = Service::new(g.clone(), ServiceConfig::default());
    let total = single.submit(QueryRequest::count(q.clone())).wait().matches;
    assert!(total > 8, "fixture needs enough matches to cap");

    for shards in [2, 4] {
        let svc = sharded_service(&g, shards);
        // A cap forces the materializing gather path even for count-only
        // requests; the cap must stay exact across shards.
        let r = svc
            .submit(QueryRequest::count(q.clone()).with_cap(total / 2))
            .wait();
        assert_eq!(r.outcome, ServiceOutcome::CapHit);
        assert_eq!(r.matches, total / 2);
    }
}

#[test]
fn top_k_across_shards_is_exact() {
    let g = data_graph();
    let q = graph_from_edges(&[0, 1], &[(0, 1)]);
    let single = Service::new(g.clone(), ServiceConfig::default());
    let total = single.submit(QueryRequest::count(q.clone())).wait().matches;
    let k = (total / 3).max(1);

    for shards in [1, 2, 4] {
        let svc = sharded_service(&g, shards);
        let mut stream = svc.submit(
            QueryRequest::streaming(q.clone()).with_semantics(MatchSemantics::default().top_k(k)),
        );
        let got: Vec<_> = stream.by_ref().collect();
        let report = stream.report().expect("terminal after drain");
        assert_eq!(report.outcome, ServiceOutcome::CapHit);
        assert_eq!(report.matches, k, "top-k drifted at {shards} shards");
        assert_eq!(got.len() as u64, k);
        assert_eq!(
            svc.counters().get(Counter::TopkEarlyExits),
            1,
            "one top-k exit per query, not per shard ({shards} shards)"
        );
    }
}

#[test]
fn sample_k_is_rejected_at_the_router() {
    let g = data_graph();
    let q = graph_from_edges(&[0, 1], &[(0, 1)]);
    let svc = sharded_service(&g, 2);
    let r = svc
        .submit(QueryRequest::count(q).with_semantics(MatchSemantics::default().sample_k(3, 9)))
        .wait();
    assert_eq!(r.outcome, ServiceOutcome::Rejected);
    assert_eq!(r.matches, 0);
    let c = svc.counters();
    assert_eq!(c.get(Counter::QueriesRejected), 1);
    assert_eq!(c.get(Counter::QueriesFannedOut), 0);
}

#[test]
fn standing_registration_refuses_relaxed_semantics() {
    let g = data_graph();
    let q = graph_from_edges(&[0, 1], &[(0, 1)]);
    let svc = sharded_service(&g, 2);
    assert!(matches!(
        svc.register_standing_with(&q, mode(Injectivity::EdgeInjective)),
        Err(StandingError::UnsupportedSemantics)
    ));
    assert!(svc
        .register_standing_with(&q, MatchSemantics::default())
        .is_ok());
}
