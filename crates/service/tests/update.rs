//! Service-level dynamic-graph tests: in-place updates keep query
//! results exact, scoped plan-cache invalidation spares label-disjoint
//! plans, standing queries stay correct incrementally, and pinned
//! snapshots survive churn.

use sm_delta::{UpdateBatch, UpdateStream, UpdateStreamSpec};
use sm_graph::builder::graph_from_edges;
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_graph::{Graph, VertexId};
use sm_match::enumerate::CollectSink;
use sm_match::{DataContext, FilterKind, LcMethod, MatchConfig, OrderKind, Pipeline};
use sm_runtime::trace::Counter;
use sm_service::{QueryRequest, Service, ServiceConfig, ServiceOutcome};

fn triangle() -> Graph {
    graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)])
}

fn full_matches(q: &Graph, g: &Graph) -> Vec<Vec<VertexId>> {
    let ctx = DataContext::new(g);
    let p = Pipeline::new("ref", FilterKind::Ldf, OrderKind::Ri, LcMethod::Direct);
    let mut sink = CollectSink::default();
    p.run_with_sink(q, &ctx, &MatchConfig::default(), &mut sink);
    let mut m = sink.matches;
    m.sort_unstable();
    m
}

#[test]
fn apply_update_changes_query_results_exactly() {
    // Path 0-1-2 with labels 0,1,0: no triangles yet.
    let g = graph_from_edges(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3)]);
    let svc = Service::new(g, ServiceConfig::default());
    let q = graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2), (0, 2)]);
    assert_eq!(svc.run_count(q.clone()).matches, 0);

    // Close the 0-1-2 triangle.
    let report = svc.apply_update(&UpdateBatch::new().add_edge(0, 2));
    assert!(!report.noop);
    assert_eq!(report.epoch, 1);
    assert_eq!(report.edges_inserted, 1);
    assert_eq!(svc.epoch(), 1);
    // Two automorphic images: (0,1,2) and (2,1,0).
    assert_eq!(svc.run_count(q.clone()).matches, 2);

    // Delete an edge of the triangle again.
    let report = svc.apply_update(&UpdateBatch::new().delete_edge(1, 2));
    assert_eq!(report.edges_deleted, 1);
    assert_eq!(svc.run_count(q).matches, 0);
}

#[test]
fn noop_batch_keeps_epoch_and_cache() {
    let svc = Service::new(triangle(), ServiceConfig::default());
    // Inserting a present edge + deleting an absent one normalizes away.
    let report = svc.apply_update(&UpdateBatch::new().add_edge(0, 1).delete_edge(1, 3));
    assert!(report.noop);
    assert_eq!(report.epoch, 0);
    assert_eq!(svc.epoch(), 0);
}

#[test]
fn label_disjoint_plans_survive_updates() {
    // Two label islands: labels {0} vertices 0..4, labels {1} vertices 4..8.
    let g = graph_from_edges(
        &[0, 0, 0, 0, 1, 1, 1, 1],
        &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)],
    );
    let svc = Service::new(g, ServiceConfig::default());
    let q0 = graph_from_edges(&[0, 0], &[(0, 1)]); // label-0 edge query
    let q1 = graph_from_edges(&[1, 1], &[(0, 1)]); // label-1 edge query
    svc.run_count(q0.clone());
    svc.run_count(q1.clone());
    let (_, misses_before, _, _) = svc.cache_stats();

    // Update touching only label 1: the label-0 plan must be retained.
    let report = svc.apply_update(&UpdateBatch::new().add_edge(4, 6));
    assert_eq!(report.plans_retained, 1);
    assert_eq!(report.plans_evicted, 1);

    // Resubmitting q0 hits the retargeted entry; q1 recompiles.
    let r0 = svc.submit(QueryRequest::count(q0)).wait();
    assert!(r0.cache_hit, "label-disjoint plan survived the update");
    assert_eq!(r0.matches, 6); // 3 label-0 edges x 2 directions
    let r1 = svc.submit(QueryRequest::count(q1)).wait();
    assert!(!r1.cache_hit, "touched-label plan was evicted");
    assert_eq!(r1.matches, 8); // (3 + 1 new) label-1 edges x 2 directions
    let (_, misses_after, _, _) = svc.cache_stats();
    assert_eq!(misses_after, misses_before + 1, "only q1 recompiled");
}

/// A label-disjoint plan whose candidate-space rows are not all built is
/// not retargeted: it would build them from the post-update graph, whose
/// vertex ranks moved (a vertex added under a smaller label shifts every
/// larger label's ranks). It is evicted, and the recompiled plan counts
/// on the new graph exactly.
#[test]
fn partly_built_plans_are_not_retargeted() {
    // A label-1 cycle of 40 vertices after 4 label-0 vertices.
    let mut labels = vec![0, 0, 0, 0];
    labels.extend([1; 40]);
    let mut edges = vec![(0, 1), (1, 2), (2, 3)];
    edges.extend((4..44).map(|v| (v, if v == 43 { 4 } else { v + 1 })));
    let svc = Service::new(graph_from_edges(&labels, &edges), ServiceConfig::default());
    let path = graph_from_edges(&[1, 1, 1], &[(0, 1), (1, 2)]);
    // One match read a handful of rows: the plan is cached partly built.
    let capped = svc
        .submit(QueryRequest::count(path.clone()).with_cap(1))
        .wait();
    assert_eq!(capped.matches, 1);

    // Add a label-0 vertex: label 1 is untouched, its ranks all move.
    let report = svc.apply_update(&UpdateBatch::new().add_vertex(0).add_edge(3, 44));
    assert!(!report.noop);
    assert_eq!(report.plans_retained, 0);
    let r = svc.run_count(path.clone());
    assert!(!r.cache_hit, "partly built plan was retargeted");
    assert_eq!(r.matches, 80); // 40 paths of 3 on the cycle x 2 directions

    // The recompiled plan ran in full and is built: it survives the next
    // label-0 update and still counts right.
    let report = svc.apply_update(&UpdateBatch::new().add_vertex(0).add_edge(44, 45));
    assert_eq!(report.plans_retained, 1);
    let r = svc.run_count(path);
    assert!(r.cache_hit);
    assert_eq!(r.matches, 80);
}

#[test]
fn standing_query_tracks_full_recompute_over_stream() {
    let g0 = rmat_graph(150, 5.0, 3, RmatParams::PAPER, 71);
    let svc = Service::new(g0, ServiceConfig::default());
    let q = triangle();
    let id = svc.register_standing(&q).expect("triangle is supported");
    let mut stream = UpdateStream::new(UpdateStreamSpec::default(), 17);
    for step in 0..8 {
        let batch = stream.next_batch(&svc.snapshot());
        svc.apply_update(&batch);
        let current = {
            let snap = svc.snapshot();
            let (mat, _) = snap.materialize();
            full_matches(&q, &mat)
        };
        assert_eq!(svc.standing_matches(id), current, "step {step}");
        assert_eq!(svc.standing_count(id), current.len(), "step {step}");
    }
    let counters = svc.counters();
    assert_eq!(counters.get(Counter::UpdatesApplied), 8);
    assert!(counters.get(Counter::SnapshotsPinned) >= 8);
}

#[test]
fn unsupported_standing_queries_are_rejected() {
    let svc = Service::new(triangle(), ServiceConfig::default());
    // Edgeless and disconnected queries are not incrementally maintainable.
    assert!(svc
        .register_standing(&graph_from_edges(&[0], &[]))
        .is_none());
    let disconnected = graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (2, 3)]);
    assert!(svc.register_standing(&disconnected).is_none());
}

#[test]
fn swap_graph_resets_standing_and_versioned_state() {
    let svc = Service::new(triangle(), ServiceConfig::default());
    let q = graph_from_edges(&[0, 0], &[(0, 1)]);
    let id = svc.register_standing(&q).expect("edge query");
    assert_eq!(svc.standing_count(id), 6); // 3 edges x 2 directions
    svc.apply_update(&UpdateBatch::new().delete_edge(0, 1));
    assert_eq!(svc.standing_count(id), 4);

    // Swap to a fresh 2-path: standing results are re-enumerated.
    svc.swap_graph(graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]));
    assert_eq!(svc.standing_count(id), 4);
    assert_eq!(svc.epoch(), 2); // one update + one swap
                                // Updates keep working against the swapped graph.
    let report = svc.apply_update(&UpdateBatch::new().add_edge(0, 2));
    assert!(!report.noop);
    assert_eq!(svc.standing_count(id), 6);
}

#[test]
fn snapshot_pinned_before_update_is_stable() {
    let svc = Service::new(triangle(), ServiceConfig::default());
    let pinned = svc.snapshot();
    svc.apply_update(&UpdateBatch::new().delete_edge(0, 1).delete_edge(1, 2));
    let (old, _) = pinned.materialize();
    assert_eq!(
        old.num_edges(),
        3,
        "pinned snapshot still sees the triangle"
    );
    let (new, _) = svc.snapshot().materialize();
    assert_eq!(new.num_edges(), 1);
}

#[test]
fn concurrent_submissions_and_updates_stay_consistent() {
    let g0 = rmat_graph(200, 6.0, 3, RmatParams::PAPER, 73);
    let svc = std::sync::Arc::new(Service::new(g0, ServiceConfig::default()));
    let q = triangle();
    let svc2 = svc.clone();
    let q2 = q.clone();
    // Reader thread hammers counts while the main thread applies updates;
    // every observed outcome must be a clean terminal one.
    let reader = std::thread::spawn(move || {
        for _ in 0..30 {
            let report = svc2.run_count(q2.clone());
            assert_eq!(report.outcome, ServiceOutcome::Complete);
        }
    });
    let mut stream = UpdateStream::new(UpdateStreamSpec::default(), 29);
    for _ in 0..10 {
        let batch = stream.next_batch(&svc.snapshot());
        svc.apply_update(&batch);
    }
    reader.join().expect("reader thread");
    // Post-churn: a fresh count agrees with a from-scratch enumeration.
    let (mat, _) = svc.snapshot().materialize();
    assert_eq!(
        svc.run_count(q.clone()).matches,
        full_matches(&q, &mat).len() as u64
    );
}
