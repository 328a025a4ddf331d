//! Service-level dynamic-graph tests: in-place updates keep query
//! results exact, cached plans are patched across updates instead of
//! recompiled, standing queries stay correct incrementally, and pinned
//! snapshots survive churn.

use sm_delta::{UpdateBatch, UpdateStream, UpdateStreamSpec};
use sm_graph::builder::graph_from_edges;
use sm_graph::gen::query::{generate_query_set, Density, QuerySetSpec};
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_graph::{Graph, GraphStats, VertexId};
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

/// An update keeps every cached plan, whether the batch touched its
/// labels or not: the next lookup of each patches it to the new epoch,
/// counts a hit, and counts the new graph exactly.
#[test]
fn plans_survive_updates_touching_their_labels() {
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

    // Update touching only label 1: both plans are kept for patching.
    let report = svc.apply_update(&UpdateBatch::new().add_edge(4, 6));
    assert_eq!(report.plans_retained, 2);
    assert_eq!(report.plans_evicted, 0);

    // Both resubmissions hit: q0's plan is patched across a batch that
    // missed its labels, q1's across one that added a label-1 edge.
    let r0 = svc.submit(QueryRequest::count(q0)).wait();
    assert!(r0.cache_hit, "the label-disjoint plan was patched");
    assert_eq!(r0.matches, 6); // 3 label-0 edges x 2 directions
    let r1 = svc.submit(QueryRequest::count(q1)).wait();
    assert!(r1.cache_hit, "the touched-label plan was patched");
    assert_eq!(r1.matches, 8); // (3 + 1 new) label-1 edges x 2 directions
    let (_, misses_after, _, _) = svc.cache_stats();
    assert_eq!(misses_after, misses_before, "nothing recompiled");
}

/// A plan cached with its candidate-space rows partly built is patched
/// like any other. The patch builds a new `A` shell over the post-update
/// graph, whose vertex ranks moved (a vertex added under a smaller label
/// shifts every larger label's ranks), so no row is read through the old
/// ranks and the patched plan counts exactly.
#[test]
fn partly_built_plans_are_patched_onto_the_new_ranks() {
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
    assert_eq!((report.plans_retained, report.plans_evicted), (1, 0));
    let r = svc.run_count(path.clone());
    assert!(r.cache_hit, "the partly built plan was patched");
    assert_eq!(r.matches, 80); // 40 paths of 3 on the cycle x 2 directions

    let report = svc.apply_update(&UpdateBatch::new().add_vertex(0).add_edge(44, 45));
    assert_eq!((report.plans_retained, report.plans_evicted), (1, 0));
    let r = svc.run_count(path);
    assert!(r.cache_hit);
    assert_eq!(r.matches, 80);
}

/// Across a stream of updates — edge inserts and deletes, vertex adds, a
/// vertex delete — every read of a form seen before hits (its plan
/// patched across however many batches passed since), and every count
/// equals a fresh service's on the materialized graph of that epoch.
#[test]
fn patched_reads_hit_and_equal_a_fresh_service() {
    let g = rmat_graph(400, 6.0, 3, RmatParams::PAPER, 19);
    let queries: Vec<Graph> = [(4, Density::Any), (5, Density::Sparse), (6, Density::Any)]
        .into_iter()
        .flat_map(|(num_vertices, density)| {
            let spec = QuerySetSpec {
                num_vertices,
                density,
                count: 2,
            };
            generate_query_set(&g, spec, 23)
        })
        .collect();
    assert!(queries.len() >= 4);
    let (pipeline, base_config) = sm_match::recommended(&GraphStats::of(&g), 6);
    let capped = ServiceConfig {
        default_cap: Some(20_000),
        ..ServiceConfig::default()
    };
    for cfg in [
        capped.clone(),
        ServiceConfig {
            pipeline,
            base_config,
            ..capped
        },
    ] {
        let svc = Service::new(g.clone(), cfg.clone());
        let mut stream = UpdateStream::new(UpdateStreamSpec::default(), 29);
        let mut rng = sm_runtime::Rng64::seed_from_u64(31);
        let mut seen = vec![false; queries.len()];
        let mut patched_hits = 0;
        for step in 0..24 {
            let batch = if step == 11 {
                UpdateBatch::new().delete_vertex(7)
            } else {
                stream.next_batch(&svc.snapshot())
            };
            svc.apply_update(&batch);
            let fresh = Service::new(svc.snapshot().materialize().0, cfg.clone());
            for _ in 0..2 {
                let i = rng.next_u64_below(queries.len() as u64) as usize;
                let got = svc.run_count(queries[i].clone());
                assert_eq!(got.cache_hit, seen[i], "step {step} form {i}");
                patched_hits += usize::from(got.cache_hit);
                seen[i] = true;
                let want = fresh.run_count(queries[i].clone());
                assert_eq!(got.matches, want.matches, "step {step} form {i}");
                assert_eq!(got.outcome, want.outcome);
            }
        }
        assert!(patched_hits > 20, "{patched_hits} patched hits");
    }
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

/// A shard service updated in place keeps its owned mask in step with
/// its graph: a batch that adds vertices past the mask's last 64-bit word
/// grows the mask (the added vertices unowned), and the next compile
/// counts what a fresh shard over the post graph and that mask counts.
#[test]
fn an_in_place_update_grows_the_shards_owned_mask() {
    use sm_match::util::Bitmap;
    let path: Vec<(u32, u32)> = (0..63).map(|v| (v, v + 1)).collect();
    let g = graph_from_edges(&[0; 64], &path);
    let owned = |n: usize| {
        let mut m = Bitmap::new(n);
        (0..32).for_each(|v| m.set(v));
        m
    };
    let cfg = ServiceConfig::default();
    let svc = Service::new_shard(g, owned(64), cfg.clone(), None);
    let mut batch = UpdateBatch::new();
    for i in 0..70u32 {
        batch = batch.add_vertex(0).add_edge(64 + i, i % 64);
    }
    assert_eq!(svc.apply_update(&batch).vertices_added, 70);
    let edge = graph_from_edges(&[0, 0], &[(0, 1)]);
    let report = svc.submit(QueryRequest::count(edge.clone())).wait();
    assert_eq!(report.outcome, ServiceOutcome::Complete);
    let post = svc.snapshot().materialize().0;
    assert_eq!(post.num_vertices(), 134);
    let fresh = Service::new_shard(post, owned(134), cfg, None);
    let want = fresh.run_count(edge).matches;
    assert!(want > 0);
    assert_eq!(report.matches, want);
}
