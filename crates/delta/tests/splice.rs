//! The splice a service installs each epoch with
//! ([`Committed::splice_post`], from the pre epoch's arrays) must equal
//! the fold of the whole view ([`Snapshot::materialize`], from the base)
//! row for row: neighbours, labels, NLF rows, signatures, |V| and |E|,
//! and its label index (extended from the pre epoch's) must equal one
//! built from the post labels. Checked over seeded update streams with
//! and without vertex adds, with vertex deletes and threshold
//! compactions, and over hand-built batches: tombstones, an edge deleted
//! and re-inserted, no-op batches, a forced `compact()` between two
//! commits, and a snapshot pinned across all of it.

use sm_delta::{Committed, Snapshot, UpdateBatch, UpdateStream, UpdateStreamSpec, VersionedGraph};
use sm_graph::builder::graph_from_edges;
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_graph::{Graph, Label, LabelIndex, NlfIndex, VertexId};
use sm_runtime::trace::Counter;
use sm_runtime::Rng64;

/// Assert `(g, nlf)` is exactly `snap`'s view: the flat arrays equal
/// the materialized fold's, and every row equals the view's own reads.
fn assert_is_view(g: &Graph, nlf: &NlfIndex, snap: &Snapshot, what: &str) {
    assert_eq!(g.num_vertices(), snap.num_vertices(), "{what}: |V|");
    assert_eq!(g.num_edges(), snap.num_edges(), "{what}: |E|");
    for v in 0..g.num_vertices() as VertexId {
        assert_eq!(g.neighbors(v), snap.neighbors(v), "{what}: N({v})");
        assert_eq!(g.label(v), snap.label(v), "{what}: L({v})");
        assert_eq!(nlf.entry(v), snap.nlf_entry(v), "{what}: NLF({v})");
        assert_eq!(
            nlf.signature(v),
            NlfIndex::signature_of(snap.nlf_entry(v)),
            "{what}: signature({v})"
        );
    }
    let built = LabelIndex::build(g.csr().2);
    let index = g.label_index();
    assert_eq!(index.ranks(), built.ranks(), "{what}: label ranks");
    assert_eq!(index.label_bound(), built.label_bound(), "{what}: labels");
    for l in 0..built.label_bound() as Label {
        assert_eq!(
            index.vertices_with_label(l),
            built.vertices_with_label(l),
            "{what}: vertices with label {l}"
        );
    }
    let (mg, mnlf) = snap.materialize();
    assert!(g.csr() == mg.csr(), "{what}: graph CSR");
    assert!(nlf.csr() == mnlf.csr(), "{what}: NLF CSR");
    assert!(nlf.signatures() == mnlf.signatures(), "{what}: signatures");
}

/// Commit `batch`, splice the post arrays from `installed`, check them
/// against the post view, and make them the installed pair.
fn step(vg: &VersionedGraph, installed: &mut (Graph, NlfIndex), batch: &UpdateBatch, what: &str) {
    let committed: Committed = vg.commit(batch);
    let post = committed.splice_post(&installed.0, &installed.1);
    assert_is_view(&post.0, &post.1, &committed.post, what);
    *installed = post;
}

fn installed_at_head(vg: &VersionedGraph) -> (Graph, NlfIndex) {
    vg.snapshot().materialize()
}

#[test]
fn splice_equals_materialize_over_seeded_streams() {
    for (seed, vertex_add_ratio) in (0..8u64).map(|s| (s, if s < 4 { 0.1 } else { 0.0 })) {
        let g = rmat_graph(300, 4.0, 3, RmatParams::PAPER, 0x51CE + seed);
        // A small threshold on odd seeds: compactions land between
        // commits, so the pre arrays come from several bases.
        let vg = if seed % 2 == 1 {
            VersionedGraph::with_threshold(g, 60)
        } else {
            VersionedGraph::new(g)
        };
        let spec = UpdateStreamSpec {
            batch_size: 16,
            insert_ratio: 0.5,
            vertex_add_ratio,
            num_labels: 3,
        };
        let mut stream = UpdateStream::new(spec, seed);
        let mut rng = Rng64::seed_from_u64(seed ^ 0xDE1);
        let mut installed = installed_at_head(&vg);
        for i in 0..60 {
            let snap = vg.snapshot();
            let mut batch = stream.next_batch(&snap);
            if i % 5 == 4 {
                // Tombstone a vertex, live or not (a dead one normalizes
                // away).
                let v = rng.next_u64_below(snap.num_vertices() as u64) as VertexId;
                batch = batch.delete_vertex(v);
            }
            step(
                &vg,
                &mut installed,
                &batch,
                &format!("seed {seed} batch {i}"),
            );
        }
        assert!(
            seed % 2 == 0 || vg.counters().get(Counter::Compactions) > 0,
            "seed {seed}: the small threshold never compacted"
        );
    }
}

#[test]
fn splice_handles_hand_built_batches() {
    // 0-1-2-3-4 path plus a chord, labels A B A B A.
    let g = graph_from_edges(&[0, 1, 0, 1, 0], &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)]);
    let vg = VersionedGraph::new(g);
    let pinned = vg.snapshot();
    let pinned_arrays = pinned.materialize();
    let mut installed = installed_at_head(&vg);

    step(
        &vg,
        &mut installed,
        &UpdateBatch::new().delete_vertex(2),
        "tombstone",
    );
    step(
        &vg,
        &mut installed,
        &UpdateBatch::new().add_edge(1, 2).delete_edge(7, 8),
        "no-op: an edge to a tombstone, an absent edge",
    );
    step(
        &vg,
        &mut installed,
        &UpdateBatch::new().delete_edge(0, 1).add_edge(1, 0),
        "no-op: delete and re-insert in one batch",
    );
    step(
        &vg,
        &mut installed,
        &UpdateBatch::new().delete_edge(3, 4),
        "delete",
    );
    step(
        &vg,
        &mut installed,
        &UpdateBatch::new().add_edge(4, 3),
        "re-insert",
    );
    step(
        &vg,
        &mut installed,
        &UpdateBatch::new()
            .add_vertex(1)
            .add_vertex(0)
            .add_edge(5, 0)
            .add_edge(6, 5),
        "added vertices",
    );
    assert!(vg.compact());
    step(
        &vg,
        &mut installed,
        &UpdateBatch::new().add_edge(6, 4).delete_vertex(5),
        "after compact(): tombstone an added vertex",
    );
    step(
        &vg,
        &mut installed,
        &UpdateBatch::new().add_edge(1, 3),
        "after compact()",
    );

    // The snapshot pinned before every commit still folds to epoch 0.
    assert_eq!(pinned.epoch(), 0);
    assert_is_view(
        &pinned_arrays.0,
        &pinned_arrays.1,
        &pinned,
        "pinned epoch 0",
    );
}

#[test]
#[should_panic(expected = "not the pre epoch's")]
fn splice_rejects_arrays_of_another_epoch() {
    let vg = VersionedGraph::new(graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]));
    let stale = installed_at_head(&vg);
    vg.commit(&UpdateBatch::new().add_edge(0, 2));
    let c = vg.commit(&UpdateBatch::new().delete_edge(0, 1));
    // `stale` is epoch 0's pair; this commit's pre epoch is 1.
    c.splice_post(&stale.0, &stale.1);
}
