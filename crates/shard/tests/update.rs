//! Update-path guarantees of the sharded tier:
//!
//! 1. **No torn epochs** — a query racing `apply_update` sees every
//!    shard pre-update or every shard post-update, never a mix. The
//!    probe: a batch that completes (or breaks) one triangle in *each*
//!    of two regions atomically; a torn scatter would observe exactly
//!    one of them.
//! 2. **Standing queries stay exactly-once correct** after cross-shard
//!    edge insertions and deletions: the sharded standing set equals the
//!    single-service standing set after every batch of a seeded update
//!    stream, and so do the incremental counts — the router maintains
//!    each set once, with no halo replica counted.
//! 3. **Shards are re-cut, not patched** — after every batch each
//!    shard's owned, halo and edge counts equal those of a fresh cut of
//!    the post graph under the tier's ownership rule.

use sm_delta::{Snapshot, UpdateBatch, UpdateStream, UpdateStreamSpec};
use sm_graph::builder::graph_from_edges;
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_graph::traversal::khop_ball;
use sm_graph::{Graph, VertexId};
use sm_runtime::trace::Counter;
use sm_service::{Service, ServiceConfig, ServiceOutcome};
use sm_shard::{assign_owners, owned_lists, PartitionStrategy, ShardConfig, ShardedService};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

fn triangle() -> Graph {
    graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)])
}

#[test]
fn concurrent_queries_never_observe_a_torn_epoch() {
    // Two open triangles far apart; one batch closes both, the next
    // reopens both. Atomic commits mean a counter sees 0 or 12 (two
    // triangles x 6 automorphic mappings), never 6.
    let g = graph_from_edges(&[0; 6], &[(0, 1), (1, 2), (3, 4), (4, 5)]);
    let svc = Arc::new(ShardedService::new(
        g,
        ShardConfig {
            shards: 2,
            strategy: PartitionStrategy::Hash,
            halo_depth: 2,
            ..ShardConfig::default()
        },
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let progress: Arc<Vec<AtomicU64>> = Arc::new((0..2).map(|_| AtomicU64::new(0)).collect());
    let probes: Vec<_> = (0..2)
        .map(|i| {
            let svc = svc.clone();
            let stop = stop.clone();
            let progress = progress.clone();
            thread::spawn(move || {
                let mut seen = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let rep = svc.run_count(triangle());
                    assert_eq!(rep.outcome, ServiceOutcome::Complete);
                    seen.push(rep.matches);
                    progress[i].fetch_add(1, Ordering::Relaxed);
                }
                seen
            })
        })
        .collect();
    let close = UpdateBatch::new().add_edge(0, 2).add_edge(3, 5);
    let open = UpdateBatch::new().delete_edge(0, 2).delete_edge(3, 5);
    let mut epoch = svc.epoch();
    for round in 0..15 {
        let rep = if round % 2 == 0 {
            svc.apply_update(&close)
        } else {
            svc.apply_update(&open)
        };
        assert!(!rep.noop);
        epoch += 1;
        assert_eq!(rep.epoch, epoch, "one coherent epoch per effective update");
    }
    // Don't stop until every probe has raced at least a few updates —
    // under heavy test-suite load a probe may not have been scheduled
    // yet when the 15 toggles finish.
    while progress.iter().any(|p| p.load(Ordering::Relaxed) < 3) {
        thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    for p in probes {
        let seen = p.join().expect("probe thread");
        assert!(!seen.is_empty());
        for count in seen {
            assert!(
                count == 0 || count == 12,
                "torn epoch observed: {count} matches (both triangles must \
                 appear or disappear together)"
            );
        }
    }
}

#[test]
fn noop_batches_keep_the_epoch() {
    let g = graph_from_edges(&[0; 4], &[(0, 1), (2, 3)]);
    let svc = ShardedService::new(g, ShardConfig::default());
    let before = svc.epoch();
    // Inserting a present edge normalizes to nothing.
    let rep = svc.apply_update(&UpdateBatch::new().add_edge(0, 1));
    assert!(rep.noop);
    assert_eq!(rep.epoch, before);
    assert_eq!(svc.epoch(), before);
}

/// The tier's ownership rule, replayed outside it: the partition's
/// owners, then each vertex added later on the hash of its id or on the
/// least-loaded shard of its label (lowest index on ties), with deleted
/// vertices leaving their label's load.
struct Owners {
    owner: Vec<u32>,
    strategy: PartitionStrategy,
    shards: usize,
    seed: u64,
    /// `load[label][shard]`: live vertices of `label` `shard` owns.
    load: Vec<Vec<u64>>,
}

impl Owners {
    fn new(g: &Graph, strategy: PartitionStrategy, shards: usize, seed: u64) -> Owners {
        let owner = assign_owners(g, strategy, shards, seed);
        let mut load = vec![vec![0; shards]; 2];
        for (v, &o) in owner.iter().enumerate() {
            load[g.label(v as VertexId) as usize][o as usize] += 1;
        }
        Owners {
            owner,
            strategy,
            shards,
            seed,
            load,
        }
    }

    /// Follow one commit from `pre` to `post`: owners for the added
    /// vertices first, then the deleted ones leave their label's load.
    fn advance(&mut self, pre: &Snapshot, post: &Snapshot) {
        let label = |v: usize| post.label(v as VertexId) as usize;
        let (post_g, _) = post.materialize();
        let hashed = assign_owners(&post_g, PartitionStrategy::Hash, self.shards, self.seed);
        for (v, &hash) in hashed.iter().enumerate().skip(pre.num_vertices()) {
            let load = &mut self.load[label(v)];
            let o = match self.strategy {
                PartitionStrategy::Hash => hash,
                PartitionStrategy::LabelAware => (0..self.shards)
                    .min_by_key(|&s| (load[s], s))
                    .expect("a shard") as u32,
            };
            load[o as usize] += 1;
            self.owner.push(o);
        }
        for v in 0..pre.num_vertices() {
            if !pre.is_tombstoned(v as VertexId) && post.is_tombstoned(v as VertexId) {
                let load = &mut self.load[label(v)][self.owner[v] as usize];
                *load = load.saturating_sub(1);
            }
        }
    }

    /// `(owned, halo, local_edges)` per shard of a fresh cut of `post`.
    fn expected(&self, post: &Graph, halo_depth: u32) -> Vec<(usize, usize, usize)> {
        owned_lists(&self.owner, self.shards)
            .iter()
            .map(|owned| {
                let members = khop_ball(post, owned, halo_depth);
                let (piece, _) = post.induced_subgraph(&members);
                (owned.len(), members.len() - owned.len(), piece.num_edges())
            })
            .collect()
    }
}

/// Apply the same seeded update stream to a single service and the
/// sharded tier; after every batch the standing sets and live counts
/// must agree embedding-for-embedding, and every shard's counts must be
/// those of a fresh cut of the post graph.
fn standing_agreement(strategy: PartitionStrategy, shards: usize, seed: u64) {
    let g = rmat_graph(140, 5.0, 2, RmatParams::PAPER, seed);
    let mut owners = Owners::new(&g, strategy, shards, seed);
    let single = Service::new(g.clone(), ServiceConfig::default());
    let sharded = ShardedService::new(
        g,
        ShardConfig {
            shards,
            strategy,
            halo_depth: 3,
            seed,
            ..ShardConfig::default()
        },
    );
    let tri = triangle();
    let edge = graph_from_edges(&[0, 0], &[(0, 1)]);
    let s_tri = single.register_standing(&tri).expect("single supports");
    let s_edge = single.register_standing(&edge).expect("single supports");
    let h_tri = sharded.register_standing(&tri).expect("sharded supports");
    let h_edge = sharded.register_standing(&edge).expect("sharded supports");
    assert_eq!(
        single.standing_matches(s_tri),
        sharded.standing_matches(h_tri),
        "initial standing sets agree"
    );
    let mut stream = UpdateStream::new(
        UpdateStreamSpec {
            batch_size: 24,
            insert_ratio: 0.5,
            vertex_add_ratio: 0.15,
            num_labels: 2,
        },
        seed ^ 0xD1CE,
    );
    for step in 0..8 {
        let pre = sharded.snapshot();
        let mut batch = stream.next_batch(&pre);
        if step % 2 == 1 {
            // A vertex delete too: its edges leave every shard holding
            // them, and it leaves its label's load.
            let n = pre.num_vertices();
            let v = (0..n)
                .map(|i| ((i + 37 * step) % n) as VertexId)
                .find(|&v| !pre.is_tombstoned(v) && pre.degree(v) > 0)
                .expect("a live vertex with edges");
            batch = batch.delete_vertex(v);
        }
        let srep = single.apply_update(&batch);
        let hrep = sharded.apply_update(&batch);
        let post = sharded.snapshot();
        owners.advance(&pre, &post);
        let (post_g, _) = post.materialize();
        let details: Vec<(usize, usize, usize)> = sharded
            .shard_details()
            .iter()
            .map(|d| (d.owned, d.halo, d.local_edges))
            .collect();
        assert_eq!(
            details,
            owners.expected(&post_g, 3),
            "step {step}: shard counts are not a fresh cut ({strategy:?} x {shards})"
        );
        assert_eq!(srep.noop, hrep.noop, "step {step}");
        assert_eq!(
            (srep.incremental_added, srep.incremental_removed),
            (hrep.incremental_added, hrep.incremental_removed),
            "step {step}: incremental counts diverged ({strategy:?} x {shards})"
        );
        assert_eq!(
            single.standing_matches(s_tri),
            sharded.standing_matches(h_tri),
            "step {step}: standing triangles diverged ({strategy:?} x {shards})"
        );
        assert_eq!(
            single.standing_matches(s_edge),
            sharded.standing_matches(h_edge),
            "step {step}: standing edges diverged ({strategy:?} x {shards})"
        );
        // Live query path agrees too.
        assert_eq!(
            single.run_count(tri.clone()).matches,
            sharded.run_count(tri.clone()).matches,
            "step {step}: live counts diverged"
        );
    }
    assert_eq!(
        single.counters().get(Counter::IncrementalEmbeddings),
        sharded.counters().get(Counter::IncrementalEmbeddings),
        "the tier counts each maintained embedding once"
    );
    for d in sharded.shard_details() {
        let local = d.counters.get(Counter::IncrementalEmbeddings);
        assert_eq!(local, 0, "shard {} maintains a standing set", d.shard);
    }
}

#[test]
fn standing_queries_stay_exact_hash_2() {
    standing_agreement(PartitionStrategy::Hash, 2, 11);
}

#[test]
fn standing_queries_stay_exact_hash_4() {
    standing_agreement(PartitionStrategy::Hash, 4, 23);
}

#[test]
fn standing_queries_stay_exact_label_aware_3() {
    standing_agreement(PartitionStrategy::LabelAware, 3, 37);
}

#[test]
fn cross_shard_vertex_churn_routes_correctly() {
    // Hand-driven churn: add vertices, wire them across the partition
    // border, delete them again — the single service stays the oracle.
    let g = rmat_graph(80, 4.0, 2, RmatParams::PAPER, 3);
    let n0 = g.num_vertices() as u32;
    let single = Service::new(g.clone(), ServiceConfig::default());
    let sharded = ShardedService::new(
        g,
        ShardConfig {
            shards: 3,
            strategy: PartitionStrategy::LabelAware,
            halo_depth: 3,
            ..ShardConfig::default()
        },
    );
    let tri = triangle();
    // New vertices n0 and n0+1 (labels 0, 0) wired to existing hubs and
    // to each other: a triangle spanning old and new vertices.
    let wire = UpdateBatch::new()
        .add_vertex(0)
        .add_vertex(0)
        .add_edge(n0, n0 + 1)
        .add_edge(n0, 0)
        .add_edge(n0 + 1, 0)
        .add_edge(n0, 1)
        .add_edge(n0 + 1, 2);
    let s = single.apply_update(&wire);
    let h = sharded.apply_update(&wire);
    assert_eq!(s.vertices_added, 2);
    assert_eq!(h.vertices_added, 2);
    assert_eq!(
        single.run_count(tri.clone()).matches,
        sharded.run_count(tri.clone()).matches,
        "after wiring new vertices across shards"
    );
    // Tombstone one of them (drops its edges everywhere, including
    // halo replicas on non-owner shards).
    let unwire = UpdateBatch::new().delete_vertex(n0);
    single.apply_update(&unwire);
    sharded.apply_update(&unwire);
    assert_eq!(
        single.run_count(tri.clone()).matches,
        sharded.run_count(tri).matches,
        "after tombstoning a cross-shard vertex"
    );
}
