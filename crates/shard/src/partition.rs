//! Graph partitioning with k-hop halo replication.
//!
//! A partition assigns every data vertex one **owning** shard, then
//! gives each shard the induced subgraph on its owned vertices *plus*
//! every vertex within `halo_depth` hops of one (the **halo**, or ghost
//! vertices). The halo is what makes shard-local enumeration complete:
//! for a connected query `q` with diameter `d ≤ halo_depth`, every
//! embedding's vertices lie within `d` hops of the image of any query
//! vertex (query paths map to data-graph walks). In particular the shard
//! owning the image of the query's anchor vertex ([`sm_match::anchor`])
//! holds the whole embedding and all its edges locally, and that shard
//! alone reports it: its service keeps only owned vertices
//! ([`owned_mask`]) in the anchor's candidates — Silvestri's rule of
//! charging each instance of a pattern to exactly one part.

use sm_graph::core_decomposition::core_numbers;
use sm_graph::traversal::khop_ball;
use sm_graph::{Graph, Label, VertexId};
use sm_match::util::Bitmap;
use sm_runtime::rng::splitmix64;
use std::collections::HashMap;

/// How vertices are assigned to owning shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Stateless multiplicative hash of the global vertex id — uniform,
    /// label- and structure-oblivious.
    Hash,
    /// Label-aware balanced assignment: within each label class,
    /// vertices are dealt round-robin in descending core-number (then
    /// degree) order, so every shard gets an even share of each label's
    /// high-core vertices — the ones enumeration roots on.
    LabelAware,
}

impl PartitionStrategy {
    /// Stable lowercase name (CLI/JSON friendly).
    pub fn name(self) -> &'static str {
        match self {
            PartitionStrategy::Hash => "hash",
            PartitionStrategy::LabelAware => "label",
        }
    }

    /// Parse a CLI name (`hash` | `label`).
    pub fn from_name(name: &str) -> Option<PartitionStrategy> {
        match name {
            "hash" => Some(PartitionStrategy::Hash),
            "label" => Some(PartitionStrategy::LabelAware),
            _ => None,
        }
    }
}

/// Owning shard of vertex `v` under the hash strategy.
pub(crate) fn hash_owner(v: VertexId, seed: u64, shards: usize) -> u32 {
    let mut s = (v as u64) ^ seed;
    (splitmix64(&mut s) % shards as u64) as u32
}

/// Assign every vertex of `g` an owning shard. Deterministic for a
/// given `(strategy, shards, seed)`.
pub fn assign_owners(g: &Graph, strategy: PartitionStrategy, shards: usize, seed: u64) -> Vec<u32> {
    let n = g.num_vertices();
    match strategy {
        PartitionStrategy::Hash => (0..n as VertexId)
            .map(|v| hash_owner(v, seed, shards))
            .collect(),
        PartitionStrategy::LabelAware => {
            let cores = core_numbers(g);
            let mut by_label: HashMap<Label, Vec<VertexId>> = HashMap::new();
            for v in 0..n as VertexId {
                by_label.entry(g.label(v)).or_default().push(v);
            }
            let mut owner = vec![0u32; n];
            let mut labels: Vec<Label> = by_label.keys().copied().collect();
            labels.sort_unstable();
            for label in labels {
                let mut verts = by_label.remove(&label).expect("key present");
                verts.sort_unstable_by_key(|&v| {
                    (
                        std::cmp::Reverse(cores[v as usize]),
                        std::cmp::Reverse(g.degree(v)),
                        v,
                    )
                });
                for (i, &v) in verts.iter().enumerate() {
                    owner[v as usize] = (i % shards) as u32;
                }
            }
            owner
        }
    }
}

/// The vertices shard `shard` owns, as a bitmap over its local ids
/// (`global_of` maps them to global ids): what the shard's service
/// restricts each query's anchor candidates to.
pub fn owned_mask(global_of: &[VertexId], owner: &[u32], shard: usize) -> Bitmap {
    let mut owned = Bitmap::new(global_of.len());
    for (l, &g) in global_of.iter().enumerate() {
        if owner[g as usize] as usize == shard {
            owned.set(l as VertexId);
        }
    }
    owned
}

/// Every shard's owned vertices, ascending: shard `s`'s list holds each
/// `v` with `owner[v] == s`. The seeds of the shards' halo balls.
pub fn owned_lists(owner: &[u32], shards: usize) -> Vec<Vec<VertexId>> {
    let mut lists: Vec<Vec<VertexId>> = vec![Vec::new(); shards];
    for (v, &s) in owner.iter().enumerate() {
        lists[s as usize].push(v as VertexId);
    }
    lists
}

/// One shard's slice of the data graph: a function of the graph and the
/// owner vector alone, so every derivation of a shard cuts it afresh.
pub struct ShardPiece {
    /// The local induced subgraph on owned + halo vertices.
    pub graph: Graph,
    /// Local → global vertex-id map, sorted ascending.
    pub global_of: Vec<VertexId>,
    /// Owned (non-halo) vertex count.
    pub owned: usize,
}

impl ShardPiece {
    /// The piece of `g` induced on `members` (sorted ascending, the
    /// owned vertices plus their halo), of which `owned` are owned.
    pub fn induced(g: &Graph, members: &[VertexId], owned: usize) -> ShardPiece {
        let (graph, global_of) = g.induced_subgraph(members);
        ShardPiece {
            graph,
            global_of,
            owned,
        }
    }
}

/// A full partition: per-shard pieces plus the ownership table.
pub struct Partition {
    /// Global vertex id → owning shard.
    pub owner: Vec<u32>,
    /// One piece per shard.
    pub pieces: Vec<ShardPiece>,
}

impl Partition {
    /// Partition `g` into `shards` pieces with `halo_depth`-hop ghost
    /// replication.
    pub fn build(
        g: &Graph,
        strategy: PartitionStrategy,
        shards: usize,
        halo_depth: u32,
        seed: u64,
    ) -> Partition {
        let shards = shards.max(1);
        let owner = assign_owners(g, strategy, shards, seed);
        let pieces = owned_lists(&owner, shards)
            .iter()
            .map(|owned| ShardPiece::induced(g, &khop_ball(g, owned, halo_depth), owned.len()))
            .collect();
        Partition { owner, pieces }
    }

    /// Total halo (ghost) vertices replicated across all shards.
    pub fn halo_vertices(&self) -> u64 {
        self.pieces
            .iter()
            .map(|p| (p.global_of.len() - p.owned) as u64)
            .sum()
    }
}

/// Skew of a load distribution: `100 * max / mean` (0 for an all-zero
/// or empty distribution).
pub(crate) fn skew_pct(loads: impl Iterator<Item = u64>) -> u64 {
    let loads: Vec<u64> = loads.collect();
    let total: u64 = loads.iter().sum();
    if total == 0 {
        return 0;
    }
    let max = *loads.iter().max().expect("nonempty");
    max * 100 * loads.len() as u64 / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_graph::builder::graph_from_edges;
    use sm_graph::gen::rmat::{rmat_graph, RmatParams};

    #[test]
    fn strategy_names_round_trip() {
        for s in [PartitionStrategy::Hash, PartitionStrategy::LabelAware] {
            assert_eq!(PartitionStrategy::from_name(s.name()), Some(s));
        }
        assert_eq!(PartitionStrategy::from_name("bogus"), None);
    }

    #[test]
    fn single_shard_owns_everything_with_no_halo() {
        let g = rmat_graph(200, 4.0, 3, RmatParams::PAPER, 7);
        let p = Partition::build(&g, PartitionStrategy::Hash, 1, 2, 0);
        assert_eq!(p.pieces.len(), 1);
        assert_eq!(p.pieces[0].owned, g.num_vertices());
        assert_eq!(p.halo_vertices(), 0);
        assert_eq!(p.pieces[0].graph.num_edges(), g.num_edges());
        assert!(p.owner.iter().all(|&s| s == 0));
    }

    #[test]
    fn every_vertex_owned_exactly_once_and_pieces_cover_balls() {
        let g = rmat_graph(300, 5.0, 4, RmatParams::PAPER, 11);
        for strategy in [PartitionStrategy::Hash, PartitionStrategy::LabelAware] {
            let p = Partition::build(&g, strategy, 4, 2, 42);
            let mut owned_counts = vec![0usize; g.num_vertices()];
            for (s, piece) in p.pieces.iter().enumerate() {
                assert!(piece.global_of.windows(2).all(|w| w[0] < w[1]));
                for (l, &gv) in piece.global_of.iter().enumerate() {
                    assert_eq!(piece.graph.label(l as VertexId), g.label(gv));
                    if p.owner[gv as usize] == s as u32 {
                        owned_counts[gv as usize] += 1;
                    }
                }
                // Owned vertices are all members.
                for (v, &o) in p.owner.iter().enumerate() {
                    if o == s as u32 {
                        assert!(piece.global_of.binary_search(&(v as VertexId)).is_ok());
                    }
                }
            }
            assert!(owned_counts.iter().all(|&c| c == 1), "{strategy:?}");
        }
    }

    #[test]
    fn local_edges_are_global_edges() {
        let g = rmat_graph(250, 6.0, 3, RmatParams::PAPER, 3);
        let p = Partition::build(&g, PartitionStrategy::LabelAware, 3, 2, 0);
        for piece in &p.pieces {
            for (lu, lv) in piece.graph.edges() {
                assert!(g.has_edge(piece.global_of[lu as usize], piece.global_of[lv as usize]));
            }
        }
    }

    #[test]
    fn label_aware_balances_each_label() {
        let g = rmat_graph(400, 5.0, 2, RmatParams::PAPER, 19);
        let owner = assign_owners(&g, PartitionStrategy::LabelAware, 4, 0);
        for label in 0..2 {
            let mut counts = [0usize; 4];
            for &v in g.vertices_with_label(label) {
                counts[owner[v as usize] as usize] += 1;
            }
            let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(max - min <= 1, "label {label} counts {counts:?}");
        }
    }

    #[test]
    fn skew_math() {
        assert_eq!(skew_pct([10, 10, 10, 10].into_iter()), 100);
        assert_eq!(skew_pct([40, 0, 0, 0].into_iter()), 400);
        assert_eq!(skew_pct(std::iter::empty()), 0);
    }

    #[test]
    fn halo_grows_with_depth() {
        let g = graph_from_edges(&[0; 6], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let p0 = Partition::build(&g, PartitionStrategy::Hash, 2, 0, 1);
        let p2 = Partition::build(&g, PartitionStrategy::Hash, 2, 2, 1);
        assert_eq!(p0.halo_vertices(), 0);
        assert!(p2.halo_vertices() > 0);
    }
}
