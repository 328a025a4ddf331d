//! Seeded update-stream generation for benchmarks and tests.
//!
//! [`UpdateStream`] turns a [`Snapshot`] of the current graph into the
//! next [`UpdateBatch`] of a synthetic workload: a seeded mix of edge
//! insertions (between existing live vertices), edge deletions (of
//! existing live edges) and occasional vertex additions. The same seed
//! and spec produce the same stream against the same evolving graph —
//! the reproducibility contract the update benchmarks and the equivalence
//! tests rely on.

use crate::batch::UpdateBatch;
use crate::versioned::Snapshot;
use sm_graph::{Label, VertexId};
use sm_runtime::Rng64;

/// Shape of a synthetic update stream.
#[derive(Clone, Copy, Debug)]
pub struct UpdateStreamSpec {
    /// Operations per batch.
    pub batch_size: usize,
    /// Fraction of operations that insert an edge; the rest delete one.
    pub insert_ratio: f64,
    /// Probability that an insert grows a brand-new vertex (attached by
    /// the inserted edge) instead of connecting two existing vertices.
    pub vertex_add_ratio: f64,
    /// Label universe for newly added vertices.
    pub num_labels: usize,
}

impl Default for UpdateStreamSpec {
    fn default() -> Self {
        UpdateStreamSpec {
            batch_size: 16,
            insert_ratio: 0.8,
            vertex_add_ratio: 0.05,
            num_labels: 4,
        }
    }
}

/// A seeded generator of [`UpdateBatch`]es against an evolving graph.
pub struct UpdateStream {
    spec: UpdateStreamSpec,
    rng: Rng64,
}

impl UpdateStream {
    /// Create a stream with the given spec and seed.
    pub fn new(spec: UpdateStreamSpec, seed: u64) -> Self {
        UpdateStream {
            spec,
            rng: Rng64::seed_from_u64(seed),
        }
    }

    /// Pick a live (non-tombstoned) vertex, preferring a bounded number
    /// of rejection-sampling attempts.
    fn pick_live(&mut self, view: &Snapshot) -> Option<VertexId> {
        let n = view.num_vertices();
        if n == 0 {
            return None;
        }
        for _ in 0..32 {
            let v = self.rng.next_u64_below(n as u64) as VertexId;
            if !view.is_tombstoned(v) {
                return Some(v);
            }
        }
        None
    }

    /// Generate the next batch against `view` (the current graph state).
    ///
    /// Individual operations may still normalize away at commit time
    /// (e.g. an insert colliding with an existing edge); the stream
    /// over-samples candidates cheaply instead of guaranteeing
    /// effectiveness per op.
    pub fn next_batch(&mut self, view: &Snapshot) -> UpdateBatch {
        let mut batch = UpdateBatch::new();
        let mut new_vertices = 0u32;
        for _ in 0..self.spec.batch_size {
            if self.rng.gen_bool(self.spec.insert_ratio) {
                if self.rng.gen_bool(self.spec.vertex_add_ratio) {
                    // Grow: new vertex attached to a random live vertex.
                    let Some(u) = self.pick_live(view) else {
                        continue;
                    };
                    let label =
                        self.rng.next_u64_below(self.spec.num_labels.max(1) as u64) as Label;
                    let id = (view.num_vertices() + new_vertices as usize) as VertexId;
                    batch = batch.add_vertex(label).add_edge(u, id);
                    new_vertices += 1;
                } else {
                    // Connect two existing live vertices; retry a few
                    // times to find an absent pair.
                    for _ in 0..8 {
                        let (Some(u), Some(v)) = (self.pick_live(view), self.pick_live(view))
                        else {
                            break;
                        };
                        if u != v && !view.has_edge(u, v) {
                            batch = batch.add_edge(u, v);
                            break;
                        }
                    }
                }
            } else {
                // Delete a random live edge: random endpoint weighted by
                // rejection on degree, then a random neighbor.
                for _ in 0..8 {
                    let Some(u) = self.pick_live(view) else { break };
                    let d = view.degree(u);
                    if d == 0 {
                        continue;
                    }
                    let w = view.neighbors(u)[self.rng.next_u64_below(d as u64) as usize];
                    batch = batch.delete_edge(u, w);
                    break;
                }
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::versioned::VersionedGraph;
    use sm_graph::gen::rmat::{rmat_graph, RmatParams};

    #[test]
    fn same_seed_same_stream() {
        let g = rmat_graph(200, 6.0, 3, RmatParams::PAPER, 7);
        let vg = VersionedGraph::new(g.clone());
        let spec = UpdateStreamSpec::default();
        let mut a = UpdateStream::new(spec, 42);
        let mut b = UpdateStream::new(spec, 42);
        let s = vg.snapshot();
        for _ in 0..5 {
            let ba = a.next_batch(&s);
            let bb = b.next_batch(&s);
            assert_eq!(ba.add_edges, bb.add_edges);
            assert_eq!(ba.delete_edges, bb.delete_edges);
            assert_eq!(ba.add_vertices, bb.add_vertices);
        }
        let mut c = UpdateStream::new(spec, 43);
        let bc = c.next_batch(&vg.snapshot());
        let ba = UpdateStream::new(spec, 42).next_batch(&vg.snapshot());
        assert_ne!(
            (ba.add_edges, ba.delete_edges),
            (bc.add_edges, bc.delete_edges),
            "different seeds diverge"
        );
    }

    #[test]
    fn stream_drives_commits_effectively() {
        let g = rmat_graph(300, 8.0, 4, RmatParams::PAPER, 11);
        let vg = VersionedGraph::new(g);
        let mut stream = UpdateStream::new(UpdateStreamSpec::default(), 9);
        let mut effective = 0usize;
        for _ in 0..20 {
            let batch = stream.next_batch(&vg.snapshot());
            let c = vg.commit(&batch);
            effective += c.info.edges_inserted.len() + c.info.edges_deleted.len();
        }
        assert!(
            effective > 50,
            "stream keeps mutating the graph: {effective}"
        );
        assert!(vg.epoch() > 0);
    }
}
