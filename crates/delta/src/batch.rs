//! [`UpdateBatch`]: one atomic set of graph mutations.

use sm_graph::{Label, VertexId};

/// A batch of graph updates committed atomically to a
/// [`crate::VersionedGraph`]. Order inside a batch does not matter; the
/// commit applies vertex additions, then edge deletions (including the
/// edges dropped by vertex deletions), then edge insertions, and
/// normalizes away no-ops (inserting a present edge, deleting an absent
/// one, self-loops, duplicates).
#[derive(Clone, Debug, Default)]
pub struct UpdateBatch {
    /// Labels of vertices to add; ids are assigned densely from the
    /// current vertex count, in order.
    pub add_vertices: Vec<Label>,
    /// Vertices to delete (tombstoned: incident edges removed, id never
    /// reused).
    pub delete_vertices: Vec<VertexId>,
    /// Undirected edges to insert.
    pub add_edges: Vec<(VertexId, VertexId)>,
    /// Undirected edges to delete.
    pub delete_edges: Vec<(VertexId, VertexId)>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        UpdateBatch::default()
    }

    /// Add a vertex with `label`; its id is assigned at commit time.
    pub fn add_vertex(mut self, label: Label) -> Self {
        self.add_vertices.push(label);
        self
    }

    /// Tombstone vertex `v` (drops its incident edges).
    pub fn delete_vertex(mut self, v: VertexId) -> Self {
        self.delete_vertices.push(v);
        self
    }

    /// Insert the undirected edge `(u, v)`.
    pub fn add_edge(mut self, u: VertexId, v: VertexId) -> Self {
        self.add_edges.push((u, v));
        self
    }

    /// Delete the undirected edge `(u, v)`.
    pub fn delete_edge(mut self, u: VertexId, v: VertexId) -> Self {
        self.delete_edges.push((u, v));
        self
    }

    /// Whether the batch contains no operations at all.
    pub fn is_empty(&self) -> bool {
        self.add_vertices.is_empty()
            && self.delete_vertices.is_empty()
            && self.add_edges.is_empty()
            && self.delete_edges.is_empty()
    }

    /// Total operation count (before normalization).
    pub fn len(&self) -> usize {
        self.add_vertices.len()
            + self.delete_vertices.len()
            + self.add_edges.len()
            + self.delete_edges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_ops() {
        let b = UpdateBatch::new()
            .add_vertex(3)
            .add_edge(0, 1)
            .delete_edge(1, 2)
            .delete_vertex(4);
        assert_eq!(b.add_vertices, vec![3]);
        assert_eq!(b.add_edges, vec![(0, 1)]);
        assert_eq!(b.delete_edges, vec![(1, 2)]);
        assert_eq!(b.delete_vertices, vec![4]);
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
        assert!(UpdateBatch::new().is_empty());
    }
}
