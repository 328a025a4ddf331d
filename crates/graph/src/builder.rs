//! Incremental graph construction.

use crate::graph::Graph;
use crate::types::{Label, VertexId};

/// Builds a [`Graph`] from vertices and an edge list.
///
/// Self-loops and duplicate edges are dropped during [`GraphBuilder::build`],
/// so generators can emit edges without pre-deduplicating (RMAT in
/// particular produces collisions by design).
#[derive(Default, Debug, Clone)]
pub struct GraphBuilder {
    labels: Vec<Label>,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a builder pre-sized for `n` vertices and `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            labels: Vec::with_capacity(n),
            edges: Vec::with_capacity(m),
        }
    }

    /// Add a vertex with the given label; returns its id.
    pub fn add_vertex(&mut self, label: Label) -> VertexId {
        let id = self.labels.len() as VertexId;
        self.labels.push(label);
        id
    }

    /// Add `n` vertices all carrying `label`.
    pub fn add_vertices(&mut self, n: usize, label: Label) {
        self.labels.extend(std::iter::repeat_n(label, n));
    }

    /// Add an undirected edge. Endpoints must already exist by build time.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        self.edges.push((u, v));
    }

    /// Number of vertices added so far.
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Finalize into an immutable CSR [`Graph`].
    ///
    /// # Panics
    ///
    /// Panics if any edge endpoint is out of range.
    pub fn build(self) -> Graph {
        let n = self.labels.len();
        for &(u, v) in &self.edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u}, {v}) references a vertex >= {n}"
            );
        }
        // Counting sort into CSR: count degrees (both directions), prefix
        // sum, scatter, then per-vertex sort + dedup.
        let mut deg = vec![0usize; n];
        for &(u, v) in &self.edges {
            if u != v {
                deg[u as usize] += 1;
                deg[v as usize] += 1;
            }
        }
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + deg[v];
        }
        let mut neighbors = vec![0 as VertexId; offsets[n]];
        let mut cursor = offsets[..n].to_vec();
        for &(u, v) in &self.edges {
            if u != v {
                neighbors[cursor[u as usize]] = v;
                cursor[u as usize] += 1;
                neighbors[cursor[v as usize]] = u;
                cursor[v as usize] += 1;
            }
        }
        // Sort each adjacency list and drop duplicate edges, compacting the
        // arrays in place.
        let mut write = 0usize;
        let mut new_offsets = vec![0usize; n + 1];
        for v in 0..n {
            let (lo, hi) = (offsets[v], offsets[v + 1]);
            neighbors[lo..hi].sort_unstable();
            let mut prev: Option<VertexId> = None;
            let start = write;
            for i in lo..hi {
                let w = neighbors[i];
                if prev != Some(w) {
                    neighbors[write] = w;
                    write += 1;
                    prev = Some(w);
                }
            }
            new_offsets[v] = start;
        }
        new_offsets[n] = write;
        neighbors.truncate(write);
        // new_offsets currently stores starts; it is already a valid offset
        // array because segments are written contiguously.
        Graph::from_parts(new_offsets, neighbors, self.labels)
    }
}

/// Convenience constructor: build a graph from labels and an edge list.
pub fn graph_from_edges(labels: &[Label], edges: &[(VertexId, VertexId)]) -> Graph {
    let mut b = GraphBuilder::with_capacity(labels.len(), edges.len());
    for &l in labels {
        b.add_vertex(l);
    }
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_self_loops() {
        let g = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 0), (0, 1), (1, 1), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_labels(), 0);
    }

    #[test]
    fn isolated_vertices() {
        let mut b = GraphBuilder::new();
        b.add_vertices(5, 3);
        let g = b.build();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.label(4), 3);
    }

    #[test]
    #[should_panic(expected = "references a vertex")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        b.add_edge(0, 3);
        let _ = b.build();
    }

    #[test]
    fn adjacency_sorted() {
        let g = graph_from_edges(&[0; 5], &[(4, 0), (4, 2), (4, 1), (4, 3)]);
        assert_eq!(g.neighbors(4), &[0, 1, 2, 3]);
    }
}
