//! The CSR graph at the heart of the study.

use crate::label_index::LabelIndex;
use crate::nlf::NlfIndex;
use crate::types::{Label, VertexId};

/// An undirected, vertex-labeled graph in compressed sparse row form.
///
/// Neighbor lists are sorted ascending, so edge existence tests are
/// `O(log d)` binary searches (the cost the paper denotes β) and neighbor
/// lists can feed the merge/galloping set intersections of `sm-intersect`
/// directly.
///
/// The structure is immutable after construction via [`crate::GraphBuilder`];
/// all per-query state lives outside the graph, which is what lets the
/// matching engines share one graph across threads.
#[derive(Clone, Debug)]
pub struct Graph {
    offsets: Vec<usize>,
    neighbors: Vec<VertexId>,
    labels: Vec<Label>,
    label_index: LabelIndex,
    max_degree: usize,
}

impl Graph {
    pub(crate) fn from_parts(
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
        labels: Vec<Label>,
    ) -> Self {
        let label_index = LabelIndex::build(&labels);
        Graph::indexed(offsets, neighbors, labels, label_index)
    }

    /// [`Graph::from_parts`] with the label index given.
    fn indexed(
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
        labels: Vec<Label>,
        label_index: LabelIndex,
    ) -> Self {
        debug_assert_eq!(offsets.len(), labels.len() + 1);
        let n = labels.len();
        let max_degree = (0..n)
            .map(|v| offsets[v + 1] - offsets[v])
            .max()
            .unwrap_or(0);
        Graph {
            offsets,
            neighbors,
            labels,
            label_index,
            max_degree,
        }
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Number of distinct labels `|Σ|`.
    #[inline]
    pub fn num_labels(&self) -> usize {
        self.label_index.num_labels()
    }

    /// Largest vertex degree in the graph.
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Average degree `2|E| / |V|`.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.neighbors.len() as f64 / self.num_vertices() as f64
        }
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Label of vertex `v`.
    #[inline]
    pub fn label(&self, v: VertexId) -> Label {
        self.labels[v as usize]
    }

    /// Sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether the undirected edge `(u, v)` exists. `O(log min(d(u), d(v)))`.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        // Search the smaller adjacency list: same asymptotics, better
        // constants on skewed degree distributions (power-law graphs).
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// All vertex ids, `0..n`.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterate over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// The label index (label → sorted vertex list, label frequencies).
    #[inline]
    pub fn label_index(&self) -> &LabelIndex {
        &self.label_index
    }

    /// Vertices with label `l`, sorted ascending.
    #[inline]
    pub fn vertices_with_label(&self, l: Label) -> &[VertexId] {
        self.label_index.vertices_with_label(l)
    }

    /// Number of vertices carrying label `l` (the `|{v : L(v) = l}|` term
    /// in QuickSI's and VF2++'s orderings).
    #[inline]
    pub fn label_frequency(&self, l: Label) -> usize {
        self.label_index.frequency(l)
    }

    /// Build the neighbor-label-frequency index used by the NLF filter and
    /// VF2++'s runtime pruning rule. `O(|E|)`.
    pub fn build_nlf(&self) -> NlfIndex {
        NlfIndex::build(self)
    }

    /// Whether the graph is connected (empty graphs count as connected).
    pub fn is_connected(&self) -> bool {
        let n = self.num_vertices();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0 as VertexId];
        seen[0] = true;
        let mut visited = 1usize;
        while let Some(v) = stack.pop() {
            for &w in self.neighbors(v) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    visited += 1;
                    stack.push(w);
                }
            }
        }
        visited == n
    }

    /// Vertex-induced subgraph on `verts` (paper notation `g[V']`).
    ///
    /// Returns the subgraph together with the mapping from new vertex ids
    /// (positions in `verts`) back to the original ids.
    pub fn induced_subgraph(&self, verts: &[VertexId]) -> (Graph, Vec<VertexId>) {
        let mut to_new = std::collections::HashMap::with_capacity(verts.len());
        for (i, &v) in verts.iter().enumerate() {
            to_new.insert(v, i as VertexId);
        }
        let mut b = crate::GraphBuilder::new();
        for &v in verts {
            b.add_vertex(self.label(v));
        }
        for (i, &v) in verts.iter().enumerate() {
            for &w in self.neighbors(v) {
                if let Some(&j) = to_new.get(&w) {
                    if (i as VertexId) < j {
                        b.add_edge(i as VertexId, j);
                    }
                }
            }
        }
        (b.build(), verts.to_vec())
    }

    /// Total number of directed adjacency entries (`2|E|`); exposed for
    /// memory accounting in the experiment harness.
    #[inline]
    pub fn adjacency_len(&self) -> usize {
        self.neighbors.len()
    }

    /// The raw CSR arrays `(offsets, neighbors, labels)` — the
    /// serialization surface of the on-disk snapshot format (`sm-durable`
    /// writes these sections verbatim, little-endian).
    #[inline]
    pub fn csr(&self) -> (&[usize], &[VertexId], &[Label]) {
        (&self.offsets, &self.neighbors, &self.labels)
    }

    /// Rebuild a graph from raw CSR arrays — the snapshot-load path,
    /// which skips the `GraphBuilder` sort entirely. The shape is
    /// validated (monotone offsets covering `neighbors`, per-row sorted
    /// adjacency with in-range endpoints) so a corrupt or truncated
    /// snapshot body cannot produce a graph that violates the CSR
    /// invariants the matching engines rely on.
    pub fn from_csr(
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
        labels: Vec<Label>,
    ) -> Result<Self, &'static str> {
        let n = labels.len();
        if offsets.len() != n + 1 {
            return Err("offsets length must be labels length + 1");
        }
        if offsets[0] != 0 || offsets[n] != neighbors.len() {
            return Err("offsets must span the neighbor array");
        }
        for v in 0..n {
            if offsets[v] > offsets[v + 1] {
                return Err("offsets must be monotone");
            }
            let row = &neighbors[offsets[v]..offsets[v + 1]];
            if !row.windows(2).all(|w| w[0] < w[1]) {
                return Err("adjacency rows must be strictly ascending");
            }
            if row.last().is_some_and(|&w| w as usize >= n) {
                return Err("neighbor id out of range");
            }
        }
        Ok(Graph::from_parts(offsets, neighbors, labels))
    }

    /// [`Graph::from_csr`] without the release-build validation pass, for
    /// arrays assembled by code that upholds the CSR invariants by
    /// construction (the overlay materializer), which also passes the
    /// labels' index ([`LabelIndex::extended`] from its source graph's)
    /// instead of having it rebuilt. Untrusted input — disk, network —
    /// must go through [`Graph::from_csr`] instead. Debug builds still
    /// validate, the index included.
    pub fn from_csr_unchecked(
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
        labels: Vec<Label>,
        label_index: LabelIndex,
    ) -> Self {
        #[cfg(debug_assertions)]
        {
            let g = Graph::from_csr(offsets, neighbors, labels).expect("invalid CSR");
            assert!(
                g.label_index == label_index,
                "label index is not the labels'"
            );
            g
        }
        #[cfg(not(debug_assertions))]
        {
            Graph::indexed(offsets, neighbors, labels, label_index)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    fn path3() -> crate::Graph {
        // 0 - 1 - 2, labels A B A
        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        b.add_vertex(1);
        b.add_vertex(0);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.build()
    }

    #[test]
    fn basic_accessors() {
        let g = path3();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_labels(), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.label(1), 1);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.max_degree(), 2);
        assert!((g.avg_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn edge_tests_are_symmetric() {
        let g = path3();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(2, 0));
    }

    #[test]
    fn label_index_contents() {
        let g = path3();
        assert_eq!(g.vertices_with_label(0), &[0, 2]);
        assert_eq!(g.vertices_with_label(1), &[1]);
        assert_eq!(g.label_frequency(0), 2);
        assert_eq!(g.label_frequency(7), 0);
        assert!(g.vertices_with_label(9).is_empty());
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = path3();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn connectivity() {
        let g = path3();
        assert!(g.is_connected());
        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        b.add_vertex(0);
        assert!(!b.build().is_connected());
        assert!(GraphBuilder::new().build().is_connected());
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        // triangle 0-1-2 plus pendant 3
        let mut b = GraphBuilder::new();
        for _ in 0..4 {
            b.add_vertex(0);
        }
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        b.add_edge(2, 3);
        let g = b.build();
        let (sub, map) = g.induced_subgraph(&[0, 1, 2]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 3);
        assert_eq!(map, vec![0, 1, 2]);
        let (sub2, _) = g.induced_subgraph(&[0, 3]);
        assert_eq!(sub2.num_edges(), 0);
    }
}
