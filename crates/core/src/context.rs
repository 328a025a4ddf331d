//! Precomputed per-data-graph and per-query state.

use crate::util::Bitmap;
use sm_graph::canon::canonical_form;
use sm_graph::label_index::LabelPairEdgeCounts;
use sm_graph::{Graph, NlfIndex, VertexId};
use std::borrow::Cow;
use std::cmp::Reverse;

/// Maximum supported query size. Failing-set pruning packs query vertices
/// into a `u64` bitset; the paper's largest queries have 32 vertices.
pub const MAX_QUERY_VERTICES: usize = 64;

/// Immutable indices over a data graph, built once and shared by every
/// query against it (the study amortizes exactly this across its 200-query
/// sets).
pub struct DataContext<'g> {
    /// The data graph `G`.
    pub graph: &'g Graph,
    /// Neighbor-label-frequency table for the NLF filter and VF2++'s
    /// runtime rule.
    pub nlf: Cow<'g, NlfIndex>,
    /// Edge counts per label pair — QuickSI's edge weights.
    pub label_pairs: Cow<'g, LabelPairEdgeCounts>,
    /// The data vertices this graph owns when it is one shard of a
    /// partitioned graph (`None` otherwise); see [`DataContext::with_owned`].
    pub(crate) owned: Option<&'g Bitmap>,
}

impl<'g> DataContext<'g> {
    /// Build all indices. `O(|E(G)|)`.
    pub fn new(graph: &'g Graph) -> Self {
        DataContext {
            graph,
            nlf: Cow::Owned(graph.build_nlf()),
            label_pairs: Cow::Owned(LabelPairEdgeCounts::build(graph)),
            owned: None,
        }
    }

    /// Borrow prebuilt indices — for callers that keep the indices alive
    /// across many contexts (a service compiling plans against a
    /// long-lived data graph) instead of rebuilding or copying `O(|E(G)|)`
    /// state per query.
    pub fn from_parts(
        graph: &'g Graph,
        nlf: &'g NlfIndex,
        label_pairs: &'g LabelPairEdgeCounts,
    ) -> Self {
        DataContext {
            graph,
            nlf: Cow::Borrowed(nlf),
            label_pairs: Cow::Borrowed(label_pairs),
            owned: None,
        }
    }

    /// Make this the context of one shard of a partitioned graph that
    /// owns the data vertices in `owned`: [`crate::Pipeline::plan`] then
    /// keeps only owned vertices in `C(anchor(q))`, so a plan finds
    /// exactly the embeddings whose [`anchor`] image the shard owns.
    pub fn with_owned(mut self, owned: Option<&'g Bitmap>) -> Self {
        self.owned = owned;
        self
    }
}

/// The query vertex whose image decides which shard owns an embedding:
/// the highest-degree vertex, ties going to the lowest position in
/// `canonical_form(q).labeling`. It depends on `q` alone and maps onto
/// itself under any renumbering, so every shard and every permuted twin
/// a cached plan serves agree on it. On sparse data it is usually RI's
/// root, so the owned restriction prunes at depth 0.
pub fn anchor(q: &Graph) -> VertexId {
    let position = canonical_form(q).labeling;
    (0..q.num_vertices() as VertexId)
        .max_by_key(|&u| (q.degree(u), Reverse(position[u as usize])))
        .expect("a query has at least one vertex")
}

/// Per-query derived state: NLF of the query and the 2-core mask used by
/// CFL's ordering and DP-iso's degree-one decomposition.
pub struct QueryContext<'q> {
    /// The query graph `q`.
    pub graph: &'q Graph,
    /// Neighbor-label-frequency table of the query.
    pub nlf: NlfIndex,
    /// `true` for vertices in the 2-core of `q`.
    pub core_mask: Vec<bool>,
}

impl<'q> QueryContext<'q> {
    /// Build the query context.
    ///
    /// # Panics
    ///
    /// Panics if the query has more than [`MAX_QUERY_VERTICES`] vertices
    /// or fewer than 1.
    pub fn new(graph: &'q Graph) -> Self {
        assert!(
            graph.num_vertices() >= 1 && graph.num_vertices() <= MAX_QUERY_VERTICES,
            "query must have 1..={MAX_QUERY_VERTICES} vertices, got {}",
            graph.num_vertices()
        );
        QueryContext {
            graph,
            nlf: graph.build_nlf(),
            core_mask: sm_graph::core_decomposition::two_core_mask(graph),
        }
    }

    /// Number of query vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Whether `u` is a core (2-core) vertex.
    #[inline]
    pub fn is_core(&self, u: VertexId) -> bool {
        self.core_mask[u as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_graph::builder::graph_from_edges;

    #[test]
    fn data_context_builds_indices() {
        let g = graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let ctx = DataContext::new(&g);
        assert_eq!(ctx.nlf.count(1, 0), 2);
        assert_eq!(ctx.label_pairs.count(0, 1), 2);
    }

    #[test]
    fn anchor_is_the_same_vertex_under_renumbering() {
        // A path whose two middle vertices tie on degree but differ in
        // label: the tie is broken by canonical position, not by id.
        let q = graph_from_edges(&[0, 1, 2, 0], &[(0, 1), (1, 2), (2, 3)]);
        let twin = graph_from_edges(&[0, 2, 1, 0], &[(0, 1), (1, 2), (2, 3)]);
        let (a, b) = (anchor(&q), anchor(&twin));
        assert!(a == 1 || a == 2);
        // Reversing the ids swaps the two middle vertices.
        assert_eq!(q.label(a), twin.label(b));
        assert_eq!(anchor(&graph_from_edges(&[0; 3], &[(0, 1), (1, 2)])), 1);
    }

    #[test]
    fn query_context_core_mask() {
        // triangle + pendant
        let q = graph_from_edges(&[0; 4], &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let ctx = QueryContext::new(&q);
        assert!(ctx.is_core(0) && ctx.is_core(1) && ctx.is_core(2));
        assert!(!ctx.is_core(3));
        assert_eq!(ctx.num_vertices(), 4);
    }

    #[test]
    #[should_panic(expected = "query must have")]
    fn oversized_query_rejected() {
        let labels = vec![0u32; 65];
        let edges: Vec<(u32, u32)> = (0..64).map(|i| (i, i + 1)).collect();
        let q = graph_from_edges(&labels, &edges);
        let _ = QueryContext::new(&q);
    }
}
