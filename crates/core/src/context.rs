//! Precomputed per-data-graph and per-query state.

use sm_graph::label_index::LabelPairEdgeCounts;
use sm_graph::{Graph, NlfIndex, VertexId};
use std::borrow::Cow;

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
}

impl<'g> DataContext<'g> {
    /// Build all indices. `O(|E(G)|)`.
    pub fn new(graph: &'g Graph) -> Self {
        DataContext {
            graph,
            nlf: Cow::Owned(graph.build_nlf()),
            label_pairs: Cow::Owned(LabelPairEdgeCounts::build(graph)),
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
        }
    }
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
