//! Summary statistics, matching the columns of the paper's Table 3.

use crate::graph::Graph;

/// `|V|`, `|E|`, `|Σ|` and degree statistics of a graph.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of undirected edges.
    pub num_edges: usize,
    /// Number of distinct labels.
    pub num_labels: usize,
    /// Average degree `2|E|/|V|`.
    pub avg_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
}

impl GraphStats {
    /// Compute the statistics of `g`.
    pub fn of(g: &Graph) -> Self {
        GraphStats {
            num_vertices: g.num_vertices(),
            num_edges: g.num_edges(),
            num_labels: g.num_labels(),
            avg_degree: g.avg_degree(),
            max_degree: g.max_degree(),
        }
    }
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "|V|={} |E|={} |Σ|={} d={:.1} dmax={}",
            self.num_vertices, self.num_edges, self.num_labels, self.avg_degree, self.max_degree
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn stats_of_triangle() {
        let g = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]);
        let s = GraphStats::of(&g);
        assert_eq!(s.num_vertices, 3);
        assert_eq!(s.num_edges, 3);
        assert_eq!(s.num_labels, 3);
        assert!((s.avg_degree - 2.0).abs() < 1e-12);
        assert_eq!(s.max_degree, 2);
    }

    #[test]
    fn display_format() {
        let g = graph_from_edges(&[0, 0], &[(0, 1)]);
        let s = format!("{}", GraphStats::of(&g));
        assert!(s.contains("|V|=2"));
        assert!(s.contains("|E|=1"));
    }
}
