//! BFS trees and traversal orders.
//!
//! CFL, CECI and DP-iso all hang their auxiliary structures off a BFS tree
//! `q_t` of the query rooted at a filter-specific start vertex; the BFS
//! visit order is the `δ` of the paper. This module provides both, plus
//! the tree/non-tree edge classification the filters rely on.

use crate::graph::Graph;
use crate::types::{VertexId, NO_VERTEX};
use std::collections::VecDeque;

/// A BFS spanning tree of a connected graph, rooted at `root`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BfsTree {
    /// Root vertex.
    pub root: VertexId,
    /// BFS visit order `δ` (root first). Contains every vertex reachable
    /// from the root.
    pub order: Vec<VertexId>,
    /// Parent of each vertex in the tree (`NO_VERTEX` for the root and for
    /// unreachable vertices).
    pub parent: Vec<VertexId>,
    /// Depth of each vertex (root = 0; `u32::MAX` for unreachable).
    pub depth: Vec<u32>,
    /// Children lists, in BFS discovery order.
    pub children: Vec<Vec<VertexId>>,
    /// Position of each vertex within `order` (`usize::MAX` if unreachable).
    pub rank: Vec<usize>,
}

impl BfsTree {
    /// Run BFS from `root`. Neighbors are visited in ascending id order so
    /// the tree is deterministic.
    pub fn build(g: &Graph, root: VertexId) -> Self {
        let n = g.num_vertices();
        let mut parent = vec![NO_VERTEX; n];
        let mut depth = vec![u32::MAX; n];
        let mut rank = vec![usize::MAX; n];
        let mut children = vec![Vec::new(); n];
        let mut order = Vec::with_capacity(n);
        let mut queue = VecDeque::new();
        depth[root as usize] = 0;
        rank[root as usize] = 0;
        order.push(root);
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            for &w in g.neighbors(v) {
                if depth[w as usize] == u32::MAX {
                    depth[w as usize] = depth[v as usize] + 1;
                    parent[w as usize] = v;
                    rank[w as usize] = order.len();
                    children[v as usize].push(w);
                    order.push(w);
                    queue.push_back(w);
                }
            }
        }
        BfsTree {
            root,
            order,
            parent,
            depth,
            children,
            rank,
        }
    }

    /// Whether edge `(u, v)` of the underlying graph is a tree edge.
    pub fn is_tree_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.parent[u as usize] == v || self.parent[v as usize] == u
    }

    /// Non-tree edges of the underlying graph (paper notation `E(q_t)`-bar),
    /// each reported once as `(earlier-in-δ, later-in-δ)`.
    pub fn non_tree_edges(&self, g: &Graph) -> Vec<(VertexId, VertexId)> {
        let mut out = Vec::new();
        for (u, v) in g.edges() {
            if !self.is_tree_edge(u, v) {
                if self.rank[u as usize] <= self.rank[v as usize] {
                    out.push((u, v));
                } else {
                    out.push((v, u));
                }
            }
        }
        out
    }

    /// All root-to-leaf paths of the tree (a leaf is a vertex with no
    /// children). Used by CFL's path-based ordering.
    pub fn root_to_leaf_paths(&self) -> Vec<Vec<VertexId>> {
        let mut paths = Vec::new();
        let mut stack = vec![(self.root, vec![self.root])];
        while let Some((v, path)) = stack.pop() {
            let kids = &self.children[v as usize];
            if kids.is_empty() {
                paths.push(path);
            } else {
                for &c in kids {
                    let mut p = path.clone();
                    p.push(c);
                    stack.push((c, p));
                }
            }
        }
        paths.sort();
        paths
    }

    /// Maximum depth of the tree.
    pub fn max_depth(&self) -> u32 {
        self.order
            .iter()
            .map(|&v| self.depth[v as usize])
            .max()
            .unwrap_or(0)
    }

    /// Vertices at the given depth, in BFS order.
    pub fn vertices_at_depth(&self, d: u32) -> Vec<VertexId> {
        self.order
            .iter()
            .copied()
            .filter(|&v| self.depth[v as usize] == d)
            .collect()
    }
}

/// All vertices within `depth` hops of any source: a multi-source
/// bounded BFS, returned as a sorted vertex list. `depth = 0` returns
/// the (deduplicated) sources themselves.
///
/// This is the halo-membership primitive of the sharded serving tier:
/// a shard that owns `sources` replicates exactly `khop_ball(g,
/// sources, k) \ sources` as ghost vertices.
pub fn khop_ball(g: &Graph, sources: &[VertexId], depth: u32) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut dist = vec![u32::MAX; n];
    let mut queue = VecDeque::new();
    for &s in sources {
        if dist[s as usize] == u32::MAX {
            dist[s as usize] = 0;
            queue.push_back(s);
        }
    }
    let mut members: Vec<VertexId> = queue.iter().copied().collect();
    while let Some(v) = queue.pop_front() {
        let d = dist[v as usize];
        if d == depth {
            continue;
        }
        for &w in g.neighbors(v) {
            if dist[w as usize] == u32::MAX {
                dist[w as usize] = d + 1;
                members.push(w);
                queue.push_back(w);
            }
        }
    }
    members.sort_unstable();
    members
}

/// Eccentricity of `v`: the maximum BFS depth over every vertex
/// reachable from `v`. `None` when some vertex of `g` is unreachable
/// from `v` (the eccentricity would be infinite).
pub fn eccentricity(g: &Graph, v: VertexId) -> Option<u32> {
    let t = BfsTree::build(g, v);
    if t.order.len() < g.num_vertices() {
        return None;
    }
    Some(t.max_depth())
}

/// Diameter of `g`: the maximum eccentricity over all vertices. `None`
/// for the empty graph and for disconnected graphs. Runs one BFS per
/// vertex — meant for query-sized graphs, where it sizes the halo depth
/// a sharded partition needs to answer the query locally.
pub fn diameter(g: &Graph) -> Option<u32> {
    if g.num_vertices() == 0 {
        return None;
    }
    (0..g.num_vertices() as VertexId)
        .map(|v| eccentricity(g, v))
        .try_fold(0, |acc, e| e.map(|e| acc.max(e)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    /// The running-example query of the paper's Figure 1(a):
    /// u0(A) - u1(B), u0 - u2(C), u1 - u2, u1 - u3(D), u2 - u3.
    fn paper_query() -> Graph {
        graph_from_edges(&[0, 1, 2, 3], &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn bfs_tree_shape() {
        let q = paper_query();
        let t = BfsTree::build(&q, 0);
        assert_eq!(t.order, vec![0, 1, 2, 3]);
        assert_eq!(t.parent[1], 0);
        assert_eq!(t.parent[2], 0);
        assert_eq!(t.parent[3], 1);
        assert_eq!(t.depth, vec![0, 1, 1, 2]);
        assert_eq!(t.rank, vec![0, 1, 2, 3]);
        assert_eq!(t.children[0], vec![1, 2]);
        assert_eq!(t.max_depth(), 2);
        assert_eq!(t.vertices_at_depth(1), vec![1, 2]);
    }

    #[test]
    fn tree_vs_non_tree_edges() {
        let q = paper_query();
        let t = BfsTree::build(&q, 0);
        assert!(t.is_tree_edge(0, 1));
        assert!(t.is_tree_edge(1, 3));
        assert!(!t.is_tree_edge(1, 2));
        let nt = t.non_tree_edges(&q);
        assert_eq!(nt, vec![(1, 2), (2, 3)]);
    }

    #[test]
    fn root_to_leaf_paths() {
        let q = paper_query();
        let t = BfsTree::build(&q, 0);
        let paths = t.root_to_leaf_paths();
        assert_eq!(paths, vec![vec![0, 1, 3], vec![0, 2]]);
    }

    #[test]
    fn khop_ball_bounded_expansion() {
        // Path 0-1-2-3-4 plus isolated 5.
        let g = graph_from_edges(&[0; 6], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(khop_ball(&g, &[0], 0), vec![0]);
        assert_eq!(khop_ball(&g, &[0], 2), vec![0, 1, 2]);
        assert_eq!(khop_ball(&g, &[0, 4], 1), vec![0, 1, 3, 4]);
        assert_eq!(khop_ball(&g, &[5], 3), vec![5]);
        // Duplicate sources dedup.
        assert_eq!(khop_ball(&g, &[2, 2], 1), vec![1, 2, 3]);
        assert!(khop_ball(&g, &[], 2).is_empty());
    }

    #[test]
    fn diameter_and_eccentricity() {
        let path = graph_from_edges(&[0; 4], &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(eccentricity(&path, 0), Some(3));
        assert_eq!(eccentricity(&path, 1), Some(2));
        assert_eq!(diameter(&path), Some(3));
        let tri = graph_from_edges(&[0; 3], &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(diameter(&tri), Some(1));
        let disconnected = graph_from_edges(&[0; 3], &[(0, 1)]);
        assert_eq!(eccentricity(&disconnected, 0), None);
        assert_eq!(diameter(&disconnected), None);
        let empty = graph_from_edges(&[], &[]);
        assert_eq!(diameter(&empty), None);
        let single = graph_from_edges(&[0], &[]);
        assert_eq!(diameter(&single), Some(0));
    }

    #[test]
    fn bfs_on_single_vertex() {
        let g = graph_from_edges(&[0], &[]);
        let t = BfsTree::build(&g, 0);
        assert_eq!(t.order, vec![0]);
        assert!(t.root_to_leaf_paths() == vec![vec![0]]);
    }
}
