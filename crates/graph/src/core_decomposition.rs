//! k-core decomposition (the paper only needs the 2-core).
//!
//! CFL's ordering places *core vertices* — members of the 2-core of the
//! query — at the front of the matching order, and several orderings treat
//! degree-one vertices (the complement of the 2-core in trees-with-whiskers)
//! specially.

use crate::graph::Graph;
use crate::types::VertexId;

/// Core number of every vertex (the largest `k` such that the vertex
/// belongs to the k-core), computed by the standard peeling algorithm in
/// `O(|E|)` with bucket queues.
pub fn core_numbers(g: &Graph) -> Vec<u32> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut degree: Vec<usize> = (0..n as VertexId).map(|v| g.degree(v)).collect();
    let max_deg = *degree.iter().max().unwrap();
    // bucket sort vertices by degree
    let mut bin = vec![0usize; max_deg + 2];
    for &d in &degree {
        bin[d] += 1;
    }
    let mut start = 0usize;
    for b in bin.iter_mut().take(max_deg + 1) {
        let c = *b;
        *b = start;
        start += c;
    }
    bin[max_deg + 1] = start;
    let mut pos = vec![0usize; n];
    let mut vert = vec![0 as VertexId; n];
    {
        let mut cursor = bin.clone();
        for v in 0..n {
            let d = degree[v];
            pos[v] = cursor[d];
            vert[cursor[d]] = v as VertexId;
            cursor[d] += 1;
        }
    }
    let mut core = vec![0u32; n];
    for i in 0..n {
        let v = vert[i];
        core[v as usize] = degree[v as usize] as u32;
        for &w in g.neighbors(v) {
            let w = w as usize;
            if degree[w] > degree[v as usize] {
                // move w one bucket down
                let dw = degree[w];
                let pw = pos[w];
                let pfirst = bin[dw];
                let vfirst = vert[pfirst];
                if v as usize != vfirst as usize {
                    vert.swap(pw, pfirst);
                    pos[w] = pfirst;
                    pos[vfirst as usize] = pw;
                }
                bin[dw] += 1;
                degree[w] -= 1;
            }
        }
    }
    core
}

/// Membership mask for the 2-core.
pub fn two_core_mask(g: &Graph) -> Vec<bool> {
    core_numbers(g).iter().map(|&c| c >= 2).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn tree_has_empty_two_core() {
        let g = graph_from_edges(&[0; 4], &[(0, 1), (1, 2), (1, 3)]);
        assert!(two_core_mask(&g).iter().all(|&m| !m));
        assert_eq!(core_numbers(&g), vec![1, 1, 1, 1]);
    }

    #[test]
    fn triangle_with_whisker() {
        // triangle 0-1-2 plus pendant 3 on 2
        let g = graph_from_edges(&[0; 4], &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let mask = two_core_mask(&g);
        assert_eq!(mask, vec![true, true, true, false]);
    }

    #[test]
    fn clique_core_numbers() {
        let g = graph_from_edges(&[0; 4], &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(core_numbers(&g), vec![3, 3, 3, 3]);
    }

    #[test]
    fn cycle_is_its_own_two_core() {
        let g = graph_from_edges(&[0; 5], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert!(two_core_mask(&g).iter().all(|&m| m));
    }

    #[test]
    fn empty_and_isolated() {
        let g = graph_from_edges(&[], &[]);
        assert!(core_numbers(&g).is_empty());
        let g = graph_from_edges(&[0, 0], &[]);
        assert_eq!(core_numbers(&g), vec![0, 0]);
    }

    #[test]
    fn two_triangles_joined_by_path_all_in_two_core() {
        // 0-1-2 triangle, 5-6-7 triangle, path 2-3-4-5: every vertex has
        // degree >= 2 so nothing peels — the whole graph is its 2-core.
        let g = graph_from_edges(
            &[0; 8],
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (5, 7),
            ],
        );
        let core = core_numbers(&g);
        assert!(core.iter().all(|&c| c == 2));
    }

    #[test]
    fn pendant_path_peels_off() {
        // triangle 0-1-2 with pendant path 2-3-4
        let g = graph_from_edges(&[0; 5], &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
        let core = core_numbers(&g);
        assert_eq!(core, vec![2, 2, 2, 1, 1]);
    }
}
