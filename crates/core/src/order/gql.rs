//! GraphQL's left-deep-join ordering (He & Singh, SIGMOD 2008): start at
//! the query vertex with the fewest candidates, then repeatedly pick the
//! frontier vertex (`N(φ) − φ`) with the fewest candidates.

use crate::order::OrderInput;
use sm_graph::VertexId;

/// Compute GraphQL's matching order.
pub fn gql_order(input: &OrderInput<'_>) -> Vec<VertexId> {
    let q = input.q.graph;
    let n = q.num_vertices();
    let c = input.candidates;
    let start = (0..n as VertexId)
        .min_by_key(|&u| (c.get(u).len(), u))
        .expect("non-empty query");
    let mut order = vec![start];
    let mut in_order = vec![false; n];
    in_order[start as usize] = true;
    while order.len() < n {
        let next = order
            .iter()
            .flat_map(|&u| q.neighbors(u).iter().copied())
            .filter(|&u2| !in_order[u2 as usize])
            .min_by_key(|&u2| (c.get(u2).len(), u2))
            .expect("query is connected");
        in_order[next as usize] = true;
        order.push(next);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_data, paper_query};
    use crate::order::{is_connected_order, OrderInput};
    use crate::{DataContext, QueryContext};

    #[test]
    fn starts_with_smallest_candidate_set() {
        let q = paper_query();
        let g = paper_data();
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let cand = crate::filter::gql::gql_candidates(&qc, &gc, Default::default(), 0);
        let input = OrderInput {
            q: &qc,
            g: &gc,
            candidates: &cand,
            bfs_tree: None,
            space: None,
        };
        let order = gql_order(&input);
        assert!(is_connected_order(&q, &order));
        let min_size = q.vertices().map(|u| cand.get(u).len()).min().unwrap();
        assert_eq!(cand.get(order[0]).len(), min_size);
    }

    #[test]
    fn greedy_frontier_choice() {
        // Path query A-B-C with candidate sizes forced: start at smallest.
        let q = sm_graph::builder::graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let cand = crate::Candidates::new(vec![vec![0, 1, 2], vec![0], vec![0, 1]]);
        let g = paper_data();
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let input = OrderInput {
            q: &qc,
            g: &gc,
            candidates: &cand,
            bfs_tree: None,
            space: None,
        };
        // start = u1 (1 candidate), then frontier {u0 (3), u2 (2)} → u2.
        assert_eq!(gql_order(&input), vec![1, 2, 0]);
    }
}
