//! The auxiliary data structure `A` (paper notation): edges between
//! candidate sets.
//!
//! For a directed query-vertex pair `(u, u')` with `e(u, u') ∈ E(q)` and a
//! candidate `v ∈ C(u)`, `A[u→u'](v) = N(v) ∩ C(u')` — stored as sorted
//! *positions into* `C(u')` so the enumeration engines can chain lookups
//! without binary-searching data vertex ids back to candidate slots.
//!
//! Each covered query edge is materialized in **one** direction, from the
//! endpoint the plan matches first to the one it matches later, because
//! that is the only direction any reader looks in: the static order
//! intersects `A[ub→u]` over the *backward* neighbors `ub` of `u`, the
//! adaptive order fills `LC(c)` from `c`'s DAG parents, and DP-iso's
//! weight array sums over a vertex's DAG children. The matching order is
//! known before `A` is built, so the reverse lists — half of a
//! both-directions structure — would be built and never read. Coverage
//! reproduces the structural difference the paper measures in Figure 9:
//!
//! * [`SpaceCoverage::TreeEdges`] — CFL's compressed path index keeps only
//!   the BFS-tree edges (parent → child).
//! * [`SpaceCoverage::OrderDirected`] — CECI's compact embedding cluster
//!   index and DP-iso's candidate space keep every query edge (earlier →
//!   later under the matching order `φ`, or the BFS order `δ` on adaptive
//!   plans), enabling the set-intersection local-candidate computation
//!   (Algorithm 5).
//!
//! When built with `with_bsr`, each pair additionally carries the BSR
//! encoding of its slices in one flat `bases`/`states` arena, handed out
//! as borrowed [`BsrView`]s, so the QFilter-style engine (Figure 10)
//! avoids per-lookup conversion and the build avoids two heap allocations
//! per source candidate.

use crate::candidates::Candidates;
use sm_graph::traversal::BfsTree;
use sm_graph::{Graph, VertexId};
use sm_intersect::{BsrSet, BsrView};

/// Which query edges the space materializes.
#[derive(Clone, Copy, Debug)]
pub enum SpaceCoverage<'t> {
    /// Only BFS-tree edges, parent → child (CFL).
    TreeEdges(&'t BfsTree),
    /// Every query edge, from its endpoint earlier in the given matching
    /// order to the later one (CECI / DP-iso).
    OrderDirected(&'t [VertexId]),
}

/// Adjacency between two candidate sets, CSR over positions.
struct EdgeList {
    offsets: Vec<u32>,
    /// Positions into `C(target)`, sorted ascending per source candidate.
    targets: Vec<u32>,
    /// Optional BSR encoding of each slice.
    bsr: Option<BsrArena>,
}

/// BSR blocks of every slice of one [`EdgeList`], back to back.
#[derive(Default)]
struct BsrArena {
    /// `offsets[s]..offsets[s + 1]` delimits source candidate `s`'s blocks.
    offsets: Vec<u32>,
    bases: Vec<u32>,
    states: Vec<u32>,
}

/// The auxiliary structure `A`.
pub struct CandidateSpace {
    nq: usize,
    /// `pair_slot[u * nq + u'] = index into lists`, `u32::MAX` if absent.
    pair_slot: Vec<u32>,
    lists: Vec<EdgeList>,
}

const NO_SLOT: u32 = u32::MAX;

impl CandidateSpace {
    /// Build `A` for query `q` over `cand`, materializing the directed
    /// pairs selected by `coverage`.
    pub fn build(
        q: &Graph,
        g: &Graph,
        cand: &Candidates,
        coverage: SpaceCoverage<'_>,
        with_bsr: bool,
    ) -> Self {
        let nq = q.num_vertices();
        // Collect directed pairs (source → target) grouped by target so the
        // position scatter array is filled once per target vertex.
        let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
        match coverage {
            SpaceCoverage::TreeEdges(tree) => {
                for &u in &tree.order {
                    let p = tree.parent[u as usize];
                    if p != sm_graph::types::NO_VERTEX {
                        pairs.push((p, u));
                    }
                }
            }
            SpaceCoverage::OrderDirected(order) => {
                let mut rank = vec![0usize; nq];
                for (i, &u) in order.iter().enumerate() {
                    rank[u as usize] = i;
                }
                for (a, b) in q.edges() {
                    pairs.push(if rank[a as usize] < rank[b as usize] {
                        (a, b)
                    } else {
                        (b, a)
                    });
                }
            }
        }
        pairs.sort_unstable_by_key(|&(_, t)| t);

        let mut pair_slot = vec![NO_SLOT; nq * nq];
        let mut lists = Vec::with_capacity(pairs.len());
        // Scatter: data vertex -> position+1 in C(target).
        let mut pos_of: Vec<u32> = vec![0; g.num_vertices()];
        let mut i = 0usize;
        while i < pairs.len() {
            let target = pairs[i].1;
            let ct = cand.get(target);
            for (p, &v) in ct.iter().enumerate() {
                pos_of[v as usize] = p as u32 + 1;
            }
            while i < pairs.len() && pairs[i].1 == target {
                let source = pairs[i].0;
                let cs = cand.get(source);
                let mut offsets = Vec::with_capacity(cs.len() + 1);
                let mut targets = Vec::new();
                let mut bsr = with_bsr.then(|| BsrArena {
                    offsets: vec![0],
                    ..Default::default()
                });
                offsets.push(0u32);
                for &v in cs {
                    // Branch-free compaction: most neighbors are not in
                    // C(target), unpredictably, so write every slot and
                    // advance only past hits.
                    let (start, nbrs) = (targets.len(), g.neighbors(v));
                    targets.resize(start + nbrs.len(), 0);
                    let mut end = start;
                    for &w in nbrs {
                        let p = pos_of[w as usize];
                        targets[end] = p.wrapping_sub(1);
                        end += usize::from(p != 0);
                    }
                    targets.truncate(end);
                    assert!(
                        targets.len() <= u32::MAX as usize,
                        "candidate space exceeds u32 offset range"
                    );
                    offsets.push(targets.len() as u32);
                    if let Some(arena) = &mut bsr {
                        BsrSet::encode_sorted(
                            &targets[start..],
                            &mut arena.bases,
                            &mut arena.states,
                        );
                        arena.offsets.push(arena.bases.len() as u32);
                    }
                }
                // Cached plans keep these for as long as they live: drop
                // the compaction's scratch tail and the growth slack.
                targets.shrink_to_fit();
                pair_slot[source as usize * nq + target as usize] = lists.len() as u32;
                lists.push(EdgeList {
                    offsets,
                    targets,
                    bsr,
                });
                i += 1;
            }
            for &v in ct {
                pos_of[v as usize] = 0;
            }
        }
        CandidateSpace {
            nq,
            pair_slot,
            lists,
        }
    }

    /// Whether the directed pair `(from, to)` is materialized.
    #[inline]
    pub fn has_pair(&self, from: VertexId, to: VertexId) -> bool {
        self.pair_slot[from as usize * self.nq + to as usize] != NO_SLOT
    }

    /// The list of the materialized pair `(from, to)`. Asking for a pair
    /// the coverage left out — in particular the later → earlier direction
    /// of a query edge — is a caller bug.
    #[inline]
    fn list(&self, from: VertexId, to: VertexId) -> &EdgeList {
        let slot = self.pair_slot[from as usize * self.nq + to as usize];
        debug_assert_ne!(slot, NO_SLOT, "pair ({from}→{to}) not materialized");
        &self.lists[slot as usize]
    }

    /// `A[from→to](v)` where `v = C(from)[pos]`: sorted positions into
    /// `C(to)` of the candidates adjacent to `v`.
    #[inline]
    pub fn neighbors(&self, from: VertexId, pos: usize, to: VertexId) -> &[u32] {
        let list = self.list(from, to);
        &list.targets[list.offsets[pos] as usize..list.offsets[pos + 1] as usize]
    }

    /// BSR view of [`CandidateSpace::neighbors`]; only available when built
    /// with `with_bsr`.
    #[inline]
    pub fn bsr_neighbors(&self, from: VertexId, pos: usize, to: VertexId) -> Option<BsrView<'_>> {
        let list = self.list(from, to);
        list.bsr.as_ref().map(|b| {
            let blocks = b.offsets[pos] as usize..b.offsets[pos + 1] as usize;
            let len = (list.offsets[pos + 1] - list.offsets[pos]) as usize;
            BsrView::new(&b.bases[blocks.clone()], &b.states[blocks], len)
        })
    }

    /// Total memory footprint in bytes (the paper's auxiliary-structure
    /// memory metric).
    pub fn memory_bytes(&self) -> usize {
        let mut words = self.pair_slot.len();
        for l in &self.lists {
            words += l.offsets.len() + l.targets.len();
            if let Some(b) = &l.bsr {
                words += b.offsets.len() + b.bases.len() + b.states.len();
            }
        }
        words * 4
    }

    /// Total number of candidate-edge entries (for tests/metrics).
    pub fn num_entries(&self) -> usize {
        self.lists.iter().map(|l| l.targets.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_data, paper_query};
    use crate::{DataContext, QueryContext};
    use sm_graph::traversal::BfsTree;

    fn setup() -> (sm_graph::Graph, sm_graph::Graph, Candidates) {
        let q = paper_query();
        let g = paper_data();
        let (c, _) = {
            let qc = QueryContext::new(&q);
            let gc = DataContext::new(&g);
            crate::filter::cfl::cfl_candidates(&qc, &gc)
        };
        (q, g, c)
    }

    /// The paper query's edges directed earlier → later under `order`.
    fn directed_edges(q: &Graph, order: &[VertexId]) -> Vec<(VertexId, VertexId)> {
        let rank = |u: VertexId| order.iter().position(|&x| x == u).unwrap();
        q.edges()
            .map(|(a, b)| if rank(a) < rank(b) { (a, b) } else { (b, a) })
            .collect()
    }

    #[test]
    fn order_directed_coverage_has_only_earlier_to_later() {
        let (q, g, c) = setup();
        for order in [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]] {
            let space =
                CandidateSpace::build(&q, &g, &c, SpaceCoverage::OrderDirected(&order), false);
            for (a, b) in directed_edges(&q, &order) {
                assert!(space.has_pair(a, b), "{order:?}: ({a}→{b})");
                assert!(!space.has_pair(b, a), "{order:?}: ({b}→{a})");
            }
        }
    }

    #[test]
    fn tree_coverage_has_only_parent_to_child() {
        let (q, g, c) = setup();
        let tree = BfsTree::build(&q, 0);
        let space = CandidateSpace::build(&q, &g, &c, SpaceCoverage::TreeEdges(&tree), false);
        for &u in &tree.order {
            let p = tree.parent[u as usize];
            if p != sm_graph::types::NO_VERTEX {
                assert!(space.has_pair(p, u));
                assert!(!space.has_pair(u, p));
            }
        }
    }

    #[test]
    fn neighbor_lists_match_graph_adjacency() {
        let (q, g, c) = setup();
        let order = [2, 0, 3, 1];
        let space = CandidateSpace::build(&q, &g, &c, SpaceCoverage::OrderDirected(&order), false);
        for (a, b) in directed_edges(&q, &order) {
            for (pos, &v) in c.get(a).iter().enumerate() {
                let via_space: Vec<u32> = space
                    .neighbors(a, pos, b)
                    .iter()
                    .map(|&p| c.get(b)[p as usize])
                    .collect();
                let direct: Vec<u32> = c
                    .get(b)
                    .iter()
                    .copied()
                    .filter(|&w| g.has_edge(v, w))
                    .collect();
                assert_eq!(via_space, direct, "pair ({a}→{b}) candidate {v}");
            }
        }
    }

    #[test]
    fn bsr_views_agree_with_flat() {
        let (q, g, c) = setup();
        let order = [0, 1, 2, 3];
        let space = CandidateSpace::build(&q, &g, &c, SpaceCoverage::OrderDirected(&order), true);
        for (a, b) in directed_edges(&q, &order) {
            for pos in 0..c.get(a).len() {
                let flat = space.neighbors(a, pos, b);
                let bsr = space.bsr_neighbors(a, pos, b).unwrap();
                let mut decoded = Vec::new();
                bsr.decode_into(&mut decoded);
                assert_eq!(decoded, flat);
                assert_eq!(bsr.len(), flat.len());
            }
        }
    }

    #[test]
    fn memory_accounting_counts_lists_and_bsr_arena() {
        let (q, g, c) = setup();
        let coverage = SpaceCoverage::OrderDirected(&[0, 1, 2, 3]);
        let flat = CandidateSpace::build(&q, &g, &c, coverage, false);
        assert!(flat.num_entries() > 0);
        let lists: usize = directed_edges(&q, &[0, 1, 2, 3])
            .iter()
            .map(|&(a, _)| c.get(a).len() + 1)
            .sum();
        assert_eq!(
            flat.memory_bytes(),
            (4 * 4 + lists + flat.num_entries()) * 4
        );
        // With BSR: one block offset per list slot, and at most one
        // (base, state) block per entry.
        let extra =
            CandidateSpace::build(&q, &g, &c, coverage, true).memory_bytes() - flat.memory_bytes();
        assert!(extra > lists * 4 && extra <= (lists + 2 * flat.num_entries()) * 4);
    }
}
