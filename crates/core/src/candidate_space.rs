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
//! **Rows on demand.** The paper builds `A` in full before enumerating,
//! but a search that stops at a match cap reads few of its rows.
//! [`CandidateSpace::new`] therefore creates a shell: per pair, one slot
//! per block of [`BLOCK_ROWS`] consecutive source positions. The first
//! reader of a row builds its block: one allocation holding the block's
//! row offsets, its targets, and — with `with_bsr` — the rows' BSR
//! `bases`/`states`, handed out as borrowed [`BsrView`]s so the
//! QFilter-style engine (Figure 10) needs no per-lookup conversion. The
//! slot is a [`OnceLock`]: a published block never moves, readers that
//! race for an unbuilt block each build it and the first to publish
//! wins (no reader sleeps on another's build), and a plan keeps its
//! blocks for as long as it lives, so a cached plan builds nothing
//! twice. [`CandidateSpace::build`] (and [`CandidateSpace::build_all`])
//! builds every block up front through the same kernel, pair by pair
//! grouped by target — what DP-iso's weight array, which reads every row,
//! and CFL's tree index use.
//!
//! **Position lookup.** A neighbour `w` of a source candidate is placed in
//! `C(u')` without a `|V(G)|`-sized scatter array: every candidate of `u'`
//! carries `u'`'s label, so their ranks in the label-sorted vertex array
//! ([`sm_graph::LabelIndex::ranks`]) increase with their positions. Each
//! target keeps a bitmap over the ranks its candidates span, with a
//! popcount prefix per word: one load of `rank(w)`, a clamp into the
//! span and a bit test give membership, branch-free, and one popcount
//! per member gives its position.
//!
//! The space owns no graph. Its readers pass the data graph and the
//! candidate sets it was created over, and the row builder asserts that
//! the graph has the recorded shape `(|V(G)|, 2|E(G)|)`: a plan run
//! against another graph would otherwise build wrong rows silently.
//!
//! [`CandidateSpace::memory_bytes`] counts what exists: the shell (pair
//! table and block slots), the target bitmaps and the built blocks.

use crate::candidates::Candidates;
use sm_graph::traversal::BfsTree;
use sm_graph::{Graph, VertexId};
use sm_intersect::{BsrSet, BsrView};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Which query edges the space materializes.
#[derive(Clone, Copy, Debug)]
pub enum SpaceCoverage<'t> {
    /// Only BFS-tree edges, parent → child (CFL).
    TreeEdges(&'t BfsTree),
    /// Every query edge, from its endpoint earlier in the given matching
    /// order to the later one (CECI / DP-iso).
    OrderDirected(&'t [VertexId]),
}

/// Rows of one pair built together: a slot costs 3 bytes per row where a
/// per-row slot would cost 24, and a block is one allocation.
pub const BLOCK_ROWS: usize = 8;

/// Row offsets at the head of a block: where each row's targets start in
/// the block, and where the last one ends (a short last block repeats
/// its end). A BSR space's blocks follow them with as many offsets of the
/// rows' `bases`, then the number of `bases` words, `states` being the
/// same number of words further on.
const OFFSETS: usize = BLOCK_ROWS + 1;

/// One built block.
type Block = Box<[u32]>;

/// The row kernel's working buffers, one set per thread.
#[derive(Default)]
struct BuildBuffers {
    out: Vec<u32>,
    bases: Vec<u32>,
    states: Vec<u32>,
}

thread_local! {
    static BUILD: std::cell::RefCell<BuildBuffers> = std::cell::RefCell::default();
}

/// `C(u)` of one target vertex `u`, as a bitmap over the ranks its
/// candidates span.
struct TargetMap {
    /// Rank of `C(u)`'s first vertex.
    lo: u32,
    /// Number of ranks spanned; every rank outside is clamped to bit
    /// `span`, which is always clear.
    span: usize,
    /// Bit `r - lo` is set iff the vertex of rank `r` is in `C(u)`. One
    /// word longer than the span needs, so bit `span` exists.
    bits: Vec<u64>,
    /// Members in the words before each word: the position in `C(u)` of
    /// the word's first member.
    before: Vec<u32>,
}

impl TargetMap {
    fn new(ranks: &[u32], ct: &[VertexId]) -> Self {
        let lo = ct.first().map_or(0, |&v| ranks[v as usize]);
        let span = ct
            .last()
            .map_or(0, |&v| (ranks[v as usize] - lo) as usize + 1);
        let mut bits = vec![0u64; span / 64 + 1];
        let mut next = lo;
        for &v in ct {
            let r = ranks[v as usize];
            assert!(r >= next, "candidate set spans several label classes");
            next = r + 1;
            let i = (r - lo) as usize;
            bits[i / 64] |= 1 << (i % 64);
        }
        let mut before = Vec::with_capacity(bits.len());
        let mut members = 0u32;
        for w in &bits {
            before.push(members);
            members += w.count_ones();
        }
        TargetMap {
            lo,
            span,
            bits,
            before,
        }
    }

    /// The row of a source whose neighbours are `nbrs`: their positions in
    /// `C(u)`, ascending, written to the front of `dst` (at least
    /// `nbrs.len()` long). Returns how many.
    ///
    /// Branch-free compaction: most neighbours are not in `C(u)`,
    /// unpredictably, so every neighbour's bit is written and only
    /// members advance the end; then each member's bit becomes its
    /// position, one popcount each.
    #[inline(always)]
    fn row(&self, ranks: &[u32], nbrs: &[VertexId], dst: &mut [u32]) -> usize {
        let (lo, span, bits, before) = (self.lo, self.span, &self.bits[..], &self.before[..]);
        let mut end = 0;
        for &w in nbrs {
            let i = (ranks[w as usize].wrapping_sub(lo) as usize).min(span);
            dst[end] = i as u32;
            end += (bits[i / 64] >> (i % 64) & 1) as usize;
        }
        for x in &mut dst[..end] {
            let (word, bit) = (*x as usize / 64, *x % 64);
            *x = before[word] + (bits[word] & ((1u64 << bit) - 1)).count_ones();
        }
        end
    }

    fn memory_bytes(&self) -> usize {
        self.bits.len() * 8 + self.before.len() * 4
    }
}

/// Adjacency from `C(from)` to one target's candidate set, CSR over
/// positions, in blocks of [`BLOCK_ROWS`] source positions.
struct EdgeList {
    from: VertexId,
    /// Index of the target's map in [`CandidateSpace::maps`].
    target: usize,
    blocks: Box<[OnceLock<Block>]>,
}

/// The auxiliary structure `A`.
pub struct CandidateSpace {
    nq: usize,
    /// `lists[u * nq + u']`: the list of pair `(u, u')`, `None` where the
    /// coverage left the pair out.
    lists: Vec<Option<EdgeList>>,
    /// The covered pairs' indices into `lists`, grouped by target.
    by_target: Vec<usize>,
    /// One per distinct target.
    maps: Vec<TargetMap>,
    with_bsr: bool,
    /// `(|V(G)|, 2|E(G)|)` of the graph the space was created over.
    graph: (usize, usize),
    blocks_total: usize,
    blocks_built: AtomicUsize,
}

impl CandidateSpace {
    /// The shell of `A` for query `q` over `cand` and data graph `g`: the
    /// directed pairs selected by `coverage` and the target bitmaps, with
    /// no row built. Readers build rows on demand.
    pub fn new(
        q: &Graph,
        g: &Graph,
        cand: &Candidates,
        coverage: SpaceCoverage<'_>,
        with_bsr: bool,
    ) -> Self {
        let nq = q.num_vertices();
        // Directed pairs (source → target), grouped by target so each
        // target gets one bitmap and an eager build keeps it hot.
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

        let ranks = g.label_index().ranks();
        let mut lists: Vec<Option<EdgeList>> = (0..nq * nq).map(|_| None).collect();
        let mut by_target = Vec::with_capacity(pairs.len());
        let mut maps: Vec<TargetMap> = Vec::new();
        let mut blocks_total = 0;
        for (i, &(from, to)) in pairs.iter().enumerate() {
            if i == 0 || pairs[i - 1].1 != to {
                maps.push(TargetMap::new(ranks, cand.get(to)));
            }
            let blocks = cand.get(from).len().div_ceil(BLOCK_ROWS);
            blocks_total += blocks;
            let at = from as usize * nq + to as usize;
            by_target.push(at);
            lists[at] = Some(EdgeList {
                from,
                target: maps.len() - 1,
                blocks: (0..blocks).map(|_| OnceLock::new()).collect(),
            });
        }
        CandidateSpace {
            nq,
            lists,
            by_target,
            maps,
            with_bsr,
            graph: (g.num_vertices(), g.adjacency_len()),
            blocks_total,
            blocks_built: AtomicUsize::new(0),
        }
    }

    /// `A` with every row built: [`CandidateSpace::new`], then
    /// [`CandidateSpace::build_all`].
    pub fn build(
        q: &Graph,
        g: &Graph,
        cand: &Candidates,
        coverage: SpaceCoverage<'_>,
        with_bsr: bool,
    ) -> Self {
        let space = Self::new(q, g, cand, coverage, with_bsr);
        space.build_all(g, cand);
        space
    }

    /// Build every block no reader has built yet, pair by pair, grouped
    /// by target. `g` and `cand` are what the space was created over.
    pub fn build_all(&self, g: &Graph, cand: &Candidates) {
        for &at in &self.by_target {
            let list = self.lists[at].as_ref().expect("covered pair");
            for b in 0..list.blocks.len() {
                self.publish(g, cand, list, b);
            }
        }
    }

    /// The row kernel: block `b` of `list`, the rows of source positions
    /// `b * BLOCK_ROWS..` (up to [`BLOCK_ROWS`] of them). Rows are
    /// compacted in a per-thread buffer that keeps its capacity, so the
    /// block itself is one allocation of its exact size.
    #[inline(never)]
    fn build_block(&self, g: &Graph, cand: &Candidates, list: &EdgeList, b: usize) -> Block {
        assert_eq!(
            (g.num_vertices(), g.adjacency_len()),
            self.graph,
            "candidate space rows built over a graph other than its own"
        );
        let sources = cand.get(list.from);
        let rows = &sources[b * BLOCK_ROWS..sources.len().min((b + 1) * BLOCK_ROWS)];
        let map = &self.maps[list.target];
        let ranks = g.label_index().ranks();
        let head = self.head();
        BUILD.with_borrow_mut(|buf| {
            let BuildBuffers { out, bases, states } = buf;
            out.clear();
            out.resize(head, 0);
            out[0] = head as u32;
            for (r, &v) in rows.iter().enumerate() {
                let (start, nbrs) = (out.len(), g.neighbors(v));
                out.resize(start + nbrs.len(), 0);
                let end = start + map.row(ranks, nbrs, &mut out[start..]);
                out.truncate(end);
                out[r + 1] = end as u32;
            }
            let end = out.len() as u32;
            out[rows.len() + 1..OFFSETS].fill(end);
            if self.with_bsr {
                bases.clear();
                states.clear();
                for r in 0..BLOCK_ROWS {
                    out[OFFSETS + r] = end + bases.len() as u32;
                    let row = &out[out[r] as usize..out[r + 1] as usize];
                    BsrSet::encode_sorted(row, bases, states);
                }
                out[OFFSETS + BLOCK_ROWS] = end + bases.len() as u32;
                out[2 * OFFSETS] = bases.len() as u32;
                out.extend_from_slice(bases);
                out.extend_from_slice(states);
            }
            assert!(
                out.len() <= u32::MAX as usize,
                "candidate space exceeds u32 offset range"
            );
            Block::from(&out[..])
        })
    }

    /// Words ahead of a block's targets.
    #[inline(always)]
    fn head(&self) -> usize {
        if self.with_bsr {
            2 * OFFSETS + 1
        } else {
            OFFSETS
        }
    }

    /// Whether the directed pair `(from, to)` is materialized.
    #[inline]
    pub fn has_pair(&self, from: VertexId, to: VertexId) -> bool {
        self.lists[from as usize * self.nq + to as usize].is_some()
    }

    /// The list of the materialized pair `(from, to)`. Asking for a pair
    /// the coverage left out — in particular the later → earlier direction
    /// of a query edge — is a caller bug.
    #[inline]
    fn list(&self, from: VertexId, to: VertexId) -> &EdgeList {
        match &self.lists[from as usize * self.nq + to as usize] {
            Some(list) => list,
            None => panic!("pair ({from}→{to}) not materialized"),
        }
    }

    /// The block holding row `pos` of `(from, to)`, built now if no reader
    /// has built it yet, and the row's index in it.
    #[inline]
    fn block(
        &self,
        g: &Graph,
        cand: &Candidates,
        from: VertexId,
        pos: usize,
        to: VertexId,
    ) -> (&[u32], usize) {
        let list = self.list(from, to);
        let b = pos / BLOCK_ROWS;
        let block = match list.blocks[b].get() {
            Some(block) => block,
            None => self.publish(g, cand, list, b),
        };
        (block, pos % BLOCK_ROWS)
    }

    /// Build block `b` of `list` and publish it, unless another reader
    /// published it first: then that block is kept and this one dropped.
    /// Readers racing for one block each build it rather than wait for
    /// one another: a block takes microseconds to build, and a waiting
    /// service worker sits idle. Kept out of line: the read path only
    /// checks that the block is there.
    #[cold]
    #[inline(never)]
    fn publish<'s>(
        &'s self,
        g: &Graph,
        cand: &Candidates,
        list: &'s EdgeList,
        b: usize,
    ) -> &'s [u32] {
        let slot = &list.blocks[b];
        if slot.get().is_none() && slot.set(self.build_block(g, cand, list, b)).is_ok() {
            self.blocks_built.fetch_add(1, Ordering::Relaxed);
        }
        slot.get()
            .expect("published by this reader or a racing one")
    }

    /// Row `r` of a built block.
    #[inline(always)]
    fn row(block: &[u32], r: usize) -> &[u32] {
        let end = block[r + 1] as usize;
        &block[block[r] as usize..end]
    }

    /// `A[from→to](v)` where `v = C(from)[pos]`: sorted positions into
    /// `C(to)` of the candidates adjacent to `v`. `g` and `cand` are the
    /// data graph and candidate sets the space was created over.
    #[inline]
    pub fn neighbors(
        &self,
        g: &Graph,
        cand: &Candidates,
        from: VertexId,
        pos: usize,
        to: VertexId,
    ) -> &[u32] {
        let (block, r) = self.block(g, cand, from, pos, to);
        Self::row(block, r)
    }

    /// [`CandidateSpace::neighbors`] of a space whose rows are all built
    /// ([`CandidateSpace::build`]); panics on an unbuilt row.
    #[inline]
    pub fn built_neighbors(&self, from: VertexId, pos: usize, to: VertexId) -> &[u32] {
        let block = self.list(from, to).blocks[pos / BLOCK_ROWS]
            .get()
            .expect("row of a candidate space that was not built in full");
        Self::row(block, pos % BLOCK_ROWS)
    }

    /// BSR view of [`CandidateSpace::neighbors`]; only available when
    /// created with `with_bsr`.
    #[inline]
    pub fn bsr_neighbors(
        &self,
        g: &Graph,
        cand: &Candidates,
        from: VertexId,
        pos: usize,
        to: VertexId,
    ) -> Option<BsrView<'_>> {
        if !self.with_bsr {
            return None;
        }
        let (block, r) = self.block(g, cand, from, pos, to);
        let (start, end) = (block[OFFSETS + r] as usize, block[OFFSETS + r + 1] as usize);
        let words = block[2 * OFFSETS] as usize;
        let len = (block[r + 1] - block[r]) as usize;
        Some(BsrView::new(
            &block[start..end],
            &block[start + words..end + words],
            len,
        ))
    }

    /// Blocks built so far, by readers or [`CandidateSpace::build_all`].
    pub fn blocks_built(&self) -> usize {
        self.blocks_built.load(Ordering::Relaxed)
    }

    /// Whether every block is built, so no reader will build again — and
    /// none will look at the data graph.
    pub fn fully_built(&self) -> bool {
        self.blocks_built() == self.blocks_total
    }

    /// Memory footprint in bytes of what exists (the paper's
    /// auxiliary-structure memory metric): the pair table, the block
    /// slots, the target bitmaps and the built blocks.
    pub fn memory_bytes(&self) -> usize {
        let slot = std::mem::size_of::<OnceLock<Block>>();
        let mut bytes = self.lists.len() * std::mem::size_of::<Option<EdgeList>>();
        bytes += self.maps.iter().map(TargetMap::memory_bytes).sum::<usize>();
        for l in self.lists.iter().flatten() {
            bytes += l.blocks.len() * slot;
            bytes += l
                .blocks
                .iter()
                .filter_map(OnceLock::get)
                .map(|b| b.len() * 4)
                .sum::<usize>();
        }
        bytes
    }

    /// Number of candidate-edge entries in the built blocks (for
    /// tests/metrics).
    pub fn num_entries(&self) -> usize {
        self.lists
            .iter()
            .flatten()
            .flat_map(|l| l.blocks.iter().filter_map(OnceLock::get))
            .map(|b| (b[BLOCK_ROWS] - b[0]) as usize)
            .sum()
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
                    .neighbors(&g, &c, a, pos, b)
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
                let flat = space.neighbors(&g, &c, a, pos, b);
                let bsr = space.bsr_neighbors(&g, &c, a, pos, b).unwrap();
                let mut decoded = Vec::new();
                bsr.decode_into(&mut decoded);
                assert_eq!(decoded, flat);
                assert_eq!(bsr.len(), flat.len());
            }
        }
    }

    #[test]
    fn memory_accounting_counts_shell_maps_and_built_blocks() {
        let (q, g, c) = setup();
        let order = [0, 1, 2, 3];
        let coverage = SpaceCoverage::OrderDirected(&order);
        let shell = CandidateSpace::new(&q, &g, &c, coverage, false);
        assert_eq!((shell.blocks_built(), shell.num_entries()), (0, 0));
        let flat = CandidateSpace::build(&q, &g, &c, coverage, false);
        assert!(flat.fully_built() && flat.num_entries() > 0);
        // Every pair's sources fit one block: one head per pair on top.
        let pairs = directed_edges(&q, &order).len();
        assert!(c.get(0).len() <= BLOCK_ROWS && c.get(1).len() <= BLOCK_ROWS);
        assert_eq!(flat.blocks_built(), pairs);
        assert_eq!(
            flat.memory_bytes() - shell.memory_bytes(),
            (pairs * OFFSETS + flat.num_entries()) * 4
        );
        // With BSR: a second head per block, and at most one (base, state)
        // block per entry.
        let bsr = CandidateSpace::build(&q, &g, &c, coverage, true);
        let extra = bsr.memory_bytes() - flat.memory_bytes();
        let heads = pairs * (OFFSETS + 1) * 4;
        assert!(extra >= heads && extra <= heads + 2 * flat.num_entries() * 4);
    }

    /// Rows built on demand, in any order, are the rows of the full
    /// build, and only their blocks get built.
    #[test]
    fn rows_on_demand_equal_the_full_build() {
        let (q, g, c) = setup();
        let order = [2, 0, 3, 1];
        let coverage = SpaceCoverage::OrderDirected(&order);
        let full = CandidateSpace::build(&q, &g, &c, coverage, true);
        let lazy = CandidateSpace::new(&q, &g, &c, coverage, true);
        for (a, b) in directed_edges(&q, &order).into_iter().rev() {
            for pos in (0..c.get(a).len()).rev() {
                assert_eq!(
                    lazy.neighbors(&g, &c, a, pos, b),
                    full.built_neighbors(a, pos, b)
                );
                let decode = |space: &CandidateSpace| {
                    let view = space.bsr_neighbors(&g, &c, a, pos, b).unwrap();
                    let mut out = Vec::new();
                    view.decode_into(&mut out);
                    (out, view.len())
                };
                assert_eq!(decode(&lazy), decode(&full));
            }
        }
        assert!(lazy.fully_built());
        assert_eq!(lazy.memory_bytes(), full.memory_bytes());
    }

    #[test]
    #[should_panic(expected = "graph other than its own")]
    fn rows_are_never_built_over_another_graph() {
        let (q, g, c) = setup();
        let order = [0, 1, 2, 3];
        let space = CandidateSpace::new(&q, &g, &c, SpaceCoverage::OrderDirected(&order), false);
        // Same vertices and labels, one edge fewer.
        let mut b = sm_graph::GraphBuilder::new();
        for v in g.vertices() {
            b.add_vertex(g.label(v));
        }
        for (x, y) in g.edges().skip(1) {
            b.add_edge(x, y);
        }
        let other = b.build();
        let (a, to) = directed_edges(&q, &order)[0];
        space.neighbors(&other, &c, a, 0, to);
    }
}
