//! Reusable per-worker scratch arena for the enumeration engine.
//!
//! All per-run mutable state — the partial embedding, the visited map,
//! the local-candidate buffers and the adaptive order's extendable set —
//! lives here instead of being allocated inside each engine run. A parallel worker keeps one
//! [`Scratch`] across all the morsels it executes, so in steady state a
//! morsel performs **zero** heap allocations: [`Scratch::prepare`] sees
//! the same query/data shape, bumps the reuse counter and returns. The
//! engine upholds the invariant that `m`, `visited_by` and
//! `mapped_parents` are fully reset on exit (even on cancellation), which
//! is what makes the fast path sound.
//!
//! Algorithm 5's fold over the backward `A` lists lives here once, in two
//! forms: `Scratch::intersect_backward` materializes `LC(u, M)`, and
//! `Scratch::count_backward` — a counted suffix vertex of a count-only
//! run — only sizes it, running the count variant of the same kernel on the
//! last fold.

use crate::enumerate::intersect_counter;
use crate::plan::QueryPlan;
use sm_graph::types::NO_VERTEX;
use sm_graph::VertexId;
use sm_intersect::{intersect_buf, intersect_count, BsrSet, IntersectKind};
use sm_runtime::{Counter, CounterBlock};

/// Per-run mutable state of an enumeration engine, reusable across runs.
#[derive(Default)]
pub struct Scratch {
    /// Partial embedding `M`, indexed by query vertex (`NO_VERTEX` =
    /// unmapped).
    pub(crate) m: Vec<VertexId>,
    /// Position of `m[u]` within `C(u)` (space-backed methods).
    pub(crate) mpos: Vec<u32>,
    /// Which query vertex currently occupies each data vertex
    /// (`NO_VERTEX` = free).
    pub(crate) visited_by: Vec<VertexId>,
    /// Local-candidate buffer per depth (static order) or per query
    /// vertex (adaptive order's LC cache).
    pub(crate) lc_bufs: Vec<Vec<u32>>,
    /// Adaptive order: `Σ W[u][pos]` over the cached `lc_bufs[u]`, summed
    /// once when the cache is filled.
    pub(crate) lc_weight: Vec<f64>,
    /// Adaptive order: how many DAG parents of each query vertex are
    /// mapped.
    pub(crate) mapped_parents: Vec<u32>,
    /// Adaptive order: the extendable query vertices as a bitset
    /// (`|V(q)| ≤ 64`, the failing-set limit).
    pub(crate) extendable: u64,
    /// Intersection ping-pong buffer: live only inside one
    /// [`Scratch::intersect_backward`] call, so one serves every depth.
    tmp: Vec<u32>,
    /// BSR intersection ping-pong buffers (same lifetime as `tmp`).
    bsr: (BsrSet, BsrSet),
    /// `(|A list|, backward neighbor)` pairs being ordered smallest first.
    by_len: Vec<(usize, VertexId)>,
    /// Data edges claimed by the current partial embedding, as normalized
    /// `(lo << 32) | hi` keys — the edge-injective analogue of
    /// `visited_by`. A stack: each extension pushes its new query edges'
    /// images, each backtrack pops them. Capacity is bounded by the query
    /// edge count, so the linear membership scan stays cheap.
    pub(crate) used_edges: Vec<u64>,
    reuses: u64,
    nq: usize,
    ng: usize,
}

/// Normalized key of an undirected data edge.
#[inline]
fn edge_key(a: VertexId, b: VertexId) -> u64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    ((lo as u64) << 32) | hi as u64
}

impl Scratch {
    /// A fresh, empty scratch. The first [`Scratch::prepare`] sizes it.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// How many times [`Scratch::prepare`] found the buffers already
    /// shaped for the run and skipped all allocation — the observable
    /// "zero-allocation steady state" counter a morsel worker reports.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Size the buffers for a `(nq, ng)` run. When the shape matches the
    /// previous run the buffers are reused as-is (the engines leave `m`
    /// and `visited_by` clean on exit) and only the reuse counter moves.
    pub(crate) fn prepare(&mut self, nq: usize, ng: usize) {
        if self.nq == nq && self.ng == ng {
            debug_assert!(self.m.iter().all(|&v| v == NO_VERTEX));
            debug_assert!(self.visited_by.iter().all(|&v| v == NO_VERTEX));
            debug_assert!(self.used_edges.is_empty());
            debug_assert!(self.mapped_parents.iter().all(|&k| k == 0));
            self.reuses += 1;
            return;
        }
        self.used_edges.clear();
        self.nq = nq;
        self.ng = ng;
        self.m.clear();
        self.m.resize(nq, NO_VERTEX);
        self.mpos.clear();
        self.mpos.resize(nq, 0);
        self.visited_by.clear();
        self.visited_by.resize(ng, NO_VERTEX);
        // Keep the per-depth buffers (and their capacity) where possible.
        self.lc_bufs.iter_mut().for_each(Vec::clear);
        self.lc_bufs.resize_with(nq, Vec::new);
        self.lc_weight.clear();
        self.lc_weight.resize(nq, 0.0);
        self.mapped_parents.clear();
        self.mapped_parents.resize(nq, 0);
    }

    /// Append `LC(u, M) = ⋂ A[ub→u](M[ub])` over the backward neighbors
    /// `ub` of `u` to `buf`, as positions into `C(u)` — Algorithm 5, shared
    /// by the static order (`Intersect` method) and the adaptive order
    /// (whose DAG parents *are* the backward neighbors). The lists are
    /// folded smallest first so the work stays near the lower bound the
    /// paper's cost model gives; nothing is allocated once the scratch
    /// buffers have grown.
    pub(crate) fn intersect_backward(
        &mut self,
        plan: &QueryPlan,
        u: VertexId,
        buf: &mut Vec<u32>,
        counters: &mut CounterBlock,
    ) {
        self.fold_backward::<false>(plan, u, buf, counters);
    }

    /// `|LC(u, M)|` by the same fold, without materializing the result:
    /// one backward neighbor is its `A` list's length, and the last fold
    /// of several is counted by the count variant of the plan's kernel
    /// (BSR blocks are ANDed and `count_ones()`-ed, never decoded). `buf`
    /// is workspace for the folds before the last; its contents are
    /// unspecified afterwards. Bumps exactly the counters
    /// [`Scratch::intersect_backward`] would.
    pub(crate) fn count_backward(
        &mut self,
        plan: &QueryPlan,
        u: VertexId,
        buf: &mut Vec<u32>,
        counters: &mut CounterBlock,
    ) -> usize {
        self.fold_backward::<true>(plan, u, buf, counters)
    }

    /// The body of [`Scratch::intersect_backward`] (`COUNT = false`: the
    /// result is appended to `buf`) and [`Scratch::count_backward`]
    /// (`COUNT = true`: the last fold is only counted). Returns `|LC|`.
    #[inline(always)]
    fn fold_backward<const COUNT: bool>(
        &mut self,
        plan: &QueryPlan,
        u: VertexId,
        buf: &mut Vec<u32>,
        counters: &mut CounterBlock,
    ) -> usize {
        let space = plan.space.as_ref().expect("Intersect needs a space");
        let mpos = &self.mpos;
        let list = |ub: VertexId| space.neighbors(ub, mpos[ub as usize] as usize, u);
        match *plan.backward(u) {
            [] => {
                let n = plan.candidates.get(u).len();
                if !COUNT {
                    buf.extend(0..n as u32);
                }
                n
            }
            // One backward neighbor: LC is its A list as-is (DP-iso's cache).
            [ub] => {
                counters.bump(Counter::LcCacheHits);
                let a = list(ub);
                if !COUNT {
                    buf.extend_from_slice(a);
                }
                a.len()
            }
            ref bw => {
                self.by_len.clear();
                self.by_len
                    .extend(bw.iter().map(|&ub| (list(ub).len(), ub)));
                self.by_len.sort_by_key(|&(len, _)| len);
                let (first, second) = (self.by_len[0].1, self.by_len[1].1);
                let rest = &self.by_len[2..];
                let kind = plan.config.intersect;
                let ctr = intersect_counter(kind);
                if kind == IntersectKind::Bsr {
                    let set = |ub: VertexId| {
                        space
                            .bsr_neighbors(ub, mpos[ub as usize] as usize, u)
                            .expect("space built without BSR encodings")
                    };
                    counters.bump(ctr);
                    if COUNT && rest.is_empty() {
                        return set(first).intersect_count(set(second));
                    }
                    let (a, b) = (&mut self.bsr.0, &mut self.bsr.1);
                    set(first).intersect_into(set(second), a);
                    for (i, &(_, ub)) in rest.iter().enumerate() {
                        if a.is_empty() {
                            break;
                        }
                        counters.bump(ctr);
                        if COUNT && i + 1 == rest.len() {
                            return a.view().intersect_count(set(ub));
                        }
                        a.view().intersect_into(set(ub), b);
                        std::mem::swap(a, b);
                    }
                    if !COUNT {
                        a.view().decode_into(buf);
                    }
                    a.len()
                } else {
                    counters.bump(ctr);
                    if COUNT && rest.is_empty() {
                        return intersect_count(kind, list(first), list(second));
                    }
                    let tmp = &mut self.tmp;
                    intersect_buf(kind, list(first), list(second), buf);
                    for (i, &(_, ub)) in rest.iter().enumerate() {
                        if buf.is_empty() {
                            break;
                        }
                        counters.bump(ctr);
                        if COUNT && i + 1 == rest.len() {
                            return intersect_count(kind, buf, list(ub));
                        }
                        tmp.clear();
                        intersect_buf(kind, buf, list(ub), tmp);
                        std::mem::swap(buf, tmp);
                    }
                    buf.len()
                }
            }
        }
    }

    /// Edge-injective claim for the extension `u → v`: the new query
    /// edges are exactly `{(ub, u) : ub ∈ backward(u)}`, whose images
    /// `(m[ub], v)` must be distinct from every claimed data edge *and*
    /// from each other. Pushes all of them and returns `true`, or pushes
    /// nothing and returns `false`. The membership scan covers the
    /// just-pushed entries too, which is what catches two new query
    /// edges mapping onto one data edge.
    #[inline]
    pub(crate) fn claim_edges(&mut self, backward: &[VertexId], v: VertexId) -> bool {
        let base = self.used_edges.len();
        for &ub in backward {
            let e = edge_key(self.m[ub as usize], v);
            if self.used_edges.contains(&e) {
                self.used_edges.truncate(base);
                return false;
            }
            self.used_edges.push(e);
        }
        true
    }

    /// Pop the `n` edges a successful [`Scratch::claim_edges`] pushed.
    #[inline]
    pub(crate) fn release_edges(&mut self, n: usize) {
        let len = self.used_edges.len();
        debug_assert!(len >= n);
        self.used_edges.truncate(len - n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_shape_reuses_without_reallocating() {
        let mut sc = Scratch::new();
        sc.prepare(4, 100);
        assert_eq!(sc.reuses(), 0);
        let ids = (sc.m.as_ptr() as usize, sc.visited_by.as_ptr() as usize);
        sc.prepare(4, 100);
        sc.prepare(4, 100);
        assert_eq!(sc.reuses(), 2);
        assert_eq!(
            ids,
            (sc.m.as_ptr() as usize, sc.visited_by.as_ptr() as usize),
            "reuse must not reallocate"
        );
    }

    #[test]
    fn shape_change_resizes() {
        let mut sc = Scratch::new();
        sc.prepare(4, 100);
        sc.prepare(6, 50);
        assert_eq!(sc.m.len(), 6);
        assert_eq!(sc.visited_by.len(), 50);
        assert_eq!(sc.lc_bufs.len(), 6);
        assert!(sc.m.iter().all(|&v| v == NO_VERTEX));
        assert!(sc.visited_by.iter().all(|&v| v == NO_VERTEX));
    }
}
