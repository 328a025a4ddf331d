//! Reusable per-worker scratch arena for the enumeration engine.
//!
//! All per-run mutable state — the partial embedding, the visited map,
//! the local-candidate buffers and the adaptive order's extendable set —
//! lives here instead of being allocated inside each engine run. A parallel worker keeps one
//! [`Scratch`] across all the morsels it executes, so in steady state a
//! morsel performs **zero** heap allocations: `Scratch::prepare` sees
//! the same query/data shape and returns at once, and the run counts one
//! `scratch_reuses`. The
//! engine upholds the invariant that `m`, `visited_by` and
//! `mapped_parents` are fully reset on exit (even on cancellation), which
//! is what makes the fast path sound.
//!
//! Algorithm 5's fold over the backward `A` lists lives here once.
//! `Scratch::local_candidates` serves the static order: it fills a depth's
//! `LC(u, M)` slot, or — for a counted suffix vertex of a count-only run —
//! only sizes it. `Scratch::intersect_backward` serves the adaptive
//! order, which computes each `LC` once, when its vertex becomes
//! extendable, and caches it until the vertex is unmapped.
//!
//! The static order reaches a depth far more often than that depth's
//! inputs change: `LC(u, M)` depends only on the positions `mpos[ub]` of
//! `u`'s backward neighbours, and the levels mapped between the deepest of
//! them and `u` move without touching it. So for a vertex with at least
//! two backward neighbours each depth keeps an `LcMemo`, keyed by those
//! positions. An `A` list is a function of `(ub, mpos[ub], u)` alone, so
//! an equal key means an equal `LC`. The memo also holds the intersection
//! `I_R` of all backward lists but the deepest one's (`ud`'s), keyed by
//! their positions, so a new deepest mapping costs one kernel step
//! against `I_R`. BSR plans hold `I_R` as a dense bitmap ([`BsrBitmap`]),
//! which that step probes one word per block of the deepest list instead
//! of merging bases. While `I_R` is held, `ud` returns to positions it
//! had whenever a level between `R`'s deepest member and `ud` moves, so
//! the memo also keeps a table of the `LC`s computed under it, by `ud`'s
//! position, with the lists in an arena: each is computed once per held
//! `I_R`. Every `I_R` rebuild starts a new generation of the table. The
//! rules are exact by construction and need no other invalidation within
//! a run; `Scratch::prepare` drops every key, because a scratch serves
//! different plans in turn, and so forces that rebuild. This is the
//! loop-invariant hoisting of set intersections that pattern-mining
//! compilers apply (AutoMine, SOSP 2019), done inside the one recursion.

use crate::candidate_space::CandidateSpace;
use crate::enumerate::intersect_counter;
use crate::plan::QueryPlan;
use sm_graph::types::NO_VERTEX;
use sm_graph::{Graph, VertexId};
use sm_intersect::{intersect_buf, intersect_count, BsrBitmap, BsrSet, BsrView, IntersectKind};
use sm_runtime::{Counter, CounterBlock};

/// One static-order depth's memo of `LC(u, M)`, for a vertex `u` with at
/// least two backward neighbours. `plan.backward(u)` is sorted by match
/// time, so its last entry `ud` is the deepest and the others form `R`.
#[derive(Default)]
struct LcMemo {
    /// `mpos[ub]` over `backward(u)` at the last computation; empty when
    /// nothing is held.
    key: Vec<u32>,
    /// `|LC|` at `key`.
    len: usize,
    /// Whether the depth's `lc_bufs` slot holds `LC` at `key`; a
    /// count-only computation leaves only `len`.
    materialized: bool,
    /// `I_R = ⋂_{ub ∈ R} A[ub→u]` at the positions `key[..|R|]` as sorted
    /// positions, when a flat kernel has `|R| ≥ 2` (with one member, `I_R`
    /// is that member's `A` list).
    rest: Vec<u32>,
    /// `I_R` at `key[..|R|]` as a bitmap over `C(u)` positions, on BSR
    /// plans.
    bitmap: BsrBitmap,
    /// Per position `p` of `C(ud)`, `LC` at `mpos[ud] = p` under the held
    /// `I_R`, valid while stamped with `generation`. Grown to `|C(ud)|` on
    /// first write.
    table: Vec<Held>,
    /// The materialized `LC`s the table points into. Within one
    /// generation a position's `LC` is stored at most once and is a subset
    /// of `A[ud→u](p)`, so the arena never holds more than the
    /// candidate-space edges between `ud` and `u`.
    arena: Vec<u32>,
    /// Stamp of the held `I_R`, moved by every rebuild so that no entry
    /// written under an earlier one matches; never 0, the stamp of a
    /// fresh entry, once a table is read.
    generation: u32,
}

/// One [`LcMemo`] table entry: `LC` at one position of `ud`.
#[derive(Clone, Copy, Default)]
struct Held {
    generation: u32,
    /// Offset of `LC` in the arena, or [`COUNTED`].
    start: u32,
    len: u32,
}

/// [`Held::start`] of an entry written by a count: only `|LC|` is known,
/// so it cannot serve a lookup that must materialize `LC`.
const COUNTED: u32 = u32::MAX;

impl LcMemo {
    /// Start a generation for a rebuilt `I_R`: every entry goes stale and
    /// the arena empties. On wrap-around the table is dropped instead,
    /// since a stamp is about to be reused.
    fn new_generation(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.table.clear();
            self.generation = 1;
        }
        self.arena.clear();
    }

    /// The table's entry for position `at` of `ud` in this generation, if
    /// it can serve the lookup (a materializing one needs a list).
    #[inline]
    fn lookup<const COUNT: bool>(&self, at: u32) -> Option<Held> {
        self.table
            .get(at as usize)
            .filter(|h| h.generation == self.generation && (COUNT || h.start != COUNTED))
            .copied()
    }

    /// Record `LC` at position `at` of `ud`: its length, and unless `COUNT`
    /// the list itself, copied into the arena. `positions` is `|C(ud)|`.
    fn hold<const COUNT: bool>(&mut self, at: u32, lc: &[u32], len: usize, positions: usize) {
        if self.table.len() < positions {
            self.table.resize(positions, Held::default());
        }
        let start = if COUNT {
            COUNTED
        } else {
            let start = self.arena.len() as u32;
            self.arena.extend_from_slice(lc);
            start
        };
        self.table[at as usize] = Held {
            generation: self.generation,
            start,
            len: len as u32,
        };
    }
}

/// The candidate space whose `A` lists Algorithm 5 intersects.
#[inline(always)]
fn space(plan: &QueryPlan) -> &CandidateSpace {
    plan.space.as_ref().expect("Intersect needs a space")
}

/// `A[ub→u](M[ub])`, the list Algorithm 5 intersects, built on its first
/// read (`g` is the data graph the plan runs against).
#[inline(always)]
fn a_list<'p>(
    plan: &'p QueryPlan,
    g: &Graph,
    mpos: &[u32],
    ub: VertexId,
    u: VertexId,
) -> &'p [u32] {
    space(plan).neighbors(g, &plan.candidates, ub, mpos[ub as usize] as usize, u)
}

/// `A[ub→u](M[ub])` in its BSR encoding.
#[inline(always)]
fn a_set<'p>(
    plan: &'p QueryPlan,
    g: &Graph,
    mpos: &[u32],
    ub: VertexId,
    u: VertexId,
) -> BsrView<'p> {
    space(plan)
        .bsr_neighbors(g, &plan.candidates, ub, mpos[ub as usize] as usize, u)
        .expect("space built without BSR encodings")
}

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
    /// Static order: the `LC` memo per depth.
    memo: Vec<LcMemo>,
    /// Adaptive order: `Σ W[u][pos]` over the cached `lc_bufs[u]`, summed
    /// once when the cache is filled.
    pub(crate) lc_weight: Vec<f64>,
    /// Adaptive order: how many DAG parents of each query vertex are
    /// mapped.
    pub(crate) mapped_parents: Vec<u32>,
    /// Adaptive order: the extendable query vertices as a bitset
    /// (`|V(q)| ≤ 64`, the failing-set limit).
    pub(crate) extendable: u64,
    /// Intersection ping-pong buffer: live only inside one fold, so one
    /// serves every depth.
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
    /// A fresh, empty scratch. The first `Scratch::prepare` sizes it.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Size the buffers for a `(nq, ng)` run. When the shape matches the
    /// previous run the buffers are reused as-is (the engines leave `m`
    /// and `visited_by` clean on exit) and this returns `true` — the
    /// "zero-allocation steady state" a run reports as `scratch_reuses`.
    /// Either way the `LC` memo is dropped: its keys are candidate
    /// positions, which mean nothing under another plan, and plans of
    /// equal shape share a scratch in turn. A dropped key makes the next
    /// arrival rebuild `I_R`, which starts a new table generation, so no
    /// entry of the previous plan's table is read either.
    pub(crate) fn prepare(&mut self, nq: usize, ng: usize) -> bool {
        self.memo.iter_mut().for_each(|memo| memo.key.clear());
        if self.nq == nq && self.ng == ng {
            debug_assert!(self.m.iter().all(|&v| v == NO_VERTEX));
            debug_assert!(self.visited_by.iter().all(|&v| v == NO_VERTEX));
            debug_assert!(self.used_edges.is_empty());
            debug_assert!(self.mapped_parents.iter().all(|&k| k == 0));
            return true;
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
        self.memo.resize_with(nq, LcMemo::default);
        self.lc_weight.clear();
        self.lc_weight.resize(nq, 0.0);
        self.mapped_parents.clear();
        self.mapped_parents.resize(nq, 0);
        false
    }

    /// Append `LC(u, M) = ⋂ A[ub→u](M[ub])` over the backward neighbors
    /// `ub` of `u` to `buf`, as positions into `C(u)` — Algorithm 5 for
    /// the adaptive order, whose DAG parents *are* the backward neighbors.
    /// It computes each `LC` once, when `u` becomes extendable, and caches
    /// it until `u` is unmapped, so this fold keeps no memo.
    pub(crate) fn intersect_backward(
        &mut self,
        plan: &QueryPlan,
        g: &Graph,
        u: VertexId,
        buf: &mut Vec<u32>,
        counters: &mut CounterBlock,
    ) {
        match *plan.backward(u) {
            [] | [_] => {
                self.few_backward::<false>(plan, g, u, buf, counters);
            }
            ref bw => {
                self.fold(plan, g, u, bw, buf, counters);
                if plan.config.intersect == IntersectKind::Bsr {
                    self.bsr.0.view().decode_into(buf);
                }
            }
        }
    }

    /// Fill the static order's `lc_bufs[depth]` with `LC(u, M)` for
    /// `u = φ[depth]` (`depth > 0`), or — with `COUNT`, for a counted
    /// suffix vertex — only size it, leaving the slot's contents
    /// unspecified. Returns `|LC|`. A vertex with at least two backward
    /// neighbours goes through the depth's memo (`Scratch::memoized`):
    /// the held `LC` when no backward position moved, else the table's
    /// entry for the deepest neighbour's position under the held `I_R`,
    /// else one kernel step. The others take their one list or all of
    /// `C(u)` as they stand.
    pub(crate) fn local_candidates<const COUNT: bool>(
        &mut self,
        plan: &QueryPlan,
        g: &Graph,
        depth: usize,
        u: VertexId,
        counters: &mut CounterBlock,
    ) -> usize {
        match *plan.backward(u) {
            [] | [_] => {
                let mut buf = std::mem::take(&mut self.lc_bufs[depth]);
                buf.clear();
                let n = self.few_backward::<COUNT>(plan, g, u, &mut buf, counters);
                self.lc_bufs[depth] = buf;
                n
            }
            ref bw => self.memoized::<COUNT>(plan, g, depth, u, bw, counters),
        }
    }

    /// `LC(u, M)` of a vertex with at most one backward neighbor, appended
    /// to `buf` unless `COUNT`: its one `A` list as-is (DP-iso's cache), or
    /// all of `C(u)`. Returns `|LC|`.
    #[inline(always)]
    fn few_backward<const COUNT: bool>(
        &self,
        plan: &QueryPlan,
        g: &Graph,
        u: VertexId,
        buf: &mut Vec<u32>,
        counters: &mut CounterBlock,
    ) -> usize {
        if let [ub] = *plan.backward(u) {
            let a = self.single_list(plan, g, ub, u, counters);
            if !COUNT {
                buf.extend_from_slice(a);
            }
            return a.len();
        }
        let n = plan.candidates.get(u).len();
        if !COUNT {
            buf.extend(0..n as u32);
        }
        n
    }

    /// The one backward list `A[ub→u](M[ub])` of a vertex `u` whose only
    /// backward neighbour is `ub`, borrowed from the plan: its `LC` as it
    /// stands, with no intersection, so `LcCacheHits` is bumped as for
    /// DP-iso's cache.
    #[inline(always)]
    pub(crate) fn single_list<'p>(
        &self,
        plan: &'p QueryPlan,
        g: &Graph,
        ub: VertexId,
        u: VertexId,
        counters: &mut CounterBlock,
    ) -> &'p [u32] {
        counters.bump(Counter::LcCacheHits);
        a_list(plan, g, &self.mpos, ub, u)
    }

    /// `⋂ A[ub→u](M[ub])` over `lists` (at least two), folded smallest
    /// first so the work stays near the lower bound the paper's cost model
    /// gives, and cut short by an empty partial result. BSR plans leave the
    /// result in `self.bsr.0`; flat kernels append it to the empty `out`.
    /// Nothing is allocated once the scratch buffers have grown.
    fn fold(
        &mut self,
        plan: &QueryPlan,
        g: &Graph,
        u: VertexId,
        lists: &[VertexId],
        out: &mut Vec<u32>,
        counters: &mut CounterBlock,
    ) {
        let mpos = &self.mpos;
        self.by_len.clear();
        self.by_len.extend(
            lists
                .iter()
                .map(|&ub| (a_list(plan, g, mpos, ub, u).len(), ub)),
        );
        self.by_len.sort_by_key(|&(len, _)| len);
        let (first, second) = (self.by_len[0].1, self.by_len[1].1);
        let rest = &self.by_len[2..];
        let kind = plan.config.intersect;
        let ctr = intersect_counter(kind);
        counters.bump(ctr);
        if kind == IntersectKind::Bsr {
            let set = |ub: VertexId| a_set(plan, g, mpos, ub, u);
            let (a, b) = (&mut self.bsr.0, &mut self.bsr.1);
            set(first).intersect_into(set(second), a);
            for &(_, ub) in rest {
                if a.is_empty() {
                    break;
                }
                counters.bump(ctr);
                a.view().intersect_into(set(ub), b);
                std::mem::swap(a, b);
            }
        } else {
            let list = |ub: VertexId| a_list(plan, g, mpos, ub, u);
            let tmp = &mut self.tmp;
            intersect_buf(kind, list(first), list(second), out);
            for &(_, ub) in rest {
                if out.is_empty() {
                    break;
                }
                counters.bump(ctr);
                tmp.clear();
                intersect_buf(kind, out, list(ub), tmp);
                std::mem::swap(out, tmp);
            }
        }
    }

    /// `LC(u, M)` at `depth` through the depth's [`LcMemo`], for `u` with
    /// backward neighbours `bw = R ∪ {ud}` (at least two, `ud` the
    /// deepest). By which positions moved since the memo was written:
    /// - none: the held `LC` — or, for a count, its size — is reused, no
    ///   kernel runs, and `LcCacheHits` is bumped, as for DP-iso's cache;
    /// - only `ud`'s: where the table holds `LC` at the new position under
    ///   the same `I_R`, that is a hit too (the list is copied out of the
    ///   arena unless this is a count); otherwise one kernel step meets
    ///   the held `I_R` with `A[ud→u](M[ud])` — a block-by-word probe of
    ///   the bitmap on BSR plans, the plan's own kernel against the sorted
    ///   list otherwise (so Fig. 10's flat kernels stay three algorithms)
    ///   — and the table records the result;
    /// - one of `R`'s: `I_R` is rebuilt first, by the smallest-first fold,
    ///   and a new generation empties the table. A BSR rebuild unsets only
    ///   the previous `I_R`'s words.
    ///
    /// An empty `I_R` empties `LC` without a kernel call (and its table
    /// entries then hit with an empty `LC`).
    fn memoized<const COUNT: bool>(
        &mut self,
        plan: &QueryPlan,
        g: &Graph,
        depth: usize,
        u: VertexId,
        bw: &[VertexId],
        counters: &mut CounterBlock,
    ) -> usize {
        let (rest, ud) = (&bw[..bw.len() - 1], bw[bw.len() - 1]);
        let memo = &self.memo[depth];
        let mpos = &self.mpos;
        let at = mpos[ud as usize];
        let same_rest = memo.key.len() == bw.len()
            && rest
                .iter()
                .zip(&memo.key)
                .all(|(&ub, &p)| mpos[ub as usize] == p);
        if same_rest && memo.key[rest.len()] == at && (COUNT || memo.materialized) {
            counters.bump(Counter::LcCacheHits);
            return memo.len;
        }
        let kind = plan.config.intersect;
        if !same_rest {
            if rest.len() > 1 {
                let mut held = std::mem::take(&mut self.memo[depth].rest);
                held.clear();
                self.fold(plan, g, u, rest, &mut held, counters);
                self.memo[depth].rest = held;
            }
            if kind == IntersectKind::Bsr {
                let held = match *rest {
                    [ub] => a_set(plan, g, &self.mpos, ub, u),
                    _ => self.bsr.0.view(),
                };
                self.memo[depth].bitmap.assign(held);
            }
            self.memo[depth].new_generation();
        }
        let memo = &mut self.memo[depth];
        let mpos = &self.mpos;
        let buf = &mut self.lc_bufs[depth];
        if !COUNT {
            buf.clear();
        }
        let n = if let Some(h) = memo.lookup::<COUNT>(at) {
            counters.bump(Counter::LcCacheHits);
            if !COUNT {
                buf.extend_from_slice(&memo.arena[h.start as usize..][..h.len as usize]);
            }
            h.len as usize
        } else {
            let held = match *rest {
                [ub] => a_list(plan, g, mpos, ub, u),
                _ => &memo.rest,
            };
            let n = if kind == IntersectKind::Bsr {
                if memo.bitmap.is_empty() {
                    0
                } else {
                    counters.bump(intersect_counter(kind));
                    let deep = a_set(plan, g, mpos, ud, u);
                    if COUNT {
                        memo.bitmap.intersect_count(deep)
                    } else {
                        memo.bitmap.intersect_decode_into(deep, buf);
                        buf.len()
                    }
                }
            } else if held.is_empty() {
                0
            } else {
                counters.bump(intersect_counter(kind));
                let deep = a_list(plan, g, mpos, ud, u);
                if COUNT {
                    intersect_count(kind, held, deep)
                } else {
                    intersect_buf(kind, held, deep, buf);
                    buf.len()
                }
            };
            memo.hold::<COUNT>(at, buf, n, plan.candidates.get(ud).len());
            n
        };
        if same_rest {
            memo.key[rest.len()] = at;
        } else {
            memo.key.clear();
            memo.key.extend(bw.iter().map(|&ub| mpos[ub as usize]));
        }
        memo.len = n;
        memo.materialized = !COUNT;
        n
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
    use crate::candidate_space::SpaceCoverage;
    use crate::enumerate::{LcMethod, MatchConfig};
    use crate::{DataContext, QueryContext};
    use sm_graph::builder::graph_from_edges;

    /// A count writes a table entry that knows only `|LC|`; a later
    /// lookup that must materialize `LC` at that position computes it.
    /// The 4-cycle `u0 u1 u2 u3` in id order: `u3`'s memo keeps a table
    /// over `u2`'s positions under `I_R = A[u0→u3]`. In the data `v0` is
    /// the one `u0`, `v3` and `v4` the two `u2`, with `LC(u3)` `{v5}` and
    /// `{v6}`.
    #[test]
    fn a_counted_entry_never_serves_a_materializing_lookup() {
        let q = graph_from_edges(&[0, 1, 2, 3], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let g = graph_from_edges(
            &[0, 1, 1, 2, 2, 3, 3],
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (1, 4),
                (2, 4),
                (0, 5),
                (0, 6),
                (3, 5),
                (4, 6),
            ],
        );
        let order = vec![0, 1, 2, 3];
        for kind in [IntersectKind::Hybrid, IntersectKind::Bsr] {
            let cand =
                crate::filter::ldf::ldf_candidates(&QueryContext::new(&q), &DataContext::new(&g));
            let bsr = kind == IntersectKind::Bsr;
            let space =
                CandidateSpace::build(&q, &g, &cand, SpaceCoverage::OrderDirected(&order), bsr);
            let config = MatchConfig {
                intersect: kind,
                ..MatchConfig::default()
            };
            let plan = QueryPlan::assemble(
                &q,
                cand,
                order.clone(),
                None,
                Some(space),
                LcMethod::Intersect,
                config,
                false,
            );
            let mut sc = Scratch::new();
            sc.prepare(4, 7);
            let mut counters = CounterBlock::default();
            let mut lc = |sc: &mut Scratch, u2: u32, count: bool| {
                sc.mpos[2] = u2;
                if count {
                    sc.local_candidates::<true>(&plan, &g, 3, 3, &mut counters)
                } else {
                    sc.local_candidates::<false>(&plan, &g, 3, 3, &mut counters)
                }
            };
            // Counts at both positions, then a list at the first: computed.
            assert_eq!(lc(&mut sc, 0, true), 1);
            assert_eq!(lc(&mut sc, 1, true), 1);
            assert_eq!(lc(&mut sc, 0, false), 1);
            assert_eq!(sc.lc_bufs[3], [0], "{kind:?}");
            // The list now held serves a list and a count.
            assert_eq!(lc(&mut sc, 1, false), 1);
            assert_eq!(sc.lc_bufs[3], [1], "{kind:?}");
            assert_eq!(lc(&mut sc, 0, false), 1);
            assert_eq!(sc.lc_bufs[3], [0], "{kind:?}");
            assert_eq!(lc(&mut sc, 1, true), 1);
            assert_eq!(counters.intersections(), 4, "{kind:?}");
            assert_eq!(counters.get(Counter::LcCacheHits), 2, "{kind:?}");
        }
    }

    #[test]
    fn same_shape_reuses_without_reallocating() {
        let mut sc = Scratch::new();
        assert!(!sc.prepare(4, 100));
        let ids = (sc.m.as_ptr() as usize, sc.visited_by.as_ptr() as usize);
        assert!(sc.prepare(4, 100));
        assert!(sc.prepare(4, 100));
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
