//! The backtracking engine: paper Algorithm 1, lines 4–12, written once.
//!
//! Every algorithm the study compares is this one candidate loop with two
//! pluggable steps. *Which vertex comes next* is a [`NextVertex`] strategy:
//! [`StaticOrder`] follows the precompiled order `φ` and computes
//! `LC(u, M)` on arrival by one of the four methods of Algorithms 2–5
//! (Algorithm 5 through the scratch's per-depth memo, which runs a kernel
//! only when a backward neighbour of `u` has moved since the depth was
//! last reached, and then only once per position of the deepest one
//! under the held intersection of the others);
//! [`super::adaptive::AdaptiveOrder`] is DP-iso's runtime
//! selection over cached local candidates. *Failing-set pruning* (Section
//! 5.4) is a compile-time switch on the same loop. The four
//! instantiations are picked once per run from the plan; nothing branches
//! on them per node.
//!
//! The engine is a pure *executor*: every order-derived table (backward
//! neighbors, pivot parents, VF2++ requirements, adaptive weights) comes
//! precompiled in the [`QueryPlan`], and all per-run mutable state lives in
//! a caller-owned [`Scratch`] so repeated runs (morsels of a parallel
//! execution) allocate nothing in steady state.
//!
//! A count-only run does not walk the plan's independent suffix
//! `φ[s..n]` ([`QueryPlan::suffix_start`]: no query edge inside it, so
//! every `LC` there is fixed by the prefix): `Engine::count_suffix`
//! multiplies the suffix vertices' free local-candidate counts and adds
//! the product with one [`RunControl::record_matches`] reservation.
//! Only images of query vertices labelled like `u` can collide with
//! `LC(u, M)`, so the plan's same-label mask decides in O(1) whether a
//! collision test is needed; when it is not, an `Intersect` plan counts
//! `LC` without materializing it (`Scratch::local_candidates` with
//! `COUNT`). When it is, a vertex with one backward neighbour is tested
//! against its `A` list in place (`Scratch::single_list`) unless it is
//! half of a same-label pair, whose two `LC`s are merged from their slots.
//! Edge-injective and materializing runs keep the per-level loop.

use crate::enumerate::adaptive::AdaptiveOrder;
use crate::enumerate::control::{RunControl, SharedControl};
use crate::enumerate::failing_sets::{bit, conflict_class, emptyset_class, prunes_siblings, FULL};
use crate::enumerate::scratch::Scratch;
use crate::enumerate::{EnumStats, Injectivity, LcMethod, MatchSink};
use crate::plan::QueryPlan;
use sm_graph::types::NO_VERTEX;
use sm_graph::{Graph, VertexId};
use sm_runtime::Counter;
use std::ops::Range;
use std::time::Instant;

/// One execution of a compiled plan against a data graph.
pub struct EngineInput<'a> {
    /// The compiled plan (order, parents, backward lists, candidates,
    /// space, config — everything run-invariant).
    pub plan: &'a QueryPlan,
    /// Data graph.
    pub g: &'a Graph,
    /// The slice of the first level this run enumerates, as a position
    /// range into `C(root)` — at depth 0 every strategy and method tries
    /// all of `C(root)`, so any partition of `0..|C(root)|` partitions the
    /// search. [`crate::enumerate::parallel`] and the query service deal
    /// such ranges to their workers; the full range is the whole run.
    pub root: Range<u32>,
    /// Cross-thread stop flag and global match counter for parallel runs.
    pub shared: Option<&'a SharedControl>,
}

impl<'a> EngineInput<'a> {
    /// The whole run of `plan` over `g` under the plan's own budget.
    pub fn new(plan: &'a QueryPlan, g: &'a Graph) -> Self {
        EngineInput {
            plan,
            g,
            root: 0..plan.candidates.get(plan.root()).len() as u32,
            shared: None,
        }
    }
}

/// Run the enumeration with a fresh scratch arena, streaming matches into
/// `sink`. One-shot callers use this; repeated callers (workers) keep a
/// [`Scratch`] and use [`enumerate_with`].
pub fn enumerate<S: MatchSink>(input: &EngineInput<'_>, sink: &mut S) -> EnumStats {
    let mut scratch = Scratch::new();
    enumerate_with(input, &mut scratch, sink)
}

/// Run the enumeration reusing `scratch` for all per-run mutable state.
/// When the scratch already has this run's shape (same query/data sizes,
/// as across morsels of one parallel run) no allocation happens.
pub fn enumerate_with<S: MatchSink>(
    input: &EngineInput<'_>,
    scratch: &mut Scratch,
    sink: &mut S,
) -> EnumStats {
    let started = Instant::now();
    let plan = input.plan;
    scratch.prepare(plan.num_query_vertices(), input.g.num_vertices());
    let sem = plan.config.semantics;
    let mut eng = Engine {
        plan,
        g: input.g,
        root: input.root.clone(),
        sc: scratch,
        ctl: RunControl::new(&plan.config, input.shared, started, TIME_CHECK_MASK),
        sink,
        inj: sem.injectivity,
        emit: sem.emits(),
        suffix: if !sem.emits() && sem.injectivity != Injectivity::EdgeInjective {
            plan.suffix_start()
        } else {
            usize::MAX
        },
        positions: plan.adaptive || plan.method.needs_space(),
    };
    match (plan.adaptive, plan.config.failing_sets) {
        (false, false) => eng.run::<StaticOrder, false>(),
        (false, true) => eng.run::<StaticOrder, true>(),
        (true, false) => eng.run::<AdaptiveOrder, false>(),
        (true, true) => eng.run::<AdaptiveOrder, true>(),
    }
    let ctl = eng.ctl;
    let mut stats = ctl.into_stats(started);
    stats.scratch_reuse = scratch.reuses();
    stats
}

/// Cancellation is polled every this many recursions.
const TIME_CHECK_MASK: u64 = 0x3FF;

/// Algorithm 1's "next vertex" step (line 5) and the bookkeeping it needs
/// around each mapping. Implementors are zero-sized: the loop is
/// monomorphized over them, so a strategy's empty hooks cost nothing.
pub(super) trait NextVertex {
    /// Make the run's `root` range reachable by the first `select`.
    fn begin<S>(eng: &mut Engine<'_, S>);
    /// The vertex to extend at `depth`, with the `lc_bufs` slot that holds
    /// its `LC(u, M)` (filled by the time this returns).
    fn select<S>(eng: &mut Engine<'_, S>, depth: usize) -> (VertexId, usize);
    /// `u` was just mapped (`m[u]`, `mpos[u]` are set).
    fn map<S>(eng: &mut Engine<'_, S>, u: VertexId);
    /// `u`'s mapping is about to be undone; exact inverse of `map`.
    fn unmap<S>(eng: &mut Engine<'_, S>, u: VertexId);
    /// The vertex at `depth` of a counted suffix, with `|LC(u, M)|` and
    /// the mapped query vertices whose images lie in `LC` — what `select`
    /// would yield, without materializing `LC` where the method allows:
    /// where no collision is possible, and where `LC` is one backward
    /// neighbour's `A` list, which is then probed in place. Any other
    /// vertex that may collide, and every member of a same-label pair, is
    /// materialized in its `select` slot.
    fn select_last<S>(eng: &mut Engine<'_, S>, depth: usize) -> (VertexId, usize, u64);
}

/// The static strategy: `u = φ[depth]`, `LC` computed on arrival into the
/// depth's buffer by the plan's [`LcMethod`].
struct StaticOrder;

impl NextVertex for StaticOrder {
    fn begin<S>(_: &mut Engine<'_, S>) {}

    #[inline]
    fn select<S>(eng: &mut Engine<'_, S>, depth: usize) -> (VertexId, usize) {
        let u = eng.plan.order()[depth];
        eng.compute_lc(depth, u);
        (u, depth)
    }

    #[inline]
    fn map<S>(_: &mut Engine<'_, S>, _: VertexId) {}

    #[inline]
    fn unmap<S>(_: &mut Engine<'_, S>, _: VertexId) {}

    #[inline]
    fn select_last<S>(eng: &mut Engine<'_, S>, depth: usize) -> (VertexId, usize, u64) {
        let u = eng.plan.order()[depth];
        let plan = eng.plan;
        if plan.method == LcMethod::Intersect && depth > 0 {
            if eng.collision_mask(u) == 0 {
                let len =
                    eng.sc
                        .local_candidates::<true>(plan, eng.g, depth, u, &mut eng.ctl.counters);
                return (u, len, 0);
            }
            // A same-label pair's partner merges this vertex's slot
            // (`Engine::common`); any other vertex with one backward
            // neighbour probes its `A` list where it lies.
            if let [ub] = *plan.backward(u) {
                if plan.suffix_pairs() & bit(u) == 0 {
                    let a = eng
                        .sc
                        .single_list(plan, eng.g, ub, u, &mut eng.ctl.counters);
                    return (u, a.len(), eng.taken(u, a));
                }
            }
        }
        eng.compute_lc(depth, u);
        let lc = &eng.sc.lc_bufs[depth];
        (u, lc.len(), eng.taken(u, lc))
    }
}

pub(super) struct Engine<'a, S> {
    pub(super) plan: &'a QueryPlan,
    pub(super) g: &'a Graph,
    pub(super) root: Range<u32>,
    pub(super) sc: &'a mut Scratch,
    pub(super) ctl: RunControl<'a>,
    sink: &'a mut S,
    /// The plan's injectivity mode, copied out of the config once.
    inj: Injectivity,
    /// Whether matches are materialized into the sink (`false` for
    /// count-only runs: the tally rides [`RunControl`]'s accumulators, no
    /// embedding buffer is touched).
    emit: bool,
    /// The depth whose node counts the rest of the search in one step
    /// ([`Engine::count_suffix`]): the plan's suffix start for count-only
    /// runs under isomorphism or homomorphism, `usize::MAX` (never)
    /// otherwise.
    suffix: usize,
    /// Whether LC entries are *positions* into `C(u)` (TreeIndex,
    /// Intersect and the adaptive cache) or *data vertex ids*.
    positions: bool,
}

impl<S> Engine<'_, S> {
    /// Fill `lc_bufs[depth]` for query vertex `u`. Entries are *positions*
    /// into `C(u)` for TreeIndex/Intersect, *data vertex ids* otherwise.
    fn compute_lc(&mut self, depth: usize, u: VertexId) {
        // Copy the plan reference out so its slices borrow for 'a, not for
        // the duration of the &mut self borrow.
        let plan = self.plan;
        if plan.method == LcMethod::Intersect && depth > 0 {
            // Algorithm 5 fills the slot itself: it may already hold LC.
            self.sc
                .local_candidates::<false>(plan, self.g, depth, u, &mut self.ctl.counters);
            return;
        }
        let mut buf = std::mem::take(&mut self.sc.lc_bufs[depth]);
        buf.clear();
        let c_u = plan.candidates.get(u);
        let bw = plan.backward(u);
        if depth == 0 {
            // Nothing is mapped yet, so every method's LC is all of
            // C(root); this run owns the `root` slice of it.
            if self.positions {
                buf.extend(self.root.clone());
            } else {
                buf.extend_from_slice(&c_u[self.root.start as usize..self.root.end as usize]);
            }
            self.sc.lc_bufs[depth] = buf;
            return;
        }
        match plan.method {
            LcMethod::Direct => {
                let parent = plan.parents()[u as usize];
                if parent == NO_VERTEX {
                    buf.extend_from_slice(c_u);
                } else {
                    let g = self.g;
                    let q = plan.query();
                    // Homomorphisms may fold u's neighbours onto one image,
                    // so only the label bounds v there (as in the filter).
                    let du = if self.inj == Injectivity::Homomorphism {
                        0
                    } else {
                        q.degree(u)
                    };
                    let lu = q.label(u);
                    let vp = self.sc.m[parent as usize];
                    // A shard's anchor set is narrower than label and
                    // degree: only there does Direct read C(u).
                    let owned = (plan.anchor == Some(u)).then_some(c_u);
                    'cand: for &v in g.neighbors(vp) {
                        if g.label(v) != lu || g.degree(v) < du {
                            continue;
                        }
                        if owned.is_some_and(|c| c.binary_search(&v).is_err()) {
                            continue;
                        }
                        for &ub in bw {
                            if ub != parent && !g.has_edge(v, self.sc.m[ub as usize]) {
                                continue 'cand;
                            }
                        }
                        if plan.config.vf2pp_rule && !self.vf2pp_pass(u, v) {
                            continue;
                        }
                        buf.push(v);
                    }
                }
            }
            LcMethod::CandidateScan => {
                let g = self.g;
                'scan: for &v in c_u {
                    for &ub in bw {
                        if !g.has_edge(v, self.sc.m[ub as usize]) {
                            continue 'scan;
                        }
                    }
                    buf.push(v);
                }
            }
            LcMethod::TreeIndex => {
                let parent = plan.parents()[u as usize];
                if parent == NO_VERTEX {
                    buf.extend(0..c_u.len() as u32);
                } else {
                    let space = plan.space.as_ref().expect("TreeIndex needs space");
                    let g = self.g;
                    let pos = self.sc.mpos[parent as usize] as usize;
                    let list = space.neighbors(g, &plan.candidates, parent, pos, u);
                    // Served from the prebuilt tree-edge list: no
                    // intersection, no scan of C(u).
                    self.ctl.counters.bump(Counter::LcCacheHits);
                    'tree: for &pos in list {
                        let v = c_u[pos as usize];
                        for &ub in bw {
                            if ub != parent && !g.has_edge(v, self.sc.m[ub as usize]) {
                                continue 'tree;
                            }
                        }
                        buf.push(pos);
                    }
                }
            }
            LcMethod::Intersect => unreachable!("filled by Scratch::local_candidates above"),
        }
        self.sc.lc_bufs[depth] = buf;
    }

    /// VF2++'s runtime rule: for every label `l` among u's *forward*
    /// neighbors, `v` must still have enough unmatched neighbors labeled
    /// `l`.
    fn vf2pp_pass(&self, u: VertexId, v: VertexId) -> bool {
        let req = self.plan.vf2pp_req(u);
        if req.is_empty() {
            return true;
        }
        let g = self.g;
        for &(l, need) in req {
            let mut have = 0u32;
            for &w in g.neighbors(v) {
                if g.label(w) == l && self.sc.visited_by[w as usize] == NO_VERTEX {
                    have += 1;
                    if have >= need {
                        break;
                    }
                }
            }
            if have < need {
                return false;
            }
        }
        true
    }

    /// Resolve an LC entry to `(data vertex, position)` per the buffer
    /// convention. Position is meaningful only for position entries.
    #[inline(always)]
    fn resolve(&self, u: VertexId, entry: u32) -> (VertexId, u32) {
        if self.positions {
            (self.plan.candidates.get(u)[entry as usize], entry)
        } else {
            (entry, 0)
        }
    }

    /// The query vertices whose images may collide with a member of
    /// `LC(u, M)` in a counted suffix: under isomorphism the other
    /// vertices labelled like `u` (only their images can lie in `C(u)`);
    /// none otherwise.
    #[inline(always)]
    fn collision_mask(&self, u: VertexId) -> u64 {
        match self.inj {
            Injectivity::Isomorphism => self.plan.same_label(u),
            _ => 0,
        }
    }

    /// The mapped query vertices whose images lie in the materialized
    /// `lc` of `u`, probed by membership: every `LC` is sorted by the
    /// data vertex its entries resolve to, so each candidate collision is
    /// one binary search of `lc`.
    pub(super) fn taken(&self, u: VertexId, lc: &[u32]) -> u64 {
        let mut taken = 0;
        let mut rest = self.collision_mask(u);
        while rest != 0 {
            let w = rest.trailing_zeros();
            rest &= rest - 1;
            let x = self.sc.m[w as usize];
            if x != NO_VERTEX
                && lc
                    .binary_search_by(|&e| self.resolve(u, e).0.cmp(&x))
                    .is_ok()
            {
                taken |= bit(w);
            }
        }
        taken
    }

    /// `|LC_a ∩ LC_b|` over the data vertices the two sorted lists
    /// resolve to, by one merge.
    fn common(&self, a: VertexId, la: &[u32], b: VertexId, lb: &[u32]) -> u64 {
        let (mut i, mut j, mut common) = (0, 0, 0);
        while i < la.len() && j < lb.len() {
            let (x, y) = (self.resolve(a, la[i]).0, self.resolve(b, lb[j]).0);
            i += usize::from(x <= y);
            j += usize::from(y <= x);
            common += u64::from(x == y);
        }
        common
    }
}

// The per-candidate helpers below are `inline(always)`: with four
// instantiations of the loop calling them, LLVM no longer inlines them on
// its own, and as calls they cost `match-enum` 5–10 % (measured).
impl<S: MatchSink> Engine<'_, S> {
    fn run<N: NextVertex, const FS: bool>(&mut self) {
        N::begin(self);
        self.recurse::<N, FS>(0);
    }

    #[inline(always)]
    fn emit_match(&mut self) {
        if self.ctl.record_match() && self.emit {
            self.sink.on_match(&self.sc.m);
        }
    }

    /// Injectivity check + bookkeeping for extending the embedding with
    /// `u → v`. Returns `false` (claiming nothing) when the extension is
    /// inadmissible under the plan's mode. Must be called before
    /// `m[u]` is written; every `true` return must be paired with a
    /// [`Engine::release`]. Under either strategy the mapped neighbors of
    /// `u` are exactly `plan.backward(u)` at claim time (an adaptive
    /// vertex is only extendable once all its DAG parents are mapped).
    #[inline(always)]
    fn claim(&mut self, u: VertexId, v: VertexId) -> bool {
        let plan = self.plan;
        match self.inj {
            Injectivity::Isomorphism => {
                if self.sc.visited_by[v as usize] != NO_VERTEX {
                    return false;
                }
                self.sc.visited_by[v as usize] = u;
                true
            }
            Injectivity::Homomorphism => true,
            Injectivity::EdgeInjective => self.sc.claim_edges(plan.backward(u), v),
        }
    }

    /// Undo the bookkeeping of a successful [`Engine::claim`].
    #[inline(always)]
    fn release(&mut self, u: VertexId, v: VertexId) {
        let plan = self.plan;
        match self.inj {
            Injectivity::Isomorphism => self.sc.visited_by[v as usize] = NO_VERTEX,
            Injectivity::Homomorphism => {}
            Injectivity::EdgeInjective => self.sc.release_edges(plan.backward(u).len()),
        }
    }

    /// One search-tree node: pick `u`, try every local candidate. With
    /// `FS` the return value is the failing set of this subtree as a
    /// bitset over query vertices ([`FULL`] = contains a match / cannot
    /// prune); without it every failing-set line below is compiled out
    /// and the return value is unused.
    fn recurse<N: NextVertex, const FS: bool>(&mut self, depth: usize) -> u64 {
        self.ctl.tick();
        if self.ctl.is_stopped() {
            return FULL;
        }
        if depth == self.suffix {
            return self.count_suffix::<N, FS>(depth);
        }
        let n = self.plan.num_query_vertices();
        let (u, slot) = N::select(self, depth);
        let buf = std::mem::take(&mut self.sc.lc_bufs[slot]);
        let mut acc: u64 = 0;
        let mut early: Option<u64> = None;
        // Whether any sibling's subtree contained a match: the node's
        // failing set must then be FULL even if a later sibling licenses
        // skipping the rest (skipping is sound — the skipped subtrees hold
        // no matches — but ancestors must not prune on this node's account).
        let mut found_below = false;
        for &entry in &buf {
            let (v, pos) = self.resolve(u, entry);
            let child_fs = if self.claim(u, v) {
                self.sc.m[u as usize] = v;
                self.sc.mpos[u as usize] = pos;
                N::map(self, u);
                self.ctl
                    .counters
                    .record_max(Counter::PeakDepth, depth as u64 + 1);
                let fs = if depth + 1 == n {
                    self.emit_match();
                    FULL
                } else {
                    self.recurse::<N, FS>(depth + 1)
                };
                N::unmap(self, u);
                self.release(u, v);
                self.ctl.counters.bump(Counter::Backtracks);
                fs
            } else if FS {
                // Failing sets are isomorphism-only (asserted at plan
                // assembly), so a refused claim is a visited-map conflict.
                conflict_class(u, self.sc.visited_by[v as usize])
            } else {
                continue;
            };
            if self.ctl.is_stopped() {
                acc = FULL;
                break;
            }
            if FS {
                found_below |= child_fs == FULL;
                if prunes_siblings(child_fs, u) {
                    // The failure does not involve u: every sibling
                    // assignment of u fails identically — prune the rest
                    // of LC.
                    early = Some(child_fs);
                    break;
                }
                acc |= child_fs;
            }
        }
        self.sc.m[u as usize] = NO_VERTEX;
        self.sc.lc_bufs[slot] = buf;
        if !FS {
            return 0;
        }
        if let Some(fs) = early {
            return if found_below { FULL } else { fs };
        }
        // Empty-set rule when LC was empty (`acc` is still 0): `u` plus the
        // vertices whose mappings determined LC(u, M). Otherwise the union
        // rule: the node's failing set must also contain those — or an
        // ancestor could remap one of them, change LC, and wrongly prune
        // candidates this node never explored. (DP-iso achieves the same
        // with ancestor closures; OR-ing the determiners in at every level
        // accumulates them transitively.)
        acc | emptyset_class(u, self.plan.backward(u))
    }

    /// The independent suffix `S = φ[depth..n]` of a count-only run
    /// ([`QueryPlan::suffix_start`]; the last vertex alone under the
    /// adaptive order): instead of walking `S` level by level, add the
    /// embeddings this node completes in one
    /// [`RunControl::record_matches`] reservation. No query edge lies
    /// inside `S`, so every `LC_i` is fixed by the prefix and only
    /// injectivity ties the suffix vertices together. With
    /// `f_i = |LC_i| − |taken_i|` (`taken_i`: the prefix vertices whose
    /// images lie in `LC_i`), the completions number the product of `f_i`
    /// over the vertices whose label is unique in `S`, times
    /// `f_a·f_b − (|LC_a ∩ LC_b| − |taken_a ∩ taken_b|)` per same-label
    /// pair `(a, b)` (no label occurs more than twice in `S`): the
    /// assignments giving both the same free data vertex drop out. The
    /// product saturates and `record_matches` clamps it to the cap's
    /// room, so the count stays exact; `Backtracks += claims` and
    /// `PeakDepth = n`, as the loop's completed leaves would move them.
    ///
    /// The failing set is [`FULL`] when the count is positive, and
    /// otherwise exactly the per-level loop's, which fails at the first
    /// zero in depth order:
    /// - `f_i = 0`: every member of `LC_i` is a prefix image, so the node
    ///   of `u_i` refuses each by conflict and returns
    ///   `taken_i | emptyset_class(u_i, backward(u_i))`. That set names no
    ///   earlier suffix vertex — none is a backward neighbour of `u_i`
    ///   (no edge inside `S`) or owns a member of `LC_i` — so each earlier
    ///   suffix node, which has a claimable candidate leading there,
    ///   prunes its siblings on it and passes it up unchanged.
    /// - a pair's mutual zero (`f_a = f_b = 1`, one shared free vertex):
    ///   with `a` mapped to it, `b`'s node returns its class plus `a`;
    ///   that names `a`, so `a`'s node ORs it with its own conflicts and
    ///   empty-set class — the union of both members' classes, which the
    ///   suffix nodes before `a` and between `a` and `b` pass up.
    ///
    /// Materializing runs keep the loop (each embedding is written out),
    /// and so do edge-injective ones (whether a claim succeeds depends on
    /// the data edges its backward images use, not on which data
    /// vertices are mapped).
    #[inline(always)]
    fn count_suffix<N: NextVertex, const FS: bool>(&mut self, depth: usize) -> u64 {
        let plan = self.plan;
        let n = plan.num_query_vertices();
        let mut k = 1u64;
        for d in depth..n {
            let (u, len, taken) = N::select_last(self, d);
            let free = len as u64 - u64::from(taken.count_ones());
            let mut factor = free;
            let mut partner = None;
            if free > 0 && plan.suffix_pairs() & bit(u) != 0 {
                // Pairs exist only in static plans, where a vertex's slot
                // is its depth.
                let order = plan.order();
                let Some(i) = (depth..d).find(|&i| plan.same_label(u) & bit(order[i]) != 0) else {
                    // The first of its pair: counted with the second.
                    continue;
                };
                let a = order[i];
                let (la, lb) = (&self.sc.lc_bufs[i], &self.sc.lc_bufs[d]);
                let taken_a = self.taken(a, la);
                let free_a = la.len() as u64 - u64::from(taken_a.count_ones());
                let clash = self.common(a, la, u, lb) - u64::from((taken_a & taken).count_ones());
                factor = free_a * free - clash;
                partner = Some((a, taken_a));
            }
            if factor == 0 {
                if !FS {
                    return 0;
                }
                let fails = taken | emptyset_class(u, plan.backward(u));
                return match partner {
                    Some((a, taken_a)) => fails | taken_a | emptyset_class(a, plan.backward(a)),
                    None => fails,
                };
            }
            k = k.saturating_mul(factor);
        }
        let (_, claims) = self.ctl.record_matches(k);
        self.ctl.counters.add(Counter::Backtracks, claims);
        self.ctl.counters.record_max(Counter::PeakDepth, n as u64);
        FULL
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate_space::{CandidateSpace, SpaceCoverage};
    use crate::enumerate::{CollectSink, CountSink, MatchConfig, Outcome};
    use crate::fixtures::{paper_data, paper_match, paper_query};
    use crate::{DataContext, QueryContext};
    use sm_intersect::IntersectKind;

    fn paper_plan(method: LcMethod, config: MatchConfig) -> (QueryPlan, Graph) {
        let q = paper_query();
        let g = paper_data();
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let cand = crate::filter::ldf::ldf_candidates(&qc, &gc);
        let space = (method.needs_space() || config.intersect == IntersectKind::Bsr).then(|| {
            CandidateSpace::build(
                &q,
                &g,
                &cand,
                SpaceCoverage::OrderDirected(&[0, 1, 2, 3]),
                config.intersect == IntersectKind::Bsr,
            )
        });
        let plan = QueryPlan::assemble(
            &q,
            cand,
            vec![0, 1, 2, 3],
            None,
            space,
            method,
            config,
            false,
        );
        (plan, g)
    }

    fn run_method(method: LcMethod, failing_sets: bool) -> (u64, Vec<Vec<VertexId>>) {
        let config = MatchConfig {
            failing_sets,
            ..Default::default()
        };
        let (plan, g) = paper_plan(method, config);
        let input = EngineInput::new(&plan, &g);
        let mut sink = CollectSink::default();
        let stats = enumerate(&input, &mut sink);
        (stats.matches, sink.matches)
    }

    #[test]
    fn all_methods_find_the_unique_match() {
        for method in [
            LcMethod::Direct,
            LcMethod::CandidateScan,
            LcMethod::TreeIndex,
            LcMethod::Intersect,
        ] {
            for fs in [false, true] {
                let (n, ms) = run_method(method, fs);
                assert_eq!(n, 1, "{method:?} fs={fs}");
                assert_eq!(ms, vec![paper_match()], "{method:?} fs={fs}");
            }
        }
    }

    #[test]
    fn intersect_kernels_agree() {
        for kind in [
            IntersectKind::Merge,
            IntersectKind::Galloping,
            IntersectKind::Hybrid,
            IntersectKind::Bsr,
        ] {
            let config = MatchConfig {
                intersect: kind,
                ..Default::default()
            };
            let (plan, g) = paper_plan(LcMethod::Intersect, config);
            let input = EngineInput::new(&plan, &g);
            let mut sink = CountSink;
            let stats = enumerate(&input, &mut sink);
            assert_eq!(stats.matches, 1, "{kind:?}");
            assert_eq!(stats.outcome, Outcome::Complete);
        }
    }

    #[test]
    fn match_cap_stops_early() {
        // Query: single A-B edge; fixture has several A-B edges.
        let q = sm_graph::builder::graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let g = paper_data();
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let cand = crate::filter::ldf::ldf_candidates(&qc, &gc);
        let config = MatchConfig {
            max_matches: Some(2),
            ..Default::default()
        };
        let plan = QueryPlan::assemble(
            &q,
            cand,
            vec![1, 0, 2],
            None,
            None,
            LcMethod::CandidateScan,
            config,
            false,
        );
        let input = EngineInput::new(&plan, &g);
        let mut sink = CountSink;
        let stats = enumerate(&input, &mut sink);
        assert_eq!(stats.matches, 2);
        assert_eq!(stats.outcome, Outcome::CapReached);
    }

    #[test]
    fn injectivity_enforced() {
        // Query: path B-A-B. Matches must not reuse a data vertex for both
        // B endpoints.
        let q = sm_graph::builder::graph_from_edges(&[1, 0, 1], &[(0, 1), (1, 2)]);
        let g = sm_graph::builder::graph_from_edges(&[0, 1], &[(0, 1)]);
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let cand = crate::filter::ldf::ldf_candidates(&qc, &gc);
        let plan = QueryPlan::assemble(
            &q,
            cand,
            vec![1, 0, 2],
            None,
            None,
            LcMethod::Direct,
            MatchConfig::default(),
            false,
        );
        let input = EngineInput::new(&plan, &g);
        let mut sink = CountSink;
        let stats = enumerate(&input, &mut sink);
        assert_eq!(stats.matches, 0);
    }

    #[test]
    fn vf2pp_rule_preserves_counts() {
        for rule in [false, true] {
            let config = MatchConfig {
                vf2pp_rule: rule,
                ..Default::default()
            };
            let (plan, g) = paper_plan(LcMethod::Direct, config);
            let input = EngineInput::new(&plan, &g);
            let mut sink = CountSink;
            let stats = enumerate(&input, &mut sink);
            assert_eq!(stats.matches, 1, "vf2pp_rule={rule}");
        }
    }

    #[test]
    fn scratch_reuse_across_runs() {
        let (plan, g) = paper_plan(LcMethod::Intersect, MatchConfig::default());
        let input = EngineInput::new(&plan, &g);
        let mut scratch = Scratch::new();
        let mut sink = CountSink;
        for expected_reuses in [0u64, 1, 2] {
            let stats = enumerate_with(&input, &mut scratch, &mut sink);
            assert_eq!(stats.matches, 1);
            assert_eq!(scratch.reuses(), expected_reuses);
        }
    }
}
