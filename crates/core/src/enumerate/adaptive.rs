//! DP-iso's adaptive matching order (Han et al., SIGMOD 2019; Section 3.2
//! of the study), as the engine's second `NextVertex` strategy.
//!
//! The BFS order `δ` turns the query into a DAG (parents = δ-earlier
//! neighbors). A vertex becomes *extendable* once all its DAG parents are
//! mapped; its local candidates are then fixed (every constraint comes
//! from the parents), so `LC(u, M)` is computed immediately and cached.
//! Among extendable vertices the strategy picks the one minimizing the
//! estimated remaining work `Σ_{v ∈ LC} W[u][v]`, where the weight array
//! `W` (precomputed into the [`crate::QueryPlan`]) estimates, bottom-up
//! over the DAG, how many tree-like path embeddings hang below each
//! candidate (leaves weigh 1; inner vertices take the minimum over
//! children of the candidate-edge-summed child weights). Degree-one query
//! vertices are deprioritized, per DP-iso's core/forest decomposition.
//!
//! Only the selection lives here — the candidate loop, injectivity,
//! failing sets and the root partition are [`super::engine`]'s. DAG
//! parents/children and the weight array come precompiled in the plan
//! (`plan.backward(u)` under `δ` *is* the parent set); the LC cache, its
//! `Σ W` and the extendable set live in the reusable
//! [`super::scratch::Scratch`], so a run allocates nothing.

use crate::enumerate::engine::{Engine, NextVertex};
use crate::enumerate::failing_sets::bit;
use sm_graph::VertexId;

/// The adaptive strategy: `u = argmin Σ W` over the extendable set, `LC`
/// read from the per-vertex cache filled when `u` became extendable.
pub(super) struct AdaptiveOrder;

impl NextVertex for AdaptiveOrder {
    /// The root is extendable from the start with this run's slice of its
    /// candidates. Its `Σ W` is never read: nothing else is extendable
    /// while the root is.
    fn begin<S>(eng: &mut Engine<'_, S>) {
        let root = eng.plan.root();
        let lc = &mut eng.sc.lc_bufs[root as usize];
        lc.clear();
        lc.extend(eng.root.clone());
        eng.sc.extendable = bit(root);
    }

    /// Pick the extendable vertex with minimum estimated work; degree-one
    /// vertices only when nothing else is available. Ties break on the
    /// vertex id, so the choice does not depend on iteration order.
    #[inline]
    fn select<S>(eng: &mut Engine<'_, S>, _depth: usize) -> (VertexId, usize) {
        let q = eng.plan.query();
        let mut best = (true, f64::INFINITY, VertexId::MAX);
        let mut rest = eng.sc.extendable;
        while rest != 0 {
            let u = rest.trailing_zeros();
            rest &= rest - 1;
            let key = (q.degree(u) <= 1, eng.sc.lc_weight[u as usize], u);
            if key < best {
                best = key;
            }
        }
        (best.2, best.2 as usize)
    }

    /// `u` leaves the extendable set; every DAG child whose last parent it
    /// was enters it, with `LC` and `Σ W` computed once here — both stay
    /// valid until `unmap(u)`, since they depend on the parents only.
    fn map<S>(eng: &mut Engine<'_, S>, u: VertexId) {
        let plan = eng.plan;
        let sc = &mut *eng.sc;
        sc.extendable &= !bit(u);
        for &c in plan.forward(u) {
            let ci = c as usize;
            sc.mapped_parents[ci] += 1;
            if sc.mapped_parents[ci] as usize == plan.backward(c).len() {
                let mut lc = std::mem::take(&mut sc.lc_bufs[ci]);
                lc.clear();
                sc.intersect_backward(plan, eng.g, c, &mut lc, &mut eng.ctl.counters);
                sc.lc_weight[ci] = lc.iter().map(|&p| plan.weights[ci][p as usize]).sum();
                sc.lc_bufs[ci] = lc;
                sc.extendable |= bit(c);
            }
        }
    }

    /// At the last depth `u` is the one extendable vertex, with no DAG
    /// children, so `map`/`unmap` would be no-ops; its cached `LC` is
    /// counted as it stands.
    #[inline]
    fn select_last<S>(eng: &mut Engine<'_, S>, depth: usize) -> (VertexId, usize, u64) {
        let (u, slot) = Self::select(eng, depth);
        let lc = &eng.sc.lc_bufs[slot];
        (u, lc.len(), eng.taken(u, lc))
    }

    /// Mappings are undone in LIFO order, so a child with all parents
    /// mapped got its last one from `u`: exactly `map`'s activations.
    fn unmap<S>(eng: &mut Engine<'_, S>, u: VertexId) {
        let plan = eng.plan;
        let sc = &mut *eng.sc;
        for &c in plan.forward(u) {
            let ci = c as usize;
            if sc.mapped_parents[ci] as usize == plan.backward(c).len() {
                sc.extendable &= !bit(c);
            }
            sc.mapped_parents[ci] -= 1;
        }
        sc.extendable |= bit(u);
    }
}

#[cfg(test)]
mod tests {
    use crate::candidate_space::{CandidateSpace, SpaceCoverage};
    use crate::enumerate::engine::{enumerate, enumerate_with, EngineInput};
    use crate::enumerate::scratch::Scratch;
    use crate::enumerate::{CollectSink, LcMethod, MatchConfig};
    use crate::fixtures::{paper_data, paper_match, paper_query};
    use crate::{DataContext, QueryContext, QueryPlan};
    use sm_graph::Graph;
    use sm_runtime::Counter;

    fn paper_adaptive_plan(failing_sets: bool) -> (QueryPlan, Graph) {
        let q = paper_query();
        let g = paper_data();
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let (cand, tree) = crate::filter::dpiso::dpiso_candidates(&qc, &gc, 3);
        let space = CandidateSpace::build(
            &q,
            &g,
            &cand,
            SpaceCoverage::OrderDirected(&tree.order),
            false,
        );
        let config = MatchConfig {
            failing_sets,
            ..Default::default()
        };
        let order = tree.order.clone();
        let plan = QueryPlan::assemble(
            &q,
            cand,
            order,
            Some(tree),
            Some(space),
            LcMethod::Intersect,
            config,
            true,
        );
        (plan, g)
    }

    #[test]
    fn finds_the_unique_match() {
        for fs in [false, true] {
            let (plan, g) = paper_adaptive_plan(fs);
            let mut sink = CollectSink::default();
            let stats = enumerate(&EngineInput::new(&plan, &g), &mut sink);
            assert_eq!(stats.matches, 1, "fs={fs}");
            assert_eq!(sink.matches, vec![paper_match()], "fs={fs}");
        }
    }

    #[test]
    fn scratch_reuse_across_adaptive_runs() {
        let (plan, g) = paper_adaptive_plan(false);
        let input = EngineInput::new(&plan, &g);
        let mut scratch = Scratch::new();
        let mut sink = CollectSink::default();
        // Where the adaptive order's per-run state lives: none of it may
        // move (be reallocated) once the first run has shaped the scratch.
        let addrs = |sc: &Scratch| {
            let lc: Vec<_> = sc.lc_bufs.iter().map(|b| b.as_ptr() as usize).collect();
            (
                sc.mapped_parents.as_ptr() as usize,
                sc.lc_weight.as_ptr() as usize,
                sc.lc_bufs.as_ptr() as usize,
                lc,
            )
        };
        let s1 = enumerate_with(&input, &mut scratch, &mut sink);
        let first = addrs(&scratch);
        let s2 = enumerate_with(&input, &mut scratch, &mut sink);
        assert_eq!(s1.matches, 1);
        assert_eq!(s2.matches, 1);
        assert_eq!(s1.counters.get(Counter::ScratchReuses), 0);
        assert_eq!(s2.counters.get(Counter::ScratchReuses), 1);
        assert_eq!(
            first,
            addrs(&scratch),
            "a reused scratch must not reallocate"
        );
        assert!(scratch.mapped_parents.iter().all(|&k| k == 0));
    }
}
