//! DP-iso's adaptive matching order (Han et al., SIGMOD 2019; Section 3.2
//! of the study).
//!
//! The BFS order `δ` turns the query into a DAG (parents = δ-earlier
//! neighbors). A vertex becomes *extendable* once all its DAG parents are
//! mapped; its local candidates are then fixed (every constraint comes
//! from the parents), so `LC(u, M)` is computed immediately and cached.
//! Among extendable vertices the engine picks the one minimizing the
//! estimated remaining work `Σ_{v ∈ LC} W[u][v]`, where the weight array
//! `W` (precomputed into the [`QueryPlan`]) estimates, bottom-up over the
//! DAG, how many tree-like path embeddings hang below each candidate
//! (leaves weigh 1; inner vertices take the minimum over children of the
//! candidate-edge-summed child weights). Degree-one query vertices are
//! deprioritized, per DP-iso's core/forest decomposition.
//!
//! Like the static engine, this is a pure executor: DAG parents/children
//! and the weight array come precompiled in the plan (`plan.backward(u)`
//! under `δ` *is* the parent set), and the partial embedding, visited map
//! and LC caches live in a reusable [`Scratch`].

use crate::enumerate::control::RunControl;
use crate::enumerate::failing_sets::{conflict_class, emptyset_class, prunes_siblings, FULL};
use crate::enumerate::scratch::Scratch;
use crate::enumerate::{EnumStats, Injectivity, MatchSink};
use crate::plan::QueryPlan;
use sm_graph::types::NO_VERTEX;
use sm_graph::{Graph, VertexId};
use sm_runtime::Counter;
use std::time::Instant;

/// Run the adaptive enumeration of a compiled plan with a fresh scratch.
pub fn enumerate_adaptive<S: MatchSink>(plan: &QueryPlan, g: &Graph, sink: &mut S) -> EnumStats {
    let mut scratch = Scratch::new();
    enumerate_adaptive_with(plan, g, &mut scratch, sink)
}

/// Run the adaptive enumeration reusing `scratch` for all per-run mutable
/// state.
pub fn enumerate_adaptive_with<S: MatchSink>(
    plan: &QueryPlan,
    g: &Graph,
    scratch: &mut Scratch,
    sink: &mut S,
) -> EnumStats {
    enumerate_adaptive_shared(plan, g, None, scratch, sink)
}

/// [`enumerate_adaptive_with`] under an external [`SharedControl`]: the
/// run's cancellation token and match cap come from `shared` instead of
/// the plan's config, so a service can execute one cached adaptive plan
/// under many per-request budgets. `None` falls back to the plan config.
pub fn enumerate_adaptive_shared<S: MatchSink>(
    plan: &QueryPlan,
    g: &Graph,
    shared: Option<&crate::enumerate::control::SharedControl>,
    scratch: &mut Scratch,
    sink: &mut S,
) -> EnumStats {
    assert!(
        plan.adaptive,
        "plan was not compiled for the adaptive engine"
    );
    assert!(
        !plan.config.vf2pp_rule,
        "adaptive engine does not support the VF2++ rule"
    );
    let started = Instant::now();
    scratch.prepare(plan.num_query_vertices(), g.num_vertices());
    let n = plan.num_query_vertices();
    let root = plan
        .tree
        .as_ref()
        .expect("adaptive plan carries its tree")
        .root;
    let sem = plan.config.semantics;
    let mut eng = AdaptiveEngine {
        plan,
        sc: scratch,
        mapped_parents: vec![0; n],
        extendable: Vec::with_capacity(n),
        ctl: RunControl::new(&plan.config, shared, started, 0x3FF),
        sink,
        inj: sem.injectivity,
        emit: sem.emits(),
    };
    // Root is extendable from the start with its full candidate set.
    let root_lc = &mut eng.sc.lc_bufs[root as usize];
    root_lc.clear();
    root_lc.extend(0..plan.candidates.get(root).len() as u32);
    eng.extendable.push(root);
    if plan.config.failing_sets {
        eng.recurse_fs(0);
    } else {
        eng.recurse(0);
    }
    let ctl = eng.ctl;
    let mut stats = ctl.into_stats(started);
    stats.plan_build_ns = plan.plan_build_ns();
    stats.scratch_reuse = scratch.reuses();
    stats
}

struct AdaptiveEngine<'a, S: MatchSink> {
    plan: &'a QueryPlan,
    sc: &'a mut Scratch,
    mapped_parents: Vec<u32>,
    extendable: Vec<VertexId>,
    ctl: RunControl<'a>,
    sink: &'a mut S,
    /// The plan's injectivity mode, copied out of the config once.
    inj: Injectivity,
    /// Whether matches are materialized into the sink (`false` for
    /// count-only runs).
    emit: bool,
}

impl<'a, S: MatchSink> AdaptiveEngine<'a, S> {
    #[inline]
    fn emit_match(&mut self) {
        if self.ctl.record_match() && self.emit {
            self.sink.on_match(&self.sc.m);
        }
    }

    /// Injectivity check + bookkeeping for `u → v` (see the static
    /// engine's `claim`). Sound here because a vertex only becomes
    /// extendable once all its DAG parents are mapped, so the mapped
    /// neighbors of `u` are exactly `plan.backward(u)` at claim time.
    #[inline]
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

    /// Undo the bookkeeping of a successful [`AdaptiveEngine::claim`].
    #[inline]
    fn release(&mut self, u: VertexId, v: VertexId) {
        let plan = self.plan;
        match self.inj {
            Injectivity::Isomorphism => self.sc.visited_by[v as usize] = NO_VERTEX,
            Injectivity::Homomorphism => {}
            Injectivity::EdgeInjective => self.sc.release_edges(plan.backward(u).len()),
        }
    }

    /// Pick the extendable vertex with minimum estimated work; degree-one
    /// vertices only when nothing else is available. Returns its index in
    /// `extendable`.
    fn select(&self) -> usize {
        let q = self.plan.query();
        let mut best_idx = 0usize;
        let mut best_key = (true, f64::INFINITY, u32::MAX);
        for (i, &u) in self.extendable.iter().enumerate() {
            let deg1 = q.degree(u) <= 1;
            let w: f64 = self.sc.lc_bufs[u as usize]
                .iter()
                .map(|&p| self.plan.weights[u as usize][p as usize])
                .sum();
            let key = (deg1, w, u);
            if (key.0, key.1, key.2) < best_key {
                best_key = key;
                best_idx = i;
            }
        }
        best_idx
    }

    /// Compute `LC(c, M)` for newly extendable `c` into its cache slot.
    fn fill_lc(&mut self, c: VertexId) {
        let mut buf = std::mem::take(&mut self.sc.lc_bufs[c as usize]);
        buf.clear();
        self.sc
            .intersect_backward(self.plan, c, &mut buf, &mut self.ctl.counters);
        self.sc.lc_bufs[c as usize] = buf;
    }

    /// Map `u → (v, pos)`: update DAG counters and extendables. Returns the
    /// list of children that became extendable (to undo later).
    fn apply(&mut self, u: VertexId, v: VertexId, pos: u32) -> Vec<VertexId> {
        self.sc.m[u as usize] = v;
        self.sc.mpos[u as usize] = pos;
        // The plan's forward lists are the DAG children; iterating the
        // borrowed slice directly (no per-expansion clone) is fine because
        // `plan` outlives the `&mut self` calls below.
        let plan = self.plan;
        let mut activated = Vec::new();
        for &c in plan.forward(u) {
            self.mapped_parents[c as usize] += 1;
            if self.mapped_parents[c as usize] as usize == plan.backward(c).len() {
                self.fill_lc(c);
                self.extendable.push(c);
                activated.push(c);
            }
        }
        activated
    }

    fn undo(&mut self, u: VertexId, _v: VertexId, activated: &[VertexId]) {
        for &c in activated {
            let i = self
                .extendable
                .iter()
                .rposition(|&x| x == c)
                .expect("activated vertex is extendable");
            self.extendable.swap_remove(i);
        }
        for &c in self.plan.forward(u) {
            self.mapped_parents[c as usize] -= 1;
        }
        self.sc.m[u as usize] = NO_VERTEX;
    }

    fn recurse(&mut self, depth: usize) {
        self.ctl.tick();
        if self.ctl.is_stopped() {
            return;
        }
        let n = self.plan.num_query_vertices();
        let idx = self.select();
        let u = self.extendable.swap_remove(idx);
        let lc = std::mem::take(&mut self.sc.lc_bufs[u as usize]);
        for &pos in &lc {
            let v = self.plan.candidates.get(u)[pos as usize];
            if !self.claim(u, v) {
                continue;
            }
            let activated = self.apply(u, v, pos);
            self.ctl
                .counters
                .record_max(Counter::PeakDepth, depth as u64 + 1);
            if depth + 1 == n {
                self.emit_match();
            } else {
                self.recurse(depth + 1);
            }
            self.undo(u, v, &activated);
            self.release(u, v);
            self.ctl.counters.bump(Counter::Backtracks);
            if self.ctl.is_stopped() {
                break;
            }
        }
        self.sc.lc_bufs[u as usize] = lc;
        self.extendable.push(u);
    }

    fn recurse_fs(&mut self, depth: usize) -> u64 {
        self.ctl.tick();
        if self.ctl.is_stopped() {
            return FULL;
        }
        let n = self.plan.num_query_vertices();
        let idx = self.select();
        let u = self.extendable.swap_remove(idx);
        let lc = std::mem::take(&mut self.sc.lc_bufs[u as usize]);
        let mut acc = 0u64;
        let mut early: Option<u64> = None;
        // See engine::recurse_fs: a match below any sibling forces FULL
        // even when a later sibling licenses skipping the rest.
        let mut found_below = false;
        for &pos in &lc {
            let v = self.plan.candidates.get(u)[pos as usize];
            let owner = self.sc.visited_by[v as usize];
            let child_fs = if owner != NO_VERTEX {
                conflict_class(u, owner)
            } else {
                // Failing sets are isomorphism-only (asserted at plan
                // assembly), so the visited map is maintained inline here
                // rather than through claim/release.
                self.sc.visited_by[v as usize] = u;
                let activated = self.apply(u, v, pos);
                self.ctl
                    .counters
                    .record_max(Counter::PeakDepth, depth as u64 + 1);
                let fs = if depth + 1 == n {
                    self.emit_match();
                    FULL
                } else {
                    self.recurse_fs(depth + 1)
                };
                self.undo(u, v, &activated);
                self.sc.visited_by[v as usize] = NO_VERTEX;
                self.ctl.counters.bump(Counter::Backtracks);
                fs
            };
            if child_fs == FULL {
                found_below = true;
            }
            if self.ctl.is_stopped() {
                acc = FULL;
                break;
            }
            if prunes_siblings(child_fs, u) {
                early = Some(child_fs);
                break;
            }
            acc |= child_fs;
        }
        let empty_lc = lc.is_empty();
        self.sc.lc_bufs[u as usize] = lc;
        self.extendable.push(u);
        if let Some(fs) = early {
            return if found_below { FULL } else { fs };
        }
        if empty_lc {
            return emptyset_class(u, self.plan.backward(u));
        }
        // Union rule: include u and the LC determiners (DAG parents) — see
        // engine::recurse_fs for why omitting them is unsound.
        acc | emptyset_class(u, self.plan.backward(u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate_space::{CandidateSpace, SpaceCoverage};
    use crate::enumerate::{CollectSink, LcMethod, MatchConfig};
    use crate::fixtures::{paper_data, paper_match, paper_query};
    use crate::{DataContext, QueryContext};

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
            let stats = enumerate_adaptive(&plan, &g, &mut sink);
            assert_eq!(stats.matches, 1, "fs={fs}");
            assert_eq!(sink.matches, vec![paper_match()], "fs={fs}");
        }
    }

    #[test]
    fn scratch_reuse_across_adaptive_runs() {
        let (plan, g) = paper_adaptive_plan(false);
        let mut scratch = Scratch::new();
        let mut sink = CollectSink::default();
        let s1 = enumerate_adaptive_with(&plan, &g, &mut scratch, &mut sink);
        let s2 = enumerate_adaptive_with(&plan, &g, &mut scratch, &mut sink);
        assert_eq!(s1.matches, 1);
        assert_eq!(s2.matches, 1);
        assert_eq!(s1.scratch_reuse, 0);
        assert_eq!(s2.scratch_reuse, 1);
    }
}
