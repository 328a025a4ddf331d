//! [`Pipeline`]: one concrete composition of Algorithm 1 — a filter, an
//! ordering, an enumeration method — runnable against a query, with the
//! per-phase timings the paper reports (preprocessing vs enumeration).
//!
//! A pipeline run has two halves: [`Pipeline::plan`] compiles a
//! [`QueryPlan`] (filter → order → auxiliary structure → derived tables),
//! and an [`Executor`] runs it — sequentially, or shared immutably across
//! the workers of a parallel run. The plan is built exactly once per run;
//! no engine re-derives order/parent/label tables.

use crate::candidate_space::{CandidateSpace, SpaceCoverage};
use crate::context::{DataContext, QueryContext};
use crate::enumerate::parallel::ParallelStrategy;
use crate::enumerate::{CountSink, EnumStats, LcMethod, MatchConfig, MatchSink, Outcome};
use crate::exec::Executor;
use crate::filter::{run_filter_traced, FilterKind};
use crate::order::{run_order, OrderInput, OrderKind};
use crate::plan::QueryPlan;
use sm_graph::traversal::BfsTree;
use sm_graph::types::NO_VERTEX;
use sm_graph::{Graph, VertexId};
use sm_intersect::IntersectKind;
use std::time::{Duration, Instant};

/// A full matching configuration: which filter, which ordering, which
/// local-candidate method.
#[derive(Clone, Debug)]
pub struct Pipeline {
    /// Display name (e.g. `"GQLfs"` in Figure 16).
    pub name: String,
    /// Filtering method.
    pub filter: FilterKind,
    /// Ordering method ([`OrderKind::Adaptive`] switches the engine to
    /// its adaptive next-vertex strategy).
    pub order: OrderKind,
    /// Local-candidate computation (ignored by the adaptive order, which
    /// always intersects).
    pub method: LcMethod,
    /// Force VF2++'s extra runtime rule (original VF2++ composition).
    pub vf2pp_rule: bool,
    /// The recommended pipeline's leaf handling. It does two things:
    /// - It rewrites the order of count-only plans with
    ///   [`crate::order::leaves_last`] (static orders other than
    ///   [`OrderKind::Fixed`] only).
    /// - On a GraphQL-filtered, RI-ordered static `Intersect` plan of
    ///   `|V(q)| ≥ 3`, it leaves every leaf's candidate set at its NLF
    ///   result: the search reads a non-root leaf only through its
    ///   parent's `A` rows, which refining it cannot change (see
    ///   [`crate::filter::gql`]). The search tree is the same.
    ///
    /// Set by [`crate::algorithm::recommended`]; the paper's per-algorithm
    /// pipelines keep their orders and sets.
    pub leaves_last: bool,
}

/// Result of one pipeline run, carrying the paper's metrics.
#[derive(Clone, Debug)]
pub struct MatchOutput {
    /// Matches found (exact when `outcome == Complete`).
    pub matches: u64,
    /// Search-tree nodes visited.
    pub recursions: u64,
    /// Why the run ended.
    pub outcome: Outcome,
    /// Time in the filtering step.
    pub filter_time: Duration,
    /// Time building the auxiliary structure and plan tables. A static
    /// Intersect plan builds only the shell of `A` here; its rows are
    /// built during enumeration and counted in `enum_time`.
    pub build_time: Duration,
    /// Time computing the matching order.
    pub order_time: Duration,
    /// Time enumerating (executing the plan).
    pub enum_time: Duration,
    /// Average candidate count `Σ|C(u)| / |V(q)|` (Figure 8 metric).
    pub candidate_avg: f64,
    /// Bytes held by the candidate sets.
    pub candidate_memory: usize,
    /// Bytes held by the auxiliary structure, as built by the end of the
    /// run (see [`CandidateSpace::memory_bytes`]).
    pub space_memory: usize,
    /// Per-worker morsel/busy/idle/scratch counters (parallel runs only).
    pub parallel: Option<sm_runtime::PoolMetrics>,
    /// Total scratch-arena reuses across workers (0 for one-shot runs).
    pub scratch_reuse: u64,
}

impl MatchOutput {
    /// The paper's "preprocessing time" — equivalently, the plan-build
    /// time of the compile/execute split: filtering + building `A` +
    /// ordering.
    pub fn preprocessing_time(&self) -> Duration {
        self.filter_time + self.build_time + self.order_time
    }

    /// Compile/execute-split name for [`preprocessing_time`]: the time
    /// spent building the [`QueryPlan`] before any enumeration ran.
    ///
    /// [`preprocessing_time`]: MatchOutput::preprocessing_time
    pub fn plan_build_time(&self) -> Duration {
        self.preprocessing_time()
    }

    /// Total query time.
    pub fn total_time(&self) -> Duration {
        self.preprocessing_time() + self.enum_time
    }

    /// Paper terminology: killed by the time limit.
    pub fn unsolved(&self) -> bool {
        self.outcome == Outcome::TimedOut
    }

    fn empty(filter_time: Duration) -> Self {
        MatchOutput {
            matches: 0,
            recursions: 0,
            outcome: Outcome::Complete,
            filter_time,
            build_time: Duration::ZERO,
            order_time: Duration::ZERO,
            enum_time: Duration::ZERO,
            candidate_avg: 0.0,
            candidate_memory: 0,
            space_memory: 0,
            parallel: None,
            scratch_reuse: 0,
        }
    }

    fn from_stats(plan: &QueryPlan, stats: EnumStats) -> Self {
        MatchOutput {
            matches: stats.matches,
            recursions: stats.recursions,
            outcome: stats.outcome,
            filter_time: plan.filter_time,
            build_time: plan.build_time,
            order_time: plan.order_time,
            enum_time: stats.elapsed,
            candidate_avg: plan.candidates.average(),
            candidate_memory: plan.candidates.memory_bytes(),
            space_memory: plan.space.as_ref().map_or(0, |s| s.memory_bytes()),
            parallel: stats.parallel,
            scratch_reuse: stats.scratch_reuse,
        }
    }
}

impl Pipeline {
    /// Create a pipeline with an explicit name.
    pub fn new(
        name: impl Into<String>,
        filter: FilterKind,
        order: OrderKind,
        method: LcMethod,
    ) -> Self {
        Pipeline {
            name: name.into(),
            filter,
            order,
            method,
            vf2pp_rule: false,
            leaves_last: false,
        }
    }

    /// Compile the plan: run the preprocessing phases (filter → order →
    /// auxiliary structure) and assemble the [`QueryPlan`] every executor
    /// of this run shares. Returns `Err(filter_time)` when some candidate
    /// set is empty — the query has no match.
    pub fn plan(
        &self,
        q: &Graph,
        g: &DataContext<'_>,
        config: &MatchConfig,
    ) -> Result<QueryPlan, Duration> {
        let qc = QueryContext::new(q);
        let mut config = config.clone();
        if self.vf2pp_rule {
            config.vf2pp_rule = true;
        }
        if config.semantics.injectivity != crate::enumerate::Injectivity::Isomorphism {
            // Failing sets and the VF2++ rule prune on vertex-injectivity
            // conflicts; under relaxed semantics those conflicts don't
            // exist, so the optimizations are silently dropped rather than
            // tripping the assembly-time isomorphism assertions.
            config.failing_sets = false;
            config.vf2pp_rule = false;
        }
        let trace = config.trace.clone();
        let plan_span = trace.is_enabled().then(|| trace.span("plan"));

        // Phase 1: filtering. The recommended RI plans leave their leaves'
        // sets unrefined: no search of theirs reads the difference.
        let t0 = Instant::now();
        let filter_span = trace.is_enabled().then(|| trace.span("filter"));
        let unrefined = self.unrefined_leaves(q);
        let filtered =
            if config.semantics.injectivity == crate::enumerate::Injectivity::Homomorphism {
                // Degree/frequency pruning is unsound under homomorphism
                // (distinct query neighbors may fold onto one data
                // vertex), so the configured filter is bypassed in favor
                // of the label-only baseline. Edge-injective matching
                // keeps the full filters: incident edges map injectively,
                // so neighbor images stay distinct.
                crate::filter::label_only_filter(&qc, g)
            } else if unrefined != 0 {
                let params = crate::filter::gql::GqlParams::default();
                Some(crate::filter::FilterOutput {
                    candidates: crate::filter::gql::gql_candidates(&qc, g, params, unrefined),
                    bfs_tree: None,
                })
            } else {
                run_filter_traced(self.filter, &qc, g, &trace)
            };
        // A shard answers only for the embeddings whose anchor image it
        // owns: one more unary restriction, which every later phase and
        // the search honour like any filtered set.
        let anchor = g.owned.map(|_| crate::context::anchor(q));
        let filtered = filtered.and_then(|mut out| {
            if let (Some(a), Some(owned)) = (anchor, g.owned) {
                out.candidates.retain(a, |v| owned.get(v));
            }
            (!out.candidates.any_empty()).then_some(out)
        });
        drop(filter_span);
        let filter_time = t0.elapsed();
        let Some(out) = filtered else {
            drop(plan_span);
            return Err(filter_time);
        };
        let candidates = out.candidates;
        let mut tree = out.bfs_tree;
        let adaptive = matches!(self.order, OrderKind::Adaptive);

        // Phase 2: ordering (before building A so TreeIndex can check
        // order/tree compatibility; the paper folds both into
        // "preprocessing" anyway). The adaptive strategy's "order" is the
        // BFS order δ of its tree — built here, from DP-iso's root over
        // the LDF sets, when the filter did not provide one.
        let t1 = Instant::now();
        let order_span = trace.is_enabled().then(|| trace.span("order"));
        let order = if adaptive {
            if tree.is_none() {
                let root = crate::filter::common::sparsest_root(&qc, |u| {
                    crate::filter::common::ldf_set(&qc, g, u).len()
                });
                tree = Some(BfsTree::build(q, root));
            }
            tree.as_ref().expect("just ensured").order.clone()
        } else {
            run_order(
                &self.order,
                &OrderInput {
                    q: &qc,
                    g,
                    candidates: &candidates,
                    bfs_tree: tree.as_ref(),
                    space: None,
                },
            )
        };
        let order = if self.leaves_last
            && !adaptive
            && !matches!(self.order, OrderKind::Fixed(_))
            && !config.semantics.emits()
        {
            crate::order::leaves_last(q, &order)
        } else {
            order
        };
        drop(order_span);
        let order_time = t1.elapsed();
        debug_assert!(
            crate::order::is_connected_order(q, &order)
                || matches!(self.order, OrderKind::Fixed(_))
        );
        debug_assert!(
            anchor
                .into_iter()
                .chain(order.first().copied())
                .all(|u| unrefined >> u & 1 == 0),
            "an unrefined leaf is the root or the owned anchor"
        );

        // Phase 3: auxiliary structure + plan tables.
        let t2 = Instant::now();
        let build_span = trace.is_enabled().then(|| trace.span("build"));
        let with_bsr = config.intersect == IntersectKind::Bsr
            && (adaptive || self.method == LcMethod::Intersect);
        // Every reader of `A` looks from the order-earlier endpoint of a
        // query edge to the later one, so that is the only direction built.
        let mut coverage = SpaceCoverage::OrderDirected(&order);
        if !adaptive && self.method == LcMethod::TreeIndex {
            // Tree coverage suffices when every pivot parent is the tree
            // parent.
            let parents = crate::order::derive_parents(q, &order, tree.as_ref());
            if let Some(t) = tree.as_ref().filter(|t| {
                order.iter().skip(1).all(|&u| {
                    parents[u as usize] != NO_VERTEX && t.parent[u as usize] == parents[u as usize]
                })
            }) {
                coverage = SpaceCoverage::TreeEdges(t);
            }
        }
        // A static Intersect plan builds A's rows as the search first
        // reads them. DP-iso's weight array and CFL's tree index read every
        // row, so those plans build A in full here.
        let space = (adaptive || self.method.needs_space()).then(|| {
            let space = CandidateSpace::new(q, g.graph, &candidates, coverage, with_bsr);
            if adaptive || self.method != LcMethod::Intersect {
                space.build_all(g.graph, &candidates);
            }
            space
        });
        let mut plan = QueryPlan::assemble(
            q,
            candidates,
            order,
            tree,
            space,
            self.method,
            config,
            adaptive,
        );
        plan.anchor = anchor;
        plan.filter_time = filter_time;
        plan.order_time = order_time;
        drop(build_span);
        plan.build_time = t2.elapsed();
        drop(plan_span);
        Ok(plan)
    }

    /// The query vertices whose GraphQL refinement [`Pipeline::plan`]
    /// skips: the leaves, on a [`Pipeline::leaves_last`] plan that filters
    /// with GraphQL, orders by RI (which reads no candidate set) and
    /// intersects `A` rows statically, when `|V(q)| ≥ 3` (so neither RI's
    /// max-degree root nor the max-degree anchor is a leaf).
    fn unrefined_leaves(&self, q: &Graph) -> u64 {
        if !(self.leaves_last
            && self.filter == FilterKind::GraphQl
            && self.order == OrderKind::Ri
            && self.method == LcMethod::Intersect
            && q.num_vertices() >= 3)
        {
            return 0;
        }
        crate::filter::common::vertex_mask(q.vertices().filter(|&u| q.degree(u) == 1))
    }

    /// Run against a query, counting matches.
    pub fn run(&self, q: &Graph, g: &DataContext<'_>, config: &MatchConfig) -> MatchOutput {
        let mut sink = CountSink;
        self.run_with_sink(q, g, config, &mut sink)
    }

    /// Run against a query, streaming matches into `sink`.
    pub fn run_with_sink<S: MatchSink>(
        &self,
        q: &Graph,
        g: &DataContext<'_>,
        config: &MatchConfig,
        sink: &mut S,
    ) -> MatchOutput {
        let plan = match self.plan(q, g, config) {
            Ok(p) => p,
            Err(filter_time) => return MatchOutput::empty(filter_time),
        };
        let stats = Executor::new(&plan, g.graph).run(sink);
        MatchOutput::from_stats(&plan, stats)
    }

    /// Run with intra-query parallelism (see
    /// [`crate::enumerate::parallel`]). Matches are counted, not
    /// collected.
    ///
    /// The plan is compiled once; every worker executes it by shared
    /// reference. Every plan — adaptive ordering included — is split
    /// across the workers as position ranges over `C(root)`.
    pub fn run_parallel(
        &self,
        q: &Graph,
        g: &DataContext<'_>,
        config: &MatchConfig,
        threads: usize,
    ) -> MatchOutput {
        let plan = match self.plan(q, g, config) {
            Ok(p) => p,
            Err(filter_time) => return MatchOutput::empty(filter_time),
        };
        let (stats, _sinks) = Executor::new(&plan, g.graph)
            .run_parallel::<CountSink>(threads, ParallelStrategy::Morsel);
        MatchOutput::from_stats(&plan, stats)
    }
}

/// An EXPLAIN-style report of the plan a pipeline compiled for one query:
/// per-vertex candidate counts, the matching order with backward-neighbor
/// counts, and the auxiliary structure's shape.
///
/// The sizes are the plan's stored sets: on a recommended RI plan a
/// leaf's is its NLF size, since that plan keeps leaf sets unrefined (see
/// [`Pipeline::leaves_last`]).
#[derive(Clone, Debug)]
pub struct PlanReport {
    /// Pipeline name.
    pub pipeline: String,
    /// Filter that produced the candidates.
    pub filter: &'static str,
    /// Ordering method.
    pub order_method: &'static str,
    /// Local-candidate method.
    pub lc_method: &'static str,
    /// The matching order `φ`.
    pub order: Vec<VertexId>,
    /// `|C(u)|` per query vertex (indexed by vertex id).
    pub candidate_sizes: Vec<usize>,
    /// `|N^φ_+(u)|` per order position.
    pub backward_counts: Vec<usize>,
    /// Auxiliary structure bytes (0 when the method needs none).
    pub space_memory: usize,
    /// Preprocessing (plan-build) time.
    pub preprocessing: Duration,
}

impl std::fmt::Display for PlanReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "plan {} (filter {}, order {}, enumeration {})",
            self.pipeline, self.filter, self.order_method, self.lc_method
        )?;
        writeln!(f, "  preprocessing: {:?}", self.preprocessing)?;
        writeln!(f, "  aux structure: {} bytes", self.space_memory)?;
        for (i, &u) in self.order.iter().enumerate() {
            writeln!(
                f,
                "  {:>3}. u{:<3} |C| = {:<6} backward = {}",
                i + 1,
                u,
                self.candidate_sizes[u as usize],
                self.backward_counts[i]
            )?;
        }
        Ok(())
    }
}

impl Pipeline {
    /// Compile only the plan and report it (an `EXPLAIN` for subgraph
    /// queries). Returns `None` when a candidate set is empty — the query
    /// is trivially unsatisfiable.
    pub fn explain(
        &self,
        q: &Graph,
        g: &DataContext<'_>,
        config: &MatchConfig,
    ) -> Option<PlanReport> {
        let plan = self.plan(q, g, config).ok()?;
        Some(PlanReport {
            pipeline: self.name.clone(),
            filter: self.filter.name(),
            order_method: self.order.name(),
            lc_method: if plan.adaptive {
                "Adaptive+Intersect"
            } else {
                self.method.name()
            },
            backward_counts: plan
                .order()
                .iter()
                .map(|&u| plan.backward(u).len())
                .collect(),
            candidate_sizes: (0..q.num_vertices() as VertexId)
                .map(|u| plan.candidates.get(u).len())
                .collect(),
            order: plan.order().to_vec(),
            space_memory: plan.space.as_ref().map_or(0, |s| s.memory_bytes()),
            preprocessing: plan.filter_time + plan.order_time + plan.build_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_data, paper_query};
    use crate::reference::brute_force_count;
    use sm_graph::GraphStats;

    #[test]
    fn pipeline_matches_brute_force_on_fixture() {
        let q = paper_query();
        let g = paper_data();
        let gc = DataContext::new(&g);
        let want = brute_force_count(&q, &g, None);
        let p = Pipeline::new(
            "test",
            FilterKind::GraphQl,
            OrderKind::GraphQl,
            LcMethod::Intersect,
        );
        let out = p.run(&q, &gc, &MatchConfig::default());
        assert_eq!(out.matches, want);
        assert_eq!(out.outcome, Outcome::Complete);
        assert!(out.candidate_avg > 0.0);
    }

    #[test]
    fn no_match_short_circuits() {
        let q = sm_graph::builder::graph_from_edges(&[9, 9], &[(0, 1)]);
        let g = paper_data();
        let gc = DataContext::new(&g);
        let p = Pipeline::new("t", FilterKind::Ldf, OrderKind::Ri, LcMethod::Direct);
        let out = p.run(&q, &gc, &MatchConfig::default());
        assert_eq!(out.matches, 0);
        assert_eq!(out.enum_time, Duration::ZERO);
    }

    #[test]
    fn phase_timings_accumulate() {
        let q = paper_query();
        let g = paper_data();
        let gc = DataContext::new(&g);
        let p = Pipeline::new("t", FilterKind::Cfl, OrderKind::Cfl, LcMethod::TreeIndex);
        let out = p.run(&q, &gc, &MatchConfig::default());
        assert_eq!(out.matches, 1);
        assert_eq!(out.total_time(), out.preprocessing_time() + out.enum_time);
        assert!(out.space_memory > 0);
    }

    #[test]
    fn plan_reusable_and_parallel_agrees() {
        let q = paper_query();
        let g = paper_data();
        let gc = DataContext::new(&g);
        let p = Pipeline::new(
            "t",
            FilterKind::GraphQl,
            OrderKind::GraphQl,
            LcMethod::Intersect,
        );
        let cfg = MatchConfig::default();
        let seq = p.run(&q, &gc, &cfg);
        for threads in [1, 2, 4] {
            let par = p.run_parallel(&q, &gc, &cfg, threads);
            assert_eq!(par.matches, seq.matches, "{threads} threads");
        }
        // adaptive plans are dealt across the workers like any other
        let dp = crate::Algorithm::DpIso.optimized();
        let a = dp.run_parallel(&q, &gc, &cfg, 4);
        assert_eq!(a.matches, seq.matches);
    }

    #[test]
    fn explain_reports_the_plan() {
        let q = paper_query();
        let g = paper_data();
        let gc = DataContext::new(&g);
        let p = crate::Algorithm::GraphQl.optimized();
        let report = p.explain(&q, &gc, &MatchConfig::default()).unwrap();
        assert_eq!(report.order.len(), 4);
        assert_eq!(report.candidate_sizes.len(), 4);
        assert_eq!(report.backward_counts[0], 0);
        assert!(report.backward_counts[1..].iter().all(|&b| b >= 1));
        assert!(report.space_memory > 0);
        let text = format!("{report}");
        assert!(text.contains("plan GQL"));
        assert!(text.contains("|C| ="));
        // unsatisfiable query -> None
        let bad = sm_graph::builder::graph_from_edges(&[9, 9], &[(0, 1)]);
        assert!(p.explain(&bad, &gc, &MatchConfig::default()).is_none());
    }

    #[test]
    fn plan_exposes_phases() {
        let q = paper_query();
        let g = paper_data();
        let gc = DataContext::new(&g);
        let p = Pipeline::new("t", FilterKind::Cfl, OrderKind::Cfl, LcMethod::Intersect);
        let plan = p.plan(&q, &gc, &MatchConfig::default()).unwrap();
        assert_eq!(plan.order().len(), 4);
        assert!(plan.space.is_some());
        assert!(plan.tree.is_some());
        assert!(!plan.adaptive);
        assert!(plan.plan_build_ns() > 0);
    }

    /// The leaves-last rewrite touches only count-only plans of a pipeline
    /// that asks for it, with a static, computed order: materializing
    /// plans, `OrderKind::Fixed` and every one of the paper's
    /// per-algorithm pipelines compile exactly `run_order`'s `φ`.
    #[test]
    fn leaves_last_rewrites_only_count_only_plans_that_ask() {
        use crate::enumerate::MatchSemantics;
        use crate::filter::run_filter;
        use crate::order::leaves_last;
        use crate::Algorithm;
        use sm_graph::gen::query::{generate_query_set, Density, QuerySetSpec};
        use sm_graph::gen::rmat::{rmat_graph, RmatParams};

        let g = rmat_graph(300, 5.0, 3, RmatParams::PAPER, 11);
        let gc = DataContext::new(&g);
        let spec = QuerySetSpec {
            num_vertices: 7,
            density: Density::Sparse,
            count: 6,
        };
        let queries = generate_query_set(&g, spec, 3);
        assert!(!queries.is_empty());
        let emit = MatchConfig::default();
        let count = emit
            .clone()
            .with_semantics(MatchSemantics::default().count_only());
        let mut paper: Vec<Pipeline> = Algorithm::all()
            .iter()
            .flat_map(|a| [a.original(), a.optimized()])
            .collect();
        paper.push(crate::algorithm::recommended(&GraphStats::of(&g), 7).0);
        let mut rewritten = 0;
        for q in &queries {
            let qc = QueryContext::new(q);
            for p in &paper {
                let Some(f) = run_filter(p.filter, &qc, &gc) else {
                    continue;
                };
                let input = OrderInput {
                    q: &qc,
                    g: &gc,
                    candidates: &f.candidates,
                    bfs_tree: f.bfs_tree.as_ref(),
                    space: None,
                };
                let phi = run_order(&p.order, &input);
                let order_of = |p: &Pipeline, cfg: &MatchConfig| {
                    p.plan(q, &gc, cfg).expect("satisfiable").order().to_vec()
                };
                let adaptive = p.order == OrderKind::Adaptive;
                let mut asks = p.clone();
                asks.leaves_last = true;
                // Materializing plans never move, asked or not.
                let base = order_of(p, &emit);
                assert_eq!(order_of(&asks, &emit), base, "{} emit", p.name);
                if !adaptive {
                    assert_eq!(base, phi, "{}", p.name);
                }
                let want = if p.leaves_last && !adaptive {
                    leaves_last(q, &phi)
                } else {
                    base.clone()
                };
                assert_eq!(order_of(p, &count), want, "{} count-only", p.name);
                rewritten += usize::from(want != base);
                // A fixed order is taken as given, asked or not.
                let mut fixed = asks.clone();
                fixed.order = OrderKind::Fixed(base.clone());
                assert_eq!(order_of(&fixed, &count), base, "{} fixed", p.name);
            }
        }
        assert!(rewritten > 0, "no query exercised the rewrite");
    }

    /// Only the recommended RI pipeline leaves leaf sets unrefined: every
    /// paper pipeline, and `recommended()` on dense statistics (GraphQL's
    /// order reads candidate sizes), compiles its filter's sets exactly,
    /// count-only or materializing.
    #[test]
    fn only_recommended_ri_plans_leave_leaves_unrefined() {
        use crate::enumerate::MatchSemantics;
        use crate::filter::run_filter;
        use crate::Algorithm;
        use sm_graph::gen::query::{generate_query_set, Density, QuerySetSpec};
        use sm_graph::gen::rmat::{rmat_graph, RmatParams};

        let g = rmat_graph(300, 5.0, 3, RmatParams::PAPER, 11);
        let gc = DataContext::new(&g);
        let spec = QuerySetSpec {
            num_vertices: 7,
            density: Density::Sparse,
            count: 6,
        };
        let queries = generate_query_set(&g, spec, 3);
        let dense = GraphStats {
            avg_degree: 36.0,
            ..GraphStats::of(&g)
        };
        let mut today: Vec<Pipeline> = Algorithm::all()
            .iter()
            .flat_map(|a| [a.original(), a.optimized()])
            .collect();
        today.push(crate::algorithm::recommended(&dense, 7).0);
        let sparse = crate::algorithm::recommended(&GraphStats::of(&g), 7).0;
        let emit = MatchConfig::default();
        let count = emit
            .clone()
            .with_semantics(MatchSemantics::default().count_only());
        let mut unrefined = 0;
        for q in &queries {
            let qc = QueryContext::new(q);
            for cfg in [&emit, &count] {
                for p in &today {
                    let want = run_filter(p.filter, &qc, &gc).map(|f| f.candidates);
                    let got = p.plan(q, &gc, cfg).ok().map(|plan| plan.candidates);
                    assert_eq!(got, want, "{}", p.name);
                }
                let Ok(plan) = sparse.plan(q, &gc, cfg) else {
                    continue;
                };
                let gql = run_filter(FilterKind::GraphQl, &qc, &gc).unwrap();
                for u in q.vertices() {
                    let (got, want) = (plan.candidates.get(u), gql.candidates.get(u));
                    if q.degree(u) == 1 {
                        unrefined += usize::from(got != want);
                    } else {
                        assert_eq!(got, want, "u{u}");
                    }
                }
            }
        }
        assert!(unrefined > 0, "no leaf kept a candidate GraphQL prunes");
    }

    #[test]
    fn adaptive_plan_built_without_filter_tree() {
        // LDF provides no BFS tree; the pipeline must build DP-iso's own.
        let q = paper_query();
        let g = paper_data();
        let gc = DataContext::new(&g);
        let p = Pipeline::new(
            "t",
            FilterKind::Ldf,
            OrderKind::Adaptive,
            LcMethod::Intersect,
        );
        let plan = p.plan(&q, &gc, &MatchConfig::default()).unwrap();
        assert!(plan.adaptive);
        let tree = plan.tree.as_ref().unwrap();
        assert_eq!(plan.order(), tree.order.as_slice());
        let out = p.run(&q, &gc, &MatchConfig::default());
        assert_eq!(out.matches, 1);
    }
}
