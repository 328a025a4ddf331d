//! The planner itself: rank the combo space, run the best plan, and
//! jump-redo onto the next-ranked combo when the live run blows past its
//! predicted backtrack budget.

use crate::combo::{ComboOrder, PlanCombo};
use crate::estimate::QueryEstimate;
use crate::feedback::{FeedbackStore, ObservedRun};
use crate::model::{filter_prune, ModelParams, PlanScore};
use sm_graph::{Graph, VertexId};
use sm_match::enumerate::parallel::ParallelStrategy;
use sm_match::enumerate::{CollectSink, CountSink};
use sm_match::filter::run_filter;
use sm_match::order::{run_order, OrderInput};
use sm_match::{
    BailoutMonitor, DataContext, Executor, FilterKind, Injectivity, MatchConfig, Outcome,
    PlanSelection, QueryContext,
};
use sm_runtime::trace::{AtomicCounterBlock, Counter, CounterBlock};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Planner tunables.
#[derive(Clone, Copy, Debug)]
pub struct PlannerConfig {
    /// Jump-redo margin: a non-final attempt may spend up to
    /// `margin × best-remaining-predicted-backtracks` before bailing.
    pub margin: f64,
    /// Floor on the bailout budget — tiny predictions should not cause
    /// spurious bails on model noise.
    pub min_budget: u64,
    /// Maximum enumeration attempts per query (first plan + redos). The
    /// final attempt always runs without a monitor so results are exact.
    pub max_attempts: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            margin: 8.0,
            min_budget: 200_000,
            max_attempts: 3,
        }
    }
}

/// One enumeration attempt inside an auto run.
#[derive(Clone, Copy, Debug)]
pub struct Attempt {
    /// The combo attempted.
    pub combo: PlanCombo,
    /// Backtrack budget the monitor enforced (0 on the final, unmonitored
    /// attempt).
    pub budget: u64,
    /// Backtracks the attempt performed.
    pub backtracks: u64,
    /// Whether the monitor cancelled it (a jump-redo).
    pub bailed: bool,
    /// Enumeration-phase nanoseconds.
    pub enum_ns: u64,
    /// Matches the attempt emitted before ending.
    pub matches: u64,
    /// How the attempt ended.
    pub outcome: Outcome,
}

/// Result of [`Planner::run_ranked`] / [`Planner::run_auto`].
#[derive(Clone, Debug)]
pub struct AutoRun {
    /// Matches of the *successful* (non-bailed) attempt.
    pub matches: u64,
    /// Recursions of the successful attempt.
    pub recursions: u64,
    /// Outcome of the successful attempt.
    pub outcome: Outcome,
    /// The combo that produced the answer; `None` when the query was
    /// proven unsatisfiable before enumeration.
    pub combo: Option<PlanCombo>,
    /// End-to-end nanoseconds across every attempt (plans + enumerations,
    /// including bailed work).
    pub total_ns: u64,
    /// Every attempt, in execution order (`attempts.len() - 1` replans).
    pub attempts: Vec<Attempt>,
}

impl AutoRun {
    /// Whether a jump-redo replan happened.
    pub fn replanned(&self) -> bool {
        self.attempts.iter().any(|a| a.bailed)
    }
}

/// Self-tuning planner. Cheap to share (`Arc`); all state is internally
/// synchronized.
#[derive(Debug)]
pub struct Planner {
    cfg: PlannerConfig,
    model: Mutex<ModelParams>,
    feedback: Arc<FeedbackStore>,
    /// `plans_autotuned`, `replans_triggered`, `estimator_evals`, and
    /// the `feedback_records` folded by *this* planner (not the shared
    /// store's total: shards share one store, and counter merges sum).
    counters: AtomicCounterBlock,
}

impl Default for Planner {
    fn default() -> Self {
        Planner::new()
    }
}

impl Planner {
    /// A planner with default tunables and a fresh feedback store.
    pub fn new() -> Planner {
        Planner::with_feedback(PlannerConfig::default(), Arc::new(FeedbackStore::new()))
    }

    /// A planner sharing `feedback` (shards of one deployment pass the
    /// same store so every shard benefits from every observation).
    pub fn with_feedback(cfg: PlannerConfig, feedback: Arc<FeedbackStore>) -> Planner {
        Planner {
            cfg,
            model: Mutex::new(ModelParams::default()),
            feedback,
            counters: AtomicCounterBlock::default(),
        }
    }

    /// The shared feedback store.
    pub fn feedback(&self) -> &Arc<FeedbackStore> {
        &self.feedback
    }

    /// The planner's tallies as a registry block.
    pub fn counters(&self) -> CounterBlock {
        self.counters.snapshot()
    }

    /// Score every combo for `q` against `g` under `cfg`'s semantics and
    /// cap, cheapest predicted cost first. Returns an empty ranking when
    /// LDF already proves the query unsatisfiable.
    ///
    /// Orders are computed once from the LDF candidate sets (a close
    /// proxy for what each filter would feed its ordering method, at a
    /// fraction of the cost of running all seven filters). Homomorphism
    /// queries skip filter scoring — the pipeline bypasses filtering
    /// there, so only LDF-filter combos are ranked.
    pub fn rank(
        &self,
        q: &Graph,
        g: &DataContext<'_>,
        cfg: &MatchConfig,
        canon: u64,
    ) -> Vec<PlanScore> {
        self.counters.bump(Counter::PlansAutotuned);
        let qc = QueryContext::new(q);
        let Some(base) = run_filter(FilterKind::Ldf, &qc, g) else {
            return Vec::new();
        };
        let ldf_total = base.candidates.total() as f64;
        let est = QueryEstimate::build(q, g);
        let cap = cfg.effective_cap();
        let homo = cfg.semantics.injectivity == Injectivity::Homomorphism;
        let filters: &[FilterKind] = if homo {
            &[FilterKind::Ldf]
        } else {
            &FilterKind::all()[..]
        };
        let orders: Vec<(ComboOrder, Vec<VertexId>)> = ComboOrder::ALL
            .into_iter()
            .map(|co| {
                let order = run_order(
                    &co.kind(),
                    &OrderInput {
                        q: &qc,
                        g,
                        candidates: &base.candidates,
                        bfs_tree: base.bfs_tree.as_ref(),
                        space: None,
                    },
                );
                (co, order)
            })
            .collect();
        let model = self.model.lock().unwrap().clone();
        let mut scores = Vec::with_capacity(filters.len() * orders.len() * 4);
        // Observed-vs-modeled cost ratios of this form's completed runs,
        // for calibrating the combos that have no feedback yet.
        let mut ratios: Vec<f64> = Vec::new();
        for &filter in filters {
            let prune = if homo { 1.0 } else { filter_prune(filter) };
            for (co, order) in &orders {
                let walk = est.walk(q, order, prune, cap);
                for combo in PlanCombo::all()
                    .into_iter()
                    .filter(|c| c.filter == filter && c.order == *co)
                {
                    let mut score = model.score(combo, &walk, ldf_total);
                    if let Some(fb) = self.feedback.observed(canon, combo) {
                        score.from_feedback = true;
                        if fb.runs > fb.bailed_runs {
                            // Measured cost beats modeled cost.
                            ratios.push(fb.ema_ns / score.est_ns.max(1.0));
                            score.est_ns = fb.ema_ns;
                            score.est_backtracks = fb.ema_backtracks.max(1.0);
                        } else {
                            // Only bailed runs: the observation is a lower
                            // bound, treat the combo as strictly worse.
                            score.est_ns = score.est_ns.max(fb.ema_ns * 4.0);
                            score.est_backtracks =
                                score.est_backtracks.max(fb.ema_backtracks * 4.0);
                        }
                    }
                    scores.push(score);
                }
            }
        }
        // Per-form calibration: when the model systematically
        // underestimates this query (measured runs cost more than
        // predicted), scale the *unmeasured* combos by the median
        // observed/modeled ratio so a well-measured winner is not
        // displaced by an optimistic never-tried prediction. Only
        // upward (ratio clamped at 1): measured costs may undercut the
        // model freely, unmeasured ones never do.
        if !ratios.is_empty() {
            ratios.sort_by(f64::total_cmp);
            let f = ratios[ratios.len() / 2].max(1.0);
            for s in scores.iter_mut().filter(|s| !s.from_feedback) {
                s.est_ns *= f;
                s.est_backtracks *= f;
            }
        }
        self.counters
            .add(Counter::EstimatorEvals, scores.len() as u64);
        scores.sort_by(|a, b| {
            a.est_ns
                .total_cmp(&b.est_ns)
                .then_with(|| a.combo.id().cmp(&b.combo.id()))
        });
        scores
    }

    /// The best-ranked combo, or `None` when unsatisfiable.
    pub fn choose(
        &self,
        q: &Graph,
        g: &DataContext<'_>,
        cfg: &MatchConfig,
        canon: u64,
    ) -> Option<PlanScore> {
        self.rank(q, g, cfg, canon).into_iter().next()
    }

    /// Fold one observed run into the feedback store and the global model.
    /// Hosting layers call this with counters from *any* completed run
    /// (auto or fixed) so the planner learns from all traffic.
    pub fn observe(&self, canon: u64, obs: &ObservedRun) {
        self.feedback.record(canon, obs);
        self.counters.bump(Counter::FeedbackRecords);
        if obs.completed && !obs.bailed {
            self.model
                .lock()
                .unwrap()
                .learn_node_cost(obs.enum_ns, obs.recursions);
        }
    }

    /// Rank, then execute with jump-redo; count-only.
    pub fn run_auto(
        &self,
        q: &Graph,
        g: &DataContext<'_>,
        cfg: &MatchConfig,
        threads: usize,
    ) -> AutoRun {
        let canon = crate::canon_hash(q);
        let ranked = self.rank(q, g, cfg, canon);
        self.run_ranked(q, g, cfg, canon, &ranked, threads, false).0
    }

    /// Rank, then execute with jump-redo, collecting every embedding of
    /// the successful attempt (bailed attempts' partial output is
    /// discarded — only the surviving attempt's matches are returned).
    pub fn collect_auto(
        &self,
        q: &Graph,
        g: &DataContext<'_>,
        cfg: &MatchConfig,
        threads: usize,
    ) -> (AutoRun, Vec<Vec<VertexId>>) {
        let canon = crate::canon_hash(q);
        let ranked = self.rank(q, g, cfg, canon);
        let (run, collected) = self.run_ranked(q, g, cfg, canon, &ranked, threads, true);
        (run, collected.unwrap_or_default())
    }

    /// Execute `ranked` (as produced by [`Planner::rank`], or any caller-
    /// supplied order — the bench's forced-mispredict experiment passes
    /// `[worst, best]`) with jump-redo replanning:
    ///
    /// * attempt `i` runs under a [`BailoutMonitor`] whose budget is
    ///   `margin × min(est_backtracks of the remaining attempts)` — the
    ///   point where abandoning the plan and redoing the query under the
    ///   next combo is predicted cheaper than continuing;
    /// * a bailed attempt records its (lower-bound) cost as feedback and
    ///   falls through to the next combo;
    /// * the final attempt runs unmonitored, so the answer is always
    ///   exact.
    #[allow(clippy::too_many_arguments)]
    pub fn run_ranked(
        &self,
        q: &Graph,
        g: &DataContext<'_>,
        cfg: &MatchConfig,
        canon: u64,
        ranked: &[PlanScore],
        threads: usize,
        collect: bool,
    ) -> (AutoRun, Option<Vec<Vec<VertexId>>>) {
        let mut attempts = Vec::new();
        let mut total_ns = 0u64;
        if ranked.is_empty() {
            // Unsatisfiable before enumeration (empty LDF candidates).
            return (
                AutoRun {
                    matches: 0,
                    recursions: 0,
                    outcome: Outcome::Complete,
                    combo: None,
                    total_ns,
                    attempts,
                },
                collect.then(Vec::new),
            );
        }
        let max_attempts = self.cfg.max_attempts.clamp(1, ranked.len());
        for (i, score) in ranked.iter().take(max_attempts).enumerate() {
            let last = i + 1 == max_attempts;
            let best_remaining = ranked[i..max_attempts]
                .iter()
                .map(|s| s.est_backtracks)
                .fold(f64::INFINITY, f64::min);
            let budget = ((best_remaining * self.cfg.margin) as u64).max(self.cfg.min_budget);
            let monitor = (!last).then(|| BailoutMonitor::new(budget));
            let mut run_cfg = cfg.clone();
            run_cfg.plan = PlanSelection::Fixed;
            run_cfg.intersect = score.combo.kernel;
            run_cfg.bailout = monitor.clone();
            let start = Instant::now();
            let plan = match score.combo.pipeline().plan(q, g, &run_cfg) {
                Ok(p) => p,
                Err(_filter_time) => {
                    // This combo's filter proved the query unsatisfiable —
                    // filters are complete, so the answer is exact.
                    total_ns += start.elapsed().as_nanos() as u64;
                    return (
                        AutoRun {
                            matches: 0,
                            recursions: 0,
                            outcome: Outcome::Complete,
                            combo: Some(score.combo),
                            total_ns,
                            attempts,
                        },
                        collect.then(Vec::new),
                    );
                }
            };
            let exec = Executor::new(&plan, g.graph);
            let enum_start = Instant::now();
            let (stats, collected) = if collect {
                if threads <= 1 {
                    let mut sink = CollectSink::default();
                    let stats = exec.run(&mut sink);
                    (stats, Some(sink.matches))
                } else {
                    let (stats, sinks) =
                        exec.run_parallel::<CollectSink>(threads, ParallelStrategy::Morsel);
                    (
                        stats,
                        Some(sinks.into_iter().flat_map(|s| s.matches).collect()),
                    )
                }
            } else if threads <= 1 {
                let mut sink = CountSink;
                (exec.run(&mut sink), None)
            } else {
                let (stats, _) = exec.run_parallel::<CountSink>(threads, ParallelStrategy::Morsel);
                (stats, None)
            };
            let enum_ns = enum_start.elapsed().as_nanos() as u64;
            total_ns += start.elapsed().as_nanos() as u64;
            let bailed = monitor.as_ref().is_some_and(|m| m.triggered());
            let backtracks = stats.counters.get(Counter::Backtracks);
            self.observe(
                canon,
                &ObservedRun {
                    combo: score.combo,
                    total_ns: start.elapsed().as_nanos() as u64,
                    enum_ns,
                    recursions: stats.recursions,
                    backtracks,
                    completed: stats.outcome == Outcome::Complete && !bailed,
                    bailed,
                },
            );
            attempts.push(Attempt {
                combo: score.combo,
                budget: monitor.as_ref().map_or(0, |m| m.budget()),
                backtracks,
                bailed,
                enum_ns,
                matches: stats.matches,
                outcome: stats.outcome,
            });
            if bailed {
                self.counters.bump(Counter::ReplansTriggered);
                continue;
            }
            return (
                AutoRun {
                    matches: stats.matches,
                    recursions: stats.recursions,
                    outcome: stats.outcome,
                    combo: Some(score.combo),
                    total_ns,
                    attempts,
                },
                collected,
            );
        }
        unreachable!("the final attempt runs unmonitored and cannot bail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_match::fixtures::{paper_data, paper_query};

    #[test]
    fn rank_scores_full_space_and_sorts() {
        let q = paper_query();
        let g = paper_data();
        let ctx = DataContext::new(&g);
        let planner = Planner::new();
        let canon = crate::canon_hash(&q);
        let ranked = planner.rank(&q, &ctx, &MatchConfig::default(), canon);
        assert_eq!(ranked.len(), 168);
        assert!(ranked.windows(2).all(|w| w[0].est_ns <= w[1].est_ns));
        let c = planner.counters();
        assert_eq!(c.get(Counter::PlansAutotuned), 1);
        assert_eq!(c.get(Counter::EstimatorEvals), 168);
    }

    #[test]
    fn run_auto_matches_reference_count() {
        let q = paper_query();
        let g = paper_data();
        let ctx = DataContext::new(&g);
        let planner = Planner::new();
        let run = planner.run_auto(&q, &ctx, &MatchConfig::default(), 1);
        assert_eq!(run.matches, 1); // the fixture's single embedding
        assert_eq!(run.outcome, Outcome::Complete);
        assert!(!run.replanned());
        assert_eq!(run.attempts.len(), 1);
    }

    #[test]
    fn feedback_reranks_toward_observed_winner() {
        let q = paper_query();
        let g = paper_data();
        let ctx = DataContext::new(&g);
        let planner = Planner::new();
        let canon = crate::canon_hash(&q);
        let ranked = planner.rank(&q, &ctx, &MatchConfig::default(), canon);
        // Report the model's 10th choice as dramatically fast.
        let fast = ranked[9].combo;
        for _ in 0..3 {
            planner.observe(
                canon,
                &ObservedRun {
                    combo: fast,
                    total_ns: 1,
                    enum_ns: 1,
                    recursions: 1,
                    backtracks: 1,
                    completed: true,
                    bailed: false,
                },
            );
        }
        let reranked = planner.rank(&q, &ctx, &MatchConfig::default(), canon);
        assert_eq!(reranked[0].combo, fast);
        assert!(reranked[0].from_feedback);
        // A different canonical form is unaffected.
        let other = planner.rank(&q, &ctx, &MatchConfig::default(), canon ^ 1);
        assert!(!other[0].from_feedback);
    }

    #[test]
    fn forced_mispredict_bails_and_redoes() {
        use sm_graph::gen::query::{extract_query, Density};
        use sm_graph::gen::rmat::{rmat_graph, RmatParams};
        use sm_runtime::rng::Rng64;
        // A workload big enough that enumeration crosses poll boundaries:
        // 2 labels on 2k vertices gives every plan plenty of backtracks.
        let g = rmat_graph(2_000, 8.0, 2, RmatParams::PAPER, 11);
        let mut rng = Rng64::seed_from_u64(3);
        let q = (0..64)
            .find_map(|_| extract_query(&g, 6, Density::Sparse, &mut rng))
            .expect("query extraction");
        let ctx = DataContext::new(&g);
        let planner = Planner::with_feedback(
            PlannerConfig {
                margin: 0.0,
                min_budget: 1,
                max_attempts: 2,
            },
            Arc::new(FeedbackStore::new()),
        );
        let canon = crate::canon_hash(&q);
        let cfg = MatchConfig::default();
        let ranked = planner.rank(&q, &ctx, &cfg, canon);
        // First attempt gets a 1-backtrack budget: it must bail, and the
        // second (final) attempt must still produce the exact answer.
        let (run, _) = planner.run_ranked(&q, &ctx, &cfg, canon, &ranked, 1, false);
        assert_eq!(run.attempts.len(), 2);
        assert!(run.attempts[0].bailed);
        assert!(!run.attempts[1].bailed);
        assert!(run.replanned());
        // The redo's answer equals a plain fixed run of the same combo
        // (both are cap-bounded identically).
        let plan = run.combo.unwrap().pipeline().plan(&q, &ctx, &cfg).unwrap();
        let mut sink = CountSink;
        let reference = Executor::new(&plan, ctx.graph).run(&mut sink);
        assert_eq!(run.matches, reference.matches);
        assert_eq!(planner.counters().get(Counter::ReplansTriggered), 1);
    }

    #[test]
    fn unsatisfiable_query_short_circuits() {
        use sm_graph::builder::graph_from_edges;
        let q = graph_from_edges(&[9, 9], &[(0, 1)]); // label absent from data
        let g = paper_data();
        let ctx = DataContext::new(&g);
        let planner = Planner::new();
        let run = planner.run_auto(&q, &ctx, &MatchConfig::default(), 1);
        assert_eq!(run.matches, 0);
        assert_eq!(run.outcome, Outcome::Complete);
        assert!(run.combo.is_none());
        assert!(run.attempts.is_empty());
    }
}
