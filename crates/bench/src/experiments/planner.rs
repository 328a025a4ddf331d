//! Self-tuning planner evaluation (`experiments planner`): Auto plan
//! selection vs fixed filter/order/kernel combos on Yeast and a seeded
//! RMAT graph.
//!
//! Per query, a fixed **panel** of representative combos (one per filter
//! family, spanning orders and kernels) is measured end to end; the
//! planner then runs the same query twice:
//!
//! * **auto-cold** — a first-arrival run: ranking from the cost model
//!   alone (no feedback for this form yet) plus the enumeration, with
//!   jump-redo enabled;
//! * **auto-warm** — the steady state after the panel measurements were
//!   folded into the feedback store: the form is ranked once and the
//!   ranking reused across [`WARM_RUNS`] repeat runs, exactly how the
//!   service tier's plan cache amortizes plan selection per canonical
//!   form. The reported time is the per-run mean including the
//!   amortized ranking.
//!
//! The table reports per-query best/worst fixed panel times against both
//! auto passes. A forced-mispredict row demonstrates the jump-redo path:
//! the measured-worst combo is deliberately ranked first and the run must
//! bail mid-enumeration and redo under the next combo, still producing
//! the reference count.
//!
//! The experiment is also a correctness and regression smoke (CI runs
//! it): every completed auto count is asserted equal to the completed
//! fixed counts, the forced mispredict must actually replan, and the
//! warm auto total must stay within [`AUTO_GATE`]× of the per-query best
//! fixed total.

use crate::args::HarnessOptions;
use crate::table::{ms, TextTable};
use sm_graph::gen::query::{generate_query_set, Density, QuerySetSpec};
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_graph::Graph;
use sm_match::{DataContext, MatchConfig, Outcome};
use sm_planner::{canon_hash, FeedbackStore, ObservedRun, PlanCombo, Planner, PlannerConfig};
use std::sync::Arc;
use std::time::Instant;

/// CI gate: warm auto may cost at most this factor of the per-query best
/// fixed total (planning overhead included).
pub const AUTO_GATE: f64 = 1.5;

/// Repeat runs the warm pass amortizes one ranking over — the plan-cache
/// steady state of the service tier (a hot form is ranked once, then
/// served from the cache).
const WARM_RUNS: usize = 8;

/// The fixed-combo comparison panel: one combo per filter family,
/// spanning the order heuristics and all four kernels. Best/worst are
/// defined over this panel (measuring all 168 combos per query would
/// dwarf the experiment).
const PANEL: [&str; 8] = [
    "LDF/QSI/Merge",
    "NLF/RI/Galloping",
    "GQL/GQL/Merge",
    "CFL/CFL/Hybrid",
    "CECI/CECI/QFilter",
    "DP/RI/Hybrid",
    "STEADY/VF2PP/QFilter",
    "LDF/GQL/Hybrid",
];

struct FixedRun {
    combo: PlanCombo,
    total_ns: u64,
    matches: u64,
    complete: bool,
    recursions: u64,
}

struct QueryRow {
    name: String,
    best: FixedRun,
    worst_label: String,
    worst_ns: u64,
    cold_ns: u64,
    warm_ns: u64,
}

/// Run one fixed panel combo end to end (filter + order + build + enum).
fn run_fixed(combo: PlanCombo, q: &Graph, ctx: &DataContext<'_>, cfg: &MatchConfig) -> FixedRun {
    let mut run_cfg = cfg.clone();
    run_cfg.intersect = combo.kernel;
    let out = combo.pipeline().run(q, ctx, &run_cfg);
    FixedRun {
        combo,
        total_ns: out.total_time().as_nanos() as u64,
        matches: out.matches,
        complete: out.outcome == Outcome::Complete,
        recursions: out.recursions,
    }
}

/// Evaluate one dataset; returns the per-query rows.
fn run_dataset(
    name: &str,
    graph: &Graph,
    queries: &[Graph],
    cfg: &MatchConfig,
    table: &mut TextTable,
) -> Vec<QueryRow> {
    let ctx = DataContext::new(graph);
    let panel: Vec<PlanCombo> = PANEL
        .iter()
        .map(|l| PlanCombo::parse(l).expect("panel labels parse"))
        .collect();
    let planner = Planner::new();
    let mut rows = Vec::new();
    for (qi, q) in queries.iter().enumerate() {
        let qname = format!("{name}/q{qi}");
        let canon = canon_hash(q);

        // Auto-cold first: the model alone, before any feedback exists
        // for this canonical form (the planner observes its own runs, so
        // order matters).
        let t0 = Instant::now();
        let cold = planner.run_auto(q, &ctx, cfg, 1);
        let cold_ns = t0.elapsed().as_nanos() as u64;

        // The fixed panel, every run folded into the planner's feedback
        // store — this is the cross-run learning signal the warm pass
        // ranks with. Backtracks are proxied by recursions (every visited
        // node is eventually retracted; the pipeline API does not expose
        // the exact counter).
        let fixed: Vec<FixedRun> = panel.iter().map(|&c| run_fixed(c, q, &ctx, cfg)).collect();
        for f in &fixed {
            planner.observe(
                canon,
                &ObservedRun {
                    combo: f.combo,
                    total_ns: f.total_ns,
                    enum_ns: f.total_ns,
                    recursions: f.recursions,
                    backtracks: f.recursions,
                    completed: f.complete,
                    bailed: false,
                },
            );
        }
        let best_idx = (0..fixed.len())
            .min_by_key(|&i| fixed[i].total_ns)
            .expect("panel nonempty");
        let worst_idx = (0..fixed.len())
            .max_by_key(|&i| fixed[i].total_ns)
            .expect("panel nonempty");
        let worst_ns = fixed[worst_idx].total_ns;
        let worst_label = fixed[worst_idx].combo.label();

        // Warm steady state: one feedback-informed ranking, reused for
        // every repeat (the plan cache's behavior), timed per run with
        // the ranking amortized in.
        let t1 = Instant::now();
        let ranked = planner.rank(q, &ctx, cfg, canon);
        let rank_ns = t1.elapsed().as_nanos() as u64;
        let mut warm_bails = 0usize;
        let mut warm_run_ns = 0u64;
        let mut warm_last = None;
        for _ in 0..WARM_RUNS {
            let t = Instant::now();
            let (run, _) = planner.run_ranked(q, &ctx, cfg, canon, &ranked, 1, false);
            warm_run_ns += t.elapsed().as_nanos() as u64;
            warm_bails += run.attempts.iter().filter(|a| a.bailed).count();
            warm_last = Some(run);
        }
        let warm = warm_last.expect("WARM_RUNS > 0");
        let warm_ns = (rank_ns + warm_run_ns) / WARM_RUNS as u64;

        // Completed runs of any plan agree exactly — the correctness
        // smoke this experiment doubles as.
        if let Some(r) = fixed.iter().find(|f| f.complete) {
            for f in fixed.iter().filter(|f| f.complete) {
                assert_eq!(
                    f.matches,
                    r.matches,
                    "{qname}: fixed {} and {} disagree",
                    f.combo.label(),
                    r.combo.label()
                );
            }
            if cold.outcome == Outcome::Complete {
                assert_eq!(cold.matches, r.matches, "{qname}: auto-cold count diverges");
            }
            if warm.outcome == Outcome::Complete {
                assert_eq!(warm.matches, r.matches, "{qname}: auto-warm count diverges");
            }
        }

        let replans = (cold.attempts.iter().filter(|a| a.bailed).count() + warm_bails) as u64;
        let warm_combo = warm.combo.map_or("unsat".to_string(), |c| c.label());
        table.row(vec![
            qname.clone(),
            format!(
                "{} {}",
                ms(fixed[best_idx].total_ns as f64 / 1e6),
                fixed[best_idx].combo.label()
            ),
            format!("{} {}", ms(worst_ns as f64 / 1e6), worst_label),
            ms(cold_ns as f64 / 1e6),
            ms(warm_ns as f64 / 1e6),
            warm_combo.clone(),
            replans.to_string(),
        ]);
        let best = fixed.into_iter().nth(best_idx).expect("index in range");
        rows.push(QueryRow {
            name: qname,
            best,
            worst_label,
            worst_ns,
            cold_ns,
            warm_ns,
        });
    }
    rows
}

/// Demonstrate the jump-redo path on the heaviest query: rank the
/// measured-worst combo first, the measured-best second, and run with a
/// tiny bailout budget. The first attempt must bail mid-enumeration and
/// the redo must still produce the reference count.
fn forced_mispredict(
    name: &str,
    graph: &Graph,
    q: &Graph,
    cfg: &MatchConfig,
    worst: &str,
    best: &str,
) -> Option<u64> {
    let ctx = DataContext::new(graph);
    let demo = Planner::with_feedback(
        PlannerConfig {
            margin: 0.0,
            min_budget: 1,
            max_attempts: 2,
        },
        Arc::new(FeedbackStore::new()),
    );
    let canon = canon_hash(q);
    let ranked = demo.rank(q, &ctx, cfg, canon);
    let pick = |label: &str| ranked.iter().find(|s| s.combo.label() == label).copied();
    let misranked = vec![pick(worst)?, pick(best)?];
    let (run, _) = demo.run_ranked(q, &ctx, cfg, canon, &misranked, 1, false);
    let replans = run.attempts.iter().filter(|a| a.bailed).count() as u64;
    println!(
        "jump-redo on {name}: misranked {worst} first -> {} attempts, {replans} replan(s), {} matches via {}",
        run.attempts.len(),
        run.matches,
        run.combo.map_or("unsat".to_string(), |c| c.label()),
    );
    Some(replans)
}

/// Run the planner experiment.
pub fn run(opts: &HarnessOptions) {
    let count = opts.queries.clamp(2, 6);
    let specs = super::datasets_for(opts, &["ye"]);
    let Some(spec) = specs.first() else {
        eprintln!("planner: no dataset resolved");
        return;
    };
    let ds = super::load(spec);
    // 16-vertex dense queries: heavy enough that enumeration dominates
    // the per-query planning overhead the auto passes pay.
    let yeast_queries = super::query_set(
        &ds,
        QuerySetSpec {
            num_vertices: 16,
            density: Density::Dense,
            count,
        },
    );
    // A labelled power-law graph the repo generates rather than ships:
    // same generator family as the scaling experiments, seeded from
    // --seed so runs are reproducible.
    let rmat = rmat_graph(10_000, 8.0, 4, RmatParams::PAPER, opts.seed ^ 0xA11CE);
    let rmat_queries: Vec<Graph> = generate_query_set(
        &rmat,
        QuerySetSpec {
            num_vertices: 6,
            density: Density::Sparse,
            count,
        },
        opts.seed ^ 0x9E37,
    )
    .into_iter()
    .filter(|q| q.num_edges() >= 1)
    .collect();
    println!(
        "\n=== Planner: auto vs {}-combo fixed panel on {} + RMAT-10k ({} queries each, seed {}) ===",
        PANEL.len(),
        spec.name,
        count,
        opts.seed,
    );
    let mut table = TextTable::new(vec![
        "query",
        "best fixed",
        "worst fixed",
        "auto cold",
        "auto warm",
        "auto combo",
        "replans",
    ]);
    let cfg = MatchConfig::default().with_time_limit(opts.time_limit);
    let mut all_rows = Vec::new();
    for (name, graph, queries) in [
        (spec.name, &ds.graph, &yeast_queries),
        ("rmat-10k", &rmat, &rmat_queries),
    ] {
        all_rows.extend(run_dataset(name, graph, queries, &cfg, &mut table));
    }
    table.print();

    let best_total: u64 = all_rows.iter().map(|r| r.best.total_ns).sum();
    let worst_total: u64 = all_rows.iter().map(|r| r.worst_ns).sum();
    let cold_total: u64 = all_rows.iter().map(|r| r.cold_ns).sum();
    let warm_total: u64 = all_rows.iter().map(|r| r.warm_ns).sum();
    let vs_best = warm_total as f64 / best_total.max(1) as f64;
    let vs_worst = worst_total as f64 / warm_total.max(1) as f64;
    println!(
        "totals: best fixed {} | worst fixed {} | auto cold {} | auto warm {}",
        ms(best_total as f64 / 1e6),
        ms(worst_total as f64 / 1e6),
        ms(cold_total as f64 / 1e6),
        ms(warm_total as f64 / 1e6),
    );
    println!(
        "auto-warm (ranking amortized over {WARM_RUNS} runs) vs per-query best fixed: {vs_best:.2}x (target <= 1.2x, gate <= {AUTO_GATE}x); worst fixed vs auto-warm: {vs_worst:.1}x (target >= 2x)"
    );

    // Jump-redo demonstration: the heaviest query (most best-plan
    // recursions) from whichever dataset provides one deep enough to
    // cross the engine's poll boundary.
    let demo_row = all_rows
        .iter()
        .filter(|r| r.best.recursions > 4096 && r.worst_label != r.best.combo.label())
        .max_by_key(|r| r.best.recursions);
    let demo_replans = demo_row
        .and_then(|r| {
            let (name, idx) = r.name.rsplit_once("/q").expect("row name format");
            let qi: usize = idx.parse().expect("row index");
            let (graph, queries): (&Graph, &Vec<Graph>) = if name == "rmat-10k" {
                (&rmat, &rmat_queries)
            } else {
                (&ds.graph, &yeast_queries)
            };
            forced_mispredict(
                name,
                graph,
                &queries[qi],
                &cfg,
                &r.worst_label,
                &r.best.combo.label(),
            )
        })
        .unwrap_or(0);
    assert!(
        demo_replans >= 1,
        "forced mispredict must trigger at least one jump-redo replan"
    );
    assert!(
        vs_best <= AUTO_GATE,
        "auto-warm total {vs_best:.2}x exceeds the {AUTO_GATE}x gate over best fixed"
    );
}
