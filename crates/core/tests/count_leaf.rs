//! The count leaf against the per-leaf loop: a count-only run adds the
//! last level of the search in one step (`Engine::count_last`), a
//! materializing run of the same plan still claims, emits and releases
//! every leaf. Both must report the same `matches` and outcome on every
//! cell, and — sequentially — the same search tree: `recursions`,
//! `Backtracks` and `PeakDepth` to the digit.
//!
//! The data graphs carry 2–4 labels, so query vertices often share a
//! label and same-label collisions at the leaf are common; the caps land
//! before, at and after the true count and in the middle of one leaf's
//! `LC`.

use sm_graph::gen::query::{generate_query_set, Density, QuerySetSpec};
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_graph::{Graph, VertexId};
use sm_intersect::IntersectKind;
use sm_match::enumerate::parallel::ParallelStrategy;
use sm_match::enumerate::{CollectSink, EnumStats};
use sm_match::filter::FilterKind;
use sm_match::order::OrderKind;
use sm_match::{
    DataContext, Executor, Injectivity, LcMethod, MatchConfig, MatchSemantics, Pipeline, QueryPlan,
};
use sm_runtime::check::Check;
use sm_runtime::{ensure_eq, Counter};

/// Cells whose true count exceeds this are skipped (homomorphism counts
/// on a skewed graph can be large, and the oracle run collects them all).
const LIMIT: u64 = 20_000;

const KERNELS: [IntersectKind; 4] = [
    IntersectKind::Merge,
    IntersectKind::Galloping,
    IntersectKind::Hybrid,
    IntersectKind::Bsr,
];

/// `(data seed, labels, query seed, query size)`.
fn arb_workload(rng: &mut sm_runtime::rng::Rng64, size: u32) -> (u64, usize, u64, usize) {
    let qsize = 3 + (size as usize * 3 / 100).min(2); // 3..=5
    (
        rng.gen_range(0..5000u64),
        rng.gen_range(2..5usize),
        rng.gen_range(0..5000u64),
        qsize,
    )
}

fn workload(&(ds, labels, qs, qsize): &(u64, usize, u64, usize)) -> Option<(Graph, Graph)> {
    let g = rmat_graph(160, 5.0, labels, RmatParams::PAPER, ds);
    let spec = QuerySetSpec {
        num_vertices: qsize,
        density: Density::Any,
        count: 1,
    };
    let q = generate_query_set(&g, spec, qs).pop()?;
    Some((g, q))
}

/// Every pipeline the matrix covers: each static order with `Intersect`
/// under all four kernels plus `Direct` (a non-`Intersect` method whose
/// `LC` holds data vertices), and the adaptive order under all four
/// kernels.
fn pipelines(filter: FilterKind) -> Vec<(Pipeline, IntersectKind)> {
    let mut out = Vec::new();
    for order in OrderKind::all_static() {
        let adaptive = order == OrderKind::Adaptive;
        for kernel in KERNELS {
            let p = Pipeline::new("intersect", filter, order.clone(), LcMethod::Intersect);
            out.push((p, kernel));
        }
        if !adaptive {
            let p = Pipeline::new("direct", filter, order, LcMethod::Direct);
            out.push((p, IntersectKind::Hybrid));
        }
    }
    out
}

fn run(plan: &QueryPlan, g: &Graph, threads: usize) -> (EnumStats, Vec<Vec<VertexId>>) {
    let (stats, sinks) =
        Executor::new(plan, g).run_parallel::<CollectSink>(threads, ParallelStrategy::Morsel);
    let rows = sinks.into_iter().flat_map(|s| s.matches).collect();
    (stats, rows)
}

/// A cap that stops the run after the first member of a leaf with two
/// or more: consecutive embeddings that differ in one query vertex only
/// — the last one mapped (the order's last under a static order) — are
/// siblings in one `LC`.
fn mid_leaf_cap(rows: &[Vec<VertexId>], last: Option<VertexId>) -> Option<u64> {
    rows.windows(2)
        .position(|w| {
            let mut diff = (0..w[0].len()).filter(|&i| w[0][i] != w[1][i]);
            match (diff.next(), diff.next()) {
                (Some(i), None) => last.is_none_or(|l| l as usize == i),
                _ => false,
            }
        })
        .map(|i| i as u64 + 1)
}

#[test]
fn count_leaf_equals_per_leaf_loop() {
    let filters = [FilterKind::Ldf, FilterKind::GraphQl, FilterKind::DpIso];
    Check::new("count_leaf_equals_per_leaf_loop").cases(9).run(
        |rng, size| (arb_workload(rng, size), rng.gen_range(0..filters.len())),
        |(w, fi)| {
            let Some((g, q)) = workload(w) else {
                return Ok(());
            };
            let gc = DataContext::new(&g);
            for (p, kernel) in pipelines(filters[*fi]) {
                for inj in [
                    Injectivity::Isomorphism,
                    Injectivity::Homomorphism,
                    Injectivity::EdgeInjective,
                ] {
                    let fs_modes: &[bool] = if inj == Injectivity::Isomorphism {
                        &[false, true]
                    } else {
                        &[false]
                    };
                    for &fs in fs_modes {
                        let sem = MatchSemantics {
                            injectivity: inj,
                            ..MatchSemantics::default()
                        };
                        let base = MatchConfig {
                            intersect: kernel,
                            ..MatchConfig::find_all()
                        }
                        .with_failing_sets(fs)
                        .with_semantics(sem);
                        let bounded = MatchConfig {
                            max_matches: Some(LIMIT + 1),
                            ..base.clone()
                        };
                        let Ok(full) = p.plan(&q, &gc, &bounded) else {
                            continue;
                        };
                        let (truth, rows) = run(&full, &g, 1);
                        let t = truth.matches;
                        if t > LIMIT {
                            continue;
                        }
                        let last = (!full.adaptive).then(|| *full.order().last().unwrap());
                        let mut caps = vec![None, Some(1), Some(t.saturating_sub(1)), Some(t)];
                        caps.push(Some(t + 1));
                        caps.extend(mid_leaf_cap(&rows, last).map(Some));
                        for cap in caps {
                            let emit = MatchConfig {
                                max_matches: cap,
                                ..base.clone()
                            };
                            let count = emit.clone().with_semantics(sem.count_only());
                            let plans = (
                                p.plan(&q, &gc, &emit).expect("satisfiable"),
                                p.plan(&q, &gc, &count).expect("satisfiable"),
                            );
                            for threads in [1, 2, 4] {
                                let cell = format!(
                                    "{} {} {:?} {} fs={fs} cap={cap:?} threads={threads} \
                                     workload={w:?}",
                                    p.name,
                                    p.order.name(),
                                    kernel,
                                    inj.name(),
                                );
                                let (m, _) = run(&plans.0, &g, threads);
                                let (c, _) = run(&plans.1, &g, threads);
                                ensure_eq!(m.matches, c.matches, "matches: {cell}");
                                ensure_eq!(m.outcome, c.outcome, "outcome: {cell}");
                                if threads == 1 {
                                    ensure_eq!(m.recursions, c.recursions, "recursions: {cell}");
                                    for ctr in [Counter::Backtracks, Counter::PeakDepth] {
                                        ensure_eq!(
                                            m.counters.get(ctr),
                                            c.counters.get(ctr),
                                            "{ctr:?}: {cell}"
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
            Ok(())
        },
    );
}
