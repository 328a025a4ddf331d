//! Pinned search-tree sizes of the adaptive (DP-iso) order.
//!
//! The adaptive next-vertex strategy shares the one candidate loop with
//! the static orders and caches `Σ W` beside each `LC`; neither may change
//! which vertex is chosen at any node. The numbers below were recorded
//! from the last commit that still had a separate adaptive engine
//! (re-summing `W` at every node), so any drift in `matches`,
//! `recursions` or `Backtracks` is a change of search order, not noise.
//! They also predate the counted suffix. An adaptive plan counts only its
//! last level (`suffix_start() == n − 1`), so the count-only runs — which
//! add that level arithmetically — must reproduce them to the digit,
//! capped runs included.

use sm_graph::gen::query::{generate_query_set, Density, QuerySetSpec};
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_graph::Graph;
use sm_match::enumerate::CountSink;
use sm_match::{Algorithm, DataContext, Executor, MatchConfig, MatchSemantics, Pipeline};
use sm_runtime::Counter;

/// `(matches, recursions, backtracks)` summed over sequential runs,
/// once materializing and once count-only; both must agree.
fn totals(p: &Pipeline, queries: &[Graph], g: &Graph, failing_sets: bool) -> (u64, u64, u64) {
    let gc = DataContext::new(g);
    let cfg = MatchConfig {
        max_matches: Some(20_000),
        failing_sets,
        ..Default::default()
    };
    let count_only = cfg
        .clone()
        .with_semantics(MatchSemantics::default().count_only());
    let [emitted, counted] = [cfg, count_only].map(|cfg| {
        let mut sum = (0, 0, 0);
        for q in queries {
            let Ok(plan) = p.plan(q, &gc, &cfg) else {
                continue;
            };
            assert!(plan.adaptive);
            let stats = Executor::new(&plan, g).run(&mut CountSink);
            sum.0 += stats.matches;
            sum.1 += stats.recursions;
            sum.2 += stats.counters.get(Counter::Backtracks);
        }
        sum
    });
    assert_eq!(counted, emitted, "{} count-only fs={failing_sets}", p.name);
    emitted
}

fn pipelines() -> [Pipeline; 2] {
    [Algorithm::DpIso.original(), Algorithm::DpIso.optimized()]
}

#[test]
fn paper_fixture_counts_are_pinned() {
    let q = sm_match::fixtures::paper_query();
    let g = sm_match::fixtures::paper_data();
    for p in pipelines() {
        for fs in [false, true] {
            let got = totals(&p, std::slice::from_ref(&q), &g, fs);
            assert_eq!(got, (1, 4, 4), "{} fs={fs}", p.name);
        }
    }
}

#[test]
fn seeded_rmat_counts_are_pinned() {
    let g = rmat_graph(4_000, 10.0, 10, RmatParams::PAPER, 0xD150);
    let queries = generate_query_set(
        &g,
        QuerySetSpec {
            num_vertices: 10,
            density: Density::Sparse,
            count: 6,
        },
        0xD151,
    );
    assert_eq!(queries.len(), 6);
    for p in pipelines() {
        for fs in [false, true] {
            let got = totals(&p, &queries, &g, fs);
            let want = if fs {
                (61_489, 31_824, 93_307)
            } else {
                (61_489, 58_473, 119_956)
            };
            assert_eq!(got, want, "{} fs={fs}", p.name);
        }
    }
}
