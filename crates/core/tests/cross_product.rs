//! Cross-product smoke test: every (filter × order × LC-method) pipeline
//! must report the same match count on the same workload — sequentially
//! and with 4 workers sharing one compiled plan — the adaptive order also
//! with failing sets on, and the morsel path must actually reuse its
//! per-worker scratch arenas.

use sm_graph::gen::query::{extract_query, Density};
use sm_graph::gen::random::erdos_renyi;
use sm_graph::Graph;
use sm_match::enumerate::parallel::ParallelStrategy;
use sm_match::enumerate::{LcMethod, MatchConfig};
use sm_match::filter::FilterKind;
use sm_match::order::OrderKind;
use sm_match::reference::brute_force_count;
use sm_match::{DataContext, Pipeline};
use sm_runtime::rng::Rng64;

const METHODS: [LcMethod; 4] = [
    LcMethod::Direct,
    LcMethod::CandidateScan,
    LcMethod::TreeIndex,
    LcMethod::Intersect,
];

/// Run all combinations on one workload; every combo must agree with
/// `want` at 1 thread and at 4 threads (morsel and static distribution).
fn check_all_combos(q: &Graph, g: &Graph, want: u64) {
    let gc = DataContext::new(g);
    let cfg = MatchConfig::find_all();
    for filter in FilterKind::all() {
        for order in OrderKind::all_static() {
            for method in METHODS {
                let name = format!("{filter:?}/{order:?}/{method:?}");
                let p = Pipeline::new(&name, filter, order.clone(), method);
                let seq = p.run(q, &gc, &cfg);
                assert_eq!(seq.matches, want, "sequential {name}");
                for strategy in [ParallelStrategy::Morsel, ParallelStrategy::Static] {
                    let par = p.run_parallel_with(q, &gc, &cfg, 4, strategy);
                    assert_eq!(par.matches, want, "{strategy:?} x4 {name}");
                }
            }
        }
    }
}

/// The adaptive order × every filter × failing sets {off, on} × threads
/// {1, 4}: the one instantiation pair `check_all_combos` (failing sets
/// off) does not reach, dealt across workers like any static plan.
fn check_adaptive_combos(q: &Graph, g: &Graph, want: u64, expect_pool: bool) {
    let gc = DataContext::new(g);
    for filter in FilterKind::all() {
        for failing_sets in [false, true] {
            let cfg = MatchConfig {
                failing_sets,
                ..MatchConfig::find_all()
            };
            let name = format!("{filter:?}/Adaptive fs={failing_sets}");
            let p = Pipeline::new(&name, filter, OrderKind::Adaptive, LcMethod::Intersect);
            assert_eq!(p.run(q, &gc, &cfg).matches, want, "sequential {name}");
            for strategy in [ParallelStrategy::Morsel, ParallelStrategy::Static] {
                let par = p.run_parallel_with(q, &gc, &cfg, 4, strategy);
                assert_eq!(par.matches, want, "{strategy:?} x4 {name}");
                if expect_pool {
                    let pool = par.parallel.expect("adaptive plans run on the pool");
                    assert!(pool.total_morsels() > 1, "{strategy:?} x4 {name}");
                }
            }
        }
    }
}

#[test]
fn all_combos_agree_on_the_paper_fixture() {
    let q = sm_match::fixtures::paper_query();
    let g = sm_match::fixtures::paper_data();
    let want = brute_force_count(&q, &g, None);
    assert_eq!(want, 1);
    check_all_combos(&q, &g, want);
    check_adaptive_combos(&q, &g, want, false);
}

#[test]
fn all_combos_agree_on_a_random_workload() {
    let g = erdos_renyi(120, 420, 3, 0xC0FFEE);
    let mut rng = Rng64::seed_from_u64(7);
    let q = (0..50)
        .find_map(|_| extract_query(&g, 5, Density::Any, &mut rng))
        .expect("workload generation");
    let want = brute_force_count(&q, &g, None);
    check_all_combos(&q, &g, want);
    check_adaptive_combos(&q, &g, want, true);
}

#[test]
fn morsel_workers_reuse_their_scratch_arenas() {
    // Few labels on a larger graph → many depth-0 roots → every worker
    // drains several morsels, so each reuses its arena after the first.
    let g = erdos_renyi(400, 1200, 2, 0xBEEF);
    let mut rng = Rng64::seed_from_u64(11);
    let q = (0..50)
        .find_map(|_| extract_query(&g, 4, Density::Any, &mut rng))
        .expect("workload generation");
    let gc = DataContext::new(&g);
    let cfg = MatchConfig::find_all();
    let p = Pipeline::new(
        "GQL/GQL/Intersect",
        FilterKind::GraphQl,
        OrderKind::GraphQl,
        LcMethod::Intersect,
    );
    let out = p.run_parallel_with(&q, &gc, &cfg, 4, ParallelStrategy::Morsel);
    let seq = p.run(&q, &gc, &cfg);
    assert_eq!(out.matches, seq.matches);
    assert!(
        out.scratch_reuse > 0,
        "morsel steady state must reuse worker scratch (got {})",
        out.scratch_reuse
    );
    let pool = out.parallel.expect("parallel metrics");
    assert_eq!(pool.total_scratch_reuse(), out.scratch_reuse);
}
