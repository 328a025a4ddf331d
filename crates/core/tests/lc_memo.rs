//! The static order's local-candidate memo must be invisible. A depth
//! reuses `LC(u, M)` while the positions of `u`'s backward neighbours stay
//! put, and keeps the intersection of all backward lists but the deepest
//! one's (a bitmap on BSR plans) while those stay put. Neither may change
//! an answer or the search tree.
//!
//! The queries are matched in fixed orders chosen so that vertices have
//! two or three backward neighbours mapped at non-adjacent depths: a
//! 6-cycle with a chord, a 4-cycle, K4 minus an edge and two triangles
//! sharing a vertex. The data graphs are seeded RMAT graphs with 2–4
//! labels. Every cell of 4 kernels × failing sets on/off × three
//! injectivity modes × count-only/materialized × 1, 2 and 4 threads ×
//! caps {none, 1, inside one `LC`} must report the matches and outcome of
//! a `CandidateScan` run (which keeps no memo), and the uncapped
//! materialized embeddings must equal the brute-force reference's. The
//! sequential search trees are pinned to the values recorded before the
//! memo existed.

use sm_graph::builder::graph_from_edges;
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_graph::{Graph, Label, VertexId};
use sm_intersect::IntersectKind;
use sm_match::enumerate::parallel::ParallelStrategy;
use sm_match::enumerate::{CollectSink, EnumStats, Outcome};
use sm_match::filter::FilterKind;
use sm_match::order::OrderKind;
use sm_match::reference::brute_force_matches;
use sm_match::{
    DataContext, Executor, Injectivity, LcMethod, MatchConfig, MatchSemantics, Pipeline, QueryPlan,
    Scratch,
};
use sm_runtime::rng::Rng64;
use sm_runtime::Counter;

/// Cells whose true count exceeds this are skipped (homomorphism counts
/// on a skewed graph can be large, and the reference collects them all).
const LIMIT: usize = 20_000;

const KERNELS: [IntersectKind; 4] = [
    IntersectKind::Merge,
    IntersectKind::Galloping,
    IntersectKind::Hybrid,
    IntersectKind::Bsr,
];

const INJECTIVITIES: [Injectivity; 3] = [
    Injectivity::Isomorphism,
    Injectivity::Homomorphism,
    Injectivity::EdgeInjective,
];

/// `(name, edges, order)`. Backward neighbours under the order, by depth:
/// - 6-cycle 0..5 with chord 1–4: `u4` at depths 1 and 3, `u5` at 0 and 4;
/// - 4-cycle: `u3` at depths 0 and 2;
/// - K4 minus 0–1, order 0 2 1 3: `u3` at depths 0, 1 and 2;
/// - triangles 0 1 2 and 0 3 4, order 1 0 2 3 4: `u2` at depths 0 and 1,
///   `u4` at 1 and 3.
type Shape = (&'static str, Vec<(VertexId, VertexId)>, Vec<VertexId>);

fn shapes() -> [Shape; 4] {
    [
        (
            "6-cycle+chord",
            vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)],
            (0..6).collect(),
        ),
        (
            "4-cycle",
            vec![(0, 1), (1, 2), (2, 3), (3, 0)],
            (0..4).collect(),
        ),
        (
            "K4-e",
            vec![(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
            vec![0, 2, 1, 3],
        ),
        (
            "bowtie",
            vec![(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)],
            vec![1, 0, 2, 3, 4],
        ),
    ]
}

/// The shape labelled from `labels` labels by `seed`.
fn labelled(edges: &[(VertexId, VertexId)], n: usize, labels: usize, seed: u64) -> Graph {
    let mut rng = Rng64::seed_from_u64(seed);
    let l: Vec<Label> = (0..n).map(|_| rng.gen_range(0..labels as Label)).collect();
    graph_from_edges(&l, edges)
}

fn run(plan: &QueryPlan, g: &Graph, threads: usize) -> (EnumStats, Vec<Vec<VertexId>>) {
    let (stats, sinks) =
        Executor::new(plan, g).run_parallel::<CollectSink>(threads, ParallelStrategy::Morsel);
    let rows = sinks.into_iter().flat_map(|s| s.matches).collect();
    (stats, rows)
}

fn sorted(mut rows: Vec<Vec<VertexId>>) -> Vec<Vec<VertexId>> {
    rows.sort_unstable();
    rows
}

/// Sequential `(recursions, Backtracks, PeakDepth)` summed over cells.
#[derive(Debug, Default, PartialEq, Eq, Clone, Copy)]
struct Tree(u64, u64, u64);

impl Tree {
    fn add(&mut self, s: &EnumStats) {
        self.0 += s.recursions;
        self.1 += s.counters.get(Counter::Backtracks);
        self.2 += s.counters.get(Counter::PeakDepth);
    }
}

/// Every cell of `q` (matched in `order`) on `g`; returns the sequential
/// search trees summed.
fn check_cells(q: &Graph, order: &[VertexId], g: &Graph, what: &str) -> Tree {
    let gc = DataContext::new(g);
    let fixed = OrderKind::Fixed(order.to_vec());
    let scan = Pipeline::new(
        "scan",
        FilterKind::Ldf,
        fixed.clone(),
        LcMethod::CandidateScan,
    );
    let intersect = Pipeline::new("intersect", FilterKind::Ldf, fixed, LcMethod::Intersect);
    let last = order[order.len() - 1] as usize;
    let mut tree = Tree::default();
    for inj in INJECTIVITIES {
        let sem = MatchSemantics {
            injectivity: inj,
            ..MatchSemantics::default()
        };
        let config = |kernel, fs: bool, cap| {
            MatchConfig {
                intersect: kernel,
                max_matches: cap,
                ..MatchConfig::find_all()
            }
            .with_failing_sets(fs)
            .with_semantics(sem)
        };
        let Ok(reference) = scan.plan(q, &gc, &config(IntersectKind::Hybrid, false, None)) else {
            continue;
        };
        let (_, rows) = run(&reference, g, 1);
        if rows.len() > LIMIT {
            continue;
        }
        let truth = sorted(rows.clone());
        if inj == Injectivity::Isomorphism {
            assert_eq!(truth, sorted(brute_force_matches(q, g, None)), "{what}");
        }
        // Inside one LC: after the first of two consecutive embeddings
        // that differ only in the last vertex.
        let mid_lc = rows
            .windows(2)
            .position(|w| (0..w[0].len()).all(|i| i == last || w[0][i] == w[1][i]))
            .map(|i| i as u64 + 1);
        let fs_modes: &[bool] = if inj == Injectivity::Isomorphism {
            &[false, true]
        } else {
            &[false]
        };
        let mut caps = vec![None, Some(1)];
        caps.extend(mid_lc.map(Some));
        for cap in caps {
            let capped = scan
                .plan(q, &gc, &config(IntersectKind::Hybrid, false, cap))
                .expect("satisfiable");
            let (want, _) = run(&capped, g, 1);
            for kernel in KERNELS {
                for &fs in fs_modes {
                    for count_only in [false, true] {
                        let mut cfg = config(kernel, fs, cap);
                        if count_only {
                            cfg = cfg.with_semantics(sem.count_only());
                        }
                        let plan = intersect.plan(q, &gc, &cfg).expect("satisfiable");
                        for threads in [1, 2, 4] {
                            let cell = format!(
                                "{what} {} {kernel:?} fs={fs} count_only={count_only} \
                                 cap={cap:?} threads={threads}",
                                inj.name()
                            );
                            let (got, rows) = run(&plan, g, threads);
                            assert_eq!(got.matches, want.matches, "matches: {cell}");
                            assert_eq!(got.outcome, want.outcome, "outcome: {cell}");
                            if cap.is_none() && !count_only {
                                assert_eq!(sorted(rows), truth, "embeddings: {cell}");
                            }
                            if threads == 1 {
                                tree.add(&got);
                            }
                        }
                    }
                }
            }
        }
    }
    tree
}

#[test]
fn memo_is_invisible_on_every_cell() {
    // Sequential (recursions, Backtracks, PeakDepth) per shape, summed
    // over the data graphs and cells below, recorded before the memo
    // existed.
    let pinned = [
        ("6-cycle+chord", Tree(469_328, 647_688, 1728)),
        ("4-cycle", Tree(75_632, 111_352, 1152)),
        ("K4-e", Tree(70_032, 75_856, 896)),
        ("bowtie", Tree(93_504, 187_184, 1280)),
    ];
    let trees = shapes().map(|(name, edges, order)| {
        let mut tree = Tree::default();
        for labels in 2..=4usize {
            let g = rmat_graph(
                150,
                6.0,
                labels,
                RmatParams::PAPER,
                0x1C_0000 + labels as u64,
            );
            let q = labelled(&edges, order.len(), labels, 0x1C_1000 + labels as u64);
            let t = check_cells(&q, &order, &g, &format!("{name} labels={labels}"));
            tree = Tree(tree.0 + t.0, tree.1 + t.1, tree.2 + t.2);
        }
        (name, tree)
    });
    assert_eq!(trees, pinned, "sequential search trees");
}

/// One scratch runs plan A, then a plan B of the same shape
/// `(|V(q)|, |V(G)|)` whose last vertex meets the same backward positions
/// with a different `LC`: a triangle on two 4-vertex graphs that differ
/// only in whether vertex 3 closes a second triangle. Both runs reach
/// `u2` with `u0` and `u1` at position 0; only the reset in
/// `Scratch::prepare` keeps B from reading A's `LC`.
#[test]
fn a_reused_scratch_never_serves_the_previous_plans_lc() {
    let q = graph_from_edges(&[0, 1, 2], &[(0, 1), (0, 2), (1, 2)]);
    let labels = [0, 1, 2, 2];
    let g_a = graph_from_edges(&labels, &[(0, 1), (0, 2), (1, 2)]);
    let g_b = graph_from_edges(&labels, &[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]);
    let (ctx_a, ctx_b) = (DataContext::new(&g_a), DataContext::new(&g_b));
    let p = Pipeline::new(
        "intersect",
        FilterKind::Ldf,
        OrderKind::Fixed(vec![0, 1, 2]),
        LcMethod::Intersect,
    );
    for kernel in KERNELS {
        for sem in [
            MatchSemantics::default(),
            MatchSemantics::default().count_only(),
        ] {
            let cfg = MatchConfig {
                intersect: kernel,
                ..MatchConfig::find_all()
            }
            .with_semantics(sem);
            let a = p.plan(&q, &ctx_a, &cfg).expect("satisfiable");
            let b = p.plan(&q, &ctx_b, &cfg).expect("satisfiable");
            let mut scratch = Scratch::new();
            for (plan, g, want) in [(&a, &g_a, 1), (&b, &g_b, 2), (&a, &g_a, 1)] {
                let mut sink = CollectSink::default();
                let stats = Executor::new(plan, g).run_with_scratch(&mut scratch, &mut sink);
                assert_eq!(stats.matches, want, "{kernel:?} {sem:?}");
                assert_eq!(stats.outcome, Outcome::Complete);
            }
            assert_eq!(scratch.reuses(), 2, "the runs must share the fast path");
        }
    }
}
