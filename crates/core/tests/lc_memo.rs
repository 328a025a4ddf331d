//! The static order's local-candidate memo must be invisible. A depth
//! reuses `LC(u, M)` while the positions of `u`'s backward neighbours stay
//! put, keeps the intersection `I_R` of all backward lists but the deepest
//! one's (a bitmap on BSR plans) while those stay put, and keeps a table
//! of the `LC`s computed under one `I_R`, by the position of the deepest
//! neighbour `ud`, which hits when a level between `R`'s deepest member
//! and `ud` moves. None of it may change an answer or the search tree.
//!
//! The queries are matched in fixed orders chosen so that vertices have
//! two or three backward neighbours mapped at non-adjacent depths: a
//! 6-cycle with a chord, a 4-cycle, K4 minus an edge, two triangles
//! sharing a vertex, and a path whose last vertex closes a cycle to depth
//! 2, once with a label of its own and once sharing it with a prefix
//! vertex. The data graphs are seeded RMAT graphs with 2–4 labels. Every
//! cell of 4 kernels × failing sets on/off × three injectivity modes ×
//! count-only/materialized × 1, 2 and 4 threads × caps {none, 1, inside
//! one `LC`} must report the matches and outcome of a `CandidateScan` run
//! (which keeps no memo), and the uncapped materialized embeddings must
//! equal the brute-force reference's. The sequential search trees are
//! pinned to the values recorded before the memo existed (before the
//! table, for the cycle-closing path), and on that path the table must
//! save kernel calls.

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

/// The path 0..6 whose last vertex closes the cycle 2..6: `u6` has
/// backward neighbours at depths 2 and 5, with two levels between them,
/// as `match-enum`'s heaviest query has three.
fn cycle_to_2() -> Vec<(VertexId, VertexId)> {
    let mut edges: Vec<(VertexId, VertexId)> = (1..7).map(|v| (v - 1, v)).collect();
    edges.push((2, 6));
    edges
}

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

/// The shape's labels drawn from `labels` labels by `seed`.
fn draw_labels(n: usize, labels: usize, seed: u64) -> Vec<Label> {
    let mut rng = Rng64::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..labels as Label)).collect()
}

/// The data graph of a cell with `labels` labels.
fn data(labels: usize) -> Graph {
    rmat_graph(
        150,
        6.0,
        labels,
        RmatParams::PAPER,
        0x1C_0000 + labels as u64,
    )
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
/// search trees and kernel calls summed.
fn check_cells(q: &Graph, order: &[VertexId], g: &Graph, what: &str) -> (Tree, u64) {
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
    let mut calls = 0;
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
        let limit = Some(LIMIT as u64 + 1);
        let Ok(reference) = scan.plan(q, &gc, &config(IntersectKind::Hybrid, false, limit)) else {
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
                                calls += got.counters.intersections();
                            }
                        }
                    }
                }
            }
        }
    }
    (tree, calls)
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
            let l = draw_labels(order.len(), labels, 0x1C_1000 + labels as u64);
            let q = graph_from_edges(&l, &edges);
            let (t, _) = check_cells(
                &q,
                &order,
                &data(labels),
                &format!("{name} labels={labels}"),
            );
            tree = Tree(tree.0 + t.0, tree.1 + t.1, tree.2 + t.2);
        }
        (name, tree)
    });
    assert_eq!(trees, pinned, "sequential search trees");
}

/// The path closing a cycle to depth 2 (`match-enum`'s `hu` q06 in
/// miniature): positions of `u5` recur under one held `I_R` while `u3`
/// and `u4` move, so the table must hit. Once with the labels as drawn
/// and once with `u6` labelled like `u0`, so that a count-only run must
/// materialize `u6`'s `LC` to test collisions and the table serves lists,
/// not just counts. Sequential trees are pinned, and kernel calls must
/// fall below the values recorded before the table existed.
#[test]
fn table_hits_where_a_cycle_closes_to_depth_2() {
    // (name, `u6` labelled like `u0`, sequential tree, kernel calls
    // before the table).
    let pinned = [
        (
            "cycle-to-2",
            false,
            Tree(1_010_544, 1_496_488, 1176),
            666_336,
        ),
        (
            "cycle-to-2, collision",
            true,
            Tree(1_008_936, 1_226_920, 1176),
            645_736,
        ),
    ];
    let edges = cycle_to_2();
    let order: Vec<VertexId> = (0..7).collect();
    for (name, collide, want, before) in pinned {
        let (mut tree, mut calls) = (Tree::default(), 0);
        for labels in 2..=4usize {
            let mut l = draw_labels(7, labels, 0x1C_2000 + labels as u64);
            if collide {
                l[6] = l[0];
            }
            let q = graph_from_edges(&l, &edges);
            let (t, c) = check_cells(
                &q,
                &order,
                &data(labels),
                &format!("{name} labels={labels}"),
            );
            tree = Tree(tree.0 + t.0, tree.1 + t.1, tree.2 + t.2);
            calls += c;
        }
        assert_eq!(tree, want, "{name}: sequential search tree");
        assert!(
            calls < before,
            "{name}: {calls} kernel calls, {before} without the table"
        );
    }
}

/// One scratch runs plans A, B, A of the same shape `(|V(q)|, |V(G)|)`
/// whose last vertex meets the same backward positions with a different
/// `LC`; only the reset in `Scratch::prepare` keeps a run from reading the
/// previous plan's `LC`.
/// - A triangle on two 4-vertex graphs that differ only in whether
///   vertex 3 closes a second triangle. Both runs reach `u2` with `u0`
///   and `u1` at position 0, so the whole-key memo would serve it.
/// - A 4-cycle `u0 u1 u2 u3`, where `u3`'s table over the positions of
///   `u2` hits (`u1` lies between `u0` and `u2`), on two 7-vertex
///   graphs. `small` has one candidate for `u2`, whose `LC` has two
///   members; `large` has two, and the first one's `LC` has one member.
///   Each graph has one candidate for `u0`, so a run starts at the `I_R`
///   the last one ended on. Both orders run, so the table both shrinks
///   under a smaller `C(u2)` and grows under a larger one.
#[test]
fn a_reused_scratch_never_serves_the_previous_plans_lc() {
    let triangle = graph_from_edges(&[0, 1, 2], &[(0, 1), (0, 2), (1, 2)]);
    let labels = [0, 1, 2, 2];
    let tri_a = graph_from_edges(&labels, &[(0, 1), (0, 2), (1, 2)]);
    let tri_b = graph_from_edges(&labels, &[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]);
    // `v0` (label 0) and `v1`, `v2` (label 1) are shared; `v3`, `v4` are
    // label-2 candidates for `u2` in `large`, `v4` is outside `C(u2)` in
    // `small`; `v5`, `v6` (label 3) are candidates for `u3`.
    let cycle = graph_from_edges(&[0, 1, 2, 3], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let hub = [(0, 1), (0, 2), (1, 3), (2, 3), (0, 5), (0, 6)];
    let small = graph_from_edges(
        &[0, 1, 1, 2, 9, 3, 3],
        &[hub.as_slice(), &[(3, 5), (3, 6)]].concat(),
    );
    let large = graph_from_edges(
        &[0, 1, 1, 2, 2, 3, 3],
        &[hub.as_slice(), &[(1, 4), (2, 4), (3, 5), (4, 6)]].concat(),
    );
    // Each query in id order: A, B, A with their match counts.
    let runs = [
        (&triangle, [(&tri_a, 1), (&tri_b, 2), (&tri_a, 1)]),
        (&cycle, [(&large, 4), (&small, 4), (&large, 4)]),
        (&cycle, [(&small, 4), (&large, 4), (&small, 4)]),
    ];
    for (q, plans) in runs {
        let p = Pipeline::new(
            "intersect",
            FilterKind::Ldf,
            OrderKind::Fixed((0..q.num_vertices() as VertexId).collect()),
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
                let mut scratch = Scratch::new();
                for (i, &(g, want)) in plans.iter().enumerate() {
                    let plan = p.plan(q, &DataContext::new(g), &cfg).expect("satisfiable");
                    let mut sink = CollectSink::default();
                    let stats = Executor::new(&plan, g).run_with_scratch(&mut scratch, &mut sink);
                    let cell =
                        format!("{} vertices, run {i}, {kernel:?} {sem:?}", q.num_vertices());
                    assert_eq!(stats.matches, want, "{cell}");
                    assert_eq!(stats.outcome, Outcome::Complete, "{cell}");
                    // The runs must share the fast path.
                    let reused = stats.counters.get(Counter::ScratchReuses);
                    assert_eq!(reused, (i > 0) as u64, "{cell}");
                }
            }
        }
    }
}
