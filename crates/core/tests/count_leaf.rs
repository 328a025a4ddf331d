//! The counted suffix against the per-level loop: a count-only run counts
//! the plan's independent suffix `φ[s..n]` in one step
//! (`Engine::count_suffix`), while a materializing run of the same plan
//! still claims, emits and releases every vertex of it. Both must report
//! the same `matches` and outcome on every cell, and failing sets must
//! not change the count. Sequentially the count-only search tree is the
//! loop's with the suffix interiors cut off: `recursions` and
//! `Backtracks` are no larger, and equal to the digit when only the last
//! level is counted (`s = n − 1`); `PeakDepth` is equal whenever a match
//! exists.
//!
//! Two query sources: random connected queries under every order, and
//! fixed-order queries built to end in a 2–4-vertex independent suffix
//! whose labels are all distinct, hold one same-label pair, or hold a
//! same-label triple (which must shorten the suffix under isomorphism).
//! The data graphs carry 2–4 labels, so suffix vertices often collide
//! with prefix images; the caps land before, at and after the true count
//! and inside one node's product. A third, fixed set of queries ends in
//! suffix vertices with one backward neighbour and a same-label prefix
//! vertex, whose collisions are probed in the borrowed `A` list; their
//! sequential search trees are pinned to values recorded before that
//! path existed.

use sm_graph::builder::graph_from_edges;
use sm_graph::gen::query::{generate_query_set, Density, QuerySetSpec};
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_graph::{Graph, Label, VertexId};
use sm_intersect::IntersectKind;
use sm_match::enumerate::parallel::ParallelStrategy;
use sm_match::enumerate::{CollectSink, EnumStats, Outcome};
use sm_match::filter::FilterKind;
use sm_match::order::OrderKind;
use sm_match::{
    DataContext, Executor, Injectivity, LcMethod, MatchConfig, MatchSemantics, Pipeline, QueryPlan,
};
use sm_runtime::check::Check;
use sm_runtime::rng::Rng64;
use sm_runtime::{ensure, ensure_eq, Counter};

/// Cells whose true count exceeds this are skipped (homomorphism counts
/// on a skewed graph can be large, and the oracle run collects them all).
const LIMIT: u64 = 20_000;

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

/// `(data seed, labels, query seed, query size)`.
fn arb_workload(rng: &mut Rng64, size: u32) -> (u64, usize, u64, usize) {
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

/// Every pipeline the random-query matrix covers: each static order with
/// `Intersect` under all four kernels plus `Direct` (a non-`Intersect`
/// method whose `LC` holds data vertices), and the adaptive order under
/// all four kernels.
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

/// A cap that stops the run inside one counted node's product: after the
/// first of two consecutive embeddings that agree on the prefix `φ[..s]`,
/// which one reservation adds together. The adaptive order picks its
/// last vertex at run time, so there: two embeddings that differ in one
/// vertex.
fn mid_product_cap(rows: &[Vec<VertexId>], plan: &QueryPlan) -> Option<u64> {
    let prefix = &plan.order()[..plan.suffix_start()];
    rows.windows(2)
        .position(|w| {
            if plan.adaptive {
                (0..w[0].len()).filter(|&i| w[0][i] != w[1][i]).count() == 1
            } else {
                prefix.iter().all(|&u| w[0][u as usize] == w[1][u as usize])
            }
        })
        .map(|i| i as u64 + 1)
}

/// Sequential count-only `(recursions, Backtracks, PeakDepth)` summed
/// over cells.
#[derive(Debug, Default, PartialEq, Eq, Clone, Copy)]
struct Tree(u64, u64, u64);

/// Every cell of query `q` under pipeline `p`: each injectivity mode,
/// failing sets off and (under isomorphism) on, the caps and 1, 2 and 4
/// threads, the count-only run against the materializing one. Returns
/// the sequential count-only search trees summed.
fn check_cells(
    p: &Pipeline,
    kernel: IntersectKind,
    q: &Graph,
    g: &Graph,
    gc: &DataContext<'_>,
    workload: &str,
) -> Result<Tree, String> {
    let mut sum = Tree::default();
    for inj in INJECTIVITIES {
        let sem = MatchSemantics {
            injectivity: inj,
            ..MatchSemantics::default()
        };
        let config = |fs: bool, cap: Option<u64>| {
            MatchConfig {
                intersect: kernel,
                max_matches: cap,
                ..MatchConfig::find_all()
            }
            .with_failing_sets(fs)
            .with_semantics(sem)
        };
        let Ok(full) = p.plan(q, gc, &config(false, Some(LIMIT + 1))) else {
            continue;
        };
        let (truth, rows) = run(&full, g, 1);
        let t = truth.matches;
        if t > LIMIT {
            continue;
        }
        // Edge-injective runs and last-level-only suffixes walk the same
        // tree as the loop.
        let same_tree =
            inj == Injectivity::EdgeInjective || full.suffix_start() + 1 == q.num_vertices();
        let fs_modes: &[bool] = if inj == Injectivity::Isomorphism {
            &[false, true]
        } else {
            &[false]
        };
        let mut caps = vec![
            None,
            Some(1),
            Some(t.saturating_sub(1)),
            Some(t),
            Some(t + 1),
        ];
        caps.extend(mid_product_cap(&rows, &full).map(Some));
        for cap in caps {
            for threads in [1, 2, 4] {
                let mut fs_off = None;
                for &fs in fs_modes {
                    let emit = config(fs, cap);
                    let count = emit.clone().with_semantics(sem.count_only());
                    let cell = format!(
                        "{} {} {:?} {} fs={fs} cap={cap:?} threads={threads} s={} {workload}",
                        p.name,
                        p.order.name(),
                        kernel,
                        inj.name(),
                        full.suffix_start(),
                    );
                    let (m, _) = run(&p.plan(q, gc, &emit).expect("satisfiable"), g, threads);
                    let (c, _) = run(&p.plan(q, gc, &count).expect("satisfiable"), g, threads);
                    ensure_eq!(m.matches, c.matches, "matches: {cell}");
                    ensure_eq!(m.outcome, c.outcome, "outcome: {cell}");
                    let off = *fs_off.get_or_insert(c.matches);
                    ensure_eq!(c.matches, off, "failing sets on vs off: {cell}");
                    if threads > 1 {
                        continue;
                    }
                    let bt = Counter::Backtracks;
                    sum.0 += c.recursions;
                    sum.1 += c.counters.get(bt);
                    sum.2 += c.counters.get(Counter::PeakDepth);
                    let tree = |s: &EnumStats| (s.recursions, s.counters.get(bt));
                    let (mt, ct) = (tree(&m), tree(&c));
                    if same_tree {
                        ensure_eq!(mt, ct, "(recursions, backtracks): {cell}");
                    } else {
                        ensure!(
                            ct.0 <= mt.0 && ct.1 <= mt.1,
                            "count-only tree {ct:?} larger than the loop's {mt:?}: {cell}"
                        );
                    }
                    if same_tree || c.matches > 0 {
                        let depth = |s: &EnumStats| s.counters.get(Counter::PeakDepth);
                        ensure_eq!(depth(&m), depth(&c), "PeakDepth: {cell}");
                    }
                }
            }
        }
    }
    Ok(sum)
}

#[test]
fn count_suffix_equals_per_level_loop() {
    let filters = [FilterKind::Ldf, FilterKind::GraphQl, FilterKind::DpIso];
    Check::new("count_suffix_equals_per_level_loop")
        .cases(9)
        .run(
            |rng, size| (arb_workload(rng, size), rng.gen_range(0..filters.len())),
            |(w, fi)| {
                let Some((g, q)) = workload(w) else {
                    return Ok(());
                };
                let gc = DataContext::new(&g);
                for (p, kernel) in pipelines(filters[*fi]) {
                    check_cells(&p, kernel, &q, &g, &gc, &format!("workload={w:?}"))?;
                }
                Ok(())
            },
        );
}

/// A same-label pair whose only free candidate is shared fails the
/// count, and the failing set must name both members' constrainers: `a`
/// (through `X`) and `b` (through `Y`) hang off the root `R`, both
/// labelled C. With `X → 2`, `LC_a = LC_b = {4}`; with `X → 3`,
/// `LC_a = {4, 5}` and `a → 5, b → 4` is the one match. A failing set
/// holding only `b`'s class would omit `X` and prune `X → 3`.
#[test]
fn pair_collision_failing_set_names_both_members() {
    // Query R=0 (B), Y=1 (D), X=2 (A), a=3 (C), b=4 (C), matched in id order.
    let q = graph_from_edges(
        &[1, 3, 0, 2, 2],
        &[(0, 1), (0, 2), (0, 3), (0, 4), (2, 3), (1, 4)],
    );
    let g = graph_from_edges(
        &[1, 3, 0, 0, 2, 2],
        &[
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (0, 5),
            (1, 4),
            (2, 4),
            (3, 4),
            (3, 5),
        ],
    );
    let gc = DataContext::new(&g);
    let order = OrderKind::Fixed(vec![0, 1, 2, 3, 4]);
    for method in [
        LcMethod::Intersect,
        LcMethod::Direct,
        LcMethod::CandidateScan,
        LcMethod::TreeIndex,
    ] {
        let p = Pipeline::new(method.name(), FilterKind::Ldf, order.clone(), method);
        for fs in [false, true] {
            for sem in [
                MatchSemantics::default(),
                MatchSemantics::default().count_only(),
            ] {
                let cfg = MatchConfig::find_all()
                    .with_failing_sets(fs)
                    .with_semantics(sem);
                let plan = p.plan(&q, &gc, &cfg).expect("satisfiable");
                assert_eq!(plan.suffix_start(), 3);
                let (stats, _) = run(&plan, &g, 1);
                assert_eq!(stats.matches, 1, "{method:?} fs={fs} {sem:?}");
            }
        }
    }
}

/// A homomorphic 40-leaf star counts `deg^40` per hub in one reservation;
/// eight hubs of degree 3 sum past `u64::MAX` with no cap set. One thread
/// and two must agree: the count saturates at `u64::MAX` and the run
/// reports the cap reached, however the hubs are dealt.
#[test]
fn homomorphic_star_saturates_alike_on_one_and_two_threads() {
    let leaves = 40;
    let mut labels = vec![0];
    labels.extend(std::iter::repeat_n(1, leaves));
    let star: Vec<(VertexId, VertexId)> = (1..=leaves as VertexId).map(|v| (0, v)).collect();
    let q = graph_from_edges(&labels, &star);
    let (hubs, degree) = (8, 3);
    let mut data_labels = vec![0; hubs];
    data_labels.extend(std::iter::repeat_n(1, hubs * degree));
    let spokes: Vec<(VertexId, VertexId)> = (0..hubs * degree)
        .map(|i| ((i / degree) as VertexId, (hubs + i) as VertexId))
        .collect();
    let g = graph_from_edges(&data_labels, &spokes);
    let gc = DataContext::new(&g);
    let order = OrderKind::Fixed((0..=leaves as VertexId).collect());
    let p = Pipeline::new("intersect", FilterKind::Ldf, order, LcMethod::Intersect);
    let cfg = MatchConfig::find_all().with_semantics(MatchSemantics::homomorphism().count_only());
    let plan = p.plan(&q, &gc, &cfg).expect("satisfiable");
    assert_eq!(plan.suffix_start(), 1);
    for threads in [1, 2] {
        let (stats, _) = run(&plan, &g, threads);
        assert_eq!(stats.matches, u64::MAX, "threads={threads}");
        assert_eq!(stats.outcome, Outcome::CapReached, "threads={threads}");
    }
}

/// How the labels of a built suffix repeat.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Labels {
    /// Every suffix vertex has its own label.
    Unique,
    /// Two suffix vertices share a label.
    Pair,
    /// Three suffix vertices share a label.
    Triple,
}

/// Labels of the data graphs the built queries run on.
const SUFFIX_LABELS: usize = 4;

/// A query matched in the fixed order `0..n`: a prefix of `p` vertices
/// (a path, closed into a triangle at `p = 3` when `close`), then `len`
/// suffix vertices. Each suffix vertex hangs off the last prefix vertex,
/// so the suffix cannot grow into the prefix, and off one more prefix
/// vertex where `extra` says so. Returns the query, `p` and the position
/// in the suffix of the first vertex with the repeated label.
fn suffix_query(
    &(p, close, len, labels, seed): &(usize, bool, usize, Labels, u64),
) -> (Graph, usize, usize) {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut palette: Vec<Label> = (0..SUFFIX_LABELS as Label).collect();
    rng.shuffle(&mut palette);
    let repeat = match labels {
        Labels::Unique => 1,
        Labels::Pair => 2,
        Labels::Triple => 3,
    };
    let mut tail: Vec<Label> = std::iter::repeat_n(palette[0], repeat)
        .chain(palette[1..].iter().copied())
        .take(len)
        .collect();
    rng.shuffle(&mut tail);
    let first = tail.iter().position(|&l| l == palette[0]).expect("present");
    let mut vertex_labels: Vec<Label> = (0..p)
        .map(|_| rng.gen_range(0..SUFFIX_LABELS as Label))
        .collect();
    vertex_labels.extend(&tail);
    let last = p as VertexId - 1;
    let mut edges: Vec<(VertexId, VertexId)> = (1..p as VertexId).map(|v| (v - 1, v)).collect();
    if p == 3 && close {
        edges.push((0, 2));
    }
    for v in p..p + len {
        let v = v as VertexId;
        edges.push((last, v));
        let other = rng.gen_range(0..p as VertexId);
        if other != last && rng.gen_bool(0.5) {
            edges.push((other, v));
        }
    }
    (graph_from_edges(&vertex_labels, &edges), p, first)
}

#[test]
fn fixed_suffixes_equal_per_level_loop() {
    let shapes = [Labels::Unique, Labels::Pair, Labels::Triple];
    Check::new("fixed_suffixes_equal_per_level_loop")
        .cases(12)
        .run(
            |rng, _| {
                let labels = shapes[rng.gen_range(0..shapes.len())];
                let min_len = if labels == Labels::Triple { 3 } else { 2 };
                let shape = (
                    rng.gen_range(2..4usize),
                    rng.gen_bool(0.5),
                    rng.gen_range(min_len..5usize),
                    labels,
                    rng.gen_range(0..5000u64),
                );
                (shape, rng.gen_range(0..5000u64), rng.gen_bool(0.5))
            },
            |(shape, ds, gql)| {
                let (q, p, first) = suffix_query(shape);
                let n = q.num_vertices();
                let g = rmat_graph(160, 6.0, SUFFIX_LABELS, RmatParams::PAPER, *ds);
                let gc = DataContext::new(&g);
                let filter = if *gql {
                    FilterKind::GraphQl
                } else {
                    FilterKind::Ldf
                };
                let order = OrderKind::Fixed((0..n as VertexId).collect());
                let mut cases: Vec<(Pipeline, IntersectKind)> = KERNELS
                    .iter()
                    .map(|&k| {
                        let p =
                            Pipeline::new("intersect", filter, order.clone(), LcMethod::Intersect);
                        (p, k)
                    })
                    .collect();
                for method in [
                    LcMethod::Direct,
                    LcMethod::CandidateScan,
                    LcMethod::TreeIndex,
                ] {
                    let p = Pipeline::new(method.name(), filter, order.clone(), method);
                    cases.push((p, IntersectKind::Hybrid));
                }
                for inj in INJECTIVITIES {
                    // A third same label ends the suffix under isomorphism; a
                    // homomorphism has no collisions and ignores labels.
                    let want = if shape.3 == Labels::Triple && inj != Injectivity::Homomorphism {
                        p + first + 1
                    } else {
                        p
                    };
                    let semantics = MatchSemantics {
                        injectivity: inj,
                        ..MatchSemantics::default()
                    };
                    let cfg = MatchConfig::find_all().with_semantics(semantics);
                    if let Ok(plan) = cases[0].0.plan(&q, &gc, &cfg) {
                        ensure_eq!(plan.suffix_start(), want, "{} {shape:?}", inj.name());
                    }
                }
                for (pipeline, kernel) in &cases {
                    let w = format!("shape={shape:?} data={ds}");
                    check_cells(pipeline, *kernel, &q, &g, &gc, &w)?;
                }
                Ok(())
            },
        );
}

/// Fixed-order queries on the prefix `u0 u1 u2` whose counted suffix
/// hangs off `u2` alone and holds a vertex labelled like a prefix vertex,
/// so a count-only run tests that vertex's collision in its one `A` list
/// `A[u2→u](M[u2])` without copying it. The partner's image lies inside
/// that list when it is adjacent to `u2`'s: always for a triangle prefix
/// with partner `u0` and for partner `u1`, on some data graphs only for a
/// path prefix with partner `u0` (asserted to happen both ways). Every
/// cell of the four kernels must agree with the per-level loop, and the
/// sequential count-only trees are pinned.
#[test]
fn single_list_collisions_equal_per_level_loop() {
    // (name, labels, edges, pinned sequential tree).
    let cases = [
        (
            "triangle, partner u0",
            vec![0, 1, 2, 0],
            vec![(0, 1), (1, 2), (0, 2), (2, 3)],
            Tree(18_876, 25_924, 1152),
        ),
        (
            "path, partner u0",
            vec![0, 1, 2, 0],
            vec![(0, 1), (1, 2), (2, 3)],
            Tree(46_920, 116_064, 1152),
        ),
        (
            "path, partner u1, two suffix vertices",
            vec![0, 1, 2, 1, 3],
            vec![(0, 1), (1, 2), (2, 3), (2, 4)],
            Tree(61_952, 434_368, 1440),
        ),
    ];
    let mut adjacent = [0usize; 2];
    for (name, labels, edges, want) in cases {
        let q = graph_from_edges(&labels, &edges);
        let order = OrderKind::Fixed((0..q.num_vertices() as VertexId).collect());
        let p = Pipeline::new("intersect", FilterKind::Ldf, order, LcMethod::Intersect);
        let mut tree = Tree::default();
        for ds in [7u64, 8, 9] {
            let g = rmat_graph(160, 6.0, SUFFIX_LABELS, RmatParams::PAPER, ds);
            let gc = DataContext::new(&g);
            let cfg = MatchConfig {
                max_matches: Some(LIMIT + 1),
                ..MatchConfig::find_all()
            };
            let plan = p.plan(&q, &gc, &cfg).expect("satisfiable");
            assert_eq!(plan.suffix_start(), 3, "{name}");
            if name == "path, partner u0" {
                for row in run(&plan, &g, 1).1 {
                    adjacent[usize::from(g.has_edge(row[0], row[2]))] += 1;
                }
            }
            for kernel in KERNELS {
                let w = format!("{name} data={ds}");
                let t = check_cells(&p, kernel, &q, &g, &gc, &w).unwrap_or_else(|e| panic!("{e}"));
                tree = Tree(tree.0 + t.0, tree.1 + t.1, tree.2 + t.2);
            }
        }
        assert_eq!(tree, want, "{name}: sequential count-only search tree");
    }
    assert!(
        adjacent.iter().all(|&n| n > 0),
        "the path's partner image must land both outside and inside the list: {adjacent:?}"
    );
}
