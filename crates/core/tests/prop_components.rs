//! Component-level properties on random workloads: ordering validity,
//! candidate-space faithfulness (rows built on demand included), LC-method
//! equivalence (same match *sets*, not just counts), root-range
//! partitioning, and parallel/sequential agreement.

use sm_graph::gen::query::{extract_query, Density};
use sm_graph::gen::random::erdos_renyi;
use sm_match::candidate_space::{CandidateSpace, SpaceCoverage, BLOCK_ROWS};
use sm_match::enumerate::engine::{enumerate, EngineInput};
use sm_match::enumerate::parallel::enumerate_parallel;
use sm_match::enumerate::{CollectSink, CountSink, LcMethod, MatchConfig};
use sm_match::filter::{run_filter, FilterKind};
use sm_match::order::{is_connected_order, run_order, OrderInput, OrderKind};
use sm_match::{DataContext, Injectivity, MatchSemantics, Pipeline, QueryContext, QueryPlan};
use sm_runtime::check::Check;
use sm_runtime::rng::Rng64;
use sm_runtime::{ensure, ensure_eq};
use std::sync::atomic::{AtomicBool, Ordering};

fn workload(ds: u64, qs: u64, size: usize) -> Option<(sm_graph::Graph, sm_graph::Graph)> {
    let g = erdos_renyi(80, 240, 3, ds);
    let mut rng = Rng64::seed_from_u64(qs);
    (0..30)
        .find_map(|_| extract_query(&g, size, Density::Any, &mut rng))
        .map(|q| (g, q))
}

/// Seeds plus a query size in `3..=3 + spread`, ramping with the harness
/// size parameter so shrinking retries smaller queries.
fn arb_seeds(rng: &mut Rng64, size: u32, spread: usize) -> (u64, u64, usize) {
    let qsize = 3 + (size as usize * spread / 100).min(spread);
    (rng.gen_range(0..3000u64), rng.gen_range(0..3000u64), qsize)
}

#[test]
fn every_ordering_is_a_connected_permutation() {
    Check::new("every_ordering_is_a_connected_permutation")
        .cases(20)
        .run(
            |rng, size| arb_seeds(rng, size, 5),
            |&(ds, qs, size)| {
                let Some((g, q)) = workload(ds, qs, size) else {
                    return Ok(());
                };
                let gc = DataContext::new(&g);
                let qc = QueryContext::new(&q);
                let Some(f) = run_filter(FilterKind::Nlf, &qc, &gc) else {
                    return Ok(());
                };
                let input = OrderInput {
                    q: &qc,
                    g: &gc,
                    candidates: &f.candidates,
                    bfs_tree: None,
                    space: None,
                };
                for kind in OrderKind::all_static() {
                    let order = run_order(&kind, &input);
                    ensure!(
                        is_connected_order(&q, &order),
                        "{} gave {order:?} on seeds ({ds}, {qs})",
                        kind.name()
                    );
                }
                Ok(())
            },
        );
}

#[test]
fn candidate_space_is_faithful() {
    Check::new("candidate_space_is_faithful").cases(20).run(
        |rng, size| arb_seeds(rng, size, 4),
        |&(ds, qs, size)| {
            let Some((g, q)) = workload(ds, qs, size) else {
                return Ok(());
            };
            let gc = DataContext::new(&g);
            let qc = QueryContext::new(&q);
            let Some(f) = run_filter(FilterKind::GraphQl, &qc, &gc) else {
                return Ok(());
            };
            let c = &f.candidates;
            let input = OrderInput {
                q: &qc,
                g: &gc,
                candidates: c,
                bfs_tree: None,
                space: None,
            };
            // Every static order, plus the BFS order δ adaptive plans use.
            for kind in OrderKind::all_static() {
                let order = run_order(&kind, &input);
                let rank = |u: u32| order.iter().position(|&x| x == u).unwrap();
                let space =
                    CandidateSpace::build(&q, &g, c, SpaceCoverage::OrderDirected(&order), true);
                // What materializing both directions of every edge holds.
                let mut two_direction_entries = 0;
                for (a, b) in q.edges() {
                    let (a, b) = if rank(a) < rank(b) { (a, b) } else { (b, a) };
                    ensure!(
                        space.has_pair(a, b) && !space.has_pair(b, a),
                        "{}: ({a}→{b}) on seeds ({ds}, {qs})",
                        kind.name()
                    );
                    for (pos, &v) in c.get(a).iter().enumerate() {
                        let flat = space.neighbors(&g, c, a, pos, b);
                        let direct: Vec<u32> = (0..c.get(b).len() as u32)
                            .filter(|&p| g.has_edge(v, c.get(b)[p as usize]))
                            .collect();
                        ensure_eq!(flat, &direct[..], "space vs direct on seeds ({ds}, {qs})");
                        let mut decoded = Vec::new();
                        space
                            .bsr_neighbors(&g, c, a, pos, b)
                            .unwrap()
                            .decode_into(&mut decoded);
                        ensure_eq!(&decoded[..], flat, "bsr vs flat on seeds ({ds}, {qs})");
                        two_direction_entries += direct.len();
                    }
                    for &w in c.get(b) {
                        two_direction_entries +=
                            c.get(a).iter().filter(|&&v| g.has_edge(w, v)).count();
                    }
                }
                ensure_eq!(
                    2 * space.num_entries(),
                    two_direction_entries,
                    "{}: half of both directions on seeds ({ds}, {qs})",
                    kind.name()
                );
            }
            Ok(())
        },
    );
}

/// Every `(from, pos, to)` row of the space over `q`'s edges directed by
/// `order`.
fn all_rows(
    q: &sm_graph::Graph,
    c: &sm_match::Candidates,
    order: &[u32],
) -> Vec<(u32, usize, u32)> {
    let rank = |u: u32| order.iter().position(|&x| x == u).unwrap();
    q.edges()
        .map(|(a, b)| if rank(a) < rank(b) { (a, b) } else { (b, a) })
        .flat_map(|(a, b)| (0..c.get(a).len()).map(move |pos| (a, pos, b)))
        .collect()
}

/// A row's flat list and its BSR view decoded.
fn read_row(
    space: &CandidateSpace,
    g: &sm_graph::Graph,
    c: &sm_match::Candidates,
    (a, pos, b): (u32, usize, u32),
) -> (Vec<u32>, Vec<u32>) {
    let flat = space.neighbors(g, c, a, pos, b).to_vec();
    let mut decoded = Vec::new();
    if let Some(view) = space.bsr_neighbors(g, c, a, pos, b) {
        view.decode_into(&mut decoded);
    }
    (flat, decoded)
}

/// Rows built on demand, read in a random order, equal the rows of the
/// full build — flat and BSR — across random graphs, queries, filters
/// and orders; afterwards the space is the full build, byte for byte.
/// The sizes vary so that short (`< BLOCK_ROWS`) and ragged candidate
/// sets, and empty rows, all occur.
#[test]
fn rows_built_on_demand_equal_the_full_build() {
    static SHORT: AtomicBool = AtomicBool::new(false);
    static RAGGED: AtomicBool = AtomicBool::new(false);
    static EMPTY_ROW: AtomicBool = AtomicBool::new(false);
    Check::new("rows_built_on_demand_equal_the_full_build")
        .cases(30)
        .run(
            |rng, size| {
                let (ds, qs, qsize) = arb_seeds(rng, size, 4);
                let shape = (rng.gen_range(16usize..160), rng.gen_range(1usize..5));
                (ds, qs, qsize, shape, rng.next_u64())
            },
            |&(ds, qs, size, (n, labels), pick)| {
                let g = erdos_renyi(n, 3 * n, labels, ds);
                let mut rng = Rng64::seed_from_u64(qs);
                let Some(q) = (0..30).find_map(|_| extract_query(&g, size, Density::Any, &mut rng))
                else {
                    return Ok(());
                };
                let gc = DataContext::new(&g);
                let qc = QueryContext::new(&q);
                let mut rng = Rng64::seed_from_u64(pick);
                let filter = *rng.choose(&FilterKind::all()).unwrap();
                let Some(f) = run_filter(filter, &qc, &gc) else {
                    return Ok(());
                };
                let c = &f.candidates;
                let input = OrderInput {
                    q: &qc,
                    g: &gc,
                    candidates: c,
                    bfs_tree: None,
                    space: None,
                };
                let kind = rng.choose(&OrderKind::all_static()).unwrap().clone();
                let order = run_order(&kind, &input);
                let coverage = SpaceCoverage::OrderDirected(&order);
                let full = CandidateSpace::build(&q, &g, c, coverage, true);
                let lazy = CandidateSpace::new(&q, &g, c, coverage, true);
                let mut rows = all_rows(&q, c, &order);
                rng.shuffle(&mut rows);
                for &row in &rows {
                    let (flat, decoded) = read_row(&lazy, &g, c, row);
                    ensure_eq!(
                        &flat[..],
                        full.built_neighbors(row.0, row.1, row.2),
                        "{row:?} {filter:?}/{} on seeds ({ds}, {qs})",
                        kind.name()
                    );
                    ensure_eq!(decoded, flat, "bsr {row:?} on seeds ({ds}, {qs})");
                    let len = c.get(row.0).len();
                    SHORT.fetch_or(len < BLOCK_ROWS, Ordering::Relaxed);
                    RAGGED.fetch_or(len > BLOCK_ROWS && len % BLOCK_ROWS != 0, Ordering::Relaxed);
                    EMPTY_ROW.fetch_or(flat.is_empty(), Ordering::Relaxed);
                }
                ensure!(lazy.fully_built(), "unbuilt block on seeds ({ds}, {qs})");
                ensure_eq!(lazy.blocks_built(), full.blocks_built());
                ensure_eq!(lazy.memory_bytes(), full.memory_bytes());
                ensure_eq!(lazy.num_entries(), full.num_entries());
                Ok(())
            },
        );
    for (name, seen) in [
        ("short", &SHORT),
        ("ragged", &RAGGED),
        ("empty-row", &EMPTY_ROW),
    ] {
        assert!(seen.load(Ordering::Relaxed), "no {name} case generated");
    }
}

/// Four threads read every row of one shared plan's space, each in its
/// own order, while the blocks are being built: all see the same rows,
/// the full build's, and each block is published once.
#[test]
fn concurrent_readers_see_one_build() {
    let g = erdos_renyi(400, 1600, 2, 7);
    let mut rng = Rng64::seed_from_u64(11);
    let q = (0..30)
        .find_map(|_| extract_query(&g, 6, Density::Any, &mut rng))
        .expect("query");
    let gc = DataContext::new(&g);
    let p = Pipeline::new(
        "t",
        FilterKind::Ldf,
        OrderKind::GraphQl,
        LcMethod::Intersect,
    );
    let plan = p
        .plan(&q, &gc, &MatchConfig::find_all())
        .expect("satisfiable");
    let (space, c) = (plan.space.as_ref().unwrap(), &plan.candidates);
    assert_eq!(
        space.blocks_built(),
        0,
        "static Intersect plans start unbuilt"
    );
    let rows = all_rows(&q, c, plan.order());
    let full = CandidateSpace::build(&q, &g, c, SpaceCoverage::OrderDirected(plan.order()), false);
    let start = std::sync::Barrier::new(4);
    let seen: Vec<Vec<Vec<u32>>> = std::thread::scope(|s| {
        let readers: Vec<_> = (0..4u64)
            .map(|t| {
                let (rows, g, start) = (&rows, &g, &start);
                s.spawn(move || {
                    let mut at: Vec<usize> = (0..rows.len()).collect();
                    Rng64::seed_from_u64(t).shuffle(&mut at);
                    start.wait();
                    let mut out = vec![Vec::new(); rows.len()];
                    for i in at {
                        out[i] = read_row(space, g, c, rows[i]).0;
                    }
                    out
                })
            })
            .collect();
        readers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    for (i, &(a, pos, b)) in rows.iter().enumerate() {
        for reader in &seen {
            assert_eq!(reader[i], full.built_neighbors(a, pos, b), "row {i}");
        }
    }
    assert!(space.fully_built());
    assert_eq!(space.blocks_built(), full.blocks_built());
}

#[test]
fn engines_produce_identical_match_sets() {
    Check::new("engines_produce_identical_match_sets")
        .cases(20)
        .run(
            |rng, size| arb_seeds(rng, size, 3),
            |&(ds, qs, size)| {
                let Some((g, q)) = workload(ds, qs, size) else {
                    return Ok(());
                };
                let gc = DataContext::new(&g);
                let qc = QueryContext::new(&q);
                let Some(f) = run_filter(FilterKind::Ldf, &qc, &gc) else {
                    return Ok(());
                };
                let c = &f.candidates;
                let order: Vec<u32> = {
                    let input = OrderInput {
                        q: &qc,
                        g: &gc,
                        candidates: c,
                        bfs_tree: None,
                        space: None,
                    };
                    run_order(&OrderKind::GraphQl, &input)
                };
                let mut reference: Option<Vec<Vec<u32>>> = None;
                for method in [
                    LcMethod::Direct,
                    LcMethod::CandidateScan,
                    LcMethod::TreeIndex,
                    LcMethod::Intersect,
                ] {
                    let space = CandidateSpace::build(
                        &q,
                        &g,
                        c,
                        SpaceCoverage::OrderDirected(&order),
                        false,
                    );
                    let plan = QueryPlan::assemble(
                        &q,
                        c.clone(),
                        order.clone(),
                        None,
                        Some(space),
                        method,
                        MatchConfig::find_all(),
                        false,
                    );
                    let input = EngineInput::new(&plan, &g);
                    let mut sink = CollectSink::default();
                    enumerate(&input, &mut sink);
                    let mut ms = sink.matches;
                    ms.sort();
                    match &reference {
                        None => reference = Some(ms),
                        Some(r) => {
                            ensure_eq!(&ms, r, "{:?} on seeds ({}, {})", method, ds, qs);
                        }
                    }
                }
                Ok(())
            },
        );
}

#[test]
fn parallel_equals_sequential() {
    Check::new("parallel_equals_sequential").cases(20).run(
        |rng, size| {
            let (ds, qs, qsize) = arb_seeds(rng, size, 3);
            (ds, qs, qsize, rng.gen_range(2usize..5))
        },
        |&(ds, qs, size, threads)| {
            let Some((g, q)) = workload(ds, qs, size) else {
                return Ok(());
            };
            let gc = DataContext::new(&g);
            let qc = QueryContext::new(&q);
            let Some(f) = run_filter(FilterKind::Nlf, &qc, &gc) else {
                return Ok(());
            };
            let c = &f.candidates;
            let order: Vec<u32> = {
                let input = OrderInput {
                    q: &qc,
                    g: &gc,
                    candidates: c,
                    bfs_tree: None,
                    space: None,
                };
                run_order(&OrderKind::Ri, &input)
            };
            let space =
                CandidateSpace::build(&q, &g, c, SpaceCoverage::OrderDirected(&order), false);
            let plan = QueryPlan::assemble(
                &q,
                c.clone(),
                order,
                None,
                Some(space),
                LcMethod::Intersect,
                MatchConfig::find_all(),
                false,
            );
            let input = EngineInput::new(&plan, &g);
            let mut seq = CountSink;
            let seq_stats = enumerate(&input, &mut seq);
            let (par_stats, _) = enumerate_parallel::<CountSink>(&input, threads);
            ensure_eq!(
                par_stats.matches,
                seq_stats.matches,
                "threads={} seeds ({}, {})",
                threads,
                ds,
                qs
            );
            Ok(())
        },
    );
}

/// Any split of `0..|C(root)|` into contiguous ranges (empty ones
/// included) partitions the search: the ranges' embedding sets are
/// disjoint and their union is the full-range run's — for both
/// next-vertex strategies, every LC method's entry convention, failing
/// sets off and on, and every injectivity mode the plan is sound under.
#[test]
fn root_ranges_partition_the_embeddings() {
    const ISO: Injectivity = Injectivity::Isomorphism;
    let pipeline = |order: OrderKind, method| {
        Pipeline::new(
            format!("{order:?}/{method:?}"),
            FilterKind::GraphQl,
            order,
            method,
        )
    };
    Check::new("root_ranges_partition_the_embeddings")
        .cases(12)
        .run(
            |rng, size| {
                let (ds, qs, qsize) = arb_seeds(rng, size, 3);
                (ds, qs, qsize, rng.gen_range(1usize..6), rng.next_u64())
            },
            |&(ds, qs, size, k, cut_seed)| {
                let Some((g, q)) = workload(ds, qs, size) else {
                    return Ok(());
                };
                let gc = DataContext::new(&g);
                // Direct's degree test and the scan methods are exercised
                // under isomorphism; the relaxed modes ride the
                // space-backed plans, as in `semantics_modes.rs`.
                let combos = [
                    (pipeline(OrderKind::GraphQl, LcMethod::Direct), false),
                    (pipeline(OrderKind::GraphQl, LcMethod::CandidateScan), false),
                    (pipeline(OrderKind::GraphQl, LcMethod::TreeIndex), false),
                    (pipeline(OrderKind::GraphQl, LcMethod::Intersect), true),
                    (pipeline(OrderKind::Adaptive, LcMethod::Intersect), true),
                ];
                let modes = [
                    (ISO, false),
                    (ISO, true),
                    (Injectivity::EdgeInjective, false),
                    (Injectivity::Homomorphism, false),
                ];
                for (p, relaxed_ok) in &combos {
                    for (injectivity, failing_sets) in modes {
                        if injectivity != ISO && !relaxed_ok {
                            continue;
                        }
                        let cfg = MatchConfig {
                            failing_sets,
                            ..MatchConfig::find_all().with_semantics(MatchSemantics {
                                injectivity,
                                ..MatchSemantics::default()
                            })
                        };
                        let Ok(plan) = p.plan(&q, &gc, &cfg) else {
                            continue;
                        };
                        let n = EngineInput::new(&plan, &g).root.end;
                        let mut cuts = vec![0, n];
                        let mut rng = Rng64::seed_from_u64(cut_seed);
                        cuts.extend((1..k).map(|_| rng.gen_range(0..n + 1)));
                        cuts.sort_unstable();
                        let collect = |root: std::ops::Range<u32>| {
                            let mut sink = CollectSink::default();
                            enumerate(
                                &EngineInput {
                                    root,
                                    ..EngineInput::new(&plan, &g)
                                },
                                &mut sink,
                            );
                            sink.matches
                        };
                        let mut full = collect(0..n);
                        full.sort();
                        let mut parts: Vec<Vec<u32>> =
                            cuts.windows(2).flat_map(|w| collect(w[0]..w[1])).collect();
                        parts.sort();
                        // `full` lists each embedding once, so multiset
                        // equality is disjointness plus coverage.
                        ensure_eq!(
                            &parts,
                            &full,
                            "{} {:?} fs={} cuts {:?} on seeds ({}, {})",
                            p.name,
                            injectivity,
                            failing_sets,
                            cuts,
                            ds,
                            qs
                        );
                    }
                }
                Ok(())
            },
        );
}
