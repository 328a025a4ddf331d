//! Cross-mode correctness of [`MatchSemantics`]: every injectivity mode
//! agrees with a brute-force reference on random workloads, the modes
//! obey the containment inequality `homo >= edge-injective >= iso`,
//! count-only runs count exactly what materializing runs materialize,
//! top-k returns exactly k valid embeddings under 1 and 4 threads and is
//! tallied as one early exit per run that stopped at `k`, and reservoir
//! sampling is deterministic and valid.

use sm_graph::gen::query::{extract_query, generate_query_set, Density, QuerySetSpec};
use sm_graph::gen::random::erdos_renyi;
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_graph::{Graph, VertexId};
use sm_match::enumerate::parallel::ParallelStrategy;
use sm_match::enumerate::{CollectSink, CountSink};
use sm_match::{
    Algorithm, DataContext, Executor, Injectivity, MatchConfig, MatchSemantics, Outcome, Pipeline,
};
use sm_runtime::check::Check;
use sm_runtime::rng::Rng64;
use sm_runtime::{ensure, ensure_eq, CancelReason, CancelToken, Counter};

/// Brute-force count of query→data mappings under a given injectivity
/// rule: every query edge must map to a data edge; `Isomorphism`
/// additionally requires distinct data vertices, `EdgeInjective`
/// distinct (undirected) data edges, `Homomorphism` nothing.
fn brute_count(q: &Graph, g: &Graph, inj: Injectivity) -> u64 {
    fn recurse(
        q: &Graph,
        g: &Graph,
        inj: Injectivity,
        m: &mut Vec<VertexId>,
        used_edges: &mut Vec<(VertexId, VertexId)>,
    ) -> u64 {
        let u = m.len() as VertexId;
        if u as usize == q.num_vertices() {
            return 1;
        }
        let mut total = 0;
        'outer: for v in 0..g.num_vertices() as VertexId {
            if g.label(v) != q.label(u) {
                continue;
            }
            if inj == Injectivity::Isomorphism && m.contains(&v) {
                continue;
            }
            let base = used_edges.len();
            for ub in 0..u {
                let adjacent = q.neighbors(u).contains(&ub);
                if !adjacent {
                    continue;
                }
                let vb = m[ub as usize];
                if !g.neighbors(v).contains(&vb) {
                    used_edges.truncate(base);
                    continue 'outer;
                }
                if inj == Injectivity::EdgeInjective {
                    let e = (vb.min(v), vb.max(v));
                    if used_edges.contains(&e) {
                        used_edges.truncate(base);
                        continue 'outer;
                    }
                    used_edges.push(e);
                }
            }
            m.push(v);
            total += recurse(q, g, inj, m, used_edges);
            m.pop();
            used_edges.truncate(base);
        }
        total
    }
    recurse(q, g, inj, &mut Vec::new(), &mut Vec::new())
}

fn workload(data_seed: u64, query_seed: u64, qsize: usize) -> Option<(Graph, Graph)> {
    let g = erdos_renyi(40, 90, 3, data_seed);
    let mut rng = Rng64::seed_from_u64(query_seed);
    for _ in 0..30 {
        if let Some(q) = extract_query(&g, qsize, Density::Any, &mut rng) {
            return Some((g, q));
        }
    }
    None
}

fn arb_workload(rng: &mut Rng64, size: u32) -> (u64, u64, usize) {
    let qsize = 3 + (size as usize * 2 / 100).min(2); // 3..=5
    (rng.gen_range(0..5000u64), rng.gen_range(0..5000u64), qsize)
}

/// Pipelines covering both next-vertex strategies: the static order
/// (GraphQL-style plan) and DP-iso's adaptive order.
fn pipelines() -> Vec<Pipeline> {
    vec![Algorithm::GraphQl.optimized(), Algorithm::DpIso.optimized()]
}

#[test]
fn every_mode_agrees_with_brute_force() {
    Check::new("every_mode_agrees_with_brute_force")
        .cases(12)
        .run(arb_workload, |&(data_seed, query_seed, qsize)| {
            let Some((g, q)) = workload(data_seed, query_seed, qsize) else {
                return Ok(());
            };
            let gc = DataContext::new(&g);
            for inj in [
                Injectivity::Isomorphism,
                Injectivity::EdgeInjective,
                Injectivity::Homomorphism,
            ] {
                let want = brute_count(&q, &g, inj);
                let sem = MatchSemantics {
                    injectivity: inj,
                    ..MatchSemantics::default()
                };
                for p in pipelines() {
                    let cfg = MatchConfig::find_all().with_semantics(sem);
                    let out = p.run(&q, &gc, &cfg);
                    ensure_eq!(
                        out.matches,
                        want,
                        "{} under {} on seeds ({}, {})",
                        p.name,
                        inj.name(),
                        data_seed,
                        query_seed
                    );
                }
            }
            Ok(())
        });
}

#[test]
fn mode_counts_obey_containment() {
    // Every isomorphism is edge-injective, every edge-injective mapping
    // is a homomorphism — the counts must be ordered accordingly.
    Check::new("mode_counts_obey_containment").cases(12).run(
        arb_workload,
        |&(data_seed, query_seed, qsize)| {
            let Some((g, q)) = workload(data_seed, query_seed, qsize) else {
                return Ok(());
            };
            let gc = DataContext::new(&g);
            let count = |inj| {
                let sem = MatchSemantics {
                    injectivity: inj,
                    ..MatchSemantics::default()
                };
                Algorithm::GraphQl
                    .optimized()
                    .run(&q, &gc, &MatchConfig::find_all().with_semantics(sem))
                    .matches
            };
            let iso = count(Injectivity::Isomorphism);
            let edge = count(Injectivity::EdgeInjective);
            let homo = count(Injectivity::Homomorphism);
            ensure!(
                homo >= edge && edge >= iso,
                "containment violated: homo {homo} >= edge {edge} >= iso {iso} \
                 on seeds ({data_seed}, {query_seed})"
            );
            Ok(())
        },
    );
}

#[test]
fn known_fixture_separates_the_modes() {
    use sm_graph::builder::graph_from_edges;
    // Path query u0-u1-u2 on a single data edge: homomorphisms fold the
    // path onto the edge (2 ways), but both path edges map to the same
    // data edge, so edge-injective and isomorphic counts are zero.
    let q = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]);
    let g = graph_from_edges(&[0, 0], &[(0, 1)]);
    let gc = DataContext::new(&g);
    let run = |inj| {
        let sem = MatchSemantics {
            injectivity: inj,
            ..MatchSemantics::default()
        };
        Algorithm::GraphQl
            .optimized()
            .run(&q, &gc, &MatchConfig::find_all().with_semantics(sem))
            .matches
    };
    assert_eq!(run(Injectivity::Homomorphism), 2);
    assert_eq!(run(Injectivity::EdgeInjective), 0);
    assert_eq!(run(Injectivity::Isomorphism), 0);
    // On a 3-path, walks of length 2 exist that reuse the middle edge:
    // homo 6, edge-injective 2 (= iso — no walk can reuse an edge
    // without folding vertices too, here).
    let p3 = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]);
    let gc3 = DataContext::new(&p3);
    let run3 = |inj| {
        let sem = MatchSemantics {
            injectivity: inj,
            ..MatchSemantics::default()
        };
        Algorithm::GraphQl
            .optimized()
            .run(&q, &gc3, &MatchConfig::find_all().with_semantics(sem))
            .matches
    };
    assert_eq!(run3(Injectivity::Homomorphism), 6);
    assert_eq!(run3(Injectivity::EdgeInjective), 2);
    assert_eq!(run3(Injectivity::Isomorphism), 2);
}

#[test]
fn every_pipeline_counts_folded_homomorphisms() {
    use sm_graph::builder::graph_from_edges;
    // A path whose middle vertex has degree 2 folds onto a data edge
    // whose endpoints have degree 1: no degree bound may prune them. The
    // original pipelines cover every local-candidate method, Direct's
    // scan of N(parent) included.
    let q = graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2)]);
    let g = graph_from_edges(&[0, 1], &[(0, 1)]);
    let gc = DataContext::new(&g);
    let sem = MatchSemantics {
        injectivity: Injectivity::Homomorphism,
        ..MatchSemantics::default()
    };
    for alg in Algorithm::all() {
        let out = alg
            .original()
            .run(&q, &gc, &MatchConfig::find_all().with_semantics(sem));
        assert_eq!(out.matches, 1, "{}", alg.abbrev());
    }
}

#[test]
fn count_only_equals_materialized_length() {
    // For every filter × order combination the paper's algorithms span,
    // a count-only run reports exactly the number of embeddings the
    // materializing run collects.
    let Some((g, q)) = workload(11, 17, 4) else {
        panic!("workload generation failed");
    };
    let gc = DataContext::new(&g);
    for alg in Algorithm::all() {
        let p = alg.optimized();
        let mut sink = CollectSink::default();
        p.run_with_sink(&q, &gc, &MatchConfig::find_all(), &mut sink);
        let mut count_sink = CountSink;
        let cfg = MatchConfig::find_all().with_semantics(MatchSemantics::default().count_only());
        let stats = p.run_with_sink(&q, &gc, &cfg, &mut count_sink);
        assert_eq!(
            stats.matches,
            sink.matches.len() as u64,
            "{} count-only disagrees with materialization",
            alg.abbrev()
        );
    }
}

/// Validate that `m` is a genuine isomorphic embedding of `q` in `g`.
fn is_valid_embedding(q: &Graph, g: &Graph, m: &[VertexId]) -> bool {
    if m.len() != q.num_vertices() {
        return false;
    }
    for (u, &v) in m.iter().enumerate() {
        if g.label(v) != q.label(u as VertexId) {
            return false;
        }
        if m.iter().filter(|&&w| w == v).count() != 1 {
            return false;
        }
        for &ub in q.neighbors(u as VertexId) {
            if !g.neighbors(v).contains(&m[ub as usize]) {
                return false;
            }
        }
    }
    true
}

#[test]
fn top_k_returns_exactly_k_valid_embeddings() {
    let Some((g, q)) = workload(23, 29, 3) else {
        panic!("workload generation failed");
    };
    let gc = DataContext::new(&g);
    let pipeline = Algorithm::GraphQl.optimized();
    let total = pipeline.run(&q, &gc, &MatchConfig::find_all()).matches;
    let k = (total / 2).max(1);
    let cfg = MatchConfig::find_all().with_semantics(MatchSemantics::default().top_k(k));
    let plan = pipeline.plan(&q, &gc, &cfg).expect("satisfiable");
    let exec = sm_match::Executor::new(&plan, &g);

    // Sequential.
    let mut sink = CollectSink::default();
    let stats = exec.run(&mut sink);
    assert_eq!(stats.matches, k);
    assert_eq!(stats.outcome, Outcome::CapReached);
    assert_eq!(sink.matches.len() as u64, k);
    assert!(sink.matches.iter().all(|m| is_valid_embedding(&q, &g, m)));

    // 4 workers: the atomic slot allocator keeps the cap exact.
    let (par_stats, sinks) = exec
        .run_parallel::<CollectSink>(4, sm_match::enumerate::parallel::ParallelStrategy::Morsel);
    assert_eq!(par_stats.matches, k, "cap exact across 4 workers");
    let collected: Vec<&Vec<VertexId>> = sinks.iter().flat_map(|s| s.matches.iter()).collect();
    assert_eq!(collected.len() as u64, k);
    assert!(collected.iter().all(|m| is_valid_embedding(&q, &g, m)));
}

/// Q4S forms on a 3-label RMAT graph, most with far more than 20 000
/// embeddings.
fn topk_workload() -> (Graph, Vec<Graph>) {
    let g = rmat_graph(4_000, 10.0, 3, RmatParams::PAPER, 0xD150);
    let spec = QuerySetSpec {
        num_vertices: 4,
        density: Density::Sparse,
        count: 4,
    };
    let queries = generate_query_set(&g, spec, 7);
    (g, queries)
}

#[test]
fn top_k_early_exit_is_tallied_once_per_run() {
    // Every worker whose morsel observes the cap ends `CapReached`; the
    // run still stopped at its k once.
    let (g, queries) = topk_workload();
    let gc = DataContext::new(&g);
    let cfg = MatchConfig::find_all().with_semantics(MatchSemantics::default().top_k(20_000));
    let mut capped = 0;
    for q in &queries {
        let plan = Algorithm::GraphQl
            .optimized()
            .plan(q, &gc, &cfg)
            .expect("satisfiable");
        let exec = Executor::new(&plan, &g);
        let (par, _) = exec.run_parallel::<CountSink>(4, ParallelStrategy::Morsel);
        let seq = exec.run(&mut CountSink);
        for stats in [par, seq] {
            let want = u64::from(stats.matches == 20_000);
            assert_eq!(stats.counters.get(Counter::TopkEarlyExits), want);
            capped += want;
        }
    }
    assert!(capped >= 2, "the workload must reach k");
}

#[test]
fn cancelled_top_k_run_is_no_early_exit() {
    // A caller cancellation ends the run `CapReached` short of k.
    let (g, queries) = topk_workload();
    let gc = DataContext::new(&g);
    let token = CancelToken::new();
    token.cancel(CancelReason::Stopped);
    let cfg = MatchConfig::find_all()
        .with_semantics(MatchSemantics::default().top_k(u64::MAX / 2))
        .with_cancel(token);
    let plan = Algorithm::GraphQl
        .optimized()
        .plan(&queries[0], &gc, &cfg)
        .expect("satisfiable");
    let exec = Executor::new(&plan, &g);
    let (par, _) = exec.run_parallel::<CountSink>(4, ParallelStrategy::Morsel);
    let seq = exec.run(&mut CountSink);
    for stats in [par, seq] {
        assert_eq!(stats.outcome, Outcome::CapReached);
        assert_eq!(stats.counters.get(Counter::TopkEarlyExits), 0);
    }
}

#[test]
fn sample_k_is_deterministic_and_valid() {
    let Some((g, q)) = workload(31, 37, 3) else {
        panic!("workload generation failed");
    };
    let gc = DataContext::new(&g);
    let pipeline = Algorithm::GraphQl.optimized();
    let total = pipeline.run(&q, &gc, &MatchConfig::find_all()).matches;
    assert!(total > 0, "fixture must have matches");
    let k = 3u64.min(total);
    let cfg = MatchConfig::find_all().with_semantics(MatchSemantics::default().sample_k(k, 42));
    let plan = pipeline.plan(&q, &gc, &cfg).expect("satisfiable");
    let exec = sm_match::Executor::new(&plan, &g);
    let (stats, samples) = exec.run_sample();
    // Sampling enumerates to exhaustion: the count stays exact.
    assert_eq!(stats.matches, total);
    assert_eq!(samples.len() as u64, k.min(total));
    assert!(samples.iter().all(|m| is_valid_embedding(&q, &g, m)));
    let (_, again) = sm_match::Executor::new(&plan, &g).run_sample();
    assert_eq!(samples, again, "same seed, same sample");
}
