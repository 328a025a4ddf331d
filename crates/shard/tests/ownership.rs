//! Exactly-once ownership: a shard's service, restricted to the vertices
//! it owns, replies with exactly the embeddings whose anchor image it
//! owns. Over seeded RMAT graphs, random connected queries within the
//! halo, both partitioners, 1/2/4 shards, the three injectivity modes
//! and one pipeline per local-candidate method, the shards' replies are
//! pairwise disjoint, their union is one `Service`'s embedding set, and
//! their counts sum to its count. The restriction also survives the plan
//! cache's remap onto a permuted twin, the traced tail-capture compile
//! and the Auto planner's compile.

use sm_graph::builder::graph_from_edges;
use sm_graph::gen::query::{extract_query, Density};
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_graph::traversal::diameter;
use sm_graph::{Graph, VertexId};
use sm_match::{anchor, Algorithm, Injectivity, MatchConfig, MatchSemantics, PlanSelection};
use sm_runtime::{Counter, Rng64};
use sm_service::{MetricsConfig, QueryRequest, Service, ServiceConfig, ServiceOutcome};
use sm_shard::{owned_mask, Partition, PartitionStrategy, ShardConfig, ShardedService};
use std::time::{Duration, Instant};

const HALO: u32 = 3;
const SEED: u64 = 7;

/// One service per piece of a partition of `g`, each restricted to the
/// vertices its shard owns — what a `ShardedService` runs per shard.
struct Shards {
    services: Vec<Service>,
    global_of: Vec<Vec<VertexId>>,
    owner: Vec<u32>,
}

impl Shards {
    fn new(g: &Graph, strategy: PartitionStrategy, shards: usize, cfg: &ServiceConfig) -> Self {
        let p = Partition::build(g, strategy, shards, HALO, SEED);
        let services = p
            .pieces
            .iter()
            .enumerate()
            .map(|(s, piece)| {
                let owned = owned_mask(&piece.global_of, &p.owner, s);
                Service::new_shard(piece.graph.clone(), owned, cfg.clone(), None)
            })
            .collect();
        Shards {
            services,
            global_of: p.pieces.into_iter().map(|piece| piece.global_of).collect(),
            owner: p.owner,
        }
    }

    /// Shard `s`'s materialized reply to `q`, in global ids, sorted.
    fn streamed(&self, s: usize, q: &Graph, semantics: MatchSemantics) -> Vec<Vec<VertexId>> {
        let req = QueryRequest::streaming(q.clone()).with_semantics(semantics);
        let global_of = &self.global_of[s];
        let mut out: Vec<Vec<VertexId>> = self.services[s]
            .submit(req)
            .map(|m| m.iter().map(|&l| global_of[l as usize]).collect())
            .collect();
        out.sort_unstable();
        out
    }

    /// Shard `s`'s count-only reply to `q`.
    fn counted(&self, s: usize, q: &Graph, semantics: MatchSemantics) -> u64 {
        let req = QueryRequest::count(q.clone()).with_semantics(semantics.count_only());
        let report = self.services[s].submit(req).wait();
        assert_eq!(report.outcome, ServiceOutcome::Complete);
        report.matches
    }

    /// The embeddings of `all` whose anchor image shard `s` owns.
    fn share(&self, s: usize, q: &Graph, all: &[Vec<VertexId>]) -> Vec<Vec<VertexId>> {
        let a = anchor(q) as usize;
        all.iter()
            .filter(|m| self.owner[m[a] as usize] as usize == s)
            .cloned()
            .collect()
    }
}

/// Assert two sorted embedding sets are equal, naming a few of the
/// embeddings only one of them holds.
fn assert_same(got: &[Vec<VertexId>], want: &[Vec<VertexId>], at: &str) {
    if got != want {
        let extra: Vec<_> = got
            .iter()
            .filter(|m| want.binary_search(m).is_err())
            .take(3)
            .collect();
        let missing: Vec<_> = want
            .iter()
            .filter(|m| got.binary_search(m).is_err())
            .take(3)
            .collect();
        panic!(
            "{at}: {} embeddings, expected {}; extra {extra:?}, missing {missing:?}",
            got.len(),
            want.len()
        );
    }
}

/// `q`'s embedding set on one unrestricted service, sorted.
fn truth(svc: &Service, q: &Graph, semantics: MatchSemantics) -> Vec<Vec<VertexId>> {
    let req = QueryRequest::streaming(q.clone()).with_semantics(semantics);
    let mut out: Vec<Vec<VertexId>> = svc.submit(req).collect();
    out.sort_unstable();
    out
}

/// Connected queries of 3–5 vertices drawn from `g`, each with diameter
/// at most the halo depth.
fn random_queries(g: &Graph, seed: u64, want: usize) -> Vec<Graph> {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut out = Vec::new();
    while out.len() < want {
        let size = 3 + out.len() % 3;
        if let Some(q) = extract_query(g, size, Density::Any, &mut rng) {
            if diameter(&q).is_some_and(|d| d <= HALO) {
                out.push(q);
            }
        }
    }
    out
}

fn mode(injectivity: Injectivity) -> MatchSemantics {
    MatchSemantics {
        injectivity,
        ..MatchSemantics::default()
    }
}

fn config(pipeline: sm_match::Pipeline) -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        pipeline,
        ..ServiceConfig::default()
    }
}

#[test]
fn every_embedding_is_found_by_exactly_one_shard() {
    // One pipeline per local-candidate method, plus the adaptive order.
    // Direct builds LC from N(parent) and reads C(u) only at the root.
    let pipelines = [
        ("Direct", Algorithm::QuickSi.original()),
        ("CandidateScan", Algorithm::GraphQl.original()),
        ("TreeIndex", Algorithm::Cfl.original()),
        ("Intersect", Algorithm::GraphQl.optimized()),
        ("adaptive", Algorithm::DpIso.original()),
    ];
    let modes = [
        Injectivity::Isomorphism,
        Injectivity::EdgeInjective,
        Injectivity::Homomorphism,
    ];
    for seed in [0x5EED_u64, 0xB0A7] {
        let g = rmat_graph(160, 5.0, 3, RmatParams::PAPER, seed);
        let queries = random_queries(&g, seed, 4);
        for (name, pipeline) in pipelines.clone() {
            let cfg = config(pipeline);
            let single = Service::new(g.clone(), cfg.clone());
            for strategy in [PartitionStrategy::Hash, PartitionStrategy::LabelAware] {
                for k in [1, 2, 4] {
                    let tier = Shards::new(&g, strategy, k, &cfg);
                    for (qi, q) in queries.iter().enumerate() {
                        for inj in modes {
                            let at = format!("{name} {strategy:?} x{k} q{qi} {inj:?}");
                            let want = truth(&single, q, mode(inj));
                            let replies: Vec<_> =
                                (0..k).map(|s| tier.streamed(s, q, mode(inj))).collect();
                            for (s, reply) in replies.iter().enumerate() {
                                let at = format!("{at}: shard {s}");
                                assert_same(reply, &tier.share(s, q, &want), &at);
                            }
                            // The shares partition the whole set: their
                            // sorted concatenation is it, duplicates
                            // included.
                            let mut union: Vec<_> = replies.concat();
                            union.sort_unstable();
                            assert_same(&union, &want, &format!("{at}: union"));
                            let counts: u64 = (0..k).map(|s| tier.counted(s, q, mode(inj))).sum();
                            assert_eq!(counts, want.len() as u64, "{at}: counts");
                        }
                    }
                }
            }
        }
    }
}

/// A 4-path whose middle vertices tie on degree but carry different
/// labels, so the tie is not an automorphism, and its reversal, which
/// swaps their ids. A rule that broke the tie by vertex id would anchor
/// the twins on different vertices.
fn path_and_reversal() -> (Graph, Graph) {
    let q = graph_from_edges(&[0, 1, 2, 0], &[(0, 1), (1, 2), (2, 3)]);
    let twin = graph_from_edges(&[0, 2, 1, 0], &[(0, 1), (1, 2), (2, 3)]);
    (q, twin)
}

#[test]
fn the_anchor_survives_the_plan_cache_remap() {
    let g = rmat_graph(300, 6.0, 3, RmatParams::PAPER, 0xCA5E);
    let (q, twin) = path_and_reversal();
    let semantics = MatchSemantics::default();
    let cfg = ServiceConfig::default();
    let want = truth(&Service::new(g.clone(), cfg.clone()), &q, semantics);
    assert!(want.len() > 20, "fixture needs matches");
    // Which shards compile the twin first: all, none, every other one.
    let warm_orders: [fn(usize) -> bool; 3] = [|_| true, |_| false, |s| s % 2 == 0];
    for (order, twin_first) in warm_orders.iter().enumerate() {
        let tier = Shards::new(&g, PartitionStrategy::Hash, 3, &cfg);
        let mut counts = 0;
        let mut union = Vec::new();
        for s in 0..3 {
            let (first, second) = if twin_first(s) {
                (&twin, &q)
            } else {
                (&q, &twin)
            };
            tier.counted(s, first, semantics);
            tier.streamed(s, first, semantics);
            let svc = &tier.services[s];
            let report = svc.submit(QueryRequest::count(second.clone())).wait();
            assert!(report.cache_hit, "order {order}: the second form hits");
            // The form served from the other's plan lands on its own
            // anchor: shard s's reply is exactly its owned share.
            let reply = tier.streamed(s, &q, semantics);
            assert_same(
                &reply,
                &tier.share(s, &q, &want),
                &format!("order {order}: shard {s}"),
            );
            counts += tier.counted(s, &q, semantics);
            union.extend(reply);
        }
        union.sort_unstable();
        assert_same(&union, &want, &format!("order {order}: union"));
        assert_eq!(counts, want.len() as u64, "order {order}: counts");
    }
}

/// Poll `done` until it holds or five seconds pass.
fn eventually(done: impl Fn() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(5) {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    done()
}

#[test]
fn traced_and_auto_planned_compiles_return_the_owned_share() {
    let g = rmat_graph(300, 6.0, 3, RmatParams::PAPER, 0xCA5E);
    let (q, _) = path_and_reversal();
    let semantics = MatchSemantics::default();
    let want = truth(
        &Service::new(g.clone(), ServiceConfig::default()),
        &q,
        semantics,
    );

    // Every occurrence crosses a zero slow threshold, so the second
    // submission of a form is compiled again with a trace attached.
    let traced = ServiceConfig {
        metrics: MetricsConfig {
            slow_threshold: Some(Duration::ZERO),
            ..MetricsConfig::default()
        },
        ..ServiceConfig::default()
    };
    let tier = Shards::new(&g, PartitionStrategy::Hash, 2, &traced);
    for s in 0..2 {
        let share = tier.share(s, &q, &want).len() as u64;
        assert_eq!(tier.counted(s, &q, semantics), share);
        let svc = &tier.services[s];
        assert!(eventually(|| svc.metrics_report().slow.len() == 1));
        assert_eq!(tier.counted(s, &q, semantics), share, "traced, shard {s}");
        assert!(
            eventually(|| svc.metrics_report().slow[0].profile.is_some()),
            "shard {s}: the second run was the traced compile"
        );
    }

    let auto = ServiceConfig {
        base_config: MatchConfig {
            plan: PlanSelection::Auto,
            ..MatchConfig::default()
        },
        ..ServiceConfig::default()
    };
    let tier = Shards::new(&g, PartitionStrategy::Hash, 2, &auto);
    for s in 0..2 {
        let reply = tier.streamed(s, &q, semantics);
        assert_same(
            &reply,
            &tier.share(s, &q, &want),
            &format!("auto, shard {s}"),
        );
        assert!(tier.services[s].counters().get(Counter::PlansAutotuned) >= 1);
    }
}

#[test]
fn the_router_reports_the_summed_shares() {
    let g = rmat_graph(300, 6.0, 3, RmatParams::PAPER, 0xCA5E);
    let (q, _) = path_and_reversal();
    let want = truth(
        &Service::new(g.clone(), ServiceConfig::default()),
        &q,
        MatchSemantics::default(),
    );
    let n = want.len() as u64;
    let svc = ShardedService::new(
        g,
        ShardConfig {
            shards: 3,
            halo_depth: HALO,
            seed: SEED,
            ..ShardConfig::default()
        },
    );
    let report = svc.run_count(q.clone());
    assert_eq!(
        (report.outcome, report.matches),
        (ServiceOutcome::Complete, n)
    );
    // A count cap reports min(Σ, cap), CapHit iff the sum reaches it.
    for (cap, outcome) in [
        (n - 1, ServiceOutcome::CapHit),
        (n, ServiceOutcome::CapHit),
        (n + 1, ServiceOutcome::Complete),
    ] {
        let report = svc
            .submit(QueryRequest::count(q.clone()).with_cap(cap))
            .wait();
        assert_eq!(report.outcome, outcome, "cap {cap}");
        assert_eq!(report.matches, n.min(cap), "cap {cap}");
    }
}
