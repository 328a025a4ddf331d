//! Per-layer measurements of the traced run.
//!
//! Every workload's traced run reports every per-layer metric, measured
//! from outside on that workload's own data graph and query pool: the
//! probes here time calls into public functions and read what the public
//! API returns. Where a workload's own loop exercises a layer (the plan
//! cache under `serve-*`, the WAL under `update-durable`, the router
//! under `shard-scatter`, the plan/execute split under `match-*`), the
//! workload overrides the probe's value with its loop's — see the
//! `report_*_loop` functions.
//!
//! Probes run after the workload's timed section and after its peak
//! memory was read; none of them feeds an end-to-end metric.

use crate::env;
use crate::inputs;
use crate::metrics::Metrics;
use crate::oracle;
use crate::span::{self, SpanBuf};
use crate::stats;
use crate::workloads::serve::{self, ClientObs, Submission};
use crate::workloads::shard;
use crate::workloads::update::{self, UpdateRig};
use crate::workloads::{RunOpts, Verdict};
use sm_runtime::{Counter, CounterBlock, Rng64};
use sm_shard::{Partition, PartitionStrategy, ShardedService};
use std::sync::Arc;
use std::time::Instant;
use subgraph_matching::datasets::{self, DatasetSpec};
use subgraph_matching::delta::{delta_matches, StandingQuery, UpdateStream};
use subgraph_matching::delta::{UpdateBatch, VersionedGraph};
use subgraph_matching::durable::{DurabilityOptions, DurableStore, FsyncPolicy, SnapshotData};
use subgraph_matching::graph::canon::canonical_form;
use subgraph_matching::graph::gen::query::Density;
use subgraph_matching::graph::io::{read_graph, write_graph};
use subgraph_matching::graph::label_index::LabelPairEdgeCounts;
use subgraph_matching::graph::{Graph, VertexId};
use subgraph_matching::intersect::{self, BsrSet, IntersectKind};
use subgraph_matching::matching::enumerate::parallel::ParallelStrategy;
use subgraph_matching::matching::enumerate::{CollectSink, CountSink};
use subgraph_matching::matching::{
    DataContext, Executor, FilterKind, LcMethod, MatchConfig, OrderKind, Outcome, Pipeline,
};
use subgraph_matching::planner::{canon_hash, Planner};
use subgraph_matching::service::{MetricsReport, Service};

/// One data graph of the traced workload with the queries and fixed
/// configuration the workload runs on it.
pub struct PartRef<'a> {
    pub spec: DatasetSpec,
    pub graph: &'a Graph,
    pub queries: &'a [Graph],
    pub pipeline: Pipeline,
    pub config: MatchConfig,
}

pub struct LayerInputs<'a> {
    /// The first part also feeds the single-graph probes (service,
    /// delta, durable, shard, text load).
    pub parts: Vec<PartRef<'a>>,
    pub opts: &'a RunOpts,
}

fn ms(secs: f64) -> f64 {
    secs * 1e3
}

fn us(secs: f64) -> f64 {
    secs * 1e6
}

fn p50(xs: &[f64]) -> f64 {
    stats::median(xs)
}

/// Run every probe. Fills every per-layer metric except the three
/// `bench.*` ones, which only the workload knows.
pub fn probe_all(inp: &LayerInputs<'_>, m: &mut Metrics, rec: &mut SpanBuf) -> Result<(), String> {
    let token = rec.open("probes", 0);
    graph_probe(inp, m, rec);
    intersect_probe(inp, m);
    core_probe(inp, m, rec);
    runtime_probe(inp, m);
    planner_probe(inp, m);
    service_probe(inp, m, rec);
    delta_probe(inp, m)?;
    durable_probe(inp, m, rec)?;
    shard_probe(inp, m, rec)?;
    rec.close(token);
    Ok(())
}

// ---------------------------------------------------------------- graph

fn graph_probe(inp: &LayerInputs<'_>, m: &mut Metrics, rec: &mut SpanBuf) {
    let mut generate_s = 0.0;
    let mut index_s = 0.0;
    for part in &inp.parts {
        generate_s += rec
            .timed("graph.generate", 0, || {
                std::hint::black_box(datasets::generate(&part.spec));
            })
            .1;
        index_s += rec
            .timed("graph.index_build", 0, || {
                std::hint::black_box(DataContext::new(part.graph));
            })
            .1;
    }
    m.set("graph.generate_s", generate_s);
    m.set("graph.index_build_s", index_s);

    let g = inp.parts[0].graph;
    let mut text = Vec::new();
    write_graph(g, &mut text).expect("writing to memory cannot fail");
    let (parsed, load_s) = rec.timed("graph.load_text", 0, || read_graph(&text[..]));
    assert_eq!(
        parsed.expect("own text form parses").num_edges(),
        g.num_edges()
    );
    m.set("graph.load_text_s", load_s);
    let (offsets, adjacency, labels) = g.csr();
    let bytes = std::mem::size_of_val(offsets)
        + std::mem::size_of_val(adjacency)
        + std::mem::size_of_val(labels);
    m.set(
        "graph.bytes_per_edge",
        bytes as f64 / (g.num_edges() as f64).max(1.0),
    );

    let canon: Vec<f64> = inp
        .parts
        .iter()
        .flat_map(|p| p.queries.iter())
        .map(|q| {
            let t = Instant::now();
            std::hint::black_box(canonical_form(q));
            us(t.elapsed().as_secs_f64())
        })
        .collect();
    m.set("graph.canon_us", p50(&canon));
}

// ------------------------------------------------------------ intersect

/// Nanoseconds per input element of `kernel` over `pairs`: the median of
/// five timings, each sweeping the pairs until 8 ms have passed.
fn ns_per_elem(elems: usize, mut sweep: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut sweeps = 0u32;
            while sweeps == 0 || t.elapsed().as_secs_f64() < 0.008 {
                sweep();
                sweeps += 1;
            }
            t.elapsed().as_secs_f64() * 1e9 / (f64::from(sweeps) * elems as f64)
        })
        .collect();
    p50(&samples)
}

fn intersect_probe(inp: &LayerInputs<'_>, m: &mut Metrics) {
    // Adjacency-list pairs across seeded random edges of every part:
    // the lists the executor intersects are neighbour lists of adjacent
    // vertices.
    let mut rng = Rng64::seed_from_u64(inputs::mix(inp.opts.seed, 0x15));
    let mut pairs: Vec<(&[VertexId], &[VertexId])> = Vec::new();
    for part in &inp.parts {
        let g = part.graph;
        let n = g.num_vertices() as u64;
        let want = pairs.len() + inp.opts.size(2000, 100);
        while pairs.len() < want {
            let u = rng.next_u64_below(n) as VertexId;
            let d = g.degree(u);
            if d == 0 {
                continue;
            }
            let v = g.neighbors(u)[rng.next_u64_below(d as u64) as usize];
            pairs.push((g.neighbors(u), g.neighbors(v)));
        }
    }
    let elems: usize = pairs.iter().map(|(a, b)| a.len() + b.len()).sum();
    let mut out = Vec::new();
    for (name, kind) in [
        ("intersect.merge_ns_per_elem", IntersectKind::Merge),
        ("intersect.galloping_ns_per_elem", IntersectKind::Galloping),
        ("intersect.hybrid_ns_per_elem", IntersectKind::Hybrid),
    ] {
        let ns = ns_per_elem(elems, || {
            for &(a, b) in &pairs {
                intersect::intersect_buf(kind, a, b, &mut out);
                std::hint::black_box(out.len());
            }
        });
        m.set(name, ns);
    }
    let sets: Vec<(BsrSet, BsrSet)> = pairs
        .iter()
        .map(|(a, b)| (BsrSet::from_sorted(a), BsrSet::from_sorted(b)))
        .collect();
    let ns = ns_per_elem(elems, || {
        for (a, b) in &sets {
            a.intersect_into_vec(b, &mut out);
            std::hint::black_box(out.len());
        }
    });
    m.set("intersect.bsr_ns_per_elem", ns);
    let fill: f64 = sets
        .iter()
        .map(|(a, b)| a.fill_ratio() + b.fill_ratio())
        .sum();
    m.set("intersect.bsr_fill_ratio", fill / (2 * sets.len()) as f64);
}

// ----------------------------------------------------------------- core

/// What the plan/execute split of a set of queries observed.
#[derive(Default)]
pub struct CoreObs {
    queries: u64,
    plan_s: f64,
    execute_s: f64,
    filter_s: f64,
    order_s: f64,
    build_s: f64,
    matches: u64,
    recursions: u64,
    candidates_avg: f64,
    candidate_bytes: u64,
    space_bytes: u64,
    counters: CounterBlock,
}

/// Run one query as `Pipeline::plan` then `Executor::run`, one span
/// each. Returns the count and whether the run finished.
pub fn split_query(
    pipeline: &Pipeline,
    config: &MatchConfig,
    q: &Graph,
    ctx: &DataContext<'_>,
    qid: u64,
    rec: &mut SpanBuf,
    core: &mut CoreObs,
) -> (u64, bool) {
    core.queries += 1;
    let (plan, plan_s) = rec.timed("core.plan", qid, || pipeline.plan(q, ctx, config));
    core.plan_s += plan_s;
    let plan = match plan {
        Ok(plan) => plan,
        Err(filter_time) => {
            // Some candidate set is empty: no match, nothing to execute.
            core.filter_s += filter_time.as_secs_f64();
            return (0, true);
        }
    };
    let (run, execute_s) = rec.timed("core.execute", qid, || {
        Executor::new(&plan, ctx.graph).run(&mut CountSink)
    });
    core.execute_s += execute_s;
    core.filter_s += plan.filter_time.as_secs_f64();
    core.order_s += plan.order_time.as_secs_f64();
    core.build_s += plan.build_time.as_secs_f64();
    core.matches += run.matches;
    core.recursions += run.recursions;
    core.candidates_avg += plan.candidates.average();
    core.candidate_bytes += plan.candidates.memory_bytes() as u64;
    core.space_bytes += plan.space.as_ref().map_or(0, |s| s.memory_bytes()) as u64;
    core.counters.merge(&run.counters);
    (run.matches, run.outcome != Outcome::TimedOut)
}

impl CoreObs {
    /// Per-query means and the shares, ratios and rates they imply.
    pub fn report(&self, m: &mut Metrics) {
        let n = (self.queries as f64).max(1.0);
        let c = &self.counters;
        let total = (self.plan_s + self.execute_s).max(1e-12);
        let recursions = (self.recursions as f64).max(1.0);
        m.set("core.plan_ms", ms(self.plan_s) / n);
        m.set("core.execute_ms", ms(self.execute_s) / n);
        m.set("core.filter_ms", ms(self.filter_s) / n);
        m.set("core.order_ms", ms(self.order_s) / n);
        m.set("core.build_ms", ms(self.build_s) / n);
        m.set("core.plan_share", self.plan_s / total);
        m.set("core.enumerate_share", self.execute_s / total);
        m.set("core.recursions_per_query", self.recursions as f64 / n);
        m.set(
            "core.embeddings_per_s",
            self.matches as f64 / self.execute_s.max(1e-12),
        );
        m.set(
            "core.intersections_per_recursion",
            c.intersections() as f64 / recursions,
        );
        let lc_reads = c.get(Counter::LcCacheHits) + c.intersections();
        m.set(
            "core.lc_cache_hit_ratio",
            c.get(Counter::LcCacheHits) as f64 / (lc_reads as f64).max(1.0),
        );
        m.set(
            "core.backtrack_ratio",
            c.get(Counter::Backtracks) as f64 / recursions,
        );
        m.set("core.candidates_avg", self.candidates_avg / n);
        m.set("core.candidate_bytes", self.candidate_bytes as f64 / n);
        m.set("core.space_bytes", self.space_bytes as f64 / n);
        for (name, counter) in [
            ("intersect.calls_per_query.merge", Counter::IntersectMerge),
            (
                "intersect.calls_per_query.galloping",
                Counter::IntersectGalloping,
            ),
            ("intersect.calls_per_query.hybrid", Counter::IntersectHybrid),
            ("intersect.calls_per_query.bsr", Counter::IntersectQfilter),
        ] {
            m.set(name, c.get(counter) as f64 / n);
        }
    }
}

fn core_probe(inp: &LayerInputs<'_>, m: &mut Metrics, rec: &mut SpanBuf) {
    let mut core = CoreObs::default();
    for part in &inp.parts {
        let ctx = DataContext::new(part.graph);
        for (i, q) in part.queries.iter().take(inp.opts.size(8, 2)).enumerate() {
            let qid = 0xC0_0000 + i as u64;
            split_query(&part.pipeline, &part.config, q, &ctx, qid, rec, &mut core);
        }
    }
    core.report(m);
}

// -------------------------------------------------------------- runtime

fn runtime_probe(inp: &LayerInputs<'_>, m: &mut Metrics) {
    let (mut one_s, mut two_s) = (0.0, 0.0);
    let (mut morsels, mut steals, mut reuse) = (0u64, 0u64, 0u64);
    let mut busy = Vec::new();
    for part in &inp.parts {
        let ctx = DataContext::new(part.graph);
        for q in part.queries.iter().take(inp.opts.size(4, 1)) {
            let Ok(plan) = part.pipeline.plan(q, &ctx, &part.config) else {
                continue;
            };
            let exec = Executor::new(&plan, part.graph);
            let t = Instant::now();
            std::hint::black_box(exec.run_parallel::<CountSink>(1, ParallelStrategy::Morsel));
            one_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let (run, _) = exec.run_parallel::<CountSink>(2, ParallelStrategy::Morsel);
            two_s += t.elapsed().as_secs_f64();
            if let Some(pool) = &run.parallel {
                morsels += pool.total_morsels();
                steals += pool.total_steals();
                reuse += pool.total_scratch_reuse();
                busy.push(pool.busy_fraction());
            }
        }
    }
    m.set("runtime.speedup_2t", one_s / two_s.max(1e-12));
    m.set("runtime.morsels", morsels as f64);
    m.set("runtime.steals", steals as f64);
    m.set("runtime.busy_share", stats::median(&busy));
    m.set("runtime.scratch_reuse", reuse as f64);
}

// -------------------------------------------------------------- planner

fn planner_probe(inp: &LayerInputs<'_>, m: &mut Metrics) {
    let planner = Planner::new();
    let mut rank_us = Vec::new();
    let mut scored = Vec::new();
    let (mut auto_s, mut fixed_s) = (0.0, 0.0);
    for (pi, part) in inp.parts.iter().enumerate() {
        let ctx = DataContext::new(part.graph);
        for (qi, q) in part.queries.iter().take(inp.opts.size(8, 2)).enumerate() {
            let t = Instant::now();
            let ranked = planner.rank(q, &ctx, &part.config, canon_hash(q));
            rank_us.push(us(t.elapsed().as_secs_f64()));
            scored.push(ranked.len() as f64);
            if pi > 0 || qi >= 2 {
                continue;
            }
            // Auto (second, warm run) against the best of the model's
            // top three combos and the workload's own fixed pipeline.
            // Informational: Auto learns from wall times, so its choice
            // does not repeat.
            planner.run_auto(q, &ctx, &part.config, 1);
            auto_s += planner.run_auto(q, &ctx, &part.config, 1).total_ns as f64 / 1e9;
            let mut best = {
                let t = Instant::now();
                std::hint::black_box(part.pipeline.run(q, &ctx, &part.config));
                t.elapsed().as_secs_f64()
            };
            for score in ranked.iter().take(3) {
                let config = MatchConfig {
                    intersect: score.combo.kernel,
                    ..part.config.clone()
                };
                let t = Instant::now();
                std::hint::black_box(score.combo.pipeline().run(q, &ctx, &config));
                best = best.min(t.elapsed().as_secs_f64());
            }
            fixed_s += best;
        }
    }
    m.set("planner.rank_us", p50(&rank_us));
    m.set("planner.combos_scored", stats::median(&scored));
    m.set("planner.auto_over_best_fixed", auto_s / fixed_s.max(1e-12));
}

// -------------------------------------------------------------- service

/// Seconds the service attributes to its own phases: queue wait (which
/// contains the plan phase), execution, and the client's drain.
pub fn service_phase_seconds(report: &MetricsReport) -> f64 {
    (report.queue_wait.sum() + report.execute.sum() + report.drain.sum()) as f64 / 1e9
}

/// Service-layer metrics of a loop that ran against `report`'s service,
/// as seen by `clients`.
pub fn report_service_loop(m: &mut Metrics, report: &MetricsReport, clients: &ClientObs) {
    let c = &report.counters;
    let (hits, misses) = (
        c.get(Counter::PlanCacheHits),
        c.get(Counter::PlanCacheMisses),
    );
    m.set(
        "service.hit_ratio",
        hits as f64 / ((hits + misses) as f64).max(1.0),
    );
    m.set(
        "service.evictions",
        c.get(Counter::PlanCacheEvictions) as f64,
    );
    m.set(
        "service.queue_wait_us",
        report.queue_wait.quantile(0.5) as f64 / 1e3,
    );
    m.set(
        "service.execute_us",
        report.execute.quantile(0.5) as f64 / 1e3,
    );
    m.set("service.drain_us", report.drain.quantile(0.5) as f64 / 1e3);
    m.set("service.rejected", c.get(Counter::QueriesRejected) as f64);
    if !clients.plan_build_us.is_empty() {
        m.set("service.plan_build_us", p50(&clients.plan_build_us));
    }
    if !clients.first_embedding_us.is_empty() {
        m.set(
            "service.first_embedding_us",
            p50(&clients.first_embedding_us),
        );
        m.set(
            "service.stream_embeddings_per_s",
            clients.delivered as f64 / clients.stream_s.max(1e-12),
        );
    }
}

/// Share of the clients' latency that the service's own phases do not
/// account for.
pub fn service_unattributed_share(report: &MetricsReport, clients: &ClientObs) -> f64 {
    (1.0 - service_phase_seconds(report) / clients.lat_sum_s().max(1e-9)).max(0.0)
}

fn submissions(queries: &[Graph], streaming: bool, cap: u64) -> Vec<Vec<Submission>> {
    vec![queries
        .iter()
        .enumerate()
        .map(|(form, q)| Submission {
            form,
            query: q.clone(),
            streaming,
            cap: Some(cap),
        })
        .collect()]
}

fn service_probe(inp: &LayerInputs<'_>, m: &mut Metrics, rec: &mut SpanBuf) {
    const CAP: u64 = 1000;
    let part = &inp.parts[0];
    let rounds = inp.opts.size(5, 1);
    let queries: Vec<Graph> = part
        .queries
        .iter()
        .take(inp.opts.size(16, 2))
        .cloned()
        .collect();
    let cfg = serve::service_config_with(part.pipeline.clone(), part.config.clone(), 2);
    let svc = Service::new(part.graph.clone(), cfg);

    // Misses, streamed: plan build, first embedding, delivery rate.
    let mut seen = serve::run_clients(&svc, submissions(&queries, true, CAP), 0, rec);
    // Hits, counted. Count-only plans are cached apart from streaming
    // ones, so one unrecorded pass compiles them first.
    serve::run_clients(&svc, submissions(&queries, false, CAP), 1, rec);
    let mut hit_us = Vec::new();
    for round in 0..rounds {
        let obs = serve::run_clients(&svc, submissions(&queries, false, CAP), 2 + round, rec);
        hit_us.extend(obs.lat_ms.iter().map(|l| l * 1e3));
        seen.absorb(obs);
    }

    // The same plans executed directly, no service in the way.
    let ctx = DataContext::new(part.graph);
    let mut config = part.config.clone();
    config.max_matches = Some(CAP);
    config.semantics = config.semantics.count_only();
    let mut direct_us = Vec::new();
    for q in &queries {
        let Ok(plan) = part.pipeline.plan(q, &ctx, &config) else {
            continue;
        };
        for _ in 0..rounds {
            let t = Instant::now();
            std::hint::black_box(Executor::new(&plan, part.graph).run(&mut CountSink));
            direct_us.push(us(t.elapsed().as_secs_f64()));
        }
    }
    m.set("service.overhead_us", p50(&hit_us) - p50(&direct_us));
    m.set("service.plan_build_us", 0.0);
    m.set("service.first_embedding_us", 0.0);
    m.set("service.stream_embeddings_per_s", 0.0);
    report_service_loop(m, &svc.metrics_report(), &seen);
}

// ---------------------------------------------------------------- delta

/// The first `want` forms of a fixed Q4/Q5 pool on `g` whose embedding
/// sets are small enough to keep as standing queries.
pub fn standing_forms(g: &Graph, want: usize) -> Vec<Graph> {
    let mut pool = inputs::query_pool(g, 4, Density::Any, 16, 0x21);
    pool.extend(inputs::query_pool(g, 5, Density::Any, 16, 0x22));
    let ctx = DataContext::new(g);
    pool.into_iter()
        .filter(|q| q.num_edges() >= 1 && q.is_connected())
        .filter(|q| {
            oracle::expected_count(q, &ctx, Some(update::STANDING_LIMIT + 1))
                .is_some_and(|c| c <= update::STANDING_LIMIT)
        })
        .take(want)
        .collect()
}

/// A standing query the incremental engine can maintain (its plan is
/// compiled against the query itself; the engine reads only the plan's
/// query and order).
fn standing_query(q: &Graph) -> Option<StandingQuery> {
    let ctx = DataContext::new(q);
    let order: Vec<VertexId> = (0..q.num_vertices() as VertexId).collect();
    let p = Pipeline::new(
        "standing",
        FilterKind::Ldf,
        OrderKind::Fixed(order),
        LcMethod::Direct,
    );
    let plan = p.plan(q, &ctx, &MatchConfig::default()).ok()?;
    StandingQuery::new(Arc::new(plan))
}

fn delta_probe(inp: &LayerInputs<'_>, m: &mut Metrics) -> Result<(), String> {
    let g = inp.parts[0].graph;
    let standing: Vec<StandingQuery> = standing_forms(g, 2)
        .iter()
        .filter_map(standing_query)
        .collect();
    if standing.is_empty() {
        return Err("delta probe: no standing query compiles".into());
    }
    let vg = VersionedGraph::new(g.clone());
    let mut stream = UpdateStream::new(update::stream_spec(g), inputs::mix(inp.opts.seed, 0xDE));
    let batches = inp.opts.size(60, 6);
    let full_checks = inp.opts.size(3, 1);
    let mut commit_us = Vec::new();
    let mut incremental_us = Vec::new();
    let (mut incr_s, mut full_s) = (0.0, 0.0);
    for step in 0..batches {
        let batch = stream.next_batch(&vg.snapshot());
        let t = Instant::now();
        let committed = vg.commit(&batch);
        commit_us.push(us(t.elapsed().as_secs_f64()));
        let t = Instant::now();
        for sq in &standing {
            std::hint::black_box(delta_matches(sq, &committed, 1));
        }
        let incr = t.elapsed().as_secs_f64();
        incremental_us.push(us(incr));
        if step < full_checks {
            // What maintaining the same sets by full recomputation on
            // the post graph would cost.
            let (post, _) = committed.post.materialize();
            let ctx = DataContext::new(&post);
            let reference = Pipeline::new("full", FilterKind::Ldf, OrderKind::Ri, LcMethod::Direct);
            let t = Instant::now();
            for sq in &standing {
                let mut sink = CollectSink::default();
                reference.run_with_sink(
                    sq.plan().query(),
                    &ctx,
                    &MatchConfig::find_all(),
                    &mut sink,
                );
                std::hint::black_box(sink.matches.len());
            }
            full_s += t.elapsed().as_secs_f64();
            incr_s += incr;
        }
    }
    m.set("delta.commit_us", p50(&commit_us));
    m.set("delta.incremental_us", p50(&incremental_us));
    m.set("delta.incremental_over_full", incr_s / full_s.max(1e-12));
    let t = Instant::now();
    std::hint::black_box(vg.snapshot().materialize());
    m.set("delta.materialize_ms", ms(t.elapsed().as_secs_f64()));
    let t = Instant::now();
    vg.compact();
    m.set("delta.compact_ms", ms(t.elapsed().as_secs_f64()));
    Ok(())
}

// -------------------------------------------------------------- durable

/// Median microseconds per `append_batch` under `fsync`.
fn append_us(
    g: &Graph,
    batches: &[UpdateBatch],
    fsync: FsyncPolicy,
    tag: &str,
) -> Result<f64, String> {
    let dir = env::TempDir::new(tag).map_err(|e| format!("scratch directory: {e}"))?;
    let initial = SnapshotData {
        epoch: 0,
        graph: g.clone(),
        nlf: g.build_nlf(),
        label_pairs: LabelPairEdgeCounts::build(g),
        standing: Vec::new(),
    };
    let opts = DurabilityOptions {
        fsync,
        ..update::durability()
    };
    let mut store = DurableStore::create(dir.path(), opts, &initial)
        .map_err(|e| format!("create store: {e}"))?;
    let mut times = Vec::with_capacity(batches.len());
    for (i, batch) in batches.iter().enumerate() {
        let t = Instant::now();
        store
            .append_batch(i as u64 + 1, batch)
            .map_err(|e| format!("append_batch: {e}"))?;
        times.push(us(t.elapsed().as_secs_f64()));
    }
    Ok(p50(&times))
}

fn durable_probe(inp: &LayerInputs<'_>, m: &mut Metrics, rec: &mut SpanBuf) -> Result<(), String> {
    let part = &inp.parts[0];
    let g = part.graph;

    // The WAL alone: the same batches appended with and without a flush.
    // The difference is this sandbox's fsync, not a device's.
    let batches: Vec<UpdateBatch> = {
        let vg = VersionedGraph::new(g.clone());
        let mut stream =
            UpdateStream::new(update::stream_spec(g), inputs::mix(inp.opts.seed, 0xDA));
        (0..inp.opts.size(100, 8))
            .map(|_| stream.next_batch(&vg.snapshot()))
            .collect()
    };
    m.set(
        "durable.append_us",
        append_us(g, &batches, FsyncPolicy::PerBatch, "wal-sync")?,
    );
    m.set(
        "durable.append_nosync_us",
        append_us(g, &batches, FsyncPolicy::Off, "wal-nosync")?,
    );

    // The restart a durable service is compared with: parse the text
    // form and build a fresh service.
    let mut text = Vec::new();
    write_graph(g, &mut text).expect("writing to memory cannot fail");
    let cfg = serve::service_config_with(part.pipeline.clone(), part.config.clone(), 2);
    let t = Instant::now();
    let parsed = read_graph(&text[..]).map_err(|e| format!("parse own text form: {e:?}"))?;
    drop(Service::new(parsed, cfg.clone()));
    m.set("durable.cold_text_load_ms", ms(t.elapsed().as_secs_f64()));

    // The whole path at a small size: updates beside reads, one forced
    // snapshot, crash image, recovery.
    let mut cfg = cfg;
    cfg.default_cap = Some(update::READ_CAP);
    // Small reads, whatever the workload's own queries cost: this probe
    // is about the write path.
    let reads = inputs::query_pool(g, 4, Density::Any, 8, 0x23);
    let mut rig = UpdateRig::new(
        g.clone(),
        cfg,
        update::durability(),
        reads,
        &standing_forms(g, 2),
        inp.opts.seed,
        "durable-probe",
    )?;
    let iterations = inp.opts.size(60, 13);
    rig.drive(iterations, 1, rec);
    rig.snapshot_now(rec)?;
    rig.drive(iterations, 2, rec);
    let mut verdict = Verdict::default();
    let recovery = rig.crash_and_recover(inp.opts.size(3, 1), false, &mut verdict, rec)?;
    if verdict.failed > 0 {
        return Err(format!(
            "durable probe: recovered state differs: {}",
            verdict.examples.join("; ")
        ));
    }
    rig.report(&recovery, m);
    Ok(())
}

// ---------------------------------------------------------------- shard

/// Shard-layer metrics of a loop that ran against `svc`.
pub fn report_shard_loop(
    m: &mut Metrics,
    svc: &ShardedService,
    num_vertices: usize,
    clients: &ClientObs,
) {
    let c = svc.counters();
    m.set(
        "shard.halo_replication",
        1.0 + c.get(Counter::HaloVerticesReplicated) as f64 / (num_vertices as f64).max(1.0),
    );
    m.set("shard.skew_pct", c.get(Counter::ShardSkew) as f64);
    let report = svc.metrics_report();
    let busy: Vec<f64> = report
        .per_shard
        .iter()
        .map(|r| r.execute.sum() as f64)
        .collect();
    let total: f64 = busy.iter().sum();
    m.set(
        "shard.slowest_shard_share",
        busy.iter().copied().fold(0.0, f64::max) / total.max(1.0),
    );
    if clients.stream_s > 0.0 {
        m.set(
            "shard.gather_embeddings_per_s",
            clients.delivered as f64 / clients.stream_s,
        );
    }
}

/// Share of the clients' latency that no shard's service accounts for. A
/// reply waits for its slowest shard, so the shard whose phases cover
/// the most time is what the tier accounts for.
pub fn shard_unattributed_share(svc: &ShardedService, clients: &ClientObs) -> f64 {
    let attributed = svc
        .metrics_report()
        .per_shard
        .iter()
        .map(service_phase_seconds)
        .fold(0.0, f64::max);
    (1.0 - attributed / clients.lat_sum_s().max(1e-9)).max(0.0)
}

fn shard_probe(inp: &LayerInputs<'_>, m: &mut Metrics, rec: &mut SpanBuf) -> Result<(), String> {
    const CAP: u64 = 1000;
    let part = &inp.parts[0];
    let g = part.graph;
    let (_, build_s) = rec.timed("shard.partition_build", 0, || {
        std::hint::black_box(Partition::build(
            g,
            PartitionStrategy::Hash,
            shard::SHARDS,
            shard::HALO_DEPTH,
            inp.opts.seed,
        ));
    });
    m.set("shard.partition_build_s", build_s);

    let tier = shard::tier(g.clone(), 4, inp.opts.seed);
    let forms: Vec<Graph> = {
        let ctx = DataContext::new(g);
        let pool = inputs::query_pool(g, 4, Density::Any, 12, 0x33);
        shard::eligible_forms(&ctx, pool, 10_000, inp.opts.size(6, 2))
            .into_iter()
            .map(|f| f.0)
            .collect()
    };
    if forms.is_empty() {
        return Err("shard probe: no eligible Q4 form".into());
    }
    let single = Service::new(g.clone(), serve::service_config(g, 4, 2));
    let (mut sharded_us, mut single_us) = (Vec::new(), Vec::new());
    let mut seen = ClientObs::default();
    for round in 0..=inp.opts.size(5, 1) {
        let a = serve::run_clients(&tier, submissions(&forms, false, u64::MAX), round, rec);
        let b = serve::run_clients(&single, submissions(&forms, false, u64::MAX), round, rec);
        // Round 0 compiles the plans on both sides.
        if round > 0 {
            sharded_us.extend(a.lat_ms.iter().map(|l| l * 1e3));
            single_us.extend(b.lat_ms.iter().map(|l| l * 1e3));
            seen.absorb(a);
        }
    }
    m.set("shard.overhead_us", p50(&sharded_us) - p50(&single_us));
    seen.absorb(serve::run_clients(
        &tier,
        submissions(&forms, true, CAP),
        99,
        rec,
    ));
    m.set("shard.gather_embeddings_per_s", 0.0);
    report_shard_loop(m, &tier, g.num_vertices(), &seen);
    Ok(())
}

// ---------------------------------------------------------------- bench

/// Share of the `root`-named spans' time that neither their children
/// nor their `query` children's children cover: the benchmark's own glue
/// around the calls it times.
pub fn uncovered_share(rec: &SpanBuf, root: &'static str) -> f64 {
    let spans = rec.spans();
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(span::self_times(spans)) {
        if s.name == root {
            total += s.dur_ns();
            uncovered += own;
        } else if s.name == "query" && s.parent.is_some_and(|p| spans[p as usize].name == root) {
            uncovered += own;
        }
    }
    uncovered as f64 / (total as f64).max(1.0)
}

/// Write the spans to `benchmark/out/trace-<workload>.jsonl` and note
/// where the traced time went.
pub fn write_trace(rec: &SpanBuf, workload: &str, notes: &mut Vec<String>) {
    let by_name = span::self_time_by_name(rec.spans());
    let total: u64 = by_name.iter().map(|&(_, t)| t).sum();
    for (name, t) in by_name {
        notes.push(format!(
            "span self time {name:<24} {:>10.3} ms  {:>5.1} %",
            t as f64 / 1e6,
            100.0 * t as f64 / (total as f64).max(1.0)
        ));
    }
    match env::out_dir().and_then(|dir| {
        let path = dir.join(format!("trace-{workload}.jsonl"));
        rec.write_jsonl(&path).map(|()| path)
    }) {
        Ok(path) => notes.push(format!(
            "{} spans written to {}",
            rec.spans().len(),
            path.display()
        )),
        Err(e) => notes.push(format!("trace not written: {e}")),
    }
}
