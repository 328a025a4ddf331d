//! `match-enum` and `match-plan`: one thread calling `Pipeline::run`
//! with the paper's recommended configuration.
//!
//! * `match-enum` — Q8S on `hu` (dense: GQL order, BSR kernel) and `yt`
//!   (sparse: RI order, hybrid kernel) with a high cap and no time limit,
//!   so enumeration and set intersection are nearly all of the wall time
//!   and the work is identical run to run.
//! * `match-plan` — large queries on `up`, `eu` and `wn` under the
//!   paper's 10^5 cap, where filtering and building the candidate space
//!   dominate and enumeration is a small share.

use super::{end_to_end, measure, median_setup, Pass, PassKind, Report, RunOpts, Verdict};
use crate::inputs;
use crate::layers::{self, CoreObs, LayerInputs, PartRef};
use crate::metrics::Metrics;
use crate::oracle;
use crate::span::SpanBuf;
use sm_runtime::Rng64;
use std::time::Instant;
use subgraph_matching::datasets::DatasetSpec;
use subgraph_matching::graph::gen::query::Density;
use subgraph_matching::graph::{Graph, GraphStats};
use subgraph_matching::matching::{recommended, DataContext, MatchConfig, Outcome, Pipeline};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    Enum,
    Plan,
}

/// `(dataset, query size, density, queries per pass)`.
fn sets(shape: Shape) -> &'static [(&'static str, usize, Density, usize)] {
    match shape {
        Shape::Enum => &[
            ("hu", 8, Density::Sparse, 16),
            ("yt", 8, Density::Sparse, 16),
        ],
        Shape::Plan => &[
            ("up", 32, Density::Sparse, 16),
            ("eu", 16, Density::Dense, 16),
            ("wn", 16, Density::Sparse, 16),
        ],
    }
}

/// `match-enum` stops a query at 4·10^6 embeddings (some 25 ms of pure
/// enumeration per query, against 2 ms of planning); `match-plan` uses
/// the paper's 10^5.
fn cap(shape: Shape) -> u64 {
    match shape {
        Shape::Enum => 4_000_000,
        Shape::Plan => 100_000,
    }
}

/// One dataset with its query pool and recommended configuration.
pub struct Part {
    pub spec: DatasetSpec,
    pub graph: Graph,
    pub queries: Vec<Graph>,
    pub pipeline: Pipeline,
    pub config: MatchConfig,
}

fn build_parts(shape: Shape, opts: &RunOpts, rec: &mut SpanBuf) -> Vec<Part> {
    sets(shape)
        .iter()
        .enumerate()
        .map(|(i, &(abbrev, size, density, count))| {
            let ((spec, graph), _) = rec.timed("graph.generate", 0, || inputs::dataset(abbrev));
            // The index build is set-up work a caller pays; the context
            // itself borrows the graph, so the run rebuilds it below.
            rec.timed("graph.index_build", 0, || {
                std::hint::black_box(DataContext::new(&graph));
            });
            let count = opts.size(count, 3);
            let queries = rec
                .timed("graph.query_gen", 0, || {
                    inputs::query_pool(&graph, size, density, count, i as u64)
                })
                .0;
            let (pipeline, mut config) = recommended(&GraphStats::of(&graph), size);
            config.max_matches = Some(cap(shape));
            config.semantics = config.semantics.count_only();
            config.time_limit = Some(oracle::SAFETY_LIMIT);
            Part {
                spec,
                graph,
                queries,
                pipeline,
                config,
            }
        })
        .collect()
}

/// `(part, query)` pairs of one pass, in this pass's seeded order.
fn visit_order(parts: &[Part], rng: &mut Rng64) -> Vec<(usize, usize)> {
    let mut order: Vec<(usize, usize)> = parts
        .iter()
        .enumerate()
        .flat_map(|(p, part)| (0..part.queries.len()).map(move |q| (p, q)))
        .collect();
    rng.shuffle(&mut order);
    order
}

pub fn run(shape: Shape, opts: &RunOpts) -> Result<Report, String> {
    let mut rec = SpanBuf::new(opts.trace);
    let (parts, setup_s) = median_setup(|| {
        let token = rec.open("setup", 0);
        let parts = build_parts(shape, opts, &mut rec);
        rec.close(token);
        parts
    });
    let ctxs: Vec<DataContext<'_>> = parts.iter().map(|p| DataContext::new(&p.graph)).collect();

    // Every answer of every pass, checked after the timed section.
    let mut answers: Vec<(usize, usize, u64, bool)> = Vec::new();
    let mut core = CoreObs::default();
    let mut rng = Rng64::seed_from_u64(inputs::mix(opts.seed, 0x0A));
    let measured = measure(opts, &mut rec, |kind, rec| {
        let order = visit_order(&parts, &mut rng);
        let mut lat_ms = Vec::with_capacity(order.len());
        let started = Instant::now();
        for &(p, q) in &order {
            let part = &parts[p];
            let query = &part.queries[q];
            let qid = (p * 1000 + q + 1) as u64;
            let t = Instant::now();
            let (matches, ok) = if rec.enabled() && matches!(kind, PassKind::Timed(_)) {
                let token = rec.open("query", qid);
                let out = layers::split_query(
                    &part.pipeline,
                    &part.config,
                    query,
                    &ctxs[p],
                    qid,
                    rec,
                    &mut core,
                );
                rec.close(token);
                out
            } else {
                let out = part.pipeline.run(query, &ctxs[p], &part.config);
                (out.matches, out.outcome != Outcome::TimedOut)
            };
            lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
            answers.push((p, q, matches, ok));
        }
        Pass {
            wall_s: started.elapsed().as_secs_f64(),
            ops: order.len() as u64,
            lat_ms,
        }
    });
    let peak_rss_mb = crate::env::peak_rss_mb();

    let t = Instant::now();
    let mut expected: Vec<Vec<Option<u64>>> = parts
        .iter()
        .zip(&ctxs)
        .map(|(part, ctx)| {
            part.queries
                .iter()
                .map(|q| oracle::expected_count(q, ctx, Some(cap(shape))))
                .collect()
        })
        .collect();
    let oracle_s = t.elapsed().as_secs_f64();
    if opts.sabotage {
        expected[0][0] = expected[0][0].map(|c| c + 1);
    }
    let mut verdict = Verdict::default();
    for &(p, q, matches, ok) in &answers {
        let want = expected[p][q];
        verdict.check(ok && want == Some(matches), || {
            format!(
                "{} query {q}: got {matches} (finished: {ok}), oracle {want:?}",
                parts[p].spec.abbrev
            )
        });
    }

    let mut m = Metrics::default();
    let mut notes = verdict.examples.clone();
    if opts.trace {
        let inputs = LayerInputs {
            parts: parts
                .iter()
                .map(|p| PartRef {
                    spec: p.spec,
                    graph: &p.graph,
                    queries: &p.queries,
                    pipeline: p.pipeline.clone(),
                    config: p.config.clone(),
                })
                .collect(),
            opts,
        };
        layers::probe_all(&inputs, &mut m, &mut rec)?;
        // This workload's own loop is the core layer's measurement.
        core.report(&mut m);
        m.set("bench.oracle_s", oracle_s);
        m.set("bench.trace_overhead_ratio", measured.trace_overhead);
        // One thread, two spans per query: whatever the query spans do
        // not cover is the benchmark's own glue.
        m.set(
            "bench.unattributed_share",
            layers::uncovered_share(&rec, "pass"),
        );
        layers::write_trace(&rec, shape_name(shape), &mut notes);
    } else {
        end_to_end(&mut m, setup_s, &measured, peak_rss_mb);
    }
    notes.push(format!(
        "{} passes, {} queries, oracle {:.2} s",
        measured.passes.len(),
        measured.ops(),
        oracle_s
    ));
    Ok(Report {
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics: m,
        notes,
    })
}

fn shape_name(shape: Shape) -> &'static str {
    match shape {
        Shape::Enum => "match-enum",
        Shape::Plan => "match-plan",
    }
}
