//! `shard-scatter`: two closed-loop clients against a two-shard
//! `ShardedService` on `yt` (hash partition, 3-hop halo, one worker per
//! shard).
//!
//! Every submission is scattered to both shards, each shard enumerates
//! uncapped and filters by ownership, and the router gathers; the reply
//! waits for the slower shard. Three quarters of the submissions count,
//! one quarter stream under a cap of 1000. Paired with `serve-hot` this
//! is the evidence that wrapping one serving core costs what it should.

use super::serve::{run_clients, service_config, ClientObs, Submission, CLIENTS};
use super::{end_to_end, measure, median_setup, Report, RunOpts, Verdict};
use crate::inputs;
use crate::layers::{self, LayerInputs, PartRef};
use crate::metrics::Metrics;
use crate::oracle;
use crate::span::SpanBuf;
use sm_runtime::Rng64;
use sm_shard::{PartitionStrategy, ShardConfig, ShardedService};
use std::time::Instant;
use subgraph_matching::graph::gen::query::Density;
use subgraph_matching::graph::traversal::diameter;
use subgraph_matching::graph::{Graph, GraphStats};
use subgraph_matching::matching::{recommended, DataContext, MatchConfig};

pub const SHARDS: usize = 2;
pub const HALO_DEPTH: u32 = 3;
const FORMS: usize = 24;
/// Shards enumerate uncapped, so only forms the oracle counts at most
/// this many embeddings for are pooled.
const COUNT_LIMIT: u64 = 1_000_000;
const STREAM_CAP: u64 = 1000;
/// Each client visits every form this many times per pass; one of the
/// visits streams.
const VISITS: usize = 4;

/// A two-shard tier over `graph` in the workload's configuration.
pub fn tier(graph: Graph, query_size: usize, seed: u64) -> ShardedService {
    let service = service_config(&graph, query_size, 1);
    ShardedService::new(
        graph,
        ShardConfig {
            shards: SHARDS,
            strategy: PartitionStrategy::Hash,
            halo_depth: HALO_DEPTH,
            seed,
            service,
        },
    )
}

/// Whether a two-or-more-shard tier with [`HALO_DEPTH`] can answer `q`
/// (`ShardedService::supports`, without needing a tier to ask).
pub fn within_halo(q: &Graph) -> bool {
    q.num_edges() >= 1 && diameter(q).is_some_and(|d| d <= HALO_DEPTH)
}

/// The first `want` of `candidates` that fit the halo and that the
/// oracle counts within the limit, with their counts. The candidates are
/// a fixed pool, so this is part of the workload's definition, not of
/// its set-up.
pub fn eligible_forms(
    ctx: &DataContext<'_>,
    candidates: Vec<Graph>,
    limit: u64,
    want: usize,
) -> Vec<(Graph, u64)> {
    candidates
        .into_iter()
        .filter(within_halo)
        .filter_map(|q| {
            let count = oracle::expected_count(&q, ctx, Some(limit + 1))?;
            (count <= limit).then_some((q, count))
        })
        .take(want)
        .collect()
}

fn candidates(graph: &Graph, per_size: usize) -> Vec<Graph> {
    let mut pool = inputs::query_pool(graph, 4, Density::Any, per_size, 0x30);
    pool.extend(inputs::query_pool(graph, 5, Density::Any, per_size, 0x31));
    pool.extend(inputs::query_pool(
        graph,
        6,
        Density::Sparse,
        per_size,
        0x32,
    ));
    // Interleave the sizes so a short pool still mixes them.
    let mut mixed = Vec::with_capacity(pool.len());
    for i in 0..per_size {
        for s in 0..3 {
            mixed.push(pool[s * per_size + i].clone());
        }
    }
    mixed
}

/// One pass: every client visits every form [`VISITS`] times in its own
/// seeded order, streaming on one visit of each form — the same work for
/// every seed, in a different interleaving.
fn schedule(forms: &[(Graph, u64)], rng: &mut Rng64) -> Vec<Vec<Submission>> {
    (0..CLIENTS)
        .map(|_| {
            let mut subs: Vec<Submission> = (0..VISITS)
                .flat_map(|visit| {
                    forms
                        .iter()
                        .enumerate()
                        .map(move |(form, (q, _))| Submission {
                            form,
                            query: q.clone(),
                            streaming: visit == 0,
                            cap: (visit == 0).then_some(STREAM_CAP),
                        })
                })
                .collect();
            rng.shuffle(&mut subs);
            subs
        })
        .collect()
}

pub fn run(opts: &RunOpts) -> Result<Report, String> {
    let mut rec = SpanBuf::new(opts.trace);

    // Workload definition (untimed): which pooled forms are eligible.
    // Done before set-up and without a tier, so that nothing but the
    // workload itself is resident when its peak memory is reached.
    let t = Instant::now();
    let forms = {
        let (_, graph) = inputs::dataset("yt");
        eligible_forms(
            &DataContext::new(&graph),
            candidates(&graph, opts.size(24, 4)),
            COUNT_LIMIT,
            opts.size(FORMS, 4),
        )
    };
    let mut oracle_s = t.elapsed().as_secs_f64();
    if forms.len() < opts.size(FORMS, 4) {
        return Err(format!("only {} eligible forms", forms.len()));
    }

    let ((spec, svc), setup_s) = median_setup(|| {
        let token = rec.open("setup", 0);
        let ((spec, graph), _) = rec.timed("graph.generate", 0, || inputs::dataset("yt"));
        // The pool is drawn in set-up as a user would draw it; which of
        // it is eligible was settled above.
        rec.timed("graph.query_gen", 0, || {
            std::hint::black_box(candidates(&graph, opts.size(24, 4)));
        });
        let (svc, _) = rec.timed("shard.new", 0, || tier(graph, 6, opts.seed));
        rec.close(token);
        (spec, svc)
    });
    if let Some((q, _)) = forms.iter().find(|(q, _)| !svc.supports(q)) {
        return Err(format!(
            "the tier does not support a pooled Q{} form",
            q.num_vertices()
        ));
    }

    let mut rng = Rng64::seed_from_u64(inputs::mix(opts.seed, 0x5A));
    let mut seen = ClientObs::default();
    let measured = measure(opts, &mut rec, |kind, rec| {
        let obs = run_clients(&svc, schedule(&forms, &mut rng), kind.index(), rec);
        let pass = obs.as_pass();
        seen.absorb(obs);
        pass
    });
    let peak_rss_mb = crate::env::peak_rss_mb();

    let mut verdict = Verdict::default();
    let mut expected: Vec<u64> = forms.iter().map(|f| f.1).collect();
    if opts.sabotage {
        expected[seen.answers[0].form] += 1;
    }
    for a in &seen.answers {
        let want = if a.streaming {
            expected[a.form].min(STREAM_CAP)
        } else {
            expected[a.form]
        };
        let ok = a.finished && a.matches == want && (!a.streaming || a.delivered == a.matches);
        verdict.check(ok, || {
            format!(
                "form {} ({}): got {} (delivered {}, finished {}), oracle {want}",
                a.form,
                if a.streaming { "streamed" } else { "counted" },
                a.matches,
                a.delivered,
                a.finished
            )
        });
    }

    let mut m = Metrics::default();
    let mut notes = verdict.examples.clone();
    if opts.trace {
        let t = Instant::now();
        let (_, graph) = inputs::dataset(spec.abbrev);
        oracle_s += t.elapsed().as_secs_f64();
        let (pipeline, config) = recommended(&GraphStats::of(&graph), 6);
        let queries: Vec<Graph> = forms.iter().take(16).map(|f| f.0.clone()).collect();
        let inputs = LayerInputs {
            parts: vec![PartRef {
                spec,
                graph: &graph,
                queries: &queries,
                pipeline,
                config: MatchConfig {
                    max_matches: Some(COUNT_LIMIT),
                    ..config
                },
            }],
            opts,
        };
        layers::probe_all(&inputs, &mut m, &mut rec)?;
        // This workload's own loop is the shard layer's measurement.
        layers::report_shard_loop(&mut m, &svc, graph.num_vertices(), &seen);
        m.set(
            "bench.unattributed_share",
            layers::shard_unattributed_share(&svc, &seen),
        );
        m.set("bench.oracle_s", oracle_s);
        m.set("bench.trace_overhead_ratio", measured.trace_overhead);
        layers::write_trace(&rec, "shard-scatter", &mut notes);
    } else {
        end_to_end(&mut m, setup_s, &measured, peak_rss_mb);
    }
    notes.push(format!(
        "{} passes, {} queries over {} forms, form selection {:.2} s",
        measured.passes.len(),
        measured.ops(),
        forms.len(),
        oracle_s
    ));
    Ok(Report {
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics: m,
        notes,
    })
}
