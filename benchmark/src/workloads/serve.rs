//! `serve-hot` and `serve-cold`: two closed-loop clients against one
//! `Service` on `db` — the same plan cache used both ways.
//!
//! * `serve-hot` — every submission is a random renumbering of one of 32
//!   pooled forms drawn Zipf(1.0), streamed under a cap of 1000 and
//!   drained by the client. The working set fits the cache, execution is
//!   sub-millisecond, so canonicalisation, the cache probe, queueing and
//!   the stream hand-off are what is measured.
//! * `serve-cold` — 2048 pairwise-distinct forms visited round-robin,
//!   count-only under the paper's cap: eight times the cache, so every
//!   lookup misses, compiles and evicts.
//!
//! The client loop and its bookkeeping are shared with `shard-scatter`
//! (a `ShardedService` answers the same `submit`) and with the service
//! probe of the traced run.

use super::{end_to_end, measure, median_setup, Pass, PassKind, Report, RunOpts, Verdict};
use crate::inputs;
use crate::layers::{self, LayerInputs, PartRef};
use crate::metrics::Metrics;
use crate::oracle;
use crate::span::SpanBuf;
use sm_runtime::Rng64;
use sm_shard::ShardedService;
use std::time::Instant;
use subgraph_matching::datasets::DatasetSpec;
use subgraph_matching::graph::gen::query::Density;
use subgraph_matching::graph::{Graph, GraphStats};
use subgraph_matching::matching::{recommended, DataContext, MatchConfig, Pipeline};
use subgraph_matching::service::{
    QueryRequest, ResultStream, Service, ServiceConfig, ServiceOutcome,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    Hot,
    Cold,
}

/// Client threads of every served workload (`nproc` is 2).
pub const CLIENTS: usize = 2;
/// Plan-cache capacity of the served workloads.
pub const CACHE_CAPACITY: usize = 256;
const HOT_FORMS: usize = 32;
const HOT_CAP: u64 = 1000;
const COLD_FORMS: usize = 2048;
const COLD_CAP: u64 = 100_000;
/// How many cold forms the oracle recounts (all answers are also checked
/// for agreeing with each other); recounting all 2048 would take longer
/// than the measurement.
const COLD_ORACLE_SAMPLE: usize = 256;

/// Anything that answers a query submission.
pub trait Submit: Sync {
    fn submit(&self, req: QueryRequest) -> ResultStream;
}

impl Submit for Service {
    fn submit(&self, req: QueryRequest) -> ResultStream {
        Service::submit(self, req)
    }
}

impl Submit for ShardedService {
    fn submit(&self, req: QueryRequest) -> ResultStream {
        ShardedService::submit(self, req)
    }
}

/// One request a client will send.
pub struct Submission {
    /// Index of the pooled form this is (a renumbering of).
    pub form: usize,
    pub query: Graph,
    /// Stream embeddings to the client (else count only).
    pub streaming: bool,
    pub cap: Option<u64>,
}

/// What came back.
#[derive(Clone, Debug)]
pub struct Answer {
    pub form: usize,
    pub streaming: bool,
    pub matches: u64,
    /// Embeddings the client pulled off the stream.
    pub delivered: u64,
    /// Terminal outcome was `Complete` or `CapHit`.
    pub finished: bool,
}

/// Everything the clients of one or more passes observed.
#[derive(Debug, Default)]
pub struct ClientObs {
    pub lat_ms: Vec<f64>,
    pub answers: Vec<Answer>,
    /// Submit → first embedding, streaming submissions that delivered.
    pub first_embedding_us: Vec<f64>,
    /// Plan-compile time the service reported, misses only.
    pub plan_build_us: Vec<f64>,
    /// Wall seconds of the streaming submissions and what they delivered.
    pub stream_s: f64,
    pub delivered: u64,
    /// Wall seconds the clients ran, summed over passes.
    pub wall_s: f64,
}

impl ClientObs {
    pub fn absorb(&mut self, other: ClientObs) {
        self.lat_ms.extend(other.lat_ms);
        self.answers.extend(other.answers);
        self.first_embedding_us.extend(other.first_embedding_us);
        self.plan_build_us.extend(other.plan_build_us);
        self.stream_s += other.stream_s;
        self.delivered += other.delivered;
        self.wall_s += other.wall_s;
    }

    /// This (single-pass) observation as the measuring loop's pass.
    pub fn as_pass(&self) -> Pass {
        Pass {
            wall_s: self.wall_s,
            ops: self.lat_ms.len() as u64,
            lat_ms: self.lat_ms.clone(),
        }
    }

    pub fn lat_sum_s(&self) -> f64 {
        self.lat_ms.iter().sum::<f64>() / 1e3
    }
}

/// One client: send each submission, wait for (and drain) its reply.
fn client_loop<S: Submit>(
    svc: &S,
    subs: Vec<Submission>,
    qid_base: u64,
    rec: &mut SpanBuf,
) -> ClientObs {
    let mut obs = ClientObs::default();
    for (i, sub) in subs.into_iter().enumerate() {
        let qid = qid_base + i as u64;
        let (form, streaming) = (sub.form, sub.streaming);
        let mut req = if streaming {
            QueryRequest::streaming(sub.query)
        } else {
            QueryRequest::count(sub.query)
        };
        req.max_matches = sub.cap;
        let t = Instant::now();
        let query_span = rec.open("query", qid);
        let (mut stream, _) = rec.timed("service.submit", qid, || svc.submit(req));
        let drain_span = rec.open("service.wait_drain", qid);
        let mut delivered = 0u64;
        for embedding in stream.by_ref() {
            if delivered == 0 {
                obs.first_embedding_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            delivered += 1;
            std::hint::black_box(embedding);
        }
        let report = stream.report().expect("a drained stream has its report");
        rec.close(drain_span);
        rec.close(query_span);
        let wall = t.elapsed().as_secs_f64();
        obs.lat_ms.push(wall * 1e3);
        if streaming {
            obs.stream_s += wall;
            obs.delivered += delivered;
        }
        if !report.cache_hit && report.plan_build_ns > 0 {
            obs.plan_build_us.push(report.plan_build_ns as f64 / 1e3);
        }
        obs.answers.push(Answer {
            form,
            streaming,
            matches: report.matches,
            delivered,
            finished: matches!(
                report.outcome,
                ServiceOutcome::Complete | ServiceOutcome::CapHit
            ),
        });
    }
    obs
}

/// Run one closed-loop pass: one thread per client, each sending its own
/// submissions in order. Returns when every client is done.
pub fn run_clients<S: Submit>(
    svc: &S,
    per_client: Vec<Vec<Submission>>,
    pass_idx: usize,
    rec: &mut SpanBuf,
) -> ClientObs {
    let trace = rec.enabled();
    let started = Instant::now();
    let results: Vec<(ClientObs, SpanBuf)> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_client
            .into_iter()
            .enumerate()
            .map(|(c, subs)| {
                let qid_base = ((pass_idx as u64) << 32) | ((c as u64) << 24) | 1;
                scope.spawn(move || {
                    let mut buf = SpanBuf::new(trace);
                    let obs = client_loop(svc, subs, qid_base, &mut buf);
                    (obs, buf)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = ClientObs {
        wall_s: started.elapsed().as_secs_f64(),
        ..ClientObs::default()
    };
    for (obs, buf) in results {
        all.absorb(obs);
        rec.absorb(buf);
    }
    all
}

/// The service configuration of the served workloads: two workers, the
/// paper's recommended fixed pipeline for the data graph.
pub fn service_config(g: &Graph, query_size: usize, workers: usize) -> ServiceConfig {
    let (pipeline, config) = recommended(&GraphStats::of(g), query_size);
    service_config_with(pipeline, config, workers)
}

pub fn service_config_with(
    pipeline: Pipeline,
    base_config: MatchConfig,
    workers: usize,
) -> ServiceConfig {
    ServiceConfig {
        workers,
        max_active: CLIENTS.max(2),
        cache_capacity: CACHE_CAPACITY,
        pipeline,
        base_config,
        ..ServiceConfig::default()
    }
}

struct Rig {
    spec: DatasetSpec,
    pool: Vec<Graph>,
    svc: Service,
}

fn build(shape: Shape, opts: &RunOpts, rec: &mut SpanBuf) -> Rig {
    let ((spec, graph), _) = rec.timed("graph.generate", 0, || inputs::dataset("db"));
    let (pool, _) = rec.timed("graph.query_gen", 0, || match shape {
        Shape::Hot => {
            let half = opts.size(HOT_FORMS, 4) / 2;
            let mut pool = inputs::query_pool(&graph, 6, Density::Sparse, half, 0x10);
            pool.extend(inputs::query_pool(&graph, 8, Density::Dense, half, 0x11));
            pool
        }
        Shape::Cold => {
            let want = opts.size(COLD_FORMS, 48);
            // Dense forms repeat more often than sparse ones; draw a
            // surplus of both and keep the first `want` distinct.
            let mut candidates = inputs::query_pool(&graph, 8, Density::Dense, want, 0x12);
            candidates.extend(inputs::query_pool(&graph, 8, Density::Sparse, want, 0x13));
            let mut rng = Rng64::seed_from_u64(inputs::POOL_SEED);
            rng.shuffle(&mut candidates);
            inputs::distinct_forms(candidates, want)
        }
    });
    let cfg = service_config(&graph, 8, 2);
    let (svc, _) = rec.timed("service.new", 0, || Service::new(graph, cfg));
    Rig { spec, pool, svc }
}

/// The submissions of one pass, split over the clients.
///
/// Which forms a pass holds does not depend on the seed — hot: an exact
/// Zipf(1.0) mix of the pool; cold: the next window of the pool, round
/// robin — so every seed does the same work. The seed decides the order
/// within the pass (and so how the two clients interleave) and, for hot,
/// how each submission's vertices are renumbered.
struct Scheduler {
    shape: Shape,
    per_pass: usize,
    /// Cold: where the next pass's window starts.
    pos: usize,
    rng: Rng64,
}

impl Scheduler {
    fn new(shape: Shape, opts: &RunOpts) -> Scheduler {
        Scheduler {
            shape,
            per_pass: CLIENTS
                * match shape {
                    Shape::Hot => opts.size(512, 24),
                    Shape::Cold => opts.size(128, 24),
                },
            pos: 0,
            rng: Rng64::seed_from_u64(inputs::mix(opts.seed, 0x5E)),
        }
    }

    fn next_pass(&mut self, pool: &[Graph]) -> Vec<Vec<Submission>> {
        let mut forms: Vec<usize> = match self.shape {
            Shape::Hot => inputs::zipf_schedule(pool.len(), 1.0, self.per_pass),
            Shape::Cold => {
                let window = (self.pos..self.pos + self.per_pass)
                    .map(|i| i % pool.len())
                    .collect();
                self.pos += self.per_pass;
                window
            }
        };
        self.rng.shuffle(&mut forms);
        let mut per_client: Vec<Vec<Submission>> = (0..CLIENTS)
            .map(|_| Vec::with_capacity(self.per_pass / CLIENTS))
            .collect();
        for (i, form) in forms.into_iter().enumerate() {
            let sub = match self.shape {
                Shape::Hot => Submission {
                    form,
                    query: inputs::relabel(&pool[form], &mut self.rng),
                    streaming: true,
                    cap: Some(HOT_CAP),
                },
                Shape::Cold => Submission {
                    form,
                    query: pool[form].clone(),
                    streaming: false,
                    cap: Some(COLD_CAP),
                },
            };
            per_client[i % CLIENTS].push(sub);
        }
        per_client
    }
}

pub fn run(shape: Shape, opts: &RunOpts) -> Result<Report, String> {
    let name = match shape {
        Shape::Hot => "serve-hot",
        Shape::Cold => "serve-cold",
    };
    let mut rec = SpanBuf::new(opts.trace);
    let (rig, setup_s) = median_setup(|| {
        let token = rec.open("setup", 0);
        let rig = build(shape, opts, &mut rec);
        rec.close(token);
        rig
    });
    let mut scheduler = Scheduler::new(shape, opts);
    let mut seen = ClientObs::default();
    let measured = measure(opts, &mut rec, |kind, rec| {
        if matches!(kind, PassKind::WarmUp) && shape == Shape::Hot {
            // Compile every form's plan from its pooled numbering, so
            // which renumbering a seed draws first cannot change the
            // cached plans.
            let prime = rig
                .pool
                .iter()
                .enumerate()
                .map(|(form, q)| Submission {
                    form,
                    query: q.clone(),
                    streaming: true,
                    cap: Some(HOT_CAP),
                })
                .collect();
            seen.absorb(run_clients(&rig.svc, vec![prime], 0, rec));
        }
        let subs = scheduler.next_pass(&rig.pool);
        let obs = run_clients(&rig.svc, subs, kind.index(), rec);
        let pass = obs.as_pass();
        seen.absorb(obs);
        pass
    });
    let peak_rss_mb = crate::env::peak_rss_mb();

    // The oracle recounts on a regenerated graph: the service owns the
    // one it was given, and a second copy held during the timed section
    // would count towards the workload's peak memory.
    let t = Instant::now();
    let (_, graph) = inputs::dataset(rig.spec.abbrev);
    let ctx = DataContext::new(&graph);
    let cap = match shape {
        Shape::Hot => HOT_CAP,
        Shape::Cold => COLD_CAP,
    };
    let mut oracle_rng = Rng64::seed_from_u64(inputs::mix(opts.seed, 0x0C));
    let recount: Vec<usize> = match shape {
        Shape::Hot => (0..rig.pool.len()).collect(),
        Shape::Cold => {
            let mut forms = inputs::shuffled(rig.pool.len(), &mut oracle_rng);
            forms.truncate(COLD_ORACLE_SAMPLE);
            forms
        }
    };
    let mut expected: Vec<Option<u64>> = vec![None; rig.pool.len()];
    let mut oracle_failed = 0u64;
    for &form in &recount {
        expected[form] = oracle::expected_count(&rig.pool[form], &ctx, Some(cap));
        oracle_failed += u64::from(expected[form].is_none());
    }
    let oracle_s = t.elapsed().as_secs_f64();
    if opts.sabotage {
        let form = seen.answers[0].form;
        expected[form] = Some(expected[form].map_or(u64::MAX, |c| c + 1));
    }
    let mut verdict = Verdict {
        attempted: oracle_failed,
        failed: oracle_failed,
        ..Verdict::default()
    };
    let mut first: Vec<Option<u64>> = vec![None; rig.pool.len()];
    for a in &seen.answers {
        let agreed = *first[a.form].get_or_insert(a.matches);
        let ok = a.finished
            && a.matches == agreed
            && expected[a.form].is_none_or(|want| want == a.matches)
            && (!a.streaming || a.delivered == a.matches);
        verdict.check(ok, || {
            format!(
                "form {}: got {} (delivered {}, finished {}), oracle {:?}, first answer {agreed}",
                a.form, a.matches, a.delivered, a.finished, expected[a.form]
            )
        });
    }

    let mut m = Metrics::default();
    let mut notes = verdict.examples.clone();
    if opts.trace {
        let (pipeline, config) = recommended(&GraphStats::of(&graph), 8);
        let probe_queries: Vec<Graph> = rig.pool.iter().take(16).cloned().collect();
        let inputs = LayerInputs {
            parts: vec![PartRef {
                spec: rig.spec,
                graph: &graph,
                queries: &probe_queries,
                pipeline,
                config: MatchConfig {
                    max_matches: Some(cap),
                    ..config
                },
            }],
            opts,
        };
        layers::probe_all(&inputs, &mut m, &mut rec)?;
        // This workload's own loop is the service layer's measurement.
        let report = rig.svc.metrics_report();
        layers::report_service_loop(&mut m, &report, &seen);
        m.set(
            "bench.unattributed_share",
            layers::service_unattributed_share(&report, &seen),
        );
        m.set("bench.oracle_s", oracle_s);
        m.set("bench.trace_overhead_ratio", measured.trace_overhead);
        layers::write_trace(&rec, name, &mut notes);
    } else {
        end_to_end(&mut m, setup_s, &measured, peak_rss_mb);
    }
    let (hits, misses, evictions, live) = rig.svc.cache_stats();
    notes.push(format!(
        "{} passes, {} queries, cache {hits} hits / {misses} misses / {evictions} evictions / {live} live, oracle {:.2} s",
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

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(seed: u64) -> RunOpts {
        RunOpts {
            seed,
            seconds: 1.0,
            trace: false,
            quick: true,
            sabotage: false,
        }
    }

    /// `(form, raw encoding)` of every submission of two passes.
    fn schedule(shape: Shape, seed: u64, pool: &[Graph]) -> Vec<(usize, Vec<u64>)> {
        let mut scheduler = Scheduler::new(shape, &opts(seed));
        (0..2)
            .flat_map(|_| scheduler.next_pass(pool))
            .flatten()
            .map(|sub| (sub.form, inputs::raw_code(&sub.query)))
            .collect()
    }

    #[test]
    fn schedules_follow_the_seed_but_hold_the_same_forms() {
        let (_, g) = inputs::dataset("ye");
        let pool = inputs::query_pool(&g, 6, Density::Sparse, 8, 0x10);
        for shape in [Shape::Hot, Shape::Cold] {
            let (a, b, c) = (
                schedule(shape, 42, &pool),
                schedule(shape, 42, &pool),
                schedule(shape, 43, &pool),
            );
            assert_eq!(a, b, "same seed, same submissions");
            assert_ne!(a, c, "another seed, other submissions");
            let forms = |s: &[(usize, Vec<u64>)]| {
                let mut f: Vec<usize> = s.iter().map(|x| x.0).collect();
                f.sort_unstable();
                f
            };
            assert_eq!(forms(&a), forms(&c), "every seed does the same work");
        }
    }
}
