//! The concurrent query service: admission control, fair multi-query
//! scheduling, cached plan compilation, and per-query budgets.
//!
//! # Architecture
//!
//! [`Service::submit`] is the only entry point. It
//!
//! 1. **admits** the query (or returns a born-terminal
//!    [`ServiceOutcome::Rejected`] stream when `max_active` queries run
//!    and the pending queue is full),
//! 2. **fingerprints** the query graph canonically and consults the
//!    sharded LRU [`PlanCache`](crate::cache::PlanCache) — two clients
//!    submitting the same query *up to a vertex-id permutation* share one
//!    compiled [`QueryPlan`]; a miss compiles and populates,
//! 3. **splits** the plan's root candidates into morsels and registers
//!    them with the runtime's [`FairScheduler`], which deals claims
//!    round-robin across all active queries — one query with a huge root
//!    set cannot starve a small one,
//! 4. returns a [`ResultStream`] immediately; the service's worker
//!    threads execute morsels under the query's own
//!    [`SharedControl`] budget (deadline + embedding cap on a
//!    [`CancelToken`]) and hand remapped embeddings to the stream's
//!    bounded buffer a block at a time.
//!
//! Per-query budgets live in the run's `SharedControl`, **not** in the
//! cached plan's config — the same immutable plan executes under any
//! number of different deadlines and caps concurrently. Capped counts
//! are exact across workers (atomic slot allocation in
//! `RunControl::record_match`), which is what makes a concurrent run's
//! per-query counts equal a sequential run's.
//!
//! Queries whose plan has **zero root work** (unsatisfiable after
//! filtering, or an empty root candidate set) never touch the scheduler:
//! they finalize at submission, deterministically — an already-expired
//! deadline yields [`ServiceOutcome::Deadline`], otherwise
//! [`ServiceOutcome::Complete`]. Nothing ever parks waiting for work
//! that does not exist.

use crate::cache::{CachedPlan, PlanCache, PlanKey};
use crate::metrics::{MetricsConfig, MetricsReport, ServiceMetrics, SlowQuery};
use crate::stream::{EmbeddingBlock, QueryReport, ResultStream, ServiceOutcome, StreamCore};
use crate::update::StandingEntry;
use sm_delta::VersionedGraph;
use sm_graph::canon::canonical_form;
use sm_graph::label_index::LabelPairEdgeCounts;
use sm_graph::{Graph, NlfIndex, VertexId};
use sm_match::enumerate::control::SharedControl;
use sm_match::enumerate::engine::{enumerate_with, EngineInput};
use sm_match::enumerate::{
    MatchConfig, MatchSemantics, MatchSink, Outcome, OutputMode, Termination,
};
use sm_match::{DataContext, Pipeline, PlanSelection, QueryPlan, Scratch};
use sm_runtime::pool::morsel_size_for;
use sm_runtime::trace::profile::RunMeta;
use sm_runtime::trace::{AtomicCounterBlock, Counter, CounterBlock, RunProfile, Trace};
use sm_runtime::{CancelReason, CancelToken, Claim, FairScheduler, SourceId};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// A data graph plus the per-graph indices every plan compilation needs,
/// stamped with the service epoch it was installed under.
pub struct GraphData {
    /// The data graph.
    pub graph: Graph,
    /// Neighbor-label-frequency index (NLF filter, VF2++ rule).
    pub nlf: NlfIndex,
    /// Label-pair edge counts (QuickSI weights).
    pub label_pairs: LabelPairEdgeCounts,
    /// Epoch this graph was installed under — part of every plan-cache
    /// key, so a swapped graph invalidates all cached plans at once.
    pub epoch: u64,
}

impl GraphData {
    fn build(graph: Graph, epoch: u64) -> Arc<Self> {
        let nlf = graph.build_nlf();
        let label_pairs = LabelPairEdgeCounts::build(&graph);
        GraphData::from_parts_with_pairs(graph, nlf, label_pairs, epoch)
    }

    /// Assemble with every index already maintained — the install path
    /// for updates and WAL replay, where the label-pair counts are
    /// patched from the commit delta instead of rebuilt by an edge scan.
    pub(crate) fn from_parts_with_pairs(
        graph: Graph,
        nlf: NlfIndex,
        label_pairs: LabelPairEdgeCounts,
        epoch: u64,
    ) -> Arc<Self> {
        Arc::new(GraphData {
            graph,
            nlf,
            label_pairs,
            epoch,
        })
    }
}

/// Patch label-pair edge counts by one commit's normalized delta — the
/// result equals a fresh [`LabelPairEdgeCounts::build`] of the post graph.
/// Tombstones keep their label, so endpoint labels resolve on the post
/// view for insertions and deletions alike.
pub(crate) fn patch_pairs(pairs: &mut LabelPairEdgeCounts, committed: &sm_delta::Committed) {
    use sm_delta::GraphView;
    for &(u, v) in &committed.info.edges_inserted {
        pairs.insert_pair(committed.post.label(u), committed.post.label(v));
    }
    for &(u, v) in &committed.info.edges_deleted {
        pairs.remove_pair(committed.post.label(u), committed.post.label(v));
    }
}

/// Service configuration. `Default` is sized for tests and small
/// embedded uses: 2 workers, 4 active queries, a 256-plan cache.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Worker threads executing morsels (at least 1).
    pub workers: usize,
    /// Queries enumerated concurrently; further admitted queries wait in
    /// the pending queue.
    pub max_active: usize,
    /// Bounded pending queue beyond `max_active`; a submission finding
    /// it full is rejected.
    pub queue_capacity: usize,
    /// Total cached plans across shards (0 disables the cache).
    pub cache_capacity: usize,
    /// Plan-cache shard count.
    pub cache_shards: usize,
    /// Per-query embedding buffer length (backpressure bound).
    pub stream_capacity: usize,
    /// Deadline applied when a request does not set its own.
    pub default_deadline: Option<Duration>,
    /// Embedding cap applied when a request does not set its own
    /// (`None` = unbounded).
    pub default_cap: Option<u64>,
    /// The pipeline every plan is compiled with (part of the cache key).
    pub pipeline: Pipeline,
    /// Base match config for plan compilation — its `failing_sets`,
    /// `intersect` and `vf2pp_rule` knobs are honored (and part of the
    /// cache key); per-run fields (`max_matches`, `time_limit`, `cancel`,
    /// `trace`) are overridden by each request's budget.
    pub base_config: MatchConfig,
    /// Observability handle; service counters are flushed here on drop.
    pub trace: Trace,
    /// Always-on telemetry: latency histograms, rolling-window rates,
    /// slow-query log, adaptive tail capture (see [`crate::metrics`]).
    pub metrics: MetricsConfig,
    /// Cross-run feedback store for the self-tuning planner. Only
    /// consulted when `base_config.plan` is [`PlanSelection::Auto`]:
    /// `None` gives the service a private store; a sharded deployment
    /// passes one shared store to every shard so all of them learn from
    /// every observation. Ignored under fixed plan selection.
    pub planner_feedback: Option<Arc<sm_planner::FeedbackStore>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            max_active: 4,
            queue_capacity: 64,
            cache_capacity: 256,
            cache_shards: 8,
            stream_capacity: 1024,
            default_deadline: None,
            default_cap: None,
            pipeline: sm_match::Algorithm::GraphQl.optimized(),
            base_config: MatchConfig::default(),
            trace: Trace::disabled(),
            metrics: MetricsConfig::default(),
            planner_feedback: None,
        }
    }
}

/// Predicate applied to each (remapped) embedding before it is counted —
/// the sharded router's exactly-once ownership hook.
pub type CountFilter = Arc<dyn Fn(&[VertexId]) -> bool + Send + Sync>;

/// One query submission.
#[derive(Clone)]
pub struct QueryRequest {
    /// The query graph.
    pub query: Graph,
    /// Per-query deadline (overrides the service default).
    pub deadline: Option<Duration>,
    /// Per-query embedding cap (overrides the service default).
    pub max_matches: Option<u64>,
    /// Stream embeddings to the client (`false` = count only).
    pub deliver: bool,
    /// Match semantics the query runs under. The injectivity and output
    /// mode are compiled into the (cached) plan; a `TopK` termination is
    /// folded into the per-run cap. `SampleK` is rejected at submission —
    /// uniform sampling needs a sequential exhaustive pass, which the
    /// morsel-parallel service deliberately does not offer (use
    /// [`sm_match::Executor::run_sample`] directly).
    pub semantics: MatchSemantics,
    /// When set, the reported `matches` is the number of embeddings this
    /// predicate accepted (evaluated on client vertex ids) instead of the
    /// raw enumeration count. Forces the engine to materialize embeddings
    /// internally even for count-only semantics — the predicate has to
    /// see them.
    pub count_filter: Option<CountFilter>,
}

impl QueryRequest {
    /// Count matches of `query`; no embeddings are delivered. Runs under
    /// count-only semantics: the engine skips embedding materialization
    /// entirely and only the per-worker counters are maintained.
    pub fn count(query: Graph) -> Self {
        QueryRequest {
            query,
            deadline: None,
            max_matches: None,
            deliver: false,
            semantics: MatchSemantics::default().count_only(),
            count_filter: None,
        }
    }

    /// Stream the embeddings of `query`.
    pub fn streaming(query: Graph) -> Self {
        QueryRequest {
            deliver: true,
            semantics: MatchSemantics::default(),
            ..QueryRequest::count(query)
        }
    }

    /// Set a deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Set an embedding cap.
    pub fn with_cap(mut self, cap: u64) -> Self {
        self.max_matches = Some(cap);
        self
    }

    /// Run under explicit match semantics (injectivity / output /
    /// termination). The request's `deliver` flag is unchanged: a
    /// count-only semantics on a streaming request simply streams
    /// nothing.
    pub fn with_semantics(mut self, semantics: MatchSemantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// The embedding cap this request runs under: its own (else the
    /// tier's `default_cap`), tightened by a `TopK` termination's `k`.
    pub fn cap(&self, default_cap: Option<u64>) -> Option<u64> {
        match (self.max_matches.or(default_cap), self.semantics.cap()) {
            (Some(m), Some(k)) => Some(m.min(k)),
            (m, k) => m.or(k),
        }
    }

    /// Count only embeddings accepted by `filter` (see
    /// [`QueryRequest::count_filter`]).
    pub fn with_count_filter(mut self, filter: CountFilter) -> Self {
        self.count_filter = Some(filter);
        self
    }
}

/// Scheduler payload: the run plus which part of it to execute — a
/// position range into `C(root)` (see [`EngineInput::root`]).
struct Morsel {
    run: Arc<QueryRun>,
    root: Range<u32>,
}

/// Accumulated results of one query across morsels.
struct RunAgg {
    matches: u64,
    recursions: u64,
    outcome: Outcome,
    /// Merged registry-counter deltas of this query's own morsels — the
    /// slow-query log's per-query explanation (intersections, backtracks,
    /// peak depth, …).
    counters: CounterBlock,
}

impl RunAgg {
    /// Keep the most severe outcome — one timed-out morsel makes the
    /// query partial no matter how many others completed. The ordering
    /// lives in [`Outcome::worst`], the same rule the parallel engine
    /// and the sharded router merge with.
    fn merge_outcome(&mut self, o: Outcome) {
        self.outcome = self.outcome.worst(o);
    }
}

/// Everything the workers need about one admitted query.
struct QueryRun {
    plan: Option<Arc<QueryPlan>>,
    graph: Arc<GraphData>,
    /// Per-run budget: cancellation token (deadline + client cancel) and
    /// embedding cap, shared by every morsel of this query.
    shared: SharedControl,
    /// Plan-vertex → client-vertex composition for cache hits on
    /// permuted queries: `delivered[u] = m[remap[u]]`.
    remap: Option<Vec<VertexId>>,
    deliver: bool,
    /// Ownership predicate: when set, `filtered` (not the raw count) is
    /// reported as the query's `matches`.
    count_filter: Option<CountFilter>,
    /// Embeddings accepted by `count_filter`, across all morsels.
    filtered: AtomicU64,
    /// Whether the request asked for top-k termination — a cap hit then
    /// counts as a `topk_early_exits` event, not an overflow.
    topk: bool,
    stream: Arc<StreamCore>,
    /// Set by the worker that hands over the run's first row — that row
    /// goes out alone, so time-to-first-embedding never waits for a full
    /// block.
    first_row_sent: AtomicBool,
    agg: Mutex<RunAgg>,
    cache_hit: bool,
    plan_build_ns: u64,
    started: Instant,
    /// Nanoseconds from `started` until the plan was in hand
    /// (canonicalize + cache probe + compile) — where queue wait begins.
    plan_ready_ns: u64,
    /// Canonical-form fingerprint of the query — the slow-query log and
    /// adaptive-capture key.
    canon_hash: u64,
    /// The planner-chosen combo this run executes (`None` under fixed
    /// plan selection or when a tail-capture recompiled the plan) — the
    /// feedback key finalize records observations under.
    combo: Option<sm_planner::PlanCombo>,
    /// Nanoseconds from `started` to activation (0 until activated) —
    /// where queue wait ends and execution begins.
    activated_ns: AtomicU64,
    /// Tail-capture trace attached to this run's (freshly compiled)
    /// plan; its rendered profile lands in the slow-query log at
    /// finalize.
    capture: Option<Trace>,
}

impl QueryRun {
    /// `|C(root)|`: the positions this query's morsels partition.
    fn roots(&self) -> usize {
        self.plan
            .as_ref()
            .map_or(0, |p| p.candidates.get(p.root()).len())
    }

    /// Install the terminal report on the run's stream.
    fn finish(&self, outcome: ServiceOutcome, matches: u64, recursions: u64) {
        self.stream.finish(QueryReport {
            outcome,
            matches,
            recursions,
            cache_hit: self.cache_hit,
            plan_build_ns: self.plan_build_ns,
            elapsed: self.started.elapsed(),
        });
    }
}

/// Admission state: how many queries are in the system, which are
/// actively scheduled, and the bounded wait queue.
struct Admission {
    /// Active + pending (reservations included).
    in_system: usize,
    /// Queries currently registered with the scheduler.
    active: usize,
    pending: VecDeque<Arc<QueryRun>>,
    /// Active runs, for drain-on-shutdown.
    running: Vec<Arc<QueryRun>>,
}

pub(crate) struct ServiceCore {
    pub(crate) cfg: ServiceConfig,
    pub(crate) graph: Mutex<Arc<GraphData>>,
    pub(crate) epoch: AtomicU64,
    pub(crate) cache: PlanCache,
    sched: FairScheduler<Morsel>,
    admission: Mutex<Admission>,
    /// The serving-layer tallies, by registry name. `SnapshotsPinned` /
    /// `Compactions` hold only the totals of versioned graphs retired by
    /// `swap_graph` (the live graph's are added on read), which keeps
    /// both monotonic across swaps.
    pub(crate) counters: AtomicCounterBlock,
    /// Always-on telemetry sink (see [`crate::metrics`]).
    pub(crate) metrics: ServiceMetrics,
    /// The versioned twin of the installed graph: `apply_update` commits
    /// batches here and installs the materialized result as the new
    /// `graph`. Replaced wholesale by `swap_graph`.
    pub(crate) versioned: Mutex<VersionedGraph>,
    /// Registered standing queries with their incrementally maintained
    /// embedding sets.
    pub(crate) standing: Mutex<Vec<StandingEntry>>,
    /// The service's one handle on its log: durable after `new_durable`
    /// / `open`, in-memory otherwise (and while a recovery is still
    /// replaying). Always the innermost lock.
    pub(crate) journal: Mutex<sm_durable::Journal>,
    /// Cache-key component for the service's (pipeline, base config).
    config_fp: u64,
    /// Self-tuning planner, present when `base_config.plan` is
    /// [`PlanSelection::Auto`]: plan-cache misses ask it for the
    /// cheapest filter × order × kernel combo instead of compiling the
    /// fixed `cfg.pipeline`, and every finished run folds its counters
    /// back into its feedback store.
    pub(crate) planner: Option<Arc<sm_planner::Planner>>,
}

/// A concurrent subgraph-query service over one data graph.
///
/// ```
/// use sm_graph::builder::graph_from_edges;
/// use sm_service::{QueryRequest, Service, ServiceConfig, ServiceOutcome};
///
/// let g = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]);
/// let svc = Service::new(g, ServiceConfig::default());
/// let q = graph_from_edges(&[0, 0], &[(0, 1)]);
/// let report = svc.submit(QueryRequest::count(q)).wait();
/// assert_eq!(report.outcome, ServiceOutcome::Complete);
/// assert_eq!(report.matches, 4); // 2 edges x 2 directions
/// ```
pub struct Service {
    pub(crate) core: Arc<ServiceCore>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Service {
    /// Start a service over `graph` with `cfg.workers` worker threads.
    pub fn new(graph: Graph, cfg: ServiceConfig) -> Self {
        let data = GraphData::build(graph.clone(), 0);
        Service::boot(data, VersionedGraph::new(graph), cfg)
    }

    /// Shared constructor: wire a prebuilt [`GraphData`] and its
    /// versioned twin into a running service. [`Service::new`] builds
    /// both from a graph; the recovery path ([`Service::open`]) hands in
    /// the snapshot's materialized arrays so no index is recomputed.
    pub(crate) fn boot(
        data: Arc<GraphData>,
        versioned: VersionedGraph,
        cfg: ServiceConfig,
    ) -> Self {
        let epoch = data.epoch;
        let config_fp = config_fingerprint(&cfg.pipeline, &cfg.base_config);
        let metrics = ServiceMetrics::new(cfg.metrics.clone());
        let planner = (cfg.base_config.plan == PlanSelection::Auto).then(|| {
            let feedback = cfg
                .planner_feedback
                .clone()
                .unwrap_or_else(|| Arc::new(sm_planner::FeedbackStore::new()));
            Arc::new(sm_planner::Planner::with_feedback(
                sm_planner::PlannerConfig::default(),
                feedback,
            ))
        });
        let core = Arc::new(ServiceCore {
            cache: PlanCache::new(cfg.cache_capacity, cfg.cache_shards),
            graph: Mutex::new(data),
            epoch: AtomicU64::new(epoch),
            sched: FairScheduler::new(),
            admission: Mutex::new(Admission {
                in_system: 0,
                active: 0,
                pending: VecDeque::new(),
                running: Vec::new(),
            }),
            metrics,
            counters: AtomicCounterBlock::default(),
            versioned: Mutex::new(versioned),
            standing: Mutex::new(Vec::new()),
            journal: Mutex::new(sm_durable::Journal::default()),
            config_fp,
            planner,
            cfg,
        });
        let workers = (0..core.cfg.workers.max(1))
            .map(|i| {
                let core = core.clone();
                thread::Builder::new()
                    .name(format!("sm-service-{i}"))
                    .spawn(move || worker_loop(core))
                    .expect("spawn service worker")
            })
            .collect();
        Service { core, workers }
    }

    /// Submit a query; returns immediately with the result stream.
    pub fn submit(&self, req: QueryRequest) -> ResultStream {
        self.core.submit(req)
    }

    /// Submit and block for the terminal report (count-only helper).
    pub fn run_count(&self, query: Graph) -> QueryReport {
        self.submit(QueryRequest::count(query)).wait()
    }

    /// Replace the data graph. Bumps the epoch — every cached plan
    /// compiled against the old graph becomes unreachable and is purged
    /// (an in-place [`Service::apply_update`], by contrast, keeps plans
    /// whose labels the batch did not touch). In-flight queries keep the
    /// old graph alive (via `Arc`) and finish against it. Standing
    /// queries are re-enumerated from scratch on the new graph.
    pub fn swap_graph(&self, graph: Graph) {
        let mut vg = self.core.versioned.lock().expect("versioned poisoned");
        // Fold the retiring overlay's totals into the carried bases so
        // `counters()` stays monotonic across swaps.
        let stats = vg.stats();
        let counters = &self.core.counters;
        counters.add(Counter::SnapshotsPinned, stats.snapshots_pinned);
        counters.add(Counter::Compactions, stats.compactions);
        let epoch = self.core.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let data = GraphData::build(graph.clone(), epoch);
        *self.core.graph.lock().expect("graph lock poisoned") = data.clone();
        *vg = VersionedGraph::new(graph);
        self.core.cache.purge_other_epochs(epoch);
        {
            let mut standing = self.core.standing.lock().expect("standing poisoned");
            for entry in standing.iter_mut() {
                entry.reenumerate(&data);
            }
        }
        // A durable service absorbs the swap into a fresh snapshot: the
        // retired WAL describes a lineage the new graph did not come
        // from, so it is pruned along with the old snapshots.
        self.compact();
    }

    /// Current data-graph epoch (0 for the construction-time graph).
    pub fn epoch(&self) -> u64 {
        self.core.epoch.load(Ordering::Relaxed)
    }

    /// Plan-cache statistics: `(hits, misses, evictions, live entries)`.
    pub fn cache_stats(&self) -> (u64, u64, u64, usize) {
        let c = &self.core.cache;
        (c.hits(), c.misses(), c.evictions(), c.len())
    }

    /// Snapshot of the service counters as a registry [`CounterBlock`]
    /// (`plan_cache_*`, `queries_*`, `embeddings_streamed`, plus the
    /// dynamic-graph counters `updates_applied`, `snapshots_pinned`,
    /// `compactions`, `delta_edges_live`, `incremental_embeddings`).
    pub fn counters(&self) -> CounterBlock {
        let core = &self.core;
        let mut b = core.counters.snapshot();
        b.add(Counter::PlanCacheHits, core.cache.hits());
        b.add(Counter::PlanCacheMisses, core.cache.misses());
        b.add(Counter::PlanCacheEvictions, core.cache.evictions());
        b.add(Counter::SemanticsCacheSplits, core.cache.splits());
        let stats = core.versioned.lock().expect("versioned poisoned").stats();
        b.add(Counter::SnapshotsPinned, stats.snapshots_pinned);
        b.add(Counter::Compactions, stats.compactions);
        b.record_max(Counter::DeltaEdgesLive, stats.delta_edges_live as u64);
        crate::durable::fold_journal(&self.journal(), &mut b);
        if let Some(planner) = &core.planner {
            let pc = planner.counters();
            b.add(Counter::PlansAutotuned, pc.plans_autotuned);
            b.add(Counter::ReplansTriggered, pc.replans_triggered);
            b.add(Counter::FeedbackRecords, pc.feedback_records);
            b.add(Counter::EstimatorEvals, pc.estimator_evals);
        }
        b
    }

    /// The self-tuning planner, when the service runs in
    /// [`PlanSelection::Auto`] mode (`None` for fixed-pipeline services).
    /// Exposes the feedback store for durability snapshots and the
    /// planner counters for exposition.
    pub fn planner(&self) -> Option<&Arc<sm_planner::Planner>> {
        self.core.planner.as_ref()
    }

    /// A coherent telemetry snapshot: per-phase and per-outcome latency
    /// histograms, rolling-window rates, the registry counters, and the
    /// slow-query log. Render with [`MetricsReport::to_prometheus`].
    /// Cheap enough to poll every second.
    pub fn metrics_report(&self) -> MetricsReport {
        self.core.metrics.report(self.counters())
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.core.sched.shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Terminate any streams the shutdown stranded so no client blocks
        // forever on a dead service.
        let leftovers: Vec<Arc<QueryRun>> = {
            let mut adm = self.core.admission.lock().expect("admission poisoned");
            let mut v: Vec<Arc<QueryRun>> = adm.running.drain(..).collect();
            v.extend(adm.pending.drain(..));
            v
        };
        for run in leftovers {
            run.shared.cancel.cancel(CancelReason::Stopped);
            let agg = run.agg.lock().expect("agg poisoned");
            run.finish(ServiceOutcome::Cancelled, agg.matches, agg.recursions);
        }
        if self.core.cfg.trace.is_enabled() {
            self.core.cfg.trace.flush_counters(0, &self.counters());
        }
    }
}

impl ServiceCore {
    /// A born-terminal `Rejected` stream, tallied and recorded in
    /// telemetry.
    fn reject(&self, started: Instant) -> ResultStream {
        self.counters.bump(Counter::QueriesRejected);
        self.metrics.observe_terminal(
            ServiceOutcome::Rejected,
            started.elapsed().as_nanos() as u64,
            0,
            0,
            None,
        );
        ResultStream::terminal(QueryReport::rejected(started.elapsed()))
    }

    fn submit(&self, req: QueryRequest) -> ResultStream {
        let started = Instant::now();
        // Uniform sampling requires one sequential exhaustive pass — the
        // morsel-parallel service cannot honor it, so it refuses rather
        // than silently returning a biased sample.
        if matches!(req.semantics.termination, Termination::SampleK(..)) {
            return self.reject(started);
        }
        // Admission: reserve a slot in the bounded system or reject now.
        {
            let mut adm = self.admission.lock().expect("admission poisoned");
            if adm.in_system >= self.cfg.max_active + self.cfg.queue_capacity {
                drop(adm);
                return self.reject(started);
            }
            adm.in_system += 1;
        }
        self.counters.bump(Counter::QueriesAdmitted);

        // What the engine actually runs under: termination is a per-run
        // budget (TopK folds into the cap below), so the cached plan is
        // keyed on injectivity + output only; a count filter needs to see
        // embeddings, so it forces materializing output.
        let mut engine_semantics = MatchSemantics {
            termination: Termination::All,
            ..req.semantics
        };
        if req.count_filter.is_some() {
            engine_semantics.output = OutputMode::Embeddings;
        }
        if engine_semantics.output == OutputMode::CountOnly {
            self.counters.bump(Counter::CountOnlyRuns);
        }

        let graph = self.graph.lock().expect("graph lock poisoned").clone();
        let plan_started = Instant::now();
        let (cached, mut remap, canon_hash) = self.plan_for(&req.query, &graph, engine_semantics);
        let cache_hit = remap.is_some();
        let mut plan = cached.plan.clone();
        let mut combo = cached.combo;
        // Adaptive tail capture: a prior occurrence of this canonical
        // form crossed the slow threshold, so this one runs under a full
        // sm-trace profile. The traced plan is compiled fresh against the
        // client's own query (no remap needed) and never cached.
        let capture = if self.metrics.take_armed(canon_hash) {
            match self.compile_traced(&req.query, &graph, engine_semantics) {
                Some((traced_plan, trace)) => {
                    plan = Some(traced_plan);
                    remap = None;
                    // The traced plan is the fixed pipeline, not the
                    // planner's combo — don't misattribute its counters.
                    combo = None;
                    Some(trace)
                }
                None => None,
            }
        } else {
            None
        };
        self.metrics
            .observe_plan(plan_started.elapsed().as_nanos() as u64, cache_hit);
        let plan_build_ns = if cache_hit {
            0
        } else {
            cached.plan.as_ref().map_or(0, |p| p.plan_build_ns())
        };

        // Per-request budget on a fresh token: deadline + embedding cap.
        // A TopK termination is exactly a cap — `record_match`'s atomic
        // slot allocation already makes capped counts exact across
        // workers, so the k returned embeddings are exact, not "about k".
        let deadline = req.deadline.or(self.cfg.default_deadline);
        let cap = req.cap(self.cfg.default_cap);
        let token = CancelToken::deadline_after(started, deadline);
        let stream = StreamCore::new(
            self.cfg.stream_capacity,
            token.clone(),
            self.metrics.drain_hist(),
        );
        let run = Arc::new(QueryRun {
            plan,
            graph,
            shared: SharedControl::with_token(token.clone(), cap),
            remap,
            deliver: req.deliver,
            count_filter: req.count_filter.clone(),
            filtered: AtomicU64::new(0),
            topk: matches!(req.semantics.termination, Termination::TopK(_)),
            stream: stream.clone(),
            first_row_sent: AtomicBool::new(false),
            agg: Mutex::new(RunAgg {
                matches: 0,
                recursions: 0,
                outcome: Outcome::Complete,
                counters: CounterBlock::new(),
            }),
            cache_hit,
            plan_build_ns,
            started,
            plan_ready_ns: started.elapsed().as_nanos() as u64,
            canon_hash,
            combo,
            activated_ns: AtomicU64::new(0),
            capture,
        });

        if run.roots() == 0 {
            // Zero-candidate plans finalize at submission, deterministically:
            // an already-expired deadline is a Deadline outcome, otherwise
            // the (empty) enumeration is Complete. Nothing is scheduled, so
            // nothing can hang.
            let outcome = match token.poll() {
                Some(CancelReason::Deadline) => ServiceOutcome::Deadline,
                Some(CancelReason::Stopped) => ServiceOutcome::Cancelled,
                None => ServiceOutcome::Complete,
            };
            let mut adm = self.admission.lock().expect("admission poisoned");
            adm.in_system -= 1;
            drop(adm);
            self.metrics
                .observe_terminal(outcome, started.elapsed().as_nanos() as u64, 0, 0, None);
            run.finish(outcome, 0, 0);
            return ResultStream::new(stream);
        }

        let activate_now = {
            let mut adm = self.admission.lock().expect("admission poisoned");
            if adm.active < self.cfg.max_active {
                adm.active += 1;
                adm.running.push(run.clone());
                true
            } else {
                adm.pending.push_back(run.clone());
                false
            }
        };
        if activate_now {
            self.activate(run);
        }
        ResultStream::new(stream)
    }

    /// Cache lookup, compiling (and populating) on a miss. A hit returns
    /// the plan-vertex → client-vertex remap, built from the one
    /// canonical form computed here; a miss compiled the client's own
    /// numbering and needs none. Plans are shared within one semantics mode
    /// (permuted twins hit) and never across modes: the key carries the
    /// semantics fingerprint and the stored canonical form is
    /// semantics-extended, so even a hash collision across modes fails
    /// code verification.
    fn plan_for(
        &self,
        query: &Graph,
        graph: &Arc<GraphData>,
        semantics: MatchSemantics,
    ) -> (Arc<CachedPlan>, Option<Vec<VertexId>>, u64) {
        let base = canonical_form(query);
        let canon_hash = base.hash;
        let key = PlanKey {
            epoch: graph.epoch,
            query: base.hash,
            config: self.config_fp,
            semantics: semantics.fingerprint(),
        };
        let form = base.with_semantics(semantics.fingerprint());
        if let Some(hit) = self.cache.lookup(&key, &form.code) {
            let remap = form
                .map_onto(&hit.form)
                .expect("cache hit verified equal canonical codes");
            return (hit, Some(remap), canon_hash);
        }
        let ctx =
            DataContext::from_parts(&graph.graph, graph.nlf.clone(), graph.label_pairs.clone());
        let compile_cfg = self.compile_config(semantics, Trace::disabled());
        let (plan, combo) = match &self.planner {
            // Auto mode: rank the combo space against the current graph's
            // statistics (plus any feedback already recorded for this
            // canonical form) and compile the winner. The choice is
            // cached with the plan; feedback from its runs re-ranks the
            // next compilation of this form.
            Some(planner) => match planner.choose(query, &ctx, &compile_cfg, canon_hash) {
                Some(score) => {
                    let mut auto_cfg = compile_cfg.clone();
                    auto_cfg.intersect = score.combo.kernel;
                    (
                        score
                            .combo
                            .pipeline()
                            .plan(query, &ctx, &auto_cfg)
                            .ok()
                            .map(Arc::new),
                        Some(score.combo),
                    )
                }
                // LDF proved the query unsatisfiable: cache the negative
                // verdict like a fixed-pipeline compile failure would.
                None => (None, None),
            },
            None => (
                self.cfg
                    .pipeline
                    .plan(query, &ctx, &compile_cfg)
                    .ok()
                    .map(Arc::new),
                None,
            ),
        };
        let entry = Arc::new(CachedPlan { plan, form, combo });
        self.cache.insert(key, entry.clone());
        (entry, None, canon_hash)
    }

    /// The canonical compile config: per-run budget fields are neutralized
    /// so one plan serves every request budget (applied via SharedControl
    /// at execution time). The semantics' injectivity and output mode
    /// *are* compile-relevant — the pipeline drops iso-only optimizations
    /// for relaxed injectivity.
    fn compile_config(&self, semantics: MatchSemantics, trace: Trace) -> MatchConfig {
        MatchConfig {
            semantics,
            max_matches: None,
            time_limit: None,
            cancel: None,
            trace,
            plan: PlanSelection::Fixed,
            bailout: None,
            ..self.cfg.base_config.clone()
        }
    }

    /// Compile `query` with a live trace attached — the adaptive
    /// tail-capture path. Cached plans deliberately carry a disabled
    /// trace (one plan serves every request), so a profiled occurrence
    /// needs its own compilation; the result is used once and never
    /// cached. Returns `None` when the query is unsatisfiable.
    fn compile_traced(
        &self,
        query: &Graph,
        graph: &Arc<GraphData>,
        semantics: MatchSemantics,
    ) -> Option<(Arc<QueryPlan>, Trace)> {
        let ctx =
            DataContext::from_parts(&graph.graph, graph.nlf.clone(), graph.label_pairs.clone());
        let trace = Trace::enabled();
        let compile_cfg = self.compile_config(semantics, trace.clone());
        let plan = self.cfg.pipeline.plan(query, &ctx, &compile_cfg).ok()?;
        Some((Arc::new(plan), trace))
    }

    /// Register a runnable query's morsels with the fair scheduler.
    fn activate(&self, run: Arc<QueryRun>) {
        // Queue-wait phase ends here: plan ready → activation.
        let activated_ns = run.started.elapsed().as_nanos() as u64;
        run.activated_ns.store(activated_ns, Ordering::Relaxed);
        self.metrics
            .observe_queue_wait(activated_ns.saturating_sub(run.plan_ready_ns));
        let n = run.roots();
        let size = morsel_size_for(n, self.cfg.workers);
        let morsels: Vec<Morsel> = (0..n)
            .step_by(size)
            .map(|start| Morsel {
                run: run.clone(),
                root: start as u32..(start + size).min(n) as u32,
            })
            .collect();
        self.sched.register(morsels);
    }

    /// Terminal transition: build the report, finish the stream, release
    /// the admission slot and promote a pending query if any.
    fn finalize(&self, run: &Arc<QueryRun>) {
        let (matches, recursions, outcome, slow_counters, backtracks) = {
            let agg = run.agg.lock().expect("agg poisoned");
            let outcome = if run.stream.client_cancelled.load(Ordering::Relaxed) {
                ServiceOutcome::Cancelled
            } else {
                match agg.outcome {
                    Outcome::Complete => ServiceOutcome::Complete,
                    Outcome::CapReached => ServiceOutcome::CapHit,
                    Outcome::TimedOut => ServiceOutcome::Deadline,
                }
            };
            let matches = if run.count_filter.is_some() {
                run.filtered.load(Ordering::Relaxed)
            } else {
                agg.matches
            };
            // The per-query counter block only feeds the slow-query
            // log; the floor prefilter decides — before any copying or
            // allocation — whether this query can change it. Captured
            // (traced) occurrences always log so the profile attaches.
            let slow_counters = if run.capture.is_some()
                || self.metrics.should_log(outcome, run.started.elapsed())
            {
                Some(agg.counters.clone())
            } else {
                None
            };
            let backtracks = agg.counters.get(Counter::Backtracks);
            (matches, agg.recursions, outcome, slow_counters, backtracks)
        };
        if run.topk && outcome == ServiceOutcome::CapHit {
            self.counters.bump(Counter::TopkEarlyExits);
        }
        if outcome == ServiceOutcome::Cancelled
            && run.stream.client_cancelled.load(Ordering::Relaxed)
        {
            self.counters.bump(Counter::QueriesCancelledByDrop);
        }
        let total_ns = run.started.elapsed().as_nanos() as u64;
        // Cross-run feedback: fold this run's observed cost and pruning
        // behavior into the planner's per-canonical-form store, so the
        // next compilation of this form ranks with measured costs.
        if let (Some(planner), Some(combo)) = (&self.planner, run.combo) {
            planner.observe(
                run.canon_hash,
                &sm_planner::ObservedRun {
                    combo,
                    total_ns,
                    enum_ns: total_ns.saturating_sub(run.activated_ns.load(Ordering::Relaxed)),
                    recursions,
                    backtracks,
                    completed: outcome == ServiceOutcome::Complete,
                    bailed: false,
                },
            );
        }
        let slow = slow_counters.map(|counters| {
            let profile = run.capture.as_ref().map(|trace| {
                if run.shared.cancel.poll().is_some() {
                    trace.mark_cancelled();
                }
                RunProfile::from_snapshot(
                    RunMeta {
                        dataset: "service".to_string(),
                        query: format!("{:016x}", run.canon_hash),
                        config: plan_choice(&run.plan),
                        threads: self.cfg.workers,
                        cancelled: trace.was_cancelled(),
                    },
                    &trace.snapshot(),
                )
                .render_tree()
            });
            SlowQuery {
                canon_hash: run.canon_hash,
                outcome,
                elapsed: run.started.elapsed(),
                matches,
                recursions,
                cache_hit: run.cache_hit,
                plan_build_ns: run.plan_build_ns,
                plan: plan_choice(&run.plan),
                counters,
                profile,
            }
        });
        self.metrics.observe_terminal(
            outcome,
            total_ns,
            total_ns.saturating_sub(run.activated_ns.load(Ordering::Relaxed)),
            matches,
            slow,
        );
        run.finish(outcome, matches, recursions);
        let next = {
            let mut adm = self.admission.lock().expect("admission poisoned");
            adm.in_system -= 1;
            adm.active -= 1;
            adm.running.retain(|r| !Arc::ptr_eq(r, run));
            if adm.active < self.cfg.max_active {
                if let Some(next) = adm.pending.pop_front() {
                    adm.active += 1;
                    adm.running.push(next.clone());
                    Some(next)
                } else {
                    None
                }
            } else {
                None
            }
        };
        if let Some(next) = next {
            self.activate(next);
        }
    }

    /// Execute one claimed morsel (or skip it when the run's token is
    /// already cancelled, revoking the rest of the query's queued work).
    fn run_morsel(
        &self,
        morsel: &Morsel,
        source: SourceId,
        scratch: &mut Scratch,
        block: &mut EmbeddingBlock,
    ) {
        let run = &morsel.run;
        if let Some(reason) = run.shared.cancel.poll() {
            self.sched.revoke(source);
            let mut agg = run.agg.lock().expect("agg poisoned");
            agg.merge_outcome(match reason {
                CancelReason::Deadline => Outcome::TimedOut,
                CancelReason::Stopped => Outcome::CapReached,
            });
            return;
        }
        let plan = run.plan.as_ref().expect("runnable runs have a plan");
        let mut sink = DeliverSink {
            run,
            block,
            streamed: 0,
            passed: 0,
        };
        let stats = enumerate_with(
            &EngineInput {
                plan,
                g: &run.graph.graph,
                root: morsel.root.clone(),
                shared: Some(&run.shared),
            },
            scratch,
            &mut sink,
        );
        // Before the morsel is reported complete: `finalize` must never
        // install the terminal report ahead of rows still held here.
        sink.flush();
        if sink.streamed > 0 {
            self.counters
                .add(Counter::EmbeddingsStreamed, sink.streamed);
        }
        if sink.passed > 0 {
            run.filtered.fetch_add(sink.passed, Ordering::Relaxed);
        }
        let mut agg = run.agg.lock().expect("agg poisoned");
        agg.matches += stats.matches;
        agg.recursions += stats.recursions;
        agg.counters.merge(&stats.counters);
        agg.merge_outcome(stats.outcome);
    }
}

/// Human-readable plan choice for the slow-query log.
fn plan_choice(plan: &Option<Arc<QueryPlan>>) -> String {
    match plan {
        None => "unsatisfiable".to_string(),
        Some(p) if p.adaptive => format!("{:?} (adaptive)", p.method),
        Some(p) => format!("{:?}", p.method),
    }
}

/// Sink remapping each match straight into the worker's block, handed to
/// the run's stream when full, once early after the run's first row, and
/// at morsel end (counting happens in `RunControl`; count-only plans never
/// call a sink at all). With a count filter, every match is remapped and
/// tallied against the predicate whether or not it is delivered.
struct DeliverSink<'a> {
    run: &'a QueryRun,
    block: &'a mut EmbeddingBlock,
    streamed: u64,
    /// Matches this morsel that the run's `count_filter` accepted.
    passed: u64,
}

impl DeliverSink<'_> {
    /// Hand the block over (one lock), counting the rows the stream took.
    fn flush(&mut self) {
        if !self.block.is_empty() && self.run.stream.push_block(self.block) {
            self.streamed += self.block.rows() as u64;
        }
        self.block.clear();
    }
}

impl MatchSink for DeliverSink<'_> {
    fn on_match(&mut self, m: &[VertexId]) {
        let run = self.run;
        if !run.deliver && run.count_filter.is_none() {
            return;
        }
        match &run.remap {
            Some(map) => self.block.push_row(map.iter().map(|&p| m[p as usize])),
            None => self.block.push_row(m.iter().copied()),
        }
        let rows = self.block.rows();
        if let Some(filter) = &run.count_filter {
            if filter(self.block.row(rows - 1)) {
                self.passed += 1;
            }
        }
        if !run.deliver {
            self.block.clear();
        } else if rows >= run.stream.flush_rows
            || !(run.first_row_sent.load(Ordering::Relaxed)
                || run.first_row_sent.swap(true, Ordering::Relaxed))
        {
            self.flush();
        }
    }
}

fn worker_loop(core: Arc<ServiceCore>) {
    let mut scratch = Scratch::new();
    let mut block = EmbeddingBlock::default();
    loop {
        match core.sched.claim() {
            Claim::Shutdown => break,
            Claim::Morsel { source, item } => {
                core.run_morsel(&item, source, &mut scratch, &mut block);
                if core.sched.complete(source) {
                    core.finalize(&item.run);
                }
            }
        }
    }
}

/// Fingerprint of everything plan compilation depends on besides the
/// query and the data graph: the pipeline composition and the compile-
/// relevant config knobs. Per-run budget fields are deliberately
/// excluded — they do not change the compiled plan.
fn config_fingerprint(pipeline: &Pipeline, base: &MatchConfig) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    pipeline.filter.hash(&mut h);
    pipeline.order.hash(&mut h);
    pipeline.method.hash(&mut h);
    pipeline.vf2pp_rule.hash(&mut h);
    base.failing_sets.hash(&mut h);
    base.intersect.hash(&mut h);
    base.vf2pp_rule.hash(&mut h);
    // Auto and Fixed plan selection compile different pipelines for the
    // same query, so they must occupy disjoint cache-key universes.
    base.plan.hash(&mut h);
    h.finish()
}
