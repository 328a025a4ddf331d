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
//!    sharded LRU [`PlanCache`] — two clients
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
use crate::update::{Inner, UpdateState};
use sm_graph::canon::canonical_form;
use sm_graph::label_index::LabelPairEdgeCounts;
use sm_graph::{Graph, NlfIndex, VertexId};
use sm_match::enumerate::control::SharedControl;
use sm_match::enumerate::engine::{enumerate_with, EngineInput};
use sm_match::enumerate::{
    MatchConfig, MatchSemantics, MatchSink, Outcome, OutputMode, RunTotals, Termination,
};
use sm_match::util::Bitmap;
use sm_match::{ChangeSet, DataContext, Pipeline, PlanSelection, QueryPlan, Scratch};
use sm_runtime::trace::profile::RunMeta;
use sm_runtime::trace::{AtomicCounterBlock, Counter, CounterBlock, RunProfile, Trace};
use sm_runtime::{morsels, CancelReason, CancelToken, FairScheduler};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// A data graph plus the per-graph indices every plan compilation needs,
/// stamped with the service epoch it was installed under — and, on one
/// shard of a partitioned graph, the vertices the shard owns.
pub struct GraphData {
    /// The data graph.
    pub graph: Graph,
    /// Neighbor-label-frequency index (NLF filter, VF2++ rule).
    pub nlf: NlfIndex,
    /// Label-pair edge counts (QuickSI weights).
    pub label_pairs: LabelPairEdgeCounts,
    /// Epoch this graph was installed under. A cached plan records the
    /// epoch it was compiled or patched at, and is brought to this one
    /// through [`GraphData::changes_since`].
    pub epoch: u64,
    /// The vertices this graph's shard owns, indexed by its vertex ids,
    /// when it is one piece of a partitioned graph
    /// ([`Service::new_shard`]): installed with the graph it numbers, so
    /// a query reads both from one slot, and applied by
    /// [`GraphData::context`].
    pub(crate) owned: Option<Bitmap>,
    /// The change sets of the last commits that led to this graph, oldest
    /// first, at most [`PATCH_LOG_COMMITS`]: shared with the predecessors
    /// (`Arc`), and pinned with the graph by every query that holds it, so
    /// a query always patches against the log of its own epoch.
    log: VecDeque<Arc<ChangeSet>>,
}

/// Plan-cache shard count: each shard is one LRU behind its own lock.
const CACHE_SHARDS: usize = 8;

/// How many commits back a cached plan can be patched from: the length of
/// each installed graph's change log. It sits where patching costs what
/// compiling does. `experiments patch` on the `up` stand-in, with
/// `update-durable`'s 16-form query pool and 32-op batches (64 touched
/// vertices per commit), 10 start epochs, measured on a shared 2-core
/// container: the GraphQL filter costs 1.9–2.1 ms fresh, the patch 0.08 ms
/// across 1 commit, 0.30 across 8, 0.83 across 32, 1.37 across 64 and
/// 1.87 across 96 — about 0.016 ms per commit, level with the fresh
/// filter near 96.
pub(crate) const PATCH_LOG_COMMITS: usize = 96;

impl GraphData {
    pub(crate) fn build(graph: Graph, owned: Option<Bitmap>, epoch: u64) -> Arc<Self> {
        Arc::new(GraphData {
            nlf: graph.build_nlf(),
            label_pairs: LabelPairEdgeCounts::build(&graph),
            graph,
            epoch,
            owned,
            log: VecDeque::new(),
        })
    }

    /// The compile context over this graph's indices, restricted to the
    /// owned vertices on a shard ([`DataContext::with_owned`]).
    pub fn context(&self) -> DataContext<'_> {
        DataContext::from_parts(&self.graph, &self.nlf, &self.label_pairs)
            .with_owned(self.owned.as_ref())
    }

    /// Assemble with every index already maintained — the install path
    /// for WAL replay and recovery, where the label-pair counts are
    /// patched from the commit deltas or loaded from a snapshot instead
    /// of rebuilt by an edge scan.
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
            owned: None,
            log: VecDeque::new(),
        })
    }

    /// The installed graph after `committed`, at its post epoch. The CSR
    /// and NLF index are spliced from this graph's arrays, rewriting only
    /// the rows the commit touched ([`sm_delta::Committed::splice_post`]),
    /// and the label-pair counts are patched from the delta: no index is
    /// rebuilt by a scan, however old the overlay is. The change log
    /// gains the commit's change set ([`sm_delta::Committed::changes`]).
    /// A shard's owned mask grows to the post graph's vertex count, its
    /// added vertices unowned.
    /// The one install step of both tiers ([`UpdateState::commit`]).
    ///
    /// # Panics
    ///
    /// If the commit's pre epoch is not this graph's: the twin it came
    /// from counts another lineage.
    pub(crate) fn successor(&self, committed: &sm_delta::Committed) -> Arc<GraphData> {
        assert_eq!(
            committed.pre.epoch(),
            self.epoch,
            "successor: the commit does not start at this graph's epoch"
        );
        let (graph, nlf) = committed.splice_post(&self.graph, &self.nlf);
        let mut label_pairs = self.label_pairs.clone();
        patch_pairs(&mut label_pairs, committed);
        let mut log = self.log.clone();
        if log.len() == PATCH_LOG_COMMITS {
            log.pop_front();
        }
        log.push_back(Arc::new(committed.changes()));
        // A shard owns none of the vertices the commit added.
        let owned = self.owned.clone().map(|mut owned| {
            owned.grow(graph.num_vertices());
            owned
        });
        Arc::new(GraphData {
            graph,
            nlf,
            label_pairs,
            epoch: committed.info.epoch,
            owned,
            log,
        })
    }

    /// The vertices touched between `epoch` and this graph's epoch, with
    /// their rows as of `epoch` — what a plan compiled at `epoch` needs to
    /// be patched to this graph ([`sm_match::Pipeline::patch`]). `None`
    /// when `epoch` is later than this graph's or older than its log
    /// reaches.
    pub fn changes_since(&self, epoch: u64) -> Option<ChangeSet> {
        let gap = usize::try_from(self.epoch.checked_sub(epoch)?).ok()?;
        let first = self.log.len().checked_sub(gap)?;
        Some(ChangeSet::merge(self.log.range(first..).map(|c| &**c)))
    }
}

/// Patch label-pair edge counts by one commit's normalized delta — the
/// result equals a fresh [`LabelPairEdgeCounts::build`] of the post graph.
/// Tombstones keep their label, so endpoint labels resolve on the post
/// view for insertions and deletions alike.
pub(crate) fn patch_pairs(pairs: &mut LabelPairEdgeCounts, committed: &sm_delta::Committed) {
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
    /// Total cached plans (0 disables the cache).
    pub cache_capacity: usize,
    /// Per-query embedding buffer length (backpressure bound).
    pub stream_capacity: usize,
    /// Deadline applied when a request does not set its own.
    pub default_deadline: Option<Duration>,
    /// Embedding cap applied when a request does not set its own
    /// (`None` = unbounded).
    pub default_cap: Option<u64>,
    /// The pipeline every plan is compiled with (part of the cache key).
    pub pipeline: Pipeline,
    /// Base match config for plan compilation — its `failing_sets` and
    /// `intersect` knobs are honored (and part of the cache key); per-run
    /// fields (`max_matches`, `time_limit`, `cancel`, `trace`) are
    /// overridden by each request's budget.
    pub base_config: MatchConfig,
    /// Observability handle; service counters are flushed here on drop.
    pub trace: Trace,
    /// Always-on telemetry: latency histograms, slow-query log,
    /// adaptive tail capture (see [`crate::metrics`]).
    pub metrics: MetricsConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            max_active: 4,
            queue_capacity: 64,
            cache_capacity: 256,
            stream_capacity: 1024,
            default_deadline: None,
            default_cap: None,
            pipeline: sm_match::Algorithm::GraphQl.optimized(),
            base_config: MatchConfig::default(),
            trace: Trace::disabled(),
            metrics: MetricsConfig::default(),
        }
    }
}

/// One query submission.
#[derive(Clone)]
pub struct QueryRequest {
    /// The query graph.
    pub query: Graph,
    /// Per-query deadline (overrides the service default).
    pub deadline: Option<Duration>,
    /// Per-query embedding cap (overrides the service default).
    pub max_matches: Option<u64>,
    /// Match semantics the query runs under. The injectivity and output
    /// mode are compiled into the (cached) plan, and the output mode is
    /// what reaches the client: the stream carries the embeddings iff it
    /// [emits](MatchSemantics::emits) them. A `TopK` termination is
    /// folded into the per-run cap. `SampleK` is rejected at submission —
    /// uniform sampling needs a sequential exhaustive pass, which neither
    /// morsel-parallel tier offers (use [`sm_match::Executor::run_sample`]
    /// directly).
    pub semantics: MatchSemantics,
}

impl QueryRequest {
    /// Count matches of `query`; no embeddings are delivered. Runs under
    /// count-only semantics: the engine skips embedding materialization
    /// entirely and only the per-worker counters are maintained.
    pub fn count(query: Graph) -> Self {
        QueryRequest {
            semantics: MatchSemantics::default().count_only(),
            ..QueryRequest::streaming(query)
        }
    }

    /// Stream the embeddings of `query`: the paper's default semantics.
    pub fn streaming(query: Graph) -> Self {
        QueryRequest {
            query,
            deadline: None,
            max_matches: None,
            semantics: MatchSemantics::default(),
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
    /// termination). The output mode decides what the stream carries: a
    /// count-only semantics streams nothing, a materializing one streams
    /// every embedding, whichever constructor built the request.
    pub fn with_semantics(mut self, semantics: MatchSemantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// What this request runs as on a tier with this `default_cap`: the
    /// one request front of [`Service::submit`] and the sharded router.
    /// `None` for `SampleK`, which both reject (see `semantics`).
    pub fn resolve(&self, default_cap: Option<u64>) -> Option<Resolved> {
        let cap = self.max_matches.or(default_cap);
        let (cap, topk) = match self.semantics.termination {
            Termination::SampleK(..) => return None,
            Termination::TopK(k) => (Some(cap.map_or(k, |m| m.min(k))), true),
            Termination::All => (cap, false),
        };
        Some(Resolved {
            semantics: MatchSemantics {
                termination: Termination::All,
                ..self.semantics
            },
            cap,
            topk,
        })
    }
}

/// A [`QueryRequest`] as a tier runs it (see [`QueryRequest::resolve`]).
#[derive(Clone, Copy, Debug)]
pub struct Resolved {
    /// The request's semantics with termination `All`: a `TopK` is a
    /// per-run budget, folded into `cap`.
    pub semantics: MatchSemantics,
    /// The embedding cap: the request's own (else the tier's
    /// `default_cap`), tightened by a `TopK`'s `k`.
    pub cap: Option<u64>,
    /// Whether the request asked for top-k termination.
    pub topk: bool,
}

impl Resolved {
    /// Tally one query's terminal outcome: under `TopK` a cap hit is the
    /// requested early exit (`topk_early_exits`), not an overflow. Each
    /// tier calls it once per query, never once per shard.
    pub fn tally(&self, outcome: ServiceOutcome, counters: &AtomicCounterBlock) {
        if self.topk && outcome == ServiceOutcome::CapHit {
            counters.bump(Counter::TopkEarlyExits);
        }
    }
}

/// Scheduler payload: the run plus which part of it to execute — a
/// position range into `C(root)` (see [`EngineInput::root`]).
struct Morsel {
    run: Arc<QueryRun>,
    root: Range<u32>,
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
    /// What the request resolved to; `finalize` tallies its outcome.
    front: Resolved,
    stream: Arc<StreamCore>,
    /// Set by the worker that hands over the run's first row — that row
    /// goes out alone, so time-to-first-embedding never waits for a full
    /// block.
    first_row_sent: AtomicBool,
    /// This query's morsels, merged: the report's outcome, matches and
    /// recursions, and the slow-query log's per-query counters
    /// (intersections, backtracks, peak depth, …).
    agg: Mutex<RunTotals>,
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

    /// The run's terminal report as of now, its matches and recursions
    /// read off the merged block.
    fn report(&self, outcome: ServiceOutcome, agg: &RunTotals) -> QueryReport {
        QueryReport {
            outcome,
            matches: agg.counters.get(Counter::Matches),
            recursions: agg.counters.get(Counter::Recursions),
            cache_hit: self.cache_hit,
            plan_build_ns: self.plan_build_ns,
            elapsed: self.started.elapsed(),
        }
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
    /// The query-side slot: the graph a submission runs against, the
    /// update state's head as of its last install. Queries take only
    /// this lock, never the update state's.
    pub(crate) graph: Mutex<Arc<GraphData>>,
    pub(crate) cache: PlanCache,
    sched: FairScheduler<Morsel>,
    admission: Mutex<Admission>,
    /// The serving-layer tallies, by registry name (the update path's
    /// are the update state's).
    pub(crate) counters: AtomicCounterBlock,
    /// Always-on telemetry sink (see [`crate::metrics`]).
    pub(crate) metrics: ServiceMetrics,
    /// The head graph, its versioned twin, the standing queries and the
    /// journal: the update path's one lock (see [`crate::update`]).
    pub(crate) state: UpdateState,
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
        Service::boot(UpdateState::new(graph, &cfg), cfg)
    }

    /// Start one shard of a partitioned graph: a service over `graph`,
    /// the shard's piece, that keeps in the candidates of each query's
    /// [`sm_match::anchor`] only the vertices set in `owned` (indexed by
    /// `graph`'s ids), so a reply holds exactly the embeddings whose
    /// anchor image the shard owns. Under [`PlanSelection::Auto`] its
    /// planner learns into `feedback`, the store the tier's shards share
    /// (a private one when `None`). Starts at epoch 0.
    pub fn new_shard(
        graph: Graph,
        owned: Bitmap,
        cfg: ServiceConfig,
        feedback: Option<Arc<sm_planner::FeedbackStore>>,
    ) -> Self {
        let head = GraphData::build(graph, Some(owned), 0);
        Service::boot(
            UpdateState::with_inner(Inner::new(head), &cfg, feedback),
            cfg,
        )
    }

    /// Shared constructor: serve `state`'s head. [`Service::new`] builds
    /// the state from a graph, [`Service::new_durable`] and
    /// [`Service::open`] from a directory.
    pub(crate) fn boot(state: UpdateState, cfg: ServiceConfig) -> Self {
        let config_fp = config_fingerprint(&cfg.pipeline, &cfg.base_config);
        let metrics = ServiceMetrics::new(cfg.metrics.clone());
        // The planner learns into the store the state persists.
        let planner = state.feedback().map(|feedback| {
            Arc::new(sm_planner::Planner::with_feedback(
                sm_planner::PlannerConfig::default(),
                feedback.clone(),
            ))
        });
        let core = Arc::new(ServiceCore {
            cache: PlanCache::new(cfg.cache_capacity, CACHE_SHARDS),
            graph: Mutex::new(state.head()),
            sched: FairScheduler::new(),
            admission: Mutex::new(Admission {
                in_system: 0,
                active: 0,
                pending: VecDeque::new(),
                running: Vec::new(),
            }),
            metrics,
            counters: AtomicCounterBlock::default(),
            state,
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

    /// Replace the data graph. Bumps the epoch and clears the plan cache:
    /// the new graph starts an empty change log, so no plan of the old
    /// one can be patched to it (an in-place [`Service::apply_update`],
    /// by contrast, keeps every plan a patch can bring forward). In-flight
    /// queries keep the old graph alive (via `Arc`) and finish against
    /// it. Standing queries are re-enumerated from scratch on the new
    /// graph. A durable service absorbs the swap into a fresh snapshot
    /// ([`UpdateState::swap`]).
    pub fn swap_graph(&self, graph: Graph) {
        self.swap(graph, None);
    }

    /// Re-cut this shard ([`Service::new_shard`]): install `graph`, its
    /// new piece, with `owned` over the piece's ids, as
    /// [`Service::swap_graph`] installs a graph. Graph and mask land in
    /// the query slot together, so no plan pairs one with the other's
    /// numbering.
    pub fn swap_shard(&self, graph: Graph, owned: Bitmap) {
        self.swap(graph, Some(owned));
    }

    fn swap(&self, graph: Graph, owned: Option<Bitmap>) {
        let core = &self.core;
        core.state.swap(graph, owned, |data| {
            *core.graph.lock().expect("graph lock poisoned") = data.clone();
            core.cache.clear();
        });
    }

    /// Current data-graph epoch (0 for the construction-time graph).
    pub fn epoch(&self) -> u64 {
        self.core.graph.lock().expect("graph lock poisoned").epoch
    }

    /// Plan-cache statistics: `(hits, misses, evictions, live entries)`.
    pub fn cache_stats(&self) -> (u64, u64, u64, usize) {
        let cache = &self.core.cache;
        let c = cache.counters();
        (
            c.get(Counter::PlanCacheHits),
            c.get(Counter::PlanCacheMisses),
            c.get(Counter::PlanCacheEvictions),
            cache.len(),
        )
    }

    /// Snapshot of the service counters as a registry [`CounterBlock`]:
    /// the serving tallies (`queries_*`, `embeddings_streamed`, …) merged
    /// with the plan cache's, the update state's
    /// ([`UpdateState::counters`]) and, in Auto mode, the planner's.
    pub fn counters(&self) -> CounterBlock {
        let core = &self.core;
        let mut b = core.counters.snapshot();
        b.merge(&core.cache.counters());
        b.merge(&core.state.counters());
        if let Some(planner) = &core.planner {
            b.merge(&planner.counters());
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
    /// histograms, the registry counters, and the slow-query log. Render with [`MetricsReport::to_prometheus`].
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
            run.stream
                .finish(run.report(ServiceOutcome::Cancelled, &agg));
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
        let report = QueryReport::rejected(started.elapsed());
        self.metrics.observe_terminal(&report, 0, None);
        ResultStream::terminal(report)
    }

    fn submit(&self, req: QueryRequest) -> ResultStream {
        let started = Instant::now();
        let Some(front) = req.resolve(self.cfg.default_cap) else {
            return self.reject(started);
        };
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
        if front.semantics.output == OutputMode::CountOnly {
            self.counters.bump(Counter::CountOnlyRuns);
        }

        let graph = self.graph.lock().expect("graph lock poisoned").clone();
        let plan_started = Instant::now();
        let (cached, remap, canon_hash) = self.plan_for(&req.query, &graph, front.semantics);
        let cache_hit = remap.is_some();
        let captured = self.capture(&req.query, &graph, front.semantics, canon_hash, &cached);
        let (plan, remap, combo, capture) = match captured {
            // A captured run records no planner feedback: tracing
            // inflates its time.
            Some((plan, trace)) => (Some(plan), None, None, Some(trace)),
            None => (cached.plan.clone(), remap, cached.combo, None),
        };
        self.metrics
            .observe_plan(plan_started.elapsed().as_nanos() as u64);
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
        let token = CancelToken::deadline_after(started, deadline);
        let stream = StreamCore::new(
            self.cfg.stream_capacity,
            token.clone(),
            self.metrics.drain_hist(),
        );
        let run = Arc::new(QueryRun {
            plan,
            graph,
            shared: SharedControl::with_token(token.clone(), front.cap),
            remap,
            front,
            stream: stream.clone(),
            first_row_sent: AtomicBool::new(false),
            agg: Mutex::new(RunTotals::default()),
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
            let report = run.report(outcome, &RunTotals::default());
            self.metrics.observe_terminal(&report, 0, None);
            stream.finish(report);
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
    /// numbering and needs none. An entry compiled at an earlier epoch
    /// is patched to `graph`'s ([`ServiceCore::patch`]) and counts a hit;
    /// one newer than `graph` is never used. Plans are shared within one
    /// semantics mode (permuted twins hit) and never across modes: the key
    /// carries the semantics fingerprint and the stored canonical form is
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
            query: base.hash,
            config: self.config_fp,
            semantics: semantics.fingerprint(),
        };
        let form = base.with_semantics(semantics.fingerprint());
        let found = self.cache.lookup(&key, &form.code, graph.epoch, |stale| {
            self.patch(stale, graph, semantics)
        });
        if let Some(hit) = found {
            let remap = form
                .map_onto(&hit.form)
                .expect("cache hit verified equal canonical codes");
            return (hit, Some(remap), canon_hash);
        }
        let (plan, combo) =
            self.compile(query, graph, semantics, canon_hash, None, Trace::disabled());
        let entry = Arc::new(CachedPlan {
            plan,
            form,
            combo,
            epoch: graph.epoch,
        });
        self.cache.insert(key, entry.clone());
        (entry, None, canon_hash)
    }

    /// The one compile path, run by a cache miss and by a tail capture:
    /// `combo`'s pipeline and kernel, else — on a miss in Auto mode — the
    /// planner's pick for this form's statistics and recorded feedback,
    /// else the fixed `cfg.pipeline`. Returns the plan (`None` when the
    /// query is unsatisfiable) and the combo compiled.
    fn compile(
        &self,
        query: &Graph,
        graph: &GraphData,
        semantics: MatchSemantics,
        canon_hash: u64,
        combo: Option<sm_planner::PlanCombo>,
        trace: Trace,
    ) -> (Option<Arc<QueryPlan>>, Option<sm_planner::PlanCombo>) {
        let ctx = graph.context();
        let combo = match (&self.planner, combo) {
            (Some(planner), None) => {
                let cfg = self.compile_config(semantics, None, trace.clone());
                match planner.choose(query, &ctx, &cfg, canon_hash) {
                    Some(score) => Some(score.combo),
                    // LDF proved the query unsatisfiable: cache the negative
                    // verdict like a fixed-pipeline compile failure would.
                    None => return (None, None),
                }
            }
            (_, combo) => combo,
        };
        let cfg = self.compile_config(semantics, combo, trace);
        let plan = self.pipeline_of(combo).plan(query, &ctx, &cfg);
        (plan.ok().map(Arc::new), combo)
    }

    /// Bring `stale` to `graph`'s epoch: its plan's candidate sets are
    /// patched across the commits in between ([`Pipeline::patch`]), and
    /// order and `A` rebuilt from them, so the result is the plan a
    /// compile on `graph` builds. `None` — the caller compiles — when the
    /// entry holds no plan, `graph`'s change log does not reach back to
    /// the entry's epoch, or the entry's pipeline has no exact patch.
    fn patch(
        &self,
        stale: &CachedPlan,
        graph: &GraphData,
        semantics: MatchSemantics,
    ) -> Option<Arc<CachedPlan>> {
        let prior = stale.plan.as_ref()?;
        let changes = graph.changes_since(stale.epoch)?;
        let ctx = graph.context();
        let cfg = self.compile_config(semantics, stale.combo, Trace::disabled());
        let plan = self.pipeline_of(stale.combo).patch(
            prior.query(),
            &ctx,
            &cfg,
            &prior.candidates,
            &changes,
        )?;
        Some(Arc::new(CachedPlan {
            plan: plan.ok().map(Arc::new),
            form: stale.form.clone(),
            combo: stale.combo,
            epoch: graph.epoch,
        }))
    }

    /// After an in-place update installed `post`, drop the cached entries
    /// no later [`ServiceCore::patch`] can bring to its epoch and keep the
    /// rest: an entry is kept iff it holds a plan, its pipeline has an
    /// exact patch, `post` is not one shard's piece, and the change log at
    /// `post`'s epoch reaches back to it. Returns `(kept, dropped)`.
    pub(crate) fn retain_patchable(&self, post: &GraphData) -> (usize, usize) {
        let (sharded, epoch) = (post.owned.is_some(), post.epoch);
        self.cache.retain(|entry| {
            entry.plan.as_ref().is_some_and(|plan| {
                !sharded
                    && epoch.saturating_sub(entry.epoch) <= PATCH_LOG_COMMITS as u64
                    && self.pipeline_of(entry.combo).patches(&plan.config)
            })
        })
    }

    /// The pipeline an entry of `combo` compiles with: the combo's, else
    /// the fixed `cfg.pipeline`.
    fn pipeline_of(&self, combo: Option<sm_planner::PlanCombo>) -> Pipeline {
        combo.map_or_else(|| self.cfg.pipeline.clone(), |c| c.pipeline())
    }

    /// The match config a plan is compiled or patched with: the base
    /// config with `combo`'s kernel. Per-run budget fields are neutralized
    /// so one plan serves every request budget; the semantics'
    /// injectivity and output mode *are* compile-relevant.
    fn compile_config(
        &self,
        semantics: MatchSemantics,
        combo: Option<sm_planner::PlanCombo>,
        trace: Trace,
    ) -> MatchConfig {
        let mut cfg = MatchConfig {
            semantics,
            max_matches: None,
            time_limit: None,
            cancel: None,
            trace,
            plan: PlanSelection::Fixed,
            bailout: None,
            ..self.cfg.base_config.clone()
        };
        if let Some(c) = combo {
            cfg.intersect = c.kernel;
        }
        cfg
    }

    /// Adaptive tail capture: when a prior occurrence of this canonical
    /// form crossed the slow threshold, this one runs under a full
    /// sm-trace profile, on `cached`'s own combo compiled fresh with a
    /// live trace (cached plans carry a disabled one) against the
    /// client's query, so no remap, and never cached.
    fn capture(
        &self,
        query: &Graph,
        graph: &GraphData,
        semantics: MatchSemantics,
        hash: u64,
        cached: &CachedPlan,
    ) -> Option<(Arc<QueryPlan>, Trace)> {
        if cached.plan.is_none() || !self.metrics.take_armed(hash) {
            return None;
        }
        let trace = Trace::enabled();
        let (plan, _) = self.compile(query, graph, semantics, hash, cached.combo, trace.clone());
        Some((plan?, trace))
    }

    /// Register a runnable query's morsels with the fair scheduler.
    fn activate(&self, run: Arc<QueryRun>) {
        // Queue-wait phase ends here: plan ready → activation.
        let activated_ns = run.started.elapsed().as_nanos() as u64;
        run.activated_ns.store(activated_ns, Ordering::Relaxed);
        self.metrics
            .observe_queue_wait(activated_ns.saturating_sub(run.plan_ready_ns));
        self.sched
            .register(morsels(run.roots(), self.cfg.workers).map(|r| Morsel {
                run: run.clone(),
                root: r.start as u32..r.end as u32,
            }));
    }

    /// Terminal transition: build the report, finish the stream, release
    /// the admission slot and promote a pending query if any. The report
    /// is built once: the client, the slow-query log and the latency
    /// histograms read its one elapsed time.
    fn finalize(&self, run: &Arc<QueryRun>) {
        let agg = run.agg.lock().expect("agg poisoned").clone();
        let outcome = if run.stream.client_cancelled.load(Ordering::Relaxed) {
            ServiceOutcome::Cancelled
        } else {
            match agg.outcome {
                Outcome::Complete => ServiceOutcome::Complete,
                Outcome::CapReached => ServiceOutcome::CapHit,
                Outcome::TimedOut => ServiceOutcome::Deadline,
            }
        };
        let report = run.report(outcome, &agg);
        run.front.tally(outcome, &self.counters);
        if outcome == ServiceOutcome::Cancelled
            && run.stream.client_cancelled.load(Ordering::Relaxed)
        {
            self.counters.bump(Counter::QueriesCancelledByDrop);
        }
        let total_ns = report.elapsed.as_nanos() as u64;
        let execute_ns = total_ns.saturating_sub(run.activated_ns.load(Ordering::Relaxed));
        // Cross-run feedback: fold this run's observed cost and pruning
        // behavior into the planner's per-canonical-form store, so the
        // next compilation of this form ranks with measured costs.
        if let (Some(planner), Some(combo)) = (&self.planner, run.combo) {
            planner.observe(
                run.canon_hash,
                &sm_planner::ObservedRun {
                    combo,
                    total_ns,
                    enum_ns: execute_ns,
                    recursions: report.recursions,
                    backtracks: agg.counters.get(Counter::Backtracks),
                    completed: outcome == ServiceOutcome::Complete,
                    bailed: false,
                },
            );
        }
        // The floor prefilter decides — before any allocation — whether
        // this query can change the slow-query log. Captured (traced)
        // occurrences always log so the profile attaches.
        let slow = (run.capture.is_some() || self.metrics.should_log(outcome, report.elapsed))
            .then(|| SlowQuery {
                canon_hash: run.canon_hash,
                report: report.clone(),
                plan: plan_choice(&run.plan),
                counters: agg.counters.clone(),
                profile: run.capture.as_ref().map(|trace| {
                    RunProfile::from_snapshot(
                        RunMeta {
                            dataset: "service".to_string(),
                            query: format!("{:016x}", run.canon_hash),
                            config: plan_choice(&run.plan),
                            threads: self.cfg.workers,
                            cancelled: outcome != ServiceOutcome::Complete,
                        },
                        &trace.snapshot(),
                    )
                    .render_tree()
                }),
            });
        self.metrics.observe_terminal(&report, execute_ns, slow);
        run.stream.finish(report);
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

    /// Execute one claimed morsel, or skip it and return `false` — the
    /// worker loop then revokes the rest of the query's queued work — when
    /// the run's token is already cancelled.
    fn run_morsel(
        &self,
        morsel: &Morsel,
        scratch: &mut Scratch,
        block: &mut EmbeddingBlock,
    ) -> bool {
        let run = &morsel.run;
        if let Some(reason) = run.shared.cancel.poll() {
            let outcome = match reason {
                CancelReason::Deadline => Outcome::TimedOut,
                CancelReason::Stopped => Outcome::CapReached,
            };
            let mut agg = run.agg.lock().expect("agg poisoned");
            agg.outcome = agg.outcome.worst(outcome);
            return false;
        }
        let plan = run.plan.as_ref().expect("runnable runs have a plan");
        let mut sink = DeliverSink {
            run,
            block,
            streamed: 0,
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
        let mut agg = run.agg.lock().expect("agg poisoned");
        agg.merge(&stats.counters, stats.outcome);
        true
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
/// call a sink at all).
struct DeliverSink<'a> {
    run: &'a QueryRun,
    block: &'a mut EmbeddingBlock,
    streamed: u64,
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
        match &run.remap {
            Some(map) => self.block.push_row(map.iter().map(|&p| m[p as usize])),
            None => self.block.push_row(m.iter().copied()),
        }
        if self.block.rows() >= run.stream.flush_rows
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
    core.sched.serve(
        |morsel| core.run_morsel(morsel, &mut scratch, &mut block),
        |morsel| core.finalize(&morsel.run),
        &Trace::disabled(),
        None,
    );
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
    pipeline.leaves_last.hash(&mut h);
    base.failing_sets.hash(&mut h);
    base.intersect.hash(&mut h);
    // Auto and Fixed plan selection compile different pipelines for the
    // same query, so they must occupy disjoint cache-key universes.
    base.plan.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_compile_relevant_pipeline_knob_moves_the_fingerprint() {
        let base = MatchConfig::default();
        let p = sm_match::Algorithm::GraphQl.optimized();
        let fp = config_fingerprint(&p, &base);
        let mut vf2pp = p.clone();
        vf2pp.vf2pp_rule = true;
        let mut leaves = p.clone();
        leaves.leaves_last = true;
        for variant in [vf2pp, leaves] {
            assert_ne!(config_fingerprint(&variant, &base), fp, "{variant:?}");
        }
    }

    /// A cached static Intersect plan keeps the candidate-space rows its
    /// first run built: the second run of the same form builds no block.
    #[test]
    fn a_cached_plan_builds_its_rows_once() {
        let g =
            sm_graph::gen::rmat::rmat_graph(400, 6.0, 2, sm_graph::gen::rmat::RmatParams::PAPER, 5);
        let q =
            sm_graph::builder::graph_from_edges(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let svc = Service::new(g, ServiceConfig::default());
        let first = svc.run_count(q.clone());
        assert!(!first.cache_hit);
        let core = &svc.core;
        let graph = core.graph.lock().unwrap().clone();
        let semantics = MatchSemantics::default().count_only();
        let blocks = || {
            let (cached, _, _) = core.plan_for(&q, &graph, semantics);
            let plan = cached.plan.clone().expect("satisfiable");
            plan.space.as_ref().expect("Intersect plan").blocks_built()
        };
        let built = blocks();
        assert!(built > 0);
        let second = svc.run_count(q.clone());
        assert!(second.cache_hit);
        assert_eq!(second.matches, first.matches);
        assert_eq!(blocks(), built, "the second run built a block");
    }

    /// A query admitted before an update holds the pre-update graph. It
    /// never runs the plan a later query patched to the new epoch — it
    /// compiles its own, exact for its graph — and that compile does not
    /// displace the newer plan.
    #[test]
    fn a_query_pinned_before_an_update_never_runs_a_later_plan() {
        use sm_match::enumerate::CountSink;
        let g =
            sm_graph::gen::rmat::rmat_graph(400, 6.0, 2, sm_graph::gen::rmat::RmatParams::PAPER, 5);
        let q =
            sm_graph::builder::graph_from_edges(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let svc = Service::new(g.clone(), ServiceConfig::default());
        let semantics = MatchSemantics::default().count_only();
        let core = &svc.core;
        let before = svc.run_count(q.clone());
        // A query admitted now pins epoch 0.
        let pinned = core.graph.lock().unwrap().clone();
        // A new label-0 vertex adjacent to every label-1 candidate of the
        // cycle joins the label-0 sets and closes new cycles.
        let (cached, _, _) = core.plan_for(&q, &pinned, semantics);
        let plan = cached.plan.clone().expect("satisfiable");
        let u1 = (0..4).find(|&u| q.label(u) == 1).unwrap();
        let mut batch = sm_delta::UpdateBatch::new().add_vertex(0);
        let new = g.num_vertices() as VertexId;
        for &v in plan.candidates.get(u1).iter().take(4) {
            batch = batch.add_edge(new, v);
        }
        svc.apply_update(&batch);
        let after = svc.run_count(q.clone());
        assert!(after.cache_hit, "patched to epoch 1");
        assert!(after.matches > before.matches);
        // The pinned query resolves to an epoch-0 plan, equal to a fresh
        // compile on its graph, and counts its graph.
        let (old, _, _) = core.plan_for(&q, &pinned, semantics);
        assert_eq!(old.epoch, 0);
        let old = old.plan.clone().expect("satisfiable");
        let cfg = core.compile_config(semantics, None, Trace::disabled());
        let fresh = svc
            .core
            .cfg
            .pipeline
            .plan(&q, &pinned.context(), &cfg)
            .unwrap();
        assert_eq!(old.candidates, fresh.candidates);
        let stats = sm_match::Executor::new(&old, &pinned.graph).run(&mut CountSink);
        assert_eq!(stats.matches, before.matches);
        // The epoch-1 plan is still the cached one.
        let post = core.graph.lock().unwrap().clone();
        let (kept, _, _) = core.plan_for(&q, &post, semantics);
        assert_eq!(kept.epoch, 1);
        assert_ne!(kept.plan.as_ref().unwrap().candidates, old.candidates);
    }

    /// Under Auto a tail capture compiles the cached entry's own combo —
    /// pipeline and kernel — so the slow-query profile explains the plan
    /// the service runs, not the base pipeline.
    #[test]
    fn an_auto_capture_compiles_the_cached_combo() {
        let g =
            sm_graph::gen::rmat::rmat_graph(400, 6.0, 2, sm_graph::gen::rmat::RmatParams::PAPER, 5);
        let q =
            sm_graph::builder::graph_from_edges(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let svc = Service::new(
            g,
            ServiceConfig {
                base_config: MatchConfig {
                    plan: PlanSelection::Auto,
                    ..MatchConfig::default()
                },
                metrics: MetricsConfig {
                    slow_threshold: Some(Duration::ZERO),
                    ..MetricsConfig::default()
                },
                ..ServiceConfig::default()
            },
        );
        // The run crosses a zero threshold, arming the next occurrence.
        svc.run_count(q.clone());
        let core = &svc.core;
        let graph = core.graph.lock().unwrap().clone();
        let semantics = MatchSemantics::default().count_only();
        let (cached, _, hash) = core.plan_for(&q, &graph, semantics);
        let combo = cached.combo.expect("Auto caches its choice");
        let want = cached.plan.as_ref().expect("satisfiable");
        let (got, _) = core
            .capture(&q, &graph, semantics, hash, &cached)
            .expect("a satisfiable entry is captured");
        assert_eq!(got.candidates, want.candidates);
        assert_eq!(got.order(), want.order());
        assert_eq!(got.config.intersect, combo.kernel);
    }
}
