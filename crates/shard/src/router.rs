//! The scatter-gather router: one [`sm_service::Service`] per shard
//! behind a single service-shaped front door.
//!
//! # Query path
//!
//! [`ShardedService::submit`] fans the request out to every shard
//! (always streaming, always uncapped — see below), then a gather
//! thread drains the per-shard [`ResultStream`]s a block at a time,
//! remaps local vertex ids to global ids, and keeps an embedding **iff
//! the shard that produced it owns the embedding's minimum global
//! vertex id**. The
//! halo guarantees the owner shard finds every such embedding locally
//! (see [`crate::partition`]), and the minimum-id rule guarantees no
//! other shard double-reports it — the same exactly-once shape as
//! sm-delta's first-changed-edge attribution. Kept embeddings flow,
//! one block per shard block, into
//! an ordinary backpressured [`ResultStream`] via the service's
//! [`sm_service::result_channel`] producer hook, so clients see the
//! normal service contract: bounded buffering, drop-to-cancel, one
//! terminal [`QueryReport`].
//!
//! **Caps are exact across shards.** A shard cannot apply a per-query
//! cap soundly — it cannot know which of its local embeddings the
//! router will attribute to it. Shards therefore always run uncapped
//! (per-shard configs get `default_cap = None`) and the router counts
//! *owned* embeddings, stopping — and cancelling every shard — at
//! exactly the global cap. Deadlines stay per-shard: any shard's
//! deadline marks the merged counts partial (`Deadline` outcome), which
//! preserves deadline-on-empty semantics.
//!
//! # Update path
//!
//! [`ShardedService::apply_update`] commits the batch once to a
//! router-level [`VersionedGraph`] (the global source of truth), then
//! recomputes each shard's k-hop membership on the post-state, diffs it
//! against the shard's current membership, and applies one local batch
//! per shard: joined vertices are added (in sorted global-id order, so
//! predicted local ids match the service's dense assignment), departed
//! vertices are tombstoned, and edge ops are routed through each
//! shard's global→local map ([`UpdateBatch::map_vertices`]) — relying
//! on the versioned graph's commit normalization to ignore duplicates.
//!
//! # Durability
//!
//! The tier holds one [`sm_durable::Journal`], the same type a single
//! [`Service`] holds, at the router's one global commit point: one WAL
//! record per cross-shard batch or registration, never one per shard
//! (shard services keep in-memory journals — their state is derived).
//! [`ShardedService::open`] repartitions the snapshot and replays the
//! tail through `apply_update` / `register_standing` themselves; the
//! journal is in-memory until the replay hands the recovered one over.
//!
//! **Epoch coherence**: submissions take the router state's read lock
//! for the whole fan-out; `apply_update` holds the write lock while
//! applying every per-shard batch. A query therefore sees all shards
//! pre-update or all shards post-update, never a torn mix; queries
//! already in flight keep their admission-time graph via `Arc`, exactly
//! like a single service.

use crate::partition::{hash_owner, skew_pct, Partition, PartitionStrategy};
use sm_delta::{GraphView, Snapshot, UpdateBatch, VersionedGraph};
use sm_durable::{
    DurabilityOptions, Journal, Recovery, RecoveryReport, ReplayTarget, SnapshotData,
    StandingSnapshot,
};
use sm_graph::traversal::{diameter, khop_ball};
use sm_graph::{Graph, Label, VertexId};
use sm_match::{MatchSemantics, OutputMode, Termination};
use sm_runtime::metrics::prom;
use sm_runtime::trace::{AtomicCounterBlock, Counter, CounterBlock};
use sm_runtime::CancelToken;
use sm_service::{
    fold_journal, result_channel, CountFilter, EmbeddingBlock, MetricsReport, QueryReport,
    QueryRequest, ResultSink, ResultStream, Service, ServiceConfig, ServiceOutcome, StandingError,
};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, RwLock};
use std::thread;
use std::time::{Duration, Instant};

/// Sharded-tier configuration.
#[derive(Clone)]
pub struct ShardConfig {
    /// Number of shards (each gets its own [`Service`] and worker
    /// pool). Clamped to at least 1.
    pub shards: usize,
    /// How vertices are assigned to owning shards.
    pub strategy: PartitionStrategy,
    /// Halo (ghost) replication depth — the maximum query diameter the
    /// tier can answer. Larger halos support wider queries at the cost
    /// of more replication.
    pub halo_depth: u32,
    /// Seed for the hash partitioner.
    pub seed: u64,
    /// Per-shard service configuration. `default_cap` is taken over by
    /// the router (shards always enumerate uncapped); everything else —
    /// workers, admission bounds, deadlines, pipeline, trace — applies
    /// to each shard's own service.
    pub service: ServiceConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 2,
            strategy: PartitionStrategy::Hash,
            halo_depth: 3,
            seed: 0,
            service: ServiceConfig::default(),
        }
    }
}

/// Handle to a standing query registered with
/// [`ShardedService::register_standing`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardStandingId(usize);

/// What one [`ShardedService::apply_update`] call did, merged across
/// shards. Graph-shape counts (`edges_inserted`, …) are global — a
/// halo-replicated edge counts once, not once per holding shard.
#[derive(Clone, Debug, Default)]
pub struct ShardedUpdateReport {
    /// Router epoch after the update (unchanged for a no-op batch).
    pub epoch: u64,
    /// Whether the batch normalized to nothing.
    pub noop: bool,
    /// Edges inserted (global, post-normalization).
    pub edges_inserted: usize,
    /// Edges deleted (global, including edges of deleted vertices).
    pub edges_deleted: usize,
    /// Vertices added (global).
    pub vertices_added: usize,
    /// Vertices tombstoned (global).
    pub vertices_deleted: usize,
    /// Cached plans retained, summed over shards.
    pub plans_retained: usize,
    /// Cached plans evicted, summed over shards.
    pub plans_evicted: usize,
    /// Standing-query embeddings added incrementally, summed over
    /// shards (halo replicas included — this counts per-shard work).
    pub incremental_added: u64,
    /// Standing-query embeddings retracted, summed over shards.
    pub incremental_removed: u64,
    /// Shards whose local state actually changed.
    pub shards_touched: usize,
    /// Wall-clock time of the whole cross-shard apply.
    pub elapsed: Duration,
}

/// Telemetry snapshot of the whole sharded tier (see
/// [`ShardedService::metrics_report`]).
///
/// `merged` is exactly what a single-service report would look like if
/// one service had done all the work: shard histograms merged,
/// rolling-window totals summed, counters combined under the registry's
/// sum/gauge rules with the router's own shard-path counters
/// (`queries_fanned_out`, `boundary_embeddings_stitched`, router-level
/// rejections, `topk_early_exits`, WAL / recovery totals) and gauges
/// (`halo_vertices_replicated`, `shard_skew`) folded in. `per_shard`
/// keeps each shard's unmerged report for skew diagnosis — a balanced
/// merged p99 can hide one hot shard.
#[derive(Clone, Debug)]
pub struct ShardedMetricsReport {
    /// Cross-shard merge, router counters included.
    pub merged: MetricsReport,
    /// Each shard's own report, indexed by shard id.
    pub per_shard: Vec<MetricsReport>,
}

impl ShardedMetricsReport {
    /// Prometheus-style text exposition: the merged families (no
    /// `shard` label) plus every shard's series tagged `shard="i"`,
    /// folded into the same metric families.
    pub fn to_prometheus(&self) -> String {
        let mut fams = self.merged.families(&[]);
        for (i, r) in self.per_shard.iter().enumerate() {
            let shard = i.to_string();
            for f in r.families(&[("shard", shard.as_str())]) {
                match fams.iter_mut().find(|m| m.name == f.name) {
                    Some(m) => m.series.extend(f.series),
                    None => fams.push(f),
                }
            }
        }
        prom::render(&fams)
    }
}

/// Per-shard attribution snapshot (see
/// [`ShardedService::shard_details`]).
#[derive(Clone, Debug)]
pub struct ShardDetail {
    /// Shard index.
    pub shard: usize,
    /// Live vertices this shard owns.
    pub owned: usize,
    /// Live halo (ghost) vertices replicated onto this shard.
    pub halo: usize,
    /// Live local edges.
    pub local_edges: usize,
    /// The shard service's epoch (shards whose region an update missed
    /// stay on their old epoch — local no-op).
    pub epoch: u64,
    /// The shard service's counter block.
    pub counters: CounterBlock,
}

struct ShardState {
    service: Service,
    /// Local → global id map. Append-only (tombstoned locals keep their
    /// entry); swapped wholesale under the write lock so gather threads
    /// capture a consistent `Arc` at submit time.
    global_of: Arc<Vec<VertexId>>,
    /// Global → live local id map.
    local_of: HashMap<VertexId, VertexId>,
    /// Live local edge count (maintained on update for skew stats).
    local_edges: usize,
}

struct RouterState {
    shards: Vec<ShardState>,
    /// Global vertex → owning shard. Tombstoned vertices keep their
    /// owner (ids are never reused).
    owner: Arc<Vec<u32>>,
    /// The global source of truth; per-shard graphs are derived views.
    versioned: VersionedGraph,
    epoch: u64,
    /// Per-label owned-vertex counts per shard, for label-aware
    /// assignment of vertices added later.
    label_counts: HashMap<Label, Vec<u64>>,
    /// Live halo vertices across all shards (gauge).
    halo: u64,
    /// Local-edge skew across shards in percent (gauge).
    skew: u64,
    /// Per-router-standing-id: the per-shard service standing ids.
    standing: Vec<Vec<sm_service::StandingId>>,
    /// The registered standing queries themselves (index-aligned with
    /// `standing`) — what a durable snapshot persists.
    standing_queries: Vec<Graph>,
    /// The tier's one handle on its log (see the module docs): durable
    /// after `new_durable` / `open`, in-memory otherwise.
    journal: Journal,
}

/// A partitioned, scatter-gather sharded query service with the same
/// client contract as a single [`Service`].
///
/// ```
/// use sm_graph::builder::graph_from_edges;
/// use sm_service::{QueryRequest, ServiceOutcome};
/// use sm_shard::{ShardConfig, ShardedService};
///
/// let g = graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (1, 2), (0, 2), (2, 3)]);
/// let svc = ShardedService::new(g, ShardConfig::default());
/// let tri = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
/// let report = svc.submit(QueryRequest::count(tri)).wait();
/// assert_eq!(report.outcome, ServiceOutcome::Complete);
/// assert_eq!(report.matches, 6); // one triangle, six automorphic mappings
/// ```
pub struct ShardedService {
    state: RwLock<RouterState>,
    cfg: ShardConfig,
    shards: usize,
    /// The router's own tallies (fan-outs, stitched embeddings, its
    /// rejections and top-k exits), shared with the gather threads.
    tallies: Arc<AtomicCounterBlock>,
    /// The one feedback store every Auto-mode shard's planner shares: an
    /// observation on any shard re-ranks plans on all of them. `None`
    /// under fixed plan selection.
    planner_feedback: Option<Arc<sm_planner::FeedbackStore>>,
}

impl ShardedService {
    /// Partition `graph` and start one service per shard.
    pub fn new(graph: Graph, cfg: ShardConfig) -> Self {
        let shards = cfg.shards.max(1);
        let part = Partition::build(&graph, cfg.strategy, shards, cfg.halo_depth, cfg.seed);
        let halo = part.halo_vertices();
        let skew = part.skew_pct();
        let Partition { owner, pieces } = part;
        let mut label_counts: HashMap<Label, Vec<u64>> = HashMap::new();
        for (v, &o) in owner.iter().enumerate() {
            label_counts
                .entry(graph.label(v as VertexId))
                .or_insert_with(|| vec![0; shards])[o as usize] += 1;
        }
        // Shards never cap locally — the router applies the global cap
        // to the owned embeddings it keeps (see module docs).
        let mut svc_cfg = cfg.service.clone();
        svc_cfg.default_cap = None;
        // Auto-mode shards share one feedback store so every shard's
        // planner learns from every shard's observations.
        if svc_cfg.base_config.plan == sm_match::PlanSelection::Auto
            && svc_cfg.planner_feedback.is_none()
        {
            svc_cfg.planner_feedback = Some(Arc::new(sm_planner::FeedbackStore::new()));
        }
        let planner_feedback = svc_cfg.planner_feedback.clone();
        let shard_states = pieces
            .into_iter()
            .map(|p| ShardState {
                local_edges: p.graph.num_edges(),
                service: Service::new(p.graph, svc_cfg.clone()),
                global_of: Arc::new(p.global_of),
                local_of: p.local_of,
            })
            .collect();
        ShardedService {
            state: RwLock::new(RouterState {
                shards: shard_states,
                owner: Arc::new(owner),
                versioned: VersionedGraph::new(graph),
                epoch: 0,
                label_counts,
                halo,
                skew,
                standing: Vec::new(),
                standing_queries: Vec::new(),
                journal: Journal::default(),
            }),
            cfg,
            shards,
            tallies: Arc::default(),
            planner_feedback,
        }
    }

    /// Start a durable sharded tier over `graph` in a fresh directory:
    /// writes the epoch-0 snapshot of the global graph, then opens the
    /// WAL. Fails with `AlreadyExists` if `dir` already holds a snapshot.
    pub fn new_durable(
        graph: Graph,
        cfg: ShardConfig,
        dir: &Path,
        opts: DurabilityOptions,
    ) -> io::Result<Self> {
        let svc = ShardedService::new(graph, cfg);
        {
            let mut state = svc.state.write().expect("state poisoned");
            state.journal = Journal::create(dir, opts, &snapshot_data(&state))?;
        }
        Ok(svc)
    }

    /// Recover a durable sharded tier from `dir`: page in the newest
    /// valid snapshot of the global graph, repartition it across
    /// `cfg.shards`, re-register the snapshot's standing queries, replay
    /// the WAL tail through the normal cross-shard update path, and
    /// resume the router epoch. The shard layout need not match the
    /// crashed tier's — ownership attribution affects which shard
    /// reports an embedding, never the merged result.
    pub fn open(dir: &Path, cfg: ShardConfig, opts: DurabilityOptions) -> io::Result<Self> {
        let Recovery {
            snapshot: snap,
            feedback,
            pending,
        } = Journal::recover(dir, opts)?;
        let svc = ShardedService::new(snap.graph, cfg);
        // Restore learned plan costs into the shared store every shard's
        // planner already points at.
        if let (Some(fb), Some(bytes)) = (&svc.planner_feedback, feedback) {
            let _ = fb.merge_bytes(&bytes);
        }
        svc.state.write().expect("state poisoned").epoch = snap.epoch;
        // The tier holds its in-memory journal until the tail has
        // replayed: replay cannot re-append the records it is replaying.
        let journal = pending.replay(snap.standing, &mut Replay(&svc))?;
        svc.state.write().expect("state poisoned").journal = journal;
        Ok(svc)
    }

    /// Whether this tier persists updates (created via
    /// [`ShardedService::new_durable`] / [`ShardedService::open`]).
    pub fn is_durable(&self) -> bool {
        let state = self.state.read().expect("state poisoned");
        state.journal.is_durable()
    }

    /// What recovery did, when this tier came from
    /// [`ShardedService::open`].
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        let state = self.state.read().expect("state poisoned");
        state.journal.recovery_report()
    }

    /// Force a snapshot now (manual compaction) of the global graph and
    /// standing sets; rotates the WAL and prunes what the new snapshot
    /// supersedes. Returns `Ok(false)` on a non-durable tier.
    pub fn snapshot_now(&self) -> io::Result<bool> {
        let mut state = self.state.write().expect("state poisoned");
        if !state.journal.is_durable() {
            return Ok(false);
        }
        let data = snapshot_data(&state);
        state
            .journal
            .snapshot(&data, self.feedback_image().as_deref())
    }

    /// The cross-shard learned plan costs a snapshot persists alongside.
    fn feedback_image(&self) -> Option<Vec<u8>> {
        self.planner_feedback.as_ref().map(|fb| fb.to_bytes())
    }

    /// Flush the WAL to disk regardless of the fsync policy.
    pub fn sync_durable(&self) -> io::Result<()> {
        self.state.write().expect("state poisoned").journal.sync()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards
    }

    /// Router epoch: bumped once per effective cross-shard update.
    pub fn epoch(&self) -> u64 {
        self.state.read().expect("state poisoned").epoch
    }

    /// Whether the sharded tier can answer `query`. With more than one
    /// shard the query must be connected, have at least one edge, and
    /// have diameter at most the halo depth — otherwise shard-local
    /// enumeration would be incomplete and the submission is
    /// `Rejected`. A single shard holds the whole graph and supports
    /// anything the underlying service does.
    pub fn supports(&self, query: &Graph) -> bool {
        self.shards == 1
            || (query.num_edges() >= 1 && diameter(query).is_some_and(|d| d <= self.cfg.halo_depth))
    }

    /// Submit a query; returns immediately with the merged result
    /// stream. See the module docs for the scatter-gather contract.
    pub fn submit(&self, req: QueryRequest) -> ResultStream {
        let started = Instant::now();
        // SampleK needs a sequential exhaustive pass (see the single
        // service's rejection) and additionally cannot be merged from
        // per-shard reservoirs uniformly — reject before any fan-out.
        let unsupported_semantics = matches!(req.semantics.termination, Termination::SampleK(..));
        if unsupported_semantics || !self.supports(&req.query) {
            self.tallies.bump(Counter::QueriesRejected);
            return ResultStream::terminal(QueryReport::rejected(started.elapsed()));
        }
        // A TopK termination is exactly a global cap; the router's owned
        // count is exact across shards, so the k results are exact too.
        let cap = req.cap(self.cfg.service.default_cap);
        let deliver = req.deliver;
        // Count-only with no cap: no embedding ever needs to reach the
        // router. Each shard counts its *owned* embeddings locally (the
        // min-global-id ownership rule, pushed down as a count filter)
        // and the gather step just sums the per-shard reports — no
        // per-embedding streaming, no gather-side drain loop.
        if req.semantics.output == OutputMode::CountOnly
            && cap.is_none()
            && !deliver
            && req.count_filter.is_none()
        {
            return self.submit_count_pushdown(req, started);
        }
        // Read lock for the whole fan-out: every shard is submitted to
        // under the same router epoch (no torn scatter).
        let (streams, owner) = {
            let state = self.state.read().expect("state poisoned");
            let streams: Vec<(ResultStream, Arc<Vec<VertexId>>)> = state
                .shards
                .iter()
                .map(|shard| {
                    // Streaming: the router needs embeddings to attribute.
                    let sreq = shard_request(&req, None);
                    (shard.service.submit(sreq), shard.global_of.clone())
                })
                .collect();
            (streams, state.owner.clone())
        };
        self.tallies
            .add(Counter::QueriesFannedOut, streams.len() as u64);
        let (sink, stream) = result_channel(self.cfg.service.stream_capacity, CancelToken::new());
        let tallies = self.tallies.clone();
        let input = GatherInput {
            streams,
            owner,
            cap,
            topk: matches!(req.semantics.termination, Termination::TopK(_)),
            filter: req.count_filter,
            deliver,
            started,
        };
        thread::Builder::new()
            .name("sm-shard-gather".into())
            .spawn(move || gather(sink, input, &tallies))
            .expect("spawn gather thread");
        stream
    }

    /// The count-only pushdown path: fan out per-shard **count** requests
    /// carrying the min-global-id ownership rule as a count filter, then
    /// sum the per-shard owned counts. Exactly-once by the same argument
    /// as the streaming path — ownership is decided per embedding by data
    /// the shard already has (`global_of`, `owner`), just evaluated where
    /// the embedding is found instead of where it would be merged.
    fn submit_count_pushdown(&self, req: QueryRequest, started: Instant) -> ResultStream {
        let streams: Vec<ResultStream> = {
            let state = self.state.read().expect("state poisoned");
            let owner = state.owner.clone();
            state
                .shards
                .iter()
                .enumerate()
                .map(|(si, shard)| {
                    let global_of = shard.global_of.clone();
                    let owner = owner.clone();
                    let tallies = self.tallies.clone();
                    let filter: CountFilter = Arc::new(move |m: &[VertexId]| {
                        let vmin = m
                            .iter()
                            .map(|&l| global_of[l as usize])
                            .min()
                            .expect("nonempty embedding");
                        if owner[vmin as usize] as usize != si {
                            return false;
                        }
                        if m.iter()
                            .any(|&l| owner[global_of[l as usize] as usize] as usize != si)
                        {
                            tallies.bump(Counter::BoundaryEmbeddingsStitched);
                        }
                        true
                    });
                    shard.service.submit(shard_request(&req, Some(filter)))
                })
                .collect()
        };
        self.tallies
            .add(Counter::QueriesFannedOut, streams.len() as u64);
        let (sink, stream) = result_channel(1, CancelToken::new());
        thread::Builder::new()
            .name("sm-shard-count".into())
            .spawn(move || {
                let mut merged = MERGE_START;
                for s in streams {
                    if sink.client_cancelled() {
                        s.cancel();
                    }
                    merge_shard_report(&mut merged, &s.wait());
                }
                merged.elapsed = started.elapsed();
                sink.finish(merged);
            })
            .expect("spawn count-gather thread");
        stream
    }

    /// Submit and block for the terminal report (count-only helper).
    pub fn run_count(&self, query: Graph) -> QueryReport {
        self.submit(QueryRequest::count(query)).wait()
    }

    /// Apply an update batch atomically across every shard: commit once
    /// to the global versioned graph, bump the router epoch, and route
    /// one derived batch to each shard whose membership or edges it
    /// touches — all under the write lock, so no concurrent submission
    /// observes a torn (mixed-epoch) scatter.
    /// The journal logs the batch, iff effective, before any shard sees
    /// it; the per-shard derived batches are never logged.
    pub fn apply_update(&self, batch: &UpdateBatch) -> ShardedUpdateReport {
        let started = Instant::now();
        let mut guard = self.state.write().expect("state poisoned");
        let state = &mut *guard;
        let Some(committed) = state
            .journal
            .commit(&state.versioned, state.epoch + 1, batch)
        else {
            return ShardedUpdateReport {
                epoch: state.epoch,
                noop: true,
                elapsed: started.elapsed(),
                ..Default::default()
            };
        };
        let info = &committed.info;
        state.epoch += 1;
        let shards = state.shards.len();
        // Assign owners to new vertices (ids are dense from the old
        // vertex count, so plain pushes line up).
        let mut owner = (*state.owner).clone();
        for &v in &info.vertices_added {
            let label = committed.post.label(v);
            let o = match self.cfg.strategy {
                PartitionStrategy::Hash => hash_owner(v, self.cfg.seed, shards),
                PartitionStrategy::LabelAware => {
                    // Least-loaded shard for this label, lowest index on
                    // ties — deterministic.
                    let counts = state
                        .label_counts
                        .entry(label)
                        .or_insert_with(|| vec![0; shards]);
                    counts
                        .iter()
                        .enumerate()
                        .min_by_key(|&(i, &c)| (c, i))
                        .map(|(i, _)| i)
                        .expect("at least one shard") as u32
                }
            };
            if let Some(counts) = state.label_counts.get_mut(&label) {
                counts[o as usize] += 1;
            }
            debug_assert_eq!(owner.len(), v as usize);
            owner.push(o);
        }
        for &v in &info.vertices_deleted {
            if let Some(counts) = state.label_counts.get_mut(&committed.post.label(v)) {
                let c = &mut counts[owner[v as usize] as usize];
                *c = c.saturating_sub(1);
            }
        }
        // The post graph, with tombstones as isolated labeled vertices —
        // the same shape every shard's local graph mirrors.
        let (post_g, _) = committed.post.materialize();
        let mut owned_lists: Vec<Vec<VertexId>> = vec![Vec::new(); shards];
        for (v, &o) in owner.iter().enumerate() {
            owned_lists[o as usize].push(v as VertexId);
        }
        let mut plans_retained = 0;
        let mut plans_evicted = 0;
        let mut incremental_added = 0;
        let mut incremental_removed = 0;
        let mut shards_touched = 0;
        let mut halo = 0u64;
        let mut edge_loads = vec![0u64; shards];
        for (si, shard) in state.shards.iter_mut().enumerate() {
            let members = khop_ball(&post_g, &owned_lists[si], self.cfg.halo_depth);
            let mut member_set = vec![false; post_g.num_vertices()];
            for &m in &members {
                member_set[m as usize] = true;
            }
            // Joined vertices get fresh local ids in sorted global order
            // (matching the service's dense assignment); departed ones
            // are tombstoned locally.
            let joined: Vec<VertexId> = members
                .iter()
                .copied()
                .filter(|g| !shard.local_of.contains_key(g))
                .collect();
            let mut left: Vec<VertexId> = shard
                .local_of
                .keys()
                .copied()
                .filter(|&g| !member_set[g as usize])
                .collect();
            left.sort_unstable();
            let mut lb = UpdateBatch::new();
            let mut new_global_of = (*shard.global_of).clone();
            for &g in &joined {
                lb = lb.add_vertex(post_g.label(g));
                shard.local_of.insert(g, new_global_of.len() as VertexId);
                new_global_of.push(g);
            }
            for &g in &left {
                let l = shard
                    .local_of
                    .remove(&g)
                    .expect("departed vertex was local");
                lb = lb.delete_vertex(l);
            }
            // Route the global ops through the updated local map; ops
            // naming vertices this shard doesn't hold drop out, and
            // duplicates are normalized away by the shard's commit.
            let gops = UpdateBatch {
                add_vertices: Vec::new(),
                delete_vertices: info.vertices_deleted.clone(),
                add_edges: info.edges_inserted.clone(),
                delete_edges: info.edges_deleted.clone(),
            };
            let mapped = gops.map_vertices(|g| shard.local_of.get(&g).copied());
            lb.delete_vertices.extend(mapped.delete_vertices);
            lb.add_edges.extend(mapped.add_edges);
            lb.delete_edges.extend(mapped.delete_edges);
            // Pre-existing edges incident to joined vertices enter with
            // them.
            for &g in &joined {
                let lg = shard.local_of[&g];
                for &w in post_g.neighbors(g) {
                    if let Some(&lw) = shard.local_of.get(&w) {
                        lb.add_edges.push((lg, lw));
                    }
                }
            }
            let rep = shard.service.apply_update(&lb);
            if !rep.noop {
                shards_touched += 1;
            }
            plans_retained += rep.plans_retained;
            plans_evicted += rep.plans_evicted;
            incremental_added += rep.incremental_added;
            incremental_removed += rep.incremental_removed;
            shard.global_of = Arc::new(new_global_of);
            // Stats over live members.
            halo += members
                .iter()
                .filter(|&&g| owner[g as usize] as usize != si)
                .count() as u64;
            let local_edges: usize = members
                .iter()
                .map(|&m| {
                    post_g
                        .neighbors(m)
                        .iter()
                        .filter(|&&w| member_set[w as usize])
                        .count()
                })
                .sum::<usize>()
                / 2;
            shard.local_edges = local_edges;
            edge_loads[si] = local_edges as u64;
        }
        state.owner = Arc::new(owner);
        state.halo = halo;
        state.skew = skew_pct(edge_loads.into_iter());
        // Threshold compaction, still under the write lock so the
        // snapshot captures exactly this epoch.
        if state.journal.snapshot_due() {
            let data = snapshot_data(state);
            state
                .journal
                .compact(&data, self.feedback_image().as_deref());
        }
        ShardedUpdateReport {
            epoch: state.epoch,
            noop: false,
            edges_inserted: info.edges_inserted.len(),
            edges_deleted: info.edges_deleted.len(),
            vertices_added: info.vertices_added.len(),
            vertices_deleted: info.vertices_deleted.len(),
            plans_retained,
            plans_evicted,
            incremental_added,
            incremental_removed,
            shards_touched,
            elapsed: started.elapsed(),
        }
    }

    /// Pin a consistent snapshot of the current global graph version.
    pub fn snapshot(&self) -> Snapshot {
        self.state
            .read()
            .expect("state poisoned")
            .versioned
            .snapshot()
    }

    /// Register a standing query on every shard; its merged embedding
    /// set stays current across [`ShardedService::apply_update`] calls.
    /// Returns `None` for queries the tier does not support. A durable
    /// tier logs one registration record at the router, never per shard.
    pub fn register_standing(&self, query: &Graph) -> Option<ShardStandingId> {
        if !self.supports(query) {
            return None;
        }
        // Write lock: the per-shard initial enumerations must all see
        // the same epoch.
        let mut state = self.state.write().expect("state poisoned");
        let ids: Option<Vec<sm_service::StandingId>> = state
            .shards
            .iter()
            .map(|s| s.service.register_standing(query))
            .collect();
        // Support depends only on the query, so the shards agree.
        let ids = ids?;
        state.standing.push(ids);
        state.standing_queries.push(query.clone());
        let index = state.standing.len() - 1;
        state.journal.log_standing(index as u64, query);
        Some(ShardStandingId(index))
    }

    /// [`ShardedService::register_standing`] with an explicit semantics
    /// check, mirroring [`Service::register_standing_with`]: standing
    /// queries are isomorphic, materializing and run-to-completion only,
    /// and anything else is a typed
    /// [`StandingError::UnsupportedSemantics`].
    pub fn register_standing_with(
        &self,
        query: &Graph,
        semantics: MatchSemantics,
    ) -> Result<ShardStandingId, StandingError> {
        if semantics != MatchSemantics::default() {
            return Err(StandingError::UnsupportedSemantics);
        }
        self.register_standing(query)
            .ok_or(StandingError::UnsupportedQuery)
    }

    /// Current merged embedding set of a standing query, in global
    /// vertex ids, sorted — each embedding exactly once (minimum-id
    /// ownership, same rule as the query path).
    pub fn standing_matches(&self, id: ShardStandingId) -> Vec<Vec<VertexId>> {
        let state = self.state.read().expect("state poisoned");
        merged_standing(&state, id.0)
    }

    /// Current merged embedding count of a standing query.
    pub fn standing_count(&self, id: ShardStandingId) -> usize {
        self.standing_matches(id).len()
    }

    /// Merged counters: every shard service's block plus the router's
    /// own (`queries_fanned_out`, `boundary_embeddings_stitched`, the
    /// `halo_vertices_replicated` and `shard_skew` gauges, router-level
    /// rejections and top-k exits, the journal's WAL / recovery totals).
    pub fn counters(&self) -> CounterBlock {
        let state = self.state.read().expect("state poisoned");
        let mut b = self.router_counters(&state);
        for s in &state.shards {
            b.merge(&s.service.counters());
        }
        b
    }

    /// Everything the router itself counts — tallies, partition gauges,
    /// the journal's WAL / recovery totals: what `counters()` and
    /// `metrics_report()` add to the shards' blocks and `Drop` flushes.
    fn router_counters(&self, state: &RouterState) -> CounterBlock {
        let mut b = self.tallies.snapshot();
        b.record_max(Counter::HaloVerticesReplicated, state.halo);
        b.record_max(Counter::ShardSkew, state.skew);
        fold_journal(&state.journal, &mut b);
        b
    }

    /// A coherent telemetry snapshot of the tier: every shard's
    /// [`sm_service::Service::metrics_report`] taken under one read
    /// lock (no torn epoch), merged into a single cross-shard report
    /// with the router's shard-path counters and gauges folded in,
    /// plus the per-shard reports for skew diagnosis. Cheap enough to
    /// poll every second — this is what `experiments top` renders live.
    pub fn metrics_report(&self) -> ShardedMetricsReport {
        let state = self.state.read().expect("state poisoned");
        let per_shard: Vec<MetricsReport> = state
            .shards
            .iter()
            .map(|s| s.service.metrics_report())
            .collect();
        let mut merged = per_shard[0].clone(); // at least one shard
        for r in &per_shard[1..] {
            merged.merge_from(r);
        }
        merged.counters.merge(&self.router_counters(&state));
        ShardedMetricsReport { merged, per_shard }
    }

    /// Per-shard attribution: ownership, replication, load, and each
    /// shard service's counters.
    pub fn shard_details(&self) -> Vec<ShardDetail> {
        let state = self.state.read().expect("state poisoned");
        state
            .shards
            .iter()
            .enumerate()
            .map(|(si, s)| {
                let owned = s
                    .local_of
                    .keys()
                    .filter(|&&g| state.owner[g as usize] as usize == si)
                    .count();
                ShardDetail {
                    shard: si,
                    owned,
                    halo: s.local_of.len() - owned,
                    local_edges: s.local_edges,
                    epoch: s.service.epoch(),
                    counters: s.service.counters(),
                }
            })
            .collect()
    }
}

impl Drop for ShardedService {
    fn drop(&mut self) {
        // Shard services flush their own counters; the router adds only
        // its own block.
        if self.cfg.service.trace.is_enabled() {
            let state = self.state.read().expect("state poisoned");
            let trace = &self.cfg.service.trace;
            trace.flush_counters(0, &self.router_counters(&state));
        }
    }
}

/// A freshly partitioned tier being brought from its snapshot to the
/// last logged state through its own public update path.
struct Replay<'a>(&'a ShardedService);

impl ReplayTarget for Replay<'_> {
    /// Shard-local sets are derived state: the stored merged set is
    /// dropped and every shard re-enumerates against its own piece.
    fn restore_standing(&mut self, s: StandingSnapshot) -> bool {
        self.replay_standing(&s.query)
    }

    fn replay_batch(&mut self, batch: &UpdateBatch) -> Option<u64> {
        let r = self.0.apply_update(batch);
        (!r.noop).then_some(r.epoch)
    }

    fn replay_standing(&mut self, query: &Graph) -> bool {
        self.0.register_standing(query).is_some()
    }
}

/// Merged embedding set of standing query `idx` in global vertex ids,
/// sorted, each embedding exactly once (minimum-id ownership) — callable
/// under either lock mode.
fn merged_standing(state: &RouterState, idx: usize) -> Vec<Vec<VertexId>> {
    let ids = &state.standing[idx];
    let mut out = Vec::new();
    for (si, shard) in state.shards.iter().enumerate() {
        for m in shard.service.standing_matches(ids[si]) {
            let gm: Vec<VertexId> = m.iter().map(|&l| shard.global_of[l as usize]).collect();
            let vmin = *gm.iter().min().expect("nonempty embedding");
            if state.owner[vmin as usize] as usize == si {
                out.push(gm);
            }
        }
    }
    out.sort_unstable();
    out
}

/// The tier's durable state: the *global* graph (from the router's
/// versioned source of truth — per-shard graphs are derived and never
/// persisted) plus every standing query with its merged global
/// embedding set. The epoch is the router epoch, not the versioned
/// graph's internal one — the two diverge after a recovery resets the
/// overlay.
fn snapshot_data(state: &RouterState) -> SnapshotData {
    let (_, graph, nlf) = state.versioned.export_head();
    let label_pairs = sm_graph::label_index::LabelPairEdgeCounts::build(&graph);
    SnapshotData {
        epoch: state.epoch,
        graph,
        nlf,
        label_pairs,
        standing: state
            .standing_queries
            .iter()
            .enumerate()
            .map(|(i, q)| StandingSnapshot {
                query: q.clone(),
                matches: merged_standing(state, i),
            })
            .collect(),
    }
}

/// The request one shard runs for client request `req`: streaming
/// everything it finds, or — given the ownership `count_filter` —
/// counting what it owns. Always uncapped (the router owns the cap) and
/// run to completion; injectivity is the shard's to enforce (a halo ball
/// covers every homomorphic image too — its diameter never exceeds the
/// query's), output and termination are the router's.
fn shard_request(req: &QueryRequest, count_filter: Option<CountFilter>) -> QueryRequest {
    let deliver = count_filter.is_none();
    QueryRequest {
        query: req.query.clone(),
        deadline: req.deadline,
        max_matches: None,
        deliver,
        semantics: MatchSemantics {
            injectivity: req.semantics.injectivity,
            output: if deliver {
                OutputMode::Embeddings
            } else {
                OutputMode::CountOnly
            },
            termination: Termination::All,
        },
        count_filter,
    }
}

/// What [`merge_shard_report`] folds per-shard reports into.
const MERGE_START: QueryReport = QueryReport {
    outcome: ServiceOutcome::Complete,
    matches: 0,
    recursions: 0,
    cache_hit: true,
    plan_build_ns: 0,
    elapsed: Duration::ZERO,
};

/// Fold one shard's terminal report into the merged one: the worst
/// outcome, summed counts, a cache hit only if every shard hit, the
/// slowest compile.
fn merge_shard_report(merged: &mut QueryReport, shard: &QueryReport) {
    merged.outcome = merged.outcome.worst(shard.outcome);
    merged.matches += shard.matches;
    merged.recursions += shard.recursions;
    merged.cache_hit &= shard.cache_hit;
    merged.plan_build_ns = merged.plan_build_ns.max(shard.plan_build_ns);
}

struct GatherInput {
    streams: Vec<(ResultStream, Arc<Vec<VertexId>>)>,
    owner: Arc<Vec<u32>>,
    cap: Option<u64>,
    /// Whether the cap came from a `TopK` termination — a cap hit is
    /// then a successful top-k exit, not an overflow event.
    topk: bool,
    /// Client count filter, applied to owned embeddings (global ids)
    /// before they are counted or delivered.
    filter: Option<CountFilter>,
    deliver: bool,
    started: Instant,
}

/// Drain the per-shard streams into the client sink: remap, attribute,
/// cap, merge outcomes. Runs on a detached thread per query; terminates
/// as soon as every shard stream is terminal (shard services terminate
/// stranded streams on drop, so this never outlives them blocked).
fn gather(sink: ResultSink, input: GatherInput, tallies: &AtomicCounterBlock) {
    let (streams, owner, cap, filter) = (input.streams, input.owner, input.cap, input.filter);
    // A shard that refused admission produced a born-terminal stream —
    // visible now, before any draining. Mirror single-service rejection:
    // nothing ran, nothing is counted.
    if streams.iter().any(|(s, _)| {
        s.report()
            .is_some_and(|r| r.outcome == ServiceOutcome::Rejected)
    }) {
        for (s, _) in &streams {
            s.cancel();
        }
        drop(streams);
        sink.finish(QueryReport::rejected(input.started.elapsed()));
        return;
    }
    let mut merged = MERGE_START;
    let mut delivered = 0u64;
    let mut stitched_here = 0u64;
    let mut cap_hit = false;
    let mut client_gone = false;
    // Owned rows of one shard block in global ids, reused across blocks.
    let mut out = EmbeddingBlock::default();
    for (si, (mut stream, global_of)) in streams.into_iter().enumerate() {
        while !(cap_hit || client_gone) {
            let Some(block) = stream.next_block() else {
                break;
            };
            out.clear();
            for local in block.iter() {
                out.push_row(local.iter().map(|&l| global_of[l as usize]));
                let gemb = out.row(out.rows() - 1);
                let vmin = *gemb.iter().min().expect("nonempty embedding");
                // Another shard owns (and will report) it, or it is owned
                // but the client's count filter said no.
                if owner[vmin as usize] as usize != si || filter.as_ref().is_some_and(|f| !f(gemb))
                {
                    out.truncate(out.rows() - 1);
                    continue;
                }
                if gemb.iter().any(|&v| owner[v as usize] as usize != si) {
                    stitched_here += 1; // crossed a shard boundary via the halo
                }
                delivered += 1;
                if cap.is_some_and(|c| delivered >= c) {
                    cap_hit = true;
                    break; // the rest of the block is beyond the cap
                }
            }
            client_gone = sink.client_cancelled()
                || (input.deliver && !out.is_empty() && !sink.push_block(&out));
        }
        if cap_hit || client_gone {
            stream.cancel();
        }
        merge_shard_report(&mut merged, &stream.wait());
    }
    // Router-level overrides: an exact global cap beats the Cancelled
    // outcomes of the shards it cut short; a client abort beats both.
    if cap_hit {
        merged.outcome = ServiceOutcome::CapHit;
        if input.topk {
            tallies.bump(Counter::TopkEarlyExits);
        }
    }
    if client_gone {
        merged.outcome = ServiceOutcome::Cancelled;
    }
    tallies.add(Counter::BoundaryEmbeddingsStitched, stitched_here);
    // Shards count what they enumerate; the client is owed what it owns.
    merged.matches = delivered;
    merged.elapsed = input.started.elapsed();
    sink.finish(merged);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_graph::builder::graph_from_edges;

    fn two_triangles() -> Graph {
        // Two disjoint labeled triangles.
        graph_from_edges(
            &[0, 0, 0, 0, 0, 0],
            &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        )
    }

    fn triangle() -> Graph {
        graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn counts_match_across_shard_counts() {
        let expected = Service::new(two_triangles(), ServiceConfig::default())
            .run_count(triangle())
            .matches;
        for shards in [1, 2, 3] {
            let cfg = ShardConfig {
                shards,
                ..ShardConfig::default()
            };
            let svc = ShardedService::new(two_triangles(), cfg);
            let rep = svc.run_count(triangle());
            assert_eq!(rep.outcome, ServiceOutcome::Complete);
            assert_eq!(rep.matches, expected, "shards = {shards}");
        }
    }

    #[test]
    fn unsupported_queries_are_rejected() {
        let svc = ShardedService::new(two_triangles(), ShardConfig::default());
        // Disconnected.
        let disconnected = graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (2, 3)]);
        assert!(!svc.supports(&disconnected));
        let rep = svc.submit(QueryRequest::count(disconnected)).wait();
        assert_eq!(rep.outcome, ServiceOutcome::Rejected);
        // Single vertex (no edges).
        let single = graph_from_edges(&[0], &[]);
        assert!(!svc.supports(&single));
        // Diameter beyond the halo.
        let path = graph_from_edges(&[0; 6], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        assert!(!svc.supports(&path), "diameter 5 > halo 3");
        assert!(svc.counters().get(Counter::QueriesRejected) >= 1);
    }

    #[test]
    fn exact_cap_across_shards() {
        let svc = ShardedService::new(
            two_triangles(),
            ShardConfig {
                shards: 2,
                ..ShardConfig::default()
            },
        );
        let rep = svc
            .submit(QueryRequest::count(triangle()).with_cap(5))
            .wait();
        assert_eq!(rep.outcome, ServiceOutcome::CapHit);
        assert_eq!(rep.matches, 5, "cap is exact across shards");
    }

    #[test]
    fn fan_out_counter_counts_shards() {
        let svc = ShardedService::new(
            two_triangles(),
            ShardConfig {
                shards: 3,
                ..ShardConfig::default()
            },
        );
        svc.run_count(triangle());
        svc.run_count(triangle());
        assert_eq!(svc.counters().get(Counter::QueriesFannedOut), 6);
    }

    #[test]
    fn streaming_delivers_global_ids() {
        let g = two_triangles();
        let svc = ShardedService::new(
            g,
            ShardConfig {
                shards: 2,
                ..ShardConfig::default()
            },
        );
        let mut embs: Vec<Vec<VertexId>> =
            svc.submit(QueryRequest::streaming(triangle())).collect();
        embs.sort_unstable();
        assert_eq!(embs.len(), 12);
        assert!(embs.iter().all(|e| e.len() == 3));
        // First triangle's automorphisms land on {0,1,2}, second on {3,4,5}.
        let mut sets: Vec<Vec<VertexId>> = embs
            .iter()
            .map(|e| {
                let mut s = e.clone();
                s.sort_unstable();
                s
            })
            .collect();
        sets.dedup();
        assert_eq!(sets, vec![vec![0, 1, 2], vec![3, 4, 5]]);
    }

    #[test]
    fn shard_details_cover_ownership() {
        let g = two_triangles();
        let n = g.num_vertices();
        let svc = ShardedService::new(
            g,
            ShardConfig {
                shards: 2,
                strategy: PartitionStrategy::LabelAware,
                ..ShardConfig::default()
            },
        );
        let details = svc.shard_details();
        assert_eq!(details.len(), 2);
        assert_eq!(details.iter().map(|d| d.owned).sum::<usize>(), n);
    }
}
