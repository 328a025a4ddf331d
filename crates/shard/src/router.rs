//! The scatter-gather router: one [`sm_service::Service`] per shard
//! behind a single service-shaped front door.
//!
//! # Query path
//!
//! **One ownership rule.** Shard `s` owns embedding `f` iff `s` owns
//! `f(u*)`, where `u*` = [`sm_match::anchor`]`(q)` depends on the query
//! alone. Each shard's service applies the rule while it compiles
//! (`C(u*) ∩ Owned(s)`): the owned mask is installed with the shard's
//! graph, in one slot ([`Service::new_shard`], [`Service::swap_shard`]),
//! so every reply a shard produces is already exactly its owned share:
//! the halo holds every such embedding locally (see
//! [`crate::partition`]), and `f(u*)` has one owner, so no other shard
//! reports it.
//!
//! [`ShardedService::submit`] resolves the client's request through the
//! service's own front ([`QueryRequest::resolve`]) and sends it to every
//! shard as it is — output mode, injectivity — with the resolved cap (a
//! `TopK` folded into it). No thread is started: the client's
//! [`ResultStream`] is [pulled](ResultStream::pulled) from the
//! per-shard streams on the client's thread, a block at a time,
//! remapping local vertex ids to global ids, summing the shards' counts
//! and cutting — cancelling every shard still running — at the global
//! cap; a shard not yet drained parks on its own stream's backpressure,
//! and a client cancel or drop reaches the shard streams directly.
//! Clients see the normal service contract: bounded
//! buffering, drop-to-cancel, one terminal [`QueryReport`] whose count
//! is `min(Σ shard matches, cap)`, `CapHit` iff the sum reaches the cap.
//! Deadlines stay per-shard: any shard's deadline marks the merged
//! counts partial (`Deadline` outcome), which preserves
//! deadline-on-empty semantics.
//!
//! # Update path
//!
//! The tier's global graph, its versioned twin, the standing queries and
//! the journal are one [`UpdateState`], the type a single [`Service`]
//! holds; the router keeps only the shards, the owner vector and the
//! per-label owner counts. [`ShardedService::apply_update`] is the
//! state's commit, whose install step gives each new vertex an owner and
//! re-cuts every shard from the post graph with the code
//! [`Partition::build`] runs ([`owned_lists`], [`khop_ball`],
//! [`ShardPiece::induced`]), so a shard's graph is always the piece a
//! fresh partition of the current graph would give it. A shard whose
//! members are unchanged and that holds no inserted or deleted edge is
//! skipped and keeps its graph, epoch and cached plans; every other shard
//! gets its new piece and the matching owned mask together through
//! [`Service::swap_shard`].
//!
//! Standing queries live in the state, over the global graph, so a
//! standing set is one service's, with no halo replica to filter.
//!
//! # Durability
//!
//! The state's journal is the tier's one commit point: one WAL record per
//! cross-shard batch or registration, never one per shard (shard services
//! keep in-memory journals — their state is derived). A snapshot stores
//! the global graph. [`ShardedService::open`] recovers the state
//! ([`UpdateState::open`]: snapshot page-in plus tail replay, as a single
//! service's recovery) and then partitions the recovered head once, under
//! whatever shard layout it is opened with, so every shard starts at
//! epoch 0.
//!
//! **Epoch coherence**: submissions take the router state's read lock
//! for the whole fan-out; `apply_update` holds the write lock, then the
//! update state's lock (the one lock order, see [`sm_service::update`]),
//! while it installs every re-cut piece. A query therefore sees all shards
//! pre-update or all shards post-update, never a torn mix; queries
//! already in flight keep their admission-time graph via `Arc`, exactly
//! like a single service.

use crate::partition::{
    hash_owner, owned_lists, owned_mask, skew_pct, Partition, PartitionStrategy, ShardPiece,
};
use sm_delta::{CommitInfo, Snapshot, UpdateBatch};
use sm_durable::{DurabilityOptions, RecoveryReport};
use sm_graph::traversal::{diameter, khop_ball};
use sm_graph::{Graph, Label, VertexId};
use sm_match::MatchSemantics;
use sm_planner::FeedbackStore;
use sm_runtime::metrics::prom;
use sm_runtime::trace::{AtomicCounterBlock, Counter, CounterBlock};
use sm_service::{
    EmbeddingBlock, GraphData, MetricsReport, PullSource, QueryReport, QueryRequest, Resolved,
    ResultStream, Service, ServiceConfig, ServiceOutcome, StandingError, StandingId, UpdateState,
};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
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
    /// Per-shard service configuration: workers, admission bounds,
    /// deadlines, pipeline and trace apply to each shard's own service.
    /// A shard replies with its owned share only, so the router resolves
    /// each request's cap (`default_cap` included) once and hands it to
    /// every shard; `stream_capacity` also bounds the merged stream.
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
    /// Standing-query embeddings added incrementally (global: the
    /// router maintains each standing set once, so this equals a single
    /// service's count).
    pub incremental_added: u64,
    /// Standing-query embeddings retracted (global).
    pub incremental_removed: u64,
    /// Shards re-cut from the post graph (the rest kept their graph,
    /// epoch and cached plans).
    pub shards_touched: usize,
    /// Wall-clock time of the whole cross-shard apply.
    pub elapsed: Duration,
}

/// Telemetry snapshot of the whole sharded tier (see
/// [`ShardedService::metrics_report`]).
///
/// `merged` is exactly what a single-service report would look like if
/// one service had done all the work: shard histograms merged,
/// counters combined under the registry's
/// sum/gauge rules with the router's own shard-path counters
/// (`queries_fanned_out`, `boundary_embeddings_stitched`, router-level
/// rejections, `topk_early_exits`, `updates_applied`, WAL / recovery totals) and gauges
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
    /// Vertices this shard owns (tombstones included: they stay as
    /// isolated vertices with their owner).
    pub owned: usize,
    /// Halo (ghost) vertices replicated onto this shard.
    pub halo: usize,
    /// Local edges.
    pub local_edges: usize,
    /// The shard service's epoch (shards whose region an update missed
    /// stay on their old epoch — local no-op).
    pub epoch: u64,
    /// The shard service's counter block.
    pub counters: CounterBlock,
}

struct ShardState {
    service: Service,
    /// Local → global id map of the installed piece, ascending; swapped
    /// wholesale under the write lock so a merged stream captures a
    /// consistent `Arc` at submit time.
    global_of: Arc<Vec<VertexId>>,
    /// Owned (non-halo) vertices of the installed piece.
    owned: usize,
    /// Edges of the installed piece.
    local_edges: usize,
}

impl ShardState {
    /// Start shard `si`'s service over `piece`; under Auto its planner
    /// learns into `feedback`, the tier's one store.
    fn start(
        piece: ShardPiece,
        owner: &[u32],
        si: usize,
        cfg: &ServiceConfig,
        feedback: Option<&Arc<FeedbackStore>>,
    ) -> ShardState {
        let mask = owned_mask(&piece.global_of, owner, si);
        ShardState {
            local_edges: piece.graph.num_edges(),
            owned: piece.owned,
            global_of: Arc::new(piece.global_of),
            service: Service::new_shard(piece.graph, mask, cfg.clone(), feedback.cloned()),
        }
    }

    /// Replace shard `si`'s graph with `piece`, a re-cut under the same
    /// owner vector. The caller holds the router's write lock.
    fn install(&mut self, piece: ShardPiece, owner: &[u32], si: usize) {
        self.local_edges = piece.graph.num_edges();
        self.owned = piece.owned;
        let mask = owned_mask(&piece.global_of, owner, si);
        self.service.swap_shard(piece.graph, mask);
        self.global_of = Arc::new(piece.global_of);
    }
}

/// What the router derives from the global graph: the shards and the
/// ownership they are cut by.
struct RouterState {
    shards: Vec<ShardState>,
    /// Global vertex → owning shard. Tombstoned vertices keep their
    /// owner (ids are never reused).
    owner: Arc<Vec<u32>>,
    /// Per-label owned-vertex counts per shard, for label-aware
    /// assignment of vertices added later.
    label_counts: HashMap<Label, Vec<u64>>,
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
    /// The global graph, its versioned twin, the standing queries and the
    /// journal. Its feedback store is the one every Auto-mode shard's
    /// planner shares: an observation on any shard re-ranks plans on all
    /// of them.
    update: UpdateState,
    cfg: ShardConfig,
    shards: usize,
    /// The router's own tallies (fan-outs, stitched embeddings, its
    /// rejections and top-k exits), shared with the merged streams.
    tallies: Arc<AtomicCounterBlock>,
}

impl ShardedService {
    /// Partition `graph` and start one service per shard.
    pub fn new(graph: Graph, cfg: ShardConfig) -> Self {
        ShardedService::start(UpdateState::new(graph, &cfg.service), cfg)
    }

    /// Partition `update`'s head and start one service per shard.
    fn start(update: UpdateState, cfg: ShardConfig) -> Self {
        let shards = cfg.shards.max(1);
        let head = update.head();
        let Partition { owner, pieces } =
            Partition::build(&head.graph, cfg.strategy, shards, cfg.halo_depth, cfg.seed);
        let mut label_counts: HashMap<Label, Vec<u64>> = HashMap::new();
        for (v, &o) in owner.iter().enumerate() {
            label_counts
                .entry(head.graph.label(v as VertexId))
                .or_insert_with(|| vec![0; shards])[o as usize] += 1;
        }
        let shard_states = pieces
            .into_iter()
            .enumerate()
            .map(|(si, p)| ShardState::start(p, &owner, si, &cfg.service, update.feedback()))
            .collect();
        ShardedService {
            state: RwLock::new(RouterState {
                shards: shard_states,
                owner: Arc::new(owner),
                label_counts,
            }),
            update,
            cfg,
            shards,
            tallies: Arc::default(),
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
        let update = UpdateState::create(graph, &cfg.service, dir, opts)?;
        Ok(ShardedService::start(update, cfg))
    }

    /// Recover a durable sharded tier from `dir`: recover the global
    /// state ([`UpdateState::open`]: the newest valid snapshot, its
    /// standing sets, the WAL tail replayed, the router epoch resumed),
    /// then partition the recovered graph once across `cfg.shards`. The
    /// shard layout need not match the crashed tier's — ownership
    /// attribution affects which shard reports an embedding, never the
    /// merged result.
    pub fn open(dir: &Path, cfg: ShardConfig, opts: DurabilityOptions) -> io::Result<Self> {
        let update = UpdateState::open(dir, &cfg.service, opts)?;
        Ok(ShardedService::start(update, cfg))
    }

    /// Whether this tier persists updates (created via
    /// [`ShardedService::new_durable`] / [`ShardedService::open`]).
    pub fn is_durable(&self) -> bool {
        self.update.is_durable()
    }

    /// What recovery did, when this tier came from
    /// [`ShardedService::open`].
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.update.recovery_report()
    }

    /// Force a snapshot now (manual compaction) of the global graph and
    /// standing sets; rotates the WAL and prunes what the new snapshot
    /// supersedes. Returns `Ok(false)` on a non-durable tier.
    pub fn snapshot_now(&self) -> io::Result<bool> {
        self.update.snapshot_now()
    }

    /// Flush the WAL to disk regardless of the fsync policy.
    pub fn sync_durable(&self) -> io::Result<()> {
        self.update.sync()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards
    }

    /// Router epoch: bumped once per effective cross-shard update.
    pub fn epoch(&self) -> u64 {
        self.update.epoch()
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
        // Rejected before any fan-out: a SampleK (the front refuses it)
        // or a query the halo cannot answer.
        let front = req.resolve(self.cfg.service.default_cap);
        let Some(front) = front.filter(|_| self.supports(&req.query)) else {
            self.tallies.bump(Counter::QueriesRejected);
            return ResultStream::terminal(QueryReport::rejected(started.elapsed()));
        };
        // Every shard's reply is exactly its owned share, so each gets the
        // client's request with the resolved cap: no shard needs more
        // than the whole tier may return. The router alone tallies the
        // top-k exit.
        let shard_req = QueryRequest {
            max_matches: front.cap,
            semantics: front.semantics,
            ..req
        };
        // Read lock for the whole fan-out: every shard is submitted to
        // under the same router epoch (no torn scatter).
        let (replies, owner) = {
            let state = self.state.read().expect("state poisoned");
            let replies: VecDeque<_> = (state.shards.iter().enumerate())
                .map(|(si, s)| (si, s.service.submit(shard_req.clone()), s.global_of.clone()))
                .collect();
            (replies, state.owner.clone())
        };
        self.tallies
            .add(Counter::QueriesFannedOut, replies.len() as u64);
        // A shard that refused admission replied with a born-terminal
        // stream: as on a single service, nothing runs, nothing counts.
        let rejected = |r: QueryReport| r.outcome == ServiceOutcome::Rejected;
        if replies
            .iter()
            .any(|(_, s, _)| s.report().is_some_and(rejected))
        {
            replies.iter().for_each(|(_, s, _)| s.cancel());
            return ResultStream::terminal(QueryReport::rejected(started.elapsed()));
        }
        ResultStream::pulled(Gather {
            replies,
            owner,
            front,
            started,
            tallies: self.tallies.clone(),
            merged: QueryReport {
                cache_hit: true,
                ..QueryReport::default()
            },
            delivered: 0,
            cap_hit: false,
            cancelled: AtomicBool::new(false),
        })
    }

    /// Submit and block for the terminal report (count-only helper).
    pub fn run_count(&self, query: Graph) -> QueryReport {
        self.submit(QueryRequest::count(query)).wait()
    }

    /// Apply an update batch atomically across every shard: commit it
    /// once to the global state and re-cut each shard whose members or
    /// edges the batch changes from the post graph — all under the write
    /// lock, so no concurrent submission observes a torn (mixed-epoch)
    /// scatter. The journal logs the batch, iff effective, before any
    /// shard sees it; the shards' pieces are derived and never logged.
    pub fn apply_update(&self, batch: &UpdateBatch) -> ShardedUpdateReport {
        let started = Instant::now();
        let mut state = self.state.write().expect("state poisoned");
        let (report, shards_touched) = self
            .update
            .commit(batch, |post, info| self.recut(&mut state, post, info));
        ShardedUpdateReport {
            epoch: report.epoch,
            noop: report.noop,
            edges_inserted: report.edges_inserted,
            edges_deleted: report.edges_deleted,
            vertices_added: report.vertices_added,
            vertices_deleted: report.vertices_deleted,
            incremental_added: report.incremental_added,
            incremental_removed: report.incremental_removed,
            shards_touched: shards_touched.unwrap_or(0),
            elapsed: started.elapsed(),
        }
    }

    /// The install step of a commit: give each new vertex an owner and
    /// re-cut every shard the commit reaches from `post`. Returns the
    /// shards re-cut.
    fn recut(&self, state: &mut RouterState, post: &GraphData, info: &CommitInfo) -> usize {
        let shards = state.shards.len();
        // Assign owners to new vertices (ids are dense from the old
        // vertex count, so plain pushes line up).
        let mut owner = (*state.owner).clone();
        for &v in &info.vertices_added {
            let label = post.graph.label(v);
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
            if let Some(counts) = state.label_counts.get_mut(&post.graph.label(v)) {
                let c = &mut counts[owner[v as usize] as usize];
                *c = c.saturating_sub(1);
            }
        }
        // Every shard is re-cut from the post graph by the rule
        // `Partition::build` applies, so a shard is a function of the
        // graph and the owner vector alone. Tombstones are isolated
        // labeled vertices there and stay with their owner.
        let post_g = &post.graph;
        let mut shards_touched = 0;
        let lists = owned_lists(&owner, shards);
        for (si, (shard, owned)) in state.shards.iter_mut().zip(lists).enumerate() {
            let members = khop_ball(post_g, &owned, self.cfg.halo_depth);
            // Same members and no changed edge among them: the shard's
            // graph is unchanged, so it keeps it, its epoch and its cached
            // plans. Exact, because the commit info lists every edge a
            // deleted vertex lost.
            let mut changed = info.edges_inserted.iter().chain(&info.edges_deleted);
            let inside = |&(u, v): &(VertexId, VertexId)| {
                members.binary_search(&u).is_ok() && members.binary_search(&v).is_ok()
            };
            if members == *shard.global_of && !changed.any(inside) {
                continue;
            }
            // Graph and mask are installed together, in one slot, under
            // the router's write lock: no submission sees a torn scatter.
            let piece = ShardPiece::induced(post_g, &members, owned.len());
            shard.install(piece, &owner, si);
            shards_touched += 1;
        }
        state.owner = Arc::new(owner);
        shards_touched
    }

    /// Pin a consistent snapshot of the current global graph version.
    pub fn snapshot(&self) -> Snapshot {
        self.update.pin()
    }

    /// Register a standing query on the global graph; its embedding set
    /// stays current across [`ShardedService::apply_update`] calls.
    /// Returns `None` for queries the tier does not support. A durable
    /// tier logs one registration record at the router.
    pub fn register_standing(&self, query: &Graph) -> Option<StandingId> {
        self.register_standing_with(query, MatchSemantics::default())
            .ok()
    }

    /// [`ShardedService::register_standing`] with an explicit semantics
    /// check, as [`Service::register_standing_with`]. [`Self::supports`]
    /// still gates the query.
    pub fn register_standing_with(
        &self,
        query: &Graph,
        semantics: MatchSemantics,
    ) -> Result<StandingId, StandingError> {
        if !self.supports(query) {
            return Err(StandingError::UnsupportedQuery);
        }
        self.update.register_standing(query, semantics)
    }

    /// Current embedding set of a standing query, in global vertex ids,
    /// sorted.
    pub fn standing_matches(&self, id: StandingId) -> Vec<Vec<VertexId>> {
        self.update.standing_matches(id)
    }

    /// Current embedding count of a standing query.
    pub fn standing_count(&self, id: StandingId) -> usize {
        self.update.standing_count(id)
    }

    /// Merged counters: every shard service's block plus the router's
    /// own (`queries_fanned_out`, `boundary_embeddings_stitched`, the
    /// `halo_vertices_replicated` and `shard_skew` gauges, router-level
    /// rejections and top-k exits) and the update state's (updates,
    /// standing maintenance, the twin, the journal's WAL / recovery
    /// totals).
    pub fn counters(&self) -> CounterBlock {
        let state = self.state.read().expect("state poisoned");
        let mut b = self.router_counters(&state);
        for s in &state.shards {
            b.merge(&s.service.counters());
        }
        b
    }

    /// Everything the router itself counts — tallies, partition gauges,
    /// the update state's counters: what `counters()` and
    /// `metrics_report()` add to the shards' blocks and `Drop` flushes.
    fn router_counters(&self, state: &RouterState) -> CounterBlock {
        let mut b = self.tallies.snapshot();
        let halo = state.shards.iter().map(|s| s.global_of.len() - s.owned);
        b.record_max(Counter::HaloVerticesReplicated, halo.sum::<usize>() as u64);
        let loads = state.shards.iter().map(|s| s.local_edges as u64);
        b.record_max(Counter::ShardSkew, skew_pct(loads));
        b.merge(&self.update.counters());
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
            .map(|(si, s)| ShardDetail {
                shard: si,
                owned: s.owned,
                halo: s.global_of.len() - s.owned,
                local_edges: s.local_edges,
                epoch: s.service.epoch(),
                counters: s.service.counters(),
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

/// The merged reply: the client's stream pulls it, on the client's
/// thread, from the shard streams one shard at a time.
struct Gather {
    /// `(shard, its stream, its local → global ids)` for every shard not
    /// yet drained, the one being drained first.
    replies: VecDeque<(usize, ResultStream, Arc<Vec<VertexId>>)>,
    owner: Arc<Vec<u32>>,
    /// What the request resolved to: the global cap, and the rule that
    /// tallies the merged outcome.
    front: Resolved,
    started: Instant,
    tallies: Arc<AtomicCounterBlock>,
    /// The drained shards' reports: the worst outcome, summed counts, a
    /// cache hit only if every shard hit, the slowest compile.
    merged: QueryReport,
    delivered: u64,
    cap_hit: bool,
    /// Set by the client's cancel; it makes the merged outcome `Cancelled`.
    cancelled: AtomicBool,
}

impl PullSource for Gather {
    fn pull(&mut self, out: &mut EmbeddingBlock) -> Option<QueryReport> {
        let cap = self.front.cap;
        while let Some((si, stream, global_of)) = self.replies.front_mut() {
            if self.cap_hit || *self.cancelled.get_mut() {
                stream.cancel();
            } else if let Some(block) = stream.next_block() {
                let mut stitched = 0;
                for local in block.iter() {
                    out.push_row(local.iter().map(|&l| global_of[l as usize]));
                    let row = out.row(out.rows() - 1);
                    if row.iter().any(|&v| self.owner[v as usize] as usize != *si) {
                        stitched += 1; // crossed a shard boundary via the halo
                    }
                    self.delivered += 1;
                    if cap.is_some_and(|c| self.delivered >= c) {
                        self.cap_hit = true;
                        break; // the rest of the block is beyond the cap
                    }
                }
                self.tallies
                    .add(Counter::BoundaryEmbeddingsStitched, stitched);
                return None;
            }
            let (_, stream, _) = self.replies.pop_front().expect("a front reply");
            let (m, shard) = (&mut self.merged, stream.wait());
            m.outcome = m.outcome.worst(shard.outcome);
            m.matches += shard.matches;
            m.recursions += shard.recursions;
            m.cache_hit &= shard.cache_hit;
            m.plan_build_ns = m.plan_build_ns.max(shard.plan_build_ns);
            // Count-only replies carry no rows: their sum is what reaches
            // the cap.
            self.cap_hit |= cap.is_some_and(|c| m.matches >= c);
        }
        // Router-level overrides: an exact global cap beats the Cancelled
        // outcomes of the shards it cut short; a client abort beats both.
        if self.cap_hit {
            self.merged.outcome = ServiceOutcome::CapHit;
            self.merged.matches = cap.expect("a cap was hit");
        }
        if *self.cancelled.get_mut() {
            self.merged.outcome = ServiceOutcome::Cancelled;
        }
        // One tally per query; a dropped live stream's `Cancelled` tallies
        // nothing.
        self.front.tally(self.merged.outcome, &self.tallies);
        self.merged.elapsed = self.started.elapsed();
        Some(self.merged.clone())
    }

    /// Cancel every shard still running; pulling on drains them.
    fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
        for (_, stream, _) in &self.replies {
            stream.cancel();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_delta::{UpdateStream, UpdateStreamSpec};
    use sm_graph::builder::graph_from_edges;
    use sm_graph::gen::rmat::{rmat_graph, RmatParams};
    use sm_graph::label_index::LabelPairEdgeCounts;

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

    /// Every shard holds exactly the piece a fresh cut of the router's
    /// post graph under its owner vector gives it.
    fn assert_fresh_cut(svc: &ShardedService) {
        let (g, _) = svc.snapshot().materialize();
        let state = svc.state.read().unwrap();
        let lists = owned_lists(&state.owner, state.shards.len());
        for (si, (shard, owned)) in state.shards.iter().zip(lists).enumerate() {
            let members = khop_ball(&g, &owned, svc.cfg.halo_depth);
            let piece = ShardPiece::induced(&g, &members, owned.len());
            assert_eq!(*shard.global_of, piece.global_of, "shard {si} members");
            assert_eq!(
                shard.service.snapshot().num_vertices(),
                piece.graph.num_vertices(),
                "shard {si} graph size"
            );
            assert_eq!(
                shard.service.snapshot().num_edges(),
                piece.graph.num_edges()
            );
            assert_eq!(
                (shard.owned, shard.local_edges),
                (piece.owned, piece.graph.num_edges())
            );
        }
    }

    #[test]
    fn churn_keeps_every_shard_a_fresh_cut() {
        // Edge-only churn moves vertices in and out of the halos; a shard
        // that kept leavers as tombstones would grow without bound.
        let svc = ShardedService::new(
            rmat_graph(400, 4.0, 2, RmatParams::PAPER, 7),
            ShardConfig {
                shards: 2,
                strategy: PartitionStrategy::Hash,
                halo_depth: 2,
                ..ShardConfig::default()
            },
        );
        let spec = UpdateStreamSpec {
            batch_size: 32,
            insert_ratio: 0.5,
            vertex_add_ratio: 0.0,
            num_labels: 2,
        };
        let mut stream = UpdateStream::new(spec, 99);
        assert_fresh_cut(&svc);
        for round in 1..=200 {
            svc.apply_update(&stream.next_batch(&svc.snapshot()));
            if round % 50 == 0 {
                assert_fresh_cut(&svc);
            }
        }
    }

    fn durable_opts() -> DurabilityOptions {
        DurabilityOptions {
            fsync: sm_durable::FsyncPolicy::Off,
            snapshot_threshold_bytes: 0,
            ..Default::default()
        }
    }

    /// A recovered tier's head is the crashed tier's last graph with its
    /// NLF index and label-pair counts, at its epoch, and the tier answers
    /// as a fresh tier on the same graph does.
    #[test]
    fn open_installs_the_snapshot_as_head() {
        let dir = std::env::temp_dir().join(format!("sm-shard-open-head-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (opts, cfg) = (durable_opts(), ShardConfig::default());
        let g = rmat_graph(150, 4.0, 3, RmatParams::PAPER, 37);
        let live = ShardedService::new_durable(g, cfg.clone(), &dir, opts).unwrap();
        let mut stream = UpdateStream::new(UpdateStreamSpec::default(), 43);
        for _ in 0..4 {
            live.apply_update(&stream.next_batch(&live.snapshot()));
        }
        live.snapshot_now().unwrap();
        let (epoch, (graph, nlf)) = (live.epoch(), live.snapshot().materialize());
        assert!(epoch > 0);
        drop(live);

        let recovered = ShardedService::open(&dir, cfg.clone(), opts).unwrap();
        let head = recovered.update.head();
        assert_eq!((head.epoch, recovered.epoch()), (epoch, epoch));
        assert_eq!(head.graph.csr(), graph.csr());
        assert_eq!(head.nlf.csr(), nlf.csr());
        let pairs = LabelPairEdgeCounts::build(&graph);
        assert_eq!(head.label_pairs.sorted_pairs(), pairs.sorted_pairs());
        let path = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2)]);
        for step in 0..2 {
            let fresh = ShardedService::new(recovered.snapshot().materialize().0, cfg.clone());
            for q in [triangle(), path.clone()] {
                let (got, want) = (recovered.run_count(q.clone()), fresh.run_count(q));
                assert_eq!(got.matches, want.matches, "step {step}");
            }
            recovered.apply_update(&stream.next_batch(&recovered.snapshot()));
        }
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Recovery replays the tail into the global state and partitions the
    /// recovered graph once: no shard is re-cut per replayed batch, so
    /// every shard service is at epoch 0, and each is a fresh cut.
    #[test]
    fn open_partitions_the_recovered_graph_once() {
        let dir = std::env::temp_dir().join(format!("sm-shard-open-once-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = durable_opts();
        let cfg = ShardConfig {
            strategy: PartitionStrategy::LabelAware,
            ..ShardConfig::default()
        };
        let g = rmat_graph(150, 4.0, 3, RmatParams::PAPER, 41);
        let live = ShardedService::new_durable(g, cfg.clone(), &dir, opts).unwrap();
        let spec = UpdateStreamSpec {
            vertex_add_ratio: 0.1,
            ..UpdateStreamSpec::default()
        };
        let mut stream = UpdateStream::new(spec, 47);
        while live.epoch() < 10 {
            live.apply_update(&stream.next_batch(&live.snapshot()));
        }
        drop(live);

        let recovered = ShardedService::open(&dir, cfg, opts).unwrap();
        assert_eq!(recovered.recovery_report().unwrap().replayed_batches, 10);
        assert_eq!(recovered.epoch(), 10);
        for d in recovered.shard_details() {
            assert_eq!(d.epoch, 0, "shard {} was re-cut during replay", d.shard);
        }
        assert_fresh_cut(&recovered);
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_update_skips_the_shards_it_does_not_reach() {
        // One triangle on each shard's owned vertices, nothing between.
        let owner: Vec<u32> = (0..16).map(|v| hash_owner(v, 0, 2)).collect();
        let on = |s: u32| -> Vec<VertexId> {
            let vs = (0..16).filter(|&v| owner[v as usize] == s);
            vs.take(3).collect()
        };
        let (a, b) = (on(0), on(1));
        assert_eq!((a.len(), b.len()), (3, 3));
        let edges: Vec<(VertexId, VertexId)> = [&a, &b]
            .iter()
            .flat_map(|t| [(t[0], t[1]), (t[1], t[2]), (t[0], t[2])])
            .collect();
        let svc = ShardedService::new(graph_from_edges(&[0; 16], &edges), ShardConfig::default());
        assert_eq!(svc.run_count(triangle()).matches, 12);
        let entries = |si: usize| svc.state.read().unwrap().shards[si].service.cache_stats().3;
        assert_eq!((entries(0), entries(1)), (1, 1));
        let before: Vec<u64> = svc.shard_details().iter().map(|d| d.epoch).collect();

        let rep = svc.apply_update(&UpdateBatch::new().delete_edge(a[0], a[1]));
        assert_eq!(rep.shards_touched, 1);
        let after: Vec<u64> = svc.shard_details().iter().map(|d| d.epoch).collect();
        assert_eq!(after, vec![before[0] + 1, before[1]]);
        assert_eq!(entries(0), 0, "the re-cut shard purged its plans");
        assert_eq!(entries(1), 1, "the skipped shard kept its plan");
        assert_eq!(svc.run_count(triangle()).matches, 6);
        assert_fresh_cut(&svc);
    }
}
