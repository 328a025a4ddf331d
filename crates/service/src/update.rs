//! The update lifecycle both tiers share: [`UpdateState`].
//!
//! A tier that accepts updates holds four things besides what it
//! serves queries from: the installed head graph, a
//! [`sm_delta::VersionedGraph`] twin of it, the registered standing
//! queries and the [`sm_durable::Journal`]. `UpdateState` owns all four,
//! plus the planner-feedback store its snapshots persist, behind one
//! lock, and its methods are the whole lifecycle, written once:
//!
//! - [`UpdateState::commit`] commits a batch through the journal (logged
//!   before anything installs), splices the post graph from the head and
//!   the batch's touched rows ([`sm_delta::Committed::splice_post`]),
//!   hands it to the tier's install step, brings every standing query's
//!   embedding set up to date from the commit's delta alone
//!   ([`sm_delta::delta_matches`]), and compacts the log when it is due;
//! - [`UpdateState::register_standing`] enumerates, pushes and logs a
//!   standing query, so a registration lands between two commits and
//!   misses no delta;
//! - [`UpdateState::swap`], [`UpdateState::pin`], and the durable side in
//!   [`crate::durable`]: `create`, `open`, `snapshot_now`, `sync`.
//!
//! [`Service::apply_update`] installs the post graph in the service's
//! query-side slot and keeps the cached plans a patch can bring forward
//! ([`sm_match::Pipeline::patch`]); the sharded router installs it by
//! re-cutting its shards. Queries never take this lock, so a commit, a
//! registration or a snapshot write never blocks a read.
//!
//! The twin is built from the head on the first commit or pin, so a tier
//! that never updates holds one copy of its graph. It is seeded at the
//! head's epoch and counts the tier's epochs from there: a pinned
//! [`Snapshot`], a commit's [`CommitInfo::epoch`], the WAL stamp and the
//! installed head's [`GraphData::epoch`] are one number, also after
//! `open` and `swap`.
//!
//! **Lock order**, the one order of both tiers: the router's shard state
//! → an `UpdateState` → a shard's `UpdateState` → a service's query-side
//! graph slot.

use crate::service::{GraphData, Service, ServiceConfig};
use sm_delta::{
    delta_matches, CommitInfo, Committed, Snapshot, StandingQuery, UpdateBatch, VersionedGraph,
};
use sm_durable::{Journal, StandingSnapshot, StandingView};
use sm_graph::{Graph, VertexId};
use sm_match::enumerate::CollectSink;
use sm_match::util::Bitmap;
use sm_match::{
    DataContext, FilterKind, LcMethod, MatchConfig, MatchSemantics, OrderKind, Pipeline,
    PlanSelection,
};
use sm_planner::FeedbackStore;
use sm_runtime::trace::{Counter, CounterBlock};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Handle to a standing query registered with an [`UpdateState`]: what
/// [`Service::register_standing`] and the sharded router's
/// `register_standing` return.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StandingId(pub(crate) usize);

/// Why a standing-query registration was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StandingError {
    /// The incremental engine does not support the query shape (no
    /// edges, or disconnected).
    UnsupportedQuery,
    /// Standing queries maintain a *complete, materialized, isomorphic*
    /// embedding set — the only representation delta-driven maintenance
    /// can keep consistent. Relaxed injectivity, count-only output, and
    /// early-terminating modes are all rejected here, explicitly, rather
    /// than silently coerced.
    UnsupportedSemantics,
}

/// What one [`Service::apply_update`] call did.
#[derive(Clone, Debug, Default)]
pub struct UpdateReport {
    /// Service epoch after the update (unchanged for a no-op batch).
    pub epoch: u64,
    /// Whether the batch normalized to nothing (no state changed).
    pub noop: bool,
    /// Edges actually inserted (after normalization).
    pub edges_inserted: usize,
    /// Edges actually deleted (including edges incident to deleted
    /// vertices).
    pub edges_deleted: usize,
    /// Vertices added.
    pub vertices_added: usize,
    /// Vertices tombstoned.
    pub vertices_deleted: usize,
    /// Cached plans kept across the update, to be patched to the new
    /// epoch by their next lookup.
    pub plans_retained: usize,
    /// Cached entries dropped because no exact patch exists for them:
    /// negative entries (no plan to patch), plans of a pipeline without
    /// one, plans older than the change log reaches, and every plan of a
    /// shard's service.
    pub plans_evicted: usize,
    /// Embeddings added across all standing queries by incremental
    /// enumeration.
    pub incremental_added: u64,
    /// Embeddings retracted across all standing queries.
    pub incremental_removed: u64,
    /// Wall-clock time of the whole apply (commit + install + cache
    /// pruning + standing maintenance).
    pub elapsed: Duration,
}

/// A standing query and its maintained embedding set.
pub(crate) struct Standing {
    sq: StandingQuery,
    matches: Vec<Vec<VertexId>>,
}

impl Standing {
    /// Reinstate a snapshot-stored standing query with its stored set —
    /// it was maintained against exactly the graph the snapshot holds.
    /// `None` if the query no longer compiles.
    pub(crate) fn restore(s: StandingSnapshot) -> Option<Standing> {
        Some(Standing {
            sq: standing_query(&s.query)?,
            matches: s.matches,
        })
    }

    /// The query and its current set, borrowed as a durable snapshot
    /// stores them.
    pub(crate) fn view(&self) -> StandingView<'_> {
        StandingView {
            query: self.sq.plan().query(),
            matches: &self.matches,
        }
    }

    /// Recompute the set from scratch on `data` (registration, graph
    /// swap): sorted, in query vertex-id order — the representation
    /// `DeltaMatches::apply_to` maintains.
    fn reenumerate(&mut self, data: &DataContext) {
        let p = Pipeline::new(
            "standing-full",
            FilterKind::Ldf,
            OrderKind::Ri,
            LcMethod::Direct,
        );
        let (q, mut sink) = (self.sq.plan().query(), CollectSink::default());
        // find_all: the maintained set must be complete — the default
        // match cap would silently truncate the baseline on large graphs.
        p.run_with_sink(q, data, &MatchConfig::find_all(), &mut sink);
        self.matches = sink.matches;
        self.matches.sort_unstable();
    }
}

/// Compile a [`StandingQuery`] for `q`. The plan is built against the
/// query graph *itself* as data graph: a query always matches itself, so
/// compilation cannot fail for satisfiability reasons, and the
/// incremental engine only reads the plan's query graph anyway.
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

/// One tier's update state: the head graph, its versioned twin, the
/// standing queries and the journal behind one lock (see the module
/// docs).
pub struct UpdateState {
    inner: Mutex<Inner>,
    /// The planner's learned costs, persisted beside every snapshot and
    /// restored by `open`; `None` under fixed plan selection.
    feedback: Option<Arc<FeedbackStore>>,
    /// Workers for incremental maintenance.
    workers: usize,
}

/// What [`UpdateState`]'s lock guards.
pub(crate) struct Inner {
    /// The installed graph at the tier epoch (`head.epoch`): each commit
    /// splices its successor from it, and a snapshot encodes it.
    pub(crate) head: Arc<GraphData>,
    /// The versioned twin of `head`, built on the first commit or pin
    /// at the head's epoch.
    pub(crate) versioned: Option<VersionedGraph>,
    /// Registered standing queries, indexed by registration order.
    pub(crate) standing: Vec<Standing>,
    /// The tier's one handle on its log: durable after `create` /
    /// `open`, in-memory otherwise.
    pub(crate) journal: Journal,
    /// `updates_applied`, `incremental_embeddings`, and the
    /// `snapshots_pinned` / `compactions` of twins retired by `swap`, so
    /// those stay monotonic across swaps.
    counters: CounterBlock,
}

impl Inner {
    pub(crate) fn new(head: Arc<GraphData>) -> Inner {
        Inner {
            head,
            versioned: None,
            standing: Vec::new(),
            journal: Journal::default(),
            counters: CounterBlock::new(),
        }
    }

    /// Commit `batch` through the journal, building the twin from the
    /// head first if there is none.
    pub(crate) fn commit(&mut self, batch: &UpdateBatch) -> Option<Committed> {
        let twin = twin(&mut self.versioned, &self.head);
        self.journal.commit(twin, batch)
    }

    /// Bring every standing set up to date from one commit's delta alone;
    /// returns the embeddings `(added, removed)`.
    pub(crate) fn maintain(&mut self, committed: &Committed, workers: usize) -> (u64, u64) {
        let (mut added, mut removed) = (0, 0);
        for s in &mut self.standing {
            let d = delta_matches(&s.sq, committed, workers);
            added += d.added.len() as u64;
            removed += d.removed.len() as u64;
            s.matches = d.apply_to(&s.matches);
        }
        self.counters.bump(Counter::UpdatesApplied);
        self.counters
            .add(Counter::IncrementalEmbeddings, added + removed);
        (added, removed)
    }

    /// Register `query` on the head: the semantics check, the compile,
    /// one full enumeration, the push and the log record.
    pub(crate) fn register(
        &mut self,
        query: &Graph,
        semantics: MatchSemantics,
    ) -> Result<StandingId, StandingError> {
        if semantics != MatchSemantics::default() {
            return Err(StandingError::UnsupportedSemantics);
        }
        let sq = standing_query(query).ok_or(StandingError::UnsupportedQuery)?;
        let mut entry = Standing {
            sq,
            matches: Vec::new(),
        };
        entry.reenumerate(&self.head.context());
        self.standing.push(entry);
        let index = self.standing.len() - 1;
        // Recovery replays registrations in log order and reassigns
        // indices by push order, so the record goes out under the lock
        // that assigned the index.
        self.journal.log_standing(index as u64, query);
        Ok(StandingId(index))
    }
}

/// The versioned twin of `head`, built from it at its epoch if there is
/// none yet.
fn twin<'a>(versioned: &'a mut Option<VersionedGraph>, head: &GraphData) -> &'a VersionedGraph {
    versioned.get_or_insert_with(|| {
        VersionedGraph::from_materialized(head.graph.clone(), head.nlf.clone(), head.epoch)
    })
}

impl UpdateState {
    /// An in-memory state over `graph` at epoch 0, with `cfg`'s workers
    /// and, under [`PlanSelection::Auto`], a fresh feedback store.
    pub fn new(graph: Graph, cfg: &ServiceConfig) -> UpdateState {
        UpdateState::with_inner(Inner::new(GraphData::build(graph, None, 0)), cfg, None)
    }

    /// A state over `inner` with `cfg`'s workers and, under
    /// [`PlanSelection::Auto`], `feedback` (a fresh store when `None`).
    pub(crate) fn with_inner(
        inner: Inner,
        cfg: &ServiceConfig,
        feedback: Option<Arc<FeedbackStore>>,
    ) -> UpdateState {
        let feedback = (cfg.base_config.plan == PlanSelection::Auto)
            .then(|| feedback.unwrap_or_else(|| Arc::new(FeedbackStore::new())));
        UpdateState {
            inner: Mutex::new(inner),
            feedback,
            workers: cfg.workers,
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("update state poisoned")
    }

    /// The planner feedback store this state persists (`None` under fixed
    /// plan selection): a tier's planners share it.
    pub fn feedback(&self) -> Option<&Arc<FeedbackStore>> {
        self.feedback.as_ref()
    }

    /// The installed head graph.
    pub fn head(&self) -> Arc<GraphData> {
        self.lock().head.clone()
    }

    /// The tier epoch: the head's.
    pub fn epoch(&self) -> u64 {
        self.lock().head.epoch
    }

    /// Commit `batch` and, iff it was effective, install its post graph:
    /// `install` gets the new head and the commit's effective operations
    /// while the lock is held, after the journal logged the batch and
    /// before the standing sets are maintained. Returns the report
    /// (`plans_*` and `elapsed` left to the tier) and what `install`
    /// returned, `None` for a no-op batch.
    pub fn commit<R>(
        &self,
        batch: &UpdateBatch,
        install: impl FnOnce(&Arc<GraphData>, &CommitInfo) -> R,
    ) -> (UpdateReport, Option<R>) {
        let mut inner = self.lock();
        let Some(committed) = inner.commit(batch) else {
            let report = UpdateReport {
                epoch: inner.head.epoch,
                noop: true,
                ..Default::default()
            };
            return (report, None);
        };
        inner.head = inner.head.successor(&committed);
        let installed = install(&inner.head, &committed.info);
        let (added, removed) = inner.maintain(&committed, self.workers);
        if inner.journal.snapshot_due() {
            self.compact(&mut inner);
        }
        let info = &committed.info;
        let report = UpdateReport {
            epoch: info.epoch,
            edges_inserted: info.edges_inserted.len(),
            edges_deleted: info.edges_deleted.len(),
            vertices_added: info.vertices_added.len(),
            vertices_deleted: info.vertices_deleted.len(),
            incremental_added: added,
            incremental_removed: removed,
            ..Default::default()
        };
        (report, Some(installed))
    }

    /// Register a standing query on the head: its full embedding set is
    /// enumerated now and maintained by every later commit. Only the
    /// paper's default semantics is maintainable (see
    /// [`StandingError::UnsupportedSemantics`]).
    pub fn register_standing(
        &self,
        query: &Graph,
        semantics: MatchSemantics,
    ) -> Result<StandingId, StandingError> {
        self.lock().register(query, semantics)
    }

    /// The current embedding set of standing query `id`: sorted, in query
    /// vertex-id order.
    pub fn standing_matches(&self, id: StandingId) -> Vec<Vec<VertexId>> {
        self.lock().standing[id.0].matches.clone()
    }

    /// The current embedding count of standing query `id`.
    pub fn standing_count(&self, id: StandingId) -> usize {
        self.lock().standing[id.0].matches.len()
    }

    /// Replace the head with `graph` (and `owned`, its shard's mask, see
    /// [`Service::new_shard`]) under the next epoch: `install` gets
    /// the new head, the twin is dropped (the next commit or pin builds
    /// one from the new head), every standing set is re-enumerated, and a
    /// durable state absorbs the swap into a fresh snapshot — the retired
    /// log describes a lineage the new graph did not come from.
    pub fn swap(&self, graph: Graph, owned: Option<Bitmap>, install: impl FnOnce(&Arc<GraphData>)) {
        let mut inner = self.lock();
        if let Some(twin) = inner.versioned.take() {
            // The retired twin's totals stay; its live-overlay gauge
            // describes a graph no longer installed.
            let mut retired = twin.counters();
            retired.set(Counter::DeltaEdgesLive, 0);
            inner.counters.merge(&retired);
        }
        let head = GraphData::build(graph, owned, inner.head.epoch + 1);
        install(&head);
        for entry in &mut inner.standing {
            entry.reenumerate(&head.context());
        }
        inner.head = head;
        if inner.journal.is_durable() {
            self.compact(&mut inner);
        }
    }

    /// Pin a consistent snapshot of the head version; it keeps
    /// enumerating that version however many commits follow.
    pub fn pin(&self) -> Snapshot {
        let inner = &mut *self.lock();
        twin(&mut inner.versioned, &inner.head).snapshot()
    }

    /// This state's counters: `updates_applied` and
    /// `incremental_embeddings`, merged with the twin's
    /// ([`VersionedGraph::counters`], retired twins' totals included)
    /// and the journal's ([`Journal::counters`]).
    pub fn counters(&self) -> CounterBlock {
        let inner = self.lock();
        let mut b = inner.counters.clone();
        if let Some(twin) = &inner.versioned {
            b.merge(&twin.counters());
        }
        b.merge(&inner.journal.counters());
        b
    }
}

impl Service {
    /// Apply an update batch **in place**: commit it, install the
    /// post-state — spliced from the installed graph, so the cost is
    /// O(|V| + |E|) of copying plus O(batch) — as the service's data
    /// graph under a new epoch, drop the cached entries no patch can
    /// bring to it (the others are patched on their next lookup), and
    /// bring every standing query's embedding set up to date
    /// incrementally.
    ///
    /// A batch that normalizes to nothing (inserting present edges,
    /// deleting absent ones) changes no state and keeps the epoch.
    ///
    /// Updates serialize against each other, against registrations and
    /// against [`Service::swap_graph`]; queries submitted concurrently
    /// run against whichever graph version they were admitted under.
    ///
    /// On a durable service the batch is appended to the WAL — by the
    /// journal's single commit point, iff it was effective — *before*
    /// the post graph is installed, so no client can observe state that
    /// recovery cannot reproduce.
    pub fn apply_update(&self, batch: &UpdateBatch) -> UpdateReport {
        let started = Instant::now();
        let core = &self.core;
        let (report, kept) = core.state.commit(batch, |post, _| {
            *core.graph.lock().expect("graph lock poisoned") = post.clone();
            core.retain_patchable(post)
        });
        let (plans_retained, plans_evicted) = kept.unwrap_or_default();
        UpdateReport {
            plans_retained,
            plans_evicted,
            elapsed: started.elapsed(),
            ..report
        }
    }

    /// Pin a consistent snapshot of the current graph version. The
    /// snapshot keeps enumerating pre-update results no matter how many
    /// batches are applied (or compactions run) after it.
    pub fn snapshot(&self) -> Snapshot {
        self.core.state.pin()
    }

    /// Register a standing query: its full embedding set is enumerated
    /// once now and then maintained incrementally by every
    /// [`Service::apply_update`]. Returns `None` for queries the
    /// incremental engine does not support (no edges, or disconnected).
    /// On a durable service the registration is logged, so it survives a
    /// crash before the next snapshot.
    pub fn register_standing(&self, query: &Graph) -> Option<StandingId> {
        self.register_standing_with(query, MatchSemantics::default())
            .ok()
    }

    /// [`Service::register_standing`] with an explicit semantics check:
    /// only the paper's default mode is maintainable incrementally (see
    /// [`StandingError::UnsupportedSemantics`]).
    pub fn register_standing_with(
        &self,
        query: &Graph,
        semantics: MatchSemantics,
    ) -> Result<StandingId, StandingError> {
        self.core.state.register_standing(query, semantics)
    }

    /// Current embedding set of a standing query (sorted, in query
    /// vertex-id order).
    pub fn standing_matches(&self, id: StandingId) -> Vec<Vec<VertexId>> {
        self.core.state.standing_matches(id)
    }

    /// Current embedding count of a standing query.
    pub fn standing_count(&self, id: StandingId) -> usize {
        self.core.state.standing_count(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_graph::gen::rmat::{rmat_graph, RmatParams};

    /// The twin is built on demand: a fresh service holds none, nor does
    /// one after `swap_graph`, and the retired twin's tallies stay in
    /// `counters()`.
    #[test]
    fn the_twin_is_built_on_the_first_commit_or_pin() {
        let graph = || rmat_graph(200, 4.0, 3, RmatParams::PAPER, 23);
        let svc = Service::new(graph(), ServiceConfig::default());
        let has_twin = || svc.core.state.lock().versioned.is_some();
        assert!(!has_twin(), "a fresh service holds no twin");
        let pinned = svc.snapshot();
        assert!(has_twin(), "a pin builds it");
        let batch = sm_delta::UpdateStream::new(Default::default(), 3).next_batch(&pinned);
        assert!(!svc.apply_update(&batch).noop);
        let before = svc.counters().get(Counter::SnapshotsPinned);
        assert!(before >= 1);
        svc.swap_graph(graph());
        assert!(!has_twin(), "a swap drops it");
        assert_eq!(svc.counters().get(Counter::SnapshotsPinned), before);
        svc.snapshot();
        assert_eq!(svc.counters().get(Counter::SnapshotsPinned), before + 1);
    }

    /// A swap moves the tier to the next epoch, and a snapshot pinned
    /// after it names that epoch: the twin built from the swapped-in head
    /// starts at the head's epoch, not at 0.
    #[test]
    fn a_pin_after_swap_graph_names_the_tier_epoch() {
        let graph = || rmat_graph(200, 4.0, 3, RmatParams::PAPER, 23);
        let svc = Service::new(graph(), ServiceConfig::default());
        let mut stream = sm_delta::UpdateStream::new(Default::default(), 5);
        for _ in 0..3 {
            svc.apply_update(&stream.next_batch(&svc.snapshot()));
        }
        assert!(svc.epoch() > 0);
        assert_eq!(svc.snapshot().epoch(), svc.epoch(), "before the swap");
        svc.swap_graph(graph());
        assert_eq!(svc.snapshot().epoch(), svc.epoch(), "after the swap");
        svc.apply_update(&stream.next_batch(&svc.snapshot()));
        assert_eq!(svc.snapshot().epoch(), svc.epoch(), "after a commit");
    }
}
