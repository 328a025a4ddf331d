//! In-place graph updates for a running service.
//!
//! [`Service::apply_update`] commits an [`UpdateBatch`] against the
//! service's [`sm_delta::VersionedGraph`] twin and installs the
//! materialized result as the new data graph — without rebuilding the
//! NLF index (the overlay maintains it per delta) and without purging
//! the whole plan cache: only cached plans whose query labels intersect
//! the batch's affected labels are evicted; the rest are re-keyed to the
//! new epoch ([`crate::cache::PlanCache::retarget_epoch`]).
//!
//! **Standing queries** registered with [`Service::register_standing`]
//! keep their full embedding set current across updates by delta-driven
//! incremental enumeration ([`sm_delta::delta_matches`]): only
//! embeddings that use an inserted or deleted edge are enumerated, never
//! the whole graph.
//!
//! Both calls go through the service's [`sm_durable::Journal`] — commit
//! and registration are logged there when the service is durable (see
//! [`crate::durable`]); there is one update path, and recovery replays
//! through it.

use crate::service::{patch_pairs, GraphData, Service};
use sm_delta::{delta_matches, Committed, Snapshot, StandingQuery, UpdateBatch};
use sm_graph::{Graph, VertexId};
use sm_match::enumerate::CollectSink;
use sm_match::{
    DataContext, FilterKind, LcMethod, MatchConfig, MatchSemantics, OrderKind, Pipeline,
};
use sm_runtime::trace::Counter;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Handle to a standing query registered with
/// [`Service::register_standing`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StandingId(pub(crate) usize);

/// Why [`Service::register_standing_with`] refused a registration.
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
    /// Cached plans that survived scoped invalidation (label-disjoint
    /// from the batch) and were re-keyed to the new epoch.
    pub plans_retained: usize,
    /// Cached plans evicted because the batch touched their labels.
    pub plans_evicted: usize,
    /// Embeddings added across all standing queries by incremental
    /// enumeration.
    pub incremental_added: u64,
    /// Embeddings retracted across all standing queries.
    pub incremental_removed: u64,
    /// Wall-clock time of the whole apply (commit + install + retarget +
    /// standing maintenance).
    pub elapsed: Duration,
}

/// One registered standing query: the seed programs plus the maintained
/// embedding set.
pub(crate) struct StandingEntry {
    pub(crate) sq: StandingQuery,
    pub(crate) matches: Vec<Vec<VertexId>>,
}

impl StandingEntry {
    /// Recompute the embedding set from scratch (graph swap).
    pub(crate) fn reenumerate(&mut self, data: &GraphData) {
        self.matches = enumerate_full(data, self.sq.plan().query());
    }
}

/// Full (from-scratch) sorted embedding set of `q` on `data`, in query
/// vertex-id order — the representation `DeltaMatches::apply_to`
/// maintains.
fn enumerate_full(data: &GraphData, q: &Graph) -> Vec<Vec<VertexId>> {
    let ctx = DataContext::from_parts(&data.graph, data.nlf.clone(), data.label_pairs.clone());
    let p = Pipeline::new(
        "standing-full",
        FilterKind::Ldf,
        OrderKind::Ri,
        LcMethod::Direct,
    );
    let mut sink = CollectSink::default();
    // find_all: the maintained set must be complete — the default match
    // cap would silently truncate the baseline on large graphs.
    p.run_with_sink(q, &ctx, &MatchConfig::find_all(), &mut sink);
    let mut m = sink.matches;
    m.sort_unstable();
    m
}

/// Compile a [`StandingQuery`] for `q`. The plan is built against the
/// query graph *itself* as data graph: a query always matches itself, so
/// compilation cannot fail for satisfiability reasons, and the
/// incremental engine only reads the plan's query graph anyway.
pub fn standing_query(q: &Graph) -> Option<StandingQuery> {
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

impl Service {
    /// Apply an update batch **in place**: commit it to the versioned
    /// graph, install the materialized post-state as the service's data
    /// graph under a new epoch, retarget the plan cache (label-scoped
    /// invalidation instead of a full purge), and bring every standing
    /// query's embedding set up to date incrementally.
    ///
    /// A batch that normalizes to nothing (inserting present edges,
    /// deleting absent ones) changes no state and keeps the epoch.
    ///
    /// Updates serialize against each other and against
    /// [`Service::swap_graph`]; queries submitted concurrently run
    /// against whichever graph version they were admitted under.
    ///
    /// On a durable service the batch is appended to the WAL — by the
    /// journal's single commit point, iff it was effective — *before*
    /// the post graph is installed, so no client can observe state that
    /// recovery cannot reproduce.
    pub fn apply_update(&self, batch: &UpdateBatch) -> UpdateReport {
        let started = Instant::now();
        let core = &self.core;
        let vg = core.versioned.lock().expect("versioned poisoned");
        // Epoch only moves under the versioned lock, so this read is the
        // epoch the commit will install (+1) if the batch is effective.
        let old_epoch = core.epoch.load(Ordering::Relaxed);
        let new_epoch = old_epoch + 1;
        let Some(committed) = self.journal().commit(&vg, new_epoch, batch) else {
            return UpdateReport {
                epoch: old_epoch,
                noop: true,
                elapsed: started.elapsed(),
                ..Default::default()
            };
        };
        let info = &committed.info;
        // Install the post graph under a fresh service epoch. The NLF
        // comes from the overlay's incremental maintenance and the
        // label-pair counts are patched from the commit delta — no index
        // is rebuilt by scanning the graph.
        let (graph, nlf) = committed.post.materialize();
        {
            let mut slot = core.graph.lock().expect("graph lock poisoned");
            let mut pairs = slot.label_pairs.clone();
            patch_pairs(&mut pairs, &committed);
            *slot = GraphData::from_parts_with_pairs(graph, nlf, pairs, new_epoch);
        }
        core.epoch.store(new_epoch, Ordering::Relaxed);
        let (plans_retained, plans_evicted) =
            core.cache
                .retarget_epoch(old_epoch, new_epoch, &info.affected_labels);
        let (incremental_added, incremental_removed) = self.maintain_standing(&committed);
        // Compact the log into a fresh snapshot once enough WAL bytes
        // accumulated (still under the versioned lock, so the snapshot
        // sees exactly this epoch).
        self.compact_if_due();
        UpdateReport {
            epoch: new_epoch,
            noop: false,
            edges_inserted: info.edges_inserted.len(),
            edges_deleted: info.edges_deleted.len(),
            vertices_added: info.vertices_added.len(),
            vertices_deleted: info.vertices_deleted.len(),
            plans_retained,
            plans_evicted,
            incremental_added,
            incremental_removed,
            elapsed: started.elapsed(),
        }
    }

    /// Bring every standing query's embedding set up to date from the
    /// commit's delta alone and tally the update; returns the embeddings
    /// `(added, removed)`. Shared by the live path and recovery replay.
    pub(crate) fn maintain_standing(&self, committed: &Committed) -> (u64, u64) {
        let core = &self.core;
        let mut added = 0u64;
        let mut removed = 0u64;
        {
            let mut standing = core.standing.lock().expect("standing poisoned");
            for entry in standing.iter_mut() {
                let d = delta_matches(&entry.sq, committed, core.cfg.workers);
                added += d.added.len() as u64;
                removed += d.removed.len() as u64;
                entry.matches = d.apply_to(&entry.matches);
            }
        }
        core.counters.bump(Counter::UpdatesApplied);
        core.counters
            .add(Counter::IncrementalEmbeddings, added + removed);
        core.metrics.observe_update();
        (added, removed)
    }

    /// Pin a consistent snapshot of the current graph version. The
    /// snapshot keeps enumerating pre-update results no matter how many
    /// batches are applied (or compactions run) after it.
    pub fn snapshot(&self) -> Snapshot {
        self.core
            .versioned
            .lock()
            .expect("versioned poisoned")
            .snapshot()
    }

    /// Register a standing query: its full embedding set is enumerated
    /// once now and then maintained incrementally by every
    /// [`Service::apply_update`]. Returns `None` for queries the
    /// incremental engine does not support (no edges, or disconnected).
    /// On a durable service the registration is logged, so it survives a
    /// crash before the next snapshot.
    pub fn register_standing(&self, query: &Graph) -> Option<StandingId> {
        let sq = standing_query(query)?;
        let data = self.core.graph.lock().expect("graph lock poisoned").clone();
        let matches = enumerate_full(&data, sq.plan().query());
        let mut standing = self.core.standing.lock().expect("standing poisoned");
        standing.push(StandingEntry { sq, matches });
        let index = standing.len() - 1;
        // The WAL append happens while the standing lock is still held
        // (lock order graph → standing → journal keeps `journal`
        // innermost): recovery replays registrations in log order and
        // reassigns indices by push order, so two concurrent
        // registrations logged out of index order would swap their
        // StandingIds after a restart.
        self.journal().log_standing(index as u64, query);
        Some(StandingId(index))
    }

    /// [`Service::register_standing`] with an explicit semantics check:
    /// only the paper's default mode (isomorphic, materializing,
    /// run-to-completion) is maintainable incrementally, and anything
    /// else is a typed [`StandingError::UnsupportedSemantics`] — the
    /// supported matrix is enforced at registration, not discovered at
    /// the first update.
    pub fn register_standing_with(
        &self,
        query: &Graph,
        semantics: MatchSemantics,
    ) -> Result<StandingId, StandingError> {
        if semantics != MatchSemantics::default() {
            return Err(StandingError::UnsupportedSemantics);
        }
        self.register_standing(query)
            .ok_or(StandingError::UnsupportedQuery)
    }

    /// Current embedding set of a standing query (sorted, in query
    /// vertex-id order).
    pub fn standing_matches(&self, id: StandingId) -> Vec<Vec<VertexId>> {
        self.core.standing.lock().expect("standing poisoned")[id.0]
            .matches
            .clone()
    }

    /// Current embedding count of a standing query.
    pub fn standing_count(&self, id: StandingId) -> usize {
        self.core.standing.lock().expect("standing poisoned")[id.0]
            .matches
            .len()
    }
}
