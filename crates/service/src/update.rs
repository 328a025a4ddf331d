//! In-place graph updates for a running service.
//!
//! [`Service::apply_update`] commits an [`UpdateBatch`] against the
//! service's [`sm_delta::VersionedGraph`] twin and installs the post
//! graph, spliced from the installed one and the batch's touched rows
//! ([`sm_delta::Committed::splice_post`]), as the new data graph —
//! without rebuilding the NLF index (the overlay maintains it per
//! delta) and without throwing the cached plans away: the new graph's
//! change log gains the batch's touched rows
//! ([`crate::GraphData::successor`]), and the next lookup of a cached
//! plan patches its candidate sets across the commits since it was
//! compiled ([`sm_match::Pipeline::patch`]) instead of recompiling. The
//! update drops only the entries no patch can bring forward
//! ([`crate::cache::PlanCache::retain`]).
//!
//! **Standing queries** registered with [`Service::register_standing`]
//! keep their full embedding set current across updates by delta-driven
//! incremental enumeration ([`sm_delta::delta_matches`]): only
//! embeddings that use an inserted or deleted edge are enumerated, never
//! the whole graph. Each one is a [`Standing`], the type the sharded
//! router holds for its global graph too.
//!
//! Both calls go through the service's [`sm_durable::Journal`] — commit
//! and registration are logged there when the service is durable (see
//! [`crate::durable`]); there is one update path, and recovery replays
//! through it.

use crate::service::Service;
use sm_delta::{delta_matches, Committed, Snapshot, StandingQuery, UpdateBatch};
use sm_durable::{StandingSnapshot, StandingView};
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

/// Why [`Standing::register`] refused a registration.
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

/// A standing query and its maintained embedding set: the one
/// standing-query type both tiers hold. A [`Service`] keeps one per
/// registration against its own graph; the sharded router keeps one per
/// registration against its global graph, so no shard holds any.
pub struct Standing {
    sq: StandingQuery,
    matches: Vec<Vec<VertexId>>,
}

impl Standing {
    /// Register `query` on `data`: the semantics check (see
    /// [`StandingError::UnsupportedSemantics`]), the compile, then one
    /// full enumeration.
    pub fn register(
        query: &Graph,
        semantics: MatchSemantics,
        data: &DataContext,
    ) -> Result<Standing, StandingError> {
        if semantics != MatchSemantics::default() {
            return Err(StandingError::UnsupportedSemantics);
        }
        let sq = standing_query(query).ok_or(StandingError::UnsupportedQuery)?;
        let mut standing = Standing {
            sq,
            matches: Vec::new(),
        };
        standing.reenumerate(data);
        Ok(standing)
    }

    /// Reinstate a snapshot-stored standing query with its stored set —
    /// it was maintained against exactly the graph the snapshot holds.
    /// `None` if the query no longer compiles.
    pub fn restore(s: StandingSnapshot) -> Option<Standing> {
        Some(Standing {
            sq: standing_query(&s.query)?,
            matches: s.matches,
        })
    }

    /// Bring every set in `all` up to date from one commit's delta alone,
    /// on up to `threads` workers; returns the embeddings `(added,
    /// removed)` summed over them.
    pub fn maintain(all: &mut [Standing], committed: &Committed, threads: usize) -> (u64, u64) {
        let (mut added, mut removed) = (0, 0);
        for s in all {
            let d = delta_matches(&s.sq, committed, threads);
            added += d.added.len() as u64;
            removed += d.removed.len() as u64;
            s.matches = d.apply_to(&s.matches);
        }
        (added, removed)
    }

    /// The query and its current set, borrowed as a durable snapshot
    /// stores them.
    pub fn view(&self) -> StandingView<'_> {
        StandingView {
            query: self.sq.plan().query(),
            matches: &self.matches,
        }
    }

    /// The current embedding set: sorted, in query vertex-id order — the
    /// representation `DeltaMatches::apply_to` maintains.
    pub fn matches(&self) -> &[Vec<VertexId>] {
        &self.matches
    }

    /// Recompute the set from scratch on `data` (registration, graph
    /// swap).
    pub(crate) fn reenumerate(&mut self, data: &DataContext) {
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
    /// graph, install the post-state — spliced from the installed graph,
    /// so the cost is O(|V| + |E|) of copying plus O(batch) — as the
    /// service's data graph under a new epoch, drop the cached entries no
    /// patch can bring to it (the others are patched on their next
    /// lookup), and bring every standing query's embedding set up to date
    /// incrementally.
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
        // Install the post graph under a fresh service epoch, spliced
        // from the installed pre graph (`GraphData::successor`). The slot
        // holds the pre epoch: it only changes under the versioned lock
        // held here.
        let post = {
            let pre = core.graph.lock().expect("graph lock poisoned").clone();
            pre.successor(&committed, new_epoch)
        };
        *core.graph.lock().expect("graph lock poisoned") = post;
        core.epoch.store(new_epoch, Ordering::Relaxed);
        let (plans_retained, plans_evicted) = core.retain_patchable(new_epoch);
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
        let mut standing = core.standing.lock().expect("standing poisoned");
        let (added, removed) = Standing::maintain(&mut standing, committed, core.cfg.workers);
        core.counters.bump(Counter::UpdatesApplied);
        core.counters
            .add(Counter::IncrementalEmbeddings, added + removed);
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
        self.register_standing_with(query, MatchSemantics::default())
            .ok()
    }

    /// [`Service::register_standing`] with an explicit semantics check:
    /// only the paper's default mode is maintainable incrementally (see
    /// [`Standing::register`]).
    pub fn register_standing_with(
        &self,
        query: &Graph,
        semantics: MatchSemantics,
    ) -> Result<StandingId, StandingError> {
        let data = self.core.graph.lock().expect("graph lock poisoned").clone();
        let entry = Standing::register(query, semantics, &data.context())?;
        let mut standing = self.core.standing.lock().expect("standing poisoned");
        standing.push(entry);
        let index = standing.len() - 1;
        // The WAL append happens while the standing lock is still held
        // (lock order graph → standing → journal keeps `journal`
        // innermost): recovery replays registrations in log order and
        // reassigns indices by push order, so two concurrent
        // registrations logged out of index order would swap their
        // StandingIds after a restart.
        self.journal().log_standing(index as u64, query);
        Ok(StandingId(index))
    }

    /// Current embedding set of a standing query (sorted, in query
    /// vertex-id order).
    pub fn standing_matches(&self, id: StandingId) -> Vec<Vec<VertexId>> {
        self.core.standing.lock().expect("standing poisoned")[id.0]
            .matches()
            .to_vec()
    }

    /// Current embedding count of a standing query.
    pub fn standing_count(&self, id: StandingId) -> usize {
        self.core.standing.lock().expect("standing poisoned")[id.0]
            .matches()
            .len()
    }
}
