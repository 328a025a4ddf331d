//! The counter registry: a fixed, schema-stable set of cheap `u64`
//! counters covering the paper's explanatory metrics — intersections by
//! kernel, candidates pruned, backtracks, peak partial-embedding depth,
//! local-candidate cache hits, morsel/busy/idle/scratch accounting.
//!
//! Engines accumulate into a worker-local plain [`CounterBlock`] (an
//! unconditional `u64` add — no atomics, no branches on the hot path) and
//! flush the block into the [`crate::trace::Trace`] once per run/worker.
//! Totals across workers are a *merge*: sum counters add, the peak-depth
//! gauge takes the max.
//!
//! The registry is defined **once**, in the [`define_counters!`] table
//! below: variant, wire name, and doc line live side by side, so the
//! enum, [`Counter::ALL`], and [`Counter::NAMES`] cannot drift apart (a
//! unit test additionally pins name uniqueness, and a doc-sync test pins
//! every name into OBSERVABILITY.md's registry table).

use std::sync::atomic::{AtomicU64, Ordering};

/// Generates [`Counter`], [`Counter::ALL`] and [`Counter::NAMES`] from a
/// single `(Variant, "wire_name", "doc")` table — the registry's single
/// source of truth. The table order is the wire schema of the JSONL
/// profile: append new counters at the end, never reorder.
macro_rules! define_counters {
    ($(($variant:ident, $name:literal, $doc:literal),)+) => {
        /// One named counter of the registry. The numbering is the wire
        /// schema of the JSONL profile — append new counters at the end,
        /// never reorder.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum Counter {
            $(#[doc = $doc] $variant,)+
        }

        impl Counter {
            /// Number of counters in the registry.
            pub const COUNT: usize = [$(Counter::$variant),+].len();

            /// Every counter, in schema order.
            pub const ALL: [Counter; Counter::COUNT] = [$(Counter::$variant),+];

            /// Every counter's stable snake_case name, in schema order —
            /// `NAMES[c as usize]` is `c`'s JSONL field key and the name
            /// OBSERVABILITY.md's registry table documents.
            pub const NAMES: [&'static str; Counter::COUNT] = [$($name),+];
        }
    };
}

define_counters! {
    (IntersectMerge, "intersect_merge",
     "Merge-kernel set intersections performed."),
    (IntersectGalloping, "intersect_galloping",
     "Galloping-kernel set intersections performed."),
    (IntersectHybrid, "intersect_hybrid",
     "Hybrid-kernel set intersections performed."),
    (IntersectQfilter, "intersect_qfilter",
     "QFilter (BSR block-bitmap) set intersections performed."),
    (CandidatesPruned, "candidates_pruned",
     "Candidate vertices removed by filter refinement (all rounds)."),
    (FilterRounds, "filter_rounds",
     "Filter refinement rounds executed."),
    (Backtracks, "backtracks",
     "Backtracks: partial assignments undone by the enumeration engines."),
    (PeakDepth, "peak_depth",
     "Peak partial-embedding depth reached (a max gauge, not a sum)."),
    (LcCacheHits, "lc_cache_hits",
     "Local-candidate reads served from a prebuilt space list instead of \
      a fresh intersection/scan (TreeIndex tree-edge lists, adaptive LC \
      cache)."),
    (Recursions, "recursions",
     "Search-tree nodes visited (recursive engine invocations)."),
    (Matches, "matches",
     "Matches emitted."),
    (MorselsExecuted, "morsels_executed",
     "Morsels executed by the worker pool."),
    (ScratchReuses, "scratch_reuses",
     "Runs/morsels that hit the zero-allocation scratch fast path."),
    (BusyNs, "busy_ns",
     "Wall-clock nanoseconds spent executing morsels."),
    (IdleNs, "idle_ns",
     "Wall-clock nanoseconds spent waiting in the scheduler's `claim`."),
    (GlasgowNodes, "glasgow_nodes",
     "Glasgow CP search nodes explored."),
    (GlasgowPropagations, "glasgow_propagations",
     "Glasgow domain-propagation passes on assignment."),
    (PlanCacheHits, "plan_cache_hits",
     "Service plan-cache lookups that returned a cached plan."),
    (PlanCacheMisses, "plan_cache_misses",
     "Service plan-cache lookups that had to compile a plan."),
    (PlanCacheEvictions, "plan_cache_evictions",
     "Cached plans evicted by the LRU policy (capacity or epoch)."),
    (QueriesAdmitted, "queries_admitted",
     "Queries admitted by the service (queued or started)."),
    (QueriesRejected, "queries_rejected",
     "Queries rejected by admission control (submission queue full)."),
    (EmbeddingsStreamed, "embeddings_streamed",
     "Embeddings delivered through service result streams."),
    (UpdatesApplied, "updates_applied",
     "Update batches applied to a versioned graph."),
    (SnapshotsPinned, "snapshots_pinned",
     "Snapshots pinned against a versioned graph."),
    (Compactions, "compactions",
     "Overlay compactions folding deltas into a fresh CSR base."),
    (DeltaEdgesLive, "delta_edges_live",
     "Live overlay edges `|E(view) Δ E(base)|` of the current epoch (a \
      gauge: merges take the max)."),
    (IncrementalEmbeddings, "incremental_embeddings",
     "Embeddings added or retracted by delta-driven incremental \
      enumeration (instead of full recomputation)."),
    (QueriesFannedOut, "queries_fanned_out",
     "Queries fanned out by a sharded router (one per shard per \
      scatter)."),
    (BoundaryEmbeddingsStitched, "boundary_embeddings_stitched",
     "Streamed embeddings a shard delivered through the router that \
      use a halo vertex (count-only replies carry no rows)."),
    (HaloVerticesReplicated, "halo_vertices_replicated",
     "Halo (ghost) vertices replicated across all shards (a gauge: \
      merges take the max; set from the current partition)."),
    (ShardSkew, "shard_skew",
     "Partition skew: max per-shard local edge count as a percentage of \
      the even share (100 = perfectly balanced; a gauge)."),
    (CountOnlyRuns, "count_only_runs",
     "Count-only runs executed (no embedding materialization; the match \
      tally rides the per-worker accumulators)."),
    (TopkEarlyExits, "topk_early_exits",
     "Enumeration runs (and served queries) cut short by a top-k bound."),
    (SemanticsCacheSplits, "semantics_cache_splits",
     "Plan compilations forced by a semantics mismatch: the same query \
      under the same graph epoch and base config was already cached \
      under a *different* semantics fingerprint (plans are shared within \
      a mode, never across modes)."),
    (QueriesCancelledByDrop, "queries_cancelled_by_drop",
     "Queries whose terminal `Cancelled` outcome came from the client \
      side — a dropped/cancelled `ResultStream`, including per-shard \
      streams a sharded router cut short after its global cap filled."),
    (WalAppends, "wal_appends",
     "Update-batch and standing-registration records appended to a \
      durability write-ahead log."),
    (WalBytes, "wal_bytes",
     "Bytes appended to durability write-ahead logs, framing included."),
    (SnapshotsWritten, "snapshots_written",
     "On-disk CSR snapshots written by threshold-triggered or manual \
      compaction."),
    (Recoveries, "recoveries",
     "Services opened from a durable directory (snapshot page-in plus \
      WAL-tail replay)."),
    (ReplayedBatches, "replayed_batches",
     "WAL-tail update batches replayed during recovery."),
    (PlansAutotuned, "plans_autotuned",
     "Plans selected by the self-tuning planner's cost model (Auto \
      mode) instead of a caller-fixed pipeline."),
    (ReplansTriggered, "replans_triggered",
     "Jump-redo replans: enumerations bailed out mid-run because the \
      live backtrack count exceeded the model's prediction, then \
      restarted under the next-best combo."),
    (FeedbackRecords, "feedback_records",
     "Completed-run observations (cost, backtracks, per-kernel \
      intersections) folded into the planner's per-canonical-form \
      feedback store."),
    (EstimatorEvals, "estimator_evals",
     "Filter/order/kernel combos scored by the planner's cardinality \
      estimator and cost model."),
}

impl Counter {
    /// Stable snake_case name — the JSONL field key.
    #[inline]
    pub fn name(self) -> &'static str {
        Counter::NAMES[self as usize]
    }

    /// Look a counter up by its JSONL field key.
    pub fn from_name(name: &str) -> Option<Counter> {
        Counter::ALL.iter().copied().find(|c| c.name() == name)
    }

    /// Whether merging across workers takes the max (gauge) instead of the
    /// sum.
    pub fn is_gauge(self) -> bool {
        matches!(
            self,
            Counter::PeakDepth
                | Counter::DeltaEdgesLive
                | Counter::HaloVerticesReplicated
                | Counter::ShardSkew
        )
    }
}

/// The shared twin of [`CounterBlock`]: one relaxed atomic per registry
/// counter, for tallies several threads bump over an object's lifetime
/// (a service's admissions, a router's fan-outs). Read it with
/// [`AtomicCounterBlock::snapshot`].
pub struct AtomicCounterBlock {
    vals: [AtomicU64; Counter::COUNT],
}

impl Default for AtomicCounterBlock {
    fn default() -> Self {
        AtomicCounterBlock {
            vals: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl AtomicCounterBlock {
    /// Add `n` to a counter.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.vals[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1 to a counter.
    #[inline]
    pub fn bump(&self, c: Counter) {
        self.add(c, 1);
    }

    /// The current values as a plain block.
    pub fn snapshot(&self) -> CounterBlock {
        CounterBlock {
            vals: std::array::from_fn(|i| self.vals[i].load(Ordering::Relaxed)),
        }
    }
}

/// A worker-local block of every registry counter. Plain `u64`s: bumping
/// one is a single add, so the block can stay on the enumeration hot path
/// even when tracing is disabled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterBlock {
    vals: [u64; Counter::COUNT],
}

// Not derived: std only provides `Default` for arrays up to 32 elements.
impl Default for CounterBlock {
    fn default() -> Self {
        CounterBlock {
            vals: [0; Counter::COUNT],
        }
    }
}

impl CounterBlock {
    /// An all-zero block.
    pub fn new() -> Self {
        CounterBlock::default()
    }

    /// Add `n` to a counter, saturating: a count-only run adds whole
    /// products of candidate counts, which can reach `u64::MAX`.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        let v = &mut self.vals[c as usize];
        *v = v.saturating_add(n);
    }

    /// Add 1 to a counter (saturating, like [`CounterBlock::add`]).
    #[inline]
    pub fn bump(&mut self, c: Counter) {
        self.add(c, 1);
    }

    /// Raise a gauge counter to at least `v`.
    #[inline]
    pub fn record_max(&mut self, c: Counter, v: u64) {
        if v > self.vals[c as usize] {
            self.vals[c as usize] = v;
        }
    }

    /// Overwrite a counter (for mirrored values like `busy_ns`).
    #[inline]
    pub fn set(&mut self, c: Counter, v: u64) {
        self.vals[c as usize] = v;
    }

    /// Current value of a counter.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c as usize]
    }

    /// Merge another block into this one: sums add, gauges take the max.
    pub fn merge(&mut self, other: &CounterBlock) {
        for c in Counter::ALL {
            if c.is_gauge() {
                self.record_max(c, other.get(c));
            } else {
                self.add(c, other.get(c));
            }
        }
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.vals.iter().all(|&v| v == 0)
    }

    /// Iterate the non-zero counters in schema order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL
            .into_iter()
            .filter_map(move |c| (self.get(c) > 0).then_some((c, self.get(c))))
    }

    /// Total set intersections across all four kernels.
    pub fn intersections(&self) -> u64 {
        self.get(Counter::IntersectMerge)
            + self.get(Counter::IntersectGalloping)
            + self.get(Counter::IntersectHybrid)
            + self.get(Counter::IntersectQfilter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for c in Counter::ALL {
            assert_eq!(Counter::from_name(c.name()), Some(c));
        }
        assert_eq!(Counter::from_name("bogus"), None);
        assert_eq!(Counter::ALL.len(), Counter::COUNT);
    }

    /// The single-source-of-truth guarantees: the name table covers every
    /// variant exactly once (no duplicates, no drift), and schema order
    /// is the enum's discriminant order.
    #[test]
    fn name_table_is_consistent() {
        assert_eq!(Counter::NAMES.len(), Counter::COUNT);
        let mut seen = std::collections::HashSet::new();
        for name in Counter::NAMES {
            assert!(!name.is_empty());
            assert!(seen.insert(name), "duplicate counter name {name:?}");
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "counter name {name:?} is not snake_case"
            );
        }
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "ALL is not in discriminant order");
            assert_eq!(c.name(), Counter::NAMES[i]);
        }
    }

    /// OBSERVABILITY.md's registry table must document every counter by
    /// its exact wire name — the 30→34 doc drift fixed in PR 6 is the
    /// kind of rot this pins down.
    #[test]
    fn observability_doc_lists_every_counter() {
        let doc = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../OBSERVABILITY.md"
        ));
        for name in Counter::NAMES {
            assert!(
                doc.contains(&format!("`{name}`")),
                "OBSERVABILITY.md does not document counter `{name}`"
            );
        }
        // The doc's advertised registry size must match the code.
        assert!(
            doc.contains(&format!("{} variants", Counter::COUNT)),
            "OBSERVABILITY.md does not state the registry size {}",
            Counter::COUNT
        );
    }

    #[test]
    fn block_ops() {
        let mut b = CounterBlock::new();
        assert!(b.is_zero());
        b.bump(Counter::Backtracks);
        b.add(Counter::Backtracks, 2);
        b.record_max(Counter::PeakDepth, 5);
        b.record_max(Counter::PeakDepth, 3); // lower: no effect
        assert_eq!(b.get(Counter::Backtracks), 3);
        assert_eq!(b.get(Counter::PeakDepth), 5);
        assert!(!b.is_zero());
        let nz: Vec<_> = b.iter_nonzero().collect();
        assert_eq!(nz, vec![(Counter::Backtracks, 3), (Counter::PeakDepth, 5)]);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = CounterBlock::new();
        a.add(Counter::Recursions, 10);
        a.record_max(Counter::PeakDepth, 4);
        let mut b = CounterBlock::new();
        b.add(Counter::Recursions, 5);
        b.record_max(Counter::PeakDepth, 7);
        a.merge(&b);
        assert_eq!(a.get(Counter::Recursions), 15);
        assert_eq!(a.get(Counter::PeakDepth), 7);
    }

    #[test]
    fn atomic_block_snapshots_what_threads_added() {
        let shared = AtomicCounterBlock::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        shared.bump(Counter::QueriesAdmitted);
                    }
                    shared.add(Counter::EmbeddingsStreamed, 7);
                });
            }
        });
        let mut want = CounterBlock::new();
        want.add(Counter::QueriesAdmitted, 400);
        want.add(Counter::EmbeddingsStreamed, 28);
        assert_eq!(shared.snapshot(), want);
    }

    #[test]
    fn intersections_sum_kernels() {
        let mut b = CounterBlock::new();
        b.add(Counter::IntersectMerge, 1);
        b.add(Counter::IntersectHybrid, 2);
        b.add(Counter::IntersectQfilter, 4);
        assert_eq!(b.intersections(), 7);
    }
}
