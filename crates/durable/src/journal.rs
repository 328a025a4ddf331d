//! [`Journal`]: the one commit → log → install → snapshot → recover
//! lifecycle both service tiers hold.
//!
//! A tier owns exactly one `Journal` — in-memory ([`Journal::default`])
//! or backed by a [`DurableStore`] — and reaches the log only through
//! it: [`Journal::commit`] is the single commit point (an effective
//! batch is appended, and synced per policy, *before* the caller
//! installs the post graph, so no client observes state the log cannot
//! reproduce; it is stamped with the commit's epoch, which is the tier's
//! because a tier seeds its [`VersionedGraph`] at its own epoch),
//! [`Journal::log_standing`] records a registration,
//! [`Journal::snapshot`] / [`Journal::compact`] absorb the log into a
//! snapshot plus the planner's feedback sidecar.
//!
//! Recovery is a two-step hand-over. [`Journal::recover`] returns the
//! snapshot and a [`PendingJournal`] — the store plus the WAL tail, with
//! no way to append. The tier boots from the snapshot holding an
//! in-memory journal, and [`PendingJournal::replay`] drives the tail
//! through the tier's ordinary update path ([`ReplayTarget`]); only when
//! the last record has replayed does it yield the live `Journal`. Replay
//! can therefore never re-append the records it is replaying, by type,
//! and the divergence checks exist here, once.
//!
//! A commit-path I/O failure aborts the process (`durable_io`, below).

use crate::snapshot::{SnapshotData, SnapshotView, StandingSnapshot};
use crate::store::{DurabilityOptions, DurableStore, RecoveryReport};
use crate::wal::WalRecord;
use sm_delta::{Committed, UpdateBatch, VersionedGraph};
use sm_graph::Graph;
use sm_runtime::trace::{Counter, CounterBlock};
use std::io;
use std::path::Path;

/// A tier's handle on its durability state. `Default` is the in-memory
/// journal: commits go through, nothing is logged.
#[derive(Default)]
pub struct Journal {
    store: Option<DurableStore>,
    recovery: Option<RecoveryReport>,
}

/// What [`Journal::recover`] found: the state to boot from, and the
/// handle that becomes the live journal once the tail has replayed.
pub struct Recovery {
    /// The newest valid snapshot.
    pub snapshot: SnapshotData,
    /// The planner-feedback sidecar, when present and intact. Advisory:
    /// a missing image means re-learning, never a failed recovery.
    pub feedback: Option<Vec<u8>>,
    /// The not-yet-installed journal.
    pub pending: PendingJournal,
}

/// A recovered store with its unreplayed WAL tail. Deliberately without
/// any append method: the only way to a live [`Journal`] is
/// [`PendingJournal::replay`].
pub struct PendingJournal {
    store: DurableStore,
    tail: Vec<WalRecord>,
    report: RecoveryReport,
}

/// The tier side of recovery: how one restored or logged record is
/// applied. The tier's own journal is still in-memory while these run.
pub trait ReplayTarget {
    /// Reinstate a standing query the snapshot stored; `false` if it no
    /// longer compiles.
    fn restore_standing(&mut self, standing: StandingSnapshot) -> bool;
    /// Apply one logged batch; returns the epoch the commit installed,
    /// `None` if it was a no-op.
    fn replay_batch(&mut self, batch: &UpdateBatch) -> Option<u64>;
    /// Re-register a logged standing query; `false` if it no longer
    /// compiles.
    fn replay_standing(&mut self, query: &Graph) -> bool;
}

impl Journal {
    /// A durable journal over a fresh directory seeded with `initial`
    /// (see [`DurableStore::create`]).
    pub fn create(
        dir: &Path,
        opts: DurabilityOptions,
        initial: &SnapshotView<'_>,
    ) -> io::Result<Journal> {
        Ok(Journal {
            store: Some(DurableStore::create_view(dir, opts, initial)?),
            recovery: None,
        })
    }

    /// Open an existing durable directory: newest valid snapshot, torn
    /// tail removed from disk, the unabsorbed records held for replay.
    pub fn recover(dir: &Path, opts: DurabilityOptions) -> io::Result<Recovery> {
        let (store, snapshot, tail, report) = DurableStore::open(dir, opts)?;
        Ok(Recovery {
            snapshot,
            feedback: DurableStore::read_feedback(dir)?,
            pending: PendingJournal {
                store,
                tail,
                report,
            },
        })
    }

    /// Whether commits are logged.
    pub fn is_durable(&self) -> bool {
        self.store.is_some()
    }

    /// What recovery did, when this journal came out of a replay.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// The single commit point: commit `batch` against the tier's global
    /// `versioned` graph, which counts the tier's epochs, and, iff it was
    /// effective, append it stamped with the commit's post epoch — the
    /// tier epoch the caller will install. Returns `None` for a batch
    /// that normalized to nothing (nothing changed, nothing was logged).
    pub fn commit(&mut self, versioned: &VersionedGraph, batch: &UpdateBatch) -> Option<Committed> {
        let committed = versioned.commit(batch);
        if committed.info.is_noop() {
            return None;
        }
        if let Some(store) = &mut self.store {
            let epoch = committed.info.epoch;
            durable_io("WAL batch append", store.append_batch(epoch, batch));
        }
        Some(committed)
    }

    /// Log a standing-query registration under its index in the tier's
    /// append-only standing vector.
    pub fn log_standing(&mut self, index: u64, query: &Graph) {
        if let Some(store) = &mut self.store {
            durable_io(
                "WAL standing-registration append",
                store.append_standing(index, query),
            );
        }
    }

    /// Whether the WAL has outgrown the snapshot threshold.
    pub fn snapshot_due(&self) -> bool {
        self.store.as_ref().is_some_and(|s| s.should_snapshot())
    }

    /// Absorb the log into a snapshot of `data`, prune what it
    /// supersedes, and persist the planner `feedback` image beside it.
    /// `Ok(false)` on an in-memory journal. `data` must be the state at
    /// the last committed epoch: callers serialize against updates.
    pub fn snapshot(
        &mut self,
        data: &SnapshotView<'_>,
        feedback: Option<&[u8]>,
    ) -> io::Result<bool> {
        let Some(store) = &mut self.store else {
            return Ok(false);
        };
        store.write_snapshot(data)?;
        if let Some(bytes) = feedback {
            store.write_feedback(bytes)?;
        }
        Ok(true)
    }

    /// [`Journal::snapshot`] from inside an update (threshold compaction,
    /// graph swap), where there is no caller to hand an error to.
    pub fn compact(&mut self, data: &SnapshotView<'_>, feedback: Option<&[u8]>) {
        durable_io("snapshot", self.snapshot(data, feedback));
    }

    /// Flush the WAL to disk regardless of the fsync policy.
    pub fn sync(&mut self) -> io::Result<()> {
        self.store.as_mut().map_or(Ok(()), |s| s.sync())
    }

    /// The store's WAL, snapshot and recovery totals as a registry
    /// block (all zero on an in-memory journal).
    pub fn counters(&self) -> CounterBlock {
        self.store
            .as_ref()
            .map_or_else(CounterBlock::new, |s| s.counters.clone())
    }
}

impl PendingJournal {
    /// Bring `target` from the snapshot to the last logged state:
    /// reinstate the snapshot's `standing` queries, then apply the WAL
    /// tail in append order. A record that no longer applies the way it
    /// was logged is corruption (`InvalidData`). Returns the live
    /// journal — the first moment anything can be appended again.
    pub fn replay(
        self,
        standing: Vec<StandingSnapshot>,
        target: &mut impl ReplayTarget,
    ) -> io::Result<Journal> {
        let ensure = |ok: bool, what: &'static str| {
            ok.then_some(())
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, what))
        };
        for s in standing {
            ensure(
                target.restore_standing(s),
                "snapshot standing query no longer compiles",
            )?;
        }
        for rec in self.tail {
            match rec {
                WalRecord::Batch { epoch, batch } => ensure(
                    target.replay_batch(&batch) == Some(epoch),
                    "WAL replay diverged from the logged epoch",
                )?,
                WalRecord::Standing { query, .. } => ensure(
                    target.replay_standing(&query),
                    "logged standing query no longer compiles",
                )?,
            }
        }
        let mut store = self.store;
        store.counters.bump(Counter::Recoveries);
        store
            .counters
            .add(Counter::ReplayedBatches, self.report.replayed_batches);
        Ok(Journal {
            store: Some(store),
            recovery: Some(self.report),
        })
    }
}

/// Unwrap a durability-critical I/O result; on failure, print a clear
/// message and abort the process. The tiers call into the journal while
/// holding their update-state lock: a `panic!` there would poison
/// that lock and turn one failed `fsync` (say, a transiently full disk)
/// into an opaque cascade of "poisoned" panics on every later call. The
/// durability contract — acknowledged means logged — leaves no correct
/// way to keep serving once the log can't be written, so the process
/// exits loudly and recovery restarts from the last durable state.
fn durable_io<T>(what: &str, res: io::Result<T>) -> T {
    match res {
        Ok(v) => v,
        Err(e) => {
            eprintln!(
                "sm-durable: fatal: {what} failed, durability contract cannot be upheld: {e}"
            );
            std::process::abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{list_segments, FsyncPolicy};
    use sm_graph::builder::graph_from_edges;
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sm-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn seed() -> SnapshotData {
        let graph = graph_from_edges(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3)]);
        let nlf = graph.build_nlf();
        let label_pairs = sm_graph::label_index::LabelPairEdgeCounts::build(&graph);
        SnapshotData {
            epoch: 0,
            graph,
            nlf,
            label_pairs,
            standing: Vec::new(),
        }
    }

    const OPTS: DurabilityOptions = DurabilityOptions {
        fsync: FsyncPolicy::Off,
        segment_bytes: 8 << 20,
        snapshot_threshold_bytes: 0,
    };

    fn wal_bytes_on_disk(dir: &Path) -> u64 {
        list_segments(dir)
            .unwrap()
            .iter()
            .map(|(_, p)| fs::metadata(p).unwrap().len())
            .sum()
    }

    /// A tier reduced to what replay touches: a versioned graph seeded at
    /// the snapshot's epoch, a standing count, and the in-memory journal
    /// a booting tier holds.
    struct Model {
        versioned: VersionedGraph,
        standing: usize,
        journal: Journal,
    }

    impl Model {
        fn boot(graph: Graph, nlf: sm_graph::NlfIndex, epoch: u64) -> Model {
            Model {
                versioned: VersionedGraph::from_materialized(graph, nlf, epoch),
                standing: 0,
                journal: Journal::default(),
            }
        }
    }

    impl ReplayTarget for Model {
        fn restore_standing(&mut self, _: StandingSnapshot) -> bool {
            self.standing += 1;
            true
        }
        fn replay_batch(&mut self, batch: &UpdateBatch) -> Option<u64> {
            let committed = self.journal.commit(&self.versioned, batch)?;
            Some(committed.info.epoch)
        }
        fn replay_standing(&mut self, query: &Graph) -> bool {
            self.journal.log_standing(self.standing as u64, query);
            self.standing += 1;
            true
        }
    }

    #[test]
    fn journal_logs_effective_batches_only() {
        let dir = tmpdir("effective");
        let mut journal = Journal::create(&dir, OPTS, &seed().view()).unwrap();
        let vg = VersionedGraph::new(seed().graph);
        assert!(journal
            .commit(&vg, &UpdateBatch::new().add_edge(0, 2))
            .is_some());
        assert_eq!(journal.counters().get(Counter::WalAppends), 1);
        // A no-op batch commits but never reaches the log.
        assert!(journal
            .commit(&vg, &UpdateBatch::new().add_edge(0, 2))
            .is_none());
        assert_eq!(journal.counters().get(Counter::WalAppends), 1);
        // And an in-memory journal commits through the same path.
        let mut mem = Journal::default();
        assert!(mem
            .commit(&vg, &UpdateBatch::new().delete_edge(0, 1))
            .is_some());
        assert!(mem.counters().is_zero());
        assert!(!mem.is_durable() && !mem.snapshot(&seed().view(), None).unwrap());
        assert_eq!(journal.counters().get(Counter::WalAppends), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pending_recovery_handle_cannot_append() {
        let dir = tmpdir("pending");
        let wedge = graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let mut journal = Journal::create(&dir, OPTS, &seed().view()).unwrap();
        let vg = VersionedGraph::new(seed().graph);
        journal.commit(&vg, &UpdateBatch::new().add_edge(0, 2));
        journal.log_standing(0, &wedge);
        journal.commit(&vg, &UpdateBatch::new().delete_edge(1, 2));
        drop(journal);
        let before = wal_bytes_on_disk(&dir);

        let Recovery {
            snapshot, pending, ..
        } = Journal::recover(&dir, OPTS).unwrap();
        let mut model = Model::boot(snapshot.graph, snapshot.nlf, snapshot.epoch);
        // The whole tail goes through the model's ordinary commit and
        // registration path — and not a byte reaches the directory: the
        // store sits inside `pending`, which has nothing to append with.
        let mut live = pending.replay(snapshot.standing, &mut model).unwrap();
        assert_eq!((model.versioned.epoch(), model.standing), (2, 1));
        assert_eq!(wal_bytes_on_disk(&dir), before, "replay appended nothing");
        let mut want = CounterBlock::new();
        want.add(Counter::Recoveries, 1);
        want.add(Counter::ReplayedBatches, 2);
        assert_eq!(live.counters(), want);
        // Only the journal replay returned logs again.
        live.commit(&model.versioned, &UpdateBatch::new().add_edge(1, 3));
        assert!(wal_bytes_on_disk(&dir) > before);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_rejects_a_tail_that_no_longer_applies() {
        let dir = tmpdir("diverged");
        let mut journal = Journal::create(&dir, OPTS, &seed().view()).unwrap();
        let SnapshotData { graph, nlf, .. } = seed();
        let vg = VersionedGraph::from_materialized(graph, nlf, 4);
        // Logged from a twin seeded at epoch 4, so under epoch 5; a
        // replay from the epoch-0 snapshot lands it on epoch 1.
        journal.commit(&vg, &UpdateBatch::new().add_edge(0, 2));
        drop(journal);
        let Recovery {
            snapshot, pending, ..
        } = Journal::recover(&dir, OPTS).unwrap();
        let mut model = Model::boot(snapshot.graph, snapshot.nlf, snapshot.epoch);
        let err = pending.replay(Vec::new(), &mut model).err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_dir_all(&dir);
    }
}
