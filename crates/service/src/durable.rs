//! Durable services: WAL-backed updates, CSR snapshots, instant restart.
//!
//! Every service holds one [`sm_durable::Journal`] — the protocol's
//! single owner, shared with the sharded router — and a service created
//! through [`Service::new_durable`] (fresh directory) or
//! [`Service::open`] (recovery) holds a durable one. From then on every
//! *effective* [`Service::apply_update`] batch is appended to the
//! write-ahead log **before** the post graph is installed, and every
//! [`Service::register_standing`] call logs a registration record — so
//! the durable directory always describes a state the service actually
//! reached, never one it is about to reach. This file is the service's
//! side of that contract: what a snapshot contains, and how one replayed
//! record is applied.
//!
//! Restart is "page-in + tail replay": [`Service::open`] loads the
//! newest valid `snapshot-<epoch>.csr` (the data graph and its NLF index
//! land as ready-made arrays — no text parse, no index rebuild), restores
//! the standing queries with their snapshot-stored embedding sets, then
//! replays the WAL records past the snapshot epoch through the normal
//! update path — while the service still holds its in-memory journal;
//! the recovered store is handed over only when replay has finished. A
//! torn final record (crash mid `write(2)`) is detected by the
//! per-record CRC and dropped: recovery lands on the last
//! fully-committed epoch.

use crate::service::{patch_pairs, GraphData, Service, ServiceConfig};
use crate::update::Standing;
use sm_delta::{UpdateBatch, VersionedGraph};
use sm_durable::{Journal, Recovery, ReplayTarget, SnapshotView, StandingSnapshot};
use sm_graph::label_index::LabelPairEdgeCounts;
use sm_graph::Graph;
use sm_runtime::trace::{Counter, CounterBlock};
use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::MutexGuard;

pub use sm_durable::{DurabilityOptions, FsyncPolicy, RecoveryReport};

/// Fold a journal's WAL and recovery totals into a counter block — the
/// one place the five durability counters get their registry names, for
/// this tier and the sharded router alike (here rather than on `Journal`
/// because `sm-durable` does not depend on the counter registry).
pub fn fold_journal(journal: &Journal, b: &mut CounterBlock) {
    let t = journal.tally();
    b.add(Counter::WalAppends, t.wal_appends);
    b.add(Counter::WalBytes, t.wal_bytes);
    b.add(Counter::SnapshotsWritten, t.snapshots_written);
    b.add(Counter::Recoveries, t.recoveries);
    b.add(Counter::ReplayedBatches, t.replayed_batches);
}

impl Service {
    /// Start a durable service over `graph` in a fresh directory: writes
    /// the epoch-0 snapshot (the initial graph is durable before the
    /// first update is accepted), then opens the WAL. Fails with
    /// `AlreadyExists` if `dir` already holds a snapshot — reopen that
    /// state with [`Service::open`] instead of clobbering it.
    pub fn new_durable(
        graph: Graph,
        cfg: ServiceConfig,
        dir: &Path,
        opts: DurabilityOptions,
    ) -> io::Result<Self> {
        let svc = Service::new(graph, cfg);
        let data = svc.core.graph.lock().expect("graph lock poisoned").clone();
        let journal = Journal::create(dir, opts, &data.snapshot_view(&[]))?;
        *svc.journal() = journal;
        Ok(svc)
    }

    /// Recover a durable service from `dir`: page in the newest valid
    /// snapshot, restore its standing queries with their stored embedding
    /// sets, replay the WAL tail (batches past the snapshot epoch,
    /// registrations past the snapshot's standing count), and resume the
    /// epoch counter exactly where the crashed service left it. A torn
    /// final WAL record is dropped; a batch that replays to a different
    /// epoch than it was logged under is corruption and fails with
    /// `InvalidData`.
    pub fn open(dir: &Path, cfg: ServiceConfig, opts: DurabilityOptions) -> io::Result<Self> {
        let Recovery {
            snapshot: snap,
            feedback,
            pending,
        } = Journal::recover(dir, opts)?;
        // The snapshot carries the label-pair counts, so boot skips the
        // `O(|E|)` edge rescan a fresh `Service::new` would pay.
        let data = GraphData::from_parts_with_pairs(
            snap.graph.clone(),
            snap.nlf.clone(),
            snap.label_pairs,
            snap.epoch,
        );
        let versioned = VersionedGraph::from_materialized(snap.graph, snap.nlf);
        let svc = Service::boot(data, versioned, cfg);
        // The service holds its in-memory journal until the tail has
        // replayed: replay cannot re-append the records it is replaying.
        let mut replay = Replay {
            svc: &svc,
            pending_pairs: None,
        };
        let journal = pending.replay(snap.standing, &mut replay)?;
        replay.install_head();
        // Restore the planner's learned feedback (written as a sidecar by
        // snapshots).
        if let (Some(planner), Some(bytes)) = (&svc.core.planner, feedback) {
            let _ = planner.feedback().merge_bytes(&bytes);
        }
        *svc.journal() = journal;
        Ok(svc)
    }

    /// The service's journal, locked. Always the innermost lock (order:
    /// versioned → graph → standing → journal).
    pub(crate) fn journal(&self) -> MutexGuard<'_, Journal> {
        self.core.journal.lock().expect("journal poisoned")
    }

    /// Whether this service persists updates (created via
    /// [`Service::new_durable`] / [`Service::open`]).
    pub fn is_durable(&self) -> bool {
        self.journal().is_durable()
    }

    /// What recovery did, when this service came from [`Service::open`].
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.journal().recovery_report()
    }

    /// Force a snapshot now (manual compaction): writes the current
    /// state as a fresh `snapshot-<epoch>.csr`, rotates the WAL, and
    /// prunes segments and snapshots the new one supersedes. Returns
    /// `Ok(false)` on a non-durable service. Serializes against
    /// updates.
    pub fn snapshot_now(&self) -> io::Result<bool> {
        let _vg = self.core.versioned.lock().expect("versioned poisoned");
        if !self.is_durable() {
            return Ok(false);
        }
        self.write_snapshot(|journal, view, feedback| journal.snapshot(view, feedback))
    }

    /// Flush the WAL to disk regardless of the fsync policy.
    pub fn sync_durable(&self) -> io::Result<()> {
        self.journal().sync()
    }

    /// Threshold compaction, called at the end of an effective update.
    pub(crate) fn compact_if_due(&self) {
        if self.journal().snapshot_due() {
            self.compact();
        }
    }

    /// Snapshot from inside an update, while the versioned lock is held
    /// (so the snapshot captures exactly the epoch the update installed).
    /// There is no caller to hand an I/O error to and a panic would
    /// poison that lock, so the journal aborts on failure.
    pub(crate) fn compact(&self) {
        if self.is_durable() {
            self.write_snapshot(|journal, view, feedback| journal.compact(view, feedback));
        }
    }

    /// Hand `write` the journal and what a snapshot persists: the
    /// installed graph, NLF index and label-pair counts and every
    /// standing query's set, all borrowed (the encoder reads the
    /// installed arrays, nothing is copied first), plus the planner's
    /// learned costs — a restart then plans with everything this
    /// incarnation observed instead of starting from the cold model.
    /// The standing lock is held across the write (lock order: graph →
    /// standing → journal — `journal` stays the innermost lock).
    fn write_snapshot<R>(
        &self,
        write: impl FnOnce(&mut Journal, &SnapshotView<'_>, Option<&[u8]>) -> R,
    ) -> R {
        let feedback = self.core.planner.as_ref().map(|p| p.feedback().to_bytes());
        let data = self.core.graph.lock().expect("graph lock poisoned").clone();
        let standing = self.core.standing.lock().expect("standing poisoned");
        let view = data.snapshot_view(&standing);
        write(&mut self.journal(), &view, feedback.as_deref())
    }
}

impl GraphData {
    /// This installed state as a snapshot stores it, with `standing`'s
    /// sets — both tiers' snapshot input, borrowed.
    pub fn snapshot_view<'a>(&'a self, standing: &'a [Standing]) -> SnapshotView<'a> {
        SnapshotView {
            epoch: self.epoch,
            graph: &self.graph,
            nlf: &self.nlf,
            label_pairs: &self.label_pairs,
            standing: standing.iter().map(Standing::view).collect(),
        }
    }
}

/// A booted service being brought from its snapshot to the last logged
/// state. Replayed batches go through the live path's own commit and
/// standing-maintenance steps ([`Journal::commit`],
/// [`Service::maintain_standing`]) but skip its per-batch install: the
/// overlay and the label-pair counts are patched per record and
/// installed once per *flush point* — before a logged registration
/// (which enumerates against the installed graph) and at the end of the
/// tail. One materialize for a whole run of batches is what keeps
/// restart near snapshot-load speed with a tail to replay.
struct Replay<'a> {
    svc: &'a Service,
    /// Label-pair counts carried across the batches replayed since the
    /// last flush point; `Some` iff an install is owed.
    pending_pairs: Option<LabelPairEdgeCounts>,
}

impl Replay<'_> {
    /// Flush point: install the overlay head as the service's data graph
    /// under the current epoch, if any batch replayed since the last one.
    fn install_head(&mut self) {
        let Some(pairs) = self.pending_pairs.take() else {
            return;
        };
        let core = &self.svc.core;
        let vg = core.versioned.lock().expect("versioned poisoned");
        let (_, graph, nlf) = vg.export_head();
        let epoch = core.epoch.load(Ordering::Relaxed);
        let data = GraphData::from_parts_with_pairs(graph, nlf, pairs, epoch);
        *core.graph.lock().expect("graph lock poisoned") = data;
    }
}

impl ReplayTarget for Replay<'_> {
    /// The stored embedding set is installed as-is instead of being
    /// re-enumerated — it was maintained against exactly the graph the
    /// snapshot stores.
    fn restore_standing(&mut self, s: StandingSnapshot) -> bool {
        let Some(entry) = Standing::restore(s) else {
            return false;
        };
        let mut standing = self.svc.core.standing.lock().expect("standing poisoned");
        standing.push(entry);
        true
    }

    fn replay_batch(&mut self, batch: &UpdateBatch) -> Option<u64> {
        let core = &self.svc.core;
        let vg = core.versioned.lock().expect("versioned poisoned");
        let epoch = core.epoch.load(Ordering::Relaxed) + 1;
        let committed = self.svc.journal().commit(&vg, epoch, batch)?;
        core.epoch.store(epoch, Ordering::Relaxed);
        self.svc.maintain_standing(&committed);
        let pairs = self.pending_pairs.get_or_insert_with(|| {
            let installed = core.graph.lock().expect("graph lock poisoned");
            installed.label_pairs.clone()
        });
        patch_pairs(pairs, &committed);
        Some(epoch)
    }

    fn replay_standing(&mut self, query: &Graph) -> bool {
        self.install_head();
        self.svc.register_standing(query).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_delta::{UpdateStream, UpdateStreamSpec};
    use sm_graph::gen::rmat::{rmat_graph, RmatParams};
    use std::fs;

    /// The installed graph, NLF index and label-pair counts are exactly
    /// the versioned head's fold at the service's epoch.
    fn assert_installed_is_head(svc: &Service, what: &str) {
        let installed = svc.core.graph.lock().unwrap().clone();
        let (graph, nlf) = svc.snapshot().materialize();
        assert_eq!(installed.epoch, svc.epoch(), "{what}: epoch");
        assert!(installed.graph.csr() == graph.csr(), "{what}: graph");
        assert!(installed.nlf.csr() == nlf.csr(), "{what}: NLF rows");
        assert!(
            installed.nlf.signatures() == nlf.signatures(),
            "{what}: NLF signatures"
        );
        assert_eq!(
            installed.label_pairs.sorted_pairs(),
            LabelPairEdgeCounts::build(&graph).sorted_pairs(),
            "{what}: label pairs"
        );
    }

    /// `n` stream batches, every fourth with a vertex delete added.
    fn drive(svc: &Service, stream: &mut UpdateStream, n: usize) {
        for i in 0..n {
            let head = svc.snapshot();
            let mut batch = stream.next_batch(&head);
            if i % 4 == 3 {
                batch = batch.delete_vertex((i * 37 % head.num_vertices()) as u32);
            }
            svc.apply_update(&batch);
        }
    }

    #[test]
    fn installed_graph_is_the_head_across_a_reopen() {
        let tmp = |tag: &str| {
            let d = std::env::temp_dir()
                .join(format!("sm-service-install-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&d);
            d
        };
        let (dir, copy) = (tmp("live"), tmp("copy"));
        let opts = DurabilityOptions {
            snapshot_threshold_bytes: 0,
            ..Default::default()
        };
        let graph = rmat_graph(200, 4.0, 3, RmatParams::PAPER, 23);
        let svc = Service::new_durable(graph, ServiceConfig::default(), &dir, opts).unwrap();
        let spec = UpdateStreamSpec {
            batch_size: 16,
            insert_ratio: 0.6,
            vertex_add_ratio: 0.1,
            num_labels: 3,
        };
        let mut stream = UpdateStream::new(spec, 5);
        drive(&svc, &mut stream, 12);
        assert!(svc.snapshot_now().unwrap());
        drive(&svc, &mut stream, 12);
        assert_installed_is_head(&svc, "live");

        // Recovery loads the snapshot and replays the tail; the copy
        // then installs further batches from the replayed state.
        svc.sync_durable().unwrap();
        fs::create_dir_all(&copy).unwrap();
        for entry in fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            fs::copy(&path, copy.join(path.file_name().unwrap())).unwrap();
        }
        let reopened = Service::open(&copy, ServiceConfig::default(), opts).unwrap();
        assert_eq!(reopened.recovery_report().unwrap().replayed_batches, 12);
        assert_installed_is_head(&reopened, "reopened");
        drive(&reopened, &mut stream, 16);
        assert_installed_is_head(&reopened, "after reopen");
        drop((svc, reopened));
        let _ = (fs::remove_dir_all(&dir), fs::remove_dir_all(&copy));
    }
}
