//! Durable tiers: WAL-backed updates, CSR snapshots, instant restart.
//!
//! The durable side of [`UpdateState`], which both tiers hold: a state
//! created by [`UpdateState::create`] (fresh directory) or
//! [`UpdateState::open`] (recovery) holds a durable
//! [`sm_durable::Journal`]. From then on every *effective* commit is
//! appended to the write-ahead log **before** the post graph is
//! installed, and every standing registration logs a record — so the
//! durable directory always describes a state the tier actually reached,
//! never one it is about to reach. A snapshot stores the head graph, its
//! NLF index and label-pair counts and every standing set, borrowed from
//! the state (nothing is copied first), with the planner's learned costs
//! beside it.
//!
//! Restart is "page-in + tail replay": [`UpdateState::open`] loads the
//! newest valid `snapshot-<epoch>.csr` (the data graph and its NLF index
//! land as ready-made arrays — no text parse, no index rebuild) as the
//! head, restores the standing queries with their snapshot-stored
//! embedding sets, then replays the WAL records past the snapshot epoch
//! through the state's own commit and registration steps — while the
//! state still holds its in-memory journal; the recovered store is
//! handed over only when replay has finished. A torn final record (crash
//! mid `write(2)`) is detected by the per-record CRC and dropped:
//! recovery lands on the last fully-committed epoch. The versioned twin
//! the replayed batches commit through is seeded at the snapshot's
//! epoch, so each record's logged stamp is checked against the epoch its
//! commit reaches, and the recovered head takes the epoch the twin's
//! export returns.
//! [`Service::open`] and the sharded router's `open` then start from the
//! recovered state.

use crate::service::{patch_pairs, GraphData, Service, ServiceConfig};
use crate::update::{Inner, Standing, UpdateState};
use sm_delta::UpdateBatch;
use sm_durable::{Journal, Recovery, ReplayTarget, SnapshotView, StandingSnapshot};
use sm_graph::label_index::LabelPairEdgeCounts;
use sm_graph::Graph;
use sm_match::MatchSemantics;
use std::io;
use std::path::Path;

pub use sm_durable::{DurabilityOptions, FsyncPolicy, RecoveryReport};

impl UpdateState {
    /// A durable state over `graph` in a fresh directory: writes the
    /// epoch-0 snapshot (the initial graph is durable before the first
    /// update is accepted), then opens the WAL. Fails with
    /// `AlreadyExists` if `dir` already holds a snapshot.
    pub fn create(
        graph: Graph,
        cfg: &ServiceConfig,
        dir: &Path,
        opts: DurabilityOptions,
    ) -> io::Result<UpdateState> {
        let state = UpdateState::new(graph, cfg);
        {
            let mut inner = state.lock();
            let journal = Journal::create(dir, opts, &inner.head.snapshot_view(&[]))?;
            inner.journal = journal;
        }
        Ok(state)
    }

    /// Recover a durable state from `dir`: page in the newest valid
    /// snapshot as the head, restore its standing queries with their
    /// stored sets, replay the WAL tail (batches past the snapshot epoch,
    /// registrations past the snapshot's standing count), and restore the
    /// planner's learned costs into `cfg`'s feedback store. A torn final
    /// WAL record is dropped; a batch that replays to a different epoch
    /// than it was logged under is corruption and fails with
    /// `InvalidData`.
    pub fn open(dir: &Path, cfg: &ServiceConfig, opts: DurabilityOptions) -> io::Result<Self> {
        let Recovery {
            snapshot: snap,
            feedback,
            pending,
        } = Journal::recover(dir, opts)?;
        // The snapshot carries the label-pair counts, so boot skips the
        // `O(|E|)` edge rescan a fresh head would pay.
        let head =
            GraphData::from_parts_with_pairs(snap.graph, snap.nlf, snap.label_pairs, snap.epoch);
        let mut inner = Inner::new(head);
        let mut replay = Replay {
            inner: &mut inner,
            workers: cfg.workers,
            pending_pairs: None,
        };
        let journal = pending.replay(snap.standing, &mut replay)?;
        replay.install_head();
        inner.journal = journal;
        let state = UpdateState::with_inner(inner, cfg, None);
        if let (Some(store), Some(bytes)) = (state.feedback(), feedback) {
            let _ = store.merge_bytes(&bytes);
        }
        Ok(state)
    }

    /// Whether commits are logged.
    pub fn is_durable(&self) -> bool {
        self.lock().journal.is_durable()
    }

    /// What recovery did, when this state came from
    /// [`UpdateState::open`].
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.lock().journal.recovery_report()
    }

    /// Write the head and standing sets as a fresh snapshot now, rotate
    /// the WAL, and prune what the new snapshot supersedes. `Ok(false)`
    /// on an in-memory state. Serializes against commits.
    pub fn snapshot_now(&self) -> io::Result<bool> {
        let mut inner = self.lock();
        let feedback = self.feedback_image(&inner);
        let inner = &mut *inner;
        let view = inner.head.snapshot_view(&inner.standing);
        inner.journal.snapshot(&view, feedback.as_deref())
    }

    /// Flush the WAL to disk regardless of the fsync policy.
    pub fn sync(&self) -> io::Result<()> {
        self.lock().journal.sync()
    }

    /// [`UpdateState::snapshot_now`] from inside a commit or swap, whose
    /// lock the caller holds (so the snapshot captures exactly the epoch
    /// it installed). There is no caller to hand an I/O error to, so the
    /// journal aborts on failure.
    pub(crate) fn compact(&self, inner: &mut Inner) {
        let feedback = self.feedback_image(inner);
        let view = inner.head.snapshot_view(&inner.standing);
        inner.journal.compact(&view, feedback.as_deref());
    }

    /// The feedback bytes a snapshot persists, taken only when one will
    /// be written.
    fn feedback_image(&self, inner: &Inner) -> Option<Vec<u8>> {
        let store = self.feedback().filter(|_| inner.journal.is_durable())?;
        Some(store.to_bytes())
    }
}

impl GraphData {
    /// This installed state as a snapshot stores it, with `standing`'s
    /// sets, borrowed.
    pub(crate) fn snapshot_view<'a>(&'a self, standing: &'a [Standing]) -> SnapshotView<'a> {
        SnapshotView {
            epoch: self.epoch,
            graph: &self.graph,
            nlf: &self.nlf,
            label_pairs: &self.label_pairs,
            standing: standing.iter().map(Standing::view).collect(),
        }
    }
}

/// A recovering state being brought from its snapshot to the last logged
/// state. Replayed batches go through the live path's own commit and
/// standing-maintenance steps ([`Inner::commit`], [`Inner::maintain`])
/// but skip its per-batch install: the twin and the label-pair counts are
/// patched per record and the head is installed once per *flush point* —
/// before a logged registration (which enumerates against the head) and
/// at the end of the tail. One materialize for a whole run of batches is
/// what keeps restart near snapshot-load speed with a tail to replay.
/// The twin, seeded at the snapshot's epoch, counts the replayed epochs.
struct Replay<'a> {
    inner: &'a mut Inner,
    workers: usize,
    /// Label-pair counts carried across the batches replayed since the
    /// last flush point; `Some` iff an install is owed.
    pending_pairs: Option<LabelPairEdgeCounts>,
}

impl Replay<'_> {
    /// Flush point: install the twin's head as the state's head at its
    /// epoch, if any batch replayed since the last one.
    fn install_head(&mut self) {
        let Some(pairs) = self.pending_pairs.take() else {
            return;
        };
        let twin = self.inner.versioned.as_ref().expect("a batch built it");
        let (epoch, graph, nlf) = twin.export_head();
        self.inner.head = GraphData::from_parts_with_pairs(graph, nlf, pairs, epoch);
    }
}

impl ReplayTarget for Replay<'_> {
    /// The stored embedding set is installed as-is instead of being
    /// re-enumerated — it was maintained against exactly the graph the
    /// snapshot stores.
    fn restore_standing(&mut self, s: StandingSnapshot) -> bool {
        Standing::restore(s)
            .map(|entry| self.inner.standing.push(entry))
            .is_some()
    }

    fn replay_batch(&mut self, batch: &UpdateBatch) -> Option<u64> {
        let committed = self.inner.commit(batch)?;
        self.inner.maintain(&committed, self.workers);
        let head = &self.inner.head;
        let pairs = self
            .pending_pairs
            .get_or_insert_with(|| head.label_pairs.clone());
        patch_pairs(pairs, &committed);
        Some(committed.info.epoch)
    }

    fn replay_standing(&mut self, query: &Graph) -> bool {
        self.install_head();
        self.inner
            .register(query, MatchSemantics::default())
            .is_ok()
    }
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
        let state = UpdateState::create(graph, &cfg, dir, opts)?;
        Ok(Service::boot(state, cfg))
    }

    /// Recover a durable service from `dir` ([`UpdateState::open`]): the
    /// epoch counter resumes exactly where the crashed service left it.
    pub fn open(dir: &Path, cfg: ServiceConfig, opts: DurabilityOptions) -> io::Result<Self> {
        let state = UpdateState::open(dir, &cfg, opts)?;
        Ok(Service::boot(state, cfg))
    }

    /// Whether this service persists updates (created via
    /// [`Service::new_durable`] / [`Service::open`]).
    pub fn is_durable(&self) -> bool {
        self.core.state.is_durable()
    }

    /// What recovery did, when this service came from [`Service::open`].
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.core.state.recovery_report()
    }

    /// Force a snapshot now (manual compaction): writes the current
    /// state as a fresh `snapshot-<epoch>.csr`, rotates the WAL, and
    /// prunes segments and snapshots the new one supersedes. Returns
    /// `Ok(false)` on a non-durable service. Serializes against
    /// updates.
    pub fn snapshot_now(&self) -> io::Result<bool> {
        self.core.state.snapshot_now()
    }

    /// Flush the WAL to disk regardless of the fsync policy.
    pub fn sync_durable(&self) -> io::Result<()> {
        self.core.state.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_delta::{UpdateStream, UpdateStreamSpec};
    use sm_graph::gen::rmat::{rmat_graph, RmatParams};
    use std::fs;
    use std::sync::Arc;

    /// The installed graph, NLF index and label-pair counts are exactly
    /// the versioned head's fold at the service's epoch, and the query
    /// slot holds the update state's head.
    fn assert_installed_is_head(svc: &Service, what: &str) {
        let installed = svc.core.graph.lock().unwrap().clone();
        assert!(
            Arc::ptr_eq(&installed, &svc.core.state.head()),
            "{what}: slot"
        );
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
