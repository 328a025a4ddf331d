//! [`DurableStore`]: one directory holding a snapshot lineage plus the
//! WAL tail after the newest snapshot — everything a service tier needs
//! to come back exactly where it crashed.
//!
//! This is the directory mechanics only. The protocol over it — append
//! before install, replay without re-appending, threshold and manual
//! snapshots — is [`crate::journal::Journal`], the one caller of
//! everything here except [`DurableStore::create`] and
//! [`DurableStore::append_batch`] (which the perf ledger's WAL probe
//! times directly): `create` seeds a fresh directory with snapshot 0;
//! `append_batch` / `append_standing` log; `write_snapshot` absorbs the
//! log into a new snapshot and prunes everything older; and `open`
//! recovers — newest valid snapshot, then the WAL records the snapshot
//! has not absorbed, in append order, with a torn tail truncated off
//! disk so it can never shadow later appends.

use crate::snapshot::{
    list_snapshots, read_snapshot, write_snapshot_view, SnapshotData, SnapshotView,
};
use crate::wal::{list_segments, scan_wal, truncate_torn_tail, FsyncPolicy, WalRecord, WalWriter};
use sm_delta::UpdateBatch;
use sm_graph::Graph;
use sm_runtime::trace::{Counter, CounterBlock};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Tuning knobs of a durable directory.
#[derive(Clone, Copy, Debug)]
pub struct DurabilityOptions {
    /// When WAL appends reach the disk (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Segment size bound: the WAL rotates to a fresh file once the
    /// current one reaches this many bytes.
    pub segment_bytes: u64,
    /// WAL bytes accumulated since the last snapshot that trigger a new
    /// threshold snapshot. `0` disables the threshold (manual snapshots
    /// only).
    pub snapshot_threshold_bytes: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            fsync: FsyncPolicy::PerBatch,
            segment_bytes: 8 << 20,
            snapshot_threshold_bytes: 4 << 20,
        }
    }
}

/// What a recovery found and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch of the snapshot recovery started from.
    pub snapshot_epoch: u64,
    /// Update batches replayed from the WAL tail.
    pub replayed_batches: u64,
    /// Standing-query registrations replayed from the WAL tail.
    pub replayed_registrations: u64,
    /// Bytes dropped from the torn/corrupt end of the log.
    pub dropped_bytes: u64,
}

/// A durable directory: snapshot lineage + WAL, with counters.
pub struct DurableStore {
    dir: PathBuf,
    opts: DurabilityOptions,
    wal: WalWriter,
    wal_bytes_since_snapshot: u64,
    /// `wal_appends`, `wal_bytes` and `snapshots_written` since this
    /// store was opened (`create` counts its seed snapshot), plus the
    /// recovery totals [`crate::PendingJournal::replay`] adds.
    pub(crate) counters: CounterBlock,
}

impl DurableStore {
    /// Seed a fresh durable directory with `initial` as its first
    /// snapshot. Fails with `AlreadyExists` if the directory already
    /// holds a snapshot — an existing store must go through
    /// [`crate::Journal::recover`], never be silently clobbered.
    pub fn create(
        dir: &Path,
        opts: DurabilityOptions,
        initial: &SnapshotData,
    ) -> io::Result<DurableStore> {
        DurableStore::create_view(dir, opts, &initial.view())
    }

    /// [`DurableStore::create`] seeded from borrowed arrays.
    pub(crate) fn create_view(
        dir: &Path,
        opts: DurabilityOptions,
        initial: &SnapshotView<'_>,
    ) -> io::Result<DurableStore> {
        fs::create_dir_all(dir)?;
        if !list_snapshots(dir)?.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "directory already holds a durable store; use open()",
            ));
        }
        write_snapshot_view(dir, initial)?;
        let next_seq = list_segments(dir)?.last().map(|&(s, _)| s + 1).unwrap_or(1);
        let wal = WalWriter::create(dir, opts.fsync, opts.segment_bytes, next_seq)?;
        let mut counters = CounterBlock::new();
        counters.bump(Counter::SnapshotsWritten);
        Ok(DurableStore {
            dir: dir.to_path_buf(),
            opts,
            wal,
            wal_bytes_since_snapshot: 0,
            counters,
        })
    }

    /// Recover from `dir`: load the newest valid snapshot, scan the WAL,
    /// and return the records the snapshot has not absorbed — batch
    /// records stamped with an epoch above the snapshot's, registration
    /// records stamped with an index at or above the snapshot's standing
    /// count — in append order. A torn/corrupt tail is not just skipped
    /// but removed from disk (the torn segment truncated at its last
    /// intact record, later segments deleted) before the new writer
    /// opens: otherwise the next recovery's scan would stop at the same
    /// bad bytes and silently discard everything acknowledged after this
    /// one. New appends go to a fresh segment above everything scanned.
    pub(crate) fn open(
        dir: &Path,
        opts: DurabilityOptions,
    ) -> io::Result<(DurableStore, SnapshotData, Vec<WalRecord>, RecoveryReport)> {
        let mut snaps = list_snapshots(dir)?;
        snaps.reverse();
        if snaps.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "no snapshot in durable directory",
            ));
        }
        // Newest first; fall back past corrupt files (the atomic
        // tmp+rename write makes these rare, but recovery must not wedge
        // on one).
        let mut snapshot = None;
        for (_, path) in &snaps {
            match read_snapshot(path) {
                Ok(data) => {
                    snapshot = Some(data);
                    break;
                }
                Err(_) => continue,
            }
        }
        let Some(snapshot) = snapshot else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "every snapshot in the durable directory is corrupt",
            ));
        };

        let scan = scan_wal(dir)?;
        truncate_torn_tail(dir, &scan)?;
        let standing_count = snapshot.standing.len() as u64;
        let mut tail = Vec::new();
        let mut report = RecoveryReport {
            snapshot_epoch: snapshot.epoch,
            dropped_bytes: scan.dropped_bytes,
            ..Default::default()
        };
        for rec in scan.records {
            match &rec {
                WalRecord::Batch { epoch, .. } if *epoch > snapshot.epoch => {
                    report.replayed_batches += 1;
                    tail.push(rec);
                }
                WalRecord::Standing { index, .. } if *index >= standing_count => {
                    report.replayed_registrations += 1;
                    tail.push(rec);
                }
                _ => {} // absorbed by the snapshot
            }
        }
        let next_seq = scan.segments.last().map(|&s| s + 1).unwrap_or(1);
        let wal = WalWriter::create(dir, opts.fsync, opts.segment_bytes, next_seq)?;
        let store = DurableStore {
            dir: dir.to_path_buf(),
            opts,
            wal,
            wal_bytes_since_snapshot: 0,
            counters: CounterBlock::new(),
        };
        Ok((store, snapshot, tail, report))
    }

    /// Append an effective update batch, stamped with the tier epoch its
    /// commit installs. Returns the framed byte count.
    pub fn append_batch(&mut self, epoch: u64, batch: &UpdateBatch) -> io::Result<u64> {
        self.append(&WalRecord::Batch {
            epoch,
            batch: batch.clone(),
        })
    }

    /// Append a standing-query registration, stamped with its index in
    /// the tier's append-only standing vector.
    pub(crate) fn append_standing(&mut self, index: u64, query: &Graph) -> io::Result<u64> {
        self.append(&WalRecord::Standing {
            index,
            query: query.clone(),
        })
    }

    fn append(&mut self, rec: &WalRecord) -> io::Result<u64> {
        let n = self.wal.append(rec)?;
        self.wal_bytes_since_snapshot += n;
        self.counters.bump(Counter::WalAppends);
        self.counters.add(Counter::WalBytes, n);
        Ok(n)
    }

    /// Whether the WAL has grown past the snapshot threshold since the
    /// last snapshot.
    pub(crate) fn should_snapshot(&self) -> bool {
        self.opts.snapshot_threshold_bytes > 0
            && self.wal_bytes_since_snapshot >= self.opts.snapshot_threshold_bytes
    }

    /// Write a new snapshot absorbing everything logged so far, rotate
    /// the WAL to a fresh segment, and prune the older segments and
    /// snapshot files. After this returns, recovery starts from `data`.
    pub(crate) fn write_snapshot(&mut self, data: &SnapshotView<'_>) -> io::Result<u64> {
        let (path, bytes) = write_snapshot_view(&self.dir, data)?;
        self.wal.rotate()?;
        self.wal.remove_segments_below(self.wal.seq())?;
        for (_, old) in list_snapshots(&self.dir)? {
            if old != path {
                fs::remove_file(old)?;
            }
        }
        self.wal_bytes_since_snapshot = 0;
        self.counters.bump(Counter::SnapshotsWritten);
        Ok(bytes)
    }

    /// Force an `fsync` of the WAL now (used on clean shutdown under the
    /// interval/off policies).
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.wal.sync()
    }

    /// Persist an opaque sidecar payload (the self-tuning planner's
    /// feedback image) alongside the snapshot lineage. Written
    /// atomically — `.tmp` sibling, `fsync`, rename, directory `fsync` —
    /// with a magic + length + CRC32 frame, so a torn write is detected
    /// on read and reported as absent rather than garbage. The payload
    /// is advisory state: losing it costs re-learning, never
    /// correctness, which is why it rides outside the snapshot format
    /// (old stores open unchanged).
    pub(crate) fn write_feedback(&mut self, payload: &[u8]) -> io::Result<()> {
        let path = self.dir.join(FEEDBACK_FILE);
        let tmp = self.dir.join(FEEDBACK_TMP);
        let mut framed = Vec::with_capacity(16 + payload.len());
        framed.extend_from_slice(&FEEDBACK_MAGIC);
        framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        framed.extend_from_slice(&crate::codec::crc32(payload).to_le_bytes());
        framed.extend_from_slice(payload);
        {
            let mut f = fs::File::create(&tmp)?;
            io::Write::write_all(&mut f, &framed)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, &path)?;
        crate::wal::sync_dir(&self.dir)?;
        Ok(())
    }

    /// Read back the sidecar payload written by
    /// [`DurableStore::write_feedback`]. Returns `Ok(None)` when the
    /// file is absent *or* fails validation — advisory state degrades to
    /// "nothing learned yet", it never fails recovery.
    pub(crate) fn read_feedback(dir: &Path) -> io::Result<Option<Vec<u8>>> {
        let path = dir.join(FEEDBACK_FILE);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        if bytes.len() < 16 || bytes[..4] != FEEDBACK_MAGIC {
            return Ok(None);
        }
        let len = u64::from_le_bytes(bytes[4..12].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        let Some(payload) = bytes.get(16..16 + len) else {
            return Ok(None);
        };
        if bytes.len() != 16 + len || crate::codec::crc32(payload) != crc {
            return Ok(None);
        }
        Ok(Some(payload.to_vec()))
    }
}

/// Sidecar file holding the planner's serialized feedback store.
const FEEDBACK_FILE: &str = "feedback.bin";
const FEEDBACK_TMP: &str = "feedback.bin.tmp";
const FEEDBACK_MAGIC: [u8; 4] = *b"SMFB";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::StandingSnapshot;
    use sm_graph::builder::graph_from_edges;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sm-durable-store-{tag}-{}", std::process::id()));
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

    #[test]
    fn create_refuses_to_clobber() {
        let dir = tmpdir("clobber");
        let _store = DurableStore::create(&dir, DurabilityOptions::default(), &seed()).unwrap();
        let err = DurableStore::create(&dir, DurabilityOptions::default(), &seed())
            .err()
            .expect("second create must fail");
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_replays_only_what_the_snapshot_missed() {
        let dir = tmpdir("filter");
        let opts = DurabilityOptions {
            fsync: FsyncPolicy::Off,
            ..Default::default()
        };
        let mut store = DurableStore::create(&dir, opts, &seed()).unwrap();
        store
            .append_batch(1, &UpdateBatch::new().add_edge(0, 2))
            .unwrap();
        store
            .append_standing(0, &graph_from_edges(&[0, 1], &[(0, 1)]))
            .unwrap();
        store
            .append_batch(2, &UpdateBatch::new().add_edge(0, 3))
            .unwrap();
        // Snapshot at epoch 2 with the one standing query absorbed.
        let mut absorbed = seed();
        absorbed.epoch = 2;
        absorbed.standing.push(StandingSnapshot {
            query: graph_from_edges(&[0, 1], &[(0, 1)]),
            matches: Vec::new(),
        });
        store.write_snapshot(&absorbed.view()).unwrap();
        store
            .append_batch(3, &UpdateBatch::new().delete_edge(1, 2))
            .unwrap();
        drop(store);

        let (_store, snap, tail, report) = DurableStore::open(&dir, opts).unwrap();
        assert_eq!(snap.epoch, 2);
        assert_eq!(snap.standing.len(), 1);
        assert_eq!(tail.len(), 1, "only the post-snapshot batch replays");
        assert_eq!(report.replayed_batches, 1);
        assert_eq!(report.replayed_registrations, 0);
        assert_eq!(report.dropped_bytes, 0);
        match &tail[0] {
            WalRecord::Batch { epoch, batch } => {
                assert_eq!(*epoch, 3);
                assert_eq!(batch.delete_edges, vec![(1, 2)]);
            }
            other => panic!("unexpected tail record {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_removes_torn_tail_so_post_crash_appends_survive_a_second_crash() {
        let dir = tmpdir("torn-tail");
        let opts = DurabilityOptions {
            fsync: FsyncPolicy::Off,
            ..Default::default()
        };
        let mut store = DurableStore::create(&dir, opts, &seed()).unwrap();
        store
            .append_batch(1, &UpdateBatch::new().add_edge(0, 2))
            .unwrap();
        store
            .append_batch(2, &UpdateBatch::new().add_edge(0, 3))
            .unwrap();
        drop(store);
        // Crash tore the second record mid-write.
        let (_, seg) = list_segments(&dir).unwrap().pop().unwrap();
        let full = fs::read(&seg).unwrap();
        fs::write(&seg, &full[..full.len() - 3]).unwrap();

        let (mut store, _, tail, report) = DurableStore::open(&dir, opts).unwrap();
        assert_eq!(report.replayed_batches, 1);
        assert!(report.dropped_bytes > 0);
        // The torn bytes are gone from disk, not just skipped.
        assert!(fs::metadata(&seg).unwrap().len() < (full.len() - 3) as u64);
        assert_eq!(tail.len(), 1);
        // A batch acknowledged after recovery must survive the NEXT
        // restart — before the tail was truncated, the second scan
        // stopped at the stale torn bytes and dropped this record.
        store
            .append_batch(2, &UpdateBatch::new().delete_edge(1, 2))
            .unwrap();
        drop(store);
        let (_store, _snap, tail, report) = DurableStore::open(&dir, opts).unwrap();
        assert_eq!(report.dropped_bytes, 0, "no torn bytes left behind");
        assert_eq!(
            report.replayed_batches, 2,
            "both the pre-crash and post-recovery batches replay"
        );
        match &tail[1] {
            WalRecord::Batch { epoch, batch } => {
                assert_eq!(*epoch, 2);
                assert_eq!(batch.delete_edges, vec![(1, 2)]);
            }
            other => panic!("unexpected tail record {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_prunes_wal_and_old_snapshots() {
        let dir = tmpdir("prune");
        let opts = DurabilityOptions {
            fsync: FsyncPolicy::Off,
            segment_bytes: 1, // rotate on every append
            snapshot_threshold_bytes: 1,
        };
        let mut store = DurableStore::create(&dir, opts, &seed()).unwrap();
        store
            .append_batch(1, &UpdateBatch::new().add_edge(0, 2))
            .unwrap();
        assert!(store.should_snapshot());
        let mut next = seed();
        next.epoch = 1;
        store.write_snapshot(&next.view()).unwrap();
        assert!(!store.should_snapshot());
        assert_eq!(list_snapshots(&dir).unwrap().len(), 1);
        assert_eq!(list_segments(&dir).unwrap().len(), 1);
        assert_eq!(store.counters.get(Counter::SnapshotsWritten), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn feedback_sidecar_roundtrips_and_rejects_corruption() {
        let dir = tmpdir("feedback");
        let opts = DurabilityOptions {
            fsync: FsyncPolicy::Off,
            ..Default::default()
        };
        let mut store = DurableStore::create(&dir, opts, &seed()).unwrap();
        // absent before the first write
        assert_eq!(DurableStore::read_feedback(&dir).unwrap(), None);
        let payload = vec![7u8; 300];
        store.write_feedback(&payload).unwrap();
        assert_eq!(DurableStore::read_feedback(&dir).unwrap(), Some(payload));
        // overwrites replace
        store.write_feedback(&[1, 2, 3]).unwrap();
        assert_eq!(
            DurableStore::read_feedback(&dir).unwrap(),
            Some(vec![1, 2, 3])
        );
        // a flipped payload byte fails the CRC → reported absent
        let path = dir.join(super::FEEDBACK_FILE);
        let mut bytes = fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(DurableStore::read_feedback(&dir).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }
}
