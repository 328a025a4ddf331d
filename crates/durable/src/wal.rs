//! The append-only write-ahead log.
//!
//! A WAL is a directory of segment files `wal-<seq>.seg`, each a run of
//! framed records:
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! payload = [kind: u8] body
//!   kind 0 (batch):    [epoch: u64] [UpdateBatch codec]
//!   kind 1 (standing): [index: u64] [query-graph codec]
//! ```
//!
//! Batch records are stamped with the *service* epoch their commit
//! installs; standing records with their index in the service's
//! append-only standing vector. Both stamps exist so recovery can filter
//! the log against the snapshot it starts from (replay exactly the
//! records the snapshot has not absorbed) without the writer ever
//! needing to truncate the log at snapshot time.
//!
//! The reader accepts the longest prefix of fully-written records and
//! drops everything from the first short, oversized, checksum-failing,
//! or undecodable record onward — a torn final record from a crash
//! mid-append is tolerated by construction, and the dropped byte count
//! is reported so recovery can say what it discarded.
//! [`truncate_torn_tail`] then removes the dropped bytes from disk, so
//! a later scan never stops at stale torn bytes and discards records
//! appended after the recovery that skipped them.

use crate::codec::{
    crc32, decode_batch, decode_graph, encode_batch, encode_graph, CodecError, Dec, Enc,
};
use sm_delta::UpdateBatch;
use sm_graph::Graph;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// When `fsync` runs relative to WAL appends — the durability/latency
/// knob of the group-commit policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended record: no committed batch is ever
    /// lost, at one disk sync per update.
    PerBatch,
    /// `fsync` at most once per interval: batches inside the window ride
    /// the next sync (group commit); a crash can lose up to one window.
    Interval(Duration),
    /// Never `fsync` explicitly; the OS flushes on its own schedule.
    /// Fastest, loses the OS write-back window on power failure.
    Off,
}

/// One logical WAL record.
#[derive(Clone, Debug)]
pub enum WalRecord {
    /// An effective update batch, stamped with the service epoch its
    /// commit installs.
    Batch {
        /// The tier epoch the replayed commit must land on.
        epoch: u64,
        /// The client batch as submitted (pre-normalization; replaying it
        /// against the same pre-state normalizes identically).
        batch: UpdateBatch,
    },
    /// A standing-query registration, stamped with its index in the
    /// tier's append-only standing vector.
    Standing {
        /// Position in the standing vector — the stable identity of the
        /// registration (standing ids are never reused).
        index: u64,
        /// The registered query graph.
        query: Graph,
    },
}

const KIND_BATCH: u8 = 0;
const KIND_STANDING: u8 = 1;

/// Frame a record: `[len][crc][payload]`, ready to append.
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut payload = Enc::new();
    match rec {
        WalRecord::Batch { epoch, batch } => {
            payload.put_u8(KIND_BATCH);
            payload.put_u64(*epoch);
            encode_batch(batch, &mut payload);
        }
        WalRecord::Standing { index, query } => {
            payload.put_u8(KIND_STANDING);
            payload.put_u64(*index);
            encode_graph(query, &mut payload);
        }
    }
    let payload = payload.into_bytes();
    let mut framed = Enc::new();
    framed.put_u32(payload.len() as u32);
    framed.put_u32(crc32(&payload));
    framed.put_bytes(&payload);
    framed.into_bytes()
}

/// Decode one record payload (the bytes after the `[len][crc]` frame).
pub fn decode_payload(payload: &[u8]) -> Result<WalRecord, CodecError> {
    let mut dec = Dec::new(payload);
    let rec = match dec.get_u8()? {
        KIND_BATCH => WalRecord::Batch {
            epoch: dec.get_u64()?,
            batch: decode_batch(&mut dec)?,
        },
        KIND_STANDING => WalRecord::Standing {
            index: dec.get_u64()?,
            query: decode_graph(&mut dec)?,
        },
        _ => return Err(CodecError::Invalid("unknown record kind")),
    };
    if !dec.finished() {
        return Err(CodecError::Invalid("trailing bytes in record"));
    }
    Ok(rec)
}

/// Path of segment `seq` under `dir`.
pub fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:016x}.seg"))
}

/// Segment files under `dir`, as `(seq, path)` sorted ascending by seq.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(hex) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".seg"))
        {
            if let Ok(seq) = u64::from_str_radix(hex, 16) {
                out.push((seq, path));
            }
        }
    }
    out.sort_unstable_by_key(|&(seq, _)| seq);
    Ok(out)
}

/// Where a scan stopped on a torn/corrupt record: the segment holding
/// it and how many bytes of intact records precede it there. Everything
/// from this point on (including later segments) was dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TornTail {
    /// Seq of the segment the first bad record lives in.
    pub seq: u64,
    /// Byte offset of the end of the last intact record in that segment.
    pub valid_bytes: u64,
}

/// The outcome of scanning a WAL directory: the longest prefix of fully
/// committed records, plus what was discarded after it.
pub struct WalScan {
    /// Fully-written records, in append order across segments.
    pub records: Vec<WalRecord>,
    /// Bytes dropped from the first torn/corrupt record onward.
    pub dropped_bytes: u64,
    /// Segment seqs present, ascending.
    pub segments: Vec<u64>,
    /// Where scanning stopped, if a torn/corrupt record was hit.
    pub torn: Option<TornTail>,
}

/// Read every segment under `dir` in seq order and return the longest
/// prefix of intact records. Scanning stops at the first record whose
/// frame is short, whose length overruns the segment, whose checksum
/// fails, or whose payload does not decode; that record and everything
/// after it (including later segments) count as dropped bytes.
pub fn scan_wal(dir: &Path) -> io::Result<WalScan> {
    let segments = list_segments(dir)?;
    let mut scan = WalScan {
        records: Vec::new(),
        dropped_bytes: 0,
        segments: segments.iter().map(|&(seq, _)| seq).collect(),
        torn: None,
    };
    let mut stopped = false;
    for &(seq, ref path) in &segments {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        if stopped {
            scan.dropped_bytes += bytes.len() as u64;
            continue;
        }
        let mut pos = 0usize;
        while pos < bytes.len() {
            let intact = (|| {
                if bytes.len() - pos < 8 {
                    return None;
                }
                let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
                let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
                let payload = bytes.get(pos + 8..pos + 8 + len)?;
                if crc32(payload) != crc {
                    return None;
                }
                decode_payload(payload).ok().map(|rec| (rec, 8 + len))
            })();
            match intact {
                Some((rec, consumed)) => {
                    scan.records.push(rec);
                    pos += consumed;
                }
                None => {
                    scan.dropped_bytes += (bytes.len() - pos) as u64;
                    scan.torn = Some(TornTail {
                        seq,
                        valid_bytes: pos as u64,
                    });
                    stopped = true;
                    break;
                }
            }
        }
    }
    Ok(scan)
}

/// `fsync` the directory itself, making renames, file creations, and
/// unlinks inside it durable. A no-op where directories cannot be
/// opened as files.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// Remove the bytes a scan dropped from disk: truncate the torn segment
/// at its last intact record and delete every segment after it, then
/// `fsync` the directory. Without this, the torn bytes sit below any
/// segment recovery appends into, and the *next* scan stops at them
/// again — silently discarding records durably committed after the
/// crash. A scan with no torn tail is a no-op.
pub fn truncate_torn_tail(dir: &Path, scan: &WalScan) -> io::Result<()> {
    let Some(torn) = scan.torn else {
        return Ok(());
    };
    let file = OpenOptions::new()
        .write(true)
        .open(segment_path(dir, torn.seq))?;
    file.set_len(torn.valid_bytes)?;
    file.sync_all()?;
    for (seq, path) in list_segments(dir)? {
        if seq > torn.seq {
            fs::remove_file(path)?;
        }
    }
    sync_dir(dir)
}

/// The appending half of the WAL: writes framed records to the current
/// segment, syncs per [`FsyncPolicy`], rotates segments at a size bound.
pub struct WalWriter {
    dir: PathBuf,
    policy: FsyncPolicy,
    segment_bytes: u64,
    file: File,
    seq: u64,
    current_bytes: u64,
    last_sync: Instant,
    dirty: bool,
}

impl WalWriter {
    /// Open a brand-new segment numbered `seq` under `dir` (the caller
    /// picks a seq above every existing segment). Fails if the segment
    /// file already exists — seqs are never reused.
    pub fn create(
        dir: &Path,
        policy: FsyncPolicy,
        segment_bytes: u64,
        seq: u64,
    ) -> io::Result<WalWriter> {
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(segment_path(dir, seq))?;
        // The segment's directory entry must survive power loss along
        // with its contents.
        sync_dir(dir)?;
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            policy,
            segment_bytes: segment_bytes.max(1),
            file,
            seq,
            current_bytes: 0,
            last_sync: Instant::now(),
            dirty: false,
        })
    }

    /// Append one record, sync according to policy, rotate if the segment
    /// is full. Returns the framed byte count.
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<u64> {
        let framed = encode_record(rec);
        self.file.write_all(&framed)?;
        self.dirty = true;
        self.current_bytes += framed.len() as u64;
        match self.policy {
            FsyncPolicy::PerBatch => self.sync()?,
            FsyncPolicy::Interval(window) => {
                if self.last_sync.elapsed() >= window {
                    self.sync()?;
                }
            }
            FsyncPolicy::Off => {}
        }
        if self.current_bytes >= self.segment_bytes {
            self.rotate()?;
        }
        Ok(framed.len() as u64)
    }

    /// Force an `fsync` of the current segment now.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.dirty {
            self.file.sync_data()?;
            self.dirty = false;
        }
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Close the current segment (synced) and start the next one.
    pub fn rotate(&mut self) -> io::Result<()> {
        self.sync()?;
        let next = self.seq + 1;
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(segment_path(&self.dir, next))?;
        sync_dir(&self.dir)?;
        self.file = file;
        self.seq = next;
        self.current_bytes = 0;
        self.dirty = false;
        Ok(())
    }

    /// Delete every segment with a seq strictly below `seq` (WAL pruning
    /// after a snapshot). Returns how many files were removed.
    pub fn remove_segments_below(&self, seq: u64) -> io::Result<u64> {
        let mut removed = 0;
        for (s, path) in list_segments(&self.dir)? {
            if s < seq {
                fs::remove_file(path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Seq of the segment currently being appended to.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        // Best-effort final sync so `FsyncPolicy::Interval`/`Off` don't
        // lose the tail on a clean shutdown.
        let _ = self.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sm-durable-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn batch_rec(epoch: u64) -> WalRecord {
        WalRecord::Batch {
            epoch,
            batch: UpdateBatch::new().add_edge(0, 1).delete_vertex(2),
        }
    }

    #[test]
    fn append_and_scan_round_trip() {
        let dir = tmpdir("roundtrip");
        let mut w = WalWriter::create(&dir, FsyncPolicy::Off, 1 << 20, 1).unwrap();
        for e in 1..=5 {
            w.append(&batch_rec(e)).unwrap();
        }
        let q = sm_graph::builder::graph_from_edges(&[0, 0], &[(0, 1)]);
        w.append(&WalRecord::Standing {
            index: 0,
            query: q.clone(),
        })
        .unwrap();
        w.sync().unwrap();
        let scan = scan_wal(&dir).unwrap();
        assert_eq!(scan.records.len(), 6);
        assert_eq!(scan.dropped_bytes, 0);
        match &scan.records[0] {
            WalRecord::Batch { epoch, batch } => {
                assert_eq!(*epoch, 1);
                assert_eq!(batch.add_edges, vec![(0, 1)]);
                assert_eq!(batch.delete_vertices, vec![2]);
            }
            other => panic!("expected batch, got {other:?}"),
        }
        match &scan.records[5] {
            WalRecord::Standing { index, query } => {
                assert_eq!(*index, 0);
                assert_eq!(query.num_edges(), 1);
            }
            other => panic!("expected standing, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_splits_segments_and_scan_spans_them() {
        let dir = tmpdir("rotate");
        // Tiny segment bound: every record rotates.
        let mut w = WalWriter::create(&dir, FsyncPolicy::Off, 1, 1).unwrap();
        for e in 1..=4 {
            w.append(&batch_rec(e)).unwrap();
        }
        assert!(w.seq() > 1);
        drop(w);
        let scan = scan_wal(&dir).unwrap();
        assert_eq!(scan.records.len(), 4);
        assert!(scan.segments.len() > 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_at_every_byte_boundary() {
        let dir = tmpdir("torn");
        let mut w = WalWriter::create(&dir, FsyncPolicy::Off, 1 << 20, 1).unwrap();
        for e in 1..=3 {
            w.append(&batch_rec(e)).unwrap();
        }
        drop(w);
        let path = segment_path(&dir, 1);
        let full = fs::read(&path).unwrap();
        let last_len = encode_record(&batch_rec(3)).len();
        let keep_two = full.len() - last_len;
        // Truncate inside the final record at every byte boundary: the
        // first two records always survive, the torn third never does.
        for cut in keep_two..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let scan = scan_wal(&dir).unwrap();
            assert_eq!(scan.records.len(), 2, "cut at byte {cut}");
            assert_eq!(scan.dropped_bytes, (cut - keep_two) as u64);
            if cut > keep_two {
                assert_eq!(
                    scan.torn,
                    Some(TornTail {
                        seq: 1,
                        valid_bytes: keep_two as u64
                    })
                );
            }
        }
        // Corrupt (rather than truncate) one byte of the final record.
        let mut corrupt = full.clone();
        *corrupt.last_mut().unwrap() ^= 0xFF;
        fs::write(&path, &corrupt).unwrap();
        let scan = scan_wal(&dir).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.dropped_bytes, last_len as u64);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_repair_truncates_and_deletes_later_segments() {
        let dir = tmpdir("repair");
        // Tiny segment bound: every record lands in its own segment.
        let mut w = WalWriter::create(&dir, FsyncPolicy::Off, 1, 1).unwrap();
        for e in 1..=3 {
            w.append(&batch_rec(e)).unwrap();
        }
        drop(w);
        // Corrupt the record in the *second* segment: the scan stops
        // there and drops segment 3 as well.
        let p2 = segment_path(&dir, 2);
        let mut bytes = fs::read(&p2).unwrap();
        *bytes.last_mut().unwrap() ^= 0xFF;
        fs::write(&p2, &bytes).unwrap();
        let scan = scan_wal(&dir).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(
            scan.torn,
            Some(TornTail {
                seq: 2,
                valid_bytes: 0
            })
        );
        assert!(scan.dropped_bytes > bytes.len() as u64);

        truncate_torn_tail(&dir, &scan).unwrap();
        assert_eq!(fs::metadata(&p2).unwrap().len(), 0);
        assert!(!segment_path(&dir, 3).exists());
        // Idempotent: a rescan finds nothing left to drop.
        let rescan = scan_wal(&dir).unwrap();
        assert_eq!(rescan.records.len(), 1);
        assert_eq!(rescan.dropped_bytes, 0);
        assert_eq!(rescan.torn, None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pruning_removes_old_segments() {
        let dir = tmpdir("prune");
        let mut w = WalWriter::create(&dir, FsyncPolicy::Off, 1, 1).unwrap();
        for e in 1..=3 {
            w.append(&batch_rec(e)).unwrap();
        }
        let head = w.seq();
        let removed = w.remove_segments_below(head).unwrap();
        assert!(removed > 0);
        let segs = list_segments(&dir).unwrap();
        assert!(segs.iter().all(|&(s, _)| s >= head));
        let _ = fs::remove_dir_all(&dir);
    }
}
