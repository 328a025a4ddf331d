//! The on-disk CSR snapshot format.
//!
//! A snapshot file `snapshot-<epoch>.csr` holds everything needed to
//! bring a service back without parsing text or rebuilding indexes: the
//! data graph's CSR arrays, its NLF index, and every standing query with
//! its persisted embedding set. The layout is a fixed 64-byte
//! little-endian header followed by 8-byte-aligned sections, so a loader
//! could mmap the file and read the arrays in place; this implementation
//! reads them into owned vectors but keeps the alignment contract.
//!
//! ```text
//! header (64 bytes, little-endian):
//!   0  magic            b"SMDGSNAP"
//!   8  format version   u32
//!   12 crc32            u32   (over header bytes 16..64 then the body)
//!   16 epoch            u64
//!   24 num_vertices     u64
//!   32 adjacency_len    u64   (2|E|)
//!   40 nlf_entries      u64
//!   48 standing_count   u64
//!   56 body_len         u64
//! body (checksummed as one blob):
//!   offsets     (n+1) x u64
//!   adjacency   adjacency_len x u32, zero-padded to 8
//!   labels      n x u32, zero-padded to 8
//!   nlf offsets (n+1) x u64
//!   nlf entries nlf_entries x (label u32, count u32)
//!   label pairs count u64, then count x (a u32, b u32, edges u64),
//!               normalized (a <= b) and sorted ascending
//!   standing    per entry: query-graph codec, pad8,
//!               arity u32, row_count u32, rows (arity x u32 each), pad8
//! ```
//!
//! Writes go to a `.tmp` sibling, `fsync`, rename, then `fsync` of the
//! directory — a crash during a snapshot write can never shadow the
//! previous valid snapshot, and once `write_snapshot` returns the
//! rename itself is durable, so the caller may safely prune the older
//! snapshots and WAL segments the new one supersedes.

use crate::codec::{
    crc32, crc32_combine, crc32_parallel, decode_graph, encode_graph, CodecError, Dec, Enc,
};
use sm_graph::label_index::LabelPairEdgeCounts;
use sm_graph::{Graph, Label, NlfIndex, VertexId};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The 8-byte magic opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"SMDGSNAP";
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;
const HEADER_BYTES: usize = 64;

/// A standing query as persisted: the query graph plus its embedding set
/// at snapshot time (sorted rows). Sharded snapshots persist the query
/// with an empty set and re-enumerate per shard on recovery.
#[derive(Clone, Debug)]
pub struct StandingSnapshot {
    /// The registered query graph.
    pub query: Graph,
    /// The embedding set at snapshot time, one row per match.
    pub matches: Vec<Vec<VertexId>>,
}

/// Everything a snapshot file stores.
#[derive(Clone, Debug)]
pub struct SnapshotData {
    /// The tier epoch this snapshot captures.
    pub epoch: u64,
    /// The data graph, as materialized CSR.
    pub graph: Graph,
    /// The graph's NLF index (persisted so recovery skips the rebuild).
    pub nlf: NlfIndex,
    /// Label-pair edge counts (persisted so recovery skips the edge scan).
    pub label_pairs: LabelPairEdgeCounts,
    /// Standing queries in registration order.
    pub standing: Vec<StandingSnapshot>,
}

/// Why a snapshot failed to load.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read.
    Io(io::Error),
    /// The bytes are not a valid snapshot (bad magic/version/checksum or
    /// structurally invalid body).
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        SnapshotError::Corrupt(match e {
            CodecError::Truncated => "truncated body",
            CodecError::Invalid(what) => what,
        })
    }
}

/// Path of the snapshot for `epoch` under `dir`.
pub fn snapshot_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("snapshot-{epoch:016x}.csr"))
}

/// Snapshot files under `dir`, as `(epoch, path)` sorted ascending.
pub fn list_snapshots(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(hex) = name
            .strip_prefix("snapshot-")
            .and_then(|rest| rest.strip_suffix(".csr"))
        {
            if let Ok(epoch) = u64::from_str_radix(hex, 16) {
                out.push((epoch, path));
            }
        }
    }
    out.sort_unstable_by_key(|&(e, _)| e);
    Ok(out)
}

fn encode_body(data: &SnapshotData) -> Vec<u8> {
    let (offsets, neighbors, labels) = data.graph.csr();
    let n = labels.len();
    let mut e = Enc::new();
    for &o in offsets {
        e.put_u64(o as u64);
    }
    e.put_u32_slice(neighbors);
    e.pad8();
    e.put_u32_slice(labels);
    e.pad8();
    // NLF as its own CSR: row offsets then flat (label, count) entries.
    let mut off = 0u64;
    for v in 0..=n {
        e.put_u64(off);
        if v < n {
            off += data.nlf.entry(v as VertexId).len() as u64;
        }
    }
    let flat: Vec<u32> = (0..n)
        .flat_map(|v| {
            data.nlf
                .entry(v as VertexId)
                .iter()
                .flat_map(|&(l, c)| [l, c])
        })
        .collect();
    e.put_u32_slice(&flat);
    // Label-pair edge counts: 16-byte (a, b, count) triples in sorted
    // order. Flat entries are (u32, u32) so the section starts 8-aligned.
    let pairs = data.label_pairs.sorted_pairs();
    e.put_u64(pairs.len() as u64);
    for &((a, b), c) in &pairs {
        e.put_u32(a);
        e.put_u32(b);
        e.put_u64(c);
    }
    for s in &data.standing {
        encode_graph(&s.query, &mut e);
        e.pad8();
        let arity = s.query.num_vertices() as u32;
        e.put_u32(arity);
        e.put_u32(s.matches.len() as u32);
        for row in &s.matches {
            debug_assert_eq!(row.len(), arity as usize);
            for &v in row {
                e.put_u32(v);
            }
        }
        e.pad8();
    }
    e.into_bytes()
}

/// Number of NLF entries a snapshot of `data` will store.
fn nlf_entry_count(data: &SnapshotData) -> u64 {
    (0..data.graph.num_vertices())
        .map(|v| data.nlf.entry(v as VertexId).len() as u64)
        .sum()
}

/// Write `data` as `snapshot-<epoch>.csr` under `dir` (atomically, via
/// a `.tmp` sibling and rename, with the directory `fsync`ed after the
/// rename so the new name survives power loss before anything older is
/// pruned). Returns the final path and byte size.
pub fn write_snapshot(dir: &Path, data: &SnapshotData) -> io::Result<(PathBuf, u64)> {
    let body = encode_body(data);
    let mut tail = Enc::new();
    tail.put_u64(data.epoch);
    tail.put_u64(data.graph.num_vertices() as u64);
    tail.put_u64(data.graph.adjacency_len() as u64);
    tail.put_u64(nlf_entry_count(data));
    tail.put_u64(data.standing.len() as u64);
    tail.put_u64(body.len() as u64);
    let tail = tail.into_bytes();
    let digest = crc32_combine(crc32(&tail), crc32_parallel(&body), body.len() as u64);
    let mut header = Enc::new();
    header.put_bytes(&SNAPSHOT_MAGIC);
    header.put_u32(SNAPSHOT_VERSION);
    header.put_u32(digest);
    header.put_bytes(&tail);
    let header = header.into_bytes();
    debug_assert_eq!(header.len(), HEADER_BYTES);

    let path = snapshot_path(dir, data.epoch);
    let tmp = path.with_extension("csr.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&header)?;
        f.write_all(&body)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, &path)?;
    // Without this, a power failure can persist the caller's subsequent
    // unlinks of the old snapshot and WAL segments while losing the
    // rename — leaving a directory with no valid snapshot at all.
    crate::wal::sync_dir(dir)?;
    Ok((path, (header.len() + body.len()) as u64))
}

/// Load and validate the snapshot at `path`.
pub fn read_snapshot(path: &Path) -> Result<SnapshotData, SnapshotError> {
    // fs::read pre-sizes the buffer from the file length — one
    // allocation and one read for a multi-megabyte snapshot.
    let bytes = std::fs::read(path)?;
    if bytes.len() < HEADER_BYTES {
        return Err(SnapshotError::Corrupt("shorter than the header"));
    }
    let (header, body) = bytes.split_at(HEADER_BYTES);
    let mut h = Dec::new(header);
    if h.get_bytes(8).unwrap() != SNAPSHOT_MAGIC {
        return Err(SnapshotError::Corrupt("bad magic"));
    }
    if h.get_u32().unwrap() != SNAPSHOT_VERSION {
        return Err(SnapshotError::Corrupt("unsupported format version"));
    }
    let want_crc = h.get_u32().unwrap();
    let epoch = h.get_u64().unwrap();
    let n = h.get_u64().unwrap() as usize;
    let adjacency_len = h.get_u64().unwrap() as usize;
    let nlf_entries = h.get_u64().unwrap() as usize;
    let standing_count = h.get_u64().unwrap() as usize;
    let body_len = h.get_u64().unwrap() as usize;
    if body.len() != body_len {
        return Err(SnapshotError::Corrupt("body length mismatch"));
    }
    let got = crc32_combine(
        crc32(&header[16..]),
        crc32_parallel(body),
        body.len() as u64,
    );
    if got != want_crc {
        return Err(SnapshotError::Corrupt("checksum mismatch"));
    }

    let mut d = Dec::new(body);
    let offsets = d.get_usize_slice(n + 1)?;
    let neighbors = d.get_u32_slice(adjacency_len)?;
    d.skip_pad8()?;
    let labels = d.get_u32_slice(n)?;
    d.skip_pad8()?;
    let graph = Graph::from_csr(offsets, neighbors, labels).map_err(SnapshotError::Corrupt)?;

    let nlf_offsets = d.get_usize_slice(n + 1)?;
    let entries: Vec<(Label, u32)> = d.get_u32_pairs(nlf_entries)?;
    let nlf = NlfIndex::from_csr(nlf_offsets, entries)
        .ok_or(SnapshotError::Corrupt("nlf index out of shape"))?;

    let pair_count = d.get_u64()? as usize;
    if pair_count.saturating_mul(16) > d.remaining() {
        return Err(SnapshotError::Corrupt("label pairs exceed body"));
    }
    let mut pairs = Vec::with_capacity(pair_count);
    for _ in 0..pair_count {
        let a = d.get_u32()?;
        let b = d.get_u32()?;
        let c = d.get_u64()?;
        pairs.push(((a, b), c));
    }
    let label_pairs = LabelPairEdgeCounts::from_pairs(pairs)
        .ok_or(SnapshotError::Corrupt("malformed label pairs"))?;

    let mut standing = Vec::with_capacity(standing_count);
    for _ in 0..standing_count {
        let query = decode_graph(&mut d)?;
        d.skip_pad8()?;
        let arity = d.get_u32()? as usize;
        if arity != query.num_vertices() {
            return Err(SnapshotError::Corrupt("standing arity mismatch"));
        }
        let rows = d.get_u32()? as usize;
        if rows.saturating_mul(arity.max(1)).saturating_mul(4) > d.remaining() {
            return Err(SnapshotError::Corrupt("standing rows exceed body"));
        }
        let mut matches = Vec::with_capacity(rows);
        for _ in 0..rows {
            let mut row = Vec::with_capacity(arity);
            for _ in 0..arity {
                row.push(d.get_u32()?);
            }
            matches.push(row);
        }
        d.skip_pad8()?;
        standing.push(StandingSnapshot { query, matches });
    }
    if !d.finished() {
        return Err(SnapshotError::Corrupt("trailing bytes after body"));
    }
    Ok(SnapshotData {
        epoch,
        graph,
        nlf,
        label_pairs,
        standing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_graph::builder::graph_from_edges;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sm-durable-snap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> SnapshotData {
        let graph = graph_from_edges(
            &[0, 1, 0, 2, 1],
            &[(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (1, 4)],
        );
        let nlf = graph.build_nlf();
        let label_pairs = LabelPairEdgeCounts::build(&graph);
        let query = graph_from_edges(&[0, 1], &[(0, 1)]);
        SnapshotData {
            epoch: 17,
            graph,
            nlf,
            label_pairs,
            standing: vec![StandingSnapshot {
                query,
                matches: vec![vec![0, 1], vec![2, 1]],
            }],
        }
    }

    #[test]
    fn write_read_round_trips_graph_nlf_and_standing() {
        let dir = tmpdir("roundtrip");
        let data = sample();
        let (path, bytes) = write_snapshot(&dir, &data).unwrap();
        assert!(bytes >= HEADER_BYTES as u64);
        let got = read_snapshot(&path).unwrap();
        assert_eq!(got.epoch, 17);
        assert_eq!(got.graph.num_vertices(), data.graph.num_vertices());
        assert_eq!(got.graph.num_edges(), data.graph.num_edges());
        for v in data.graph.vertices() {
            assert_eq!(got.graph.label(v), data.graph.label(v));
            assert_eq!(got.graph.neighbors(v), data.graph.neighbors(v));
            assert_eq!(got.nlf.entry(v), data.nlf.entry(v));
        }
        // Decode rebuilds the label index, rank included (sm-graph checks
        // that the builder's rank inverts the label-sorted vertices).
        assert_eq!(
            got.graph.label_index().ranks(),
            data.graph.label_index().ranks()
        );
        assert_eq!(
            got.label_pairs.sorted_pairs(),
            data.label_pairs.sorted_pairs()
        );
        assert_eq!(got.standing.len(), 1);
        assert_eq!(got.standing[0].query.num_edges(), 1);
        assert_eq!(got.standing[0].matches, vec![vec![0, 1], vec![2, 1]]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn any_flipped_byte_is_rejected() {
        let dir = tmpdir("corrupt");
        let data = sample();
        let (path, _) = write_snapshot(&dir, &data).unwrap();
        let good = fs::read(&path).unwrap();
        // Flip one byte at a spread of positions: header fields, body.
        for pos in [0usize, 9, 13, 20, 60, 70, good.len() - 1] {
            let mut bad = good.clone();
            bad[pos] ^= 0x01;
            fs::write(&path, &bad).unwrap();
            assert!(
                matches!(read_snapshot(&path), Err(SnapshotError::Corrupt(_))),
                "flip at {pos} was accepted"
            );
        }
        // Truncation is rejected too.
        fs::write(&path, &good[..good.len() - 3]).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(SnapshotError::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn listing_sorts_by_epoch() {
        let dir = tmpdir("list");
        for epoch in [5u64, 1, 9] {
            let mut data = sample();
            data.epoch = epoch;
            write_snapshot(&dir, &data).unwrap();
        }
        let epochs: Vec<u64> = list_snapshots(&dir)
            .unwrap()
            .into_iter()
            .map(|(e, _)| e)
            .collect();
        assert_eq!(epochs, vec![1, 5, 9]);
        let _ = fs::remove_dir_all(&dir);
    }
}
