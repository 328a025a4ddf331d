//! Seeded property suites for the durable formats: WAL record codec
//! round-trips (arbitrary multi-op batches, tombstoned vertices,
//! standing-query graphs), snapshot write/read CSR equality, recovery
//! reproducing the NLF index with its signatures, and the WAL scanner's
//! longest-intact-prefix guarantee under truncation and corruption of
//! the final record.

use sm_delta::{UpdateBatch, VersionedGraph};
use sm_durable::wal::{encode_record, WalWriter};
use sm_durable::{
    crc32, read_snapshot, scan_wal, write_snapshot, DurabilityOptions, FsyncPolicy, Journal,
    ReplayTarget, SnapshotData, StandingSnapshot, WalRecord,
};
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_graph::label_index::LabelPairEdgeCounts;
use sm_graph::{Graph, Label, NlfIndex, VertexId};
use sm_runtime::check::Check;
use sm_runtime::{ensure, ensure_eq, Rng64};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Fresh per-case temp directory (cases run sequentially but each gets
/// its own directory so a failure leaves its evidence behind).
fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "sm-durable-props-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create temp dir");
    d
}

/// A random multi-op batch: vertex adds, vertex deletes (tombstones),
/// edge inserts and edge deletes, interleaved.
fn gen_batch(rng: &mut Rng64, size: u32) -> UpdateBatch {
    let ops = rng.gen_range(0..size as usize + 2);
    let mut b = UpdateBatch::new();
    for _ in 0..ops {
        match rng.next_u64_below(4) {
            0 => b = b.add_vertex(rng.next_u64_below(16) as Label),
            1 => b = b.delete_vertex(rng.next_u64_below(256) as VertexId),
            2 => {
                b = b.add_edge(
                    rng.next_u64_below(256) as VertexId,
                    rng.next_u64_below(256) as VertexId,
                )
            }
            _ => {
                b = b.delete_edge(
                    rng.next_u64_below(256) as VertexId,
                    rng.next_u64_below(256) as VertexId,
                )
            }
        }
    }
    b
}

fn gen_graph(rng: &mut Rng64, size: u32) -> Graph {
    let n = 4 + rng.gen_range(0..size as usize + 4);
    rmat_graph(n, 3.0, 4, RmatParams::PAPER, rng.next_u64())
}

fn batches_equal(a: &UpdateBatch, b: &UpdateBatch) -> Result<(), String> {
    ensure_eq!(a.add_vertices, b.add_vertices);
    ensure_eq!(a.delete_vertices, b.delete_vertices);
    ensure_eq!(a.add_edges, b.add_edges);
    ensure_eq!(a.delete_edges, b.delete_edges);
    Ok(())
}

/// Rows and signatures of `a` equal `b`'s.
fn nlf_equal(a: &NlfIndex, b: &NlfIndex, n: usize) -> Result<(), String> {
    for v in 0..n as VertexId {
        ensure_eq!(a.entry(v), b.entry(v), "NLF row {v}");
        ensure_eq!(a.signature(v), b.signature(v), "NLF signature {v}");
    }
    Ok(())
}

fn graphs_equal(a: &Graph, b: &Graph) -> Result<(), String> {
    let (ao, an, al) = a.csr();
    let (bo, bn, bl) = b.csr();
    ensure_eq!(ao, bo, "offsets differ");
    ensure_eq!(an, bn, "adjacency differs");
    ensure_eq!(al, bl, "labels differ");
    Ok(())
}

fn records_equal(a: &WalRecord, b: &WalRecord) -> Result<(), String> {
    match (a, b) {
        (
            WalRecord::Batch {
                epoch: ea,
                batch: ba,
            },
            WalRecord::Batch {
                epoch: eb,
                batch: bb,
            },
        ) => {
            ensure_eq!(ea, eb);
            batches_equal(ba, bb)
        }
        (
            WalRecord::Standing {
                index: ia,
                query: qa,
            },
            WalRecord::Standing {
                index: ib,
                query: qb,
            },
        ) => {
            ensure_eq!(ia, ib);
            graphs_equal(qa, qb)
        }
        _ => Err("record kinds differ".into()),
    }
}

/// Decode one framed record from `buf`, mirroring the scanner's frame
/// checks; returns the record and the framed length.
fn decode_framed(buf: &[u8]) -> Result<(WalRecord, usize), String> {
    ensure!(buf.len() >= 8, "frame header short");
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    ensure!(buf.len() >= 8 + len, "payload short");
    let payload = &buf[8..8 + len];
    ensure_eq!(crc32(payload), crc, "payload checksum");
    let rec = sm_durable::wal::decode_payload(payload).map_err(|e| e.to_string())?;
    Ok((rec, 8 + len))
}

#[test]
fn wal_record_codec_round_trips() {
    Check::new("wal_record_codec_round_trips")
        .cases(48)
        .max_size(64)
        .run(
            |rng, size| {
                if rng.gen_bool(0.7) {
                    WalRecord::Batch {
                        epoch: rng.next_u64(),
                        batch: gen_batch(rng, size),
                    }
                } else {
                    WalRecord::Standing {
                        index: rng.next_u64_below(1 << 32),
                        query: gen_graph(rng, size.min(8)),
                    }
                }
            },
            |rec| {
                let framed = encode_record(rec);
                let (decoded, used) = decode_framed(&framed)?;
                ensure_eq!(used, framed.len(), "no trailing bytes in frame");
                records_equal(rec, &decoded)
            },
        );
}

#[test]
fn snapshot_write_read_csr_equality() {
    Check::new("snapshot_write_read_csr_equality")
        .cases(24)
        .max_size(48)
        .run(
            |rng, size| {
                let graph = gen_graph(rng, size);
                let nlf = graph.build_nlf();
                // Standing sets with arbitrary arity and contents — the
                // snapshot stores them verbatim.
                let standing = (0..rng.gen_range(0..3usize))
                    .map(|_| {
                        let query = gen_graph(rng, 4);
                        let arity = query.num_vertices();
                        let rows = rng.gen_range(0..5usize);
                        let matches = (0..rows)
                            .map(|_| {
                                (0..arity)
                                    .map(|_| rng.next_u64_below(1 << 20) as VertexId)
                                    .collect()
                            })
                            .collect();
                        StandingSnapshot { query, matches }
                    })
                    .collect();
                let label_pairs = sm_graph::label_index::LabelPairEdgeCounts::build(&graph);
                SnapshotData {
                    epoch: rng.next_u64_below(1 << 40),
                    graph,
                    nlf,
                    label_pairs,
                    standing,
                }
            },
            |data| {
                let dir = tmp_dir("snap");
                let (path, _) = write_snapshot(&dir, data).map_err(|e| e.to_string())?;
                let back = read_snapshot(&path).map_err(|e| e.to_string())?;
                ensure_eq!(back.epoch, data.epoch);
                graphs_equal(&back.graph, &data.graph)?;
                nlf_equal(&back.nlf, &data.nlf, data.graph.num_vertices())?;
                ensure_eq!(
                    back.label_pairs.sorted_pairs(),
                    data.label_pairs.sorted_pairs()
                );
                ensure_eq!(back.standing.len(), data.standing.len());
                for (a, b) in back.standing.iter().zip(&data.standing) {
                    graphs_equal(&a.query, &b.query)?;
                    ensure_eq!(a.matches, b.matches);
                }
                std::fs::remove_dir_all(&dir).ok();
                Ok(())
            },
        );
}

/// The head of `vg` as snapshot contents.
fn head_data(vg: &VersionedGraph) -> SnapshotData {
    let (epoch, graph, nlf) = vg.export_head();
    SnapshotData {
        epoch,
        label_pairs: LabelPairEdgeCounts::build(&graph),
        graph,
        nlf,
        standing: Vec::new(),
    }
}

/// Replays logged batches onto a graph recovered at `base_epoch`.
struct Replayed {
    vg: VersionedGraph,
    base_epoch: u64,
}

impl ReplayTarget for Replayed {
    fn restore_standing(&mut self, _: StandingSnapshot) -> bool {
        true
    }

    fn replay_batch(&mut self, batch: &UpdateBatch) -> Option<u64> {
        let c = self.vg.commit(batch);
        (!c.info.is_noop()).then_some(self.base_epoch + c.info.epoch)
    }

    fn replay_standing(&mut self, _: &Graph) -> bool {
        true
    }
}

#[test]
fn recovery_reproduces_nlf_signatures() {
    Check::new("recovery_reproduces_nlf_signatures")
        .cases(12)
        .max_size(24)
        .run(
            |rng, size| {
                // 30 labels: ids 21..30 alias in the signature.
                let n = 16 + 4 * size as usize;
                let graph = rmat_graph(n, 4.0, 30, RmatParams::PAPER, rng.next_u64());
                let batches: Vec<UpdateBatch> = (0..2 + size / 4)
                    .map(|_| gen_batch(rng, size.min(12)))
                    .collect();
                let snapshot_after = rng.gen_range(0..batches.len());
                (graph, batches, snapshot_after)
            },
            |(graph, batches, snapshot_after)| {
                let dir = tmp_dir("recover");
                let opts = DurabilityOptions {
                    fsync: FsyncPolicy::Off,
                    snapshot_threshold_bytes: 0,
                    ..DurabilityOptions::default()
                };
                let io = |e: std::io::Error| e.to_string();
                let live = VersionedGraph::new(graph.clone());
                let mut journal = Journal::create(&dir, opts, &head_data(&live)).map_err(io)?;
                for (i, b) in batches.iter().enumerate() {
                    journal.commit(&live, live.epoch() + 1, b);
                    if i == *snapshot_after {
                        journal.snapshot(&head_data(&live), None).map_err(io)?;
                    }
                }
                journal.sync().map_err(io)?;
                drop(journal);

                let rec = Journal::recover(&dir, opts).map_err(io)?;
                let snap = rec.snapshot;
                let fresh = snap.graph.build_nlf();
                nlf_equal(&snap.nlf, &fresh, snap.graph.num_vertices())?;
                let mut target = Replayed {
                    base_epoch: snap.epoch,
                    vg: VersionedGraph::from_materialized(snap.graph, snap.nlf),
                };
                rec.pending.replay(snap.standing, &mut target).map_err(io)?;
                let (_, got_graph, got) = target.vg.export_head();
                let (_, want_graph, want) = live.export_head();
                graphs_equal(&got_graph, &want_graph)?;
                nlf_equal(&got, &want, want_graph.num_vertices())?;
                nlf_equal(&got, &got_graph.build_nlf(), got_graph.num_vertices())?;
                std::fs::remove_dir_all(&dir).ok();
                Ok(())
            },
        );
}

#[test]
fn wal_scan_keeps_longest_intact_prefix() {
    Check::new("wal_scan_keeps_longest_intact_prefix")
        .cases(24)
        .max_size(32)
        .run(
            |rng, size| {
                let records: Vec<WalRecord> = (0..2 + rng.gen_range(0..size as usize + 1))
                    .map(|i| WalRecord::Batch {
                        epoch: i as u64 + 1,
                        batch: gen_batch(rng, size.min(12)),
                    })
                    .collect();
                // Where inside the final record to cut, and whether to
                // truncate or corrupt a byte there instead.
                (records, rng.next_u64(), rng.gen_bool(0.5))
            },
            |(records, cut_seed, corrupt)| {
                let dir = tmp_dir("scan");
                let mut w = WalWriter::create(&dir, FsyncPolicy::Off, u64::MAX, 0)
                    .map_err(|e| e.to_string())?;
                for r in records {
                    w.append(r).map_err(|e| e.to_string())?;
                }
                w.sync().map_err(|e| e.to_string())?;
                let seg = dir.join(format!("wal-{:016x}.seg", 0));
                let bytes = std::fs::read(&seg).map_err(|e| e.to_string())?;
                let last_len = encode_record(records.last().unwrap()).len();
                let last_start = bytes.len() - last_len;
                // Damage the final record: truncate inside it, or flip
                // one of its bytes.
                let offset = last_start + (*cut_seed as usize % last_len);
                let mut damaged = bytes.clone();
                if *corrupt {
                    damaged[offset] ^= 0x41;
                } else {
                    damaged.truncate(offset);
                }
                std::fs::write(&seg, &damaged).map_err(|e| e.to_string())?;
                let scan = scan_wal(&dir).map_err(|e| e.to_string())?;
                ensure_eq!(
                    scan.records.len(),
                    records.len() - 1,
                    "exactly the intact prefix survives"
                );
                for (a, b) in scan.records.iter().zip(records) {
                    records_equal(a, b)?;
                }
                ensure_eq!(scan.dropped_bytes, (damaged.len() - last_start) as u64);
                std::fs::remove_dir_all(&dir).ok();
                Ok(())
            },
        );
}
