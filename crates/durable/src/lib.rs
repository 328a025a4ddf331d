//! # sm-durable
//!
//! Durability for the service tier: an append-only, checksummed
//! write-ahead log for update batches and standing-query registrations,
//! an mmap-friendly on-disk CSR snapshot store, and the recovery scan
//! that turns "snapshot page-in + WAL-tail replay" into an instant
//! restart — no text parse, no NLF rebuild.
//!
//! The crate is deliberately engine-agnostic: it knows about
//! [`sm_delta::UpdateBatch`], [`sm_delta::VersionedGraph`] and
//! [`sm_graph::Graph`], nothing else. `sm-service` and `sm-shard` each
//! hold one [`Journal`] behind `Service::open` / `ShardedService::open`
//! and reach the log only through it, so the protocol — append before
//! install, replay without re-appending, snapshot + sidecar — is written
//! once and neither tier can bypass it.
//!
//! - [`codec`] — CRC-32 and the little-endian record codec.
//! - [`wal`] — segmented WAL writer and torn-tail-tolerant scanner.
//! - [`snapshot`] — the `snapshot-<epoch>.csr` file format.
//! - [`store`] — [`DurableStore`]: the directory (lineage, pruning, scan).
//! - [`journal`] — [`Journal`]: commit, log, snapshot, recover.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod journal;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use codec::{crc32, crc32_combine, crc32_parallel, CodecError, Crc32};
pub use journal::{Journal, PendingJournal, Recovery, ReplayTarget};
pub use snapshot::{
    list_snapshots, read_snapshot, snapshot_path, write_snapshot, SnapshotData, SnapshotError,
    SnapshotView, StandingSnapshot, StandingView, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use store::{DurabilityOptions, DurableStore, RecoveryReport};
pub use wal::{scan_wal, truncate_torn_tail, FsyncPolicy, TornTail, WalRecord, WalScan};
