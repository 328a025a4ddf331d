//! Kill-and-recover equivalence for the sharded tier, at 1 and 4
//! shards: a recovered [`ShardedService`] must produce byte-identical
//! sorted embedding sets and standing sets to an uninterrupted
//! in-memory twin — durability rides the router's single global commit
//! point, so shard count is free to change across restarts.

#[path = "../../service/tests/conformance/mod.rs"]
mod conformance;

use conformance::{
    dir_bytes, drive, edge_query, no_snapshot_opts as opts, sorted_embeddings, tmp_dir, DurableTier,
};
use sm_delta::{Snapshot, UpdateBatch};
use sm_durable::{DurabilityOptions, FsyncPolicy, RecoveryReport};
use sm_graph::builder::graph_from_edges;
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_graph::Graph;
use sm_runtime::trace::Counter;
use sm_service::{QueryRequest, ResultStream};
use sm_shard::{ShardConfig, ShardedService};
use std::io;
use std::path::Path;

impl DurableTier for ShardedService {
    type Config = ShardConfig;
    fn new(graph: Graph, cfg: ShardConfig) -> Self {
        ShardedService::new(graph, cfg)
    }
    fn new_durable(
        graph: Graph,
        cfg: ShardConfig,
        dir: &Path,
        opts: DurabilityOptions,
    ) -> io::Result<Self> {
        ShardedService::new_durable(graph, cfg, dir, opts)
    }
    fn open(dir: &Path, cfg: ShardConfig, opts: DurabilityOptions) -> io::Result<Self> {
        ShardedService::open(dir, cfg, opts)
    }
    fn apply(&self, batch: &UpdateBatch) -> bool {
        !self.apply_update(batch).noop
    }
    fn snapshot(&self) -> Snapshot {
        ShardedService::snapshot(self)
    }
    fn epoch(&self) -> u64 {
        ShardedService::epoch(self)
    }
    fn submit(&self, req: QueryRequest) -> ResultStream {
        ShardedService::submit(self, req)
    }
    fn recovery_report(&self) -> Option<RecoveryReport> {
        ShardedService::recovery_report(self)
    }
}

fn base_graph() -> Graph {
    rmat_graph(120, 4.0, 3, RmatParams::PAPER, 29)
}

fn wedge_query() -> Graph {
    graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2)])
}

fn shard_cfg(shards: usize) -> ShardConfig {
    ShardConfig {
        shards,
        ..ShardConfig::default()
    }
}

fn kill_and_recover_at(shards: usize) {
    let dir = tmp_dir(&format!("shards-{shards}"));
    let twin = ShardedService::new(base_graph(), shard_cfg(shards));
    let durable =
        ShardedService::new_durable(base_graph(), shard_cfg(shards), &dir, opts()).unwrap();
    assert!(durable.is_durable() && !twin.is_durable());

    let head = drive(&twin, 6, 41);
    let sid_twin = twin.register_standing(&wedge_query()).unwrap();
    let tail = drive(&twin, 6, 42);

    for b in &head {
        durable.apply_update(b);
    }
    let sid = durable.register_standing(&wedge_query()).unwrap();
    for b in &tail {
        durable.apply_update(b);
    }
    let expect_epoch = durable.epoch();
    assert!(expect_epoch > 0, "stream produced effective batches");
    drop(durable); // kill

    let crash_image_bytes = dir_bytes(&dir);
    let recovered = ShardedService::open(&dir, shard_cfg(shards), opts()).unwrap();
    assert_eq!(
        dir_bytes(&dir),
        crash_image_bytes,
        "replay appended nothing"
    );
    assert_eq!(recovered.epoch(), twin.epoch());
    assert_eq!(recovered.epoch(), expect_epoch);
    for q in [edge_query(), wedge_query()] {
        assert_eq!(
            sorted_embeddings(&recovered, &q),
            sorted_embeddings(&twin, &q),
            "query embedding sets at {shards} shard(s)"
        );
    }
    assert_eq!(
        recovered.standing_matches(sid),
        twin.standing_matches(sid_twin),
        "standing sets at {shards} shard(s)"
    );
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.replayed_batches, expect_epoch);
    assert_eq!(report.replayed_registrations, 1);
    let c = recovered.counters();
    assert_eq!(c.get(Counter::Recoveries), 1);
    assert_eq!(c.get(Counter::ReplayedBatches), expect_epoch);
}

#[test]
fn kill_and_recover_matches_twin_at_one_shard() {
    kill_and_recover_at(1);
}

#[test]
fn kill_and_recover_matches_twin_at_four_shards() {
    kill_and_recover_at(4);
}

/// The service tier's byte-cut and second-crash schedules
/// (`crates/service/tests/durable.rs`), on the router's journal.
#[test]
fn recovery_lands_on_last_committed_epoch_at_every_cut() {
    for shards in [1, 2] {
        conformance::recovery_lands_on_last_committed_epoch_at_every_cut::<ShardedService>(
            shard_cfg(shards),
        );
    }
}

#[test]
fn updates_acknowledged_after_a_torn_tail_recovery_survive_a_second_crash() {
    for shards in [1, 2] {
        conformance::updates_acknowledged_after_a_torn_tail_recovery_survive_a_second_crash::<
            ShardedService,
        >(shard_cfg(shards));
    }
}

/// The shard layout is not part of the durable state: a tier crashed at
/// 4 shards reopens at 2 with identical results.
#[test]
fn reopen_under_different_shard_count() {
    let dir = tmp_dir("relayout");
    let twin = ShardedService::new(base_graph(), shard_cfg(2));
    let durable = ShardedService::new_durable(base_graph(), shard_cfg(4), &dir, opts()).unwrap();
    for b in drive(&twin, 8, 77) {
        durable.apply_update(&b);
    }
    drop(durable);
    let recovered = ShardedService::open(&dir, shard_cfg(2), opts()).unwrap();
    assert_eq!(recovered.num_shards(), 2);
    assert_eq!(recovered.epoch(), twin.epoch());
    assert_eq!(
        sorted_embeddings(&recovered, &wedge_query()),
        sorted_embeddings(&twin, &wedge_query())
    );
}

/// Threshold compaction at the router: snapshots absorb the log, and
/// recovery replays nothing.
#[test]
fn threshold_snapshot_compacts_router_wal() {
    let dir = tmp_dir("threshold");
    let o = DurabilityOptions {
        fsync: FsyncPolicy::Off,
        snapshot_threshold_bytes: 1,
        ..Default::default()
    };
    let twin = ShardedService::new(base_graph(), shard_cfg(2));
    let durable = ShardedService::new_durable(base_graph(), shard_cfg(2), &dir, o).unwrap();
    durable.register_standing(&wedge_query()).unwrap();
    twin.register_standing(&wedge_query()).unwrap();
    for b in drive(&twin, 5, 13) {
        durable.apply_update(&b);
    }
    assert!(durable.counters().get(Counter::SnapshotsWritten) > 1);
    drop(durable);
    let recovered = ShardedService::open(&dir, shard_cfg(2), o).unwrap();
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.replayed_batches, 0);
    assert_eq!(report.snapshot_epoch, recovered.epoch());
    assert_eq!(
        sorted_embeddings(&recovered, &edge_query()),
        sorted_embeddings(&twin, &edge_query())
    );
    assert!(recovered.snapshot_now().unwrap());
}
