//! Kill-and-recover equivalence for the durable service: a recovered
//! [`Service`] must be indistinguishable — epoch, full sorted embedding
//! sets, standing-query sets — from an uninterrupted twin that applied
//! the same batches in memory, including when the crash tears the final
//! WAL record at an arbitrary byte.

mod conformance;

use conformance::{dir_bytes, drive, edge_query, no_snapshot_opts, sorted_embeddings, tmp_dir};
use sm_graph::builder::graph_from_edges;
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_graph::Graph;
use sm_runtime::trace::Counter;
use sm_service::{DurabilityOptions, FsyncPolicy, Service, ServiceConfig};

fn base_graph() -> Graph {
    rmat_graph(150, 4.0, 3, RmatParams::PAPER, 17)
}

fn wedge_query() -> Graph {
    graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2)])
}

fn assert_equivalent(recovered: &Service, twin: &Service) {
    assert_eq!(recovered.epoch(), twin.epoch(), "epoch");
    for q in [edge_query(), wedge_query()] {
        assert_eq!(
            sorted_embeddings(recovered, &q),
            sorted_embeddings(twin, &q),
            "query embedding sets"
        );
    }
}

#[test]
fn kill_and_recover_matches_uninterrupted_twin() {
    let dir = tmp_dir("twin");
    let cfg = ServiceConfig::default();
    let twin = Service::new(base_graph(), cfg.clone());
    let durable =
        Service::new_durable(base_graph(), cfg.clone(), &dir, no_snapshot_opts()).unwrap();
    assert!(durable.is_durable() && !twin.is_durable());

    // Standing query registered mid-stream: its registration record sits
    // between batch records in the WAL.
    let twin_batches = drive(&twin, 8, 99);
    let sid_twin = twin.register_standing(&wedge_query()).unwrap();
    let twin_batches_tail = drive(&twin, 8, 100);

    for b in &twin_batches {
        durable.apply_update(b);
    }
    let sid = durable.register_standing(&wedge_query()).unwrap();
    for b in &twin_batches_tail {
        durable.apply_update(b);
    }
    let effective = durable.counters().get(Counter::UpdatesApplied);
    assert!(effective > 0, "stream produced effective batches");
    drop(durable); // kill

    let crash_image_bytes = dir_bytes(&dir);
    let recovered = Service::open(&dir, cfg, no_snapshot_opts()).unwrap();
    assert_eq!(
        dir_bytes(&dir),
        crash_image_bytes,
        "replay appended nothing"
    );
    assert_equivalent(&recovered, &twin);
    assert_eq!(
        recovered.standing_matches(sid),
        twin.standing_matches(sid_twin),
        "standing sets"
    );
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.snapshot_epoch, 0, "no compaction happened");
    assert_eq!(report.replayed_batches, effective);
    assert_eq!(report.replayed_registrations, 1);
    let c = recovered.counters();
    assert_eq!(c.get(Counter::Recoveries), 1);
    assert_eq!(c.get(Counter::ReplayedBatches), effective);

    // The recovered service keeps logging: one more batch survives a
    // second crash.
    let more = drive(&recovered, 1, 101);
    for b in &more {
        twin.apply_update(b);
    }
    drop(recovered);
    let again = Service::open(&dir, ServiceConfig::default(), no_snapshot_opts()).unwrap();
    assert_equivalent(&again, &twin);
}

fn one_worker() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        ..Default::default()
    }
}

#[test]
fn recovery_lands_on_last_committed_epoch_at_every_cut() {
    conformance::recovery_lands_on_last_committed_epoch_at_every_cut::<Service>(one_worker());
}

#[test]
fn updates_acknowledged_after_a_torn_tail_recovery_survive_a_second_crash() {
    conformance::updates_acknowledged_after_a_torn_tail_recovery_survive_a_second_crash::<Service>(
        one_worker(),
    );
}

#[test]
fn threshold_snapshot_compacts_wal() {
    let dir = tmp_dir("threshold");
    let cfg = ServiceConfig::default();
    let opts = DurabilityOptions {
        fsync: FsyncPolicy::Off,
        snapshot_threshold_bytes: 1, // every effective batch compacts
        ..Default::default()
    };
    let twin = Service::new(base_graph(), cfg.clone());
    let durable = Service::new_durable(base_graph(), cfg.clone(), &dir, opts).unwrap();
    durable.register_standing(&wedge_query()).unwrap();
    twin.register_standing(&wedge_query()).unwrap();
    for b in drive(&twin, 6, 7) {
        durable.apply_update(&b);
    }
    let snaps = durable.counters().get(Counter::SnapshotsWritten);
    assert!(snaps > 1, "threshold snapshots were written: {snaps}");
    drop(durable);

    let recovered = Service::open(&dir, cfg, opts).unwrap();
    let report = recovered.recovery_report().unwrap();
    assert_eq!(
        report.replayed_batches, 0,
        "the snapshot absorbed the whole log"
    );
    assert_eq!(report.snapshot_epoch, recovered.epoch());
    assert_equivalent(&recovered, &twin);
}

#[test]
fn manual_snapshot_and_swap_graph_reset_the_lineage() {
    let dir = tmp_dir("swap");
    let cfg = ServiceConfig::default();
    let opts = no_snapshot_opts();
    let durable = Service::new_durable(base_graph(), cfg.clone(), &dir, opts).unwrap();
    let sid = durable.register_standing(&wedge_query()).unwrap();
    drive(&durable, 4, 3);
    assert!(durable.snapshot_now().unwrap());

    // swap_graph starts a new lineage: fresh snapshot, WAL pruned.
    let other = rmat_graph(80, 3.0, 3, RmatParams::PAPER, 23);
    durable.swap_graph(other.clone());
    let expect_standing = durable.standing_matches(sid);
    let expect_epoch = durable.epoch();
    drop(durable);

    let recovered = Service::open(&dir, cfg.clone(), opts).unwrap();
    assert_eq!(recovered.epoch(), expect_epoch);
    assert_eq!(recovered.recovery_report().unwrap().replayed_batches, 0);
    assert_eq!(recovered.standing_matches(sid), expect_standing);
    // A fresh service over the swapped-in graph answers identically
    // (epochs differ by construction: the twin never saw the updates).
    let twin = Service::new(other, cfg);
    for q in [edge_query(), wedge_query()] {
        assert_eq!(
            sorted_embeddings(&recovered, &q),
            sorted_embeddings(&twin, &q),
            "query embedding sets after swap"
        );
    }

    // A fresh `new_durable` refuses to clobber the directory.
    let err = Service::new_durable(base_graph(), ServiceConfig::default(), &dir, opts)
        .err()
        .expect("create over existing lineage must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
}
