//! Durability benchmark — an extension experiment over `sm-durable`:
//! write-ahead logging throughput under each fsync policy, then a
//! kill-and-recover cycle timing instant restart (snapshot + WAL tail
//! replay) against a cold text-parse load of the same evolved graph.
//!
//! What the run shows:
//!
//! * **WAL throughput** per [`FsyncPolicy`] — the same seeded update
//!   stream is logged under `per-batch`, `interval(5ms)` and `off`,
//!   reporting batches/s and logged MB/s; the spread is the price of
//!   the crash-loss window each policy buys back,
//! * **recovery vs cold load** — the `off` run compacts, applies a
//!   short WAL tail, and is killed (dropped); [`Service::open`] — CSR
//!   snapshot load plus tail replay — is timed against parsing the
//!   equivalent `.graph` text file and rebuilding a fresh service,
//! * **compaction and instant restart** — a manual snapshot absorbs
//!   the log; the reopen replays zero batches, and that
//!   snapshot-current restart is the headline speedup against the cold
//!   text load. The acceptance target is ≥5× (reported, warned when
//!   missed — machines differ).
//!
//! The experiment is also a correctness smoke (CI runs it): the
//! recovered service must answer a probe query set identically to the
//! pre-crash service — epoch, sorted embedding sets and standing sets —
//! and the post-compaction reopen must agree again; violations panic.

use crate::args::HarnessOptions;
use crate::table::{ms, TextTable};
use sm_delta::{UpdateStream, UpdateStreamSpec};
use sm_graph::io::{load_graph, save_graph};
use sm_graph::{Graph, VertexId};
use sm_runtime::trace::Counter;
use sm_service::{DurabilityOptions, FsyncPolicy, QueryRequest, Service, ServiceConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Update batches logged per policy run.
const STEPS: usize = 24;
/// Operations per batch.
const BATCH_OPS: usize = 8;
/// Batches applied after the pre-crash compaction point: the WAL tail
/// recovery has to replay. Kept short — periodic compaction is what
/// makes restart instant.
const TAIL: usize = 3;

/// Fresh per-run scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sm-bench-durability-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn sorted_embeddings(svc: &Service, q: &Graph) -> Vec<Vec<VertexId>> {
    let mut m: Vec<Vec<VertexId>> = svc.submit(QueryRequest::streaming(q.clone())).collect();
    m.sort_unstable();
    m
}

/// Apply `n` batches of the seeded stream to `svc`, generating each
/// batch against the service's own evolving graph. Returns the wall
/// time.
fn drive(svc: &Service, n: usize, num_labels: usize, seed: u64) -> Duration {
    let mut stream = UpdateStream::new(
        UpdateStreamSpec {
            batch_size: BATCH_OPS,
            insert_ratio: 0.5,
            vertex_add_ratio: 0.05,
            num_labels,
        },
        seed,
    );
    let t0 = Instant::now();
    for _ in 0..n {
        let batch = stream.next_batch(&svc.snapshot());
        svc.apply_update(&batch);
    }
    t0.elapsed()
}

/// Run the durability experiment.
pub fn run(opts: &HarnessOptions) {
    let specs = super::datasets_for(opts, &["up"]);
    let Some(spec) = specs.first() else {
        eprintln!("durability: no dataset resolved");
        return;
    };
    let ds = super::load(spec);
    let g0 = ds.graph.clone();
    let num_labels = (0..g0.num_vertices() as VertexId)
        .map(|v| g0.label(v) as usize + 1)
        .max()
        .unwrap_or(1);
    let cfg = ServiceConfig {
        workers: opts.threads.max(1),
        ..ServiceConfig::default()
    };
    // The label pair with the *fewest* edges: a selective 1-edge probe
    // whose standing set stays small enough that snapshot size reflects
    // the graph, not the probe.
    let probe = super::edge_label_pair_counts(&g0)
        .into_iter()
        .min_by_key(|&(_, c)| c)
        .map(|((la, lb), _)| sm_graph::builder::graph_from_edges(&[la, lb], &[(0, 1)]))
        .expect("dataset has at least one edge");
    println!(
        "\n=== Durability: {STEPS} batches x {BATCH_OPS} ops on {} (seed {}) ===",
        spec.name, opts.seed,
    );

    // --- WAL throughput per fsync policy -----------------------------
    let policies: [(&str, FsyncPolicy); 3] = [
        ("per-batch", FsyncPolicy::PerBatch),
        (
            "interval-5ms",
            FsyncPolicy::Interval(Duration::from_millis(5)),
        ),
        ("off", FsyncPolicy::Off),
    ];
    let mut t = TextTable::new(vec![
        "fsync",
        "batches",
        "wall ms",
        "batches/s",
        "wal KiB",
        "MiB/s",
    ]);
    let mut off_run = None;
    for (name, fsync) in policies {
        let dir = scratch(name);
        let dopts = DurabilityOptions {
            fsync,
            snapshot_threshold_bytes: 0, // manual snapshots only
            ..DurabilityOptions::default()
        };
        let svc = Service::new_durable(g0.clone(), cfg.clone(), &dir, dopts)
            .expect("create durable service");
        let sid = svc.register_standing(&probe).expect("register probe query");
        let wall = drive(&svc, STEPS, num_labels, opts.seed);
        svc.sync_durable().expect("final sync");
        let c = svc.counters();
        let (appends, bytes) = (c.get(Counter::WalAppends), c.get(Counter::WalBytes));
        let wall_ms = wall.as_secs_f64() * 1e3;
        let bps = appends as f64 / wall.as_secs_f64().max(1e-9);
        let mibs = bytes as f64 / (1 << 20) as f64 / wall.as_secs_f64().max(1e-9);
        t.row(vec![
            name.to_string(),
            appends.to_string(),
            ms(wall_ms),
            format!("{bps:.0}"),
            format!("{:.1}", bytes as f64 / 1024.0),
            format!("{mibs:.1}"),
        ]);
        if fsync == FsyncPolicy::Off {
            off_run = Some((dir, svc, sid));
        } else {
            drop(svc);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    t.print();
    let (dir, svc, sid) = off_run.expect("off run kept");

    // --- Kill and recover, vs cold text-parse load -------------------
    // Compact, then apply a short tail the WAL alone holds: recovery =
    // snapshot load + TAIL-batch replay, the steady state of a service
    // with periodic compaction.
    assert!(svc.snapshot_now().expect("pre-crash compaction"));
    drive(&svc, TAIL, num_labels, opts.seed ^ 0x5eed);
    let expect_epoch = svc.epoch();
    let expect_embeddings = sorted_embeddings(&svc, &probe);
    let expect_standing = svc.standing_matches(sid);
    let (evolved, _) = svc.snapshot().materialize();
    drop(svc); // kill

    let t0 = Instant::now();
    let recovered = Service::open(&dir, cfg.clone(), DurabilityOptions::default())
        .expect("recover from WAL + snapshot");
    let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
    let report = recovered.recovery_report().expect("recovery happened");
    assert_eq!(recovered.epoch(), expect_epoch, "recovered epoch");
    assert_eq!(
        sorted_embeddings(&recovered, &probe),
        expect_embeddings,
        "recovered service answers the probe query set identically"
    );
    assert_eq!(
        recovered.standing_matches(sid),
        expect_standing,
        "recovered standing set"
    );

    // Cold path: parse the evolved graph from its text form and build a
    // fresh service (NLF + label-pair indexes from scratch).
    let text = scratch("coldload").join("evolved.graph");
    std::fs::create_dir_all(text.parent().unwrap()).expect("create cold-load dir");
    save_graph(&evolved, &text).expect("write text graph");
    let t1 = Instant::now();
    let reparsed = load_graph(&text).expect("parse text graph");
    let cold = Service::new(reparsed, cfg.clone());
    let cold_ms = t1.elapsed().as_secs_f64() * 1e3;
    assert_eq!(cold.epoch(), 0);
    let tail_ratio = cold_ms / recovery_ms.max(1e-9);

    // --- Compaction: snapshot absorbs the log ------------------------
    // The reopen after compaction is the *snapshot-current restart* —
    // the steady state a periodically-compacting service restarts from,
    // and the headline "instant restart" number: page in the CSR
    // snapshot, replay nothing.
    let t2 = Instant::now();
    assert!(recovered.snapshot_now().expect("manual snapshot"));
    let snapshot_ms = t2.elapsed().as_secs_f64() * 1e3;
    drop(recovered);
    let t3 = Instant::now();
    let compacted =
        Service::open(&dir, cfg, DurabilityOptions::default()).expect("reopen after compaction");
    let restart_ms = t3.elapsed().as_secs_f64() * 1e3;
    let report2 = compacted.recovery_report().expect("second recovery");
    assert_eq!(report2.replayed_batches, 0, "snapshot absorbed the log");
    assert_eq!(
        sorted_embeddings(&compacted, &probe),
        expect_embeddings,
        "post-compaction reopen agrees"
    );
    let ratio = cold_ms / restart_ms.max(1e-9);

    println!(
        "crash recovery {} (replayed {} batches, {} registrations) vs cold text load {} -> {tail_ratio:.1}x",
        ms(recovery_ms),
        report.replayed_batches,
        report.replayed_registrations,
        ms(cold_ms),
    );
    println!(
        "snapshot-current restart {} (snapshot took {}) vs cold text load {} -> {ratio:.1}x",
        ms(restart_ms),
        ms(snapshot_ms),
        ms(cold_ms),
    );
    println!("(recovered service asserted identical to pre-crash on epoch, probe embeddings and standing sets)");
    if ratio < 5.0 {
        eprintln!("warning: restart speedup {ratio:.1}x below the 5x target");
    }

    drop(compacted);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(text.parent().unwrap());
}
