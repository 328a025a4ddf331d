//! `update-durable`: one client writing to and reading from a durable
//! `Service` on `up`.
//!
//! Each iteration applies one 32-operation batch of a seeded update
//! stream (fsync per batch), then runs two counting queries from a fixed
//! pool. Four standing queries are maintained incrementally. WAL segment
//! and snapshot thresholds are small enough that rotation, threshold
//! snapshots and pruning all run several cycles inside one run. When the
//! timed section ends the directory is copied while the service is live
//! (the crash image) and reopened, and the recovered state is compared
//! with what the live service acknowledged.
//!
//! One client and no timers: byte and flush counts follow from the seed
//! alone, and every read has a definite expected answer.
//!
//! [`UpdateRig`] is also the traced run's delta/durable probe, at a
//! small size, on whatever data graph the traced workload uses.

use super::{end_to_end, measure, median_setup, Pass, Report, RunOpts, Verdict};
use crate::env::{self, TempDir};
use crate::inputs;
use crate::layers::{self, LayerInputs, PartRef};
use crate::metrics::Metrics;
use crate::oracle;
use crate::span::SpanBuf;
use crate::stats;
use sm_runtime::{Counter, Rng64};
use std::path::Path;
use std::time::Instant;
use subgraph_matching::datasets::DatasetSpec;
use subgraph_matching::delta::{Snapshot, UpdateStream, UpdateStreamSpec};
use subgraph_matching::durable::wal::list_segments;
use subgraph_matching::durable::{list_snapshots, read_snapshot};
use subgraph_matching::graph::gen::query::Density;
use subgraph_matching::graph::{Graph, GraphStats};
use subgraph_matching::matching::{recommended, DataContext};
use subgraph_matching::service::{
    DurabilityOptions, FsyncPolicy, Service, ServiceConfig, ServiceOutcome, StandingId,
};

/// Operations per update batch.
pub const BATCH_OPS: usize = 32;
/// Counting queries after each update.
const READS_PER_UPDATE: usize = 2;
/// Cap of the counting queries.
pub const READ_CAP: u64 = 10_000;
/// Iterations per timed pass.
const PASS_ITERATIONS: usize = 50;
/// One read in this many iterations keeps its snapshot for the oracle.
const SAMPLE_EVERY: usize = 25;
/// Only the most recent samples are kept: a pinned snapshot holds its
/// overlay alive, and the workload's peak memory should not grow with
/// the oracle's bookkeeping.
const SAMPLES_KEPT: usize = 8;
/// Reopens of the crash image (`recover_s` is their median).
const REOPENS: usize = 15;
/// Probe queries compared between the recovered and a fresh service.
const PROBES: usize = 8;
/// A standing query keeps its whole embedding set in memory and in every
/// snapshot; forms with more embeddings than this are not registered.
pub const STANDING_LIMIT: u64 = 20_000;

/// WAL thresholds sized so that rotation, threshold snapshot and prune
/// each run at least four cycles even in the traced run's shorter loop
/// (a 32-op batch logs about 0.3 KiB, so a segment holds some 25 batches
/// and a snapshot falls due every 50).
pub fn durability() -> DurabilityOptions {
    DurabilityOptions {
        fsync: FsyncPolicy::PerBatch,
        segment_bytes: 8 << 10,
        snapshot_threshold_bytes: 16 << 10,
    }
}

pub fn stream_spec(g: &Graph) -> UpdateStreamSpec {
    UpdateStreamSpec {
        batch_size: BATCH_OPS,
        insert_ratio: 0.8,
        vertex_add_ratio: 0.05,
        num_labels: inputs::num_labels(g),
    }
}

/// A read whose answer the oracle recounts on the snapshot it ran
/// against.
struct ReadSample {
    snapshot: Snapshot,
    form: usize,
    matches: u64,
}

/// What the update loop observed.
#[derive(Default)]
pub struct UpdateObs {
    pub update_lat_ms: Vec<f64>,
    pub read_lat_ms: Vec<f64>,
    /// Wall seconds of all driven iterations.
    pub wall_s: f64,
    pub updates: u64,
    /// Operations submitted (batch sizes summed).
    pub ops: u64,
    pub plans_retained: u64,
    pub plans_evicted: u64,
    /// Time the service itself reported for its updates.
    pub reported_update_s: f64,
    samples: Vec<ReadSample>,
    /// Updates whose epoch did not advance by exactly one, and reads
    /// that did not finish.
    pub broken: u64,
    pub snapshot_write_ms: Vec<f64>,
}

/// A durable service with its update stream, standing queries and reads.
pub struct UpdateRig {
    pub svc: Service,
    dir: TempDir,
    cfg: ServiceConfig,
    dopts: DurabilityOptions,
    stream: UpdateStream,
    standing: Vec<StandingId>,
    reads: Vec<Graph>,
    rng: Rng64,
    iterations: usize,
    pub obs: UpdateObs,
}

/// After the loop: recovery timings and whether the recovered state is
/// the acknowledged one.
pub struct Recovery {
    pub recover_s: f64,
    pub restart_s: f64,
    pub replayed_batches: u64,
    pub snapshot_bytes: u64,
    pub snapshot_read_ms: f64,
    pub segments_rotated: u64,
}

impl UpdateRig {
    /// A durable service over `graph` in a fresh scratch directory, with
    /// `standing` registered (see [`layers::standing_forms`]).
    pub fn new(
        graph: Graph,
        cfg: ServiceConfig,
        dopts: DurabilityOptions,
        reads: Vec<Graph>,
        standing: &[Graph],
        seed: u64,
        tag: &str,
    ) -> Result<UpdateRig, String> {
        let dir = TempDir::new(tag).map_err(|e| format!("scratch directory: {e}"))?;
        let stream = UpdateStream::new(stream_spec(&graph), inputs::mix(seed, 0xD0));
        let svc = Service::new_durable(graph, cfg.clone(), &dir.path().join("live"), dopts)
            .map_err(|e| format!("create durable service: {e}"))?;
        let ids: Vec<StandingId> = standing
            .iter()
            .filter_map(|q| svc.register_standing(q))
            .collect();
        if ids.len() < standing.len() {
            return Err(format!(
                "only {} of {} standing queries registered",
                ids.len(),
                standing.len()
            ));
        }
        Ok(UpdateRig {
            svc,
            dir,
            cfg,
            dopts,
            stream,
            standing: ids,
            reads,
            rng: Rng64::seed_from_u64(inputs::mix(seed, 0xD1)),
            iterations: 0,
            obs: UpdateObs::default(),
        })
    }

    fn live_dir(&self) -> std::path::PathBuf {
        self.dir.path().join("live")
    }

    /// Run `iterations` of { one update batch; the reads }.
    pub fn drive(&mut self, iterations: usize, pass_idx: usize, rec: &mut SpanBuf) -> Pass {
        let started = Instant::now();
        let mut lat_ms = Vec::with_capacity(iterations * READS_PER_UPDATE);
        for i in 0..iterations {
            let qid = ((pass_idx as u64) << 32) | (i as u64 * 4 + 1);
            let batch = self.stream.next_batch(&self.svc.snapshot());
            let before = self.svc.epoch();
            let t = Instant::now();
            let (report, _) = rec.timed("service.apply_update", qid, || {
                self.svc.apply_update(&batch)
            });
            self.obs.update_lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
            self.obs.updates += 1;
            self.obs.ops += batch.len() as u64;
            self.obs.plans_retained += report.plans_retained as u64;
            self.obs.plans_evicted += report.plans_evicted as u64;
            self.obs.reported_update_s += report.elapsed.as_secs_f64();
            let advanced = report.epoch == before + u64::from(!report.noop);
            self.obs.broken += u64::from(!advanced);
            self.iterations += 1;
            for r in 0..READS_PER_UPDATE {
                let form = self.rng.next_u64_below(self.reads.len() as u64) as usize;
                let query = self.reads[form].clone();
                let t = Instant::now();
                let (reply, _) =
                    rec.timed("query", qid + 1 + r as u64, || self.svc.run_count(query));
                lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let finished = matches!(
                    reply.outcome,
                    ServiceOutcome::Complete | ServiceOutcome::CapHit
                );
                self.obs.broken += u64::from(!finished);
                if r == 0 && self.iterations.is_multiple_of(SAMPLE_EVERY) {
                    if self.obs.samples.len() == SAMPLES_KEPT {
                        self.obs.samples.remove(0);
                    }
                    self.obs.samples.push(ReadSample {
                        snapshot: self.svc.snapshot(),
                        form,
                        matches: reply.matches,
                    });
                }
            }
        }
        self.obs.wall_s += started.elapsed().as_secs_f64();
        self.obs.read_lat_ms.extend_from_slice(&lat_ms);
        Pass {
            wall_s: started.elapsed().as_secs_f64(),
            ops: lat_ms.len() as u64,
            lat_ms,
        }
    }

    /// Force one snapshot now and record how long the writer stalled.
    pub fn snapshot_now(&mut self, rec: &mut SpanBuf) -> Result<(), String> {
        let (res, secs) = rec.timed("durable.snapshot_now", 0, || self.svc.snapshot_now());
        res.map_err(|e| format!("snapshot_now: {e}"))?;
        self.obs.snapshot_write_ms.push(secs * 1e3);
        Ok(())
    }

    /// Recount the sampled reads on the snapshots they ran against.
    fn check_reads(&mut self, sabotage: bool, verdict: &mut Verdict) {
        for (i, s) in std::mem::take(&mut self.obs.samples)
            .into_iter()
            .enumerate()
        {
            let (graph, _) = s.snapshot.materialize();
            let ctx = DataContext::new(&graph);
            let mut want = oracle::expected_count(&self.reads[s.form], &ctx, Some(READ_CAP));
            if sabotage && i == 0 {
                want = want.map(|c| c + 1);
            }
            verdict.check(want == Some(s.matches), || {
                format!(
                    "read of form {} at epoch {}: got {}, oracle {want:?}",
                    s.form,
                    s.snapshot.epoch(),
                    s.matches
                )
            });
        }
    }

    /// Sync, copy the live directory (the crash image), reopen it
    /// `reopens` times, and check the recovered service against the live
    /// one and against a fresh service on the final graph.
    pub fn crash_and_recover(
        &mut self,
        reopens: usize,
        sabotage: bool,
        verdict: &mut Verdict,
        rec: &mut SpanBuf,
    ) -> Result<Recovery, String> {
        let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
        self.svc.sync_durable().map_err(|e| io("sync_durable", e))?;
        let image = self.dir.path().join("image");
        env::copy_dir(&self.live_dir(), &image).map_err(|e| io("copy crash image", e))?;
        let segments = list_segments(&image).map_err(|e| io("list segments", e))?;
        let segments_rotated = segments.last().map_or(0, |&(seq, _)| seq.saturating_sub(1));
        if sabotage {
            corrupt_wal_tail(&image)?;
        }
        let (snapshot_bytes, snapshot_read_ms) = {
            let snaps = list_snapshots(&image).map_err(|e| io("list snapshots", e))?;
            let (_, path) = snaps.last().ok_or("crash image has no snapshot")?;
            let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
            let t = Instant::now();
            read_snapshot(path).map_err(|e| format!("read snapshot: {e:?}"))?;
            (bytes, t.elapsed().as_secs_f64() * 1e3)
        };

        let work = self.dir.path().join("reopen");
        let probe = self.reads[0].clone();
        let mut times = Vec::with_capacity(reopens);
        let mut recovered = None;
        for _ in 0..reopens.max(1) {
            drop(recovered.take());
            env::copy_dir(&image, &work).map_err(|e| io("copy for reopen", e))?;
            let t = Instant::now();
            let token = rec.open("durable.recover", 0);
            let svc = Service::open(&work, self.cfg.clone(), self.dopts)
                .map_err(|e| io("Service::open", e))?;
            std::hint::black_box(svc.run_count(probe.clone()));
            rec.close(token);
            times.push(t.elapsed().as_secs_f64());
            recovered = Some(svc);
        }
        let recovered = recovered.expect("at least one reopen");
        let report = recovered
            .recovery_report()
            .ok_or("reopened service has no recovery report")?;

        // Recovered state = acknowledged state.
        let (live_epoch, got_epoch) = (self.svc.epoch(), recovered.epoch());
        verdict.check(live_epoch == got_epoch, || {
            format!("recovered epoch {got_epoch}, acknowledged {live_epoch}")
        });
        for &id in &self.standing {
            let (want, got) = (self.svc.standing_count(id), recovered.standing_count(id));
            verdict.check(want == got, || {
                format!("standing set {id:?}: recovered {got} embeddings, live {want}")
            });
        }
        let (final_graph, _) = self.svc.snapshot().materialize();
        let fresh = Service::new(final_graph, self.cfg.clone());
        for q in self.reads.iter().take(PROBES) {
            let want = fresh.run_count(q.clone()).matches;
            let got = recovered.run_count(q.clone()).matches;
            verdict.check(want == got, || {
                format!("probe on the recovered service: {got}, fresh service {want}")
            });
        }
        drop(fresh);

        // Restart with nothing to replay: compact, reopen once more.
        recovered
            .snapshot_now()
            .map_err(|e| io("snapshot before restart", e))?;
        drop(recovered);
        let t = Instant::now();
        let restarted = Service::open(&work, self.cfg.clone(), self.dopts)
            .map_err(|e| io("Service::open after compaction", e))?;
        std::hint::black_box(restarted.run_count(probe));
        let restart_s = t.elapsed().as_secs_f64();
        Ok(Recovery {
            recover_s: stats::median(&times),
            restart_s,
            replayed_batches: report.replayed_batches,
            snapshot_bytes,
            snapshot_read_ms,
            segments_rotated,
        })
    }

    /// The update path as a client sees it, and what the delta and
    /// durable layers did underneath.
    pub fn report(&self, recovery: &Recovery, m: &mut Metrics) {
        let upd = stats::sorted(self.obs.update_lat_ms.clone());
        m.set(
            "updates_per_s",
            self.obs.updates as f64 / self.obs.wall_s.max(1e-9),
        );
        m.set("update_p50_ms", stats::percentile(&upd, 0.5).unwrap_or(0.0));
        m.set("update_p95_ms", stats::tail_percentile(&upd));
        m.set("recover_s", recovery.recover_s);
        let counters = self.svc.counters();
        let wal_bytes = counters.get(Counter::WalBytes);
        m.set(
            "wal_bytes_per_op",
            wal_bytes as f64 / (self.obs.ops as f64).max(1.0),
        );
        let looked_at = self.obs.plans_retained + self.obs.plans_evicted;
        m.set(
            "delta.plans_retained_ratio",
            self.obs.plans_retained as f64 / (looked_at as f64).max(1.0),
        );
        // Fsync per batch: every append is one flush.
        m.set("durable.fsyncs", counters.get(Counter::WalAppends) as f64);
        m.set("durable.wal_bytes", wal_bytes as f64);
        m.set("durable.segments_rotated", recovery.segments_rotated as f64);
        m.set(
            "durable.snapshots_written",
            counters.get(Counter::SnapshotsWritten) as f64,
        );
        m.set(
            "durable.snapshot_write_ms",
            stats::median(&self.obs.snapshot_write_ms),
        );
        m.set("durable.snapshot_bytes", recovery.snapshot_bytes as f64);
        m.set("durable.snapshot_read_ms", recovery.snapshot_read_ms);
        m.set("durable.replayed_batches", recovery.replayed_batches as f64);
        m.set(
            "durable.replay_ms",
            ((recovery.recover_s - recovery.restart_s) * 1e3).max(0.0),
        );
    }
}

/// Flip one byte near the end of the newest non-empty WAL segment.
fn corrupt_wal_tail(dir: &Path) -> Result<(), String> {
    let segments = list_segments(dir).map_err(|e| format!("list segments: {e}"))?;
    let (_, path) = segments
        .iter()
        .rev()
        .find(|(_, p)| std::fs::metadata(p).is_ok_and(|m| m.len() > 8))
        .ok_or("no WAL segment to corrupt")?;
    let mut bytes = std::fs::read(path).map_err(|e| format!("read WAL: {e}"))?;
    let at = bytes.len() - 3;
    bytes[at] ^= 0x5A;
    std::fs::write(path, bytes).map_err(|e| format!("write WAL: {e}"))
}

struct Setup {
    spec: DatasetSpec,
    rig: UpdateRig,
}

fn build(opts: &RunOpts, standing: &[Graph], rec: &mut SpanBuf) -> Result<Setup, String> {
    let ((spec, graph), _) = rec.timed("graph.generate", 0, || inputs::dataset("up"));
    let (reads, _) = rec.timed("graph.query_gen", 0, || {
        inputs::query_pool(&graph, 6, Density::Sparse, opts.size(16, 4), 0x20)
    });
    let mut cfg = super::serve::service_config(&graph, 6, 2);
    cfg.default_cap = Some(READ_CAP);
    let (rig, _) = rec.timed("service.new_durable", 0, || {
        UpdateRig::new(
            graph,
            cfg,
            durability(),
            reads,
            standing,
            opts.seed,
            "update-durable",
        )
    });
    Ok(Setup { spec, rig: rig? })
}

pub fn run(opts: &RunOpts) -> Result<Report, String> {
    let mut rec = SpanBuf::new(opts.trace);
    // Workload definition (untimed): which pooled forms are standing.
    let standing = layers::standing_forms(&inputs::dataset("up").1, 4);
    let (setup, setup_s) = median_setup(|| {
        let token = rec.open("setup", 0);
        let setup = build(opts, &standing, &mut rec);
        rec.close(token);
        setup
    });
    let Setup { spec, mut rig } = setup?;
    let iterations = opts.size(PASS_ITERATIONS, 30);
    let mut snapshot_error = None;
    let measured = measure(opts, &mut rec, |kind, rec| {
        let pass_idx = kind.index();
        // One manual snapshot, early in the timed section; the others
        // are the threshold's.
        if pass_idx == 2 {
            snapshot_error = rig.snapshot_now(rec).err();
        }
        rig.drive(iterations, pass_idx, rec)
    });
    if let Some(e) = snapshot_error {
        return Err(e);
    }
    let peak_rss_mb = env::peak_rss_mb();

    let t = Instant::now();
    // Every update advanced the epoch by one; every read finished.
    let mut verdict = Verdict {
        attempted: rig.obs.updates + rig.obs.read_lat_ms.len() as u64,
        failed: rig.obs.broken,
        ..Verdict::default()
    };
    rig.check_reads(opts.sabotage, &mut verdict);
    let recovery =
        rig.crash_and_recover(opts.size(REOPENS, 2), opts.sabotage, &mut verdict, &mut rec)?;
    let oracle_s = t.elapsed().as_secs_f64();

    let mut m = Metrics::default();
    let mut notes = verdict.examples.clone();
    if opts.trace {
        let (_, graph) = inputs::dataset(spec.abbrev);
        let (pipeline, config) = recommended(&GraphStats::of(&graph), 6);
        let inputs = LayerInputs {
            parts: vec![PartRef {
                spec,
                graph: &graph,
                queries: &rig.reads,
                pipeline,
                config: subgraph_matching::matching::MatchConfig {
                    max_matches: Some(READ_CAP),
                    ..config
                },
            }],
            opts,
        };
        layers::probe_all(&inputs, &mut m, &mut rec)?;
        // This workload's own loop is the delta/durable measurement.
        rig.report(&recovery, &mut m);
        let clients = super::serve::ClientObs {
            lat_ms: rig.obs.read_lat_ms.clone(),
            ..Default::default()
        };
        layers::report_service_loop(&mut m, &rig.svc.metrics_report(), &clients);
        // Updates are attributed by the time the service reports for
        // them; reads by the service's phase histograms.
        let wall = rig.obs.update_lat_ms.iter().sum::<f64>() / 1e3 + clients.lat_sum_s();
        let attributed =
            rig.obs.reported_update_s + layers::service_phase_seconds(&rig.svc.metrics_report());
        m.set(
            "bench.unattributed_share",
            (1.0 - attributed / wall.max(1e-9)).max(0.0),
        );
        m.set("bench.oracle_s", oracle_s);
        m.set("bench.trace_overhead_ratio", measured.trace_overhead);
        layers::write_trace(&rec, "update-durable", &mut notes);
    } else {
        end_to_end(&mut m, setup_s, &measured, peak_rss_mb);
    }
    let counters = rig.svc.counters();
    notes.push(format!(
        "{} passes, {} updates ({} ops), {} reads, {} snapshots, {} segment rotations, replayed {} batches, recover {:.1} ms, checks {:.2} s",
        measured.passes.len(),
        rig.obs.updates,
        rig.obs.ops,
        rig.obs.read_lat_ms.len(),
        counters.get(Counter::SnapshotsWritten),
        recovery.segments_rotated,
        recovery.replayed_batches,
        recovery.recover_s * 1e3,
        oracle_s
    ));
    Ok(Report {
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics: m,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use subgraph_matching::delta::{UpdateBatch, VersionedGraph};

    fn batches(seed: u64) -> Vec<UpdateBatch> {
        let (_, g) = inputs::dataset("ye");
        let vg = VersionedGraph::new(g.clone());
        let mut stream = UpdateStream::new(stream_spec(&g), inputs::mix(seed, 0xD0));
        (0..6)
            .map(|_| {
                let batch = stream.next_batch(&vg.snapshot());
                vg.commit(&batch);
                batch
            })
            .collect()
    }

    /// Debug rendering: `UpdateBatch` does not implement `PartialEq`.
    fn ops(batches: &[UpdateBatch]) -> Vec<String> {
        batches.iter().map(|b| format!("{b:?}")).collect()
    }

    #[test]
    fn update_batches_follow_the_seed() {
        let (a, b, c) = (batches(42), batches(42), batches(43));
        assert_eq!(ops(&a), ops(&b), "same seed, same batches");
        assert_ne!(ops(&a), ops(&c), "another seed, other batches");
        assert!(a.iter().all(|batch| batch.len() > BATCH_OPS / 2));
    }
}
