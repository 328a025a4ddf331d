//! Dynamic-graph update benchmark — an extension experiment over
//! `sm-delta`: a seeded update stream mutates the benchmark graph batch
//! by batch while a set of standing queries is maintained two ways —
//! **incrementally** (delta-driven enumeration seeded from each changed
//! edge) and by **full recompute** on the materialized post graph.
//!
//! What the table shows, per batch:
//!
//! * commit latency (normalization + overlay patching),
//! * incremental maintenance time vs full-recompute time and the
//!   resulting **speedup** — the point of the subsystem: for small
//!   batches the incremental path touches only embeddings using changed
//!   edges, so the speedup should be large (the acceptance bar is ≥5×
//!   on the default configuration),
//! * the embedding churn (added/retracted) of the batch.
//!
//! The experiment is also a correctness smoke (CI runs it): after every
//! batch the incrementally maintained embedding set of every standing
//! query is asserted equal to the from-scratch set, and a snapshot
//! pinned before the stream still materializes the original graph —
//! violations panic. A service row at the end measures the end-to-end
//! [`sm_service::Service::apply_update`] path (install + scoped cache
//! retargeting + standing maintenance) on the same stream.

use crate::args::HarnessOptions;
use crate::table::{ms, TextTable};
use sm_delta::{delta_matches, UpdateStream, UpdateStreamSpec, VersionedGraph};
use sm_graph::gen::query::{Density, QuerySetSpec};
use sm_graph::{Graph, VertexId};
use sm_match::enumerate::CollectSink;
use sm_match::{DataContext, FilterKind, LcMethod, MatchConfig, OrderKind, Pipeline};
use sm_service::update::standing_query;
use sm_service::{Service, ServiceConfig};
use std::time::Instant;

/// Update batches applied per run.
const STEPS: usize = 10;
/// Operations per batch — small on purpose: the incremental-vs-full
/// speedup claim is about small deltas.
const BATCH_OPS: usize = 8;

/// From-scratch sorted embedding set (the representation
/// `DeltaMatches::apply_to` maintains).
fn full_matches(q: &Graph, g: &Graph) -> Vec<Vec<VertexId>> {
    let ctx = DataContext::new(g);
    let p = Pipeline::new("ref", FilterKind::Ldf, OrderKind::Ri, LcMethod::Direct);
    let mut sink = CollectSink::default();
    p.run_with_sink(q, &ctx, &MatchConfig::find_all(), &mut sink);
    let mut m = sink.matches;
    m.sort_unstable();
    m
}

/// Run the update experiment.
pub fn run(opts: &HarnessOptions) {
    let specs = super::datasets_for(opts, &["ye"]);
    let Some(spec) = specs.first() else {
        eprintln!("update: no dataset resolved");
        return;
    };
    let ds = super::load(spec);
    let g0 = ds.graph.clone();
    let num_labels = (0..g0.num_vertices() as VertexId)
        .map(|v| g0.label(v) as usize + 1)
        .max()
        .unwrap_or(1);

    // Small standing queries sampled from the graph (so they match), plus
    // the generator may hand us shapes the incremental engine rejects
    // (disconnected) — those are skipped.
    let mut raw = super::query_set(
        &ds,
        QuerySetSpec {
            num_vertices: 4,
            density: Density::Dense,
            count: opts.queries.clamp(2, 4),
        },
    );
    // A 1-edge query over the graph's most frequent edge label pair:
    // random stream deletions hit it often, so the per-batch embedding
    // churn (added/removed) is visibly nonzero, not just asserted.
    // The unordered vertex-label pair with the most edges.
    let top_pair = super::edge_label_pair_counts(&g0)
        .into_iter()
        .max_by_key(|&(_, c)| c);
    if let Some(((la, lb), _)) = top_pair {
        raw.push(sm_graph::builder::graph_from_edges(&[la, lb], &[(0, 1)]));
    }
    let standing: Vec<_> = raw.iter().filter_map(standing_query).collect();
    assert!(!standing.is_empty(), "no supported standing queries");
    let threads = opts.threads;
    println!(
        "\n=== Updates: {STEPS} batches x {BATCH_OPS} ops on {} ({} standing queries, {threads} threads, seed {}) ===",
        spec.name,
        standing.len(),
        opts.seed,
    );

    let vg = VersionedGraph::new(g0.clone());
    let pinned = vg.snapshot();
    let mut stream = UpdateStream::new(
        UpdateStreamSpec {
            batch_size: BATCH_OPS,
            insert_ratio: 0.5,
            vertex_add_ratio: 0.05,
            num_labels,
        },
        opts.seed,
    );
    let mut maintained: Vec<Vec<Vec<VertexId>>> = standing
        .iter()
        .map(|sq| full_matches(sq.plan().query(), &g0))
        .collect();

    let mut t = TextTable::new(vec![
        "step",
        "ops",
        "commit ms",
        "incr ms",
        "full ms",
        "speedup",
        "added",
        "removed",
    ]);
    let mut incr_total = 0.0f64;
    let mut full_total = 0.0f64;
    for step in 0..STEPS {
        let batch = stream.next_batch(&vg.snapshot());
        let t0 = Instant::now();
        let committed = vg.commit(&batch);
        let commit_ms = t0.elapsed().as_secs_f64() * 1e3;
        let ops = committed.info.edges_inserted.len() + committed.info.edges_deleted.len();

        // Incremental: enumerate only embeddings using changed edges.
        let t1 = Instant::now();
        let mut added = 0usize;
        let mut removed = 0usize;
        for (sq, acc) in standing.iter().zip(maintained.iter_mut()) {
            let d = delta_matches(sq, &committed, threads);
            added += d.added.len();
            removed += d.removed.len();
            *acc = d.apply_to(acc);
        }
        let incr_ms = t1.elapsed().as_secs_f64() * 1e3;

        // Full recompute on the materialized post graph — and the
        // correctness assertion that makes this a CI smoke.
        let (mat, _) = committed.post.materialize();
        let t2 = Instant::now();
        for (qi, (sq, acc)) in standing.iter().zip(maintained.iter()).enumerate() {
            let want = full_matches(sq.plan().query(), &mat);
            assert_eq!(
                *acc, want,
                "incremental != full recompute (query {qi}, step {step})"
            );
        }
        let full_ms = t2.elapsed().as_secs_f64() * 1e3;
        incr_total += incr_ms;
        full_total += full_ms;
        let speedup = full_ms / incr_ms.max(1e-9);
        t.row(vec![
            step.to_string(),
            ops.to_string(),
            ms(commit_ms),
            ms(incr_ms),
            ms(full_ms),
            format!("{speedup:.1}x"),
            added.to_string(),
            removed.to_string(),
        ]);
    }
    t.print();

    // The pre-stream snapshot is still the original graph.
    let (old, _) = pinned.materialize();
    assert_eq!(
        (old.num_vertices(), old.num_edges()),
        (g0.num_vertices(), g0.num_edges()),
        "pinned snapshot drifted"
    );

    // Snapshot overhead: pin latency is the cost a reader pays per query.
    let t3 = Instant::now();
    let pins = 1000;
    for _ in 0..pins {
        std::hint::black_box(vg.snapshot());
    }
    let pin_ns = t3.elapsed().as_nanos() as f64 / pins as f64;

    // End-to-end service path on the same stream (fresh seed replay):
    // apply_update = commit + materialize/install + scoped cache
    // retargeting + standing maintenance.
    let svc = {
        let mut svc_cfg = ServiceConfig {
            workers: threads.max(1),
            ..ServiceConfig::default()
        };
        super::apply_plan(&mut svc_cfg, &opts.plan);
        Service::new(g0.clone(), svc_cfg)
    };
    for q in &raw {
        let _ = svc.register_standing(q);
    }
    let mut svc_stream = UpdateStream::new(
        UpdateStreamSpec {
            batch_size: BATCH_OPS,
            insert_ratio: 0.5,
            vertex_add_ratio: 0.05,
            num_labels,
        },
        opts.seed,
    );
    let t4 = Instant::now();
    for _ in 0..STEPS {
        let batch = svc_stream.next_batch(&svc.snapshot());
        svc.apply_update(&batch);
    }
    let svc_wall_ms = t4.elapsed().as_secs_f64() * 1e3;

    let speedup = full_total / incr_total.max(1e-9);
    let stats = vg.stats();
    println!(
        "incremental total {} vs full {} -> {speedup:.1}x speedup | snapshot pin {pin_ns:.0} ns | \
         service apply_update {:.1} batches/s | epoch {} live-delta {}",
        ms(incr_total),
        ms(full_total),
        STEPS as f64 / (svc_wall_ms / 1e3).max(1e-9),
        stats.epoch,
        stats.delta_edges_live,
    );
    println!("(incremental embedding sets asserted equal to full recompute after every batch; a snapshot pinned before the stream still materializes the original graph)");
    if speedup < 5.0 {
        eprintln!("warning: incremental speedup {speedup:.1}x below the 5x target");
    }
}
