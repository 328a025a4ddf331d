//! Figure 10: set-intersection kernels — the Hybrid policy vs the
//! QFilter-style block-bitmap layout — inside the optimized GQL engine.
//!
//! The paper finds QFilter ahead on the dense graphs (`eu`, `hu`) and
//! behind on sparse ones, where the compact layout's conversion overhead
//! dominates. The two kernels differ only in how `LC` is intersected, so
//! every query must report the same matches and outcome under both
//! (asserted), unless the time limit cut one of them short. An unsolved
//! query counts as the time limit in the averages, so each table also
//! gives the unsolved queries per kernel.
//!
//! A last table times the kernels on their own, outside the engine, on a
//! dense and a sparse list pair: the crossover the engine-level tables
//! inherit. Merge, Galloping, Hybrid and QFilter must return the same
//! intersection on both pairs (asserted).

use crate::args::HarnessOptions;
use crate::experiments::{
    datasets_for, default_query_sets, dense_sweep, load, measure_config, query_set,
};
use crate::harness::{eval_query_set, SetSummary};
use crate::table::{ms, percentile, TextTable};
use sm_graph::Graph;
use sm_intersect::{intersect_buf, BsrSet, IntersectKind};
use sm_match::{Algorithm, DataContext, Pipeline};
use std::hint::black_box;
use std::time::Instant;

const KINDS: [IntersectKind; 2] = [IntersectKind::Hybrid, IntersectKind::Bsr];

/// Timed runs per kernel and list pair in the crossover table.
const SAMPLES: usize = 10;

/// Median wall time of `f` in ms over [`SAMPLES`] runs, after one
/// warm-up run.
fn median_ms(mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    percentile(&times, 0.5)
}

/// The kernel crossover: one row per kernel, one column per list pair.
/// QFilter intersects precomputed encodings, as the engine holds them.
fn kernel_crossover() {
    println!("\n=== Figure 10 kernel crossover: one intersection, median ms of {SAMPLES} runs ===");
    // Consecutive runs fill the BSR blocks; far-apart elements put one
    // bit in each.
    let dense: [Vec<u32>; 2] = [
        (0..8000).filter(|x| x % 4 != 3).collect(),
        (0..8000).filter(|x| x % 3 != 2).collect(),
    ];
    let sparse: [Vec<u32>; 2] = [
        (0..3000).map(|x| x * 97).collect(),
        (0..3000).map(|x| x * 101).collect(),
    ];
    let names = ["Merge", "Galloping", "Hybrid", "QFilter"];
    let mut rows: Vec<Vec<String>> = names.iter().map(|n| vec![n.to_string()]).collect();
    for (regime, [a, b]) in [("dense", &dense), ("sparse", &sparse)] {
        let mut outs = Vec::new();
        for kind in [
            IntersectKind::Merge,
            IntersectKind::Galloping,
            IntersectKind::Hybrid,
        ] {
            let mut out = Vec::with_capacity(a.len());
            rows[outs.len()].push(ms(median_ms(|| {
                out.clear();
                intersect_buf(kind, a, b, &mut out);
                black_box(out.len());
            })));
            outs.push(out);
        }
        let (ba, bb) = (BsrSet::from_sorted(a), BsrSet::from_sorted(b));
        let mut out = BsrSet::default();
        rows[outs.len()].push(ms(median_ms(|| {
            ba.intersect_into(&bb, &mut out);
            black_box(out.len());
        })));
        outs.push(out.to_vec());
        for (name, o) in names.iter().zip(&outs) {
            assert!(
                *o == outs[0],
                "fig10 {regime} pair: {name} returned {} elements, Merge {}",
                o.len(),
                outs[0].len()
            );
        }
    }
    let mut t = TextTable::new(vec!["kernel", "dense ms", "sparse ms"]);
    for row in rows {
        t.row(row);
    }
    t.print();
}

/// `queries` under each kernel, checked to agree query by query.
fn run_kernels(
    pipeline: &Pipeline,
    queries: &[Graph],
    gc: &DataContext<'_>,
    opts: &HarnessOptions,
    what: &str,
) -> [SetSummary; 2] {
    let [hybrid, bsr]: [SetSummary; 2] = KINDS.map(|k| {
        let mut cfg = measure_config(opts);
        cfg.intersect = k;
        eval_query_set(pipeline, queries, gc, &cfg, opts.threads)
    });
    for (i, (h, b)) in hybrid.results.iter().zip(&bsr.results).enumerate() {
        if h.unsolved() || b.unsolved() {
            continue;
        }
        assert_eq!(
            (h.matches, h.outcome),
            (b.matches, b.outcome),
            "fig10 {what} query {i}: Hybrid and QFilter disagree"
        );
    }
    [hybrid, bsr]
}

/// One row per kernel of average enumeration times, then the unsolved
/// queries per kernel (`Hybrid/QFilter`), one column per set.
fn print_table(header: Vec<String>, cols: &[[SetSummary; 2]]) {
    let mut t = TextTable::new(header);
    for (ki, k) in KINDS.iter().enumerate() {
        let mut row = vec![k.name().to_string()];
        row.extend(cols.iter().map(|col| ms(col[ki].avg_enum_ms())));
        t.row(row);
    }
    let mut row = vec!["unsolved".to_string()];
    row.extend(
        cols.iter()
            .map(|[h, b]| format!("{}/{}", h.unsolved(), b.unsolved())),
    );
    t.row(row);
    t.print();
}

/// Run the experiment.
pub fn run(opts: &HarnessOptions) {
    println!("\n=== Figure 10(a): enumeration time (ms) of optimized GQL, Hybrid vs QFilter ===");
    let specs = datasets_for(opts, &["eu", "hu", "yt", "db"]);
    let pipeline = Algorithm::GraphQl.optimized();
    let mut cols = Vec::new();
    for spec in &specs {
        let ds = load(spec);
        let gc = DataContext::new(&ds.graph);
        let mut queries = Vec::new();
        for (_, s) in default_query_sets(spec, opts.queries) {
            queries.extend(query_set(&ds, s));
        }
        cols.push(run_kernels(&pipeline, &queries, &gc, opts, spec.abbrev));
    }
    let header = std::iter::once("method".to_string())
        .chain(specs.iter().map(|d| d.abbrev.to_string()))
        .collect();
    print_table(header, &cols);

    let spec = specs
        .iter()
        .find(|d| d.abbrev == "yt")
        .copied()
        .unwrap_or(specs[0]);
    println!(
        "\n=== Figure 10(b): enumeration time (ms) on {}, dense sizes ===",
        spec.abbrev
    );
    let ds = load(&spec);
    let gc = DataContext::new(&ds.graph);
    let sweep = dense_sweep(&spec, opts.queries);
    let cols: Vec<_> = sweep
        .iter()
        .map(|(name, s)| {
            let what = format!("{} {name}", spec.abbrev);
            run_kernels(&pipeline, &query_set(&ds, *s), &gc, opts, &what)
        })
        .collect();
    let header = std::iter::once("method".to_string())
        .chain(sweep.iter().map(|(n, _)| n.clone()))
        .collect();
    print_table(header, &cols);

    kernel_crossover();
}
