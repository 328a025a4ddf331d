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

use crate::args::HarnessOptions;
use crate::experiments::{
    datasets_for, default_query_sets, dense_sweep, load, measure_config, query_set,
};
use crate::harness::{eval_query_set, SetSummary};
use crate::table::{ms, TextTable};
use sm_graph::Graph;
use sm_intersect::IntersectKind;
use sm_match::{Algorithm, DataContext, Pipeline};

const KINDS: [IntersectKind; 2] = [IntersectKind::Hybrid, IntersectKind::Bsr];

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
}
