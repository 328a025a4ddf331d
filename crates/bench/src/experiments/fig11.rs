//! Figure 11: enumeration time of the seven ordering methods under the
//! Section-5.3 controls: every engine uses intersection-based local
//! candidates; QSI, RI and 2PP borrow GraphQL's candidate sets; failing
//! sets are disabled.
//!
//! The orders differ only in the sequence the engine matches query
//! vertices in, so every query must report the same matches and outcome
//! under all seven (asserted), unless the time limit cut one of them
//! short. An unsolved query counts as the time limit in the averages, so
//! each table also gives the unsolved queries per order.

use crate::args::HarnessOptions;
use crate::experiments::{
    datasets_for, default_query_sets, dense_sweep, load, measure_config, query_set, sparse_sweep,
    ALL_DATASETS,
};
use crate::harness::{eval_query_set, SetSummary};
use crate::table::{ms, TextTable};
use sm_graph::Graph;
use sm_match::{Algorithm, DataContext, MatchConfig, Pipeline};

/// The measured pipelines: exactly [`Algorithm::optimized`] for the seven
/// framework algorithms (which encodes the section's candidate-set
/// borrowing).
pub fn ordering_pipelines() -> Vec<Pipeline> {
    Algorithm::all().iter().map(|a| a.optimized()).collect()
}

/// `queries` under each pipeline, checked to agree query by query with
/// the first pipeline that finished it.
fn run_orders(
    pipelines: &[Pipeline],
    queries: &[Graph],
    gc: &DataContext<'_>,
    cfg: &MatchConfig,
    opts: &HarnessOptions,
    what: &str,
) -> Vec<SetSummary> {
    let runs: Vec<SetSummary> = pipelines
        .iter()
        .map(|p| eval_query_set(p, queries, gc, cfg, opts.threads))
        .collect();
    for i in 0..queries.len() {
        let mut finished = pipelines
            .iter()
            .zip(&runs)
            .map(|(p, run)| (p, &run.results[i]))
            .filter(|(_, r)| !r.unsolved());
        let Some((first, want)) = finished.next() else {
            continue;
        };
        for (p, r) in finished {
            assert_eq!(
                (r.matches, r.outcome),
                (want.matches, want.outcome),
                "fig11 {what} query {i}: {} and {} disagree",
                first.name,
                p.name
            );
        }
    }
    runs
}

/// One row per order of average enumeration times, then the unsolved
/// queries per order (in row order, `/`-separated), one column per set.
fn print_table(pipelines: &[Pipeline], header: Vec<String>, cols: &[Vec<SetSummary>]) {
    let mut t = TextTable::new(header);
    for (pi, p) in pipelines.iter().enumerate() {
        let mut row = vec![p.name.clone()];
        row.extend(cols.iter().map(|col| ms(col[pi].avg_enum_ms())));
        t.row(row);
    }
    let mut row = vec!["unsolved".to_string()];
    row.extend(cols.iter().map(|col| {
        let counts: Vec<String> = col.iter().map(|s| s.unsolved().to_string()).collect();
        counts.join("/")
    }));
    t.row(row);
    t.print();
}

/// Run the experiment.
pub fn run(opts: &HarnessOptions) {
    let pipelines = ordering_pipelines();
    let cfg = measure_config(opts); // failing sets off by default

    println!("\n=== Figure 11(a): enumeration time (ms) per dataset (ordering methods) ===");
    let specs = datasets_for(opts, &ALL_DATASETS);
    let mut cols = Vec::new();
    for spec in &specs {
        let ds = load(spec);
        let gc = DataContext::new(&ds.graph);
        let mut queries = Vec::new();
        for (_, s) in default_query_sets(spec, opts.queries) {
            queries.extend(query_set(&ds, s));
        }
        cols.push(run_orders(
            &pipelines,
            &queries,
            &gc,
            &cfg,
            opts,
            spec.abbrev,
        ));
    }
    let header = std::iter::once("order".to_string())
        .chain(specs.iter().map(|d| d.abbrev.to_string()))
        .collect();
    print_table(&pipelines, header, &cols);

    let spec = specs
        .iter()
        .find(|d| d.abbrev == "yt")
        .copied()
        .unwrap_or(specs[0]);
    let ds = load(&spec);
    let gc = DataContext::new(&ds.graph);

    println!(
        "\n=== Figure 11(b): enumeration time (ms) on {}, vary |V(q)| (dense) ===",
        spec.abbrev
    );
    let sweep = dense_sweep(&spec, opts.queries);
    let cols: Vec<_> = sweep
        .iter()
        .map(|(name, s)| {
            let what = format!("{} {name}", spec.abbrev);
            run_orders(&pipelines, &query_set(&ds, *s), &gc, &cfg, opts, &what)
        })
        .collect();
    let header = std::iter::once("order".to_string())
        .chain(sweep.iter().map(|(n, _)| n.clone()))
        .collect();
    print_table(&pipelines, header, &cols);

    println!(
        "\n=== Figure 11(c): enumeration time (ms) on {}, dense vs sparse ===",
        spec.abbrev
    );
    let dense = dense_sweep(&spec, opts.queries).last().unwrap().1;
    let sparse = sparse_sweep(&spec, opts.queries).last().unwrap().1;
    let cols: Vec<_> = [("dense", dense), ("sparse", sparse)]
        .iter()
        .map(|(name, s)| {
            let what = format!("{} {name}", spec.abbrev);
            run_orders(&pipelines, &query_set(&ds, *s), &gc, &cfg, opts, &what)
        })
        .collect();
    print_table(
        &pipelines,
        vec!["order".into(), "dense".into(), "sparse".into()],
        &cols,
    );
}
