//! Table 5: number of unsolved queries per algorithm, without and with
//! failing-set pruning, on yt, up, hu and wn — plus the fail-all count.

use crate::args::HarnessOptions;
use crate::experiments::fig11::ordering_pipelines;
use crate::experiments::{datasets_for, default_query_sets, load, measure_config, query_set};
use crate::harness::eval_query_set;
use crate::table::TextTable;
use sm_match::DataContext;

/// Run the experiment.
pub fn run(opts: &HarnessOptions) {
    println!("\n=== Table 5: unsolved queries (wo/fs | w/fs) ===");
    let specs = datasets_for(opts, &["yt", "up", "hu", "wn"]);
    let pipelines = ordering_pipelines();
    let mut header = vec!["algorithm".to_string()];
    for d in &specs {
        header.push(format!("{} wo/fs", d.abbrev));
        header.push(format!("{} w/fs", d.abbrev));
    }
    let mut t = TextTable::new(header);
    // rows[pipeline][dataset] = (unsolved wo/fs, unsolved w/fs)
    let mut rows = vec![vec![(0usize, 0usize); specs.len()]; pipelines.len()];
    let mut fail_all = vec![(0usize, 0usize); specs.len()];
    for (di, spec) in specs.iter().enumerate() {
        let ds = load(spec);
        let gc = DataContext::new(&ds.graph);
        let mut queries = Vec::new();
        for (_, s) in default_query_sets(spec, opts.queries) {
            queries.extend(query_set(&ds, s));
        }
        let cfg = measure_config(opts);
        let cfg_fs = {
            let mut c = cfg.clone();
            c.failing_sets = true;
            c
        };
        // per-query solved masks to compute fail-all
        let nq = queries.len();
        let mut solved_wo = vec![false; nq];
        let mut solved_w = vec![false; nq];
        for (pi, p) in pipelines.iter().enumerate() {
            let wo = eval_query_set(p, &queries, &gc, &cfg, opts.threads);
            let w = eval_query_set(p, &queries, &gc, &cfg_fs, opts.threads);
            rows[pi][di] = (wo.unsolved(), w.unsolved());
            for (i, r) in wo.results.iter().enumerate() {
                solved_wo[i] |= !r.unsolved();
            }
            for (i, r) in w.results.iter().enumerate() {
                solved_w[i] |= !r.unsolved();
            }
        }
        fail_all[di] = (
            solved_wo.iter().filter(|&&s| !s).count(),
            solved_w.iter().filter(|&&s| !s).count(),
        );
    }
    for (pi, p) in pipelines.iter().enumerate() {
        let mut row = vec![p.name.clone()];
        for (wo, w) in &rows[pi] {
            row.push(wo.to_string());
            row.push(w.to_string());
        }
        t.row(row);
    }
    let mut row = vec!["Fail-All".to_string()];
    for (wo, w) in &fail_all {
        row.push(wo.to_string());
        row.push(w.to_string());
    }
    t.row(row);
    t.print();
    println!(
        "(each dataset column covers {} queries; paper uses 1800 with a 5-min limit — run with --full for paper scale)",
        opts.queries * 2
    );
}
