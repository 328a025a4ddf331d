//! Figure 9: speedup of the set-intersection local-candidate computation
//! (Algorithm 5 + all-edge candidate index) over each algorithm's original
//! enumeration, for QSI, GQL, CFL and VF2++.
//!
//! Per Section 5.2: QSI and 2PP keep their LDF candidates, GQL and CFL
//! keep their own filters; 2PP's extra runtime rules are removed in the
//! optimized variant.
//!
//! The two runs of a pair differ only in how `LC` is computed, so every
//! query must report the same matches and outcome under both (asserted),
//! unless the time limit cut one of them short. An unsolved query counts
//! as the time limit in the averages, so the table also gives the
//! unsolved queries, original/optimized, over the four pairs.

use crate::args::HarnessOptions;
use crate::experiments::{datasets_for, default_query_sets, load, query_set};
use crate::harness::{eval_query_set, SetSummary};
use crate::table::{ratio, TextTable};
use sm_match::{FilterKind, LcMethod, OrderKind, Pipeline};

/// The (name, original, optimized) pipeline pairs of Figure 9.
pub fn pairs() -> Vec<(&'static str, Pipeline, Pipeline)> {
    let mut vf_orig = Pipeline::new(
        "2PP-orig",
        FilterKind::Ldf,
        OrderKind::Vf2pp,
        LcMethod::Direct,
    );
    vf_orig.vf2pp_rule = true;
    vec![
        (
            "QSI",
            Pipeline::new(
                "QSI-orig",
                FilterKind::Ldf,
                OrderKind::QuickSi,
                LcMethod::Direct,
            ),
            Pipeline::new(
                "QSI-opt",
                FilterKind::Ldf,
                OrderKind::QuickSi,
                LcMethod::Intersect,
            ),
        ),
        (
            "GQL",
            Pipeline::new(
                "GQL-orig",
                FilterKind::GraphQl,
                OrderKind::GraphQl,
                LcMethod::CandidateScan,
            ),
            Pipeline::new(
                "GQL-opt",
                FilterKind::GraphQl,
                OrderKind::GraphQl,
                LcMethod::Intersect,
            ),
        ),
        (
            "CFL",
            Pipeline::new(
                "CFL-orig",
                FilterKind::Cfl,
                OrderKind::Cfl,
                LcMethod::TreeIndex,
            ),
            Pipeline::new(
                "CFL-opt",
                FilterKind::Cfl,
                OrderKind::Cfl,
                LcMethod::Intersect,
            ),
        ),
        (
            "2PP",
            vf_orig,
            Pipeline::new(
                "2PP-opt",
                FilterKind::Ldf,
                OrderKind::Vf2pp,
                LcMethod::Intersect,
            ),
        ),
    ]
}

/// Assert that `orig` and `opt` agree query by query wherever both
/// finished.
fn check_agreement(orig: &SetSummary, opt: &SetSummary, what: &str) {
    for (i, (a, b)) in orig.results.iter().zip(&opt.results).enumerate() {
        if a.unsolved() || b.unsolved() {
            continue;
        }
        assert_eq!(
            (a.matches, a.outcome),
            (b.matches, b.outcome),
            "fig9 {what} query {i}: original and optimized disagree"
        );
    }
}

/// Run the experiment.
pub fn run(opts: &HarnessOptions) {
    println!("\n=== Figure 9: enumeration speedup of intersection-based LC (orig/opt) ===");
    let specs = datasets_for(opts, &["ye", "hu", "yt", "eu"]);
    let cfg = crate::experiments::measure_config(opts);
    let mut t = TextTable::new(
        std::iter::once("algorithm".to_string())
            .chain(specs.iter().map(|d| d.abbrev.to_string()))
            .collect(),
    );
    let prs = pairs();
    let mut cols: Vec<Vec<f64>> = Vec::new();
    let mut unsolved = vec!["unsolved".to_string()];
    for spec in &specs {
        let ds = load(spec);
        let gc = sm_match::DataContext::new(&ds.graph);
        let mut queries = Vec::new();
        for (_, s) in default_query_sets(spec, opts.queries) {
            queries.extend(query_set(&ds, s));
        }
        let (mut orig_unsolved, mut opt_unsolved) = (0, 0);
        let col = prs
            .iter()
            .map(|(name, orig, opt)| {
                let a = eval_query_set(orig, &queries, &gc, &cfg, opts.threads);
                let b = eval_query_set(opt, &queries, &gc, &cfg, opts.threads);
                check_agreement(&a, &b, &format!("{} {name}", spec.abbrev));
                orig_unsolved += a.unsolved();
                opt_unsolved += b.unsolved();
                let bo = b.avg_enum_ms().max(1e-6);
                a.avg_enum_ms() / bo
            })
            .collect();
        cols.push(col);
        unsolved.push(format!("{orig_unsolved}/{opt_unsolved}"));
    }
    for (pi, (name, _, _)) in prs.iter().enumerate() {
        let mut row = vec![name.to_string()];
        for col in &cols {
            row.push(ratio(col[pi]));
        }
        t.row(row);
    }
    t.row(unsolved);
    t.print();
    println!(
        "(values > 1 mean the Algorithm-5 optimization is faster; \
         unsolved = original/optimized over the four pairs)"
    );
}
