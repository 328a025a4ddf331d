//! One experiment module per table/figure of the paper's evaluation
//! section. Each prints the same rows/series the paper reports; shapes
//! (who wins, rough factors, crossovers) are the reproduction target, not
//! absolute times — the data graphs are scaled stand-ins (see DESIGN.md).

pub mod ablation;
pub mod durability;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod metrics;
pub mod parallel;
pub mod planner;
pub mod semantics;
pub mod serve;
pub mod shard;
pub mod table3;
pub mod table5;
pub mod table6;
pub mod update;

use crate::args::{HarnessOptions, PlanChoice};
use sm_datasets::{by_abbrev, queries, Dataset, DatasetSpec};
use sm_graph::gen::query::{Density, QuerySetSpec};
use sm_graph::Graph;
use sm_match::{MatchConfig, PlanSelection};
use sm_service::ServiceConfig;

/// Edge count per unordered vertex-label pair — the update and durability
/// experiments pick their 1-edge probe query from its extremes.
pub fn edge_label_pair_counts(g: &Graph) -> std::collections::HashMap<(u32, u32), u32> {
    let mut counts = std::collections::HashMap::new();
    for v in 0..g.num_vertices() as sm_graph::VertexId {
        for &w in g.neighbors(v) {
            if v < w {
                let (a, b) = (g.label(v).min(g.label(w)), g.label(v).max(g.label(w)));
                *counts.entry((a, b)).or_insert(0u32) += 1;
            }
        }
    }
    counts
}

/// Resolve the dataset list for an experiment: the `--datasets` override,
/// else the experiment's default abbreviations.
pub fn datasets_for(opts: &HarnessOptions, default: &[&str]) -> Vec<DatasetSpec> {
    match &opts.datasets {
        Some(list) => list
            .iter()
            .filter_map(|ab| {
                let d = by_abbrev(ab);
                if d.is_none() {
                    eprintln!("warning: unknown dataset '{ab}', skipping");
                }
                d
            })
            .collect(),
        None => default.iter().filter_map(|ab| by_abbrev(ab)).collect(),
    }
}

/// All eight dataset abbreviations, paper order.
pub const ALL_DATASETS: [&str; 8] = ["ye", "hu", "hp", "wn", "up", "yt", "db", "eu"];

/// Load a dataset stand-in (cached on disk after the first call).
pub fn load(spec: &DatasetSpec) -> Dataset {
    Dataset::load(spec.abbrev).expect("known dataset")
}

/// The dataset's *default* query sets per the paper (Q32D/Q32S, or
/// Q20D/Q20S for Human and WordNet).
pub fn default_query_sets(spec: &DatasetSpec, count: usize) -> Vec<(String, QuerySetSpec)> {
    let s = spec.max_query_size;
    [Density::Dense, Density::Sparse]
        .iter()
        .map(|&density| {
            let qs = QuerySetSpec {
                num_vertices: s,
                density,
                count,
            };
            (qs.name(), qs)
        })
        .collect()
}

/// Generate the queries of one set (deterministic).
pub fn query_set(ds: &Dataset, set: QuerySetSpec) -> Vec<Graph> {
    queries(&ds.graph, &ds.spec, set)
}

/// The paper's measurement configuration: 10^5 match cap plus the
/// harness's per-query time limit.
pub fn measure_config(opts: &HarnessOptions) -> MatchConfig {
    MatchConfig::default().with_time_limit(opts.time_limit)
}

/// Apply the `--plan` flag to a service configuration: `auto` switches
/// plan selection to the self-tuning planner, `fixed:<combo>` swaps in
/// that combo's pipeline and kernel; `default` leaves the experiment's
/// own choice alone.
pub fn apply_plan(cfg: &mut ServiceConfig, plan: &PlanChoice) {
    match plan {
        PlanChoice::Default => {}
        PlanChoice::Auto => cfg.base_config.plan = PlanSelection::Auto,
        PlanChoice::Fixed(combo) => {
            cfg.pipeline = combo.pipeline();
            cfg.base_config.intersect = combo.kernel;
        }
    }
}

/// The dense query-size sweep of a dataset (`Q8D..Q32D` or `..Q20D`).
pub fn dense_sweep(spec: &DatasetSpec, count: usize) -> Vec<(String, QuerySetSpec)> {
    let sizes: &[usize] = if spec.max_query_size == 20 {
        &[8, 12, 16, 20]
    } else {
        &[8, 16, 24, 32]
    };
    sizes
        .iter()
        .map(|&s| {
            let qs = QuerySetSpec {
                num_vertices: s,
                density: Density::Dense,
                count,
            };
            (qs.name(), qs)
        })
        .collect()
}

/// The sparse query-size sweep.
pub fn sparse_sweep(spec: &DatasetSpec, count: usize) -> Vec<(String, QuerySetSpec)> {
    let sizes: &[usize] = if spec.max_query_size == 20 {
        &[8, 12, 16, 20]
    } else {
        &[8, 16, 24, 32]
    };
    sizes
        .iter()
        .map(|&s| {
            let qs = QuerySetSpec {
                num_vertices: s,
                density: Density::Sparse,
                count,
            };
            (qs.name(), qs)
        })
        .collect()
}

/// Run every experiment in paper order (the `all` subcommand).
pub fn run_all(opts: &HarnessOptions) {
    table3::run(opts);
    fig07::run(opts);
    fig08::run(opts);
    fig09::run(opts);
    fig10::run(opts);
    fig11::run(opts);
    fig12::run(opts);
    fig13::run(opts);
    fig14::run(opts);
    table5::run(opts);
    table6::run(opts);
    fig15::run(opts);
    fig16::run(opts);
    fig17::run(opts);
    fig18::run(opts);
    ablation::run(opts);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sets_for_human_are_q20() {
        let hu = by_abbrev("hu").unwrap();
        let sets = default_query_sets(&hu, 5);
        assert_eq!(sets[0].0, "Q20D");
        assert_eq!(sets[1].0, "Q20S");
    }

    #[test]
    fn dataset_resolution() {
        let opts = HarnessOptions {
            datasets: Some(vec!["ye".into(), "nope".into()]),
            ..Default::default()
        };
        let ds = datasets_for(&opts, &["hu"]);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].abbrev, "ye");
        let opts2 = HarnessOptions::default();
        let ds2 = datasets_for(&opts2, &["hu", "ye"]);
        assert_eq!(ds2.len(), 2);
    }

    #[test]
    fn sweeps_match_table4() {
        let ye = by_abbrev("ye").unwrap();
        let names: Vec<String> = dense_sweep(&ye, 1).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["Q8D", "Q16D", "Q24D", "Q32D"]);
        let wn = by_abbrev("wn").unwrap();
        let names: Vec<String> = sparse_sweep(&wn, 1).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["Q8S", "Q12S", "Q16S", "Q20S"]);
    }
}
