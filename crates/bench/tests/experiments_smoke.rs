//! Smoke tests: every experiment subcommand runs to completion without
//! panicking at tiny scale. These catch regressions in the harness wiring
//! (dataset loading, query generation, table assembly) that unit tests on
//! individual pieces miss.

use sm_bench::args::HarnessOptions;
use sm_bench::experiments;
use std::time::Duration;

fn tiny(datasets: &[&str]) -> HarnessOptions {
    HarnessOptions {
        command: "smoke".into(),
        datasets: Some(datasets.iter().map(|s| s.to_string()).collect()),
        queries: 2,
        time_limit: Duration::from_millis(100),
        orders: 5,
        threads: 1,
        ..HarnessOptions::default()
    }
}

#[test]
fn table3_runs() {
    experiments::table3::run(&tiny(&["ye", "hu"]));
}

#[test]
fn fig7_and_fig8_run() {
    let opts = tiny(&["ye"]);
    experiments::fig07::run(&opts);
    experiments::fig08::run(&opts);
}

#[test]
fn fig9_and_fig10_run() {
    let opts = tiny(&["ye"]);
    experiments::fig09::run(&opts);
    experiments::fig10::run(&opts);
}

#[test]
fn ordering_figures_run() {
    let opts = tiny(&["ye"]);
    experiments::fig11::run(&opts);
    experiments::fig12::run(&opts);
    experiments::fig13::run(&opts);
}

#[test]
fn spectrum_figures_run() {
    let opts = tiny(&["ye"]);
    experiments::fig14::run(&opts);
    experiments::table6::run(&opts);
}

#[test]
fn optimization_figures_run() {
    let opts = tiny(&["ye"]);
    experiments::table5::run(&opts);
    experiments::fig15::run(&opts);
}

#[test]
fn fig16_runs_with_glasgow() {
    experiments::fig16::run(&tiny(&["ye"]));
}

#[test]
fn ablation_runs() {
    experiments::ablation::run(&tiny(&["ye"]));
}

#[test]
fn parallel_runs() {
    experiments::parallel::run(&tiny(&["ye"]));
}

#[test]
fn top_runs() {
    let opts = HarnessOptions {
        shards: vec![2],
        duration: Duration::from_millis(300),
        refresh: Duration::from_millis(100),
        ..tiny(&["ye"])
    };
    experiments::metrics::top(&opts);
}

#[test]
fn metrics_overhead_runs() {
    // The smoke only exercises the wiring (measurement, parse-back,
    // JSON emission); the 2% bound is enforced when CI runs the real
    // subcommand via scripts/ci.sh, at a scale where it is measurable.
    experiments::metrics::overhead(&tiny(&["ye"]), None);
}
