//! The experiment driver: one subcommand per table/figure of the paper.
//!
//! ```text
//! experiments <cmd> [--datasets ye,hu,...] [--queries N]
//!             [--time-limit-ms N] [--orders N] [--threads N] [--seed N]
//!             [--plan auto|fixed:<combo>]
//!             [--full] [--trace] [--profile-out PATH]
//!
//! cmd: table3 | fig7 | fig8 | fig9 | fig10 | fig11 | fig12 | fig13 |
//!      fig14 | table5 | table6 | fig15 | fig16 | fig17 | fig18 | ablation | parallel
//!      | planner | serve | shard | update | semantics | durability | top
//!      | metrics-overhead | all
//!      | profile | trace-overhead | check-profile
//!      | bench-fig10
//! ```
//!
//! `profile` runs a traced workload and prints per-phase span trees
//! (write machine-readable JSONL + folded stacks with `--profile-out`);
//! `trace-overhead` smoke-checks the cost of enabling tracing;
//! `check-profile` round-trips a JSONL profile and validates its schema.
//! `--trace` also works on `parallel` for per-run span trees.
//! `top` renders live per-shard telemetry (q/s, p99, hit rate, skew)
//! under a client workload for `--duration-ms`, refreshed every
//! `--refresh-ms`; `metrics-overhead` gates the cost of the always-on
//! telemetry (enabled vs disabled service) and round-trips the
//! Prometheus exposition.
//!
//! `planner` evaluates the self-tuning cost-model planner (auto vs a
//! fixed-combo panel, cross-run feedback, a forced jump-redo replan);
//! `--plan auto|fixed:<combo>` switches the `serve`, `shard`, `update`
//! and `top` experiments onto planner-selected or forced plans.
//!
//! `bench-fig10` times Figure 10's intersection kernels in isolation
//! (min/median/mean per case).
//!
//! Defaults are laptop-friendly (20 queries/set, 1 s kill limit, 100
//! spectrum orders); `--full` switches to the paper's scale (200 queries,
//! 5 minutes, 1000 orders).

use sm_bench::args::HarnessOptions;
use sm_bench::experiments;

fn main() {
    let opts = match HarnessOptions::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: experiments <cmd> [--datasets ye,hu] [--queries N] [--time-limit-ms N] [--orders N] [--threads N] [--clients N] [--seed N] [--plan auto|fixed:<combo>] [--duration-ms N] [--refresh-ms N] [--full] [--trace] [--profile-out PATH]");
            std::process::exit(2);
        }
    };
    println!(
        "# subgraph-matching experiments: cmd={} queries/set={} time-limit={:?} threads={}",
        opts.command, opts.queries, opts.time_limit, opts.threads
    );
    match opts.command.as_str() {
        "table3" => experiments::table3::run(&opts),
        "fig7" => experiments::fig07::run(&opts),
        "fig8" => experiments::fig08::run(&opts),
        "fig9" => experiments::fig09::run(&opts),
        "fig10" => experiments::fig10::run(&opts),
        "fig11" => experiments::fig11::run(&opts),
        "fig12" => experiments::fig12::run(&opts),
        "fig13" => experiments::fig13::run(&opts),
        "fig14" => experiments::fig14::run(&opts),
        "table5" => experiments::table5::run(&opts),
        "table6" => experiments::table6::run(&opts),
        "fig15" => experiments::fig15::run(&opts),
        "fig16" => experiments::fig16::run(&opts),
        "fig17" => experiments::fig17::run(&opts),
        "fig18" => experiments::fig18::run(&opts),
        "ablation" => experiments::ablation::run(&opts),
        "parallel" => experiments::parallel::run(&opts),
        "planner" => experiments::planner::run(&opts),
        "serve" => experiments::serve::run(&opts),
        "shard" => experiments::shard::run(&opts),
        "semantics" => experiments::semantics::run(&opts),
        "update" => experiments::update::run(&opts),
        "durability" => experiments::durability::run(&opts),
        "top" => experiments::metrics::top(&opts),
        "metrics-overhead" => {
            experiments::metrics::overhead(&opts, Some(experiments::metrics::OVERHEAD_BOUND))
        }
        "profile" => sm_bench::profile::run(&opts),
        "trace-overhead" => sm_bench::profile::trace_overhead(&opts),
        "check-profile" => sm_bench::profile::check_profile(&opts),
        "all" => experiments::run_all(&opts),
        "bench-fig10" => sm_bench::micro::bench_fig10(&opts),
        other => {
            eprintln!("unknown subcommand '{other}'");
            std::process::exit(2);
        }
    }
}
