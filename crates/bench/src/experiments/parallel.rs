//! Intra-query parallel scaling — an extension experiment: the paper's
//! Table 1 lists parallel variants (pRI, VF3P, parallel CECI/Glasgow) and
//! Section 2.2 notes CECI "can run in parallel"; this runs our static
//! engines' morsel-driven parallel path ([`sm_runtime::run_scoped`]: the
//! root cut into small ranges, pulled from one shared queue) at 1, 2, 4
//! and 8 threads — up to `--threads` when that is above 1.
//!
//! The workload is deliberately enumeration-heavy *and skewed* (RMAT
//! hubs, few labels, find-all): a static partition would leave the
//! worker that owns the hub roots serializing the run. Per-worker
//! morsel/busy/idle counters make the balancing visible even on machines
//! where wall-clock speedup is impossible (single core).
//!
//! Self-asserting: every parallel run must report the same match count
//! and outcome as the 1-thread run of the same query (a query the time
//! limit cut short is skipped).

use crate::args::HarnessOptions;
use crate::profile::{traced_cell, write_profiles};
use crate::table::{ms, ratio, TextTable};
use sm_graph::gen::query::{generate_query_set, Density, QuerySetSpec};
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_match::{Algorithm, DataContext, MatchConfig, Outcome};
use sm_runtime::trace::profile::RunMeta;

/// Run the scaling experiment.
pub fn run(opts: &HarnessOptions) {
    // Few labels + moderate density = huge match counts per query; RMAT's
    // power-law degree skew concentrates the enumeration work under a few
    // hub roots.
    let g = rmat_graph(50_000, 12.0, 4, RmatParams::PAPER, 0x9A7);
    let gc = DataContext::new(&g);
    let queries = generate_query_set(
        &g,
        QuerySetSpec {
            num_vertices: 8,
            density: Density::Dense,
            count: opts.queries.min(5),
        },
        0x9A8,
    );
    let max_threads = if opts.threads > 1 { opts.threads } else { 8 };
    let ladder: Vec<usize> = (0..)
        .map(|i| 1usize << i)
        .take_while(|&t| t <= max_threads)
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\n=== Parallel scaling: {} dense 8-vertex queries on RMAT(50k, d=12, |Sigma|=4), cap 10^6 ({cores} core(s) available) ===",
        queries.len()
    );
    if cores == 1 {
        println!("note: single-core machine — expect no wall-clock speedup; counts stay exact and the per-worker counters still show the balancing");
    }
    let pipeline = Algorithm::GraphQl.optimized();
    let cfg = MatchConfig {
        max_matches: Some(1_000_000),
        time_limit: Some(opts.time_limit.max(std::time::Duration::from_secs(5))),
        ..Default::default()
    };
    let tracing = opts.trace || opts.profile_out.is_some();
    let mut profiles = Vec::new();
    let mut t = TextTable::new(vec![
        "threads",
        "plan ms",
        "exec ms",
        "exec speedup",
        "matches",
        "reuse",
        "idle ms",
        "pool",
        "per-worker",
    ]);
    let mut base = None;
    // (matches, outcome) of each query's 1-thread run.
    let mut truth: Vec<(u64, Outcome)> = Vec::new();
    for &threads in &ladder {
        let (mut plan, mut enumt, mut matches) = (0.0f64, 0.0f64, 0u64);
        // Each worker's counter block, merged over the queries.
        let mut pool = sm_runtime::PoolMetrics::default();
        let mut per_worker = String::new();
        for (qi, q) in queries.iter().enumerate() {
            let out = if tracing {
                let meta = RunMeta {
                    dataset: "rmat50k".into(),
                    query: format!("q{qi}"),
                    config: format!("morsel-t{threads}"),
                    threads,
                    cancelled: false,
                };
                let (out, profile) = traced_cell(&pipeline, q, &gc, &cfg, threads, meta);
                if opts.trace && qi == 0 {
                    print!("{}", profile.render_tree());
                }
                profiles.push(profile);
                out
            } else {
                pipeline.run_parallel(q, &gc, &cfg, threads)
            };
            if threads == 1 {
                truth.push((out.matches, out.outcome));
            } else if out.outcome != Outcome::TimedOut && truth[qi].1 != Outcome::TimedOut {
                assert_eq!(
                    (out.matches, out.outcome),
                    truth[qi],
                    "q{qi} at {threads} threads disagrees with the 1-thread run"
                );
            }
            plan += out.plan_build_time().as_secs_f64() * 1e3;
            enumt += out.enum_time.as_secs_f64() * 1e3;
            matches += out.matches;
            if let Some(m) = &out.parallel {
                per_worker = m.per_worker(); // last query: representative
                pool.workers
                    .resize(pool.workers.len().max(m.workers.len()), Default::default());
                for (slot, w) in pool.workers.iter_mut().zip(&m.workers) {
                    slot.merge(w);
                }
            }
        }
        let base_ms = *base.get_or_insert(enumt);
        let (pool_cell, idle_cell) = if pool.workers.is_empty() {
            ("-".to_string(), "-".to_string())
        } else {
            (
                format!(
                    "m={} busy={:.0}%",
                    pool.total_morsels(),
                    100.0 * pool.busy_fraction()
                ),
                format!("{:.2}", pool.total_idle().as_secs_f64() * 1e3),
            )
        };
        t.row(vec![
            threads.to_string(),
            ms(plan),
            ms(enumt),
            ratio(base_ms / enumt.max(1e-9)),
            matches.to_string(),
            pool.total_scratch_reuse().to_string(),
            idle_cell,
            pool_cell,
            if per_worker.is_empty() {
                "-".to_string()
            } else {
                per_worker
            },
        ]);
    }
    t.print();
    println!("(the plan is built once, sequentially, and shared by all workers. m=morsels executed, busy=share of worker time in morsels, reuse=scratch-arena reuses, idle ms=summed worker time waiting in the scheduler's claim; per-worker shows the same per worker)");
    if let Some(path) = &opts.profile_out {
        write_profiles(path, &profiles);
        println!(
            "wrote {} profile(s) to {path} (+ {path}.folded)",
            profiles.len()
        );
    }
}
