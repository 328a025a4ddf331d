//! Intra-query parallel scaling — an extension experiment: the paper's
//! Table 1 lists parallel variants (pRI, VF3P, parallel CECI/Glasgow) and
//! Section 2.2 notes CECI "can run in parallel"; this compares the two
//! root-distribution strategies on our static engines:
//!
//! * `static` — classic fixed root partition (the morsel deal without
//!   stealing: no rebalancing),
//! * `morsel` — morsel-driven work stealing ([`sm_runtime::pool`]).
//!
//! The workload is deliberately enumeration-heavy *and skewed* (RMAT
//! hubs, few labels, find-all): under static partition the worker that
//! owns the hub roots serializes the run, which is exactly where work
//! stealing pays. Per-worker morsel/steal counters make the balancing
//! visible even on machines where wall-clock speedup is impossible
//! (single core).

use crate::args::HarnessOptions;
use crate::profile::{traced_cell, write_profiles};
use crate::table::{ms, ratio, TextTable};
use sm_graph::gen::query::{generate_query_set, Density, QuerySetSpec};
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_match::enumerate::parallel::ParallelStrategy;
use sm_match::{Algorithm, DataContext, MatchConfig};
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
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\n=== Parallel scaling: {} dense 8-vertex queries on RMAT(50k, d=12, |Sigma|=4), cap 10^6 ({cores} core(s) available) ===",
        queries.len()
    );
    if cores == 1 {
        println!("note: single-core machine — expect no wall-clock speedup; counts stay exact and steal counters still show the balancing");
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
        "strategy",
        "plan ms",
        "exec ms",
        "exec speedup",
        "matches",
        "reuse",
        "steal lat",
        "idle ms",
        "pool",
        "per-worker",
    ]);
    let mut base = None;
    for threads in [1usize, 2, 4, 8] {
        for strategy in [ParallelStrategy::Static, ParallelStrategy::Morsel] {
            let (mut plan, mut enumt, mut matches) = (0.0f64, 0.0f64, 0u64);
            let mut reuse = 0u64;
            let mut pool = sm_runtime::WorkerMetrics::default();
            let mut per_worker = String::new();
            let mut pool_all = sm_runtime::PoolMetrics::default();
            let strat_name = match strategy {
                ParallelStrategy::Static => "static",
                ParallelStrategy::Morsel => "morsel",
            };
            for (qi, q) in queries.iter().enumerate() {
                let out = if tracing && !(threads == 1 && strategy == ParallelStrategy::Morsel) {
                    let meta = RunMeta {
                        dataset: "rmat50k".into(),
                        query: format!("q{qi}"),
                        config: format!("{strat_name}-t{threads}"),
                        threads,
                        cancelled: false,
                    };
                    let (out, profile) =
                        traced_cell(&pipeline, q, &gc, &cfg, threads, strategy, meta);
                    if opts.trace && qi == 0 {
                        print!("{}", profile.render_tree());
                    }
                    profiles.push(profile);
                    out
                } else {
                    pipeline.run_parallel_with(q, &gc, &cfg, threads, strategy)
                };
                plan += out.plan_build_time().as_secs_f64() * 1e3;
                enumt += out.enum_time.as_secs_f64() * 1e3;
                matches += out.matches;
                reuse += out.scratch_reuse;
                if let Some(m) = &out.parallel {
                    for w in &m.workers {
                        pool.merge(w);
                    }
                    per_worker = m.per_worker(); // last query: representative
                    while pool_all.workers.len() < m.workers.len() {
                        pool_all.workers.push(Default::default());
                    }
                    for (slot, w) in pool_all.workers.iter_mut().zip(&m.workers) {
                        slot.merge(w);
                    }
                }
            }
            // 1-thread runs are sequential under either label; print once.
            if threads == 1 && strategy == ParallelStrategy::Morsel {
                continue;
            }
            let base_ms = *base.get_or_insert(enumt);
            let pool_cell = if pool.morsels == 0 {
                "-".to_string()
            } else {
                format!(
                    "m={} s={} busy={:.0}%",
                    pool.morsels,
                    pool.steals,
                    100.0 * pool.busy.as_secs_f64()
                        / (pool.busy + pool.idle).as_secs_f64().max(1e-12)
                )
            };
            let steal_lat = if pool_all.total_steals() == 0 {
                "-".to_string()
            } else {
                format!("{:.1}µs", pool_all.mean_steal_wait().as_secs_f64() * 1e6)
            };
            let idle_cell = if pool_all.workers.is_empty() {
                "-".to_string()
            } else {
                format!("{:.2}", pool_all.total_idle().as_secs_f64() * 1e3)
            };
            t.row(vec![
                threads.to_string(),
                if threads == 1 {
                    "seq".to_string()
                } else {
                    strat_name.to_string()
                },
                ms(plan),
                ms(enumt),
                ratio(base_ms / enumt.max(1e-9)),
                matches.to_string(),
                reuse.to_string(),
                steal_lat,
                idle_cell,
                pool_cell,
                if per_worker.is_empty() {
                    "-".to_string()
                } else {
                    per_worker
                },
            ]);
        }
    }
    t.print();
    println!("(root distribution parallelizes execution only; the plan is built once, sequentially, and shared by all workers. m=morsels executed, s=stolen, reuse=scratch-arena reuses; steal lat=mean time a steal spent finding remote work, idle ms=summed worker time spent looking for work, per-worker idle/sw show the same per worker)");
    if let Some(path) = &opts.profile_out {
        write_profiles(path, &profiles);
        println!(
            "wrote {} profile(s) to {path} (+ {path}.folded)",
            profiles.len()
        );
    }
}
