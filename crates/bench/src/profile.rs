//! Trace-driven run profiling for the experiment harness: the `profile`,
//! `trace-overhead` and `check-profile` subcommands, plus the helpers the
//! table experiments use for `--trace` / `--profile-out`.
//!
//! A *profiled cell* is one (dataset, query, config) run executed with an
//! enabled [`Trace`] under a top-level `run` span. The resulting
//! [`RunProfile`] renders three ways: the human per-phase tree (`--trace`),
//! a JSONL line-stream (`--profile-out`, appendable across cells), and
//! flamegraph folded stacks (written next to the JSONL as `.folded`).

use crate::args::HarnessOptions;
use sm_graph::gen::query::{generate_query_set, Density, QuerySetSpec};
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_graph::Graph;
use sm_match::pipeline::MatchOutput;
use sm_match::{DataContext, MatchConfig, Outcome, Pipeline};
use sm_runtime::trace::profile::{RunMeta, RunProfile};
use sm_runtime::Trace;
use std::io::Write;

/// Run one cell with an enabled trace: attach a fresh [`Trace`] to the
/// config, wrap plan + execution in a `run` span, and snapshot the result
/// into a [`RunProfile`]. `threads <= 1` runs sequentially.
pub fn traced_cell(
    pipeline: &Pipeline,
    q: &Graph,
    gc: &DataContext<'_>,
    cfg: &MatchConfig,
    threads: usize,
    meta: RunMeta,
) -> (MatchOutput, RunProfile) {
    let trace = Trace::enabled();
    let cfg = cfg.clone().with_trace(trace.clone());
    let out = {
        let _run = trace.span("run");
        pipeline.run_parallel(q, gc, &cfg, threads)
    };
    let mut meta = meta;
    meta.threads = threads.max(1);
    meta.cancelled = out.outcome != Outcome::Complete;
    let profile = RunProfile::from_snapshot(meta, &trace.snapshot());
    (out, profile)
}

/// Append profiles to a JSONL file (one self-describing line per record;
/// cells separated by their `meta` lines) and write the folded-stacks
/// sibling file (`<path>.folded`). Best-effort: IO errors are reported to
/// stderr, not fatal to the experiment.
pub fn write_profiles(path: &str, profiles: &[RunProfile]) {
    let jsonl: String = profiles.iter().map(RunProfile::to_jsonl).collect();
    let folded: String = profiles.iter().map(RunProfile::folded_stacks).collect();
    let write = |p: &str, data: &str| -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(p)?;
        f.write_all(data.as_bytes())
    };
    if let Err(e) = write(path, &jsonl) {
        eprintln!("warning: cannot write {path}: {e}");
    }
    let folded_path = format!("{path}.folded");
    if let Err(e) = write(&folded_path, &folded) {
        eprintln!("warning: cannot write {folded_path}: {e}");
    }
}

/// Split a concatenated JSONL stream into per-cell profile texts (each
/// starting at a `meta` line), so a multi-cell `--profile-out` file can be
/// re-parsed with [`RunProfile::parse_jsonl`].
pub fn split_profiles(text: &str) -> Vec<String> {
    let mut cells: Vec<String> = Vec::new();
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed.contains("\"type\":\"meta\"") || cells.is_empty() {
            cells.push(String::new());
        }
        let cell = cells.last_mut().expect("pushed above");
        cell.push_str(trimmed);
        cell.push('\n');
    }
    cells
}

/// The deterministic workload the standalone profiling subcommands share:
/// a small RMAT graph and a handful of dense queries — enumeration-heavy
/// enough for skewed morsels and deep recursion, small enough for CI.
fn workload(opts: &HarnessOptions) -> (Graph, Vec<Graph>) {
    let g = rmat_graph(10_000, 10.0, 4, RmatParams::PAPER, 0x51E);
    let queries = generate_query_set(
        &g,
        QuerySetSpec {
            num_vertices: 6,
            density: Density::Dense,
            count: opts.queries.clamp(1, 4),
        },
        0x51F,
    );
    (g, queries)
}

fn workload_config(opts: &HarnessOptions) -> MatchConfig {
    MatchConfig {
        max_matches: Some(200_000),
        time_limit: Some(opts.time_limit.max(std::time::Duration::from_secs(5))),
        ..Default::default()
    }
}

/// `experiments profile` — run the workload traced, print each cell's span
/// tree, and (with `--profile-out`) dump JSONL + folded stacks.
pub fn run(opts: &HarnessOptions) {
    let (g, queries) = workload(opts);
    let gc = DataContext::new(&g);
    let pipeline = sm_match::Algorithm::GraphQl.optimized();
    let cfg = workload_config(opts);
    let threads = opts.threads.max(1);
    let mut profiles = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let meta = RunMeta {
            dataset: "rmat10k".into(),
            query: format!("q{i}"),
            config: format!("{}-t{}", pipeline.name, threads),
            threads,
            cancelled: false,
        };
        let (out, profile) = traced_cell(&pipeline, q, &gc, &cfg, threads, meta);
        println!(
            "\n-- q{i}: {} matches in {:.2} ms ({:?})",
            out.matches,
            out.total_time().as_secs_f64() * 1e3,
            out.outcome
        );
        print!("{}", profile.render_tree());
        if let Err(e) = profile.validate() {
            eprintln!("warning: q{i} profile failed validation: {e}");
        }
        profiles.push(profile);
    }
    if let Some(path) = &opts.profile_out {
        write_profiles(path, &profiles);
        println!(
            "\nwrote {} profile(s) to {path} (+ {path}.folded)",
            profiles.len()
        );
    }
}

/// `experiments check-profile` — emit one traced cell, serialize, re-parse
/// and validate; exits non-zero on any mismatch. The CI schema gate.
pub fn check_profile(opts: &HarnessOptions) {
    let (g, queries) = workload(opts);
    let gc = DataContext::new(&g);
    let pipeline = sm_match::Algorithm::GraphQl.optimized();
    let cfg = workload_config(opts);
    let threads = opts.threads.max(2);
    let meta = RunMeta {
        dataset: "rmat10k".into(),
        query: "q0".into(),
        config: format!("{}-t{}", pipeline.name, threads),
        threads,
        cancelled: false,
    };
    let (_, profile) = traced_cell(&pipeline, &queries[0], &gc, &cfg, threads, meta);
    let text = profile.to_jsonl();
    let reparsed = match RunProfile::parse_jsonl(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("check-profile: re-parse failed: {e}");
            std::process::exit(1);
        }
    };
    if reparsed != profile {
        eprintln!("check-profile: profile does not round-trip through JSONL");
        std::process::exit(1);
    }
    if let Err(e) = reparsed.validate() {
        eprintln!("check-profile: validation failed: {e}");
        std::process::exit(1);
    }
    println!(
        "check-profile: ok ({} spans, {} counter blocks, {} JSONL lines)",
        reparsed.spans.len(),
        reparsed.counters.len(),
        text.lines().count()
    );
}

/// `experiments trace-overhead` — run the same parallel workload with the
/// disabled trace handle and with tracing enabled, and report the relative
/// execution-time overhead. Exits non-zero above the smoke bound (50%,
/// generous because the workload runs milliseconds and CI machines are
/// noisy; the target for the *disabled* path — the baseline here — is <2%
/// against the pre-trace build, checked offline on the parallel bench).
pub fn trace_overhead(opts: &HarnessOptions) {
    const ROUNDS: usize = 3;
    const SMOKE_BOUND: f64 = 0.50;
    let (g, queries) = workload(opts);
    let gc = DataContext::new(&g);
    let pipeline = sm_match::Algorithm::GraphQl.optimized();
    let cfg = workload_config(opts);
    let threads = opts.threads.max(2);

    let run_all = |traced: bool| -> (f64, u64) {
        let mut total = 0.0f64;
        let mut matches = 0u64;
        for _ in 0..ROUNDS {
            for q in &queries {
                let cfg = if traced {
                    cfg.clone().with_trace(Trace::enabled())
                } else {
                    cfg.clone()
                };
                let out = pipeline.run_parallel(q, &gc, &cfg, threads);
                total += out.enum_time.as_secs_f64();
                matches += out.matches;
            }
        }
        (total, matches)
    };
    // Warm-up round (page cache, allocator) discarded.
    let _ = run_all(false);
    let (disabled, m0) = run_all(false);
    let (enabled, m1) = run_all(true);
    assert_eq!(m0, m1, "tracing must not change results");
    let overhead = (enabled - disabled) / disabled.max(1e-9);
    println!(
        "trace-overhead: disabled {:.2} ms, enabled {:.2} ms, overhead {:+.1}% (smoke bound {:.0}%)",
        disabled * 1e3,
        enabled * 1e3,
        overhead * 100.0,
        SMOKE_BOUND * 100.0
    );
    if overhead > SMOKE_BOUND {
        eprintln!("trace-overhead: enabled tracing exceeds the smoke bound");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_profiles_separates_cells() {
        let a = "{\"type\":\"meta\",\"schema\":1}\n{\"type\":\"totals\"}\n";
        let b = "{\"type\":\"meta\",\"schema\":1}\n{\"type\":\"span\",\"id\":0}\n";
        let cells = split_profiles(&format!("{a}{b}"));
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0], a);
        assert_eq!(cells[1], b);
        assert!(split_profiles("").is_empty());
    }

    #[test]
    fn traced_cell_produces_valid_profile() {
        let g = sm_match::fixtures::paper_data();
        let q = sm_match::fixtures::paper_query();
        let gc = DataContext::new(&g);
        let pipeline = sm_match::Algorithm::GraphQl.optimized();
        let meta = RunMeta {
            dataset: "fixture".into(),
            query: "paper".into(),
            config: "GQL-t1".into(),
            threads: 1,
            cancelled: false,
        };
        let (out, profile) = traced_cell(&pipeline, &q, &gc, &MatchConfig::default(), 1, meta);
        assert_eq!(out.matches, 1);
        profile.validate().unwrap();
        let names: Vec<&str> = profile.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"run"));
        assert!(names.contains(&"plan"));
        assert!(names.contains(&"filter"));
        assert!(names.contains(&"execute"));
        assert!(profile.totals.get(sm_runtime::Counter::Matches) >= 1);
    }
}
