//! Match-semantics benchmark — an extension experiment over the
//! [`sm_match::MatchSemantics`] descriptor: for each injectivity mode
//! (isomorphism / edge-injective / homomorphism) it compares a
//! **count-only** run against a **materializing** run of the same plan
//! on Yeast and a dense seeded RMAT graph.
//!
//! What the table shows, per graph × mode:
//!
//! * the match count under that mode (the homo ≥ edge-injective ≥ iso
//!   containment chain is asserted whenever no run timed out — the
//!   counts share one cap, and `min(cap, total)` preserves the order),
//! * count-only vs materializing wall time and the resulting
//!   **speedup** — the point of the no-materialization path: skipping
//!   the per-match embedding copy is pure win on dense workloads,
//! * embeddings/s throughput for both paths.
//!
//! CI runs this as a smoke: the count-only count is asserted equal to
//! the materialized length for every mode, and the containment chain is
//! asserted on every completed workload.

use crate::args::HarnessOptions;
use crate::table::{ms, ratio, TextTable};
use sm_graph::builder::graph_from_edges;
use sm_graph::gen::query::{Density, QuerySetSpec};
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_graph::Graph;
use sm_match::enumerate::CollectSink;
use sm_match::{
    Algorithm, DataContext, Executor, Injectivity, MatchConfig, MatchSemantics, Outcome,
};
use std::time::Instant;

/// Shared match cap: both paths of a comparison enumerate the same
/// prefix of the search, so counts stay comparable even when capped.
const CAP: u64 = 300_000;

const MODES: [Injectivity; 3] = [
    Injectivity::Isomorphism,
    Injectivity::EdgeInjective,
    Injectivity::Homomorphism,
];

/// The benchmark workloads: Yeast (paper dataset stand-in) plus a dense
/// RMAT graph whose label scarcity makes materialization cost visible.
fn workloads(opts: &HarnessOptions) -> Vec<(String, Graph, Graph)> {
    let mut out = Vec::new();
    for spec in super::datasets_for(opts, &["ye"]) {
        let ds = super::load(&spec);
        let qs = super::query_set(
            &ds,
            QuerySetSpec {
                num_vertices: 4,
                density: Density::Dense,
                count: 1,
            },
        );
        if let Some(q) = qs.into_iter().next() {
            out.push((spec.abbrev.to_string(), ds.graph.clone(), q));
        }
    }
    // Dense RMAT with few labels. The triangle probes mode differences
    // under real search pressure; the wedge (2-path over the hubs) emits
    // on nearly every recursion and hits the match cap in every mode,
    // which is exactly where skipping the per-match copy pays — the
    // acceptance workload for the count-only speedup.
    let g = rmat_graph(20_000, 8.0, 2, RmatParams::PAPER, opts.seed ^ 0x5E3A);
    let tri = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
    out.push(("rmat-tri".to_string(), g.clone(), tri));
    let wedge = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]);
    out.push(("rmat-wedge".to_string(), g, wedge));
    out
}

/// Run the semantics experiment.
pub fn run(opts: &HarnessOptions) {
    let time_limit = opts.time_limit.max(std::time::Duration::from_secs(2));
    println!(
        "\n=== Match semantics: count-only vs materializing per injectivity mode (cap {CAP}, limit {time_limit:?}) ==="
    );
    let pipeline = Algorithm::GraphQl.optimized();
    let mut t = TextTable::new(vec![
        "graph",
        "mode",
        "matches",
        "count ms",
        "mat ms",
        "count emb/s",
        "mat emb/s",
        "speedup",
    ]);
    let mut rmat_speedup = None;

    for (gname, g, q) in workloads(opts) {
        let gc = DataContext::new(&g);
        let mut counts = Vec::new();
        let mut timed_out = false;
        for inj in MODES {
            let base = MatchSemantics {
                injectivity: inj,
                ..MatchSemantics::default()
            };
            let cfg = |sem: MatchSemantics| MatchConfig {
                max_matches: Some(CAP),
                time_limit: Some(time_limit),
                ..MatchConfig::find_all().with_semantics(sem)
            };
            // Two plans, one per output mode; identical search, the only
            // difference is whether each match is copied out to a sink.
            let Ok(count_plan) = pipeline.plan(&q, &gc, &cfg(base.count_only())) else {
                continue;
            };
            let Ok(mat_plan) = pipeline.plan(&q, &gc, &cfg(base)) else {
                continue;
            };

            let t0 = Instant::now();
            let mut count_sink = sm_match::enumerate::CountSink;
            let count_stats = Executor::new(&count_plan, &g).run(&mut count_sink);
            let count_s = t0.elapsed().as_secs_f64();

            let t1 = Instant::now();
            let mut sink = CollectSink::default();
            let mat_stats = Executor::new(&mat_plan, &g).run(&mut sink);
            let mat_s = t1.elapsed().as_secs_f64();

            timed_out |=
                count_stats.outcome == Outcome::TimedOut || mat_stats.outcome == Outcome::TimedOut;
            if !timed_out {
                assert_eq!(
                    count_stats.matches,
                    sink.matches.len() as u64,
                    "{gname}/{}: count-only disagrees with materialization",
                    inj.name()
                );
            }
            counts.push((inj, count_stats.matches));

            let n = count_stats.matches;
            let speedup = mat_s / count_s.max(1e-9);
            if gname.starts_with("rmat") && !timed_out {
                // The acceptance workload: dense RMAT, worst mode wins.
                let best = rmat_speedup.get_or_insert(speedup);
                if speedup > *best {
                    *best = speedup;
                }
            }
            t.row(vec![
                gname.clone(),
                inj.name().to_string(),
                n.to_string(),
                ms(count_s * 1e3),
                ms(mat_s * 1e3),
                format!("{:.2e}", n as f64 / count_s.max(1e-9)),
                format!("{:.2e}", mat_stats.matches as f64 / mat_s.max(1e-9)),
                ratio(speedup),
            ]);
        }
        // Containment chain: every isomorphism is edge-injective, every
        // edge-injective mapping is a homomorphism. Shared cap keeps the
        // order; only a timeout can break it.
        if !timed_out && counts.len() == 3 {
            let get = |inj| {
                counts
                    .iter()
                    .find(|&&(i, _)| i == inj)
                    .map_or(0, |&(_, c)| c)
            };
            let (iso, edge, homo) = (
                get(Injectivity::Isomorphism),
                get(Injectivity::EdgeInjective),
                get(Injectivity::Homomorphism),
            );
            assert!(
                homo >= edge && edge >= iso,
                "{gname}: containment violated: homo {homo} >= edge {edge} >= iso {iso}"
            );
            println!("{gname}: homo {homo} >= edge-injective {edge} >= iso {iso} ✓");
        }
    }
    t.print();
    if let Some(s) = rmat_speedup {
        println!("count-only speedup on dense RMAT (best mode): {}", ratio(s));
    }
}
