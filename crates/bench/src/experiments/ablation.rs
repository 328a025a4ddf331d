//! Ablations of the design choices DESIGN.md calls out, beyond the
//! paper's own figures:
//!
//! 1. **Refinement iteration count** — DP-iso's `k` (paper default 3) and
//!    GraphQL's global-refinement rounds (paper default 1): pruning power
//!    vs filtering time.
//! 2. **Candidate-index coverage** — CFL's tree-edges-only index vs the
//!    all-edges index (memory vs enumeration speed; the structural side of
//!    Figure 9).
//! 3. **Set-intersection kernel** — all four kernels inside the same
//!    engine (the full version of Figure 10's two-way comparison).

use crate::args::HarnessOptions;
use crate::experiments::{datasets_for, default_query_sets, load, measure_config, query_set};
use crate::harness::eval_query_set;
use crate::table::{ms, TextTable};
use sm_intersect::IntersectKind;
use sm_match::filter::dpiso::dpiso_candidates;
use sm_match::filter::gql::{gql_candidates, GqlParams};
use sm_match::{Algorithm, DataContext, FilterKind, LcMethod, OrderKind, Pipeline, QueryContext};
use std::time::Instant;

/// Run all three ablations.
pub fn run(opts: &HarnessOptions) {
    let specs = datasets_for(opts, &["ye", "yt"]);
    for spec in &specs {
        let ds = load(spec);
        let gc = DataContext::new(&ds.graph);
        let mut queries = Vec::new();
        for (_, s) in default_query_sets(spec, opts.queries) {
            queries.extend(query_set(&ds, s));
        }

        println!(
            "\n=== Ablation 1a ({}): DP-iso refinement rounds k ===",
            spec.abbrev
        );
        let mut t = TextTable::new(vec!["k", "avg candidates", "filter ms"]);
        for k in [0usize, 1, 2, 3, 4, 5] {
            let (mut cand_sum, mut time_sum) = (0.0, 0.0);
            for q in &queries {
                let qc = QueryContext::new(q);
                let t0 = Instant::now();
                let (c, _) = dpiso_candidates(&qc, &gc, k);
                time_sum += t0.elapsed().as_secs_f64() * 1e3;
                cand_sum += c.average();
            }
            let n = queries.len().max(1) as f64;
            t.row(vec![
                k.to_string(),
                format!("{:.1}", cand_sum / n),
                ms(time_sum / n),
            ]);
        }
        t.print();

        println!(
            "\n=== Ablation 1b ({}): GraphQL global-refinement rounds ===",
            spec.abbrev
        );
        let mut t = TextTable::new(vec!["rounds", "avg candidates", "filter ms"]);
        for rounds in [0usize, 1, 2, 4] {
            let (mut cand_sum, mut time_sum) = (0.0, 0.0);
            for q in &queries {
                let qc = QueryContext::new(q);
                let t0 = Instant::now();
                let c = gql_candidates(
                    &qc,
                    &gc,
                    GqlParams {
                        refinement_rounds: rounds,
                    },
                    0,
                );
                time_sum += t0.elapsed().as_secs_f64() * 1e3;
                cand_sum += c.average();
            }
            let n = queries.len().max(1) as f64;
            t.row(vec![
                rounds.to_string(),
                format!("{:.1}", cand_sum / n),
                ms(time_sum / n),
            ]);
        }
        t.print();

        println!(
            "\n=== Ablation 2 ({}): candidate-index coverage (CFL composition) ===",
            spec.abbrev
        );
        let cfg = measure_config(opts);
        let mut t = TextTable::new(vec!["coverage", "enum ms", "aux memory KiB"]);
        for (label, method) in [
            ("tree edges (Alg. 4)", LcMethod::TreeIndex),
            ("all edges (Alg. 5)", LcMethod::Intersect),
        ] {
            let p = Pipeline::new(label, FilterKind::Cfl, OrderKind::Cfl, method);
            let s = eval_query_set(&p, &queries, &gc, &cfg, opts.threads);
            // The all-edges index builds its rows as the search reads
            // them; the comparison is of the two structures built in full.
            let full: usize = queries
                .iter()
                .filter_map(|q| p.plan(q, &gc, &cfg).ok())
                .map(|plan| {
                    let space = plan.space.as_ref().expect("both methods build A");
                    space.build_all(gc.graph, &plan.candidates);
                    space.memory_bytes()
                })
                .sum();
            let mem = full / queries.len().max(1);
            t.row(vec![
                label.to_string(),
                ms(s.avg_enum_ms()),
                (mem / 1024).to_string(),
            ]);
        }
        t.print();

        println!(
            "\n=== Ablation 3 ({}): intersection kernel in the optimized GQL engine ===",
            spec.abbrev
        );
        let mut t = TextTable::new(vec!["kernel", "enum ms"]);
        let pipeline = Algorithm::GraphQl.optimized();
        for kind in [
            IntersectKind::Merge,
            IntersectKind::Galloping,
            IntersectKind::Hybrid,
            IntersectKind::Bsr,
        ] {
            let mut cfg = measure_config(opts);
            cfg.intersect = kind;
            let s = eval_query_set(&pipeline, &queries, &gc, &cfg, opts.threads);
            t.row(vec![kind.name().to_string(), ms(s.avg_enum_ms())]);
        }
        t.print();
    }
}
