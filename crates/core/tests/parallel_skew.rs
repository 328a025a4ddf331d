//! End-to-end parallel correctness on a skewed workload: the morsel-driven
//! executor must return exactly the sequential match count for the
//! space-backed pipelines at every thread count, with every worker of a
//! parallel run reporting its metrics. That a worker stuck on a long
//! morsel leaves the queue to the others is pinned by the scheduler's own
//! tests (`sm_runtime::sched`).

use sm_graph::gen::query::{generate_query_set, Density, QuerySetSpec};
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_match::{Algorithm, DataContext, MatchConfig};

#[test]
fn parallel_matches_sequential_on_skewed_rmat() {
    // RMAT's power-law degree distribution concentrates enumeration work
    // under a few hub-rooted subtrees — the adversarial case for a static
    // partition and the motivating case for a shared morsel queue.
    let g = rmat_graph(8_000, 8.0, 4, RmatParams::PAPER, 0x57EA1);
    let gc = DataContext::new(&g);
    let queries = generate_query_set(
        &g,
        QuerySetSpec {
            num_vertices: 6,
            density: Density::Dense,
            count: 3,
        },
        0x57EA2,
    );
    assert!(!queries.is_empty());
    let cfg = MatchConfig {
        max_matches: Some(200_000),
        time_limit: None,
        ..Default::default()
    };

    for alg in [Algorithm::GraphQl, Algorithm::Cfl, Algorithm::Ceci] {
        let pipeline = alg.optimized();
        for q in &queries {
            let seq = pipeline.run(q, &gc, &cfg);
            for threads in [1usize, 2, 4, 8] {
                let par = pipeline.run_parallel(q, &gc, &cfg, threads);
                assert_eq!(
                    par.matches, seq.matches,
                    "{} at {threads} threads diverged from sequential",
                    pipeline.name
                );
                assert_eq!(par.unsolved(), seq.unsolved());
                match &par.parallel {
                    Some(m) => {
                        assert!(threads > 1, "sequential runs must not carry pool metrics");
                        assert_eq!(m.workers.len(), threads);
                        assert!(
                            m.total_morsels() > 0,
                            "{} at {threads} threads executed no morsels",
                            pipeline.name
                        );
                    }
                    None => assert_eq!(threads, 1),
                }
            }
        }
    }
}
