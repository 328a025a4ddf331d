//! Dataset stand-ins and workloads behave as specified: shapes track
//! Table 3, query sets fill per Table 4, caching round-trips.

use subgraph_matching::datasets::{all_datasets, glasgow_capable, query_set_specs, Dataset};
use subgraph_matching::glasgow::estimate_memory;
use subgraph_matching::graph::gen::query::Density;
use subgraph_matching::prelude::*;

#[test]
fn every_standin_loads_with_spec_shape() {
    for spec in all_datasets() {
        let ds = Dataset::load(spec.abbrev).unwrap();
        assert_eq!(ds.stats.num_vertices, spec.num_vertices, "{}", spec.abbrev);
        let d = ds.stats.avg_degree;
        assert!(
            (d - spec.avg_degree).abs() / spec.avg_degree < 0.25,
            "{}: avg degree {d} vs target {}",
            spec.abbrev,
            spec.avg_degree
        );
        assert!(
            ds.stats.num_labels <= spec.num_labels,
            "{}: {} labels",
            spec.abbrev,
            ds.stats.num_labels
        );
    }
}

#[test]
fn default_query_sets_fill_for_every_dataset() {
    for spec in all_datasets() {
        let ds = Dataset::load(spec.abbrev).unwrap();
        for qs in query_set_specs(&spec, 5) {
            let queries = subgraph_matching::datasets::queries(&ds.graph, &spec, qs);
            assert!(
                queries.len() >= 3,
                "{}: {} produced only {} queries",
                spec.abbrev,
                qs.name(),
                queries.len()
            );
            for q in &queries {
                assert_eq!(q.num_vertices(), qs.num_vertices);
                assert!(q.is_connected());
                match qs.density {
                    Density::Dense => assert!(q.avg_degree() >= 3.0),
                    Density::Sparse => assert!(q.avg_degree() < 3.0),
                    Density::Any => {}
                }
            }
        }
    }
}

#[test]
fn glasgow_memory_gate_matches_paper_partition() {
    // With the scaled 64 MiB budget of the Figure 16 experiment, exactly
    // hp, ye and hu fit — the paper's observed partition.
    let budget = 64usize << 20;
    let probe = subgraph_matching::graph::builder::graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]);
    for spec in all_datasets() {
        let ds = Dataset::load(spec.abbrev).unwrap();
        let required = estimate_memory(&probe, &ds.graph);
        let fits = required <= budget;
        let expected = glasgow_capable().contains(&spec.abbrev);
        assert_eq!(
            fits,
            expected,
            "{}: required {} MiB vs budget 64 MiB",
            spec.abbrev,
            required >> 20
        );
    }
}

#[test]
fn wordnet_label_skew_dominates() {
    let ds = Dataset::load("wn").unwrap();
    let g = &ds.graph;
    let zero = g.vertices().filter(|&v| g.label(v) == 0).count();
    assert!(zero as f64 / g.num_vertices() as f64 > 0.78);
}

#[test]
fn labels_are_zipf_skewed_on_relabeled_datasets() {
    // yt models an unlabeled graph relabeled with a heavy-tailed
    // distribution; the most frequent label must dominate the rarest.
    let ds = Dataset::load("yt").unwrap();
    let g = &ds.graph;
    let mut freqs: Vec<usize> = (0..ds.stats.num_labels as u32)
        .map(|l| g.vertices_with_label(l).len())
        .collect();
    freqs.sort_unstable();
    assert!(freqs[freqs.len() - 1] > freqs[0] * 5);
}

#[test]
fn pipelines_run_on_every_dataset() {
    // One tiny query per dataset end-to-end; guards against stand-ins that
    // break an engine assumption.
    use subgraph_matching::graph::gen::query::{generate_query_set, QuerySetSpec};
    for spec in all_datasets() {
        let ds = Dataset::load(spec.abbrev).unwrap();
        let ctx = DataContext::new(&ds.graph);
        let queries = generate_query_set(
            &ds.graph,
            QuerySetSpec {
                num_vertices: 6,
                density: Density::Any,
                count: 2,
            },
            1,
        );
        for q in &queries {
            let a = Algorithm::GraphQl
                .optimized()
                .run(q, &ctx, &MatchConfig::default());
            let b = Algorithm::Ri
                .optimized()
                .run(q, &ctx, &MatchConfig::default());
            assert_eq!(a.matches, b.matches, "{}", spec.abbrev);
        }
    }
}

#[test]
fn edge_list_import_to_matching_path() {
    // Import in the paper's `.graph` format -> Zipf labeling ->
    // matching: the adoption path for users with their own unlabeled
    // datasets.
    let text = "# my dataset\nt 5 5\nv 0 0 2\nv 1 0 2\nv 2 0 3\nv 3 0 2\nv 4 0 1\n\
                e 0 1\ne 1 2\ne 2 0\ne 2 3\ne 3 4\n";
    let g = subgraph_matching::graph::io::read_graph(text.as_bytes()).unwrap();
    assert_eq!(g.num_vertices(), 5);
    let g = subgraph_matching::graph::gen::random::assign_labels_zipf(&g, 3, 1.0, 7);
    let ctx = DataContext::new(&g);
    // count unlabeled-ish triangles by querying each label combo that the
    // one triangle (0,1,2) actually carries
    let tri_labels: Vec<u32> = vec![g.label(0), g.label(1), g.label(2)];
    let q =
        subgraph_matching::graph::builder::graph_from_edges(&tri_labels, &[(0, 1), (1, 2), (0, 2)]);
    let out = Algorithm::GraphQl
        .optimized()
        .run(&q, &ctx, &MatchConfig::find_all());
    assert!(out.matches >= 1, "the imported triangle must be found");
}
