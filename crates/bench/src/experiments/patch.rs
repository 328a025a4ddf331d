//! Patched plans against fresh compiles on `up`, with `update-durable`'s
//! read pool and update stream.
//!
//! The graph goes through 32-op batches of a seeded `UpdateStream`
//! (insert ratio 0.8, vertex adds 0.05), each epoch installed from the
//! last with `Committed::splice_post`, as a service installs it. From
//! `--queries N` start epochs (default 20; the CI step runs 2), every form
//! of the pool is compiled with `recommended()`'s count-only plan,
//! patched across 1, 8, 32, 64 and 96 commits (`Pipeline::patch`), and
//! compiled fresh at the target epoch. The run asserts that the patched
//! candidate sets and order equal the fresh ones, and that "no match"
//! agrees, for every form and gap. It asserts nothing about time. It
//! prints the mean touched vertices, fresh filter time and patch time per
//! gap: where the patch cost meets the filter's is what sizes the
//! service's change log (`PATCH_LOG_COMMITS` in `crates/service/src/service.rs`).

use crate::args::HarnessOptions;
use crate::experiments::{datasets_for, load};
use crate::table::{ms, TextTable};
use sm_delta::{UpdateStream, UpdateStreamSpec, VersionedGraph};
use sm_graph::gen::query::{generate_query_set, Density, QuerySetSpec};
use sm_graph::label_index::LabelPairEdgeCounts;
use sm_graph::{Graph, GraphStats, NlfIndex};
use sm_match::{recommended, ChangeSet, DataContext, MatchSemantics};
use std::collections::BTreeMap;

/// Patch distances, in commits.
const GAPS: [usize; 5] = [1, 8, 32, 64, 96];
/// Commits between two start epochs.
const STRIDE: usize = 3;
/// The seed `update-durable` draws its read pool from: the benchmark's
/// pool seed mixed with the workload's tag, 0x20.
const POOL_SEED: u64 = 0x5EED_2020;
const POOL_TAG: u64 = 0x20;

/// The benchmark's seed derivation, `mix(seed, tag)`.
fn mix(seed: u64, tag: u64) -> u64 {
    let mut s = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    sm_runtime::rng::splitmix64(&mut s)
}

/// One installed epoch a check reads.
struct Installed {
    graph: Graph,
    nlf: NlfIndex,
    pairs: LabelPairEdgeCounts,
}

impl Installed {
    fn new(graph: Graph, nlf: NlfIndex) -> Self {
        let pairs = LabelPairEdgeCounts::build(&graph);
        Installed { graph, nlf, pairs }
    }

    fn context(&self) -> DataContext<'_> {
        DataContext::from_parts(&self.graph, &self.nlf, &self.pairs)
    }
}

/// Per gap: checks, touched vertices, fresh filter and patch seconds.
#[derive(Default)]
struct Row {
    checks: usize,
    touched: usize,
    fresh_s: f64,
    patch_s: f64,
}

/// Run the sweep; panics on the first patched plan that differs from its
/// fresh compile.
pub fn run(opts: &HarnessOptions) {
    let spec = datasets_for(opts, &["up"])[0];
    let ds = load(&spec);
    let g0 = ds.graph;
    let labels = g0
        .vertices()
        .map(|v| g0.label(v) as usize + 1)
        .max()
        .unwrap_or(1);
    let pool = generate_query_set(
        &g0,
        QuerySetSpec {
            num_vertices: 6,
            density: Density::Sparse,
            count: 16,
        },
        mix(POOL_SEED, POOL_TAG),
    );
    let (pipeline, config) = recommended(&GraphStats::of(&g0), 6);
    let config = config.with_semantics(MatchSemantics::default().count_only());
    let starts: Vec<usize> = (0..opts.queries.max(1)).map(|i| i * STRIDE).collect();
    let last = starts[starts.len() - 1] + GAPS[GAPS.len() - 1];
    let wanted: std::collections::BTreeSet<usize> = starts
        .iter()
        .flat_map(|&s| std::iter::once(s).chain(GAPS.iter().map(move |g| s + g)))
        .collect();
    println!(
        "\n=== patch: {} forms of Q6S on {}, {} start epochs, gaps {GAPS:?} ===",
        pool.len(),
        spec.abbrev,
        starts.len()
    );

    // The epochs: installed from the last one, as a service does.
    let vg = VersionedGraph::new(g0.clone());
    let mut stream = UpdateStream::new(
        UpdateStreamSpec {
            batch_size: 32,
            insert_ratio: 0.8,
            vertex_add_ratio: 0.05,
            num_labels: labels,
        },
        mix(opts.seed, 0xD0),
    );
    let mut graph = g0.clone();
    let mut nlf = g0.build_nlf();
    let mut installed: BTreeMap<usize, Installed> = BTreeMap::new();
    installed.insert(0, Installed::new(graph.clone(), nlf.clone()));
    let mut changes = vec![ChangeSet::default()];
    while changes.len() <= last {
        let committed = vg.commit(&stream.next_batch(&vg.snapshot()));
        if committed.info.is_noop() {
            continue;
        }
        (graph, nlf) = committed.splice_post(&graph, &nlf);
        changes.push(committed.changes());
        if wanted.contains(&(changes.len() - 1)) {
            installed.insert(
                changes.len() - 1,
                Installed::new(graph.clone(), nlf.clone()),
            );
        }
    }

    let mut rows: BTreeMap<usize, Row> = BTreeMap::new();
    for &s in &starts {
        let from = installed[&s].context();
        for q in &pool {
            let Ok(prior) = pipeline.plan(q, &from, &config) else {
                continue;
            };
            for gap in GAPS {
                let to = installed[&(s + gap)].context();
                let delta = ChangeSet::merge(&changes[s + 1..=s + gap]);
                let patched = pipeline
                    .patch(q, &to, &config, &prior.candidates, &delta)
                    .expect("the recommended plans have an exact patch");
                let fresh = pipeline.plan(q, &to, &config);
                let row = rows.entry(gap).or_default();
                row.checks += 1;
                row.touched += delta.len();
                match (patched, fresh) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(
                            got.candidates, want.candidates,
                            "patched sets differ from the fresh ones: epoch {s}, gap {gap}"
                        );
                        assert_eq!(got.order(), want.order(), "epoch {s}, gap {gap}");
                        row.fresh_s += want.filter_time.as_secs_f64();
                        row.patch_s += got.filter_time.as_secs_f64();
                    }
                    (Err(got), Err(want)) => {
                        row.fresh_s += want.as_secs_f64();
                        row.patch_s += got.as_secs_f64();
                    }
                    (got, want) => panic!(
                        "epoch {s}, gap {gap}: patched satisfiable {}, fresh {}",
                        got.is_ok(),
                        want.is_ok()
                    ),
                }
            }
        }
    }
    let mut t = TextTable::new(
        ["gap", "checks", "touched", "fresh filter ms", "patch ms"]
            .map(String::from)
            .to_vec(),
    );
    for (gap, r) in &rows {
        let n = r.checks.max(1) as f64;
        t.row(vec![
            gap.to_string(),
            r.checks.to_string(),
            format!("{:.0}", r.touched as f64 / n),
            ms(r.fresh_s * 1e3 / n),
            ms(r.patch_s * 1e3 / n),
        ]);
    }
    t.print();
    println!(
        "patched plans equal fresh compiles: {} checks",
        rows.values().map(|r| r.checks).sum::<usize>()
    );
}
