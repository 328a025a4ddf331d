//! Figure 8: pruning power — average candidate count `Σ|C(u)|/|V(q)|` of
//! each filter, against the LDF floor and the STEADY fixpoint baseline.
//!
//! Every query also checks the filters' containment chain per query
//! vertex (asserted): STEADY ⊆ {CFL, CECI, DP-iso} ⊆ NLF ⊆ LDF and
//! GQL ⊆ NLF. GQL is not ⊇ STEADY: its semi-perfect matching test can
//! prune what Rule 3.1 keeps. It also compiles `recommended()`'s plan for
//! the query, which may leave leaf sets unrefined, and asserts that its
//! non-leaf sets are GQL's and each leaf's lies within GQL ⊆ · ⊆ NLF.

use crate::args::HarnessOptions;
use crate::experiments::{
    datasets_for, default_query_sets, dense_sweep, load, query_set, sparse_sweep, ALL_DATASETS,
};
use crate::table::TextTable;
use sm_graph::{Graph, GraphStats, VertexId};
use sm_match::filter::{run_filter, FilterKind};
use sm_match::{recommended, Candidates, DataContext, QueryContext};

/// `(smaller, larger)`: `C_smaller(u) ⊆ C_larger(u)` for every `u`.
const CHAIN: [(FilterKind, FilterKind); 8] = [
    (FilterKind::Steady, FilterKind::Cfl),
    (FilterKind::Steady, FilterKind::Ceci),
    (FilterKind::Steady, FilterKind::DpIso),
    (FilterKind::Cfl, FilterKind::Nlf),
    (FilterKind::Ceci, FilterKind::Nlf),
    (FilterKind::DpIso, FilterKind::Nlf),
    (FilterKind::GraphQl, FilterKind::Nlf),
    (FilterKind::Nlf, FilterKind::Ldf),
];

/// Filter `k`'s sets among one query's, indexed like [`FilterKind::all`].
fn of(sets: &[Option<Candidates>], k: FilterKind) -> Option<&Candidates> {
    sets[FilterKind::all().iter().position(|&m| m == k).unwrap()].as_ref()
}

/// Whether the sorted `small` is a subset of the sorted `large`.
fn within(small: &[VertexId], large: &[VertexId]) -> bool {
    small.iter().all(|v| large.binary_search(v).is_ok())
}

/// Assert [`CHAIN`] on one query's candidate sets, indexed like
/// [`FilterKind::all`] (`None` where the filter emptied some set — it
/// then holds no complete sets, and a superset may only be `None` if its
/// subset is).
fn assert_chain(sets: &[Option<Candidates>], nq: usize, what: &str) {
    let of = |k: FilterKind| of(sets, k);
    for (small, large) in CHAIN {
        let Some(s) = of(small) else { continue };
        let l = of(large).unwrap_or_else(|| {
            panic!(
                "fig8 {what}: {} emptied a set that {} kept",
                large.name(),
                small.name()
            )
        });
        for u in 0..nq as VertexId {
            assert!(
                within(s.get(u), l.get(u)),
                "fig8 {what} u{u}: {} is not a subset of {}",
                small.name(),
                large.name()
            );
        }
    }
}

/// Assert that `recommended()`'s plan for `q` stores GQL's set at every
/// non-leaf and a set within GQL ⊆ · ⊆ NLF at every leaf, and that it
/// compiles exactly when GQL empties no set.
fn assert_recommended(
    q: &Graph,
    gc: &DataContext<'_>,
    stats: &GraphStats,
    sets: &[Option<Candidates>],
    what: &str,
) {
    let (pipeline, config) = recommended(stats, q.num_vertices());
    let plan = pipeline.plan(q, gc, &config).ok();
    let gql = of(sets, FilterKind::GraphQl);
    let (Some(plan), Some(gql)) = (plan.as_ref(), gql) else {
        assert!(
            plan.is_none() && gql.is_none(),
            "fig8 {what}: recommended() and GQL disagree on an empty set"
        );
        return;
    };
    let nlf = of(sets, FilterKind::Nlf).expect("NLF contains GQL");
    for u in q.vertices() {
        let (stored, refined) = (plan.candidates.get(u), gql.get(u));
        let ok = if q.degree(u) == 1 {
            within(refined, stored) && within(stored, nlf.get(u))
        } else {
            stored == refined
        };
        assert!(
            ok,
            "fig8 {what} u{u}: recommended() stored a set outside its bounds"
        );
    }
}

/// Mean candidate count of each of [`FilterKind::all`] — the LDF and NLF
/// floors, the four filters and the fixpoint — over `queries` (queries
/// with empty candidate sets contribute nothing — matching the paper's
/// "number of candidate vertices" metric), asserting the containment
/// chain and `recommended()`'s sets on every query.
pub fn avg_candidates(queries: &[Graph], gc: &DataContext<'_>, what: &str) -> Vec<f64> {
    let mut totals = [0.0; 7];
    let stats = GraphStats::of(gc.graph);
    for (qi, q) in queries.iter().enumerate() {
        let qc = QueryContext::new(q);
        let sets = FilterKind::all().map(|m| run_filter(m, &qc, gc).map(|out| out.candidates));
        let what = format!("{what} query {qi}");
        assert_chain(&sets, q.num_vertices(), &what);
        assert_recommended(q, gc, &stats, &sets, &what);
        for (t, c) in totals.iter_mut().zip(&sets) {
            *t += c.as_ref().map_or(0.0, Candidates::average);
        }
    }
    let n = queries.len().max(1) as f64;
    totals.iter().map(|t| t / n).collect()
}

/// Run the experiment.
pub fn run(opts: &HarnessOptions) {
    println!("\n=== Figure 8(a): avg candidate count per dataset, default query sets ===");
    let specs = datasets_for(opts, &ALL_DATASETS);
    let mut t = TextTable::new(
        std::iter::once("method".to_string())
            .chain(specs.iter().map(|d| d.abbrev.to_string()))
            .collect(),
    );
    let mut columns = Vec::new();
    for spec in &specs {
        let ds = load(spec);
        let gc = DataContext::new(&ds.graph);
        let mut queries = Vec::new();
        for (_, s) in default_query_sets(spec, opts.queries) {
            queries.extend(query_set(&ds, s));
        }
        columns.push(avg_candidates(&queries, &gc, spec.abbrev));
    }
    for (mi, m) in FilterKind::all().iter().enumerate() {
        let mut row = vec![m.name().to_string()];
        for col in &columns {
            row.push(format!("{:.1}", col[mi]));
        }
        t.row(row);
    }
    t.print();

    let spec = specs
        .iter()
        .find(|d| d.abbrev == "yt")
        .copied()
        .unwrap_or(specs[0]);
    let ds = load(&spec);
    let gc = DataContext::new(&ds.graph);

    println!(
        "\n=== Figure 8(b): avg candidates on {}, vary |V(q)| (dense) ===",
        spec.abbrev
    );
    let mut sweep = vec![(
        "Q4".to_string(),
        sm_graph::gen::query::QuerySetSpec {
            num_vertices: 4,
            density: sm_graph::gen::query::Density::Any,
            count: opts.queries,
        },
    )];
    sweep.extend(dense_sweep(&spec, opts.queries));
    let mut t = TextTable::new(
        std::iter::once("method".to_string())
            .chain(sweep.iter().map(|(n, _)| n.clone()))
            .collect(),
    );
    let columns: Vec<Vec<f64>> = sweep
        .iter()
        .map(|(name, s)| {
            let what = format!("{} {name}", spec.abbrev);
            avg_candidates(&query_set(&ds, *s), &gc, &what)
        })
        .collect();
    for (mi, m) in FilterKind::all().iter().enumerate() {
        let mut row = vec![m.name().to_string()];
        row.extend(columns.iter().map(|col| format!("{:.1}", col[mi])));
        t.row(row);
    }
    t.print();

    println!(
        "\n=== Figure 8(c): avg candidates on {}, dense vs sparse ===",
        spec.abbrev
    );
    let dense = query_set(&ds, dense_sweep(&spec, opts.queries).last().unwrap().1);
    let sparse = query_set(&ds, sparse_sweep(&spec, opts.queries).last().unwrap().1);
    let dense = avg_candidates(&dense, &gc, "dense");
    let sparse = avg_candidates(&sparse, &gc, "sparse");
    let mut t = TextTable::new(vec!["method", "dense", "sparse"]);
    for (mi, m) in FilterKind::all().iter().enumerate() {
        t.row(vec![
            m.name().to_string(),
            format!("{:.1}", dense[mi]),
            format!("{:.1}", sparse[mi]),
        ]);
    }
    t.print();
}
