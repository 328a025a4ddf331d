//! A patched plan is a fresh compile. `Pipeline::patch` brings a plan's
//! candidate sets from one epoch of a data graph to a later one through
//! the vertices the commits in between touched; the sets, the order and
//! the verdict "no match" must equal what `Pipeline::plan` compiles on the
//! later epoch from scratch.
//!
//! The cells: RMAT graphs with Zipf-skewed labels, each driven through a
//! seeded `UpdateStream` (edge inserts and deletes, vertex adds) with
//! explicit vertex deletes (tombstones), an edge deleted and reinserted
//! one commit later, and `compact()` between commits; LDF, NLF and
//! GraphQL plans, GraphQL with every set refined and with the recommended
//! pipeline's leaves left at their NLF sets, and the label-only sets of a
//! homomorphism run; each patched across 1, 8 and 32 commits.

use sm_delta::{UpdateBatch, UpdateStream, UpdateStreamSpec, VersionedGraph};
use sm_graph::gen::query::{generate_query_set, Density, QuerySetSpec};
use sm_graph::gen::random::assign_labels_zipf;
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_graph::{Graph, GraphStats, VertexId};
use sm_match::{
    recommended, Algorithm, ChangeSet, DataContext, FilterKind, LcMethod, MatchConfig,
    MatchSemantics, OrderKind, Pipeline,
};

const GAPS: [usize; 3] = [1, 8, 32];

/// One epoch of a data graph and the changes of the commit that made it.
struct Epoch {
    graph: Graph,
    changes: ChangeSet,
}

/// `commits` epochs after `g`, from a seeded stream with a vertex delete,
/// an edge delete and its reinsertion, and a compaction mixed in.
fn history(g: Graph, labels: usize, commits: usize, seed: u64) -> Vec<Epoch> {
    let vg = VersionedGraph::with_threshold(g.clone(), usize::MAX);
    let spec = UpdateStreamSpec {
        batch_size: 12,
        insert_ratio: 0.7,
        vertex_add_ratio: 0.1,
        num_labels: labels,
    };
    let mut stream = UpdateStream::new(spec, seed);
    let mut epochs = vec![Epoch {
        graph: g,
        changes: ChangeSet::default(),
    }];
    let mut reinsert = None;
    while epochs.len() <= commits {
        let view = vg.snapshot();
        let i = epochs.len();
        let batch = if let Some((u, w)) = reinsert.take() {
            UpdateBatch::new().add_edge(u, w)
        } else if i % 10 == 3 {
            // Tombstone the highest-degree live vertex.
            let hub = (0..view.num_vertices() as VertexId)
                .filter(|&v| !view.is_tombstoned(v))
                .max_by_key(|&v| view.degree(v))
                .expect("a live vertex");
            UpdateBatch::new().delete_vertex(hub)
        } else if i % 10 == 6 {
            let u = (0..view.num_vertices() as VertexId)
                .find(|&v| view.degree(v) > 2)
                .expect("a vertex with edges");
            let w = view.neighbors(u)[0];
            reinsert = Some((u, w));
            UpdateBatch::new().delete_edge(u, w)
        } else {
            stream.next_batch(&view)
        };
        let committed = vg.commit(&batch);
        if committed.info.is_noop() {
            continue;
        }
        epochs.push(Epoch {
            graph: committed.post.materialize().0,
            changes: committed.changes(),
        });
        if i % 7 == 0 {
            assert!(vg.compact());
        }
    }
    epochs
}

/// What the checks covered, so that a vacuous pass fails.
#[derive(Default)]
struct Seen {
    checks: usize,
    unsatisfiable: usize,
    /// Candidates whose verdict changed although their own row did not.
    untouched_flips: usize,
}

fn check(
    p: &Pipeline,
    cfg: &MatchConfig,
    q: &Graph,
    epochs: &[Epoch],
    start: usize,
    seen: &mut Seen,
) {
    let prior = match p.plan(q, &DataContext::new(&epochs[start].graph), cfg) {
        Ok(plan) => plan,
        Err(_) => return,
    };
    for gap in GAPS {
        let Some(target) = epochs.get(start + gap) else {
            continue;
        };
        let ctx = DataContext::new(&target.graph);
        let changes = ChangeSet::merge(epochs[start + 1..=start + gap].iter().map(|e| &e.changes));
        let patched = p
            .patch(q, &ctx, cfg, &prior.candidates, &changes)
            .unwrap_or_else(|| panic!("{} has an exact patch", p.name));
        let fresh = p.plan(q, &ctx, cfg);
        let what = format!("{} from epoch {start}, gap {gap}", p.name);
        seen.checks += 1;
        match (patched, fresh) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.candidates, want.candidates, "{what}");
                assert_eq!(got.order(), want.order(), "{what}");
                for u in q.vertices() {
                    let (old, new) = (prior.candidates.get(u), want.candidates.get(u));
                    seen.untouched_flips += old
                        .iter()
                        .filter(|v| new.binary_search(v).is_err())
                        .chain(new.iter().filter(|v| old.binary_search(v).is_err()))
                        .filter(|v| changes.vertices().binary_search(v).is_err())
                        .count();
                }
            }
            (Err(_), Err(_)) => seen.unsatisfiable += 1,
            (got, want) => panic!(
                "{what}: patched satisfiable {}, fresh satisfiable {}",
                got.is_ok(),
                want.is_ok()
            ),
        }
    }
}

#[test]
fn patched_candidates_equal_a_fresh_compile() {
    let count_only = MatchConfig::default().with_semantics(MatchSemantics::default().count_only());
    let homomorphic = MatchConfig::default().with_semantics(MatchSemantics::homomorphism());
    let mut seen = Seen::default();
    for (gi, labels) in [3usize, 5].into_iter().enumerate() {
        let base = rmat_graph(500, 6.0, 1, RmatParams::PAPER, 31 + gi as u64);
        let g = assign_labels_zipf(&base, labels, 1.0, 41 + gi as u64);
        let epochs = history(g, labels, 40, 51 + gi as u64);
        let mut queries = Vec::new();
        for (size, density) in [(4, Density::Any), (6, Density::Sparse), (7, Density::Dense)] {
            let spec = QuerySetSpec {
                num_vertices: size,
                density,
                count: 3,
            };
            queries.extend(generate_query_set(&epochs[0].graph, spec, 61 + gi as u64));
        }
        assert!(queries.len() >= 6, "the generator found queries");
        for q in &queries {
            let mut rec = recommended(&GraphStats::of(&epochs[0].graph), q.num_vertices()).0;
            rec.order = OrderKind::Ri;
            let cells = [
                (
                    Pipeline::new("LDF", FilterKind::Ldf, OrderKind::Ri, LcMethod::Intersect),
                    MatchConfig::default(),
                ),
                (
                    Pipeline::new("NLF", FilterKind::Nlf, OrderKind::Ri, LcMethod::Intersect),
                    MatchConfig::default(),
                ),
                (Algorithm::GraphQl.optimized(), MatchConfig::default()),
                (rec, count_only.clone()),
                (Algorithm::Cfl.optimized(), homomorphic.clone()),
            ];
            for (p, cfg) in &cells {
                assert!(p.patches(cfg), "{}", p.name);
                for start in [0, 5] {
                    check(p, cfg, q, &epochs, start, &mut seen);
                }
            }
        }
    }
    assert!(seen.checks > 300, "{} checks", seen.checks);
    assert!(
        seen.untouched_flips > 0,
        "no untouched vertex changed its verdict"
    );
    eprintln!(
        "{} checks, {} unsatisfiable on both sides, {} untouched flips",
        seen.checks, seen.unsatisfiable, seen.untouched_flips
    );
}

/// CFL, CECI, DP-iso and STEADY have no exact patch, and neither has a
/// shard's plan: `patch` declines, so the caller compiles.
#[test]
fn filters_without_an_exact_patch_decline() {
    let g = rmat_graph(200, 5.0, 3, RmatParams::PAPER, 3);
    let q = generate_query_set(
        &g,
        QuerySetSpec {
            num_vertices: 4,
            density: Density::Any,
            count: 1,
        },
        5,
    )
    .pop()
    .expect("a query");
    let ctx = DataContext::new(&g);
    let cfg = MatchConfig::default();
    for a in [Algorithm::Cfl, Algorithm::Ceci, Algorithm::DpIso] {
        let p = a.optimized();
        assert!(!p.patches(&cfg), "{}", p.name);
        let plan = p.plan(&q, &ctx, &cfg).expect("satisfiable");
        assert!(p
            .patch(&q, &ctx, &cfg, &plan.candidates, &ChangeSet::default())
            .is_none());
    }
    let steady = Pipeline::new("S", FilterKind::Steady, OrderKind::Ri, LcMethod::Intersect);
    assert!(!steady.patches(&cfg));
    let gql = Algorithm::GraphQl.optimized();
    let plan = gql.plan(&q, &ctx, &cfg).expect("satisfiable");
    let owned = sm_match::util::Bitmap::new(g.num_vertices());
    let shard = DataContext::new(&g).with_owned(Some(&owned));
    assert!(gql
        .patch(&q, &shard, &cfg, &plan.candidates, &ChangeSet::default())
        .is_none());
}
