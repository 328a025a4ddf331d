//! Seeded inputs. The program under test receives only what this module
//! generates.
//!
//! Two kinds of randomness, kept apart on purpose:
//!
//! * **Query forms** are a fixed pool per workload (`POOL_SEED`): the
//!   work one form costs varies by orders of magnitude with its shape and
//!   even with its vertex numbering (orders break ties by id), so a pool
//!   drawn from `--seed` would make two seeds two different benchmarks
//!   and no bound could hold across them.
//! * **Everything sampled at run time** comes from `--seed`: visiting
//!   order, Zipf draws, vertex relabellings of served queries, the update
//!   stream, which reads follow which update, and the probes' samples.

use sm_runtime::Rng64;
use subgraph_matching::datasets::{self, DatasetSpec};
use subgraph_matching::graph::builder::graph_from_edges;
use subgraph_matching::graph::canon::canonical_form;
use subgraph_matching::graph::gen::query::{generate_query_set, Density, QuerySetSpec};
use subgraph_matching::graph::{Graph, Label, VertexId};

/// Seed of every workload's query-form pool (part of the workload's
/// definition, like the dataset).
pub const POOL_SEED: u64 = 0x5EED_2020;

/// Derive an independent stream seed from `seed` and a purpose tag.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut s = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    sm_runtime::rng::splitmix64(&mut s)
}

/// Generate the stand-in for `abbrev` (no on-disk cache: generation is
/// part of set-up time).
pub fn dataset(abbrev: &str) -> (DatasetSpec, Graph) {
    let spec = datasets::by_abbrev(abbrev).unwrap_or_else(|| panic!("unknown dataset {abbrev}"));
    let graph = datasets::generate(&spec);
    (spec, graph)
}

/// The fixed pool of `count` query forms of one shape on `g`.
pub fn query_pool(g: &Graph, size: usize, density: Density, count: usize, tag: u64) -> Vec<Graph> {
    let spec = QuerySetSpec {
        num_vertices: size,
        density,
        count,
    };
    let pool = generate_query_set(g, spec, mix(POOL_SEED, tag));
    assert_eq!(
        pool.len(),
        count,
        "the generator found only {} of {count} {} queries",
        pool.len(),
        spec.name()
    );
    pool
}

/// `want` forms with pairwise-distinct canonical codes, in candidate
/// order.
pub fn distinct_forms(candidates: Vec<Graph>, want: usize) -> Vec<Graph> {
    let mut seen = std::collections::HashSet::new();
    let out: Vec<Graph> = candidates
        .into_iter()
        .filter(|q| seen.insert(canonical_form(q).code))
        .take(want)
        .collect();
    assert_eq!(out.len(), want, "only {} distinct forms", out.len());
    out
}

/// `q` under a random renumbering of its vertices (isomorphic, so the
/// same canonical form and the same answer).
pub fn relabel(q: &Graph, rng: &mut Rng64) -> Graph {
    let n = q.num_vertices();
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    rng.shuffle(&mut perm);
    let mut labels: Vec<Label> = vec![0; n];
    for v in 0..n {
        labels[perm[v] as usize] = q.label(v as VertexId);
    }
    let edges: Vec<(VertexId, VertexId)> = q
        .edges()
        .map(|(u, v)| (perm[u as usize], perm[v as usize]))
        .collect();
    graph_from_edges(&labels, &edges)
}

/// `0..n` in a seeded order.
pub fn shuffled(n: usize, rng: &mut Rng64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

/// `total` draws over ranks `0..n` in exact Zipf(s) proportion: rank
/// `k` appears `total · k^-s / H` times (largest remainders rounded up),
/// in rank order. Shuffling the result gives a Zipf-distributed schedule
/// whose mix of forms — and so whose work — is the same for every seed.
pub fn zipf_schedule(n: usize, s: f64, total: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
    let norm: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / norm * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor())
            .total_cmp(&(exact[a] - exact[a].floor()))
            .then(a.cmp(&b))
    });
    let short = total - counts.iter().sum::<usize>();
    for &rank in by_remainder.iter().take(short) {
        counts[rank] += 1;
    }
    counts
        .iter()
        .enumerate()
        .flat_map(|(rank, &c)| std::iter::repeat_n(rank, c))
        .collect()
}

/// Size of the label universe of `g` (for update streams that add
/// vertices).
pub fn num_labels(g: &Graph) -> usize {
    g.vertices()
        .map(|v| g.label(v) as usize + 1)
        .max()
        .unwrap_or(1)
}

/// The raw (not canonical) encoding of a graph: tells two relabellings
/// of one form apart.
#[cfg(test)]
pub fn raw_code(q: &Graph) -> Vec<u64> {
    let mut code: Vec<u64> = q.vertices().map(|v| u64::from(q.label(v))).collect();
    code.extend(q.edges().map(|(u, v)| (u64::from(u) << 32) | u64::from(v)));
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use subgraph_matching::graph::canon::fingerprint;

    #[test]
    fn relabelling_keeps_the_fingerprint_and_follows_the_seed() {
        let (_, g) = dataset("ye");
        let pool = query_pool(&g, 8, Density::Sparse, 4, 1);
        let draw = |seed: u64| -> Vec<Graph> {
            let mut rng = Rng64::seed_from_u64(seed);
            pool.iter().map(|q| relabel(q, &mut rng)).collect()
        };
        let (a, b, c) = (draw(42), draw(42), draw(43));
        for ((x, y), q) in a.iter().zip(&b).zip(&pool) {
            assert_eq!(raw_code(x), raw_code(y), "same seed, same inputs");
            assert_eq!(fingerprint(x), fingerprint(q), "still the same form");
        }
        assert!(
            a.iter().zip(&c).any(|(x, y)| raw_code(x) != raw_code(y)),
            "another seed gives other inputs"
        );
    }

    #[test]
    fn pools_are_fixed_and_distinct_forms_are_distinct() {
        let (_, g) = dataset("ye");
        let a = query_pool(&g, 6, Density::Sparse, 12, 7);
        let b = query_pool(&g, 6, Density::Sparse, 12, 7);
        assert!(a.iter().zip(&b).all(|(x, y)| raw_code(x) == raw_code(y)));
        let forms = distinct_forms(a, 8);
        let prints: std::collections::HashSet<u64> = forms.iter().map(fingerprint).collect();
        assert_eq!(prints.len(), 8);
    }

    #[test]
    fn zipf_schedule_has_exact_proportions() {
        let draws = zipf_schedule(32, 1.0, 1024);
        assert_eq!(draws.len(), 1024);
        let mut hits = [0usize; 32];
        for &rank in &draws {
            hits[rank] += 1;
        }
        // H(32) = 4.0585: rank 1 gets 1024 / 4.0585 = 252.3 draws.
        assert_eq!(hits[0], 252);
        assert_eq!(hits[1], 126);
        assert!(hits[7] > hits[31] && hits[31] >= 7);
        assert!(hits.windows(2).all(|w| w[0] >= w[1]));
    }
}
