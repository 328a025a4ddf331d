//! Canonicalization under automorphism-rich queries: uniform-label
//! cycles, cliques and stars have huge automorphism groups (up to `n!`
//! for the clique), which is exactly where a buggy
//! individualization-refinement implementation produces
//! permutation-dependent codes. Every shape is checked under many seeded
//! random vertex permutations: identical code + hash, a completed
//! (`exact`) search, and a `map_onto` composition that is a genuine
//! label-preserving isomorphism.

use sm_graph::builder::graph_from_edges;
use sm_graph::canon::canonical_form;
use sm_graph::{Graph, Label, VertexId};
use sm_runtime::Rng64;

/// Fisher–Yates permutation of `0..n`.
fn random_perm(n: usize, rng: &mut Rng64) -> Vec<VertexId> {
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    for i in (1..n).rev() {
        let j = rng.next_u64_below(i as u64 + 1) as usize;
        perm.swap(i, j);
    }
    perm
}

/// Relabel vertices: vertex `v` of `g` becomes `perm[v]`.
fn permuted(g: &Graph, perm: &[VertexId]) -> Graph {
    let n = g.num_vertices();
    let mut labels = vec![0 as Label; n];
    for v in 0..n as VertexId {
        labels[perm[v as usize] as usize] = g.label(v);
    }
    let mut edges = Vec::new();
    for v in 0..n as VertexId {
        for &w in g.neighbors(v) {
            if v < w {
                edges.push((perm[v as usize], perm[w as usize]));
            }
        }
    }
    graph_from_edges(&labels, &edges)
}

/// Assert canonical-form invariance of `g` under `rounds` random
/// permutations, including that the composed vertex map is a
/// label-preserving isomorphism.
fn assert_canon_invariant(g: &Graph, rounds: usize, seed: u64) {
    let base = canonical_form(g);
    assert!(base.exact, "search must complete on study-sized queries");
    let mut rng = Rng64::seed_from_u64(seed);
    for round in 0..rounds {
        let perm = random_perm(g.num_vertices(), &mut rng);
        let h = permuted(g, &perm);
        let form = canonical_form(&h);
        assert_eq!(form.code, base.code, "code differs (round {round})");
        assert_eq!(form.hash, base.hash, "hash differs (round {round})");
        assert!(form.exact, "permuted search must complete too");
        // The composed map g -> h must be a label-preserving isomorphism.
        let map = base.map_onto(&form).expect("equal codes compose");
        for v in 0..g.num_vertices() as VertexId {
            let mv = map[v as usize];
            assert_eq!(g.label(v), h.label(mv), "label broken at v{v}");
            for &w in g.neighbors(v) {
                assert!(
                    h.neighbors(mv).contains(&map[w as usize]),
                    "edge ({v},{w}) lost under map (round {round})"
                );
            }
        }
    }
}

fn cycle(n: usize, label: Label) -> Graph {
    let labels = vec![label; n];
    let edges: Vec<(VertexId, VertexId)> = (0..n)
        .map(|i| (i as VertexId, ((i + 1) % n) as VertexId))
        .collect();
    graph_from_edges(&labels, &edges)
}

fn clique(n: usize, label: Label) -> Graph {
    let labels = vec![label; n];
    let mut edges = Vec::new();
    for i in 0..n as VertexId {
        for j in (i + 1)..n as VertexId {
            edges.push((i, j));
        }
    }
    graph_from_edges(&labels, &edges)
}

fn star(leaves: usize, hub_label: Label, leaf_label: Label) -> Graph {
    let mut labels = vec![hub_label];
    labels.extend(std::iter::repeat_n(leaf_label, leaves));
    let edges: Vec<(VertexId, VertexId)> = (1..=leaves as VertexId).map(|l| (0, l)).collect();
    graph_from_edges(&labels, &edges)
}

#[test]
fn uniform_cycles_are_permutation_invariant() {
    for n in 3..=9 {
        assert_canon_invariant(&cycle(n, 0), 12, 0xC0FFEE ^ n as u64);
    }
}

#[test]
fn uniform_cliques_are_permutation_invariant() {
    // K3..K7: automorphism group n! — every vertex is interchangeable.
    for n in 3..=7 {
        assert_canon_invariant(&clique(n, 3), 12, 0xBEEF ^ n as u64);
    }
}

#[test]
fn stars_are_permutation_invariant() {
    // Uniform labels (hub only distinguished by degree) and hub-vs-leaf
    // labeled variants. 7 identical leaves (7! candidate orderings) stays
    // inside the IR node budget; 8 would exceed it and fall back to the
    // non-canonical-but-faithful encoding.
    for leaves in 2..=7 {
        assert_canon_invariant(&star(leaves, 0, 0), 12, 0x57A4 ^ leaves as u64);
        assert_canon_invariant(&star(leaves, 1, 0), 12, 0x57A5 ^ leaves as u64);
    }
}

#[test]
fn different_shapes_get_different_codes() {
    // Same n and m, same uniform label, different structure: the 6-cycle
    // vs two triangles sharing nothing (disconnected) vs K4 minus a
    // perfect matching (= 4-cycle) are pairwise distinguishable.
    let c6 = cycle(6, 0);
    let two_triangles = graph_from_edges(
        &[0, 0, 0, 0, 0, 0],
        &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
    );
    assert_ne!(
        canonical_form(&c6).code,
        canonical_form(&two_triangles).code
    );
    // Label position matters: hub-labeled star vs leaf-labeled star.
    assert_ne!(
        canonical_form(&star(3, 1, 0)).code,
        canonical_form(&star(3, 0, 1)).code
    );
}

#[test]
fn mixed_label_cycle_with_rotational_symmetry() {
    // Alternating labels on an even cycle: the automorphism group is the
    // dihedral subgroup preserving the 2-coloring — still nontrivial.
    for n in [4usize, 6, 8, 10] {
        let labels: Vec<Label> = (0..n).map(|i| (i % 2) as Label).collect();
        let edges: Vec<(VertexId, VertexId)> = (0..n)
            .map(|i| (i as VertexId, ((i + 1) % n) as VertexId))
            .collect();
        let g = graph_from_edges(&labels, &edges);
        assert_canon_invariant(&g, 12, 0xD1A1u64 ^ n as u64);
    }
}
