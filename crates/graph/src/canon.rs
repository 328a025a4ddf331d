//! Canonical forms for query graphs: a permutation-invariant labeling,
//! encoding and fingerprint.
//!
//! A plan cache must map *structurally identical* queries onto one key:
//! the same triangle-with-a-tail submitted with permuted vertex ids
//! should hit the plan compiled for its first appearance. This module
//! computes, for a labeled graph, a **canonical labeling** — a
//! renumbering of the vertices determined only by the graph's structure
//! and labels — plus the **canonical code** (the exact edge/label
//! encoding under that labeling) and a 64-bit **fingerprint** hash of the
//! code.
//!
//! The construction is the classic individualization-refinement scheme:
//!
//! 1. **Refinement** — iterated Weisfeiler-Leman color refinement seeded
//!    with `(label, degree)`: a vertex's color is refined by the sorted
//!    multiset of its neighbors' colors until the partition stabilizes.
//!    Color ids are assigned by sorting the refinement keys, so they
//!    depend only on structure, never on input vertex order.
//! 2. **Individualization** — when refinement leaves a non-singleton
//!    color class (regular substructures), the search individualizes each
//!    vertex of the first such class in turn, re-refines, and recurses,
//!    keeping the lexicographically smallest code over all branches.
//!
//! For the study's query sizes (≤ 32 vertices, labeled, sparse) the
//! refinement partition is discrete or nearly so and the search is tiny.
//! A node budget guards the pathological cases (large unlabeled regular
//! graphs): if the search exceeds it, the identity labeling is used and
//! [`CanonicalForm::exact`] is `false` — callers lose permutation
//! invariance (cache hits), never correctness, because cache consumers
//! compare full codes, not just hashes.

use crate::graph::Graph;
use crate::types::VertexId;
use sm_runtime::rng::splitmix64;

/// Search-node budget for individualization-refinement. Labeled query
/// graphs resolve in a handful of nodes; this bound only trips on large
/// unlabeled regular graphs.
const IR_NODE_BUDGET: usize = 20_000;

/// The canonical form of a labeled graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonicalForm {
    /// 64-bit fingerprint of [`CanonicalForm::code`] — the cache-key
    /// hash. Equal codes always produce equal hashes; hash collisions
    /// between different codes are possible and must be resolved by
    /// comparing codes.
    pub hash: u64,
    /// The canonical encoding: `[n, m, labels by canonical position…,
    /// edges as (min_pos << 32 | max_pos), sorted…]`. Two graphs are
    /// isomorphic (as labeled graphs) iff their exact codes are equal.
    pub code: Vec<u64>,
    /// `labeling[v]` = canonical position of input vertex `v` (a
    /// permutation of `0..n`). Composing two forms' labelings maps one
    /// isomorphic graph's vertex ids onto the other's.
    pub labeling: Vec<VertexId>,
    /// Whether the labeling came from a completed canonical search.
    /// `false` means the budget was exceeded and the identity labeling
    /// was used — the code is still a faithful encoding, just not
    /// canonical.
    pub exact: bool,
}

impl CanonicalForm {
    /// The vertex map `self → other` implied by the two canonical
    /// labelings: `map[v] = u` such that position(`v` in `self`) ==
    /// position(`u` in `other`). Equal codes guarantee the two labelings
    /// land on the very same encoding, so the composition is a
    /// label-preserving isomorphism even when the search was budgeted
    /// ([`exact`](CanonicalForm::exact) false — both labelings are then
    /// the identity over identical graphs). Returns `None` when the codes
    /// differ (the forms describe different graphs).
    pub fn map_onto(&self, other: &CanonicalForm) -> Option<Vec<VertexId>> {
        if self.code != other.code {
            return None;
        }
        let n = self.labeling.len();
        let mut inv_other = vec![0 as VertexId; n];
        for (u, &pos) in other.labeling.iter().enumerate() {
            inv_other[pos as usize] = u as VertexId;
        }
        Some(
            self.labeling
                .iter()
                .map(|&pos| inv_other[pos as usize])
                .collect(),
        )
    }

    /// Extend the canonical code with a semantics fingerprint: one extra
    /// word appended *after* the edge list (the `[n, m, labels…, edges…]`
    /// prefix keeps its layout, so readers that index labels at
    /// `code[2..2+n]` are unaffected) and the hash recomputed over the
    /// extended code. Two forms extended with different fingerprints never
    /// compare code-equal, which is what keeps plan caches from sharing a
    /// plan across match-semantics modes while permuted twins within one
    /// mode still share (`map_onto` works unchanged — the labelings are
    /// untouched).
    pub fn with_semantics(mut self, fp: u64) -> CanonicalForm {
        self.code.push(fp);
        self.hash = hash_code(&self.code);
        self
    }
}

/// Compute the canonical form of `g`. Deterministic; invariant under any
/// permutation of the vertex ids as long as the search completes (always,
/// for the study's query shapes — see [`CanonicalForm::exact`]).
pub fn canonical_form(g: &Graph) -> CanonicalForm {
    let n = g.num_vertices();
    if n == 0 {
        return CanonicalForm {
            hash: hash_code(&[0, 0]),
            code: vec![0, 0],
            labeling: Vec::new(),
            exact: true,
        };
    }
    // Seed colors: (label, degree), compressed to dense ranks.
    let mut colors: Vec<u64> = (0..n)
        .map(|v| {
            let v = v as VertexId;
            ((g.label(v) as u64) << 32) | g.degree(v) as u64
        })
        .collect();
    compress(&mut colors);
    refine(g, &mut colors);

    let mut budget = IR_NODE_BUDGET;
    let mut best: Option<(Vec<u64>, Vec<VertexId>)> = None;
    search(g, &colors, &mut budget, &mut best);
    // A best found under an exhausted budget may not be the global
    // minimum over all branches — report it as inexact so callers don't
    // rely on permutation invariance.
    let exact = budget > 0;
    match best {
        Some((code, labeling)) => CanonicalForm {
            hash: hash_code(&code),
            code,
            labeling,
            exact,
        },
        None => {
            // Budget exhausted with no completed branch: fall back to the
            // identity labeling. Correct (it is a faithful encoding of
            // this graph), just not permutation-invariant.
            let labeling: Vec<VertexId> = (0..n as VertexId).collect();
            let code = encode(g, &labeling);
            CanonicalForm {
                hash: hash_code(&code),
                code,
                labeling,
                exact: false,
            }
        }
    }
}

/// The canonical fingerprint of `g` — shorthand for
/// [`canonical_form`]`(g).hash`.
pub fn fingerprint(g: &Graph) -> u64 {
    canonical_form(g).hash
}

/// Replace arbitrary color keys with dense ranks `0..k` assigned by
/// sorted key order (structure-determined, input-order-free).
fn compress(colors: &mut [u64]) -> usize {
    let mut sorted: Vec<u64> = colors.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    for c in colors.iter_mut() {
        *c = sorted.binary_search(c).expect("own key") as u64;
    }
    sorted.len()
}

/// One-step WL refinement iterated to a fixpoint: a vertex's new color
/// hashes its old color with the sorted multiset of neighbor colors.
fn refine(g: &Graph, colors: &mut Vec<u64>) {
    let n = g.num_vertices();
    let mut classes = colors
        .iter()
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    let mut nbuf: Vec<u64> = Vec::new();
    loop {
        let mut next: Vec<u64> = Vec::with_capacity(n);
        for v in 0..n {
            nbuf.clear();
            nbuf.extend(
                g.neighbors(v as VertexId)
                    .iter()
                    .map(|&u| colors[u as usize]),
            );
            nbuf.sort_unstable();
            let mut h = colors[v] ^ 0x9E37_79B9_7F4A_7C15;
            for &c in &nbuf {
                let mut s = h ^ c.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                h = splitmix64(&mut s);
            }
            next.push(h);
        }
        let k = compress(&mut next);
        *colors = next;
        if k == classes || k == n {
            return;
        }
        classes = k;
    }
}

/// Individualization-refinement over the stable coloring: recurse until
/// the partition is discrete, keeping the lexicographically smallest
/// code. `budget` caps total search nodes.
fn search(
    g: &Graph,
    colors: &[u64],
    budget: &mut usize,
    best: &mut Option<(Vec<u64>, Vec<VertexId>)>,
) {
    if *budget == 0 {
        return;
    }
    *budget -= 1;
    let n = g.num_vertices();
    // Find the first non-singleton color class (by color value).
    let mut count = vec![0usize; n];
    for &c in colors {
        count[c as usize] += 1;
    }
    let target = (0..n).find(|&c| count[c] > 1);
    let Some(target) = target else {
        // Discrete: colors are a permutation; the color IS the canonical
        // position.
        let labeling: Vec<VertexId> = colors.iter().map(|&c| c as VertexId).collect();
        let code = encode(g, &labeling);
        let better = match best {
            None => true,
            Some((b, _)) => code < *b,
        };
        if better {
            *best = Some((code, labeling));
        }
        return;
    };
    let members: Vec<usize> = (0..n).filter(|&v| colors[v] == target as u64).collect();
    for v in members {
        // Individualize v: a fresh color sorting immediately before its
        // class (2c for v, 2c+1 for everyone else preserves relative
        // order of all other classes).
        let mut child: Vec<u64> = colors.iter().map(|&c| 2 * c + 1).collect();
        child[v] = 2 * target as u64;
        compress(&mut child);
        refine(g, &mut child);
        search(g, &child, budget, best);
        if *budget == 0 {
            return;
        }
    }
}

/// Encode `g` under a complete labeling (`labeling[v]` = position).
fn encode(g: &Graph, labeling: &[VertexId]) -> Vec<u64> {
    let n = g.num_vertices();
    let mut code = Vec::with_capacity(2 + n + g.num_edges());
    code.push(n as u64);
    code.push(g.num_edges() as u64);
    let mut inv = vec![0 as VertexId; n];
    for (v, &pos) in labeling.iter().enumerate() {
        inv[pos as usize] = v as VertexId;
    }
    for &v in inv.iter().take(n) {
        code.push(g.label(v) as u64);
    }
    let mut edges: Vec<u64> = g
        .edges()
        .map(|(u, v)| {
            let (a, b) = (labeling[u as usize], labeling[v as usize]);
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            ((lo as u64) << 32) | hi as u64
        })
        .collect();
    edges.sort_unstable();
    code.extend(edges);
    code
}

/// Hash a code down to the 64-bit fingerprint (splitmix64-folded).
fn hash_code(code: &[u64]) -> u64 {
    let mut h = 0x517C_C1B7_2722_0A95_u64 ^ (code.len() as u64);
    for &w in code {
        let mut s = h ^ w.wrapping_mul(0x94D0_49BB_1331_11EB);
        h = splitmix64(&mut s);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::types::Label;
    use sm_runtime::Rng64;

    /// Apply the vertex permutation `perm` (old id -> new id) to `g`.
    fn permuted(g: &Graph, perm: &[VertexId]) -> Graph {
        let n = g.num_vertices();
        let mut labels = vec![0 as Label; n];
        for v in 0..n {
            labels[perm[v] as usize] = g.label(v as VertexId);
        }
        let edges: Vec<(VertexId, VertexId)> = g
            .edges()
            .map(|(u, v)| (perm[u as usize], perm[v as usize]))
            .collect();
        graph_from_edges(&labels, &edges)
    }

    fn random_perm(n: usize, seed: u64) -> Vec<VertexId> {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut p: Vec<VertexId> = (0..n as VertexId).collect();
        // Fisher-Yates
        for i in (1..n).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            p.swap(i, j);
        }
        p
    }

    #[test]
    fn invariant_under_permutation_labeled() {
        let g = graph_from_edges(
            &[0, 1, 2, 3, 1],
            &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)],
        );
        let base = canonical_form(&g);
        assert!(base.exact);
        for seed in 0..20 {
            let p = random_perm(g.num_vertices(), seed);
            let h = permuted(&g, &p);
            let f = canonical_form(&h);
            assert_eq!(f.code, base.code, "seed {seed}");
            assert_eq!(f.hash, base.hash);
        }
    }

    #[test]
    fn invariant_on_vertex_transitive_graphs() {
        // C6: one WL color class; requires individualization.
        let c6 = graph_from_edges(
            &[0, 0, 0, 0, 0, 0],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
        );
        let base = canonical_form(&c6);
        assert!(base.exact);
        for seed in 0..20 {
            let p = random_perm(6, 1000 + seed);
            let f = canonical_form(&permuted(&c6, &p));
            assert_eq!(f.code, base.code, "seed {seed}");
        }
    }

    #[test]
    fn distinguishes_non_isomorphic_graphs() {
        // Path P4 vs star K1,3: same size, same label multiset.
        let path = graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3)]);
        let star = graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (0, 2), (0, 3)]);
        assert_ne!(canonical_form(&path).code, canonical_form(&star).code);
        // Same structure, different labels.
        let a = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let b = graph_from_edges(&[0, 1, 1], &[(0, 1), (1, 2)]);
        assert_ne!(canonical_form(&a).code, canonical_form(&b).code);
        // Label position matters: center-labeled star vs leaf-labeled.
        let c = graph_from_edges(&[1, 0, 0, 0], &[(0, 1), (0, 2), (0, 3)]);
        let d = graph_from_edges(&[0, 1, 0, 0], &[(0, 1), (0, 2), (0, 3)]);
        assert_ne!(canonical_form(&c).code, canonical_form(&d).code);
    }

    #[test]
    fn map_onto_is_an_isomorphism() {
        let g = graph_from_edges(&[0, 1, 1, 2], &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        let p = random_perm(4, 7);
        let h = permuted(&g, &p);
        let fg = canonical_form(&g);
        let fh = canonical_form(&h);
        let map = fg.map_onto(&fh).expect("isomorphic");
        // map must be a label-preserving edge bijection g -> h
        let mut seen = [false; 4];
        for v in 0..4u32 {
            assert_eq!(g.label(v), h.label(map[v as usize]));
            assert!(!seen[map[v as usize] as usize]);
            seen[map[v as usize] as usize] = true;
        }
        for (u, v) in g.edges() {
            assert!(h.has_edge(map[u as usize], map[v as usize]));
        }
        // non-isomorphic: no map
        let other = graph_from_edges(&[0, 1, 1, 2], &[(0, 1), (1, 2), (2, 3)]);
        assert!(fg.map_onto(&canonical_form(&other)).is_none());
    }

    #[test]
    fn fingerprint_matches_form_hash() {
        let g = graph_from_edges(&[0, 1], &[(0, 1)]);
        assert_eq!(fingerprint(&g), canonical_form(&g).hash);
        // empty graph has a stable form
        let empty = graph_from_edges(&[], &[]);
        let f = canonical_form(&empty);
        assert!(f.exact);
        assert_eq!(f.labeling.len(), 0);
    }

    #[test]
    fn labeling_is_a_permutation() {
        let g = graph_from_edges(&[0, 0, 1, 1, 0], &[(0, 2), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let f = canonical_form(&g);
        let mut seen = [false; 5];
        for &pos in &f.labeling {
            assert!(!seen[pos as usize]);
            seen[pos as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // code round-trips the graph size
        assert_eq!(f.code[0], 5);
        assert_eq!(f.code[1], g.num_edges() as u64);
    }
}
