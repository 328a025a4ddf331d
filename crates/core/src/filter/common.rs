//! Shared filter building blocks.

use crate::context::{DataContext, QueryContext, MAX_QUERY_VERTICES};
use sm_graph::{Graph, Label, NlfIndex, VertexId};

/// Label-and-degree test for a single `(u, v)` pair.
#[inline]
pub fn ldf_pass(q: &QueryContext<'_>, g: &DataContext<'_>, u: VertexId, v: VertexId) -> bool {
    g.graph.label(v) == q.graph.label(u) && g.graph.degree(v) >= q.graph.degree(u)
}

/// The NLF test of one query vertex `u`, prepared once per filter pass:
/// `u`'s degree, signature word and row, and whether the word alone
/// decides dominance against this data graph
/// ([`NlfIndex::signature_decides`]). A data vertex then passes iff the
/// word admits it and, only when the word cannot decide, the label-count
/// merge [`NlfIndex::dominates`] does too.
pub struct NlfGate<'q> {
    degree: usize,
    sig: u64,
    exact: bool,
    row: &'q [(Label, u32)],
}

impl<'q> NlfGate<'q> {
    /// Prepare `u`'s gate against `g`.
    pub fn new(q: &'q QueryContext<'_>, g: &DataContext<'_>, u: VertexId) -> Self {
        let row = q.nlf.entry(u);
        NlfGate {
            degree: q.graph.degree(u),
            sig: q.nlf.signature(u),
            exact: NlfIndex::signature_decides(row, g.graph.label_index().label_bound()),
            row,
        }
    }

    /// NLF test of data vertex `v`, whose signature `sig_v` the caller
    /// has already read from `nlf`.
    #[inline(always)]
    fn admits(&self, nlf: &NlfIndex, v: VertexId, sig_v: u64) -> bool {
        self.sig & !sig_v == 0 && (self.exact || NlfIndex::dominates(nlf.entry(v), self.row))
    }
}

/// NLF dominance test of data vertex `v` against query vertex `u`'s
/// prepared gate (assumes labels equal).
#[inline]
pub fn nlf_pass(g: &DataContext<'_>, gate: &NlfGate<'_>, v: VertexId) -> bool {
    gate.admits(&g.nlf, v, g.nlf.signature(v))
}

/// One LDF candidate set: vertices of `G` with `L(v) = L(u)` and
/// `d(v) >= d(u)`, produced in sorted order from the label index.
pub fn ldf_set(q: &QueryContext<'_>, g: &DataContext<'_>, u: VertexId) -> Vec<VertexId> {
    let du = q.graph.degree(u);
    g.graph
        .vertices_with_label(q.graph.label(u))
        .iter()
        .copied()
        .filter(|&v| g.graph.degree(v) >= du)
        .collect()
}

/// The data vertices of `u`'s label bucket that pass LDF and NLF.
fn ldf_nlf_iter<'a>(
    q: &'a QueryContext<'_>,
    g: &'a DataContext<'_>,
    u: VertexId,
) -> impl Iterator<Item = VertexId> + 'a {
    let gate = NlfGate::new(q, g, u);
    g.graph
        .vertices_with_label(q.graph.label(u))
        .iter()
        .copied()
        .filter(move |&v| g.graph.degree(v) >= gate.degree && nlf_pass(g, &gate, v))
}

/// One LDF+NLF candidate set.
pub fn ldf_nlf_set(q: &QueryContext<'_>, g: &DataContext<'_>, u: VertexId) -> Vec<VertexId> {
    ldf_nlf_iter(q, g, u).collect()
}

/// `|ldf_nlf_set(q, g, u)|` without materializing the set.
pub fn ldf_nlf_count(q: &QueryContext<'_>, g: &DataContext<'_>, u: VertexId) -> usize {
    ldf_nlf_iter(q, g, u).count()
}

/// The LDF+NLF candidate set of every query vertex. Query vertices are
/// visited grouped by label, so the label's vertex list is scanned — and
/// each data vertex's degree and signature fetched — once per label
/// rather than once per same-labelled query vertex.
pub fn ldf_nlf_sets(q: &QueryContext<'_>, g: &DataContext<'_>) -> Vec<Vec<VertexId>> {
    let label = |u: &VertexId| q.graph.label(*u);
    let gates: Vec<NlfGate<'_>> = q.graph.vertices().map(|u| NlfGate::new(q, g, u)).collect();
    let mut by_label: Vec<VertexId> = q.graph.vertices().collect();
    by_label.sort_by_key(label);
    let mut sets = vec![Vec::new(); by_label.len()];
    let nlf = &*g.nlf;
    for group in by_label.chunk_by(|a, b| label(a) == label(b)) {
        for &v in g.graph.vertices_with_label(label(&group[0])) {
            let (dv, sig_v) = (g.graph.degree(v), nlf.signature(v));
            for &u in group {
                let gate = &gates[u as usize];
                if dv >= gate.degree && gate.admits(nlf, v, sig_v) {
                    sets[u as usize].push(v);
                }
            }
        }
    }
    sets
}

/// Candidate membership as one word per data vertex: bit `u'` of
/// `v`'s word is set iff `v ∈ C(u')` (`QueryContext::new` caps `|V(q)|`
/// at the word width).
///
/// Filtering Rule 3.1 asks of `v ∈ C(u)` a neighbour in `C(u')` for each
/// `u'` of some `X ⊆ N(u)`. With the words that is one walk of `N(v)`
/// ([`Membership::covers`]) rather than one merge of `N(v)` against a
/// candidate list per `u'`: a single load routes a data neighbour to
/// every query vertex it is a candidate of. GraphQL's semi-perfect
/// matching reads the same words ([`Membership::words`]) to route each
/// data neighbour to the rows of the query neighbours it can match.
///
/// The words mirror the filter's sets only if every candidate leaves both
/// together, which [`Membership::retain`] does.
pub struct Membership<'g> {
    graph: &'g Graph,
    words: Vec<u64>,
}

const _: () = assert!(MAX_QUERY_VERTICES <= u64::BITS as usize);

impl<'g> Membership<'g> {
    /// The words of `sets` (`sets[u] = C(u)`) over the data graph `g`.
    pub fn new(g: &'g Graph, sets: &[Vec<VertexId>]) -> Self {
        let mut words = vec![0u64; g.num_vertices()];
        for (u, set) in sets.iter().enumerate() {
            for &v in set {
                words[v as usize] |= 1 << u;
            }
        }
        Membership { graph: g, words }
    }

    /// Filtering Rule 3.1 for every query vertex of `mask` at once:
    /// whether `N(v)` meets `C(u')` for each bit `u'` of `mask`. The walk
    /// of `N(v)` stops once every bit has been seen.
    #[inline]
    pub fn covers(&self, v: VertexId, mask: u64) -> bool {
        let mut missing = mask;
        for &w in self.graph.neighbors(v) {
            if missing == 0 {
                return true;
            }
            missing &= !self.words[w as usize];
        }
        missing == 0
    }

    /// Drop `v` from `C(u)`.
    #[inline]
    pub fn remove(&mut self, u: VertexId, v: VertexId) {
        self.words[v as usize] &= !(1 << u);
    }

    /// The words, indexed by data vertex.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Keep the candidates `v` of `set = C(u)` for which `keep(self, v)`
    /// holds, and [`remove`](Membership::remove) the others. `keep` reads
    /// the words as they stand, drops earlier in this pass included.
    #[inline]
    pub fn retain(
        &mut self,
        u: VertexId,
        set: &mut Vec<VertexId>,
        mut keep: impl FnMut(&Self, VertexId) -> bool,
    ) {
        set.retain(|&v| {
            let ok = keep(self, v);
            if !ok {
                self.remove(u, v);
            }
            ok
        });
    }
}

/// The word with the bits of the query vertices `us` set.
pub fn vertex_mask(us: impl IntoIterator<Item = VertexId>) -> u64 {
    us.into_iter().fold(0, |m, u| m | 1 << u)
}

/// Generation Rule 3.1 from `u`'s BFS-tree parent (CFL and CECI): the
/// neighbours of `C(parent) = parent_set` that pass LDF, NLF and Rule 3.1
/// against the query vertices of `mask`, ascending. They enter `C(u)` in
/// `m`, whose `u` bits must be clear on entry: a set bit marks a vertex
/// already collected.
pub fn generate(
    q: &QueryContext<'_>,
    g: &DataContext<'_>,
    m: &mut Membership<'_>,
    parent_set: &[VertexId],
    u: VertexId,
    mask: u64,
) -> Vec<VertexId> {
    let (du, lu, bit) = (q.graph.degree(u), q.graph.label(u), 1u64 << u);
    let mut set = Vec::new();
    for &vp in parent_set {
        for &v in g.graph.neighbors(vp) {
            if g.graph.label(v) == lu && g.graph.degree(v) >= du {
                let word = &mut m.words[v as usize];
                if *word & bit == 0 {
                    *word |= bit;
                    set.push(v);
                }
            }
        }
    }
    set.sort_unstable();
    let gate = NlfGate::new(q, g, u);
    m.retain(u, &mut set, |m, v| {
        nlf_pass(g, &gate, v) && m.covers(v, mask)
    });
    set
}

/// CECI's and DP-iso's root rule: `argmin |C(u)| / d(u)`, ties to the
/// smaller id, where `size(u) = |C(u)|` over the filter's seed sets.
pub fn sparsest_root(q: &QueryContext<'_>, size: impl Fn(VertexId) -> usize) -> VertexId {
    q.graph
        .vertices()
        .map(|u| (size(u) as f64 / q.graph.degree(u).max(1) as f64, u))
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        .map(|(_, u)| u)
        .expect("non-empty query")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataContext, QueryContext};
    use sm_graph::builder::graph_from_edges;
    use sm_graph::gen::query::{generate_query_set, Density, QuerySetSpec};
    use sm_graph::gen::rmat::{rmat_graph, RmatParams};
    use sm_graph::{Graph, GraphBuilder};

    #[test]
    fn ldf_set_respects_label_and_degree() {
        // query u: label 0, degree 2; data: v0 lbl0 d1, v1 lbl0 d2, v2 lbl1 d2
        let q = graph_from_edges(&[0, 1, 1], &[(0, 1), (0, 2)]);
        let g = graph_from_edges(&[0, 0, 1, 1, 1], &[(0, 2), (1, 2), (1, 3), (2, 4)]);
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        assert_eq!(ldf_set(&qc, &gc, 0), vec![1]);
    }

    #[test]
    fn nlf_tightens_ldf() {
        // query u0 (label 0) needs two label-1 neighbors
        let q = graph_from_edges(&[0, 1, 1], &[(0, 1), (0, 2)]);
        // v0: two label-1 nbrs; v1: one label-1 + one label-2 nbr
        let g = graph_from_edges(&[0, 0, 1, 1, 1, 2], &[(0, 2), (0, 3), (1, 4), (1, 5)]);
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        assert_eq!(ldf_set(&qc, &gc, 0), vec![0, 1]);
        assert_eq!(ldf_nlf_set(&qc, &gc, 0), vec![0]);
    }

    #[test]
    fn grouped_sets_equal_per_vertex_sets() {
        // u1 and u2 share label 1 but differ in degree and NLF entry.
        let q = graph_from_edges(&[0, 1, 1, 2], &[(0, 1), (0, 2), (2, 3)]);
        let g = graph_from_edges(
            &[0, 1, 1, 2, 0, 1],
            &[(0, 1), (0, 2), (2, 3), (4, 5), (4, 1), (5, 3)],
        );
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let want: Vec<_> = q.vertices().map(|u| ldf_nlf_set(&qc, &gc, u)).collect();
        assert_eq!(ldf_nlf_sets(&qc, &gc), want);
        assert!(
            want[1] != want[2],
            "the group must not be trivially uniform"
        );
    }

    /// Assert every signature-gated entry point equals the reference on
    /// `(q, g)`; returns whether some query vertex's word decided alone
    /// and whether some needed the merge.
    fn assert_gate_matches_reference(q: &Graph, g: &Graph) -> (bool, bool) {
        let (qc, gc) = (QueryContext::new(q), DataContext::new(g));
        let want = crate::filter::reference::nlf(&qc, &gc);
        assert_eq!(ldf_nlf_sets(&qc, &gc), want);
        let (mut exact, mut inexact) = (false, false);
        for u in q.vertices() {
            assert_eq!(ldf_nlf_set(&qc, &gc, u), want[u as usize], "u{u}");
            assert_eq!(ldf_nlf_count(&qc, &gc, u), want[u as usize].len());
            let gate = NlfGate::new(&qc, &gc, u);
            exact |= gate.exact;
            inexact |= !gate.exact;
            for &v in g.vertices_with_label(q.label(u)) {
                let dominated = NlfIndex::dominates(gc.nlf.entry(v), qc.nlf.entry(u));
                assert_eq!(nlf_pass(&gc, &gate, v), dominated, "u{u} v{v}");
            }
        }
        (exact, inexact)
    }

    /// `g` with label `l` renamed `21 l + l mod 3`: sparse ids up to
    /// ~400, most of them aliasing another label's signature bits.
    fn sparse_ids(g: &Graph) -> Graph {
        let mut b = GraphBuilder::new();
        for v in g.vertices() {
            let l = g.label(v);
            b.add_vertex(21 * l + l % 3);
        }
        for (u, v) in g.edges() {
            b.add_edge(u, v);
        }
        b.build()
    }

    #[test]
    fn gated_sets_equal_the_reference_on_rmat() {
        let (mut exact, mut inexact) = (false, false);
        let mut graphs: Vec<Graph> = [5, 20, 40, 307]
            .iter()
            .enumerate()
            .map(|(i, &labels)| rmat_graph(600, 8.0, labels, RmatParams::PAPER, 70 + i as u64))
            .collect();
        graphs.push(sparse_ids(&graphs[1]));
        for (gi, g) in graphs.iter().enumerate() {
            let mut queries = Vec::new();
            for (size, density) in [
                (4, Density::Any),
                (8, Density::Dense),
                (12, Density::Sparse),
            ] {
                let spec = QuerySetSpec {
                    num_vertices: size,
                    density,
                    count: 4,
                };
                queries.extend(generate_query_set(g, spec, 90 + gi as u64));
            }
            // A hub with a dozen of its neighbours: query rows whose
            // counts exceed 3 on few labels.
            let hub = g.vertices().max_by_key(|&v| g.degree(v)).unwrap();
            assert!(g.degree(hub) > 12, "RMAT has hubs");
            let mut star = vec![hub];
            star.extend_from_slice(&g.neighbors(hub)[..12]);
            queries.push(g.induced_subgraph(&star).0);
            for q in &queries {
                let (e, i) = assert_gate_matches_reference(q, g);
                exact |= e;
                inexact |= i;
            }
        }
        assert!(exact && inexact, "both gate paths exercised");
    }

    #[test]
    fn aliased_label_ids_are_confirmed_by_the_merge() {
        // Data labels {5, 0, 21}: three distinct labels, but id 21 shares
        // label 0's signature bits. v2's only neighbour is labelled 21.
        let g = graph_from_edges(&[5, 0, 5, 21], &[(0, 1), (2, 3)]);
        let q = graph_from_edges(&[5, 0], &[(0, 1)]);
        let (qc, gc) = (QueryContext::new(&q), DataContext::new(&g));
        assert_eq!(ldf_nlf_set(&qc, &gc, 0), vec![0]);
        assert_eq!(ldf_nlf_sets(&qc, &gc)[0], vec![0]);
        assert!(!nlf_pass(&gc, &NlfGate::new(&qc, &gc, 0), 2));
        assert_gate_matches_reference(&q, &g);
    }

    #[test]
    fn saturated_counts_are_confirmed_by_the_merge() {
        // u0 needs four label-1 neighbours; v0 has three (and a label-2
        // one, so it passes on degree), v4 has four. All three words
        // saturate label 1 at three bits.
        let g = graph_from_edges(
            &[0, 1, 1, 1, 0, 1, 1, 1, 1, 2],
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 9),
                (4, 5),
                (4, 6),
                (4, 7),
                (4, 8),
            ],
        );
        let q = graph_from_edges(&[0, 1, 1, 1, 1], &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let (qc, gc) = (QueryContext::new(&q), DataContext::new(&g));
        assert_eq!(ldf_nlf_set(&qc, &gc, 0), vec![4]);
        assert!(!nlf_pass(&gc, &NlfGate::new(&qc, &gc, 0), 0));
        assert_gate_matches_reference(&q, &g);
    }

    #[test]
    fn rule31_pruning() {
        let g = graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (2, 3)]);
        let mut sets = vec![vec![0, 1, 2, 3], vec![1]];
        let mut m = Membership::new(&g, &sets);
        m.retain(0, &mut sets[0], |m, v| m.covers(v, 1 << 1));
        // only v0 has a neighbor in C(u1) = {1}; the others left u0's bit
        assert_eq!(sets[0], &[0]);
        assert_eq!(m.words(), &[1, 2, 0, 0]);
        // an empty mask is a no-op
        m.retain(1, &mut sets[1], |m, v| m.covers(v, 0));
        assert_eq!(sets[1], &[1]);
    }

    #[test]
    fn covers_every_bit_of_a_full_word() {
        // v0's neighbours v1..=v64 are candidates of u0..=u63, one each.
        let edges: Vec<_> = (1..=64).map(|v| (0, v)).collect();
        let g = graph_from_edges(&[0; 65], &edges);
        let sets: Vec<Vec<VertexId>> = (1..=64).map(|v| vec![v]).collect();
        let mut m = Membership::new(&g, &sets);
        assert!(m.covers(0, u64::MAX));
        assert!(!m.covers(1, 1 << 63), "v1 sees only v0");
        m.remove(63, 64);
        assert!(!m.covers(0, u64::MAX));
        assert!(m.covers(0, u64::MAX >> 1));
    }
}
