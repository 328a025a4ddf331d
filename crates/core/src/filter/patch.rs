//! Bringing a filter's candidate sets across an update of the data graph.
//!
//! [`crate::Pipeline::patch`] compiles a plan for a later epoch of a data
//! graph from the sets an earlier plan computed and the [`ChangeSet`]
//! between the two epochs. The patched sets equal a fresh run of the
//! filter, set for set, so everything built from them after the filter
//! phase (order, `A`, the search) is what a fresh compile builds.
//!
//! **Local rules.** LDF, NLF, the label-only sets of homomorphism runs and
//! GraphQL's unrefined leaves decide `v ∈ C(u)` from `v`'s own row (label,
//! degree, NLF row). Only a touched row can flip a verdict, so the patch
//! re-decides the touched vertices and keeps every other verdict.
//!
//! **GraphQL's refinement sweep** ([`crate::filter::gql`], one round, query
//! vertices ascending) is replayed in the same order. The test of `v` for
//! `u` reads `v`'s local verdict, `N(v)`, and, for every `w ∈ N(v)`, the
//! bits of `u`'s query neighbours `u'` in `w`'s word: the refined verdict
//! `R(u', w)` when `u'` was swept before `u`, the local verdict `L(u', w)`
//! when `u'` is unrefined or not yet swept. So `v`'s verdict can differ
//! from the earlier epoch's only if
//!
//! 1. `v` is touched (its row, and so `N(v)`, may differ);
//! 2. `v` neighbours a touched `w` whose local verdict for an unrefined or
//!    not-yet-swept query neighbour of `u` flipped; or
//! 3. `v` neighbours a `w` whose refined verdict for a swept query
//!    neighbour of `u` changed earlier in this replay.
//!
//! An untouched `v` has the same neighbours in both epochs (an inserted or
//! deleted edge touches both endpoints), so `N(w)` on the new graph finds
//! every such `v`. Every other vertex keeps its verdict, because every
//! input of its test is unchanged. A re-test runs the fresh sweep's own
//! matching kernel (`semi_perfect_matching_exists` in [`crate::filter::gql`])
//! on words derived on demand from the sets built so far.
//!
//! A set that comes out empty makes the plan unsatisfiable, as it does in
//! the fresh sweep, which stops at the first empty set: up to that set
//! both sweeps decide alike.

use crate::candidates::Candidates;
use crate::context::{DataContext, QueryContext};
use crate::filter::common::{ldf_pass, nlf_pass, vertex_mask, NlfGate};
use crate::filter::gql::semi_perfect_matching_exists;
use crate::util::BipartiteMatcher;
use sm_graph::{Label, NlfIndex, VertexId};

/// Degree stored for a vertex that did not exist at the older epoch.
const ABSENT: u32 = u32::MAX;

/// The data vertices an update touched between two epochs of one graph,
/// each with its degree and NLF row as of the older epoch, or absent for a
/// vertex added since. A vertex's row is touched when it gains or loses an
/// edge, is deleted (a tombstone keeps its id and label, isolated), or is
/// added.
///
/// One commit's set comes from [`ChangeSet::new`]; the set across several
/// consecutive commits is their [`ChangeSet::merge`], oldest first, which
/// keeps each vertex's oldest row.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChangeSet {
    /// Touched vertices, ascending.
    vertices: Vec<VertexId>,
    /// Degree at the older epoch per touched vertex ([`ABSENT`] if none).
    degrees: Vec<u32>,
    /// `offsets[i]..offsets[i + 1]` delimits vertex `i`'s NLF row.
    offsets: Vec<u32>,
    entries: Vec<(Label, u32)>,
}

/// One touched vertex: its id and, unless it was added since, its degree
/// and NLF row at the older epoch.
pub type TouchedRow<'a> = (VertexId, Option<(usize, &'a [(Label, u32)])>);

impl ChangeSet {
    /// The set of `rows`; where a vertex appears more than once, its
    /// first row is kept.
    pub fn new<'a>(rows: impl IntoIterator<Item = TouchedRow<'a>>) -> Self {
        let mut rows: Vec<TouchedRow<'a>> = rows.into_iter().collect();
        // Stable: a vertex's first row stays ahead of its later ones.
        rows.sort_by_key(|r| r.0);
        rows.dedup_by_key(|r| r.0);
        let mut set = ChangeSet {
            vertices: Vec::with_capacity(rows.len()),
            degrees: Vec::with_capacity(rows.len()),
            offsets: Vec::with_capacity(rows.len() + 1),
            entries: Vec::new(),
        };
        set.offsets.push(0);
        for (v, prior) in rows {
            set.vertices.push(v);
            set.degrees.push(prior.map_or(ABSENT, |(d, _)| d as u32));
            set.entries
                .extend_from_slice(prior.map_or(&[][..], |(_, row)| row));
            set.offsets.push(set.entries.len() as u32);
        }
        set
    }

    /// The changes across consecutive commits given oldest first: every
    /// vertex any of them touched, with its row from the oldest.
    pub fn merge<'a>(older_first: impl IntoIterator<Item = &'a ChangeSet>) -> Self {
        ChangeSet::new(older_first.into_iter().flat_map(ChangeSet::rows))
    }

    /// The touched vertices, ascending.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Number of touched vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether nothing was touched.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// The rows, by ascending vertex.
    pub fn rows(&self) -> impl Iterator<Item = TouchedRow<'_>> + '_ {
        (0..self.len()).map(|i| (self.vertices[i], self.prior(i)))
    }

    /// Degree and NLF row of the `i`-th touched vertex at the older epoch.
    fn prior(&self, i: usize) -> Option<(usize, &[(Label, u32)])> {
        let row = &self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize];
        (self.degrees[i] != ABSENT).then(|| (self.degrees[i] as usize, row))
    }
}

/// The local test a patch replays: what decides `v ∈ C(u)` before any
/// refinement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Rule {
    /// Label only (homomorphism runs).
    Label,
    /// Label and degree.
    Ldf,
    /// Label, degree and NLF (the NLF filter, and GraphQL's local pruning).
    Nlf,
}

/// The local verdicts of one rule, on the new graph and at the older
/// epoch.
struct Local<'a, 'q> {
    rule: Rule,
    q: &'a QueryContext<'q>,
    g: &'a DataContext<'a>,
    gates: Vec<NlfGate<'a>>,
}

impl Local<'_, '_> {
    /// Whether `v` passes `u`'s local test on the new graph.
    #[inline]
    fn now(&self, u: VertexId, v: VertexId) -> bool {
        let (q, g) = (self.q, self.g);
        (v as usize) < g.graph.num_vertices()
            && match self.rule {
                Rule::Label => g.graph.label(v) == q.graph.label(u),
                Rule::Ldf => ldf_pass(q, g, u, v),
                Rule::Nlf => ldf_pass(q, g, u, v) && nlf_pass(g, &self.gates[u as usize], v),
            }
    }

    /// Whether touched vertex `v`, with row `prior` at the older epoch,
    /// passed `u`'s local test then.
    fn then(&self, u: VertexId, v: VertexId, prior: Option<(usize, &[(Label, u32)])>) -> bool {
        let q = self.q.graph;
        let Some((degree, row)) = prior else {
            return false;
        };
        self.g.graph.label(v) == q.label(u)
            && match self.rule {
                Rule::Label => true,
                Rule::Ldf => degree >= q.degree(u),
                Rule::Nlf => degree >= q.degree(u) && NlfIndex::dominates(row, self.q.nlf.entry(u)),
            }
    }
}

/// `prior` with the verdicts of `retested` (ascending, distinct) applied:
/// a vertex re-decided `true` is in, one re-decided `false` is out, every
/// other member of `prior` stays.
fn apply(prior: &[VertexId], retested: &[(VertexId, bool)]) -> Vec<VertexId> {
    let mut out = Vec::with_capacity(prior.len() + retested.len());
    let mut old = prior.iter().copied().peekable();
    for &(v, keep) in retested {
        while let Some(w) = old.next_if(|&w| w < v) {
            out.push(w);
        }
        old.next_if_eq(&v);
        if keep {
            out.push(v);
        }
    }
    out.extend(old);
    out
}

/// The sets `rule` computes on `g` — followed, for the query vertices of
/// the `refined` mask, by GraphQL's refinement sweep — from the sets
/// `prior` it computed at an earlier epoch of `g` and the `changes` since
/// (see the module doc).
pub(crate) fn patch_candidates(
    rule: Rule,
    refined: u64,
    q: &QueryContext<'_>,
    g: &DataContext<'_>,
    prior: &Candidates,
    changes: &ChangeSet,
) -> Candidates {
    debug_assert_eq!(prior.num_query_vertices(), q.num_vertices());
    let local = Local {
        rule,
        q,
        g,
        gates: q.graph.vertices().map(|u| NlfGate::new(q, g, u)).collect(),
    };
    let (qg, dg) = (q.graph, g.graph);
    let touched = changes.vertices();
    // The touched vertices of `u`'s label, re-decided by the local rule.
    let relocal = |u: VertexId| -> Vec<(VertexId, bool)> {
        touched
            .iter()
            .filter(|&&v| (v as usize) < dg.num_vertices() && dg.label(v) == qg.label(u))
            .map(|&v| (v, local.now(u, v)))
            .collect()
    };
    // Per query vertex: the touched vertices whose local verdict flipped.
    let flipped: Vec<Vec<VertexId>> = qg
        .vertices()
        .map(|u| {
            changes
                .rows()
                .filter(|&(v, row)| local.then(u, v, row) != local.now(u, v))
                .map(|(v, _)| v)
                .collect()
        })
        .collect();
    let mut sets: Vec<Vec<VertexId>> = vec![Vec::new(); qg.num_vertices()];
    // Per swept query vertex: the vertices whose refined verdict changed.
    let mut changed: Vec<Vec<VertexId>> = vec![Vec::new(); qg.num_vertices()];
    let mut swept = 0u64;
    let mut matcher = BipartiteMatcher::default();
    let mut retest: Vec<VertexId> = Vec::new();
    for u in qg.vertices() {
        if refined >> u & 1 == 0 {
            sets[u as usize] = apply(prior.get(u), &relocal(u));
            continue;
        }
        let qn_mask = vertex_mask(qg.neighbors(u).iter().copied());
        let lu = qg.label(u);
        retest.clear();
        retest.extend(
            touched
                .iter()
                .filter(|&&v| (v as usize) < dg.num_vertices() && dg.label(v) == lu),
        );
        for &u2 in qg.neighbors(u) {
            let sources = if swept >> u2 & 1 == 1 {
                &changed[u2 as usize]
            } else {
                &flipped[u2 as usize]
            };
            for &w in sources {
                retest.extend(dg.neighbors(w).iter().filter(|&&v| dg.label(v) == lu));
            }
        }
        retest.sort_unstable();
        retest.dedup();
        // `w`'s word as the fresh sweep reads it while testing `u`.
        let sets_now = &sets;
        let word = |w: VertexId| -> u64 {
            let mut bits = 0u64;
            for &u2 in qg.neighbors(u) {
                let member = if swept >> u2 & 1 == 1 {
                    sets_now[u2 as usize].binary_search(&w).is_ok()
                } else {
                    local.now(u2, w)
                };
                bits |= u64::from(member) << u2;
            }
            bits
        };
        let verdicts: Vec<(VertexId, bool)> = retest
            .iter()
            .map(|&v| {
                let keep = local.now(u, v)
                    && semi_perfect_matching_exists(dg.neighbors(v), word, qn_mask, &mut matcher);
                (v, keep)
            })
            .collect();
        let old = prior.get(u);
        changed[u as usize] = verdicts
            .iter()
            .filter(|&&(v, keep)| keep != old.binary_search(&v).is_ok())
            .map(|&(v, _)| v)
            .collect();
        sets[u as usize] = apply(old, &verdicts);
        swept |= 1 << u;
    }
    Candidates::new(sets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_keeps_each_vertex_oldest_row() {
        let older = ChangeSet::new([(4, Some((2, &[(1, 2)][..]))), (7, None)]);
        let newer = ChangeSet::new([(4, Some((3, &[(1, 3)][..]))), (2, Some((0, &[][..])))]);
        let merged = ChangeSet::merge([&older, &newer]);
        assert_eq!(merged.vertices(), &[2, 4, 7]);
        let rows: Vec<_> = merged.rows().collect();
        assert_eq!(rows[0], (2, Some((0, &[][..]))));
        assert_eq!(rows[1], (4, Some((2, &[(1, 2)][..]))));
        assert_eq!(rows[2], (7, None));
        assert!(ChangeSet::merge([]).is_empty());
    }

    #[test]
    fn apply_replaces_only_the_retested_verdicts() {
        let prior = [1, 3, 5, 9];
        let retested = [(0, true), (3, false), (4, false), (5, true), (10, true)];
        assert_eq!(apply(&prior, &retested), vec![0, 1, 5, 9, 10]);
        assert_eq!(apply(&prior, &[]), prior.to_vec());
    }
}
