//! Neighbor-label-frequency (NLF) index.

use crate::graph::Graph;
use crate::types::{Label, VertexId};

/// For every vertex `v`, the multiset of labels of `N(v)` as sorted
/// `(label, count)` pairs, stored in one CSR-like arena.
///
/// This is the structure behind the NLF filter of CFL/CECI/DP-iso: a data
/// vertex `v` can match query vertex `u` only if for every label `l` in
/// `L(N(u))`, `|N(u, l)| <= |N(v, l)|`. Because both sides are sorted by
/// label, the dominance check is a linear merge.
///
/// Each row also carries a one-word *signature* ([`NlfIndex::signature_of`]):
/// label `l` owns the three bits `3(l mod 21) .. 3(l mod 21) + 3`, and a
/// count `c` sets the low `min(c, 3)` of them. Row `u` can be dominated by
/// row `v` only if `sig(u) & !sig(v) == 0`, so most non-dominating rows are
/// rejected with one AND before the merge runs (the bit-encoded
/// neighbourhoods of l2Match and the Compact Neighborhood Index).
#[derive(Clone, Debug)]
pub struct NlfIndex {
    offsets: Vec<usize>,
    entries: Vec<(Label, u32)>,
    sigs: Vec<u64>,
}

/// Labels with three signature bits of their own; larger ids fold modulo
/// this and share bits, so for them the signature is only a necessary
/// condition.
const SIGNATURE_LABELS: Label = 21;

/// Counts above this saturate in the signature.
const SIGNATURE_COUNT_CAP: u32 = 3;

impl NlfIndex {
    /// Build the index for every vertex of `g`. `O(|E|)` amortized (labels
    /// of a sorted adjacency list are counted with a scratch map).
    pub fn build(g: &Graph) -> Self {
        let n = g.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut entries = Vec::new();
        let mut sigs = Vec::with_capacity(n);
        let mut scratch: Vec<(Label, u32)> = Vec::new();
        for v in 0..n as VertexId {
            scratch.clear();
            for &w in g.neighbors(v) {
                scratch.push((g.label(w), 1));
            }
            scratch.sort_unstable_by_key(|&(l, _)| l);
            // run-length encode
            let mut i = 0;
            while i < scratch.len() {
                let l = scratch[i].0;
                let mut c = 0u32;
                while i < scratch.len() && scratch[i].0 == l {
                    c += 1;
                    i += 1;
                }
                entries.push((l, c));
            }
            sigs.push(Self::signature_of(&entries[offsets[v as usize]..]));
            offsets.push(entries.len());
        }
        NlfIndex {
            offsets,
            entries,
            sigs,
        }
    }

    /// Assemble an index directly from per-vertex rows (each sorted by
    /// label). This is the constructor behind *incremental* index
    /// maintenance in `sm-delta`: untouched rows are copied verbatim from
    /// an existing index and only patched rows are recomputed, instead of
    /// re-scanning every adjacency list as [`NlfIndex::build`] does.
    pub fn from_rows<'a, I>(rows: I) -> Self
    where
        I: IntoIterator<Item = &'a [(Label, u32)]>,
    {
        let mut offsets = vec![0usize];
        let mut entries = Vec::new();
        let mut sigs = Vec::new();
        for row in rows {
            debug_assert!(
                row.windows(2).all(|w| w[0].0 < w[1].0),
                "rows sorted by label"
            );
            entries.extend_from_slice(row);
            offsets.push(entries.len());
            sigs.push(Self::signature_of(row));
        }
        NlfIndex {
            offsets,
            entries,
            sigs,
        }
    }

    /// Assemble directly from raw CSR arrays — `offsets` spanning
    /// `entries`, each row strictly label-sorted — without the per-row
    /// copy of [`NlfIndex::from_rows`]. This is the recovery-path
    /// constructor: an on-disk snapshot already stores the index in this
    /// exact shape (signatures are not stored; they are recomputed in
    /// the validation pass). Returns `None` if the shape is invalid.
    pub fn from_csr(offsets: Vec<usize>, entries: Vec<(Label, u32)>) -> Option<Self> {
        if offsets.first() != Some(&0) || offsets.last() != Some(&entries.len()) {
            return None;
        }
        let mut sigs = Vec::with_capacity(offsets.len() - 1);
        for w in offsets.windows(2) {
            if w[0] > w[1] {
                return None;
            }
            let row = &entries[w[0]..w[1]];
            if !row.windows(2).all(|p| p[0].0 < p[1].0) {
                return None;
            }
            sigs.push(Self::signature_of(row));
        }
        Some(NlfIndex {
            offsets,
            entries,
            sigs,
        })
    }

    /// [`NlfIndex::from_csr`] without the release-build validation pass
    /// and with the signatures supplied, for arrays assembled by code that
    /// upholds the invariants by construction (the overlay materializer,
    /// which copies untouched rows' signatures and computes the rest with
    /// [`NlfIndex::signature_of`]). Untrusted input must go through
    /// [`NlfIndex::from_csr`]. Debug builds still validate, signatures
    /// included.
    pub fn from_csr_unchecked(
        offsets: Vec<usize>,
        entries: Vec<(Label, u32)>,
        sigs: Vec<u64>,
    ) -> Self {
        #[cfg(debug_assertions)]
        {
            let checked = NlfIndex::from_csr(offsets, entries).expect("invalid NLF CSR");
            assert!(checked.sigs == sigs, "stale NLF signatures");
            checked
        }
        #[cfg(not(debug_assertions))]
        {
            NlfIndex {
                offsets,
                entries,
                sigs,
            }
        }
    }

    /// The one-word signature of a label-sorted `(label, count)` row: label
    /// `l` owns bits `3(l mod 21) .. 3(l mod 21) + 3` and a count `c` sets
    /// the low `min(c, 3)` of them. If row `v` dominates row `u`, then
    /// `signature_of(u) & !signature_of(v) == 0`.
    #[inline]
    pub fn signature_of(row: &[(Label, u32)]) -> u64 {
        row.iter().fold(0, |sig, &(l, c)| {
            let bits = (1u64 << c.min(SIGNATURE_COUNT_CAP)) - 1;
            sig | bits << (3 * (l % SIGNATURE_LABELS))
        })
    }

    /// Whether the signature test alone decides dominance of query row
    /// `row` by every row of a data graph whose label ids are all below
    /// `label_bound` (its label index's bucket count, *not* its number of
    /// distinct labels: ids `{0, 21}` are two labels that share bits). It
    /// does iff neither side folds a label — `label_bound <= 21` and every
    /// label of `row` is below 21 — and no count of `row` saturates.
    #[inline]
    pub fn signature_decides(row: &[(Label, u32)], label_bound: usize) -> bool {
        label_bound <= SIGNATURE_LABELS as usize
            && row
                .iter()
                .all(|&(l, c)| l < SIGNATURE_LABELS && c <= SIGNATURE_COUNT_CAP)
    }

    /// The raw CSR arrays: per-vertex offsets spanning the flat entry
    /// list. The counterpart of [`NlfIndex::from_csr`], used for bulk
    /// copies (snapshot encoding, overlay materialization).
    #[inline]
    pub fn csr(&self) -> (&[usize], &[(Label, u32)]) {
        (&self.offsets, &self.entries)
    }

    /// The signature of `v`'s row ([`NlfIndex::signature_of`]).
    #[inline]
    pub fn signature(&self, v: VertexId) -> u64 {
        self.sigs[v as usize]
    }

    /// Every row's signature, indexed by vertex — the counterpart of
    /// [`NlfIndex::csr`] for bulk copies.
    #[inline]
    pub fn signatures(&self) -> &[u64] {
        &self.sigs
    }

    /// Sorted `(label, count)` pairs for `v`'s neighborhood.
    #[inline]
    pub fn entry(&self, v: VertexId) -> &[(Label, u32)] {
        let v = v as usize;
        &self.entries[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Count of neighbors of `v` labeled `l`.
    #[inline]
    pub fn count(&self, v: VertexId, l: Label) -> u32 {
        let e = self.entry(v);
        match e.binary_search_by_key(&l, |&(ll, _)| ll) {
            Ok(i) => e[i].1,
            Err(_) => 0,
        }
    }

    /// NLF dominance test: does `v_entry` (data side) dominate `u_entry`
    /// (query side)? Both must be sorted by label.
    ///
    /// Returns true iff for every `(l, c)` in `u_entry` there is `(l, c')`
    /// in `v_entry` with `c' >= c`.
    pub fn dominates(v_entry: &[(Label, u32)], u_entry: &[(Label, u32)]) -> bool {
        let mut i = 0; // over v_entry
        for &(l, c) in u_entry {
            while i < v_entry.len() && v_entry[i].0 < l {
                i += 1;
            }
            if i >= v_entry.len() || v_entry[i].0 != l || v_entry[i].1 < c {
                return false;
            }
        }
        true
    }

    /// Convenience: does data vertex `v` (in this index) NLF-dominate query
    /// vertex `u` (in `q_nlf`)?
    #[inline]
    pub fn check(&self, v: VertexId, q_nlf: &NlfIndex, u: VertexId) -> bool {
        Self::dominates(self.entry(v), q_nlf.entry(u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use sm_runtime::check::Check;
    use sm_runtime::{ensure, ensure_eq, Rng64};

    #[test]
    fn entries_are_run_length_encoded() {
        // star: center 0 (label 9) with leaves labeled 1,1,2
        let g = graph_from_edges(&[9, 1, 1, 2], &[(0, 1), (0, 2), (0, 3)]);
        let nlf = g.build_nlf();
        assert_eq!(nlf.entry(0), &[(1, 2), (2, 1)]);
        assert_eq!(nlf.entry(1), &[(9, 1)]);
        assert_eq!(nlf.count(0, 1), 2);
        assert_eq!(nlf.count(0, 9), 0);
    }

    #[test]
    fn dominance() {
        assert!(NlfIndex::dominates(&[(1, 2), (2, 1)], &[(1, 1)]));
        assert!(NlfIndex::dominates(&[(1, 2), (2, 1)], &[(1, 2), (2, 1)]));
        assert!(!NlfIndex::dominates(&[(1, 2)], &[(1, 3)]));
        assert!(!NlfIndex::dominates(&[(1, 2)], &[(2, 1)]));
        assert!(NlfIndex::dominates(&[(1, 2)], &[]));
        assert!(!NlfIndex::dominates(&[], &[(0, 1)]));
    }

    #[test]
    fn cross_graph_check() {
        // query: edge A-B; data: path A-B-A
        let q = graph_from_edges(&[0, 1], &[(0, 1)]);
        let g = graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let qn = q.build_nlf();
        let gn = g.build_nlf();
        // data v0 (label A, nbr B) dominates query u0 (label A, nbr B)
        assert!(gn.check(0, &qn, 0));
        // data v1 has neighbors {A,A}; query u1 needs one A neighbor
        assert!(gn.check(1, &qn, 1));
        // data v0 does not dominate u1 (u1 needs an A-labeled neighbor)
        assert!(!gn.check(0, &qn, 1));
    }

    #[test]
    fn from_rows_round_trips() {
        let g = graph_from_edges(&[9, 1, 1, 2], &[(0, 1), (0, 2), (0, 3)]);
        let nlf = g.build_nlf();
        let rebuilt = NlfIndex::from_rows((0..4).map(|v| nlf.entry(v)));
        for v in 0..4 {
            assert_eq!(rebuilt.entry(v), nlf.entry(v));
            assert_eq!(rebuilt.signature(v), nlf.signature(v));
        }
        let (off, entries) = nlf.csr();
        let decoded = NlfIndex::from_csr(off.to_vec(), entries.to_vec()).unwrap();
        assert_eq!(decoded.signatures(), nlf.signatures());
    }

    #[test]
    fn signature_layout() {
        assert_eq!(NlfIndex::signature_of(&[]), 0);
        // Label 0: counts 1, 2, 3 and 7 set the low 1, 2, 3 and 3 bits.
        for (c, want) in [(1, 0b001), (2, 0b011), (3, 0b111), (7, 0b111)] {
            assert_eq!(NlfIndex::signature_of(&[(0, c)]), want);
        }
        assert_eq!(
            NlfIndex::signature_of(&[(1, 1), (20, 2)]),
            0b1000 | 0b11 << 60
        );
        // 21 and 42 fold onto label 0's bits.
        assert_eq!(
            NlfIndex::signature_of(&[(21, 1)]),
            NlfIndex::signature_of(&[(0, 1)])
        );
        assert_eq!(
            NlfIndex::signature_of(&[(0, 1), (42, 3)]),
            NlfIndex::signature_of(&[(0, 3)])
        );
        let g = graph_from_edges(&[9, 1, 1, 2], &[(0, 1), (0, 2), (0, 3)]);
        let nlf = g.build_nlf();
        for v in 0..4 {
            assert_eq!(nlf.signature(v), NlfIndex::signature_of(nlf.entry(v)));
        }
    }

    #[test]
    fn exactness_rule() {
        assert!(NlfIndex::signature_decides(&[(0, 3), (20, 1)], 21));
        assert!(NlfIndex::signature_decides(&[], 0));
        // A data graph with label id 21 folds, whatever its label count.
        assert!(!NlfIndex::signature_decides(&[(0, 1)], 22));
        // A query row with a folded label or a saturated count.
        assert!(!NlfIndex::signature_decides(&[(21, 1)], 5));
        assert!(!NlfIndex::signature_decides(&[(0, 4)], 5));
        // The cases the exactness rule excludes do fool the word.
        let admits = |u: &[(Label, u32)], v: &[(Label, u32)]| {
            NlfIndex::signature_of(u) & !NlfIndex::signature_of(v) == 0
        };
        assert!(admits(&[(0, 1)], &[(21, 1)]));
        assert!(admits(&[(21, 1)], &[(0, 1)]));
        assert!(admits(&[(0, 4)], &[(0, 3)]));
    }

    /// One label-sorted row: distinct labels drawn from `pool`, counts in
    /// `1..=10`.
    fn random_row(rng: &mut Rng64, pool: &[Label], len: usize) -> Vec<(Label, u32)> {
        let mut labels: Vec<Label> = (0..len).map(|_| *rng.choose(pool).unwrap()).collect();
        labels.sort_unstable();
        labels.dedup();
        labels
            .into_iter()
            .map(|l| (l, rng.gen_range(1..11u32)))
            .collect()
    }

    #[test]
    fn signature_is_necessary_and_exact_where_decided() {
        Check::new("signature_is_necessary_and_exact_where_decided")
            .cases(2000)
            .max_size(12)
            .run(
                |rng, size| {
                    // Small ids (exact territory), ids up to 400, or a pool
                    // of aliases `{b, b + 21, b + 42, ...}`.
                    let pool: Vec<Label> = match rng.gen_range(0..3u32) {
                        0 => (0..SIGNATURE_LABELS).collect(),
                        1 => (0..400).collect(),
                        _ => {
                            let b = rng.gen_range(0..SIGNATURE_LABELS);
                            (0..4).map(|k| b + k * SIGNATURE_LABELS).collect()
                        }
                    };
                    let v = random_row(rng, &pool, size as usize);
                    // Half the query rows are drawn from `v` with counts at
                    // most `v`'s, so dominance holds often.
                    let u = if rng.gen_bool(0.5) {
                        v.iter()
                            .filter_map(|&(l, c)| {
                                let c = rng.gen_range(1..c + 1);
                                rng.gen_bool(0.6).then_some((l, c))
                            })
                            .collect()
                    } else {
                        random_row(rng, &pool, size as usize)
                    };
                    // The data graph's label bound covers `v`'s labels.
                    let top = v.last().map_or(0, |&(l, _)| l as usize + 1);
                    let bound = top + rng.gen_range(0..3usize);
                    (u, v, bound)
                },
                |(u, v, bound)| {
                    let dominated = NlfIndex::dominates(v, u);
                    let admitted = NlfIndex::signature_of(u) & !NlfIndex::signature_of(v) == 0;
                    ensure!(admitted || !dominated, "the word rejected a dominating row");
                    if NlfIndex::signature_decides(u, *bound) {
                        ensure_eq!(admitted, dominated, "decided word differs, bound {bound}");
                    }
                    Ok(())
                },
            );
    }

    #[test]
    fn isolated_vertex_entry_is_empty() {
        let g = graph_from_edges(&[0, 0], &[]);
        let nlf = g.build_nlf();
        assert!(nlf.entry(0).is_empty());
        assert_eq!(nlf.count(0, 0), 0);
    }
}
