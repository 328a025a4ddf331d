//! Failing-set pruning (Han et al., SIGMOD 2019), Section 3.4 of the study.
//!
//! Every node of the search tree returns a *failing set*: a set of query
//! vertices such that, as long as their mappings are unchanged, re-chosing
//! the mapping of any vertex outside the set cannot produce a match. The
//! engines represent it as a `u64` bitset over query vertices (hence the
//! `|V(q)| ≤ 64` framework limit).
//!
//! Construction rules, mirroring the paper's Example 3.5:
//!
//! * **Match found** in the subtree → [`FULL`] (no pruning possible).
//! * **Conflict**: candidate `v` of `u` already maps `u'` →
//!   `{u, u'}` ([`conflict_class`]).
//! * **Empty LC**: `{u} ∪ N^φ_+(u)` — the vertices whose mappings
//!   constrained the empty local candidate set ([`emptyset_class`]).
//! * **Internal node**: if some child's failing set omits the current
//!   vertex `u`, the failure is independent of how `u` was mapped — the
//!   node adopts that child's set *and the engine skips the remaining
//!   siblings* (the pruning step); otherwise the union of children.
//!
//! The recursion that applies these rules lives in
//! [`crate::enumerate::engine`], once, as a compile-time switch on the
//! candidate loop; this module holds the bitset vocabulary.
//!
//! **Interaction caveat**: the emptyset class assumes `LC(u, M)` depends
//! only on the mappings of `u`'s backward neighbors. VF2++'s extra runtime
//! rule violates that (it consults the entire visited set), so the engines
//! reject `failing_sets && vf2pp_rule` — the paper's w/fs experiments run
//! on the optimized engines with the extra rules removed (Section 5.2).

use sm_graph::VertexId;

/// "Cannot prune": a match was found or the information was lost.
pub const FULL: u64 = u64::MAX;

/// Bit for query vertex `u`.
#[inline]
pub fn bit(u: VertexId) -> u64 {
    1u64 << u
}

/// Failing set of an injectivity conflict between `u` and `owner`.
#[inline]
pub fn conflict_class(u: VertexId, owner: VertexId) -> u64 {
    bit(u) | bit(owner)
}

/// Failing set of an empty local candidate set: `u` plus the vertices
/// whose mappings constrained `LC(u, M)`.
#[inline]
pub fn emptyset_class(u: VertexId, constrainers: &[VertexId]) -> u64 {
    constrainers.iter().fold(bit(u), |fs, &u2| fs | bit(u2))
}

/// Whether a child failing set licenses sibling pruning at vertex `u`.
#[inline]
pub fn prunes_siblings(child_fs: u64, u: VertexId) -> bool {
    child_fs != FULL && child_fs & bit(u) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes() {
        assert_eq!(conflict_class(0, 3), 0b1001);
        assert_eq!(emptyset_class(2, &[0, 1]), 0b111);
        assert_eq!(emptyset_class(5, &[]), 1 << 5);
    }

    #[test]
    fn pruning_condition() {
        // failure not involving u=2 → prune
        assert!(prunes_siblings(0b0011, 2));
        // failure involving u=1 → no prune
        assert!(!prunes_siblings(0b0011, 1));
        // match found → never prune
        assert!(!prunes_siblings(FULL, 2));
    }
}
