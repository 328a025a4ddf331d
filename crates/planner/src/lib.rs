//! Self-tuning cost-model planner (`Auto` plan selection).
//!
//! The study's central result is that no single filter × order × kernel
//! composition dominates: the best pipeline depends on the query's shape,
//! its label selectivities, and the data graph. This crate closes that
//! loop. Instead of a caller hard-coding a [`sm_match::Pipeline`], the
//! [`Planner`] scores the whole combination space against the data graph's
//! statistics and picks a plan per *canonical query form*:
//!
//! 1. **Cardinality estimation** ([`estimate`]) — exact LDF candidate
//!    counts per query vertex plus label-pair edge selectivities drive a
//!    prefix-product walk down each concrete matching order, predicting
//!    partial-embedding counts, intersection work, and backtracks.
//! 2. **Cost model** ([`model`]) — per-filter prune factors and pass
//!    costs, per-kernel element costs, and a per-node enumeration cost
//!    turn the walk into nanoseconds; [`Planner::rank`] scores every
//!    combo and sorts.
//! 3. **Cross-run feedback** ([`feedback`]) — observed run counters
//!    (enumeration time, backtracks, per-kernel intersections) are folded
//!    back into a per-canonical-form [`FeedbackStore`], so repeated
//!    queries converge on measured rather than modeled costs. The store
//!    serializes to bytes for durable snapshots and merges across shards.
//! 4. **Jump-redo replanning** ([`Planner::run_ranked`]) — every
//!    non-final attempt runs under a [`sm_match::BailoutMonitor`] whose
//!    backtrack budget is a margin over the *best remaining* prediction;
//!    a mispredicted plan cancels itself mid-enumeration and the planner
//!    redoes the query under the next-ranked combo.
//!
//! The crate is deliberately free of external dependencies and sits above
//! `sm-match`: engines know nothing about plan selection, they only honor
//! the bailout monitor threaded through [`sm_match::MatchConfig`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combo;
pub mod estimate;
pub mod feedback;
pub mod model;
pub mod planner;

pub use combo::{ComboOrder, PlanCombo};
pub use estimate::QueryEstimate;
pub use feedback::{ComboFeedback, FeedbackStore, ObservedRun};
pub use model::{ModelParams, PlanScore};
pub use planner::{Attempt, AutoRun, Planner, PlannerConfig};

/// Canonical-form hash used to key feedback and plan-cache entries — the
/// same invariant hash the service layer computes, exposed here so
/// standalone callers key [`FeedbackStore`] consistently.
pub fn canon_hash(q: &sm_graph::Graph) -> u64 {
    sm_graph::canon::fingerprint(q)
}
