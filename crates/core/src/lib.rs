//! The common subgraph-matching framework of *"In-Memory Subgraph
//! Matching: An In-depth Study"* (Sun & Luo, SIGMOD 2020).
//!
//! The paper factors every backtracking subgraph-matching algorithm into
//! four pluggable pieces (its Algorithm 1):
//!
//! 1. a **filtering method** that computes a complete candidate set
//!    `C(u)` for every query vertex — [`filter`];
//! 2. an **ordering method** that picks the matching order `φ` —
//!    [`order`];
//! 3. an **enumeration method** that backtracks over partial embeddings,
//!    differing in how local candidates `LC(u, M)` are computed —
//!    [`enumerate`];
//! 4. **optimizations**, chiefly DP-iso's failing-set pruning —
//!    [`enumerate::failing_sets`].
//!
//! [`Pipeline`] wires a choice of each into a runnable matcher: it
//! compiles the choices into a [`QueryPlan`] (built once per run) which an
//! [`Executor`] then runs — sequentially or shared immutably across
//! parallel workers, each with a reusable per-worker scratch arena.
//! [`Algorithm`] provides the paper's eight named configurations (both the
//! *original* compositions and the *optimized* variants of Section 5.2).
//!
//! # Quickstart
//!
//! ```
//! use sm_graph::builder::graph_from_edges;
//! use sm_match::{Algorithm, DataContext, MatchConfig};
//!
//! // Figure 1 of the paper: triangle query with a tail, small data graph.
//! let q = graph_from_edges(&[0, 1, 2, 3], &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
//! let g = graph_from_edges(
//!     &[0, 2, 1, 2, 1, 2, 1, 0, 0, 0, 3, 3, 3],
//!     &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2),
//!       (4, 5), (5, 6), (1, 9), (2, 7), (3, 10), (4, 10), (4, 12), (5, 12),
//!       (5, 11), (6, 8), (10, 11), (11, 12)],
//! );
//! let ctx = DataContext::new(&g);
//! let out = Algorithm::GraphQl.optimized().run(&q, &ctx, &MatchConfig::default());
//! assert_eq!(out.matches, 1); // {(u0,v0),(u1,v4),(u2,v5),(u3,v12)}
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod candidate_space;
pub mod candidates;
pub mod context;
pub mod enumerate;
pub mod exec;
pub mod filter;
pub mod fixtures;
pub mod order;
pub mod pipeline;
pub mod plan;
pub mod reference;
pub mod spectrum;
pub mod ullmann;
pub mod util;
pub mod vf2;

pub use algorithm::{recommended, Algorithm};
pub use candidate_space::CandidateSpace;
pub use candidates::Candidates;
pub use context::{anchor, DataContext, QueryContext};
pub use enumerate::control::BailoutMonitor;
pub use enumerate::scratch::Scratch;
pub use enumerate::{
    EnumStats, Injectivity, LcMethod, MatchConfig, MatchSemantics, Outcome, OutputMode,
    PlanSelection, Termination, DEFAULT_MATCH_CAP,
};
pub use exec::Executor;
pub use filter::patch::ChangeSet;
pub use filter::FilterKind;
pub use order::OrderKind;
pub use pipeline::{MatchOutput, Pipeline};
pub use plan::QueryPlan;
