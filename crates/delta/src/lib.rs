//! Versioned dynamic graphs and delta-driven incremental matching.
//!
//! Everything below PR 4 assumes a *static* data graph: the only way to
//! change the graph a [`sm_match::Pipeline`] or `sm_service::Service`
//! runs against is to replace it wholesale, recompiling every plan and
//! recomputing every result from scratch. This crate adds the dynamic
//! layer:
//!
//! * [`VersionedGraph`] — an immutable CSR base plus per-epoch delta
//!   overlays (edge/vertex inserts and deletes). Committing an
//!   [`UpdateBatch`] produces a new epoch; cheap [`Snapshot`] handles pin
//!   an epoch so in-flight readers keep a consistent view while updaters
//!   commit. When the live overlay grows past a threshold it is folded
//!   ("compacted") into a fresh CSR base.
//!   A snapshot answers the same neighbor/label/degree/NLF reads as a
//!   [`sm_graph::Graph`], which is all the incremental engine needs.
//! * **Incremental index maintenance** — a snapshot's label index and
//!   neighbor-label-frequency table are patched per delta (copy-on-write
//!   per touched vertex), never rebuilt from scratch. One splice kernel
//!   turns a view back into CSR form by copying the untouched rows:
//!   [`Snapshot::materialize`] from the base, and
//!   [`Committed::splice_post`] from the previous epoch's arrays, so an
//!   install costs O(batch) beyond the copy however old the overlay is.
//! * [`StandingQuery`] / [`delta_matches`] — delta-driven incremental
//!   enumeration: for a committed batch, the engine is seeded from each
//!   new edge mapped onto each compatible query edge and enumerates only
//!   the embeddings that use it (and symmetrically retracts embeddings
//!   using deleted edges), instead of re-running the full search. The
//!   compiled [`sm_match::QueryPlan`] is reused across batches and the
//!   per-batch work is distributed over the runtime's one morsel
//!   scheduler.
//!
//! # Semantics
//!
//! For a batch `Δ` turning graph `G` into `G'`, the incremental engine
//! returns exactly
//!
//! * `added`   = embeddings of `G'` that use at least one inserted edge,
//! * `removed` = embeddings of `G` that use at least one deleted edge,
//!
//! so `matches(G') = matches(G) − removed + added` as *sets* — the same
//! result a from-scratch run on `G'` produces (asserted by this crate's
//! tests on seeded RMAT and `.graph` workloads, single- and
//! multi-threaded). Each embedding is counted once: it is attributed to
//! the smallest-index delta edge it uses.
//!
//! Deleting a vertex removes its incident edges and excludes it from the
//! delta label index; the id itself is never reused (a tombstone), so
//! vertex ids stay stable across epochs. Incremental enumeration targets
//! connected queries with at least one edge — the standing-query layer
//! falls back to full recomputation for edgeless queries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod incremental;
pub mod stream;
pub mod versioned;

pub use batch::UpdateBatch;
pub use incremental::{delta_matches, DeltaMatches, StandingQuery};
pub use stream::{UpdateStream, UpdateStreamSpec};
pub use versioned::{CommitInfo, Committed, Snapshot, VersionedGraph};
