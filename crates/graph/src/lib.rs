//! Graph substrate for the in-memory subgraph matching study.
//!
//! This crate provides the data structures and workload generators that the
//! matching framework ([`sm-match`]) is built on:
//!
//! * [`Graph`] — an undirected, vertex-labeled graph stored in compressed
//!   sparse row (CSR) form with sorted adjacency lists, exactly the layout
//!   the paper assumes for its cost analysis (edge tests are binary
//!   searches over sorted neighbor arrays).
//! * [`GraphBuilder`] — incremental construction from edge lists with
//!   deduplication and self-loop removal.
//! * [`LabelIndex`] / [`NlfIndex`] — per-label vertex lists and per-vertex
//!   neighbor-label-frequency tables used by the LDF and NLF filters.
//! * [`io`] — reader/writer for the `.graph` text format used by the
//!   paper's public dataset release (`t N M` / `v id label degree` /
//!   `e u v`).
//! * [`gen`] — RMAT and Erdős–Rényi generators plus the random-walk query
//!   extractor used to build the paper's dense/sparse query sets.
//! * [`traversal`] — BFS trees and traversal orders shared by the CFL,
//!   CECI and DP-iso filters.
//! * [`core_decomposition`] — the 2-core (degeneracy) computation used by
//!   CFL's ordering.
//! * [`canon`] — canonical labelings and permutation-invariant
//!   fingerprints of query graphs, the keying scheme of the service
//!   layer's plan cache.
//!
//! # Example
//!
//! ```
//! use sm_graph::{Graph, GraphBuilder};
//!
//! let mut b = GraphBuilder::new();
//! b.add_vertex(0); // label 0
//! b.add_vertex(1);
//! b.add_vertex(0);
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! let g: Graph = b.build();
//! assert_eq!(g.num_vertices(), 3);
//! assert_eq!(g.num_edges(), 2);
//! assert!(g.has_edge(0, 1));
//! assert!(!g.has_edge(0, 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod canon;
pub mod core_decomposition;
pub mod gen;
pub mod graph;
pub mod io;
pub mod io_edgelist;
pub mod label_index;
pub mod nlf;
pub mod stats;
pub mod traversal;
pub mod types;

pub use builder::GraphBuilder;
pub use graph::Graph;
pub use label_index::LabelIndex;
pub use nlf::NlfIndex;
pub use stats::GraphStats;
pub use types::{Label, VertexId};
