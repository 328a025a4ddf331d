//! # subgraph-matching
//!
//! A Rust reproduction of *"In-Memory Subgraph Matching: An In-depth
//! Study"* (Shixuan Sun and Qiong Luo, SIGMOD 2020): eight representative
//! subgraph matching algorithms — QuickSI, GraphQL, CFL, CECI, DP-iso,
//! RI, VF2++ and a Glasgow-style constraint-programming solver — inside
//! one common framework whose **filtering**, **ordering**, **enumeration**
//! and **optimization** components can be mixed and measured
//! independently.
//!
//! This crate is the umbrella: it re-exports the workspace members so
//! downstream users depend on one crate.
//!
//! | Component | Crate | Re-export |
//! |---|---|---|
//! | Graph substrate, loaders, generators | `sm-graph` | [`graph`] |
//! | Set-intersection kernels | `sm-intersect` | [`intersect`] |
//! | The matching framework | `sm-match` | [`matching`] |
//! | Self-tuning cost-model planner | `sm-planner` | [`planner`] |
//! | Glasgow CP solver | `sm-glasgow` | [`glasgow`] |
//! | Dataset stand-ins | `sm-datasets` | [`datasets`] |
//! | Concurrent query service | `sm-service` | [`service`] |
//! | Dynamic graphs & incremental matching | `sm-delta` | [`delta`] |
//! | Durability: WAL, snapshots, recovery | `sm-durable` | [`durable`] |
//!
//! # Quickstart
//!
//! ```
//! use subgraph_matching::prelude::*;
//!
//! // A labeled triangle query against a small data graph.
//! let q = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]);
//! let g = graph_from_edges(
//!     &[0, 1, 2, 1, 2],
//!     &[(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4), (1, 4)],
//! );
//! let ctx = DataContext::new(&g);
//! let out = Algorithm::DpIso.optimized().run(&q, &ctx, &MatchConfig::default());
//! // three labeled triangles: {v0,v1,v2}, {v0,v3,v4}, {v0,v1,v4}
//! assert_eq!(out.matches, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sm_datasets as datasets;
pub use sm_delta as delta;
pub use sm_durable as durable;
pub use sm_glasgow as glasgow;
pub use sm_graph as graph;
pub use sm_intersect as intersect;
pub use sm_match as matching;
pub use sm_planner as planner;
pub use sm_service as service;

/// The most commonly used items in one import.
pub mod prelude {
    pub use sm_graph::builder::graph_from_edges;
    pub use sm_graph::{Graph, GraphBuilder, GraphStats, Label, VertexId};
    pub use sm_match::enumerate::{CollectSink, CountSink, MatchSink};
    pub use sm_match::{
        recommended, Algorithm, DataContext, FilterKind, LcMethod, MatchConfig, MatchOutput,
        OrderKind, Outcome, Pipeline, QueryContext,
    };
    pub use sm_service::{QueryRequest, Service, ServiceConfig, ServiceOutcome};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_compiles_and_runs() {
        let q = graph_from_edges(&[0, 0], &[(0, 1)]);
        let g = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]);
        let ctx = DataContext::new(&g);
        let out = Algorithm::GraphQl
            .optimized()
            .run(&q, &ctx, &MatchConfig::default());
        assert_eq!(out.matches, 4); // 2 edges x 2 directions
    }
}
