//! # sm-service — concurrent query-service layer
//!
//! Turns the compile-once/execute-many matching framework (`sm-match`)
//! plus the work-scheduling runtime (`sm-runtime`) into a long-lived,
//! multi-client **query service** over one in-memory data graph:
//!
//! - **Plan caching** — queries are canonicalized
//!   ([`sm_graph::canon`]) so isomorphic submissions (any vertex-id
//!   permutation) share one compiled [`sm_match::QueryPlan`] in a
//!   sharded LRU cache, verified by full canonical code (never by hash
//!   alone). Cache keys carry the data-graph **epoch**: swapping the
//!   graph invalidates every cached plan atomically.
//! - **Admission control & budgets** — a bounded submission system
//!   (`max_active` running + a bounded pending queue, beyond which
//!   submissions are `Rejected`), per-query deadlines and embedding
//!   caps carried by a [`sm_runtime::CancelToken`]-based
//!   `SharedControl`, applied at execution time so cached plans stay
//!   budget-free.
//! - **Fair multi-query scheduling** — each query's root candidates are
//!   split into morsels and dealt round-robin by
//!   [`sm_runtime::FairScheduler`] across a shared worker pool: a huge
//!   query cannot starve a small one.
//! - **Streaming results** — a pull-based [`ResultStream`] with a
//!   bounded buffer (backpressure blocks producers, never grows memory)
//!   that embeddings cross in flat [`EmbeddingBlock`]s, delivered in the
//!   *client's* vertex ids (cache-hit remapping) and ending in exactly
//!   one of five terminal outcomes:
//!   `Complete`, `CapHit`, `Deadline`, `Cancelled`, `Rejected` — with
//!   partial counts attached.
//! - **In-place updates** — [`Service::apply_update`] commits an
//!   [`sm_delta::UpdateBatch`] against a versioned twin of the data
//!   graph, installs the materialized result without rebuilding the NLF
//!   index, invalidates only the cached plans whose labels the batch
//!   touched, and maintains registered **standing queries** by
//!   delta-driven incremental enumeration (see [`update`]).
//! - **Durability** — [`Service::new_durable`] / [`Service::open`] put
//!   an `sm-durable` write-ahead log and CSR snapshot store behind the
//!   update path: every effective batch is logged before it is
//!   installed, and restart is snapshot page-in plus WAL-tail replay
//!   (see [`durable`]).
//!
//! Zero external dependencies, like the rest of the workspace.

#![warn(missing_docs)]

pub mod cache;
pub mod durable;
pub mod metrics;
pub mod service;
pub mod stream;
pub mod update;

pub use cache::{CachedPlan, PlanCache, PlanKey};
pub use durable::{fold_journal, DurabilityOptions, FsyncPolicy, RecoveryReport};
pub use metrics::{MetricsConfig, MetricsReport, SlowQuery};
pub use service::{CountFilter, GraphData, QueryRequest, Service, ServiceConfig};
pub use stream::{
    result_channel, EmbeddingBlock, QueryReport, ResultSink, ResultStream, ServiceOutcome,
};
pub use update::{StandingError, StandingId, UpdateReport};

#[cfg(test)]
mod asserts {
    /// The service moves plans and runs across threads; these bounds are
    /// what make that legal.
    #[test]
    fn shared_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<sm_match::QueryPlan>();
        assert_send_sync::<crate::Service>();
        assert_send_sync::<crate::cache::PlanCache>();
    }
}
