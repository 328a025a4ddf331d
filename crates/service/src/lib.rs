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
//!   alone). Each entry records the data-graph **epoch** its plan is
//!   exact for: an in-place update's touched rows patch it forward on its
//!   next lookup, and swapping the graph clears the cache.
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
//!   partial counts attached. A request's semantics alone decides what
//!   the stream carries: the embeddings iff its output mode emits them.
//!   The same stream can be pulled from a
//!   [`PullSource`] on the client's thread instead: the sharded router
//!   merges its shards' streams that way.
//! - **In-place updates** — one [`UpdateState`] owns the head graph, its
//!   versioned twin (built on the first commit or pin), the registered
//!   **standing queries** and the journal behind one lock, for this
//!   tier and the sharded router alike (see [`update`]).
//!   [`Service::apply_update`] commits an [`sm_delta::UpdateBatch`]
//!   through it, installs the spliced post graph without rebuilding the
//!   NLF index, keeps every cached plan a patch can bring to the new
//!   epoch ([`sm_match::Pipeline::patch`]), and maintains the standing
//!   sets by delta-driven incremental enumeration.
//! - **Shards** — [`Service::new_shard`] serves one piece of a
//!   partitioned graph: the shard's owned mask is installed with the
//!   piece, in the same slot, and [`GraphData::context`] applies it to
//!   every compile; [`Service::swap_shard`] re-cuts both at once.
//! - **Durability** — [`Service::new_durable`] / [`Service::open`] put
//!   an `sm-durable` write-ahead log and CSR snapshot store behind the
//!   update state: every effective batch is logged before it is
//!   installed, and restart is snapshot page-in plus WAL-tail replay
//!   (see [`durable`]).
//!
//! Zero external dependencies, like the rest of the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod durable;
pub mod metrics;
pub mod service;
pub mod stream;
pub mod update;

pub use cache::{CachedPlan, PlanCache, PlanKey};
pub use durable::{DurabilityOptions, FsyncPolicy, RecoveryReport};
pub use metrics::{MetricsConfig, MetricsReport, SlowQuery};
pub use service::{GraphData, QueryRequest, Resolved, Service, ServiceConfig};
pub use stream::{EmbeddingBlock, PullSource, QueryReport, ResultStream, ServiceOutcome};
pub use update::{StandingError, StandingId, UpdateReport, UpdateState};

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
