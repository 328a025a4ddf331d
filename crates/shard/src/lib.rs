//! # sm-shard — partitioned data graph + scatter-gather sharded serving
//!
//! Horizontal scale-out for the query service: the data graph is
//! partitioned across `k` shards, each backed by its own
//! [`sm_service::Service`] (worker pool, plan cache, admission control,
//! deadlines), and a [`ShardedService`] router presents the same
//! client contract as a single service.
//!
//! - **Partitioning** ([`partition`]) — hash or label-aware vertex
//!   ownership plus **k-hop halo replication**: each shard also holds
//!   every vertex within `halo_depth` hops of an owned one, sized to
//!   the maximum supported query diameter, so any embedding is fully
//!   contained in the shard owning the image of the query's anchor
//!   vertex ([`sm_match::anchor`]).
//! - **Scatter-gather queries** ([`router`]) — a submission fans out to
//!   all shards, and each shard matches only the embeddings whose anchor
//!   image it owns: **exactly-once by construction**, a unary
//!   restriction of the anchor's candidates that every plan honours.
//!   The owned mask is part of the shard's installed graph: a shard's
//!   service is built, and re-cut, with graph and mask in one call
//!   ([`sm_service::Service::new_shard`],
//!   [`sm_service::Service::swap_shard`]).
//!   The client's stream pulls the replies on the client's own thread
//!   (no thread per query): it concatenates them, sums the counts and
//!   cuts at the global cap; outcomes, deadlines, cancellation and
//!   backpressure behave as on a single service.
//! - **Epoch-consistent updates** — the global graph, its versioned
//!   twin, the standing queries and the journal are one
//!   [`sm_service::UpdateState`], the type a single service holds. An
//!   update is its commit, after which every shard the batch touches is
//!   re-cut from the post graph by the same code that partitions it at
//!   start, all under a write lock, so a concurrent query never observes
//!   a torn (mixed-epoch) scatter.
//! - **Standing queries** — held once, in that state, on the global
//!   graph, under the [`sm_service::StandingId`] a single service hands
//!   out too: their sets and `incremental_*` counts equal one service's,
//!   and no shard holds any.
//! - **Durability** — [`ShardedService::new_durable`] /
//!   [`ShardedService::open`] hang an `sm-durable` WAL + snapshot store
//!   off the state's single global commit point: one WAL record per
//!   cross-shard batch (per-shard state is derived and never
//!   persisted), and recovery replays into the state, then partitions
//!   the recovered global graph once, under whatever shard layout it is
//!   reopened with.
//!
//! Zero external dependencies, like the rest of the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod partition;
pub mod router;

pub use partition::{
    assign_owners, owned_lists, owned_mask, Partition, PartitionStrategy, ShardPiece,
};
pub use router::{
    ShardConfig, ShardDetail, ShardedMetricsReport, ShardedService, ShardedUpdateReport,
};

#[cfg(test)]
mod asserts {
    /// The router moves streams and maps across threads; these bounds
    /// make that legal.
    #[test]
    fn shared_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::ShardedService>();
    }
}
