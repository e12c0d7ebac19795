//! Centrality-as-a-service: a long-running query server over versioned
//! centrality snapshots with incremental recompute on graph mutations.
//!
//! This crate turns the repository's batch pipeline ("load a graph, run
//! an algorithm, print scores") into a serving runtime:
//!
//! * [`server::Server`] loads a graph, computes a
//!   [`bc_core::CentralitySnapshot`] with a pluggable
//!   [`engine::RecomputeEngine`] (incremental Brandes or any full
//!   engine, including the distributed driver), and answers ranked
//!   top-K / per-node / percentile queries over the same framed
//!   transport ([`bc_congest::wire`]) the shard mesh uses.
//! * Snapshots are immutable and versioned; a mutation
//!   (`add-edge`/`remove-edge`) triggers a background recompute that
//!   publishes a *new* version through an epoch swap
//!   ([`bc_core::SnapshotStore`]), so reads never block and never
//!   observe torn state.
//! * The incremental engine prunes recompute work to the sources a
//!   mutation can affect (two BFS passes in the old graph), replays
//!   unaffected sources from a bounded cache of per-source dependency
//!   vectors ([`cache::SourceCache`]) and recomputes the rest on every
//!   core with [`bc_brandes::Workspace`] — while staying bit-identical to the
//!   offline `distbc centrality --algorithm brandes` output, because
//!   the final fold performs the same float additions in the same
//!   order.
//!
//! The `distbc serve` and `distbc query` CLI verbs are thin wrappers
//! over [`server`] and [`proto::QueryClient`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod proto;
pub mod server;

pub use cache::SourceCache;
pub use engine::{
    affected_sources, component_count, FullRunOutput, IncrementalEngine, Mutation, RecomputeEngine,
};
pub use proto::{
    decode_requests, decode_responses, encode_requests, encode_responses, ClientError, QueryClient,
    QueryRequest, QueryResponse,
};
pub use server::{ServeError, Server, ServerConfig, ServerStats};
