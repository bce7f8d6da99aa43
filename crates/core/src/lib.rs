//! Durable top-k queries over instant-stamped temporal records.
//!
//! This crate is the primary contribution of *"Durable Top-K Instant-Stamped
//! Temporal Records with User-Specified Scoring Functions"* (ICDE 2021):
//! given a dataset `P` of records ordered by arrival time, a query-time
//! scoring function `f_u`, a rank threshold `k`, a durability `τ` and a
//! query interval `I`, the query `DurTop(k, I, τ)` returns every record
//! `p ∈ P(I)` whose score is beaten by fewer than `k` records within the
//! durability window anchored at `p.t`.
//!
//! Five algorithms are provided, exactly mirroring the paper:
//!
//! | Algorithm | Section | Strategy |
//! |---|---|---|
//! | [`t_base`](algorithms::t_base) | III-A | backward sliding window with incremental top-k maintenance |
//! | [`t_hop`](algorithms::t_hop) | III-B | time-prioritized with hops over provably non-durable stretches |
//! | [`s_base`](algorithms::s_base) | IV-A | full sort + blocking intervals (no oracle calls) |
//! | [`s_band`](algorithms::s_band) | IV-B | durable k-skyband candidates + blocking (monotone `f` only) |
//! | [`s_hop`](algorithms::s_hop) | IV-C | score-prioritized heap over τ-subinterval top-k sets |
//!
//! One engine type answers them: [`ShardedEngine`], built by
//! [`EngineConfig`]. Built with one shard over an existing dataset it is
//! the paper's single-index engine (see its example); with more it fans
//! queries out over time shards, and it keeps ingesting either way.
//! [`ServeEngine`] puts a request queue in front of it.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

pub mod algorithms;
pub mod alternatives;
pub mod config;
pub mod context;
pub mod duration;
pub mod engine;
pub mod error;
pub mod oracle;
pub mod plan;
pub mod pool;
pub mod query;
pub mod result_cache;
pub mod serve;
pub mod sharded;
pub mod storage;
pub mod subscribe;
mod sync;
mod view;

/// Ranked lock tracking: the concurrency-invariant checker every internal
/// lock is declared against (re-exported so binaries and tests can arm
/// schedule perturbation via [`check::set_yield_seed`] and read
/// [`check::report`]).
pub use durable_topk_check as check;

pub use config::EngineConfig;
pub use context::QueryContext;
pub use engine::Algorithm;
pub use error::{BuildError, QueryError};
pub use oracle::{Rows, ScanOracle, TopKOracle};
pub use pool::WorkerPool;
pub use query::{percentile, DurableQuery, FallbackReason, QueryResult, QueryStats};
pub use result_cache::{ResultCacheStats, ShardResultCache};
pub use serve::{
    execute_request, Backpressure, ResponseHandle, ScorerSpec, ServeEngine, ServeError,
    ServeRequest, ServeResponse, ServeStats,
};
pub use sharded::{MemoryUsage, ShardedEngine};
pub use storage::{ChunkId, PagedStorage, StorageStats};
pub use subscribe::{SubscriptionId, SubscriptionSnapshot, SubscriptionTotals};

// Re-export the vocabulary types callers need.
pub use durable_topk_index::{
    IncrementalSkybandIndex, OracleScorer, OracleScratch, SkybandCandidates, TopKResult,
};
pub use durable_topk_temporal::{
    Anchor, CosineScorer, Dataset, LinearScorer, MonotoneCombinationScorer, MonotoneTransform,
    RecordId, Scorer, ScorerError, SingleAttributeScorer, Time, Window,
};
