//! The [`Node`] abstraction: one engine's worth of the global timeline,
//! queryable in its own local coordinates, plus the in-process
//! [`LocalNode`] implementation.
//!
//! # Coordinates
//!
//! A node hosts a contiguous *owned* slice `[lo, hi]` of the global
//! timeline. Its engine's dataset additionally starts some records early
//! (at `ext_lo ≤ lo`), so every τ-durability window with `τ ≤ lo − ext_lo`
//! that ends inside the owned slice is fully covered: nodes are separate
//! processes, so unlike the shards inside one [`ShardedEngine`] they cannot
//! read each other's records, and this left context is what bounds the `τ`
//! a cluster answers. Record `g` of the global timeline is record
//! `g − ext_lo` of the node's engine; [`Node::query`] takes and returns
//! *node-local* ids, and the coordinator does the translation in both
//! directions.

use std::time::{Duration, Instant};

use durable_topk::{
    QueryStats, RecordId, ServeEngine, ServeRequest, ServeStats, ShardedEngine, Time,
};

use crate::error::NetError;

/// Where a node's engine sits on the global timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeIdentity {
    /// Global id of the engine's local record 0 (`ext_lo`): owned start
    /// minus the left-context overlap.
    pub base: Time,
    /// First globally-owned record; records in `[base, owned_lo)` are
    /// context only and are answered by the preceding node.
    pub owned_lo: Time,
}

/// A node's self-description: the routing-table row the coordinator
/// scatters by ([`Node::shard_ranges`], wire kind
/// [`Ranges`](crate::wire::Message::Ranges)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeRanges {
    /// Global id of the engine's local record 0 (owned start minus left
    /// context).
    pub ext_lo: Time,
    /// First globally-owned record.
    pub lo: Time,
    /// Last record currently hosted (inclusive); grows as a live node
    /// ingests.
    pub hi: Time,
    /// The node's exactness bound: the `lo − ext_lo` context records it
    /// holds, unbounded for a node starting at time zero. Queries with `τ`
    /// beyond it are rejected by the coordinator.
    pub max_tau: Time,
    /// Attribute count of the node's dataset (must agree across the
    /// cluster).
    pub dim: usize,
    /// The engine's internal shard layout in *global* coordinates
    /// (diagnostics; routing only needs `[lo, hi]`).
    pub shards: Vec<(Time, Time)>,
}

/// A node's answer to one (node-local) query.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeAnswer {
    /// τ-durable records in increasing arrival order, *node-local* ids.
    pub records: Vec<RecordId>,
    /// Execution instrumentation.
    pub stats: QueryStats,
    /// Wall-clock execution time on the node.
    pub service: Duration,
}

/// One member of a scatter-gather cluster: a queryable host of a
/// contiguous timeline slice.
///
/// Implementations must be shareable across the coordinator's fan-out
/// threads (`Send + Sync`). The two shipped implementations are
/// [`LocalNode`] (in-process engine) and
/// [`RemoteNode`](crate::RemoteNode) (TCP peer speaking the
/// [`wire`](crate::wire) codec).
pub trait Node: Send + Sync {
    /// Executes one query in the node's local coordinates.
    fn query(&self, req: &ServeRequest) -> Result<NodeAnswer, NetError>;

    /// The node's serving counters.
    fn stats(&self) -> Result<ServeStats, NetError>;

    /// The node's current ownership descriptor (re-fetch to observe a live
    /// node's growth).
    fn shard_ranges(&self) -> Result<NodeRanges, NetError>;

    /// Transport-level retries performed so far (0 for in-process nodes).
    fn net_retries(&self) -> u64 {
        0
    }

    /// A short human-readable name for stats lines (an address, a tag).
    fn label(&self) -> String;
}

/// Builds a [`NodeRanges`] descriptor for an engine hosted at `identity`.
///
/// Shared by [`LocalNode`] and the TCP server so the two can never
/// disagree about what a descriptor means.
pub(crate) fn describe(engine: &ShardedEngine, identity: NodeIdentity) -> NodeRanges {
    let base = identity.base;
    let hi = base + (engine.len().saturating_sub(1)) as Time;
    NodeRanges {
        ext_lo: base,
        lo: identity.owned_lo,
        hi,
        // A window reaches no further back than the context the node
        // holds — or than time zero, which every window stops at.
        max_tau: if base == 0 { Time::MAX } else { identity.owned_lo - base },
        dim: engine.dim(),
        shards: engine.shard_ranges().into_iter().map(|(lo, hi)| (lo + base, hi + base)).collect(),
    }
}

/// An in-process cluster member wrapping a [`ServeEngine`].
///
/// Queries execute directly on the calling thread via
/// [`ServeEngine::execute`] (which says why they bypass the serve queue),
/// with the queue's per-request panic isolation. The wrapped queue (and
/// its subscriptions) remains fully usable for other clients of the same
/// engine.
pub struct LocalNode {
    serve: ServeEngine,
    identity: NodeIdentity,
    label: String,
}

impl LocalNode {
    /// Wraps a serving engine hosted at `identity` on the global timeline.
    pub fn new(serve: ServeEngine, identity: NodeIdentity) -> Self {
        let label = format!("local@{}", identity.owned_lo);
        LocalNode { serve, identity, label }
    }

    /// The wrapped serving engine (for appends, subscriptions, shutdown).
    pub fn serve(&self) -> &ServeEngine {
        &self.serve
    }

    /// The node's placement on the global timeline.
    pub fn identity(&self) -> NodeIdentity {
        self.identity
    }
}

impl Node for LocalNode {
    fn query(&self, req: &ServeRequest) -> Result<NodeAnswer, NetError> {
        let start = Instant::now();
        let (records, stats) = self.serve.execute(req).map_err(NetError::Serve)?;
        Ok(NodeAnswer { records, stats, service: start.elapsed() })
    }

    fn stats(&self) -> Result<ServeStats, NetError> {
        Ok(self.serve.stats())
    }

    fn shard_ranges(&self) -> Result<NodeRanges, NetError> {
        Ok(describe(&self.serve.engine(), self.identity))
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}
