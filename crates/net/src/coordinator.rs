//! The scatter-gather [`Coordinator`]: routes a global query to the nodes
//! whose owned ranges intersect it, fans the per-node pieces out on the
//! shared worker pool, and merges the answers — with the very
//! [`route`]/[`merge`] a [`ShardedEngine`](durable_topk::ShardedEngine)
//! applies to its own shards, so a cluster answer is bit-identical to the
//! single-node answer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use durable_topk::check::{LockClass, TrackedMutex};
use durable_topk::plan::{merge, route, OwnedRange};
use durable_topk::{
    percentile, DurableQuery, QueryError, ServeError, ServeRequest, ServeResponse, ServeStats,
    Time, WorkerPool,
};

use crate::error::NetError;
use crate::node::{Node, NodeRanges};

/// Samples kept per node for the latency percentiles in
/// [`NodePerf`]; older samples are overwritten ring-buffer style.
const LATENCY_SAMPLES: usize = 4096;

/// A bounded reservoir of RPC latencies (ring overwrite beyond
/// [`LATENCY_SAMPLES`]).
struct LatencyRing {
    samples: Vec<Duration>,
    next: usize,
}

impl LatencyRing {
    fn new() -> Self {
        LatencyRing { samples: Vec::new(), next: 0 }
    }

    fn record(&mut self, d: Duration) {
        if self.samples.len() < LATENCY_SAMPLES {
            self.samples.push(d);
        } else {
            self.samples[self.next] = d;
            self.next = (self.next + 1) % LATENCY_SAMPLES;
        }
    }

    /// The retained samples in ascending order, ready for
    /// [`percentile`].
    fn sorted(&self) -> Vec<Duration> {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        sorted
    }
}

/// One cluster member plus its per-node observability counters.
struct Member {
    node: Arc<dyn Node>,
    requests: AtomicU64,
    errors: AtomicU64,
    latency: TrackedMutex<LatencyRing>,
}

/// The validated cluster layout: one descriptor per member, in member
/// order (ascending `lo`), plus the derived cluster-wide bounds.
#[derive(Debug, Clone)]
struct Topology {
    descs: Vec<NodeRanges>,
    total_len: usize,
    cluster_max_tau: Time,
    dim: usize,
}

/// Per-node serving counters surfaced through
/// [`Coordinator::stats`].
#[derive(Debug, Clone)]
pub struct NodePerf {
    /// The node's [`label`](Node::label) (an address for TCP members).
    pub label: String,
    /// Queries routed to this node.
    pub requests: u64,
    /// Queries that came back with any error.
    pub errors: u64,
    /// Transport retries the node's client performed.
    pub net_retries: u64,
    /// Median RPC latency over the retained sample window.
    pub p50: Duration,
    /// 99th-percentile RPC latency over the retained sample window.
    pub p99: Duration,
}

/// A cluster-level stats snapshot ([`Coordinator::stats`]).
#[derive(Debug, Clone)]
pub struct CoordinatorStats {
    /// Per-node counters, in member (timeline) order.
    pub nodes: Vec<NodePerf>,
    /// Records covered by the cluster at the last topology refresh.
    pub total_len: usize,
    /// The cluster's exactness bound: the largest `τ` every member can
    /// answer exactly for the pieces it may be routed.
    pub cluster_max_tau: Time,
}

/// Routes durable top-k queries across a set of [`Node`]s hosting
/// contiguous slices of one global timeline.
///
/// # Exactness
///
/// Each node carries left context below its owned range, so every
/// durability window `[t − τ, t]` with `t` owned by the node and `τ` within
/// [`cluster_max_tau`](Coordinator::cluster_max_tau) is evaluated against
/// the full global history it needs — the decomposition
/// [`durable_topk::plan`] states, one level above a
/// [`ShardedEngine`](durable_topk::ShardedEngine)'s own shards. Nodes are
/// separate processes: unlike those shards, a node cannot read its
/// predecessor's records, so this is the one door that bounds `τ`. Its
/// [`route`] sends node `i` the piece `I ∩ [lo_i, hi_i]` in the node's
/// local coordinates; its [`merge`] translates the answers back and
/// concatenates them into the single-engine answer, record for record.
///
/// # Concurrency
///
/// The topology snapshot is taken (and the lock released) before any
/// network traffic; per-node counters are atomics and a
/// [`LockClass::NetStats`]-ranked latency reservoir recorded after each
/// RPC returns with nothing else held.
pub struct Coordinator {
    members: Vec<Member>,
    topology: TrackedMutex<Topology>,
}

impl Coordinator {
    /// Builds a coordinator over `nodes`, fetching every member's
    /// descriptor and validating that together they tile a contiguous
    /// global timeline (sorted by owned start, gap-free, dimension-equal,
    /// each owning at least one record, context backing its `max_tau`).
    pub fn new(nodes: Vec<Arc<dyn Node>>) -> Result<Coordinator, NetError> {
        if nodes.is_empty() {
            return Err(NetError::Topology("a cluster needs at least one node".to_string()));
        }
        let mut described: Vec<(Arc<dyn Node>, NodeRanges)> = Vec::with_capacity(nodes.len());
        for node in nodes {
            let desc = node.shard_ranges()?;
            described.push((node, desc));
        }
        described.sort_by_key(|(_, d)| d.lo);
        let topology = validate(described.iter().map(|(_, d)| d.clone()).collect())?;
        let members = described
            .into_iter()
            .map(|(node, _)| Member {
                node,
                requests: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                latency: TrackedMutex::new(LockClass::NetStats, LatencyRing::new()),
            })
            .collect();
        Ok(Coordinator { members, topology: TrackedMutex::new(LockClass::NetTopology, topology) })
    }

    /// Re-fetches every member's descriptor (live nodes grow as they
    /// ingest) and re-validates the cluster layout.
    pub fn refresh_ranges(&self) -> Result<(), NetError> {
        let mut descs = Vec::with_capacity(self.members.len());
        for member in &self.members {
            descs.push(member.node.shard_ranges()?);
        }
        // Members were sorted at construction and owned ranges only grow
        // at the live end, so member order is stable; validate re-checks.
        let topology = validate(descs)?;
        *self.topology.lock() = topology;
        Ok(())
    }

    /// Answers one global-coordinate query by scatter-gather.
    ///
    /// Validation mirrors a single engine: `k`/`τ`/interval checks against
    /// the cluster's total length, and `τ` beyond the cluster bound is
    /// [`QueryError::TauExceedsOverlap`]. The fan-out runs on the shared
    /// [`WorkerPool`], one job per owning node.
    pub fn query(&self, req: &ServeRequest) -> Result<ServeResponse, NetError> {
        let start = Instant::now();
        let topo = self.topology.lock().clone();
        if req.query.tau > topo.cluster_max_tau {
            return Err(NetError::Serve(ServeError::Query(QueryError::TauExceedsOverlap {
                tau: req.query.tau,
                max_tau: topo.cluster_max_tau,
            })));
        }
        let interval =
            req.query.check(topo.total_len).map_err(|e| NetError::Serve(ServeError::Query(e)))?;

        // One piece per node whose owned range intersects the interval, in
        // timeline order, in that node's local coordinates.
        let owners = topo.descs.iter().map(|d| OwnedRange { ext_lo: d.ext_lo, lo: d.lo, hi: d.hi });
        let pieces = route(interval, owners.zip(0usize..));

        let answers = WorkerPool::global().run_jobs(pieces.len(), pieces.len(), |i, _ctx| {
            let member = &self.members[pieces[i].owner];
            let local = ServeRequest {
                alg: req.alg,
                query: DurableQuery { interval: pieces[i].local, ..req.query },
                scorer: req.scorer.clone(),
            };
            let rpc_start = Instant::now();
            let outcome = member.node.query(&local);
            let elapsed = rpc_start.elapsed();
            member.requests.fetch_add(1, Ordering::Relaxed);
            if outcome.is_err() {
                member.errors.fetch_add(1, Ordering::Relaxed);
            }
            member.latency.lock().record(elapsed);
            outcome
        });

        // All or nothing: any member's error fails the whole request.
        let answers = answers.into_iter().collect::<Result<Vec<_>, _>>()?;
        let (records, stats) = merge(
            pieces.iter().zip(&answers).map(|(piece, a)| (piece.ext_lo, &a.records[..], &a.stats)),
        );
        Ok(ServeResponse { records, stats, queued: Duration::ZERO, service: start.elapsed() })
    }

    /// Per-node request/error/retry counters and latency percentiles, in
    /// timeline order.
    pub fn stats(&self) -> CoordinatorStats {
        let topo = self.topology.lock().clone();
        let nodes = self
            .members
            .iter()
            .map(|m| {
                let latency = m.latency.lock().sorted();
                NodePerf {
                    label: m.node.label(),
                    requests: m.requests.load(Ordering::Relaxed),
                    errors: m.errors.load(Ordering::Relaxed),
                    net_retries: m.node.net_retries(),
                    p50: percentile(&latency, 0.50),
                    p99: percentile(&latency, 0.99),
                }
            })
            .collect();
        CoordinatorStats { nodes, total_len: topo.total_len, cluster_max_tau: topo.cluster_max_tau }
    }

    /// Fetches every member's own [`ServeStats`] (a live RPC per node),
    /// in timeline order.
    pub fn cluster_stats(&self) -> Vec<Result<ServeStats, NetError>> {
        self.members.iter().map(|m| m.node.stats()).collect()
    }

    /// The attribute count the cluster agreed on at validation.
    pub fn dim(&self) -> usize {
        self.topology.lock().dim
    }

    /// Records covered by the cluster at the last topology refresh.
    pub fn total_len(&self) -> usize {
        self.topology.lock().total_len
    }

    /// The largest `τ` the cluster answers exactly.
    pub fn cluster_max_tau(&self) -> Time {
        self.topology.lock().cluster_max_tau
    }
}

/// Checks that sorted descriptors tile a contiguous timeline and derives
/// the cluster-wide bounds.
fn validate(descs: Vec<NodeRanges>) -> Result<Topology, NetError> {
    let first = &descs[0];
    if first.lo != 0 || first.ext_lo != 0 {
        return Err(NetError::Topology(format!(
            "first node must own the timeline start (owns [{}, {}], context from {})",
            first.lo, first.hi, first.ext_lo
        )));
    }
    let dim = first.dim;
    let mut cluster_max_tau = Time::MAX;
    for (i, desc) in descs.iter().enumerate() {
        if desc.hi < desc.lo {
            return Err(NetError::Topology(format!(
                "node {i} owns no records (lo {} > hi {})",
                desc.lo, desc.hi
            )));
        }
        if desc.dim != dim {
            return Err(NetError::Topology(format!(
                "node {i} has {} attributes, node 0 has {dim}",
                desc.dim
            )));
        }
        if i > 0 {
            let prev = &descs[i - 1];
            if desc.lo != prev.hi + 1 {
                return Err(NetError::Topology(format!(
                    "node {} ends at {} but node {i} starts at {} (timeline must be contiguous)",
                    i - 1,
                    prev.hi,
                    desc.lo
                )));
            }
            if desc.ext_lo > desc.lo {
                return Err(NetError::Topology(format!(
                    "node {i} context starts at {} after its owned start {}",
                    desc.ext_lo, desc.lo
                )));
            }
            // An interior node answers windows reaching up to τ before its
            // owned start; its context depth bounds the τ it can serve.
            cluster_max_tau = cluster_max_tau.min(desc.lo - desc.ext_lo);
        }
        cluster_max_tau = cluster_max_tau.min(desc.max_tau);
    }
    let last = &descs[descs.len() - 1];
    Ok(Topology { total_len: last.hi as usize + 1, cluster_max_tau, dim, descs })
}
