//! One model of the paper's exactness claim: every front door answers
//! exactly `DurTop(k, I, τ)`.
//!
//! A case draws one engine configuration — shard span, `max_tau`, leaf
//! size, skyband bound, storage (in memory, or a pager keeping one chunk
//! resident), result cache (off, roomy, or tight enough to evict) and
//! front door (a `ShardedEngine`, a `ServeEngine`, or a `Coordinator`
//! over a random tiling of slice nodes, one behind a loopback
//! `NodeServer`, the last one live) — and one list of operations: appends
//! of tied integer rows, non-finite appends, queries with any algorithm
//! and scorer, `top_k_into` over any window, subscribe / unsubscribe /
//! `take_delta`. After every step the system under test is compared with
//! a brute-force model of the ingested prefix: `brute_durable` for
//! queries and standing answers, a scan for top-k. At the end an engine
//! rebuilt from the whole history with `build_from` must answer the same.
//!
//! [`check`] runs random cases, [`check_ops`] one fixed op list; a suite
//! pins the axes it is about (a door, paged storage, a cache, S-Band
//! queries) and names what its runs must have exercised (seals, spills
//! read back, cache hits and evictions, fast-path skips, …), which the
//! runs tally and the check asserts once they have all run.

use crate::{brute_durable, rows_strategy};
use durable_topk::{
    execute_request, Algorithm, Backpressure, Dataset, DurableQuery, EngineConfig, FallbackReason,
    OracleScorer, PagedStorage, QueryContext, QueryError, QueryStats, RecordId, ScorerSpec,
    ServeEngine, ServeError, ServeRequest, ShardedEngine, SubscriptionId, Time, TopKResult, Window,
};
use durable_topk_index::scan_top_k;
use durable_topk_net::{
    Coordinator, LocalNode, Node, NodeIdentity, NodeServer, NodeServerOptions, RemoteNode,
    RemoteOptions,
};
use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRng};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::Arc;

/// A scoring function by name, so a failing op list prints readably.
#[derive(Debug, Clone, Copy)]
pub enum Pref {
    /// Linear weights `[w/10, 1 − w/10]`.
    Linear(u8),
    /// Linear `[1, 0]`: under it, records tie on attribute 0 everywhere.
    ZeroWeight,
    /// Equal weights on both attributes.
    Uniform,
    /// Non-monotone: S-Band falls back, every answer stays exact.
    Cosine,
}

impl Pref {
    fn spec(self) -> ScorerSpec {
        match self {
            Pref::Linear(w) => {
                ScorerSpec::Linear(vec![f64::from(w) / 10.0, 1.0 - f64::from(w) / 10.0])
            }
            Pref::ZeroWeight => ScorerSpec::Linear(vec![1.0, 0.0]),
            Pref::Uniform => ScorerSpec::Uniform,
            Pref::Cosine => ScorerSpec::Cosine(vec![0.7, 0.3]),
        }
    }

    /// The scorer `spec` resolves to on a two-attribute engine.
    fn scorer(self) -> Box<dyn OracleScorer + Sync> {
        match self.spec() {
            ScorerSpec::Linear(w) => Box::new(durable_topk::LinearScorer::new(w)),
            ScorerSpec::Cosine(u) => Box::new(durable_topk::CosineScorer::new(u)),
            _ => Box::new(durable_topk::LinearScorer::uniform(2)),
        }
    }
}

/// What a query, a top-k probe or a subscription asks. `tau`, `at` and
/// `len` are raw: they are resolved against the prefix when the step
/// runs, so every op list is valid at every length.
#[derive(Debug, Clone, Copy)]
pub struct Ask {
    /// The algorithm that answers.
    pub alg: Algorithm,
    /// The scoring function.
    pub pref: Pref,
    /// The `k` of `DurTop(k, I, τ)`.
    pub k: usize,
    /// Raw `τ`.
    pub tau: u32,
    /// Raw start of the interval or window.
    pub at: u32,
    /// Raw length of the interval or window.
    pub len: u32,
}

/// One step of a run.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// A finite row.
    Append([f64; 2]),
    /// A row whose attribute `.0` is `.1` (NaN or ±∞).
    AppendNonFinite(usize, f64),
    /// A query, through a serving door's queue when `.1`.
    Query(Ask, bool),
    /// `top_k_into` over a window, on a door with one engine behind it.
    TopK(Ask),
    /// A standing query on a serving door.
    Subscribe {
        /// What it asks.
        ask: Ask,
        /// Open-ended, or over a fixed interval.
        tail: bool,
        /// Registered with `subscribe_verified`.
        verified: bool,
    },
    /// Drains the delta of the subscription at this index, modulo their count.
    TakeDelta(usize),
    /// Drops the subscription at this index, modulo their count.
    Unsubscribe(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    ((0u32..100, 0u32..8, 0u32..8), (0u32..10_000, 0u32..10_000, 0u32..10_000, 0u32..10_000))
        .prop_map(|((kind, x, y), (a, b, tau, at))| {
            let pref = match b % 4 {
                0 => Pref::Linear(1 + (b / 4 % 9) as u8),
                1 => Pref::ZeroWeight,
                2 => Pref::Uniform,
                _ => Pref::Cosine,
            };
            let (alg, k) = (Algorithm::ALL[a as usize % 5], 1 + (a / 5 % 6) as usize);
            let ask = Ask { alg, pref, k, tau, at, len: b };
            let non_finite = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][y as usize % 3];
            match kind {
                0..=44 => Op::Append([f64::from(x), f64::from(y)]),
                45..=46 => Op::AppendNonFinite((x % 2) as usize, non_finite),
                47..=82 => Op::Query(ask, x % 2 == 0),
                83..=88 => Op::TopK(ask),
                89..=94 => Op::Subscribe { ask, tail: x % 2 == 0, verified: y % 2 == 0 },
                95..=97 => Op::TakeDelta(a as usize),
                _ => Op::Unsubscribe(a as usize),
            }
        })
}

/// The front door a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// A `ShardedEngine`, called directly.
    Direct,
    /// A `ServeEngine`.
    Serve,
    /// A `Coordinator` over slice nodes.
    Cluster,
}

/// A door of each kind.
pub const EVERY_DOOR: [Front; 3] = [Front::Direct, Front::Serve, Front::Cluster];

/// A [`Front`] with what it opens on.
#[derive(Debug, Clone)]
pub enum DoorKind {
    /// [`Front::Direct`].
    Direct,
    /// [`Front::Serve`].
    Serve,
    /// `history` tiled over nodes starting at the `cuts` (modulo its
    /// length); node `remote` is reached over TCP, the last one is live.
    Cluster {
        /// The rows the nodes hold before the first op.
        history: Vec<Vec<f64>>,
        /// Where nodes start, modulo the history's length.
        cuts: Vec<u32>,
        /// The node behind a `NodeServer`, modulo their count.
        remote: usize,
    },
}

/// One engine configuration and the door in front of it.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Records per shard.
    pub span: usize,
    /// The engine's `max_tau`.
    pub max_tau: Time,
    /// Records per tree leaf.
    pub leaf: usize,
    /// The skyband bound.
    pub k_max: usize,
    /// On a pager keeping one chunk resident.
    pub paged: bool,
    /// The result cache's byte budget, if it has one.
    pub cache: Option<usize>,
    /// The door in front of the engines.
    pub door: DoorKind,
}

impl Setup {
    /// An in-memory, cache-less configuration.
    fn plain(&self) -> EngineConfig {
        EngineConfig::new(2, self.span, self.max_tau).leaf_size(self.leaf).skyband_bound(self.k_max)
    }

    /// The configuration under test; each call makes a pager of its own.
    fn config(&self) -> EngineConfig {
        let cfg = match self.paged {
            true => self.plain().storage(Arc::new(PagedStorage::with_temp_file(1).expect("pager"))),
            false => self.plain(),
        };
        match self.cache {
            Some(budget) => cfg.result_cache(budget),
            None => cfg,
        }
    }
}

/// A configuration whose door is one of `doors`.
fn setup_strategy(doors: &'static [Front]) -> impl Strategy<Value = Setup> {
    let shape = (1usize..17, 1u32..25, 0usize..3, 1usize..5, prop::bool::ANY, 0usize..3);
    let door =
        (0..doors.len(), rows_strategy(4..40), prop::collection::vec(0u32..1_000, 3), 0usize..4);
    (shape, door).prop_map(move |((span, max_tau, leaf, k_max, paged, cache), door)| {
        let (kind, history, cuts, remote) = door;
        let door = match doors[kind] {
            Front::Direct => DoorKind::Direct,
            Front::Serve => DoorKind::Serve,
            Front::Cluster => DoorKind::Cluster { history, cuts, remote },
        };
        // Roomy, or below the working set so that entries get evicted.
        let cache = [None, Some(1 << 20), Some(4 << 10)][cache];
        Setup { span, max_tau, leaf: [2, 4, 8][leaf], k_max, paged, cache, door }
    })
}

/// A coordinator over slice nodes in timeline order; the last one ingests.
struct Cluster {
    coordinator: Coordinator,
    nodes: Vec<(ServeEngine, NodeIdentity)>,
    server: NodeServer,
}

/// The system under test: one of the three front doors.
enum Door {
    Direct(Box<ShardedEngine>),
    Serve(ServeEngine),
    Cluster(Cluster),
}

impl Door {
    /// Opens the door `setup` draws, with the history it starts from.
    fn open(setup: &Setup) -> (Door, Dataset) {
        let mut history = Dataset::new(2);
        let door = match &setup.door {
            DoorKind::Direct => Door::Direct(Box::new(setup.config().build().expect("config"))),
            DoorKind::Serve => {
                let engine = setup.config().build().expect("config");
                Door::Serve(ServeEngine::new(engine, 16, Backpressure::Block))
            }
            DoorKind::Cluster { history: rows, cuts, remote } => {
                for row in rows {
                    history.push(row);
                }
                let n = rows.len() as Time;
                let mut los: Vec<Time> = cuts.iter().map(|c| 1 + c % (n - 1)).collect();
                los.push(0);
                los.sort_unstable();
                los.dedup();
                let nodes: Vec<_> = (0..los.len())
                    .map(|i| {
                        let (lo, hi) = (los[i], los.get(i + 1).map_or(n, |&next| next) - 1);
                        let ext_lo = lo.saturating_sub(setup.max_tau);
                        let mut engine = setup.config().build().expect("config");
                        for id in ext_lo..=hi {
                            engine.append(history.row(id));
                        }
                        let serve = ServeEngine::new(engine, 16, Backpressure::Block);
                        (serve, NodeIdentity { base: ext_lo, owned_lo: lo })
                    })
                    .collect();
                let remote = remote % nodes.len();
                let (serve, id) = nodes[remote].clone();
                let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
                let opts = NodeServerOptions::default();
                let server = NodeServer::spawn(listener, serve, id, opts).expect("spawn server");
                let addr = server.addr().to_string();
                let members = nodes.iter().enumerate().map(|(i, (serve, id))| -> Arc<dyn Node> {
                    match i == remote {
                        true => Arc::new(RemoteNode::connect(&addr, RemoteOptions::default())),
                        false => Arc::new(LocalNode::new(serve.clone(), *id)),
                    }
                });
                let coordinator = Coordinator::new(members.collect()).expect("the slices tile");
                Door::Cluster(Cluster { coordinator, nodes, server })
            }
        };
        (door, history)
    }

    /// Runs `f` on the engine behind a single-engine door.
    fn engine<R>(&self, f: impl FnOnce(&ShardedEngine) -> R) -> Option<R> {
        match self {
            Door::Direct(engine) => Some(f(engine)),
            Door::Serve(serve) => Some(f(&serve.engine())),
            Door::Cluster(_) => None,
        }
    }

    /// Runs `f` on every engine the door holds.
    fn engines<R>(&self, f: impl Fn(&ShardedEngine) -> R) -> Vec<R> {
        match self {
            Door::Cluster(c) => c.nodes.iter().map(|(serve, _)| f(&serve.engine())).collect(),
            _ => self.engine(f).into_iter().collect(),
        }
    }

    /// Appends `row`, returning its global id.
    fn append(&mut self, row: &[f64]) -> Result<RecordId, ServeError> {
        match self {
            Door::Direct(engine) => Ok(engine.append(row)),
            Door::Serve(serve) => serve.append(row),
            Door::Cluster(c) => {
                let (live, id) = &c.nodes[c.nodes.len() - 1];
                let local = live.append(row)?;
                c.coordinator.refresh_ranges().expect("refresh the routing table");
                Ok(id.base + local)
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            Door::Cluster(c) => c.coordinator.total_len(),
            _ => self.engine(ShardedEngine::len).expect("one engine"),
        }
    }

    /// The largest `τ` the door answers exactly.
    fn tau_cap(&self) -> Time {
        match self {
            Door::Cluster(c) => c.coordinator.cluster_max_tau(),
            _ => Time::MAX,
        }
    }

    /// Answers `req`, whose scorer is `pref`'s; a serving door through its
    /// queue when `queued`, on the calling thread otherwise.
    fn query(
        &self,
        req: &ServeRequest,
        pref: Pref,
        queued: bool,
    ) -> Result<(Vec<RecordId>, QueryStats), TestCaseError> {
        let answer = match self {
            Door::Direct(engine) => engine
                .try_query(req.alg, pref.scorer().as_ref(), &req.query)
                .map(|r| (r.records, r.stats))
                .map_err(|e| e.to_string()),
            Door::Serve(serve) if queued => serve
                .submit(req.clone())
                .and_then(|handle| handle.wait())
                .map(|r| (r.records, r.stats))
                .map_err(|e| e.to_string()),
            Door::Serve(serve) => serve.execute(req).map_err(|e| e.to_string()),
            Door::Cluster(c) => {
                c.coordinator.query(req).map(|r| (r.records, r.stats)).map_err(|e| e.to_string())
            }
        };
        answer.map_err(|e| TestCaseError::fail(format!("{req:?}: {e}")))
    }

    fn close(self) {
        match self {
            Door::Direct(_) => {}
            Door::Serve(serve) => serve.shutdown(),
            Door::Cluster(c) => {
                // The remote member's connection closes first, so the
                // server's handler sees EOF instead of waiting out its
                // read timeout.
                drop(c.coordinator);
                drop(c.server);
                c.nodes.iter().for_each(|(serve, _)| serve.shutdown());
            }
        }
    }
}

/// The brute-force answer over the prefix; empty where the interval
/// starts past it.
fn brute(prefix: &Dataset, pref: Pref, q: &DurableQuery) -> Vec<RecordId> {
    if (q.interval.start() as usize) >= prefix.len() {
        return Vec::new();
    }
    brute_durable(prefix, pref.scorer().as_ref(), q)
}

/// S-Band alone falls back: for a non-monotone scorer, and for `k` above
/// the skyband's top level, `k_max` rounded up to a power of two.
fn expected_fallback(alg: Algorithm, pref: Pref, k: usize, k_max: usize) -> Option<FallbackReason> {
    match (alg, pref) {
        (Algorithm::SBand, Pref::Cosine) => Some(FallbackReason::NonMonotoneScorer),
        (Algorithm::SBand, _) if k > k_max.next_power_of_two() => {
            Some(FallbackReason::SkybandBoundExceeded)
        }
        _ => None,
    }
}

/// A window inside a prefix of `n > 0` records.
fn window(n: usize, at: u32, len: u32) -> Window {
    let a = at % n as u32;
    Window::new(a, a + len % (n as u32 - a))
}

/// What the runs can be asked to have exercised.
pub const EXERCISED: [&str; 14] = [
    "two seals",
    "two spills, read back",
    "cache hits across two seals and a spill",
    "cache evictions",
    "S-Band above its bound",
    "S-Band on a head alone",
    "a non-finite row rejected",
    "standing answers across two seals and a spill",
    "fast-path skips",
    "a delta drained",
    "an unsubscribe",
    "a whole-span rebuild",
    "a multi-node cluster, its live node sealed twice",
    "a top-k probe",
];

thread_local! {
    static SEEN: RefCell<BTreeMap<&'static str, usize>> = RefCell::default();
}

/// Tallies one of [`EXERCISED`] when it `happened`.
fn note(what: &'static str, happened: bool) {
    if happened {
        SEEN.with(|seen| *seen.borrow_mut().entry(what).or_default() += 1);
    }
}

/// A registered standing query and how much of its answer was drained.
struct Sub {
    id: SubscriptionId,
    req: ServeRequest,
    pref: Pref,
    drained: usize,
}

/// Runs `ops` through the door `setup` opens, comparing with the model
/// after every step and at the end.
fn run(setup: &Setup, ops: &[Op]) -> Result<(), TestCaseError> {
    let (mut door, mut prefix) = Door::open(setup);
    let (mut subs, mut subscribed): (Vec<Sub>, _) = (Vec::new(), false);
    let (mut ctx, mut got, mut oracle_queries) = (QueryContext::new(), TopKResult::empty(), 0);
    for (step, &op) in ops.iter().enumerate() {
        let n = prefix.len();
        let serve = match &door {
            Door::Serve(serve) => Some(serve.clone()),
            _ => None,
        };
        match (op, serve) {
            (Op::Append(row), _) => {
                let id = door.append(&row).map_err(|e| TestCaseError::fail(e.to_string()))?;
                prop_assert_eq!(id as usize, n, "step {}", step);
                prefix.push(&row);
            }
            (Op::AppendNonFinite(attr, value), _) => {
                let serve = match &door {
                    Door::Direct(_) => continue,
                    Door::Serve(serve) => serve,
                    Door::Cluster(c) => &c.nodes[c.nodes.len() - 1].0,
                };
                let mut row = [1.0, 1.0];
                row[attr] = value;
                let err = serve.append(&row).expect_err("a non-finite row is rejected");
                prop_assert_eq!(err, ServeError::Query(QueryError::NonFinite { attribute: attr }));
                note("a non-finite row rejected", true);
            }
            (Op::Query(Ask { alg, pref, k, tau, at, len }, queued), _) if n > 0 => {
                let tau = (1 + tau % (2 * setup.max_tau).max(n as Time)).min(door.tau_cap());
                let q = DurableQuery { k, tau, interval: window(n, at, len) };
                let req = ServeRequest { alg, query: q, scorer: pref.spec() };
                let (records, stats) = door.query(&req, pref, queued)?;
                let fallback = expected_fallback(alg, pref, k, setup.k_max);
                prop_assert_eq!(&records, &brute(&prefix, pref, &q), "step {}: {:?}", step, req);
                prop_assert_eq!(stats.fallback, fallback, "step {}: {:?}", step, req);
                let head_only = door.engine(|e| e.sealed_shards() == 0).unwrap_or(false);
                let native = alg == Algorithm::SBand && fallback.is_none();
                note("S-Band on a head alone", native && head_only);
                note(
                    "S-Band above its bound",
                    fallback == Some(FallbackReason::SkybandBoundExceeded),
                );
            }
            (Op::TopK(Ask { pref, k, at, len, .. }), _) if n > 0 => {
                let (w, scorer) = (window(n, at, len), pref.scorer());
                let probe =
                    |e: &ShardedEngine| e.top_k_into(scorer.as_ref(), k, w, &mut ctx, &mut got);
                if door.engine(probe).is_some() {
                    let want = scan_top_k(&prefix, scorer.as_ref(), k, w);
                    prop_assert_eq!(&got, &want, "step {}: k={} w={}", step, k, w);
                    note("a top-k probe", true);
                }
            }
            (
                Op::Subscribe { ask: Ask { alg, pref, k, tau, at, len }, tail, verified },
                Some(serve),
            ) => {
                let start = at % (n as u32 + 8);
                let end = if tail { u32::MAX } else { start + len % 64 };
                let query = DurableQuery {
                    k,
                    tau: 1 + tau % (2 * setup.max_tau),
                    interval: Window::new(start, end),
                };
                let req = ServeRequest { alg, query, scorer: pref.spec() };
                let id = match verified {
                    true => serve.subscribe_verified(req.clone()),
                    false => serve.subscribe(req.clone()),
                };
                let id = id.map_err(|e| TestCaseError::fail(format!("subscribe: {e}")))?;
                subs.push(Sub { id, req, pref, drained: 0 });
                subscribed = true;
            }
            (Op::TakeDelta(i), Some(serve)) if !subs.is_empty() => {
                let count = subs.len();
                let sub = &mut subs[i % count];
                let answer = brute(&prefix, sub.pref, &sub.req.query);
                let delta = serve.take_delta(sub.id).expect("registered");
                prop_assert_eq!(&delta[..], &answer[sub.drained..], "step {}: {:?}", step, sub.req);
                sub.drained = answer.len();
                note("a delta drained", !delta.is_empty());
            }
            (Op::Unsubscribe(i), Some(serve)) if !subs.is_empty() => {
                let id = subs.swap_remove(i % subs.len()).id;
                prop_assert!(serve.unsubscribe(id) && !serve.unsubscribe(id), "step {}", step);
                prop_assert!(
                    serve.poll_subscription(id).is_none() && serve.take_delta(id).is_none()
                );
                note("an unsubscribe", true);
            }
            _ => continue,
        }

        // What every step leaves: the prefix's length, the live engine's
        // seal layout, the cluster's τ bound, every standing answer.
        let n = prefix.len();
        prop_assert_eq!(door.len(), n, "step {}: {:?}", step, op);
        if let Some((sealed, shards, queries)) =
            door.engine(|e| (e.sealed_shards(), e.shard_count(), e.oracle_queries()))
        {
            prop_assert_eq!(
                (sealed, shards),
                (n / setup.span, n.div_ceil(setup.span)),
                "step {}",
                step
            );
            prop_assert!(queries >= oracle_queries, "oracle_queries went back at step {}", step);
            oracle_queries = queries;
        }
        if let Door::Cluster(c) = &door {
            let depth = |id: &NodeIdentity| id.owned_lo.min(setup.max_tau);
            let cap = c.nodes[1..].iter().map(|(_, id)| depth(id)).min().unwrap_or(Time::MAX);
            prop_assert_eq!(c.coordinator.cluster_max_tau(), cap);
        }
        if let Door::Serve(serve) = &door {
            for sub in &subs {
                let snap = serve.poll_subscription(sub.id).expect("registered");
                let end = sub.req.query.interval.end() as usize;
                prop_assert!(!snap.diverged, "step {}: diverged {:?}", step, sub.req);
                prop_assert_eq!(&snap.records, &brute(&prefix, sub.pref, &sub.req.query));
                prop_assert_eq!(snap.complete, end < n, "step {}", step);
                note("fast-path skips", snap.fast_path_skips > 0);
            }
        }
    }
    if !prefix.is_empty() {
        finish(setup, &door, &prefix, subscribed)?;
    }
    door.close();
    Ok(())
}

/// The end of a run: an engine rebuilt from the whole history answers
/// like the door and the brute force; then the run's tally.
fn finish(
    setup: &Setup,
    door: &Door,
    prefix: &Dataset,
    subscribed: bool,
) -> Result<(), TestCaseError> {
    let n = prefix.len();
    let rebuilt = setup.plain().build_from(prefix, n.div_ceil(setup.span)).expect("rebuild");
    if let Some(ranges) = door.engine(ShardedEngine::shard_ranges).filter(|_| n % setup.span == 0) {
        prop_assert_eq!(ranges, rebuilt.shard_ranges(), "whole spans partition alike");
        note("a whole-span rebuild", true);
    }
    let tau = (1 + n as Time / 2).min(door.tau_cap());
    let bound = setup.k_max.next_power_of_two();
    for alg in Algorithm::ALL {
        for (k, pref) in
            [(1, Pref::Linear(6)), (setup.k_max, Pref::ZeroWeight), (bound + 1, Pref::Uniform)]
        {
            let query = DurableQuery { k, tau, interval: Window::new(0, n as Time - 1) };
            let req = ServeRequest { alg, query, scorer: pref.spec() };
            let want = (brute(prefix, pref, &query), expected_fallback(alg, pref, k, setup.k_max));
            let (records, stats) =
                execute_request(&rebuilt, &req).expect("the rebuilt engine answers");
            prop_assert_eq!((&records, stats.fallback), (&want.0, want.1), "rebuilt: {:?}", req);
            let (records, stats) = door.query(&req, pref, true)?;
            prop_assert_eq!((&records, stats.fallback), (&want.0, want.1), "at the end: {:?}", req);
        }
    }
    prop_assert!(door.engine(|e| e.oracle_queries() > 0).unwrap_or(true), "queries were counted");
    if let Door::Cluster(c) = door {
        // The full-history queries reached every node, the remote one over
        // TCP, and none failed.
        for node in c.coordinator.stats().nodes {
            prop_assert!(node.requests > 0 && node.errors == 0, "traffic of {}", node.label);
        }
        prop_assert!(c.server.served() > 0 && c.server.failed() == 0);
        let live_sealed = c.nodes[c.nodes.len() - 1].0.engine().sealed_shards();
        note(
            "a multi-node cluster, its live node sealed twice",
            c.nodes.len() >= 2 && live_sealed >= 2,
        );
    }
    for (sealed, storage, cache) in door
        .engines(|e| (e.sealed_shards(), e.storage().stats(), e.result_cache().map(|c| c.stats())))
    {
        let spilled = sealed >= 2 && storage.spilled_chunks >= 1;
        note("two seals", sealed >= 2);
        note("two spills, read back", storage.spilled_chunks >= 2 && storage.cold_fetches > 0);
        note(
            "cache hits across two seals and a spill",
            spilled && cache.is_some_and(|c| c.hits > 0),
        );
        note("cache evictions", cache.is_some_and(|c| c.evictions > 0));
        note("standing answers across two seals and a spill", spilled && subscribed);
    }
    Ok(())
}

/// Runs `cases` random op lists against the model, each on a
/// configuration drawn with one of `doors` and then adjusted by `pin`;
/// the cases are drawn from a stream seeded by `name`. Panics with the
/// failing case's configuration and op list, or if no run exercised one
/// of `exercised`.
pub fn check(
    name: &str,
    cases: u32,
    doors: &'static [Front],
    pin: impl Fn(&mut Setup, &mut [Op]),
    exercised: &[&str],
) {
    let (setups, op_lists) = (setup_strategy(doors), prop::collection::vec(op_strategy(), 1..200));
    let mut rng = TestRng::deterministic(name);
    SEEN.with(|seen| seen.borrow_mut().clear());
    for case in 1..=cases {
        let (mut setup, mut ops) = (setups.new_value(&mut rng), op_lists.new_value(&mut rng));
        pin(&mut setup, &mut ops);
        if let Err(e) = run(&setup, &ops) {
            panic!(
                "`{name}` failed at case {case}/{cases}: {e}\n  setup = {setup:?}\n  ops = {ops:?}"
            );
        }
    }
    assert_exercised(exercised);
}

/// Runs one fixed op list against the model; panics if it fails or did
/// not exercise each of `exercised`.
pub fn check_ops(setup: &Setup, ops: &[Op], exercised: &[&str]) {
    SEEN.with(|seen| seen.borrow_mut().clear());
    if let Err(e) = run(setup, ops) {
        panic!("op list failed: {e}\n  setup = {setup:?}");
    }
    assert_exercised(exercised);
}

fn assert_exercised(exercised: &[&str]) {
    SEEN.with(|seen| {
        let seen = seen.borrow();
        for what in exercised {
            assert!(seen.get(what).is_some_and(|&n| n > 0), "no run exercised {what}: {seen:?}");
        }
    });
}
