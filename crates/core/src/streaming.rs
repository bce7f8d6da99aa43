//! Continuous durable top-k monitoring over streaming arrivals.
//!
//! The paper studies the *offline* problem ("our query analyzes historical
//! data") and contrasts it with continuous monitoring à la Mouratidis et al.
//! This module closes the loop as an extension: an online engine that
//! ingests records as they arrive and can
//!
//! 1. classify each arriving record's durability *immediately*
//!    ([`StreamingMonitor::push`] — is the newcomer a τ-durable record right
//!    now?), and
//! 2. answer full historical `DurTop(k, I, τ)` queries at any point
//!    ([`StreamingMonitor::query`]).
//!
//! Since PR 3 the monitor is a thin facade over the live
//! [`ShardedEngine`]: arrivals land in the engine's mutable head shard
//! (amortized-cheap forest maintenance), old shards seal and stay
//! immutable — with the `O(span)` seal collapse running as a background
//! worker-pool job, so `push` never stalls on a shard rotation — and
//! historical queries fan out across the shards through the persistent
//! worker pool: streaming and sharding are one system instead of two
//! parallel implementations.
//!
//! Since PR 6 the monitor also stopped keeping its own duplicate copy of
//! the history: the engine's shards (behind the tiered
//! [`ShardStorage`](crate::ShardStorage) backend) are the single resident
//! copy, and the contiguous view the `τ > max_tau` scan fallback needs is
//! a lazily materialized, incrementally topped-up cache.

use crate::algorithms::{s_hop, t_hop, RefillMode};
use crate::check::{LockClass, TrackedMutex, TrackedMutexGuard};
use crate::config::EngineConfig;
use crate::context::QueryContext;
use crate::engine::Algorithm;
use crate::error::{BuildError, QueryError};
use crate::oracle::TopKOracle;
use crate::query::{DurableQuery, FallbackReason, QueryResult};
use crate::serve::ServeRequest;
use crate::sharded::ShardedEngine;
use crate::subscribe::{SubscriptionId, SubscriptionRegistry, SubscriptionSnapshot};
use durable_topk_index::{OracleScorer, OracleScratch, TopKResult};
use durable_topk_temporal::{Dataset, RecordId, Time, Window};
use std::cell::RefCell;

/// The live sharded engine as a `TopKOracle`: each probe fans the window
/// over the shard indexes via [`ShardedEngine::top_k_into`], which is
/// exact for any window. Serves the `τ > max_tau` fallback of
/// [`StreamingMonitor::query`] on the calling thread (hence the
/// single-threaded interior context).
struct EngineOracle<'a> {
    engine: &'a ShardedEngine,
    ctx: RefCell<QueryContext>,
}

impl TopKOracle for EngineOracle<'_> {
    fn top_k_into<S: OracleScorer + ?Sized>(
        &self,
        _ds: &Dataset,
        scorer: &S,
        k: usize,
        w: Window,
        _scratch: &mut OracleScratch,
        out: &mut TopKResult,
    ) {
        self.engine.top_k_into(scorer, k, w, &mut self.ctx.borrow_mut(), out);
    }

    fn queries_issued(&self) -> u64 {
        self.engine.oracle_queries()
    }

    fn reset_counters(&self) {
        self.engine.reset_counters();
    }
}

/// An online durable top-k engine over an append-only record stream.
///
/// A facade over the live [`ShardedEngine`]. The engine's shards (and
/// their storage backend) are the *only* permanent copy of the records —
/// the monitor no longer duplicates the history alongside them. The
/// contiguous view the `τ > max_tau` scan fallback needs is a lazily
/// materialized cache ([`history`](StreamingMonitor::history)), rebuilt
/// from the shards on demand and topped up incrementally as the stream
/// grows. The monitor owns a [`QueryContext`] and a result buffer, so the
/// per-arrival classification probe of [`push`](StreamingMonitor::push)
/// allocates nothing once warm.
///
/// Ingestion ([`push`](StreamingMonitor::push)) takes `&mut self`, so the
/// monitor is a single-writer facade; the sharded engine underneath
/// remains the concurrent substrate.
#[derive(Debug)]
pub struct StreamingMonitor {
    engine: ShardedEngine,
    /// Lazy contiguous view of the full history (attribute rows by global
    /// id), extended from the engine's shards on demand. Only the scan
    /// fallback reads it; bounded-τ traffic never materializes it. Ranked
    /// below the storage locks: topping it up faults spilled chunks in
    /// through the engine's storage backend while it is held.
    history: TrackedMutex<Dataset>,
    ctx: QueryContext,
    probe: TopKResult,
    /// Standing queries, refreshed inline per push (the monitor is
    /// single-threaded; no pool dispatch).
    subs: SubscriptionRegistry,
}

impl StreamingMonitor {
    /// Creates an empty monitor over the live engine `cfg` describes: the
    /// engine seals a shard every `shard_span` records and answers
    /// historical queries exactly for `τ ≤ max_tau` without fallback; a
    /// [`skyband_bound`](EngineConfig::skyband_bound) enables S-Band *and*
    /// the zero-change fast-path gate for standing queries with
    /// `k ≤ k_max` (see [`subscribe`](StreamingMonitor::subscribe)), a
    /// [`result_cache`](EngineConfig::result_cache) memoizes repeated
    /// historical queries over sealed tails.
    pub fn new(cfg: EngineConfig) -> Result<Self, BuildError> {
        let engine = cfg.build()?;
        let subs = SubscriptionRegistry::anchored(&engine);
        Ok(Self {
            history: TrackedMutex::new(LockClass::MonitorCache, Dataset::new(engine.dim())),
            engine,
            ctx: QueryContext::new(),
            probe: TopKResult::empty(),
            subs,
        })
    }

    /// Bootstraps the monitor from existing history. The given dataset
    /// seeds the history cache directly (preserving any wall-clock
    /// column), so no copy is rebuilt from the shards later.
    pub fn from_history(cfg: EngineConfig, ds: Dataset) -> Result<Self, BuildError> {
        let mut monitor = Self::new(cfg)?;
        if ds.dim() != monitor.engine.dim() {
            return Err(BuildError::DimMismatch { config: monitor.engine.dim(), data: ds.dim() });
        }
        for id in 0..ds.len() {
            monitor.engine.append(ds.row(id as RecordId));
        }
        *monitor.history.lock() = ds;
        Ok(monitor)
    }

    /// Records ingested so far.
    pub fn len(&self) -> usize {
        self.engine.len()
    }

    /// Whether no record was ingested.
    pub fn is_empty(&self) -> bool {
        self.engine.is_empty()
    }

    /// A contiguous view of the full ingested history (attribute rows by
    /// global arrival id), materialized lazily: the first call copies the
    /// rows out of the engine's shards (faulting any spilled chunks in
    /// through the storage backend), later calls only top up the records
    /// that arrived since. Rows pushed via [`push`](StreamingMonitor::push)
    /// carry no wall-clock stamps in this view.
    pub fn history(&self) -> TrackedMutexGuard<'_, Dataset> {
        let mut h = self.history.lock();
        let from = h.len();
        if from < self.engine.len() {
            self.engine.copy_history_into(&mut h, from);
        }
        h
    }

    /// The backing live sharded engine (shard counts, direct queries).
    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// Cumulative physical page reads the per-arrival classification and
    /// subscription-refresh probes of [`push`](StreamingMonitor::push)
    /// paid to fault spilled chunks back in — the building-block path's
    /// cold-read ledger (always `0` under
    /// [`MemoryStorage`](crate::MemoryStorage)).
    pub fn probe_cold_page_hits(&self) -> u64 {
        self.ctx.cold_page_hits
    }

    /// Waits out every in-flight background shard seal of the backing
    /// engine. Queries are exact without this (pending snapshots serve
    /// through their forests); deterministic shard-state inspection and
    /// orderly teardown want it.
    pub fn quiesce(&mut self) {
        self.engine.quiesce();
    }

    /// Ingests a record and reports whether it is τ-durable (look-back,
    /// under `scorer` and `k`) at the moment of its arrival.
    ///
    /// Amortized cost: `O(polylog n)` index maintenance plus one top-k
    /// probe across the shards intersecting the τ-window. Any `tau` is
    /// accepted — the probe is a plain top-k, which the sharded engine
    /// answers exactly for arbitrary windows.
    ///
    /// # Panics
    /// Panics if `k == 0` or the attribute arity mismatches.
    pub fn push<S: OracleScorer + ?Sized>(
        &mut self,
        attrs: &[f64],
        scorer: &S,
        k: usize,
        tau: Time,
    ) -> bool {
        assert!(k > 0, "k must be positive");
        let id = self.engine.append(attrs);
        // Keep any standing queries current before answering for this
        // arrival. Inline (the monitor is single-threaded), and bounded:
        // the registry's skyband gate skips subscriptions this arrival
        // provably cannot enter.
        let plan = self.subs.plan_refresh(&self.engine, id);
        for sub in &plan.probes {
            sub.refresh(&self.engine, id, attrs, &mut self.ctx, &mut self.probe);
        }
        for sub in &plan.verifies {
            sub.verify(&self.engine);
        }
        self.engine.top_k_into(
            scorer,
            k,
            Window::lookback(id, tau),
            &mut self.ctx,
            &mut self.probe,
        );
        self.probe.admits_score(scorer.score(attrs))
    }

    /// Registers a standing `DurTop` query on the stream: the answer set
    /// over the already-pushed prefix is materialized once, then every
    /// [`push`](StreamingMonitor::push) keeps it current incrementally
    /// (with the same zero-change skyband gate the serving layer uses).
    /// Read it back with [`subscription`](StreamingMonitor::subscription)
    /// or drain increments with [`take_delta`](StreamingMonitor::take_delta).
    pub fn subscribe(&mut self, req: ServeRequest) -> Result<SubscriptionId, QueryError> {
        self.subs.register(&self.engine, req, false)
    }

    /// Like [`subscribe`](StreamingMonitor::subscribe), but re-verifies
    /// the materialized set against a full recompute at every shard seal.
    pub fn subscribe_verified(&mut self, req: ServeRequest) -> Result<SubscriptionId, QueryError> {
        self.subs.register(&self.engine, req, true)
    }

    /// A snapshot of one standing query's materialized answer set and
    /// counters, or `None` for an unknown id.
    pub fn subscription(&self, id: SubscriptionId) -> Option<SubscriptionSnapshot> {
        Some(self.subs.get(id)?.snapshot())
    }

    /// Drains the records a standing query admitted since the last drain,
    /// in arrival order, or `None` for an unknown id.
    pub fn take_delta(&self, id: SubscriptionId) -> Option<Vec<RecordId>> {
        Some(self.subs.get(id)?.take_delta())
    }

    /// Removes a standing query; returns whether it existed.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        self.subs.unsubscribe(id)
    }

    /// Direct access to the building block: `Q(u, k, W)` over the ingested
    /// history, served by the sharded fan-out.
    pub fn top_k<S: OracleScorer + ?Sized>(&self, scorer: &S, k: usize, w: Window) -> TopKResult {
        self.engine.top_k(scorer, k, w)
    }

    /// Historical `DurTop(k, I, τ)` over everything ingested so far, served
    /// by T-Hop (or S-Hop for `score_prioritized = true`).
    ///
    /// For `τ ≤` the engine's `max_tau` the query fans out across the
    /// shards (exact, parallel). Beyond that bound the shard overlap
    /// cannot localize durability windows, so the monitor runs the same
    /// algorithm on the ingesting thread with the sharded top-k building
    /// block as its oracle (exact for *any* window) and flags the
    /// substitution as [`FallbackReason::TauBeyondOverlap`] — the
    /// *expected* overlap miss, still exact and still index-accelerated,
    /// just without the per-shard fan-out. The reason keeps it
    /// distinguishable from a genuinely missing index in regression
    /// gates.
    pub fn query<S: OracleScorer + Sync + ?Sized>(
        &self,
        scorer: &S,
        query: &DurableQuery,
        score_prioritized: bool,
    ) -> QueryResult {
        if query.tau <= self.engine.max_tau() {
            return if score_prioritized {
                self.engine.query(Algorithm::SHop, scorer, query)
            } else {
                self.engine.query(Algorithm::THop, scorer, query)
            };
        }
        let history = self.history();
        let oracle = EngineOracle { engine: &self.engine, ctx: RefCell::new(QueryContext::new()) };
        let mut ctx = QueryContext::new();
        let mut result = if score_prioritized {
            s_hop(&history, &oracle, scorer, query, RefillMode::TopK, &mut ctx)
        } else {
            t_hop(&history, &oracle, scorer, query, &mut ctx)
        };
        result.stats.fallback = Some(FallbackReason::TauBeyondOverlap);
        // The oracle's probes ran through `top_k_into`, whose cold reads
        // land in the context scratch rather than per-probe stats; drain
        // them so the fallback's answer carries its real cold-tier cost.
        result.stats.cold_page_hits += oracle.ctx.into_inner().take_cold_page_hits();
        result
    }

    /// Ids of the records currently in `π≤k` of the most recent τ-window
    /// (the "current champions" view of continuous monitoring).
    pub fn current_top<S: OracleScorer + ?Sized>(
        &self,
        scorer: &S,
        k: usize,
        tau: Time,
    ) -> Vec<RecordId> {
        if self.engine.is_empty() {
            return Vec::new();
        }
        let t = (self.engine.len() - 1) as Time;
        self.top_k(scorer, k, Window::lookback(t, tau))
            .items
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Algorithm, DurableTopKEngine};
    use durable_topk_temporal::LinearScorer;
    use rand::prelude::*;

    fn stream(dim: usize, leaf_size: usize, shard_span: usize, max_tau: Time) -> StreamingMonitor {
        StreamingMonitor::new(EngineConfig::new(dim, shard_span, max_tau).leaf_size(leaf_size))
            .expect("config")
    }

    #[test]
    fn push_classification_matches_offline_query() {
        let mut rng = StdRng::seed_from_u64(404);
        let mut monitor = stream(2, 8, 4_096, 4_096);
        let scorer = LinearScorer::new(vec![0.5, 0.5]);
        let (k, tau) = (3usize, 20u32);
        let mut online = Vec::new();
        for _ in 0..300 {
            let attrs = [rng.random_range(0..30) as f64, rng.random_range(0..30) as f64];
            if monitor.push(&attrs, &scorer, k, tau) {
                online.push((monitor.len() - 1) as RecordId);
            }
        }
        // Offline: which records were durable at their own arrival?
        let engine = DurableTopKEngine::new(monitor.history().clone());
        let q = DurableQuery { k, tau, interval: Window::new(0, 299) };
        let offline = engine.query(Algorithm::THop, &scorer, &q);
        assert_eq!(online, offline.records);
    }

    #[test]
    fn push_classification_survives_shard_sealing() {
        // Tight bounds force many seals mid-stream; classifications and
        // historical queries must not notice.
        let mut rng = StdRng::seed_from_u64(405);
        let mut monitor = stream(2, 4, 16, 24);
        let scorer = LinearScorer::new(vec![0.4, 0.6]);
        let (k, tau) = (2usize, 24u32);
        let mut online = Vec::new();
        for _ in 0..200 {
            let attrs = [rng.random_range(0..12) as f64, rng.random_range(0..12) as f64];
            if monitor.push(&attrs, &scorer, k, tau) {
                online.push((monitor.len() - 1) as RecordId);
            }
        }
        assert!(monitor.engine().sealed_shards() > 5, "bounds must force seals");
        let engine = DurableTopKEngine::new(monitor.history().clone());
        let q = DurableQuery { k, tau, interval: Window::new(0, 199) };
        assert_eq!(online, engine.query(Algorithm::THop, &scorer, &q).records);
        assert_eq!(monitor.query(&scorer, &q, false).records, online);
    }

    #[test]
    fn historical_queries_through_the_engine() {
        let mut monitor = stream(1, 4, 4_096, 4_096);
        let scorer = LinearScorer::new(vec![1.0]);
        for i in 0..200u32 {
            monitor.push(&[((i * 31) % 57) as f64], &scorer, 1, 10);
        }
        let q = DurableQuery { k: 2, tau: 25, interval: Window::new(50, 199) };
        let via_engine = monitor.query(&scorer, &q, false);
        let via_engine_shop = monitor.query(&scorer, &q, true);
        let engine = DurableTopKEngine::new(monitor.history().clone());
        let reference = engine.query(Algorithm::TBase, &scorer, &q);
        assert_eq!(via_engine.records, reference.records);
        assert_eq!(via_engine_shop.records, reference.records);
        assert!(via_engine.stats.fallback.is_none(), "tau within the bound needs no fallback");
    }

    #[test]
    fn tau_beyond_the_bound_falls_back_exactly() {
        let mut monitor = stream(1, 4, 32, 16);
        let scorer = LinearScorer::new(vec![1.0]);
        for i in 0..120u32 {
            monitor.push(&[((i * 13) % 37) as f64], &scorer, 1, 8);
        }
        let q = DurableQuery { k: 2, tau: 50, interval: Window::new(0, 119) };
        let got = monitor.query(&scorer, &q, false);
        assert_eq!(
            got.stats.fallback,
            Some(FallbackReason::TauBeyondOverlap),
            "tau 50 > max_tau 16 must be flagged as the expected overlap miss"
        );
        assert!(got.stats.fallback.expect("set").is_expected());
        let engine = DurableTopKEngine::new(monitor.history().clone());
        assert_eq!(got.records, engine.query(Algorithm::THop, &scorer, &q).records);
        let shop = monitor.query(&scorer, &q, true);
        assert_eq!(shop.records, got.records);
    }

    #[test]
    fn bootstrapping_from_history() {
        let ds = Dataset::from_rows(1, (0..50).map(|i| [i as f64]));
        let mut monitor =
            StreamingMonitor::from_history(EngineConfig::new(1, 4_096, 4_096).leaf_size(4), ds)
                .expect("config");
        assert_eq!(monitor.len(), 50);
        let scorer = LinearScorer::new(vec![1.0]);
        // Increasing data: every newcomer is durable.
        assert!(monitor.push(&[100.0], &scorer, 1, 30));
        // A low value is not.
        assert!(!monitor.push(&[-1.0], &scorer, 1, 30));
    }

    #[test]
    fn scan_fallback_survives_without_a_duplicate_history() {
        // Regression guard for the PR 6 dedup: the monitor no longer keeps
        // its own copy of every record, so the τ > max_tau scan fallback
        // must reconstruct the history from the shards — across sealed
        // tails, in-flight seals and the mutable head — and keep the cache
        // consistent as the stream grows between fallback queries.
        let mut monitor = stream(2, 4, 16, 8);
        let scorer = LinearScorer::new(vec![0.6, 0.4]);
        let row = |i: u32| [((i * 37) % 101) as f64, ((i * 73) % 97) as f64];
        for i in 0..100u32 {
            monitor.push(&row(i), &scorer, 1, 4);
        }
        // First fallback: materializes the cache from the shards.
        let q1 = DurableQuery { k: 2, tau: 40, interval: Window::new(0, 99) };
        let got1 = monitor.query(&scorer, &q1, false);
        assert_eq!(got1.stats.fallback, Some(FallbackReason::TauBeyondOverlap));
        let flat1 = DurableTopKEngine::new(monitor.history().clone());
        assert_eq!(got1.records, flat1.query(Algorithm::THop, &scorer, &q1).records);
        // Keep streaming, then fall back again: the cache tops up with
        // exactly the new arrivals (no stale or duplicated rows).
        for i in 100..150u32 {
            monitor.push(&row(i), &scorer, 1, 4);
        }
        let q2 = DurableQuery { k: 2, tau: 40, interval: Window::new(0, 149) };
        let got2 = monitor.query(&scorer, &q2, true);
        assert_eq!(got2.stats.fallback, Some(FallbackReason::TauBeyondOverlap));
        assert_eq!(monitor.history().len(), 150);
        let expected = Dataset::from_rows(2, (0..150).map(row));
        assert_eq!(monitor.history().raw_attrs(), expected.raw_attrs());
        let flat2 = DurableTopKEngine::new(expected);
        assert_eq!(got2.records, flat2.query(Algorithm::SHop, &scorer, &q2).records);
    }

    #[test]
    fn standing_queries_track_the_stream_across_seals() {
        use crate::serve::{ScorerSpec, ServeRequest};
        let mut rng = StdRng::seed_from_u64(406);
        let mut monitor =
            StreamingMonitor::new(EngineConfig::new(2, 16, 24).leaf_size(4).skyband_bound(4))
                .expect("config");
        let push_scorer = LinearScorer::new(vec![0.5, 0.5]);
        let mut row = |_: u32| [rng.random_range(0..12) as f64, rng.random_range(0..12) as f64];
        for i in 0..60u32 {
            monitor.push(&row(i), &push_scorer, 1, 4);
        }
        // Subscribe mid-stream with a different scorer than push uses.
        let req = ServeRequest {
            alg: Algorithm::THop,
            query: DurableQuery { k: 2, tau: 20, interval: Window::new(10, u32::MAX) },
            scorer: ScorerSpec::Linear(vec![0.3, 0.7]),
        };
        let id = monitor.subscribe_verified(req).expect("valid");
        for i in 60..200u32 {
            monitor.push(&row(i), &push_scorer, 1, 4);
        }
        assert!(monitor.engine().sealed_shards() > 5, "bounds must force seals");
        let snap = monitor.subscription(id).expect("registered");
        assert!(!snap.diverged, "seal verifications must agree with the fast path");
        let sub_scorer = LinearScorer::new(vec![0.3, 0.7]);
        let q = DurableQuery { k: 2, tau: 20, interval: Window::new(10, 199) };
        let expected = monitor.engine().try_query(Algorithm::THop, &sub_scorer, &q).expect("ok");
        assert_eq!(snap.records, expected.records);
        assert!(snap.fast_path_skips > 0, "the skyband gate must fire on a random stream");
        assert!(monitor.unsubscribe(id));
        assert!(monitor.subscription(id).is_none());
    }

    #[test]
    fn current_top_reflects_recent_window() {
        let mut monitor = stream(1, 4, 4_096, 4_096);
        let scorer = LinearScorer::new(vec![1.0]);
        for v in [5.0, 9.0, 1.0, 7.0] {
            monitor.push(&[v], &scorer, 2, 2);
        }
        // Window [1, 3] (tau=2 back from t=3): values 9, 1, 7 -> top-2 = {1, 3}.
        assert_eq!(monitor.current_top(&scorer, 2, 2), vec![1, 3]);
    }
}
