//! Standing-query subscriptions: materialized `DurTop(k, I, τ)` answer
//! sets maintained incrementally from the append path.
//!
//! A dashboard serving the same durable top-k to many viewers should not
//! re-run the full query per page load. It registers the request once; the
//! registry keeps the answer set current as records arrive, for a fraction
//! of a full recompute.
//!
//! The whole design rests on one property of the paper's query: durability
//! is *look-back only*. Whether record `p` belongs to `DurTop(k, I, τ)`
//! depends solely on the `τ` records preceding `p` — later arrivals can
//! never evict it and never promote it. A standing result set is therefore
//! **append-monotone**: maintaining it exactly means deciding, once per
//! arrival, whether the newcomer joins — existing entries are settled
//! forever. That single decision is a bounded probe: one look-back top-k
//! (`Q(u, k, [t−τ, t])`) plus an admission check — which also makes a
//! standing `DurTop(k, [0, ∞), τ)` the per-arrival alert of continuous
//! monitoring. No eviction re-pull exists because no eviction exists.
//!
//! Three tiers of per-arrival work, cheapest first:
//!
//! 1. **Zero-change fast path** — the arrival is outside every
//!    subscription's interval, or (for monotone scorers, `k` within the
//!    engine's skyband bound) the head shard's
//!    [`IncrementalSkybandIndex`] verdict — computed on append anyway —
//!    shows a skyband duration
//!    `< τ`, proving the arrival can never enter that standing top-k. No
//!    subscription is touched.
//! 2. **Bounded refresh** — only the affected subscriptions run the
//!    look-back probe; an admitted arrival is inserted in id order.
//! 3. **Full recompute** — registration materializes the initial set via
//!    [`ShardedEngine::try_query`], and subscriptions registered with
//!    seal-boundary verification re-run it whenever the engine rotates its
//!    head, reconciling the incremental state against the oracle answer
//!    (divergence is recorded, never silently patched). Non-monotone
//!    scorers skip tier 1 (the skyband gate argument needs monotonicity)
//!    but stay exact through tier 2: the probe itself is scorer-agnostic.
//!
//! The registry is engine-agnostic glue with one driver:
//! [`ServeEngine::append`](crate::ServeEngine::append) plans under its
//! write lock and runs the plan on the appending thread once the lock is
//! released, so the append returns with every subscription current.
//!
//! [`IncrementalSkybandIndex`]: durable_topk_index::IncrementalSkybandIndex

use crate::check::{LockClass, TrackedMutex};
use crate::context::QueryContext;
use crate::error::QueryError;
use crate::query::DurableQuery;
use crate::serve::{RunQuery, ScorerVisitor, ServeRequest};
use crate::sharded::ShardedEngine;
use crate::sync::lock;
use durable_topk_index::{OracleScorer, TopKResult};
use durable_topk_temporal::{RecordId, Time, Window};
use std::sync::Arc;

/// Identifies one registered subscription within its registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubscriptionId(u64);

/// A point-in-time view of one subscription: the materialized answer set
/// plus its maintenance counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubscriptionSnapshot {
    /// The standing answer set: τ-durable records of the subscribed
    /// interval, in increasing arrival order.
    pub records: Vec<RecordId>,
    /// Bounded per-arrival probes run for this subscription.
    pub refreshes: u64,
    /// Arrivals inside the interval skipped by the skyband gate without a
    /// probe (monotone scorers under the engine's skyband bound).
    pub fast_path_skips: u64,
    /// Full `try_query` recomputes (initial materialization plus any
    /// seal-boundary verifications).
    pub full_recomputes: u64,
    /// Whether the interval's last record has arrived and been refreshed —
    /// the result set is final (durability never changes retroactively).
    pub complete: bool,
    /// Whether a seal-boundary verification ever contradicted the
    /// incremental state, or a refresh failed. Should stay `false`; a
    /// `true` is a bug surfaced, not repaired.
    pub diverged: bool,
}

/// Aggregate counters across a whole registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubscriptionTotals {
    /// Currently registered subscriptions.
    pub subscriptions: usize,
    /// Bounded per-arrival probes run across all subscriptions.
    pub refreshes: u64,
    /// Appends (with at least one subscription registered) that touched
    /// no subscription at all — the zero-change fast path.
    pub fast_path_skips: u64,
    /// Full `try_query` recomputes (registrations plus seal-boundary
    /// verifications).
    pub full_recomputes: u64,
}

/// Tier 2 as a [`ScorerVisitor`]: the look-back probe for one arrival plus
/// its admission test.
struct ProbeArrival<'a> {
    engine: &'a ShardedEngine,
    query: &'a DurableQuery,
    id: RecordId,
    attrs: &'a [f64],
    ctx: &'a mut QueryContext,
    out: &'a mut TopKResult,
}

impl ScorerVisitor for ProbeArrival<'_> {
    type Output = bool;

    fn visit<S: OracleScorer + Sync + ?Sized>(self, scorer: &S) -> bool {
        let window = Window::lookback(self.id, self.query.tau);
        let score = scorer.score(self.attrs);
        self.engine.durable_into(scorer, self.query.k, window, score, self.ctx, self.out)
    }
}

/// Whether the resolved scorer is monotone (the precondition of the
/// skyband fast-path gate).
struct IsMonotone;

impl ScorerVisitor for IsMonotone {
    type Output = bool;

    fn visit<S: OracleScorer + Sync + ?Sized>(self, scorer: &S) -> bool {
        scorer.is_monotone()
    }
}

/// Tier 3's full recompute: `req` with its interval clipped to the
/// ingested prefix, through [`ShardedEngine::try_query`]. `None` while the
/// prefix holds no record of the interval.
fn recompute(
    engine: &ShardedEngine,
    req: &ServeRequest,
) -> Result<Option<Vec<RecordId>>, QueryError> {
    let q = req.query;
    let len = engine.len();
    if len == 0 || (q.interval.start() as usize) >= len {
        return Ok(None);
    }
    let upto = q.interval.end().min((len - 1) as Time);
    let clipped = DurableQuery { interval: Window::new(q.interval.start(), upto), ..q };
    let run = RunQuery { engine, alg: req.alg, query: &clipped };
    Ok(Some(req.scorer.resolve(engine.dim(), run)??.records))
}

/// Mutable half of one subscription, behind its own lock so appends
/// running its refresh never contend on the registry itself.
#[derive(Debug, Default)]
struct SubState {
    /// Materialized answer set, sorted by arrival id.
    records: Vec<RecordId>,
    /// Records admitted since the last [`Subscription::take_delta`].
    delta: Vec<RecordId>,
    refreshes: u64,
    fast_path_skips: u64,
    full_recomputes: u64,
    complete: bool,
    diverged: bool,
}

impl SubState {
    /// Sorted, idempotent insert — with several appending threads,
    /// refreshes may land out of arrival order and a seal-boundary
    /// verification may race another append's probe; both paths compute
    /// the same truth, so inserting a record twice must be a no-op.
    fn admit(&mut self, id: RecordId) {
        if let Err(pos) = self.records.binary_search(&id) {
            self.records.insert(pos, id);
            self.delta.push(id);
        }
    }
}

/// One standing request plus its materialized state. Shared (`Arc`)
/// between the registry and the refresh plans of running appends.
#[derive(Debug)]
pub(crate) struct Subscription {
    id: u64,
    req: ServeRequest,
    /// Monotone scorer ⇒ the skyband gate applies.
    monotone: bool,
    /// Re-run the full recompute oracle at every seal boundary.
    verify_on_seal: bool,
    /// Ranked below the registry lock: `plan_refresh` locks it under the
    /// registry (and the engine write lock), refreshes under the engine
    /// read lock alone.
    state: TrackedMutex<SubState>,
}

impl Subscription {
    /// Tier 2: the bounded per-arrival check. One look-back top-k probe
    /// over the shards intersecting `[id − τ, id]` plus an admission
    /// test; an admitted arrival joins the materialized set. Exact for
    /// *any* scorer — monotonicity only matters for skipping this probe,
    /// never for running it.
    pub(crate) fn refresh(
        &self,
        engine: &ShardedEngine,
        id: RecordId,
        attrs: &[f64],
        ctx: &mut QueryContext,
        out: &mut TopKResult,
    ) {
        let probe = ProbeArrival { engine, query: &self.req.query, id, attrs, ctx, out };
        let admitted = self.req.scorer.resolve(engine.dim(), probe);
        let mut state = lock(&self.state);
        state.refreshes += 1;
        // Under the lock that admits `id`: no poll sees the interval
        // complete before its last arrival's admission.
        state.complete |= id == self.req.query.interval.end();
        match admitted {
            Ok(true) => state.admit(id),
            Ok(false) => {}
            // The spec was validated at registration; reaching this means
            // the engine changed shape underneath us — surface, don't guess.
            Err(_) => state.diverged = true,
        }
    }

    /// Tier 3: the correctness oracle. Recomputes the covered prefix via
    /// [`ShardedEngine::try_query`] and reconciles: the incremental state
    /// must be a *subset* of the oracle answer (another appender's probe
    /// may not have landed yet — it can only add records the oracle
    /// already agrees on); anything the oracle disowns marks the
    /// subscription diverged. Missing records are filled in, so a verified
    /// subscription is also fully caught up to the recompute point.
    pub(crate) fn verify(&self, engine: &ShardedEngine) {
        let fresh = match recompute(engine, &self.req) {
            Ok(None) => return,
            fresh => fresh,
        };
        let mut state = lock(&self.state);
        state.full_recomputes += 1;
        let Ok(Some(fresh)) = fresh else {
            state.diverged = true;
            return;
        };
        // Every admitted record arrived before this recompute and lies in
        // the interval, so the oracle covers all of them.
        if state.records.iter().any(|r| fresh.binary_search(r).is_err()) {
            state.diverged = true;
        }
        for r in fresh {
            state.admit(r);
        }
    }

    /// Marks the subscription diverged: the plan for arrival `id` panicked.
    /// The interval still ends if `id` is its last record.
    pub(crate) fn mark_diverged(&self, id: RecordId) {
        let mut state = lock(&self.state);
        state.diverged = true;
        state.complete |= id == self.req.query.interval.end();
    }

    /// A point-in-time copy of the materialized state.
    pub(crate) fn snapshot(&self) -> SubscriptionSnapshot {
        let state = lock(&self.state);
        SubscriptionSnapshot {
            records: state.records.clone(),
            refreshes: state.refreshes,
            fast_path_skips: state.fast_path_skips,
            full_recomputes: state.full_recomputes,
            complete: state.complete,
            diverged: state.diverged,
        }
    }

    /// Drains the records admitted since the last call, in arrival order.
    pub(crate) fn take_delta(&self) -> Vec<RecordId> {
        let mut delta = std::mem::take(&mut lock(&self.state).delta);
        delta.sort_unstable();
        delta
    }
}

/// The per-arrival work one append produced: subscriptions needing the
/// bounded probe, and subscriptions due a seal-boundary verification.
/// Built under the engine lock (classification reads the head skyband),
/// executed after it is released, by the appending thread of
/// [`ServeEngine::append`](crate::ServeEngine::append).
#[derive(Debug, Default)]
pub(crate) struct RefreshPlan {
    pub(crate) probes: Vec<Arc<Subscription>>,
    pub(crate) verifies: Vec<Arc<Subscription>>,
}

impl RefreshPlan {
    /// Whether the append touches no subscription (the zero-change fast
    /// path).
    pub(crate) fn is_empty(&self) -> bool {
        self.probes.is_empty() && self.verifies.is_empty()
    }
}

/// The subscription registry: registered standing requests plus the
/// classification logic the append path runs per arrival. Engine-agnostic
/// — the owner decides where plans execute.
#[derive(Debug, Default)]
pub(crate) struct SubscriptionRegistry {
    subs: Vec<Arc<Subscription>>,
    next_id: u64,
    /// The engine's sealed shards as of the last planned append — a
    /// difference means a shard boundary was crossed since.
    last_sealed: usize,
    refreshes: u64,
    fast_path_skips: u64,
    full_recomputes: u64,
}

impl SubscriptionRegistry {
    /// An empty registry anchored at the engine's current sealed shards
    /// (so pre-existing shards never trigger a spurious boundary event).
    pub(crate) fn anchored(engine: &ShardedEngine) -> Self {
        Self { last_sealed: engine.sealed_shards(), ..Self::default() }
    }

    /// Registers a standing request and materializes its initial answer
    /// set over the already-ingested prefix (one full recompute).
    ///
    /// Validation mirrors the serving path: zero `k`/`τ`, weight-vector
    /// arity and weights the scorer family cannot take all come back as
    /// typed [`QueryError`]s. Any `τ` is exact.
    pub(crate) fn register(
        &mut self,
        engine: &ShardedEngine,
        req: ServeRequest,
        verify_on_seal: bool,
    ) -> Result<SubscriptionId, QueryError> {
        let q = req.query;
        if q.k == 0 {
            return Err(QueryError::ZeroK);
        }
        if q.tau == 0 {
            return Err(QueryError::ZeroTau);
        }
        let monotone = req.scorer.resolve(engine.dim(), IsMonotone)?;
        let mut state = SubState::default();
        if let Some(records) = recompute(engine, &req)? {
            state.delta = records.clone();
            state.records = records;
            state.full_recomputes = 1;
            self.full_recomputes += 1;
        }
        state.complete = (q.interval.end() as usize) < engine.len();
        let id = self.next_id;
        self.next_id += 1;
        self.subs.push(Arc::new(Subscription {
            id,
            req,
            monotone,
            verify_on_seal,
            state: TrackedMutex::new(LockClass::SubscriptionState, state),
        }));
        Ok(SubscriptionId(id))
    }

    /// Classifies one arrival against every subscription — tier 1 of the
    /// refresh ladder, run under the engine lock right after the append.
    /// Returns the (possibly empty) plan of probes and verifications to
    /// execute once the lock is released.
    pub(crate) fn plan_refresh(&mut self, engine: &ShardedEngine, id: RecordId) -> RefreshPlan {
        let sealed = engine.sealed_shards();
        let seal_crossed = sealed != self.last_sealed;
        self.last_sealed = sealed;
        let mut plan = RefreshPlan::default();
        if self.subs.is_empty() {
            return plan;
        }
        for sub in &self.subs {
            let q = &sub.req.query;
            let complete = lock(&sub.state).complete;
            if seal_crossed && sub.verify_on_seal && !complete {
                plan.verifies.push(Arc::clone(sub));
            }
            if complete || !q.interval.contains(id) {
                continue;
            }
            if sub.monotone {
                // The head's skyband index classified this arrival on append;
                // a duration below the subscription's τ proves it cannot
                // be durable there. Sound only for monotone scorers (the
                // S-Band superset argument), hence the flag.
                if let Some(duration) = engine.arrival_skyband_duration(q.k) {
                    if duration < q.tau {
                        let mut state = lock(&sub.state);
                        state.fast_path_skips += 1;
                        // Skipping the interval's last arrival settles it.
                        state.complete |= id == q.interval.end();
                        continue;
                    }
                }
            }
            plan.probes.push(Arc::clone(sub));
        }
        if plan.is_empty() {
            self.fast_path_skips += 1;
        } else {
            self.refreshes += plan.probes.len() as u64;
            self.full_recomputes += plan.verifies.len() as u64;
        }
        plan
    }

    /// Removes a subscription; returns whether it existed.
    pub(crate) fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        let before = self.subs.len();
        self.subs.retain(|s| s.id != id.0);
        self.subs.len() != before
    }

    /// The subscription behind an id, if still registered.
    pub(crate) fn get(&self, id: SubscriptionId) -> Option<Arc<Subscription>> {
        self.subs.iter().find(|s| s.id == id.0).map(Arc::clone)
    }

    /// Aggregate counters across every subscription.
    pub(crate) fn totals(&self) -> SubscriptionTotals {
        SubscriptionTotals {
            subscriptions: self.subs.len(),
            refreshes: self.refreshes,
            fast_path_skips: self.fast_path_skips,
            full_recomputes: self.full_recomputes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Algorithm;
    use crate::serve::ScorerSpec;
    use durable_topk_temporal::{Dataset, LinearScorer};

    fn row(i: u32) -> [f64; 2] {
        [((i * 37) % 101) as f64, ((i * 73) % 97) as f64]
    }

    fn request(k: usize, tau: Time, interval: Window) -> ServeRequest {
        ServeRequest {
            alg: Algorithm::THop,
            query: DurableQuery { k, tau, interval },
            scorer: ScorerSpec::Linear(vec![0.6, 0.4]),
        }
    }

    #[test]
    fn registration_materializes_and_appends_refresh_incrementally() {
        let mut engine =
            crate::EngineConfig::new(2, 32, 16).skyband_bound(4).build().expect("config");
        for i in 0..100u32 {
            engine.append(&row(i));
        }
        let mut registry = SubscriptionRegistry::anchored(&engine);
        let req = request(2, 10, Window::new(0, u32::MAX));
        let id = registry.register(&engine, req, true).expect("valid");
        let sub = registry.get(id).expect("registered");
        // Initial set matches the oracle over the ingested prefix.
        let scorer = LinearScorer::new(vec![0.6, 0.4]);
        let q = DurableQuery { k: 2, tau: 10, interval: Window::new(0, 99) };
        let expected = engine.try_query(Algorithm::THop, &scorer, &q).expect("query");
        assert_eq!(sub.snapshot().records, expected.records);
        // Stream on, executing every plan inline.
        let mut ctx = QueryContext::new();
        let mut out = TopKResult::empty();
        for i in 100..220u32 {
            let attrs = row(i);
            let id = engine.append(&attrs);
            let plan = registry.plan_refresh(&engine, id);
            for sub in &plan.probes {
                sub.refresh(&engine, id, &attrs, &mut ctx, &mut out);
            }
            for sub in &plan.verifies {
                sub.verify(&engine);
            }
        }
        let q = DurableQuery { k: 2, tau: 10, interval: Window::new(0, 219) };
        let expected = engine.try_query(Algorithm::THop, &scorer, &q).expect("query");
        let snap = sub.snapshot();
        assert_eq!(snap.records, expected.records);
        assert!(!snap.diverged, "seal-boundary verifications must agree");
        assert!(snap.full_recomputes > 1, "220 appends over span 32 cross seal boundaries");
        // The gate spared real work: some arrivals probed, some skipped
        // without touching the subscription, and no append did both.
        let totals = registry.totals();
        assert_eq!(totals.subscriptions, 1);
        assert!(totals.refreshes > 0, "durable arrivals must probe");
        assert!(totals.fast_path_skips > 0, "the skyband gate must skip non-durable arrivals");
        // Per-sub skips can exceed the registry's: a seal-crossing append
        // may gate-skip the probe yet still plan a verification.
        assert!(snap.fast_path_skips >= totals.fast_path_skips);
        assert!(totals.refreshes + totals.fast_path_skips <= 120);
        // The delta drains exactly the standing set, once.
        let mut seen = sub.take_delta();
        seen.sort_unstable();
        assert_eq!(seen, snap.records);
        assert!(sub.take_delta().is_empty());
    }

    #[test]
    fn registration_validates_like_the_serving_path() {
        let mut engine = crate::EngineConfig::new(2, 32, 16).build().expect("config");
        engine.append(&row(0));
        let mut registry = SubscriptionRegistry::anchored(&engine);
        let w = Window::new(0, u32::MAX);
        assert_eq!(
            registry.register(&engine, request(0, 8, w), false).unwrap_err(),
            QueryError::ZeroK
        );
        assert_eq!(
            registry.register(&engine, request(1, 0, w), false).unwrap_err(),
            QueryError::ZeroTau
        );
        // τ beyond `max_tau` registers, and materializes the flat answer.
        let mut rows = Dataset::from_rows(2, [row(0)]);
        for i in 1..100u32 {
            engine.append(&row(i));
            rows.push(&row(i));
        }
        let wide = registry.register(&engine, request(2, 40, w), false).expect("any τ");
        let scorer = LinearScorer::new(vec![0.6, 0.4]);
        let q = DurableQuery { k: 2, tau: 40, interval: Window::new(0, 99) };
        let flat = crate::engine::tests::flat(&rows, None).query(Algorithm::THop, &scorer, &q);
        assert_eq!(registry.get(wide).expect("registered").snapshot().records, flat.records);
        assert!(registry.unsubscribe(wide));
        let skewed =
            ServeRequest { scorer: ScorerSpec::Linear(vec![1.0, 2.0, 3.0]), ..request(1, 8, w) };
        assert_eq!(
            registry.register(&engine, skewed, false).unwrap_err(),
            QueryError::Arity { expected: 2, got: 3 }
        );
        assert_eq!(registry.totals().subscriptions, 0);
    }

    #[test]
    fn fixed_intervals_complete_and_stop_matching() {
        let mut engine = crate::EngineConfig::new(2, 64, 8).build().expect("config");
        for i in 0..10u32 {
            engine.append(&row(i));
        }
        let mut registry = SubscriptionRegistry::anchored(&engine);
        let id = registry.register(&engine, request(1, 4, Window::new(0, 19)), false).expect("ok");
        let sub = registry.get(id).expect("registered");
        assert!(!sub.snapshot().complete);
        let mut ctx = QueryContext::new();
        let mut out = TopKResult::empty();
        for i in 10..40u32 {
            let attrs = row(i);
            let at = engine.append(&attrs);
            let plan = registry.plan_refresh(&engine, at);
            for sub in &plan.probes {
                assert!(at <= 19, "arrivals past the interval must not probe");
                sub.refresh(&engine, at, &attrs, &mut ctx, &mut out);
            }
        }
        let snap = sub.snapshot();
        assert!(snap.complete, "the stream passed the interval end");
        assert!(snap.records.iter().all(|&r| r <= 19));
        // Unsubscribing removes it; the id stops resolving.
        assert!(registry.unsubscribe(id));
        assert!(!registry.unsubscribe(id));
        assert!(registry.get(id).is_none());
    }
}
