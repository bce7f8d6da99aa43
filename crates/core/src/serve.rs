//! A request-queue serving layer over the persistent worker pool.
//!
//! The offline engine answers one query per call, on the caller's thread.
//! A deployment serving many clients needs the opposite shape: requests
//! arrive faster and more concurrently than any one caller, and the
//! process must absorb bursts, bound its memory, fail bad requests
//! gracefully, and keep ingesting new records while it serves.
//! [`ServeEngine`] is that shape:
//!
//! * **Bounded MPMC queue** — any number of threads
//!   [`submit`](ServeEngine::submit) requests; the queue holds at most
//!   `capacity` of them. When full, [`Backpressure::Block`] parks the
//!   submitter until space frees, [`Backpressure::Reject`] fails fast with
//!   [`ServeError::QueueFull`].
//! * **Pool-executed** — each accepted request travels in one job on the
//!   process-wide [`WorkerPool`]'s channel, the only queue it waits in;
//!   whichever persistent worker pops the job serves the request. No
//!   thread is ever spawned on the request path (guarded by
//!   [`WorkerPool::threads_spawned`]).
//! * **Completion handles** — `submit` returns a [`ResponseHandle`]
//!   immediately; the response (records, per-request [`QueryStats`], queue
//!   and service latency) arrives on it oneshot-style.
//! * **Graceful errors** — bad request input (zero `k` or `τ`, an
//!   interval past the history, wrong scorer arity; any `τ` itself is
//!   answered) comes back as [`ServeError::Query`] on that request's handle; a panic
//!   during execution comes back as [`ServeError::Panicked`]. Either way
//!   the worker, the queue, and every other request keep going.
//! * **Live ingestion** — [`append`](ServeEngine::append) feeds the
//!   underlying [`ShardedEngine`] under a write lock; a full head is
//!   sealed inside the append that fills it (its trees are joined, not
//!   rebuilt), so no request ever sees a shard between two states.
//! * **Standing queries** — [`subscribe`](ServeEngine::subscribe)
//!   registers a request once; the append path keeps its materialized
//!   answer set current incrementally (see [`crate::subscribe`]), with a
//!   zero-change fast path for arrivals the head skyband proves
//!   irrelevant. The appending thread runs the refresh itself, so an
//!   `append` returns with every subscription reflecting its arrival.
//! * **Graceful shutdown** — [`shutdown`](ServeEngine::shutdown) stops
//!   accepting, then drains: every already-queued request is still served
//!   and its handle fulfilled.

use crate::check::{LockClass, TrackedCondvar, TrackedMutex, TrackedReadGuard, TrackedRwLock};
use crate::context::QueryContext;
use crate::engine::Algorithm;
use crate::error::QueryError;
use crate::pool::WorkerPool;
use crate::query::{DurableQuery, QueryResult, QueryStats};
use crate::sharded::ShardedEngine;
use crate::subscribe::{
    RefreshPlan, SubscriptionId, SubscriptionRegistry, SubscriptionSnapshot, SubscriptionTotals,
};
use crate::sync::{lock, OnceSlot};
use durable_topk_index::{OracleScorer, TopKResult};
use durable_topk_temporal::{CosineScorer, LinearScorer, RecordId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The scoring function of one request, by value — serving requests are
/// data, so the scorer travels as parameters, not as a borrowed generic.
#[derive(Clone)]
pub enum ScorerSpec {
    /// Uniform linear weights over every attribute.
    Uniform,
    /// Linear scorer with explicit weights (arity-checked against the
    /// engine's dimension at execution time).
    Linear(Vec<f64>),
    /// Cosine similarity against a preference vector (non-monotone;
    /// served through admissible bounding-box bounds).
    Cosine(Vec<f64>),
    /// An arbitrary shared scorer — the escape hatch for embedding
    /// callers (and for fault-injection tests).
    Custom(Arc<dyn OracleScorer + Send + Sync>),
}

/// A computation generic over the concrete scorer a [`ScorerSpec`] resolves
/// to. [`ScorerSpec::resolve`] calls [`visit`](ScorerVisitor::visit) with a
/// `&LinearScorer` or `&CosineScorer`, so everything the visitor runs — the
/// shard fan-out, the five algorithms, the segment-tree probes — is
/// monomorphized for that type and scores records without virtual calls.
pub(crate) trait ScorerVisitor {
    /// What the computation returns.
    type Output;

    /// Runs the computation with the resolved scorer.
    fn visit<S: OracleScorer + Sync + ?Sized>(self, scorer: &S) -> Self::Output;
}

impl ScorerSpec {
    /// Turns the spec back into scoring code for a `dim`-attribute engine
    /// and hands it to `visitor` — the one place serving, subscriptions and
    /// network nodes resolve request data, so validation cannot drift
    /// between them. A weight vector of the wrong arity is
    /// [`QueryError::Arity`]; one its scorer family cannot take (negative
    /// or non-finite linear weights, a non-finite or all-zero cosine
    /// vector) is [`QueryError::InvalidScorer`]. Only `Custom` stays a
    /// trait object.
    pub(crate) fn resolve<V: ScorerVisitor>(
        &self,
        dim: usize,
        visitor: V,
    ) -> Result<V::Output, QueryError> {
        let checked = |w: &Vec<f64>| {
            if w.len() != dim {
                return Err(QueryError::Arity { expected: dim, got: w.len() });
            }
            Ok(w.clone())
        };
        match self {
            ScorerSpec::Uniform => Ok(visitor.visit(&LinearScorer::uniform(dim))),
            ScorerSpec::Linear(w) => {
                let scorer =
                    LinearScorer::try_new(checked(w)?).map_err(QueryError::InvalidScorer)?;
                Ok(visitor.visit(&scorer))
            }
            ScorerSpec::Cosine(w) => {
                let scorer =
                    CosineScorer::try_new(checked(w)?).map_err(QueryError::InvalidScorer)?;
                Ok(visitor.visit(&scorer))
            }
            ScorerSpec::Custom(scorer) => Ok(visitor.visit(scorer.as_ref())),
        }
    }
}

// Manual `Debug`: the custom trait object carries no `Debug` bound.
impl std::fmt::Debug for ScorerSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScorerSpec::Uniform => write!(f, "Uniform"),
            ScorerSpec::Linear(w) => f.debug_tuple("Linear").field(w).finish(),
            ScorerSpec::Cosine(w) => f.debug_tuple("Cosine").field(w).finish(),
            ScorerSpec::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

/// One durable top-k request: everything needed to execute
/// `DurTop(k, I, τ)` under a chosen algorithm and scoring function.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Which of the five algorithms serves the request.
    pub alg: Algorithm,
    /// The query parameters (`k`, `τ`, interval).
    pub query: DurableQuery,
    /// The scoring function, by value.
    pub scorer: ScorerSpec,
}

/// What happens when a request arrives and the queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Park the submitting thread until a slot frees (latency absorbs the
    /// burst).
    Block,
    /// Fail the submission immediately with [`ServeError::QueueFull`]
    /// (load shedding; the client decides whether to retry).
    Reject,
}

/// Why a request was not answered.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The queue was full under [`Backpressure::Reject`].
    QueueFull,
    /// The engine is shutting down and no longer accepts requests.
    ShuttingDown,
    /// The request itself was invalid for the engine's current state.
    Query(QueryError),
    /// Execution panicked; only this request failed — the worker and the
    /// queue keep serving.
    Panicked(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "request queue is full"),
            ServeError::ShuttingDown => write!(f, "serving engine is shutting down"),
            ServeError::Query(e) => write!(f, "{e}"),
            ServeError::Panicked(msg) => write!(f, "request execution panicked: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A fulfilled request: the answer plus per-request instrumentation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// τ-durable records in increasing arrival order.
    pub records: Vec<RecordId>,
    /// Execution instrumentation of this request.
    pub stats: QueryStats,
    /// Time the request spent waiting in the queue.
    pub queued: Duration,
    /// Execution time on the worker (including the shard fan-out).
    pub service: Duration,
}

/// The oneshot slot a worker publishes a request's outcome into.
type ResponseSlot = OnceSlot<Result<ServeResponse, ServeError>>;

/// The caller's end of one request: blocks (or polls) until a worker
/// publishes the outcome.
#[derive(Debug)]
pub struct ResponseHandle {
    slot: Arc<ResponseSlot>,
}

impl ResponseHandle {
    /// Blocks until the request completes.
    pub fn wait(self) -> Result<ServeResponse, ServeError> {
        self.slot.take_blocking()
    }

    /// Takes the outcome if the request already completed (non-blocking).
    pub fn try_take(&self) -> Option<Result<ServeResponse, ServeError>> {
        self.slot.try_take()
    }
}

/// Queue accounting guarded by one mutex; the requests themselves wait
/// in the pool's channel.
struct QueueState {
    /// Requests accepted whose job no worker has started yet.
    queued: usize,
    /// Requests accepted but not yet published (queued + executing) —
    /// what shutdown drains.
    outstanding: usize,
    accepting: bool,
}

/// Monotonic serving counters (lock-free reads).
#[derive(Debug, Default)]
struct Counters {
    enqueued: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    max_depth: AtomicU64,
    queue_ns: AtomicU64,
    service_ns: AtomicU64,
    cold_page_hits: AtomicU64,
    /// Appends running a refresh plan right now.
    refreshing: AtomicU64,
    max_refresh_inflight: AtomicU64,
}

/// A point-in-time snapshot of the serving counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests accepted since construction, into the queue or through
    /// [`execute`](ServeEngine::execute).
    pub enqueued: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Submissions refused (queue full or shutting down).
    pub rejected: u64,
    /// Requests that completed with an error (bad input or panic).
    pub failed: u64,
    /// Requests currently waiting in the queue.
    pub depth: usize,
    /// High-water mark of the queue depth.
    pub max_depth: u64,
    /// Cumulative time completed requests spent queued.
    pub total_queued: Duration,
    /// Cumulative execution time of completed requests.
    pub total_service: Duration,
    /// Cumulative physical page reads completed requests paid to fault
    /// spilled record chunks back in (`0` without a pager — the cold-tier
    /// cost of a [`PagedStorage`](crate::PagedStorage) with one).
    pub cold_page_hits: u64,
    /// Standing subscriptions currently registered.
    pub subscriptions: usize,
    /// Bounded per-arrival subscription probes run so far.
    pub refreshes: u64,
    /// Appends (with subscriptions registered) that touched no
    /// subscription — the zero-change fast path.
    pub fast_path_skips: u64,
    /// Full `try_query` recomputes run for subscriptions (registrations
    /// plus seal-boundary verifications).
    pub full_recomputes: u64,
    /// High-water mark of appends refreshing subscriptions at once — the
    /// saturation signal of the subscription workload, mirroring
    /// [`max_depth`](ServeStats::max_depth) for the request queue.
    pub max_refresh_inflight: u64,
    /// Sealed-shard result-cache hits across all traffic through the
    /// engine (requests, subscription seal-boundary recomputes) — each
    /// one skipped a per-shard probe *and* its `storage.fetch`. All four
    /// cache counters stay `0` when no cache is configured.
    pub cache_hits: u64,
    /// Cacheable per-shard probes that ran and memoized their answer.
    pub cache_misses: u64,
    /// Cache entries evicted to stay under the byte budget.
    pub cache_evictions: u64,
    /// Estimated bytes of memoized answers currently resident.
    pub cache_bytes: u64,
}

struct Shared {
    engine: TrackedRwLock<ShardedEngine>,
    state: TrackedMutex<QueueState>,
    /// Signalled when a queue slot frees (Block-mode submitters wait here)
    /// and on shutdown (so parked submitters observe `accepting = false`).
    space: TrackedCondvar,
    /// Signalled when `outstanding` reaches zero (shutdown drain).
    idle: TrackedCondvar,
    capacity: usize,
    backpressure: Backpressure,
    counters: Counters,
    /// Standing-query registry. Lock order: the engine lock (read or
    /// write) is always acquired *before* this mutex, never after —
    /// enforced by [`LockClass::Engine`] < [`LockClass::SubscriptionRegistry`].
    subs: TrackedMutex<SubscriptionRegistry>,
}

impl Shared {
    fn read_engine(&self) -> TrackedReadGuard<'_, ShardedEngine> {
        self.engine.read()
    }

    /// Serves one accepted request — the body of the pool job each
    /// submission sends, which owns the request, its arrival stamp and its
    /// completion slot.
    fn serve(&self, req: &ServeRequest, enqueued: Instant, slot: &ResponseSlot) {
        {
            let mut state = lock(&self.state);
            state.queued -= 1;
            self.space.notify_one();
        }
        slot.publish(self.execute_isolated(req, enqueued.elapsed()));
        let mut state = lock(&self.state);
        state.outstanding -= 1;
        if state.outstanding == 0 {
            self.idle.notify_all();
        }
    }

    /// What the queue's workers and [`ServeEngine::execute`] both run:
    /// [`execute_request`] with panics caught at request granularity,
    /// booked into the serving counters. The read lock is scoped inside
    /// the catch; RwLocks only poison on exclusive-access panics, so
    /// readers stay healthy.
    fn execute_isolated(
        &self,
        req: &ServeRequest,
        queued: Duration,
    ) -> Result<ServeResponse, ServeError> {
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let engine = self.read_engine();
            execute_request(&engine, req)
        }));
        let service = started.elapsed();
        // `as_ref` matters: coercing `&Box<dyn Any>` would downcast
        // against the box, not the payload inside it.
        let outcome = outcome
            .map_err(|payload| ServeError::Panicked(panic_message(payload.as_ref())))
            .and_then(|answer| answer.map_err(ServeError::Query));
        let c = &self.counters;
        match outcome {
            Ok((records, stats)) => {
                c.completed.fetch_add(1, Ordering::Relaxed);
                c.queue_ns.fetch_add(queued.as_nanos() as u64, Ordering::Relaxed);
                c.service_ns.fetch_add(service.as_nanos() as u64, Ordering::Relaxed);
                c.cold_page_hits.fetch_add(stats.cold_page_hits, Ordering::Relaxed);
                Ok(ServeResponse { records, stats, queued, service })
            }
            Err(e) => {
                c.failed.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Executes one append's refresh plan on the appending thread: the
    /// bounded probe for every affected subscription, then any
    /// seal-boundary verifications, under the engine *read* lock — queries
    /// proceed concurrently.
    ///
    /// Panic-safe at plan granularity: a scorer panic marks every planned
    /// subscription diverged instead of failing the append. With several
    /// appending threads, plans may finish out of arrival order; that is
    /// sound because durability is look-back only — each probe sees a
    /// history at least as long as the one its arrival saw, and the
    /// admitted set is inserted idempotently in id order.
    fn run_refresh(&self, id: RecordId, attrs: &[f64], plan: &RefreshPlan, ctx: &mut QueryContext) {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let engine = self.read_engine();
            let mut out = TopKResult::empty();
            for sub in &plan.probes {
                sub.refresh(&engine, id, attrs, ctx, &mut out);
            }
            for sub in &plan.verifies {
                sub.verify(&engine);
            }
        }));
        // Building-block probes report their cold reads through the
        // context scratch; fold them into the serving ledger alongside the
        // per-request counts.
        self.counters.cold_page_hits.fetch_add(ctx.take_cold_page_hits(), Ordering::Relaxed);
        if outcome.is_err() {
            for sub in plan.probes.iter().chain(&plan.verifies) {
                sub.mark_diverged(id);
            }
        }
    }
}

/// Renders a caught panic payload for [`ServeError::Panicked`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// The full `DurTop(k, I, τ)` fan-out as a [`ScorerVisitor`]: what
/// [`execute_request`] runs, and what subscriptions run to materialize and
/// to verify their answer sets.
pub(crate) struct RunQuery<'a> {
    pub(crate) engine: &'a ShardedEngine,
    pub(crate) alg: Algorithm,
    pub(crate) query: &'a DurableQuery,
}

impl ScorerVisitor for RunQuery<'_> {
    type Output = Result<QueryResult, QueryError>;

    fn visit<S: OracleScorer + Sync + ?Sized>(self, scorer: &S) -> Self::Output {
        self.engine.try_query(self.alg, scorer, self.query)
    }
}

/// Resolves a request's [`ScorerSpec`] to a concrete monomorphized scorer
/// and runs its query against `engine` on the calling thread.
///
/// This is the one execution path every consumer of plain-data requests
/// shares — the serve queue's workers, the subscription refresh planner,
/// and network nodes (which execute decoded wire requests on their own
/// connection threads) — so validation and scorer resolution can never
/// drift between them. Arity errors and unusable weight vectors surface as
/// [`QueryError::Arity`] and [`QueryError::InvalidScorer`] like any other
/// bad input.
pub fn execute_request(
    engine: &ShardedEngine,
    req: &ServeRequest,
) -> Result<(Vec<RecordId>, QueryStats), QueryError> {
    let run = RunQuery { engine, alg: req.alg, query: &req.query };
    req.scorer.resolve(engine.dim(), run)?.map(|r| (r.records, r.stats))
}

/// A bounded request queue serving durable top-k queries through the
/// persistent worker pool, over a live (appendable) sharded engine.
///
/// Clones share the same queue and engine — hand one to each client
/// thread.
///
/// ```
/// use durable_topk::{
///     Algorithm, Backpressure, Dataset, DurableQuery, EngineConfig, ScorerSpec, ServeEngine,
///     ServeRequest, Window,
/// };
///
/// let ds = Dataset::from_rows(2, (0..100).map(|i| [(i % 13) as f64, (i % 7) as f64]));
/// let engine = EngineConfig::new(2, 25, 16).build_from(&ds, 4).expect("build");
/// let serve = ServeEngine::new(engine, 64, Backpressure::Block);
/// let handle = serve
///     .submit(ServeRequest {
///         alg: Algorithm::THop,
///         query: DurableQuery { k: 3, tau: 10, interval: Window::new(0, 99) },
///         scorer: ScorerSpec::Uniform,
///     })
///     .expect("accepted");
/// let response = handle.wait().expect("served");
/// assert!(!response.records.is_empty());
/// serve.shutdown();
/// ```
#[derive(Clone)]
pub struct ServeEngine {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("capacity", &self.shared.capacity)
            .field("backpressure", &self.shared.backpressure)
            .finish_non_exhaustive()
    }
}

impl ServeEngine {
    /// Wraps an engine in a serving queue holding at most `capacity`
    /// waiting requests, with the given full-queue policy.
    ///
    /// # Panics
    /// Panics if `capacity == 0` (a queue that can hold nothing cannot
    /// serve; validate user-supplied capacities before calling).
    pub fn new(engine: ShardedEngine, capacity: usize, backpressure: Backpressure) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        let subs = TrackedMutex::new(
            LockClass::SubscriptionRegistry,
            SubscriptionRegistry::anchored(&engine),
        );
        Self {
            shared: Arc::new(Shared {
                engine: TrackedRwLock::new(LockClass::Engine, engine),
                state: TrackedMutex::new(
                    LockClass::ServeQueue,
                    QueueState { queued: 0, outstanding: 0, accepting: true },
                ),
                space: TrackedCondvar::new(),
                idle: TrackedCondvar::new(),
                capacity,
                backpressure,
                counters: Counters::default(),
                subs,
            }),
        }
    }

    /// Enqueues a request, returning its completion handle.
    ///
    /// Blocks while the queue is full under [`Backpressure::Block`];
    /// fails fast with [`ServeError::QueueFull`] under
    /// [`Backpressure::Reject`]. After [`shutdown`](ServeEngine::shutdown)
    /// has begun, every submission fails with
    /// [`ServeError::ShuttingDown`].
    pub fn submit(&self, req: ServeRequest) -> Result<ResponseHandle, ServeError> {
        let slot = Arc::new(ResponseSlot::new());
        let enqueued = {
            let mut state = lock(&self.shared.state);
            loop {
                if !state.accepting {
                    self.shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::ShuttingDown);
                }
                if state.queued < self.shared.capacity {
                    break;
                }
                match self.shared.backpressure {
                    Backpressure::Reject => {
                        self.shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
                        return Err(ServeError::QueueFull);
                    }
                    Backpressure::Block => {
                        state = self.shared.space.wait(state);
                    }
                }
            }
            state.queued += 1;
            state.outstanding += 1;
            self.shared.counters.enqueued.fetch_add(1, Ordering::Relaxed);
            self.shared.counters.max_depth.fetch_max(state.queued as u64, Ordering::Relaxed);
            Instant::now()
        };
        let (shared, job_slot) = (Arc::clone(&self.shared), Arc::clone(&slot));
        WorkerPool::global().submit(move |_ctx| shared.serve(&req, enqueued, &job_slot));
        Ok(ResponseHandle { slot })
    }

    /// Executes one request on the calling thread, bypassing the queue,
    /// with the queue's per-request isolation: a poisoned scorer fails
    /// exactly this request ([`ServeError::Panicked`]), never a worker, the
    /// queue or the caller. Cluster members answer through this — a
    /// coordinator's fan-out jobs run *on* the pool that drains the queue,
    /// so parking them behind it could deadlock a single-worker host.
    /// Counted in [`stats`](ServeEngine::stats) like queued traffic, with
    /// zero queue time.
    pub fn execute(&self, req: &ServeRequest) -> Result<(Vec<RecordId>, QueryStats), ServeError> {
        self.shared.counters.enqueued.fetch_add(1, Ordering::Relaxed);
        self.shared.execute_isolated(req, Duration::ZERO).map(|r| (r.records, r.stats))
    }

    /// Ingests one record into the underlying live engine under the write
    /// lock, sealing the head there when the record fills it (see
    /// [`ShardedEngine::append`]). Returns once every subscription
    /// reflects the arrival.
    ///
    /// With subscriptions registered, the arrival is classified under the
    /// same write lock (one head-skyband lookup — the head's skyband index already
    /// did the dominance work as part of the append). The common outcome
    /// is the zero-change fast path: no subscription is touched and the
    /// append returns. Otherwise the calling thread runs the bounded
    /// refresh plan itself, *after* the write lock is released, under the
    /// read lock — queries keep serving while it runs.
    ///
    /// With several appending threads, one thread's seal-boundary
    /// verification (a whole recompute under the read lock) can hold a
    /// second appender at the write lock, and queries queue behind that
    /// appender. Append from one thread to keep queries clear of it.
    ///
    /// Returns the record's global id, or [`ServeError::Query`] with
    /// [`QueryError::Arity`] on an arity mismatch and
    /// [`QueryError::NonFinite`] on a NaN or infinite attribute; a rejected
    /// record leaves the engine untouched.
    pub fn append(&self, attrs: &[f64]) -> Result<RecordId, ServeError> {
        let (id, plan) = {
            let mut engine = self.shared.engine.write();
            if attrs.len() != engine.dim() {
                return Err(ServeError::Query(QueryError::Arity {
                    expected: engine.dim(),
                    got: attrs.len(),
                }));
            }
            if let Some(attribute) = attrs.iter().position(|x| !x.is_finite()) {
                return Err(ServeError::Query(QueryError::NonFinite { attribute }));
            }
            let id = engine.append(attrs);
            let plan = lock(&self.shared.subs).plan_refresh(&engine, id);
            (id, plan)
        };
        if !plan.is_empty() {
            let c = &self.shared.counters;
            let refreshing = c.refreshing.fetch_add(1, Ordering::Relaxed) + 1;
            c.max_refresh_inflight.fetch_max(refreshing, Ordering::Relaxed);
            // Parallelism 1 runs inline, on a context borrowed from the pool.
            WorkerPool::global().run_jobs(1, 1, |_, ctx| {
                self.shared.run_refresh(id, attrs, &plan, ctx);
            });
            c.refreshing.fetch_sub(1, Ordering::Relaxed);
        }
        Ok(id)
    }

    /// Does nothing; kept only because the frozen benchmark harness calls it.
    #[doc(hidden)]
    pub fn quiesce(&self) {}

    /// Registers a standing query: the request is validated and its
    /// answer set over the already-ingested prefix materialized (one full
    /// recompute); from then on every [`append`](ServeEngine::append)
    /// keeps it current incrementally. Read the result back with
    /// [`poll_subscription`](ServeEngine::poll_subscription) or drain
    /// increments with [`take_delta`](ServeEngine::take_delta).
    pub fn subscribe(&self, req: ServeRequest) -> Result<SubscriptionId, ServeError> {
        self.register(req, false)
    }

    /// Like [`subscribe`](ServeEngine::subscribe), but additionally
    /// re-runs the full [`try_query`](ShardedEngine::try_query) oracle
    /// whenever the engine seals a shard, reconciling the incremental
    /// state against it — belt-and-suspenders mode for deployments that
    /// would rather pay a periodic recompute than trust the fast path
    /// unaudited. Divergence is reported on the snapshot, never papered
    /// over.
    pub fn subscribe_verified(&self, req: ServeRequest) -> Result<SubscriptionId, ServeError> {
        self.register(req, true)
    }

    fn register(&self, req: ServeRequest, verify: bool) -> Result<SubscriptionId, ServeError> {
        // Lock order: engine before subs, as everywhere.
        let engine = self.shared.read_engine();
        let mut subs = lock(&self.shared.subs);
        subs.register(&engine, req, verify).map_err(ServeError::Query)
    }

    /// Removes a standing query; returns whether it existed. An append
    /// refreshing it right now finishes harmlessly.
    pub fn unsubscribe(&self, id: SubscriptionId) -> bool {
        lock(&self.shared.subs).unsubscribe(id)
    }

    /// A point-in-time snapshot of one subscription's materialized answer
    /// set and counters, or `None` for an unknown id.
    pub fn poll_subscription(&self, id: SubscriptionId) -> Option<SubscriptionSnapshot> {
        let sub = lock(&self.shared.subs).get(id)?;
        Some(sub.snapshot())
    }

    /// Drains the records a subscription admitted since the last drain
    /// (in arrival order), or `None` for an unknown id.
    pub fn take_delta(&self, id: SubscriptionId) -> Option<Vec<RecordId>> {
        let sub = lock(&self.shared.subs).get(id)?;
        Some(sub.take_delta())
    }

    /// Does nothing; kept only because the frozen benchmark harness calls it.
    #[doc(hidden)]
    pub fn subscription_sync(&self) {}

    /// Read access to the underlying engine (shard counts, direct
    /// queries, verification against the served answers).
    pub fn engine(&self) -> TrackedReadGuard<'_, ShardedEngine> {
        self.shared.read_engine()
    }

    /// Stops accepting new requests and blocks until every accepted
    /// request (queued or executing) has been answered. Parked
    /// [`Backpressure::Block`] submitters wake and observe the shutdown.
    ///
    /// Idempotent: concurrent or repeated calls all drain and return.
    pub fn shutdown(&self) {
        let mut state = lock(&self.shared.state);
        state.accepting = false;
        self.shared.space.notify_all();
        while state.outstanding > 0 {
            state = self.shared.idle.wait(state);
        }
    }

    /// A snapshot of the queue-depth, latency, and subscription counters.
    pub fn stats(&self) -> ServeStats {
        let depth = lock(&self.shared.state).queued;
        let cache =
            self.shared.read_engine().result_cache().map(|cache| cache.stats()).unwrap_or_default();
        let totals: SubscriptionTotals = lock(&self.shared.subs).totals();
        let c = &self.shared.counters;
        ServeStats {
            enqueued: c.enqueued.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            depth,
            max_depth: c.max_depth.load(Ordering::Relaxed),
            total_queued: Duration::from_nanos(c.queue_ns.load(Ordering::Relaxed)),
            total_service: Duration::from_nanos(c.service_ns.load(Ordering::Relaxed)),
            cold_page_hits: c.cold_page_hits.load(Ordering::Relaxed),
            subscriptions: totals.subscriptions,
            refreshes: totals.refreshes,
            fast_path_skips: totals.fast_path_skips,
            full_recomputes: totals.full_recomputes,
            max_refresh_inflight: c.max_refresh_inflight.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_bytes: cache.resident_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::flat;
    use crate::EngineConfig;
    use durable_topk_temporal::{Dataset, Window};

    fn dataset(n: usize) -> Dataset {
        Dataset::from_rows(2, (0..n).map(|i| [((i * 37) % 101) as f64, ((i * 73) % 97) as f64]))
    }

    fn request(alg: Algorithm, k: usize, tau: u32, a: u32, b: u32) -> ServeRequest {
        ServeRequest {
            alg,
            query: DurableQuery { k, tau, interval: Window::new(a, b) },
            scorer: ScorerSpec::Linear(vec![0.6, 0.4]),
        }
    }

    fn serve_over(n: usize) -> ServeEngine {
        let engine = EngineConfig::new(2, n, 50).build_from(&dataset(n), 4).expect("build");
        ServeEngine::new(engine, 32, Backpressure::Block)
    }

    #[test]
    fn served_answers_match_direct_queries() {
        let ds = dataset(600);
        let serve = serve_over(600);
        let flat = flat(&ds, None);
        let scorer = durable_topk_temporal::LinearScorer::new(vec![0.6, 0.4]);
        let reqs: Vec<ServeRequest> =
            [(3usize, 40u32, 0u32, 599u32), (1, 17, 250, 599), (5, 50, 460, 599)]
                .iter()
                .flat_map(|&(k, tau, a, b)| {
                    [Algorithm::THop, Algorithm::SHop, Algorithm::TBase]
                        .map(|alg| request(alg, k, tau, a, b))
                })
                .collect();
        let handles: Vec<(ServeRequest, ResponseHandle)> =
            reqs.into_iter().map(|r| (r.clone(), serve.submit(r).expect("accepted"))).collect();
        for (req, handle) in handles {
            let response = handle.wait().expect("served");
            let expected = flat.query(req.alg, &scorer, &req.query);
            assert_eq!(response.records, expected.records, "req={req:?}");
        }
        let stats = serve.stats();
        assert_eq!(stats.completed, 9);
        assert_eq!(stats.failed, 0);
        serve.shutdown();
    }

    #[test]
    fn bad_requests_fail_their_handle_only() {
        let serve = serve_over(300);
        // τ beyond `max_tau` (and beyond the history) is no error: the
        // answer is the flat engine's.
        let over = request(Algorithm::THop, 2, 500, 0, 299);
        let scorer = durable_topk_temporal::LinearScorer::new(vec![0.6, 0.4]);
        let flat = flat(&dataset(300), None).query(over.alg, &scorer, &over.query);
        let served = serve.submit(over).expect("accepted").wait().expect("any τ");
        assert_eq!(served.records, flat.records);
        // Zero k.
        let zero = serve.submit(request(Algorithm::THop, 0, 10, 0, 299)).expect("accepted");
        assert_eq!(zero.wait(), Err(ServeError::Query(QueryError::ZeroK)));
        // Wrong scorer arity.
        let skewed = serve
            .submit(ServeRequest {
                alg: Algorithm::SHop,
                query: DurableQuery { k: 1, tau: 10, interval: Window::new(0, 299) },
                scorer: ScorerSpec::Linear(vec![1.0, 2.0, 3.0]),
            })
            .expect("accepted");
        assert_eq!(
            skewed.wait(),
            Err(ServeError::Query(QueryError::Arity { expected: 2, got: 3 }))
        );
        // The queue still serves after every failure.
        let ok = serve.submit(request(Algorithm::THop, 2, 10, 0, 299)).expect("accepted");
        assert!(ok.wait().is_ok());
        assert_eq!(serve.stats().failed, 2);
        serve.shutdown();
    }

    #[test]
    fn invalid_scorer_specs_are_typed_errors_not_panics() {
        use durable_topk_temporal::ScorerError;
        let serve = serve_over(300);
        let cases = [
            (ScorerSpec::Linear(vec![-1.0, f64::NAN]), ScorerError::InvalidWeight),
            (ScorerSpec::Linear(vec![0.5, -0.5]), ScorerError::InvalidWeight),
            (ScorerSpec::Linear(vec![f64::INFINITY, 1.0]), ScorerError::InvalidWeight),
            (ScorerSpec::Cosine(vec![0.0, 0.0]), ScorerError::NoDirection),
            (ScorerSpec::Cosine(vec![1.0, f64::NEG_INFINITY]), ScorerError::NoDirection),
        ];
        for (scorer, why) in cases {
            let req = ServeRequest { scorer, ..request(Algorithm::THop, 2, 10, 0, 299) };
            let expected = QueryError::InvalidScorer(why);
            // On the caller's thread, through the queue, and at registration.
            assert_eq!(execute_request(&serve.engine(), &req).unwrap_err(), expected, "{req:?}");
            let handle = serve.submit(req.clone()).expect("accepted");
            assert_eq!(handle.wait(), Err(ServeError::Query(expected)), "{req:?}");
            assert_eq!(serve.subscribe(req.clone()).unwrap_err(), ServeError::Query(expected));
        }
        assert_eq!(serve.stats().subscriptions, 0);
        // Valid negative cosine weights still serve.
        let cosine = ServeRequest {
            scorer: ScorerSpec::Cosine(vec![1.0, -0.25]),
            ..request(Algorithm::THop, 2, 10, 0, 299)
        };
        assert!(serve.submit(cosine).expect("accepted").wait().is_ok());
        serve.shutdown();
    }

    #[test]
    fn reject_mode_sheds_load_when_full() {
        // Saturate with slow-ish requests and check the accounting. The
        // serving integration tests force a full queue by holding every
        // pool worker.
        let engine = EngineConfig::new(2, 25, 10).build_from(&dataset(50), 2).expect("build");
        let serve = ServeEngine::new(engine, 1, Backpressure::Reject);
        let mut outcomes = Vec::new();
        for _ in 0..64 {
            outcomes.push(serve.submit(request(Algorithm::TBase, 1, 10, 0, 49)));
        }
        let accepted: Vec<ResponseHandle> = outcomes.into_iter().flatten().collect();
        for handle in accepted {
            assert!(handle.wait().is_ok());
        }
        let stats = serve.stats();
        assert_eq!(stats.enqueued + stats.rejected, 64);
        assert_eq!(stats.completed, stats.enqueued);
        serve.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_submissions() {
        let serve = serve_over(100);
        serve.shutdown();
        assert_eq!(
            serve.submit(request(Algorithm::THop, 1, 10, 0, 99)).map(|_| ()),
            Err(ServeError::ShuttingDown)
        );
        // Idempotent.
        serve.shutdown();
    }

    #[test]
    fn standing_queries_refresh_incrementally_on_append() {
        let engine = EngineConfig::new(2, 32, 16).skyband_bound(4).build().expect("config");
        let serve = ServeEngine::new(engine, 8, Backpressure::Block);
        let row = |i: usize| [((i * 37) % 101) as f64, ((i * 73) % 97) as f64];
        for i in 0..80 {
            serve.append(&row(i)).expect("arity matches");
        }
        let id = serve
            .subscribe_verified(request(Algorithm::THop, 2, 10, 0, u32::MAX))
            .expect("valid request");
        for i in 80..300 {
            serve.append(&row(i)).expect("arity matches");
        }
        let snap = serve.poll_subscription(id).expect("registered");
        assert!(!snap.diverged, "seal verifications must agree with the fast path");
        let scorer = durable_topk_temporal::LinearScorer::new(vec![0.6, 0.4]);
        let q = DurableQuery { k: 2, tau: 10, interval: Window::new(0, 299) };
        let expected = serve.engine().try_query(Algorithm::THop, &scorer, &q).expect("query");
        assert_eq!(snap.records, expected.records);
        // The increments drain exactly once, in arrival order.
        let delta = serve.take_delta(id).expect("registered");
        assert_eq!(delta, snap.records);
        assert!(serve.take_delta(id).expect("registered").is_empty());
        // The gate fired, probes ran, and the high-water mark saw a
        // refreshing append.
        let stats = serve.stats();
        assert_eq!(stats.subscriptions, 1);
        assert!(stats.refreshes > 0, "durable arrivals must probe");
        assert!(stats.fast_path_skips > 0, "the skyband gate must skip arrivals");
        assert!(stats.full_recomputes >= 1, "registration materializes once");
        assert_eq!(stats.max_refresh_inflight, 1, "one appending thread");
        assert!(serve.unsubscribe(id));
        assert!(serve.poll_subscription(id).is_none());
        assert!(!serve.unsubscribe(id));
        serve.shutdown();
    }

    /// Appends rows `ids` and, after each one, compares the subscription
    /// with a recompute at that exact prefix; returns the first id where
    /// it lags or diverged.
    fn first_stale_append(
        serve: &ServeEngine,
        sub: SubscriptionId,
        ids: std::ops::Range<usize>,
    ) -> Option<RecordId> {
        let scorer = durable_topk_temporal::LinearScorer::new(vec![0.6, 0.4]);
        let row = |i: usize| [((i * 37) % 101) as f64, ((i * 73) % 97) as f64];
        ids.map(|i| serve.append(&row(i)).expect("arity matches")).find(|&id| {
            let snap = serve.poll_subscription(sub).expect("registered");
            let q = DurableQuery { k: 2, tau: 10, interval: Window::new(0, id) };
            let want = serve.engine().try_query(Algorithm::THop, &scorer, &q).expect("query");
            snap.diverged || snap.records != want.records
        })
    }

    /// `append` returns once every subscription reflects its arrival —
    /// from a plain thread and from inside a pool job alike, across seal
    /// boundaries, with no call in between.
    #[test]
    fn every_append_returns_with_its_subscriptions_current() {
        let engine = EngineConfig::new(2, 32, 16).skyband_bound(4).build().expect("config");
        let serve = ServeEngine::new(engine, 8, Backpressure::Block);
        let id = serve
            .subscribe_verified(request(Algorithm::THop, 2, 10, 0, u32::MAX))
            .expect("valid request");
        assert_eq!(first_stale_append(&serve, id, 0..150), None, "from a plain thread");
        let (tx, rx) = std::sync::mpsc::channel();
        let worker_side = serve.clone();
        WorkerPool::global().submit(move |_ctx| {
            let _ = tx.send(first_stale_append(&worker_side, id, 150..300));
        });
        let stale = rx.recv_timeout(Duration::from_secs(60)).expect("pool appends finish");
        assert_eq!(stale, None, "from inside a pool job");
        assert!(serve.engine().sealed_shards() >= 8, "the run crosses seal boundaries");
        let snap = serve.poll_subscription(id).expect("registered");
        assert!(snap.full_recomputes > 1, "every seal verifies: {}", snap.full_recomputes);
        serve.shutdown();
    }

    #[test]
    fn subscriptions_validate_like_requests() {
        let engine = EngineConfig::new(2, 32, 16).build().expect("config");
        let serve = ServeEngine::new(engine, 8, Backpressure::Block);
        serve.append(&[1.0, 2.0]).expect("arity matches");
        assert_eq!(
            serve.subscribe(request(Algorithm::THop, 0, 8, 0, u32::MAX)).unwrap_err(),
            ServeError::Query(QueryError::ZeroK)
        );
        // τ beyond `max_tau` is no error: a verified subscription stays
        // exact across seals.
        let wide = serve.subscribe_verified(request(Algorithm::SHop, 2, 70, 0, u32::MAX));
        let wide = wide.expect("any τ");
        let mut rows = Dataset::from_rows(2, [[1.0, 2.0]]);
        for i in 1..150 {
            let row = [((i * 37) % 101) as f64, ((i * 73) % 97) as f64];
            serve.append(&row).expect("arity matches");
            rows.push(&row);
        }
        let snap = serve.poll_subscription(wide).expect("registered");
        let scorer = durable_topk_temporal::LinearScorer::new(vec![0.6, 0.4]);
        let q = DurableQuery { k: 2, tau: 70, interval: Window::new(0, 149) };
        let flat = flat(&rows, None).query(Algorithm::SHop, &scorer, &q);
        assert_eq!(snap.records, flat.records);
        assert!(!snap.diverged && snap.full_recomputes > 1, "seals were verified");
        assert!(serve.unsubscribe(wide));
        let skewed = ServeRequest {
            scorer: ScorerSpec::Linear(vec![1.0, 2.0, 3.0]),
            ..request(Algorithm::THop, 1, 8, 0, u32::MAX)
        };
        assert_eq!(
            serve.subscribe(skewed).unwrap_err(),
            ServeError::Query(QueryError::Arity { expected: 2, got: 3 })
        );
        assert_eq!(serve.stats().subscriptions, 0);
        serve.shutdown();
    }

    #[test]
    fn fixed_interval_subscriptions_complete() {
        let engine = EngineConfig::new(2, 64, 8).build().expect("config");
        let serve = ServeEngine::new(engine, 8, Backpressure::Block);
        let row = |i: usize| [((i * 37) % 101) as f64, ((i * 73) % 97) as f64];
        for i in 0..10 {
            serve.append(&row(i)).expect("arity matches");
        }
        let id = serve.subscribe(request(Algorithm::THop, 1, 4, 0, 19)).expect("valid");
        for i in 10..50 {
            serve.append(&row(i)).expect("arity matches");
        }
        let snap = serve.poll_subscription(id).expect("registered");
        assert!(snap.complete, "the stream passed the interval end");
        assert!(snap.records.iter().all(|&r| r <= 19));
        let scorer = durable_topk_temporal::LinearScorer::new(vec![0.6, 0.4]);
        let q = DurableQuery { k: 1, tau: 4, interval: Window::new(0, 19) };
        let expected = serve.engine().try_query(Algorithm::THop, &scorer, &q).expect("query");
        assert_eq!(snap.records, expected.records);
        serve.shutdown();
    }

    #[test]
    fn non_monotone_subscriptions_skip_the_gate_but_stay_exact() {
        // Cosine is non-monotone: the skyband gate is unsound for it, so
        // every in-interval arrival must probe — and the answers must
        // still match the full recompute.
        let engine = EngineConfig::new(2, 32, 16).build().expect("config");
        let serve = ServeEngine::new(engine, 8, Backpressure::Block);
        let row = |i: usize| [((i * 37) % 101) as f64 + 1.0, ((i * 73) % 97) as f64 + 1.0];
        for i in 0..40 {
            serve.append(&row(i)).expect("arity matches");
        }
        let req = ServeRequest {
            alg: Algorithm::THop,
            query: DurableQuery { k: 2, tau: 8, interval: Window::new(0, u32::MAX) },
            scorer: ScorerSpec::Cosine(vec![0.8, 0.2]),
        };
        let id = serve.subscribe(req).expect("valid");
        for i in 40..160 {
            serve.append(&row(i)).expect("arity matches");
        }
        let stats = serve.stats();
        // 120 post-registration arrivals, all in-interval: all must probe.
        assert_eq!(stats.refreshes, 120);
        assert_eq!(stats.fast_path_skips, 0);
        let snap = serve.poll_subscription(id).expect("registered");
        let scorer = durable_topk_temporal::CosineScorer::new(vec![0.8, 0.2]);
        let q = DurableQuery { k: 2, tau: 8, interval: Window::new(0, 159) };
        let expected = serve.engine().try_query(Algorithm::THop, &scorer, &q).expect("query");
        assert_eq!(snap.records, expected.records);
        serve.shutdown();
    }

    #[test]
    fn appends_flow_through_the_serving_engine() {
        let engine = EngineConfig::new(2, 16, 8).build().expect("config");
        let serve = ServeEngine::new(engine, 8, Backpressure::Block);
        for i in 0..100usize {
            let id = serve
                .append(&[((i * 7) % 23) as f64, ((i * 3) % 17) as f64])
                .expect("arity matches");
            assert_eq!(id, i as RecordId);
        }
        assert_eq!(
            serve.append(&[1.0]),
            Err(ServeError::Query(QueryError::Arity { expected: 2, got: 1 }))
        );
        assert_eq!(serve.engine().len(), 100);
        let handle = serve.submit(request(Algorithm::THop, 2, 8, 0, 99)).expect("accepted");
        assert!(handle.wait().is_ok());
        serve.shutdown();
    }
}
