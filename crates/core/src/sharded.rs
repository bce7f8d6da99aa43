//! A time-sharded durable top-k engine with live ingestion.
//!
//! Durable top-k queries decompose naturally along arrival time: a record's
//! durability window `[p.t − τ, p.t]` only looks *backwards*, so a shard
//! that owns records `[lo, hi]` can answer their durability exactly from a
//! sub-dataset extended `max_tau` records to the left — the overlap region
//! supplies every potential blocker without any cross-shard communication.
//! [`crate::plan`] states that decomposition once, as plain data; this
//! module supplies the shards it routes over.
//!
//! The paper's setting is inherently temporal: records keep arriving in
//! time order. [`ShardedEngine`] therefore treats sharding and ingestion as
//! one system:
//!
//! * **Sealed tail shards** are immutable: a frozen segment-tree oracle,
//!   an optional skyband index, and a record chunk held by the
//!   [`ShardStorage`] backend, over contiguous time ranges each extended
//!   `max_tau` records to the left.
//! * **One mutable head shard** receives [`append`](ShardedEngine::append)s,
//!   indexed incrementally by the appendable segment-tree forest
//!   ([`AppendableTopKIndex`]). When the head has accumulated `shard_span`
//!   owned records it is *sealed* where it stands: its forest's trees are
//!   joined into one segment tree, the head becomes the next tail shard,
//!   and a fresh head starts with the trailing `max_tau` records as left
//!   context — preserving the overlap invariant, so queries stay exact for
//!   any `τ ≤ max_tau` at every point of the ingestion timeline.
//!
//! A shard is in one of those two states and nothing about a seal is
//! concurrent. Joining trees moves their nodes and adds one root per join
//! ([`AppendableTopKIndex::seal`]) — no record is indexed again — and the
//! fresh head inherits the outgoing head's skyband state for its context
//! ([`IncrementalSkybandIndex::inherit`]) instead of replaying it, so the
//! seal runs on the appending thread, inside the `append` that fills the
//! head; so does the storage backend's chunk write.
//!
//! Queries fan `DurTop(k, I, τ)` out across the shards owning a piece of
//! `I` through the persistent [`WorkerPool`] (no `thread::spawn` on the
//! query path; each worker reuses its own [`QueryContext`]); per-shard
//! answers are mapped back to global record ids and merged. The result is
//! record-for-record identical to an unsharded engine over the same
//! history for every `τ ≤ max_tau`.
//!
//! [`IncrementalSkybandIndex::inherit`]: durable_topk_index::IncrementalSkybandIndex::inherit

use crate::config::EngineConfig;
use crate::context::QueryContext;
use crate::engine::{run_algorithm, Algorithm};
use crate::error::QueryError;
use crate::oracle::TopKOracle;
use crate::plan::{merge, route, OwnedRange};
use crate::pool::WorkerPool;
use crate::query::{DurableQuery, QueryResult};
use crate::result_cache::{next_shard_gen, CacheKey, ShardResultCache};
use crate::storage::{ChunkId, MemoryStorage, ShardStorage};
use durable_topk_index::{
    AppendableTopKIndex, DurableSkybandIndex, OracleScorer, SkylineSegTree, TopKResult,
};
use durable_topk_temporal::{Dataset, RecordId, Time, Window};
use std::sync::Arc;

/// One sealed time shard: a skyline segment tree over
/// `[range.ext_lo, range.hi]`, *owning* (reporting answers for)
/// `[range.lo, range.hi]`, plus optional frozen skyband durations for the
/// owned records only — S-Band is only ever asked about `I ∩ [lo, hi]`, so
/// the left context has none. The record chunk itself
/// lives in the engine's [`ShardStorage`] backend, reached by handle —
/// under [`PagedStorage`](crate::PagedStorage) it may be spilled to pages
/// and is faulted back in transparently at query time.
#[derive(Debug)]
struct Shard {
    oracle: SkylineSegTree,
    skyband: Option<DurableSkybandIndex>,
    /// Handle to the shard's record chunk (`[ext_lo, hi]`) in storage.
    chunk: ChunkId,
    range: OwnedRange,
    /// Process-global, never-reused generation id keying this shard's
    /// entries in the [`ShardResultCache`]: re-sealing, storage migration
    /// or any other shard replacement stamps a fresh generation, so stale
    /// memoized answers can never be probed again.
    generation: u64,
}

/// The mutable ingestion shard: `max_tau` records of left context plus
/// every record appended since the last seal, indexed by the appendable
/// forest (which, with a skyband bound, maintains the durable k-skyband
/// incrementally so S-Band serves natively from the first append).
#[derive(Debug)]
struct Head {
    ds: Dataset,
    index: AppendableTopKIndex,
    /// Global id of the head sub-dataset's first row.
    ext_lo: Time,
    /// First global id the head owns (earlier rows are context).
    lo: Time,
}

/// The construction-time parameters every head and every seal is cut from.
#[derive(Debug, Clone, Copy)]
struct Shape {
    dim: usize,
    /// Owned records per sealed shard.
    shard_span: usize,
    max_tau: Time,
    /// Leaf granularity of the head forest and the trees sealed from it.
    leaf_size: usize,
    /// Skyband bound every head maintains and every seal freezes.
    k_max: Option<usize>,
}

impl Shape {
    /// Builds a head whose context is the trailing `max_tau` of the first
    /// `n` global records, read through `row`. Its skyband state for the
    /// context is inherited from `outgoing`, the head being sealed, which
    /// covers every context record and every later one; without it, the
    /// context is bootstrapped.
    fn fresh_head<'a>(
        &self,
        row: impl Fn(usize) -> &'a [f64],
        n: usize,
        outgoing: Option<&Head>,
    ) -> Head {
        let ctx_len = (self.max_tau as usize).min(n);
        let ext_lo = (n - ctx_len) as Time;
        let mut ds = Dataset::with_capacity(self.dim, ctx_len + self.shard_span);
        for i in (n - ctx_len)..n {
            ds.push(row(i));
        }
        let mut index = AppendableTopKIndex::build(&ds, self.leaf_size);
        let inherited =
            outgoing.and_then(|head| Some(head.index.skyband()?.inherit(ext_lo - head.ext_lo)));
        index = match (inherited, self.k_max) {
            (Some(skyband), _) => index.with_skyband(skyband),
            (None, Some(k_max)) => index.with_skyband_bound(&ds, k_max),
            (None, None) => index,
        };
        Head { ds, index, ext_lo, lo: n as Time }
    }
}

/// What one job of [`ShardedEngine::from_config`]'s parallel build makes.
enum Part {
    /// A tail's record chunk, tree and skyband.
    Tail(Arc<Dataset>, SkylineSegTree, Option<DurableSkybandIndex>),
    /// The head over the trailing context.
    Head(Head),
}

/// What serves one owned range of the timeline.
#[derive(Clone, Copy)]
enum Substrate<'a> {
    /// A sealed tail: one tree, frozen skyband, records in storage.
    Sealed(&'a Shard),
    /// The mutable head: a forest over its resident sub-dataset.
    Forest(&'a Dataset, &'a AppendableTopKIndex),
}

/// Resident heap bytes of a [`ShardedEngine`], by structure
/// ([`ShardedEngine::memory_usage`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryUsage {
    /// Record rows: the storage backend's decoded chunks plus the head's
    /// sub-dataset.
    pub records: usize,
    /// Skyline segment trees: sealed shards' and the head forest's.
    pub trees: usize,
    /// Sealed shards' skyband durations — owned records only.
    pub skyband_sealed: usize,
    /// The head's incremental skyband index: durations of its owned
    /// records (with `Vec` growth slack) and the active list, which also
    /// holds entries for its `max_tau` records of left context.
    pub skyband_head: usize,
    /// Memoized answers in the result cache.
    pub result_cache: usize,
}

/// A durable top-k engine over contiguous time shards with an appendable
/// head, serving parallel fan-out queries through the persistent worker
/// pool. Built by [`EngineConfig::build`] (empty, live) or
/// [`EngineConfig::build_from`] (over an existing dataset).
#[derive(Debug)]
pub struct ShardedEngine {
    tails: Vec<Shard>,
    /// Where sealed tails' record chunks live — [`MemoryStorage`] by
    /// default, [`PagedStorage`](crate::PagedStorage) to spill old chunks
    /// to pager-backed pages (see [`EngineConfig::storage`] and
    /// [`migrate_storage`](ShardedEngine::migrate_storage)).
    storage: Arc<dyn ShardStorage>,
    head: Head,
    shape: Shape,
    len: usize,
    /// Memoized immutable per-shard answers, consulted by the sealed arm
    /// of [`try_query`](ShardedEngine::try_query) before `storage.fetch`
    /// — `None` (the default) disables memoization entirely.
    result_cache: Option<Arc<ShardResultCache>>,
    /// Head rotations so far — bumps when a full head is sealed.
    /// Standing-query consumers compare epochs across appends to notice a
    /// freshly crossed shard boundary.
    seal_epoch: u64,
}

impl ShardedEngine {
    /// Builds an engine from a configuration [`EngineConfig`] already
    /// validated: empty and appendable for `data = None`, otherwise over
    /// `ds` partitioned into `shard_count` contiguous time shards (capped
    /// at the dataset size), each built in parallel on the worker pool.
    /// Either way the storage backend is chosen first, so built tails are
    /// stored straight into it, and the head is created with its skyband
    /// bound — nothing is applied after construction.
    pub(crate) fn from_config(cfg: EngineConfig, data: Option<(&Dataset, usize)>) -> Self {
        let storage = cfg.storage.unwrap_or_else(|| Arc::new(MemoryStorage::new()));
        let mut shape = Shape {
            dim: cfg.dim,
            shard_span: cfg.shard_span,
            max_tau: cfg.max_tau,
            leaf_size: cfg.leaf_size,
            k_max: cfg.skyband_bound,
        };
        let (tails, head, len) = match data {
            None => (Vec::new(), shape.fresh_head(|_| &[], 0, None), 0),
            Some((ds, shard_count)) => {
                let n = ds.len();
                // Ceil-division can need fewer shards than requested (e.g.
                // 10 records across 7 shards -> 2 per shard -> 5 shards);
                // recompute so no degenerate (empty) shard is emitted. The
                // partition supersedes the configured span.
                shape.shard_span = n.div_ceil(shard_count.min(n));
                let ranges: Vec<OwnedRange> = (0..n.div_ceil(shape.shard_span))
                    .map(|s| {
                        let lo = (s * shape.shard_span) as Time;
                        let hi = (((s + 1) * shape.shard_span).min(n) - 1) as Time;
                        OwnedRange { ext_lo: lo.saturating_sub(shape.max_tau), lo, hi }
                    })
                    .collect();
                // Each job copies its extended sub-range and indexes it;
                // one more job bootstraps the head beside them.
                let jobs = ranges.len() + 1;
                let parts = WorkerPool::global().run_jobs(jobs, jobs, |s, _ctx| {
                    let Some(&OwnedRange { ext_lo, lo, hi }) = ranges.get(s) else {
                        return Part::Head(shape.fresh_head(|i| ds.row(i as Time), n, None));
                    };
                    let mut sub = Dataset::with_capacity(ds.dim(), (hi - ext_lo + 1) as usize);
                    for id in ext_lo..=hi {
                        sub.push(ds.row(id));
                    }
                    let oracle = SkylineSegTree::with_leaf_size(&sub, shape.leaf_size);
                    let skyband = shape
                        .k_max
                        .map(|k_max| DurableSkybandIndex::build_owned(&sub, k_max, lo - ext_lo));
                    Part::Tail(Arc::new(sub), oracle, skyband)
                });
                // Store the chunks sequentially after the parallel index
                // build so chunk ids land in time order — under a paged
                // backend that keeps the *newest* shards resident and
                // spills the oldest first.
                let mut tails = Vec::with_capacity(ranges.len());
                let mut head = None;
                for part in parts {
                    match part {
                        Part::Tail(sub, oracle, skyband) => tails.push(Shard {
                            oracle,
                            skyband,
                            chunk: storage.store(sub),
                            range: ranges[tails.len()],
                            generation: next_shard_gen(),
                        }),
                        Part::Head(built) => head = Some(built),
                    }
                }
                // lint: allow(expect) — the job past the last range always builds the head.
                (tails, head.expect("the last build job makes the head"), n)
            }
        };
        Self {
            tails,
            storage,
            head,
            shape,
            len,
            result_cache: cfg.result_cache_bytes.map(|b| Arc::new(ShardResultCache::new(b))),
            seal_epoch: 0,
        }
    }

    /// Switches the storage backend for sealed tails' record chunks
    /// (default: [`MemoryStorage`]). Existing chunks are migrated — every
    /// tail's chunk is re-stored into the new backend in time order, so a
    /// [`PagedStorage`](crate::PagedStorage) backend immediately starts
    /// spilling everything older than its residency window. Answers are
    /// bit-identical under every backend; only residency and query-time
    /// page faults ([`QueryStats::cold_page_hits`](crate::QueryStats::cold_page_hits))
    /// change.
    ///
    /// This is the mid-life migration API; to start an engine on a
    /// non-default backend, use [`EngineConfig::storage`] instead.
    pub fn migrate_storage(mut self, storage: Arc<dyn ShardStorage>) -> Self {
        for shard in &mut self.tails {
            let (chunk, _) = self.storage.fetch(shard.chunk);
            shard.chunk = storage.store(chunk);
            // A migrated shard is a new cache identity: its old entries
            // age out of the result cache instead of being flushed.
            shard.generation = next_shard_gen();
        }
        self.storage = storage;
        self
    }

    /// The storage backend holding the sealed tails' record chunks (its
    /// [`stats`](ShardStorage::stats) expose residency and cold-read
    /// counters; [`resident_bytes`](ShardStorage::resident_bytes) the
    /// decoded footprint).
    pub fn storage(&self) -> &Arc<dyn ShardStorage> {
        &self.storage
    }

    /// The sealed-shard result cache, if one is configured
    /// ([`EngineConfig::result_cache`]); its
    /// [`stats`](ShardResultCache::stats) expose hits, misses, evictions
    /// and residency.
    pub fn result_cache(&self) -> Option<&Arc<ShardResultCache>> {
        self.result_cache.as_ref()
    }

    /// Resident heap bytes by structure.
    pub fn memory_usage(&self) -> MemoryUsage {
        let mut usage = MemoryUsage {
            records: self.storage.resident_bytes(),
            result_cache: self
                .result_cache
                .as_ref()
                .map_or(0, |cache| cache.stats().resident_bytes as usize),
            ..MemoryUsage::default()
        };
        for shard in &self.tails {
            usage.trees += shard.oracle.heap_bytes();
            usage.skyband_sealed +=
                shard.skyband.as_ref().map_or(0, DurableSkybandIndex::heap_bytes);
        }
        // The head holds context (and its skyband) even while it owns no
        // record, so it is counted directly rather than through `pieces`.
        let Head { ds, index, .. } = &self.head;
        usage.skyband_head = index.skyband().map_or(0, |skyband| skyband.heap_bytes());
        usage.records += ds.heap_bytes();
        usage.trees += index.heap_bytes() - usage.skyband_head;
        usage
    }

    /// Ingests one record, returning its global id. The record lands in
    /// the head shard's forest in amortized polylogarithmic time; the
    /// append that fills the head to `shard_span` owned records also seals
    /// it, which joins the forest's trees and rebuilds nothing.
    ///
    /// # Panics
    /// Panics if the attribute arity mismatches.
    pub fn append(&mut self, attrs: &[f64]) -> RecordId {
        assert_eq!(attrs.len(), self.shape.dim, "attribute arity mismatch");
        let id = self.len as RecordId;
        self.head.ds.push(attrs);
        self.head.index.append(&self.head.ds);
        self.len += 1;
        if self.head_owned() >= self.shape.shard_span {
            self.seal_head();
        }
        id
    }

    /// Records currently owned by the mutable head.
    fn head_owned(&self) -> usize {
        self.len - self.head.lo as usize
    }

    /// Turns the full head into the next tail shard — its forest's trees
    /// joined into one, the owned records' durations copied out of the
    /// incremental skyband maintainer, its sub-dataset handed to the
    /// storage backend as the shard's chunk (where
    /// [`PagedStorage`](crate::PagedStorage) serializes it to pages) — and
    /// starts a fresh head whose context is the trailing `max_tau` records,
    /// inheriting their skyband state from the outgoing head.
    fn seal_head(&mut self) {
        self.seal_epoch += 1;
        // The outgoing head's sub-dataset always reaches back max_tau
        // records (or to time zero), so its tail is exactly the new head's
        // context.
        let base = self.head.ext_lo as usize;
        let outgoing = &self.head;
        let fresh = self.shape.fresh_head(
            |i| outgoing.ds.row((i - base) as RecordId),
            self.len,
            Some(outgoing),
        );
        let Head { ds, index, ext_lo, lo } = std::mem::replace(&mut self.head, fresh);
        let skyband = index.skyband().map(|sb| sb.to_static(lo - ext_lo));
        let oracle = index.seal(&ds);
        self.tails.push(Shard {
            oracle,
            skyband,
            chunk: self.storage.store(Arc::new(ds)),
            range: OwnedRange { ext_lo, lo, hi: (self.len - 1) as Time },
            generation: next_shard_gen(),
        });
    }

    /// Always zero; kept only because the frozen benchmark harness calls it.
    #[doc(hidden)]
    pub fn pending_seals(&self) -> usize {
        0
    }

    /// Number of shards (sealed tails, plus the head when it owns records).
    pub fn shard_count(&self) -> usize {
        self.sealed_shards() + usize::from(self.head_owned() > 0)
    }

    /// Number of sealed shards.
    pub fn sealed_shards(&self) -> usize {
        self.tails.len()
    }

    /// Records covered by the sharded engine.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the engine covers no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Attribute arity of the engine's records.
    pub fn dim(&self) -> usize {
        self.shape.dim
    }

    /// The largest `τ` this engine answers exactly.
    pub fn max_tau(&self) -> Time {
        self.shape.max_tau
    }

    /// Head rotations so far: increments every time a full head is
    /// sealed. The subscription layer compares this across appends to
    /// notice a freshly crossed shard boundary and re-anchor standing
    /// queries that straddle it.
    pub fn seal_epoch(&self) -> u64 {
        self.seal_epoch
    }

    /// Every shard in time order — the sealed tails, then the mutable head
    /// when it owns records — with the range it owns and what serves it.
    /// The one place the shards are walked: routing, the top-k building
    /// block, the history view, the routing table and the counters all
    /// iterate this.
    fn pieces(&self) -> impl Iterator<Item = (OwnedRange, Substrate<'_>)> {
        let tails = self.tails.iter().map(|shard| (shard.range, Substrate::Sealed(shard)));
        let head = (self.head_owned() > 0).then(|| {
            let Head { ds, index, ext_lo, lo } = &self.head;
            let range = OwnedRange { ext_lo: *ext_lo, lo: *lo, hi: (self.len - 1) as Time };
            (range, Substrate::Forest(ds, index))
        });
        tails.chain(head)
    }

    /// The owned `[lo, hi]` record range of every shard in time order:
    /// sealed tails, then the mutable head when it owns records. Ranges are
    /// disjoint, contiguous, and cover `[0, len)`; each shard additionally holds up to `max_tau`
    /// records of left context, which is an implementation detail of
    /// exactness and not reported here. This is the routing table a
    /// scatter-gather coordinator works from.
    pub fn shard_ranges(&self) -> Vec<(Time, Time)> {
        self.pieces().map(|(range, _)| (range.lo, range.hi)).collect()
    }

    /// The newest record's durable k-skyband duration at the level
    /// serving `k`, read from the head forest's incremental maintainer —
    /// or, when that arrival filled the head and was sealed with it, from
    /// the newest tail's frozen copy (the fresh head keeps no duration for
    /// its context).
    ///
    /// This is the per-arrival verdict the S-Band structures already
    /// computed on append, repurposed as a zero-change gate for standing
    /// queries: for a *monotone* scorer, a duration `< τ` proves the
    /// arrival is beaten by at least `k` records inside its own look-back
    /// window — the same superset argument [`Algorithm::SBand`] relies on
    /// — so no standing `DurTop(k', I, τ')` with `k' ≤ k`, `τ' ≥` the
    /// duration can admit it. Both sources see at least `max_tau` records
    /// of left context, and truncation only *overestimates* a duration, so
    /// a reading below `τ ≤ max_tau` is always sound.
    ///
    /// Returns `None` when no skyband bound is configured, `k` exceeds
    /// it, or no record has arrived yet — callers must then run the full
    /// bounded probe instead.
    pub fn arrival_skyband_duration(&self, k: usize) -> Option<Time> {
        let maintainer = self.head.index.skyband()?.maintainer();
        // Context included, the maintainer covers every head row.
        if maintainer.len() != self.head.ds.len() {
            return None;
        }
        let level = maintainer.levels().iter().position(|&lk| lk >= k)?;
        match maintainer.durations(level).last() {
            Some(&duration) => Some(duration),
            None => self.tails.last()?.skyband.as_ref()?.durations(level).last().copied(),
        }
    }

    /// Answers `DurTop(k, I, τ)` by fanning out over the shards owning a
    /// piece of `I` through the persistent worker pool (one job and one
    /// reused [`QueryContext`] per shard) and merging the per-shard
    /// answers. Identical to
    /// [`DurableTopKEngine::query`](crate::DurableTopKEngine::query) over the same
    /// history for `τ ≤ max_tau`.
    ///
    /// With a skyband bound configured ([`EngineConfig::skyband_bound`]),
    /// [`Algorithm::SBand`] runs natively everywhere — sealed tails and the
    /// mutable head (whose forest maintains its k-skyband incrementally) —
    /// so [`QueryStats::fallback`](crate::QueryStats::fallback) stays `None`
    /// at every point of the ingestion timeline for `k` within the bound.
    ///
    /// # Panics
    /// Panics on invalid parameters or if `query.tau > self.max_tau()` (the
    /// shard overlap cannot guarantee exactness beyond it). Serving
    /// callers use [`try_query`](ShardedEngine::try_query), which returns
    /// these conditions as typed [`QueryError`]s instead.
    pub fn query<S: OracleScorer + Sync + ?Sized>(
        &self,
        alg: Algorithm,
        scorer: &S,
        query: &DurableQuery,
    ) -> QueryResult {
        // lint: allow(panic) — documented-panic wrapper over try_query.
        self.try_query(alg, scorer, query).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`query`](ShardedEngine::query): every condition
    /// reachable from request input (`τ` beyond the overlap, zero `k`/`τ`,
    /// an empty engine, an interval past the history) comes back as a
    /// [`QueryError`] instead of a panic, so a serving worker can fail one
    /// request without dying.
    pub fn try_query<S: OracleScorer + Sync + ?Sized>(
        &self,
        alg: Algorithm,
        scorer: &S,
        query: &DurableQuery,
    ) -> Result<QueryResult, QueryError> {
        if query.tau > self.shape.max_tau {
            return Err(QueryError::TauExceedsOverlap {
                tau: query.tau,
                max_tau: self.shape.max_tau,
            });
        }
        let interval = query.check(self.len)?;
        let jobs = route(interval, self.pieces());

        // One fingerprint per query, not per shard: `None` (no cache, or
        // an unfingerprintable scorer) makes every tail probe bypass the
        // cache — neither a hit nor a miss.
        let scorer_fp = self.result_cache.as_ref().and_then(|_| scorer.fingerprint());

        let partials = WorkerPool::global().run_jobs(jobs.len(), jobs.len(), |i, ctx| {
            let local = DurableQuery { k: query.k, tau: query.tau, interval: jobs[i].local };
            let shard = match jobs[i].owner {
                Substrate::Sealed(shard) => shard,
                // The forest's incrementally-maintained skyband serves
                // S-Band natively at every point of the append timeline,
                // and the shared dispatch degrades for the same
                // request-level reasons on both substrates.
                Substrate::Forest(ds, index) => {
                    return run_algorithm(ds, index, index.skyband(), alg, scorer, &local, ctx)
                }
            };
            // A sealed tail's answer over its FULL owned range is a pure
            // function of (shard, alg, scorer, k, τ) — consult the result
            // cache before touching storage, so a hit never faults spilled
            // pages back in. Boundary pieces (the query interval clips the
            // owned range) always probe: their answers depend on the
            // interval, which is deliberately not part of the key.
            let cached = match (&self.result_cache, scorer_fp) {
                (Some(cache), Some(fp)) if local.interval == shard.range.local_full() => {
                    let key = CacheKey {
                        shard_gen: shard.generation,
                        alg,
                        scorer: fp,
                        k: local.k,
                        tau: local.tau,
                    };
                    if let Some(hit) = cache.get(&key) {
                        return hit;
                    }
                    Some((cache, key))
                }
                _ => None,
            };
            // Resident chunks come back as a free Arc clone; a spilled one
            // faults its pages in, and the query's stats carry the physical
            // reads it paid.
            let (chunk, cold) = self.storage.fetch(shard.chunk);
            let mut result = run_algorithm(
                &chunk,
                &shard.oracle,
                shard.skyband.as_ref(),
                alg,
                scorer,
                &local,
                ctx,
            );
            if let Some((cache, key)) = cached {
                // Snapshot before the cold-read accounting below: a future
                // hit skips storage, so it must replay with zero cold-page
                // hits.
                cache.insert(key, &result.records, result.stats);
                result.stats.cache_misses += 1;
            }
            result.stats.cold_page_hits += cold;
            result
        });

        let (records, stats) = merge(
            jobs.iter()
                .zip(&partials)
                .map(|(job, part)| (job.ext_lo, &part.records[..], &part.stats)),
        );
        Ok(QueryResult { records, stats })
    }

    /// Answers the preference top-k query `Q(u, k, W)` over the whole
    /// sharded history into `out`, drawing scratch from `ctx` — the
    /// building-block view of the engine, which standing-query refreshes
    /// use for per-arrival durability probes.
    ///
    /// Exact for **any** window (the owned shard ranges partition the
    /// history; no overlap is needed for a plain top-k).
    ///
    /// # Panics
    /// Panics if `k == 0` or the engine is empty.
    pub fn top_k_into<S: OracleScorer + ?Sized>(
        &self,
        scorer: &S,
        k: usize,
        w: Window,
        ctx: &mut QueryContext,
        out: &mut TopKResult,
    ) {
        assert!(k > 0, "k must be positive");
        assert!(self.len > 0, "cannot query an empty engine");
        out.clear();
        if (w.start() as usize) >= self.len {
            return;
        }
        let w = w.clamp_to(self.len);
        let mut merge = std::mem::take(&mut ctx.scored);
        merge.clear();
        for (range, substrate) in self.pieces() {
            let Some(local) = range.localize(w) else { continue };
            match substrate {
                Substrate::Sealed(shard) => {
                    // The building-block path has no per-query stats
                    // channel, so cold reads accumulate in the context's
                    // scratch; callers drain them via
                    // `QueryContext::take_cold_page_hits`.
                    let (chunk, cold) = self.storage.fetch(shard.chunk);
                    ctx.cold_page_hits += cold;
                    shard.oracle.top_k_with(&chunk, scorer, k, local, &mut ctx.oracle, out);
                }
                Substrate::Forest(ds, index) => {
                    index.top_k_with(ds, scorer, k, local, &mut ctx.oracle, out);
                }
            }
            merge.reserve(out.items.len());
            merge.extend(out.items.iter().map(|&(id, s)| (id + range.ext_lo, s)));
        }
        out.clear();
        std::mem::swap(&mut out.items, &mut merge);
        out.finalize_in_place(k);
        ctx.scored = merge;
    }

    /// Allocating convenience wrapper over
    /// [`top_k_into`](ShardedEngine::top_k_into).
    ///
    /// # Panics
    /// Panics if `k == 0` or the engine is empty.
    pub fn top_k<S: OracleScorer + ?Sized>(&self, scorer: &S, k: usize, w: Window) -> TopKResult {
        let mut ctx = QueryContext::new();
        let mut out = TopKResult::empty();
        self.top_k_into(scorer, k, w, &mut ctx, &mut out);
        out
    }

    /// Appends the attribute rows of global records `[from, len)` to
    /// `out`, reading sealed tails through the storage backend (spilled
    /// chunks are faulted in), then the mutable head — in global time order.
    ///
    /// This is the route to an exact answer for `τ > max_tau` over
    /// live-ingested data: copy the history out and hand it to the offline
    /// engine, which takes any `τ`.
    ///
    /// ```
    /// # use durable_topk::*;
    /// # let mut engine = EngineConfig::new(1, 8, 4).build().unwrap();
    /// # for i in 0..40 { engine.append(&[(i % 7) as f64]); }
    /// # let (scorer, q) = (LinearScorer::uniform(1),
    /// #     DurableQuery { k: 1, tau: 20, interval: Window::new(0, 39) });
    /// let mut ds = Dataset::new(engine.dim());
    /// engine.copy_history_into(&mut ds, 0);
    /// let answer = DurableTopKEngine::new(ds).query(Algorithm::THop, &scorer, &q);
    /// # assert_eq!(answer.records, [0, 1, 2, 3, 4, 5, 6, 13, 20, 27, 34]);
    /// ```
    ///
    /// Wall-clock stamps are not carried over (the view is attribute rows
    /// keyed by arrival id, which is all the algorithms read).
    pub fn copy_history_into(&self, out: &mut Dataset, from: usize) {
        for (range, substrate) in self.pieces() {
            if (range.hi as usize) < from {
                continue;
            }
            let fetched;
            let rows = match substrate {
                Substrate::Sealed(shard) => {
                    fetched = self.storage.fetch(shard.chunk).0;
                    &*fetched
                }
                Substrate::Forest(ds, _) => ds,
            };
            for id in from.max(range.lo as usize)..=range.hi as usize {
                out.push(rows.row((id - range.ext_lo as usize) as RecordId));
            }
        }
    }

    /// Cumulative top-k queries issued across all shard oracles (sealed
    /// tails plus the head forest; a sealed tree carries on from its
    /// forest's count). Monotone until
    /// [`reset_counters`](ShardedEngine::reset_counters).
    pub fn oracle_queries(&self) -> u64 {
        self.pieces()
            .map(|(_, substrate)| match substrate {
                Substrate::Sealed(shard) => shard.oracle.queries_issued(),
                Substrate::Forest(_, index) => index.counters().queries(),
            })
            .sum()
    }

    /// Resets instrumentation on every shard.
    pub fn reset_counters(&self) {
        for (_, substrate) in self.pieces() {
            match substrate {
                Substrate::Sealed(shard) => shard.oracle.reset_counters(),
                Substrate::Forest(_, index) => index.counters().reset(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DurableTopKEngine;
    use crate::error::BuildError;
    use crate::storage::PagedStorage;
    use durable_topk_temporal::LinearScorer;

    fn dataset(n: usize) -> Dataset {
        Dataset::from_rows(2, (0..n).map(|i| [((i * 37) % 101) as f64, ((i * 73) % 97) as f64]))
    }

    /// `ds` partitioned into `shard_count` shards (the partition sets the span).
    fn built(ds: &Dataset, shard_count: usize, max_tau: Time) -> Result<ShardedEngine, BuildError> {
        EngineConfig::new(2, 1, max_tau).build_from(ds, shard_count)
    }

    fn live(shard_span: usize, max_tau: Time) -> ShardedEngine {
        EngineConfig::new(2, shard_span, max_tau).build().expect("config")
    }

    #[test]
    fn sharded_matches_unsharded_across_shard_counts() {
        let ds = dataset(2_000);
        let flat = DurableTopKEngine::new(ds.clone());
        let scorer = LinearScorer::new(vec![0.7, 0.3]);
        let q = DurableQuery { k: 4, tau: 150, interval: Window::new(100, 1_899) };
        let expected = flat.query(Algorithm::THop, &scorer, &q);
        for shard_count in [1, 2, 3, 7, 16] {
            let sharded = built(&ds, shard_count, 200).expect("build");
            for alg in [Algorithm::THop, Algorithm::SHop, Algorithm::TBase] {
                let got = sharded.query(alg, &scorer, &q);
                assert_eq!(got.records, expected.records, "shards={shard_count} alg={alg}");
            }
        }
    }

    #[test]
    fn interval_touching_few_shards_only_queries_those() {
        let ds = dataset(1_000);
        let sharded = built(&ds, 10, 50).expect("build");
        sharded.reset_counters();
        let scorer = LinearScorer::uniform(2);
        // Interval inside shard 3's owned range [300, 399].
        let q = DurableQuery { k: 2, tau: 30, interval: Window::new(310, 380) };
        let got = sharded.query(Algorithm::THop, &scorer, &q);
        let flat = DurableTopKEngine::new(ds);
        assert_eq!(got.records, flat.query(Algorithm::THop, &scorer, &q).records);
        // Only shard 3's oracle saw traffic.
        let active: usize = sharded.tails.iter().filter(|s| s.oracle.queries_issued() > 0).count();
        assert_eq!(active, 1);
    }

    #[test]
    fn sband_served_per_shard_with_skyband_indexes() {
        let ds = dataset(1_200);
        let sharded =
            EngineConfig::new(2, 1, 100).skyband_bound(8).build_from(&ds, 4).expect("build");
        let flat = DurableTopKEngine::new(ds).with_skyband_index(8);
        let scorer = LinearScorer::new(vec![0.4, 0.6]);
        let q = DurableQuery { k: 5, tau: 90, interval: Window::new(0, 1_199) };
        let got = sharded.query(Algorithm::SBand, &scorer, &q);
        assert_eq!(got.records, flat.query(Algorithm::SBand, &scorer, &q).records);
        assert!(got.stats.fallback.is_none(), "within the build bound no shard falls back");
    }

    #[test]
    #[should_panic(expected = "exceeds the shard overlap")]
    fn tau_beyond_overlap_is_rejected() {
        let ds = dataset(300);
        let sharded = built(&ds, 3, 20).expect("build");
        let scorer = LinearScorer::uniform(2);
        let q = DurableQuery { k: 1, tau: 21, interval: Window::new(0, 299) };
        sharded.query(Algorithm::THop, &scorer, &q);
    }

    #[test]
    fn try_query_reports_bad_requests_as_typed_errors() {
        let ds = dataset(300);
        let sharded = built(&ds, 3, 20).expect("build");
        let scorer = LinearScorer::uniform(2);
        let base = DurableQuery { k: 1, tau: 5, interval: Window::new(0, 299) };
        let over = DurableQuery { tau: 21, ..base };
        assert_eq!(
            sharded.try_query(Algorithm::THop, &scorer, &over).unwrap_err(),
            QueryError::TauExceedsOverlap { tau: 21, max_tau: 20 }
        );
        let zero_k = DurableQuery { k: 0, ..base };
        assert_eq!(
            sharded.try_query(Algorithm::THop, &scorer, &zero_k).unwrap_err(),
            QueryError::ZeroK
        );
        let past = DurableQuery { interval: Window::new(900, 950), ..base };
        assert_eq!(
            sharded.try_query(Algorithm::THop, &scorer, &past).unwrap_err(),
            QueryError::IntervalOutOfRange { start: 900, last: 299 }
        );
        // The engine still serves after every rejection.
        assert!(sharded.try_query(Algorithm::THop, &scorer, &base).is_ok());
    }

    #[test]
    fn build_rejects_degenerate_inputs_without_panicking() {
        assert_eq!(built(&Dataset::new(2), 3, 10).unwrap_err(), BuildError::EmptyDataset);
        let ds = dataset(10);
        assert_eq!(built(&ds, 0, 10).unwrap_err(), BuildError::ZeroParam("shard_count"));
        assert_eq!(built(&ds, 3, 0).unwrap_err(), BuildError::ZeroParam("max_tau"));
        assert_eq!(
            EngineConfig::new(2, 0, 4).build().unwrap_err(),
            BuildError::ZeroParam("shard_span")
        );
        assert_eq!(EngineConfig::new(0, 8, 4).build().unwrap_err(), BuildError::ZeroParam("dim"));
    }

    #[test]
    fn non_divisible_shard_counts_emit_no_degenerate_shards() {
        // ceil(10/7) = 2 per shard -> only 5 shards are needed; shards 6 and
        // 7 must not materialize as empty (they used to crash build/query).
        let ds = dataset(10);
        let sharded = built(&ds, 7, 2).expect("build");
        assert_eq!(sharded.shard_count(), 5);
        let flat = DurableTopKEngine::new(ds.clone());
        let scorer = LinearScorer::uniform(2);
        let q = DurableQuery { k: 2, tau: 2, interval: Window::new(0, 9) };
        assert_eq!(
            sharded.query(Algorithm::THop, &scorer, &q).records,
            flat.query(Algorithm::THop, &scorer, &q).records
        );
        // A second awkward split: 5 records over 4 shards.
        let ds = dataset(5);
        let sharded = built(&ds, 4, 1).expect("build");
        assert_eq!(sharded.shard_count(), 3);
        let flat = DurableTopKEngine::new(ds);
        let q = DurableQuery { k: 1, tau: 1, interval: Window::new(0, 4) };
        assert_eq!(
            sharded.query(Algorithm::SHop, &scorer, &q).records,
            flat.query(Algorithm::SHop, &scorer, &q).records
        );
    }

    #[test]
    fn more_shards_than_records_clamps() {
        let ds = dataset(5);
        let sharded = built(&ds, 64, 3).expect("build");
        assert_eq!(sharded.shard_count(), 5);
        let scorer = LinearScorer::uniform(2);
        let q = DurableQuery { k: 1, tau: 2, interval: Window::new(0, 4) };
        let flat = DurableTopKEngine::new(ds);
        assert_eq!(
            sharded.query(Algorithm::SHop, &scorer, &q).records,
            flat.query(Algorithm::SHop, &scorer, &q).records
        );
    }

    #[test]
    fn appends_grow_a_live_engine_that_matches_flat() {
        let ds = dataset(500);
        let scorer = LinearScorer::new(vec![0.6, 0.4]);
        let mut live = live(64, 40);
        for id in 0..500u32 {
            live.append(ds.row(id));
        }
        assert_eq!(live.len(), 500);
        // 500 / 64 -> 7 sealed shards + a head owning 52 records.
        assert_eq!(live.sealed_shards(), 7);
        assert_eq!(live.shard_count(), 8);
        let flat = DurableTopKEngine::new(ds);
        for (k, tau, a, b) in [(3usize, 40u32, 0u32, 499u32), (1, 17, 250, 499), (5, 40, 460, 499)]
        {
            let q = DurableQuery { k, tau, interval: Window::new(a, b) };
            for alg in Algorithm::ALL {
                let got = live.query(alg, &scorer, &q);
                let expected = flat.query(alg, &scorer, &q);
                assert_eq!(got.records, expected.records, "alg={alg} q={q:?}");
            }
        }
    }

    /// How a shard came to be never shows: an engine grown one append at a
    /// time and engines built from each prefix route alike and answer alike
    /// at every prefix, for every algorithm, across a dozen seals — and the
    /// queries a head served stay counted once it is a tail.
    #[test]
    fn grown_and_built_engines_agree_at_every_prefix() {
        let ds = dataset(400);
        let scorer = LinearScorer::new(vec![0.3, 0.7]);
        let cfg = EngineConfig::new(2, 32, 24).skyband_bound(4).leaf_size(4);
        let mut grown = cfg.clone().build().expect("config");
        let mut prefix = Dataset::new(2);
        let mut queries_so_far = 0;
        for id in 0..400u32 {
            grown.append(ds.row(id));
            prefix.push(ds.row(id));
            let built = cfg.clone().build_from(&prefix, prefix.len().div_ceil(32)).expect("build");
            if prefix.len() % 32 == 0 {
                // Whole spans only: `build_from` partitions evenly.
                assert_eq!(grown.shard_ranges(), built.shard_ranges(), "after {}", id + 1);
            }
            let q = DurableQuery {
                k: 1 + id as usize % 3,
                tau: 1 + id % 24,
                interval: Window::new(id / 3, id),
            };
            let alg = Algorithm::ALL[id as usize % Algorithm::ALL.len()];
            let (got, want) = (grown.query(alg, &scorer, &q), built.query(alg, &scorer, &q));
            assert_eq!(got.records, want.records, "alg={alg} after {} appends", id + 1);
            assert_eq!(got.stats.fallback, want.stats.fallback, "alg={alg}");
            let queries = grown.oracle_queries();
            assert!(queries >= queries_so_far, "oracle_queries went backwards at seal {id}");
            queries_so_far = queries;
        }
        assert_eq!(grown.sealed_shards(), 12);
        assert!(queries_so_far > 0);
    }

    /// Every arrival gets a verdict — the one that fills the head, too,
    /// though the fresh head keeps no duration for its context — and it
    /// is the exact duration wherever that is below `max_tau`.
    #[test]
    fn every_arrival_has_a_skyband_verdict() {
        let ds = dataset(300);
        let max_tau = 24;
        for k in [1usize, 2, 4] {
            let exact = durable_topk_geom::skyband_durations(&ds, k);
            let mut live =
                EngineConfig::new(2, 32, max_tau).skyband_bound(4).build().expect("config");
            assert_eq!(live.arrival_skyband_duration(k), None, "nothing arrived yet");
            for id in 0..300u32 {
                live.append(ds.row(id));
                let got = live.arrival_skyband_duration(k).expect("a verdict for every arrival");
                assert_eq!(got.min(max_tau), exact[id as usize].min(max_tau), "k={k} id={id}");
            }
            assert_eq!(live.sealed_shards(), 9);
        }
    }

    #[test]
    fn built_tails_use_the_configured_leaf_size() {
        let ds = dataset(900);
        let tail_tree_bytes = |cfg: EngineConfig| -> usize {
            let engine = cfg.build_from(&ds, 3).expect("build");
            engine.tails.iter().map(|shard| shard.oracle.heap_bytes()).sum()
        };
        let coarse = tail_tree_bytes(EngineConfig::new(2, 1, 30));
        let fine = tail_tree_bytes(EngineConfig::new(2, 1, 30).leaf_size(8));
        assert!(fine > 4 * coarse, "8-record leaves need many more nodes: {fine} vs {coarse}");
    }

    #[test]
    fn append_after_build_continues_the_timeline() {
        let ds = dataset(300);
        let mut sharded = built(&ds, 3, 30).expect("build");
        let mut full = ds.clone();
        for i in 300..420usize {
            let row = [((i * 37) % 101) as f64, ((i * 73) % 97) as f64];
            assert_eq!(sharded.append(&row), i as RecordId);
            full.push(&row);
        }
        assert_eq!(sharded.len(), 420);
        let flat = DurableTopKEngine::new(full);
        let scorer = LinearScorer::new(vec![0.5, 0.5]);
        let q = DurableQuery { k: 2, tau: 25, interval: Window::new(150, 419) };
        for alg in [Algorithm::THop, Algorithm::SHop, Algorithm::TBase] {
            assert_eq!(
                sharded.query(alg, &scorer, &q).records,
                flat.query(alg, &scorer, &q).records,
                "alg={alg}"
            );
        }
    }

    #[test]
    fn sealing_preserves_the_overlap_invariant() {
        // Span smaller than max_tau: the sealed sub-dataset is shorter than
        // the overlap early on; context must clamp to the full history.
        let scorer = LinearScorer::uniform(2);
        let mut live = live(4, 10);
        let mut full = Dataset::new(2);
        for i in 0..40usize {
            let row = [((i * 13) % 17) as f64, ((i * 5) % 11) as f64];
            live.append(&row);
            full.push(&row);
            let n = full.len() as Time;
            let flat = DurableTopKEngine::new(full.clone());
            let q = DurableQuery { k: 2, tau: 10, interval: Window::new(0, n - 1) };
            assert_eq!(
                live.query(Algorithm::THop, &scorer, &q).records,
                flat.query(Algorithm::THop, &scorer, &q).records,
                "after {} appends",
                i + 1
            );
        }
    }

    #[test]
    fn sharded_top_k_matches_the_flat_oracle() {
        let ds = dataset(700);
        let scorer = LinearScorer::new(vec![0.3, 0.7]);
        let mut live = live(100, 50);
        for id in 0..700u32 {
            live.append(ds.row(id));
        }
        let flat = DurableTopKEngine::new(ds.clone());
        let mut ctx = QueryContext::new();
        let mut out = TopKResult::empty();
        for (k, a, b) in [(1usize, 0u32, 699u32), (4, 350, 360), (3, 95, 105), (2, 680, 699)] {
            live.top_k_into(&scorer, k, Window::new(a, b), &mut ctx, &mut out);
            let expected = flat.oracle().top_k(&ds, &scorer, k, Window::new(a, b));
            assert_eq!(out, expected, "k={k} w=[{a},{b}]");
        }
    }

    #[test]
    fn live_skyband_bound_serves_every_substrate_without_fallback() {
        let ds = dataset(256);
        let scorer = LinearScorer::new(vec![0.8, 0.2]);
        let mut live = EngineConfig::new(2, 64, 30).skyband_bound(4).build().expect("config");
        let q = DurableQuery { k: 3, tau: 20, interval: Window::new(0, 255) };
        for id in 0..256u32 {
            live.append(ds.row(id));
        }
        assert_eq!(live.sealed_shards(), 4);
        assert_eq!(live.shard_count(), 4, "no owned head records after an exact multiple");
        let flat = DurableTopKEngine::new(ds.clone()).with_skyband_index(4);
        let got = live.query(Algorithm::SBand, &scorer, &q);
        assert!(got.stats.fallback.is_none(), "sealed shards carry the skyband index");
        assert_eq!(got.records, flat.query(Algorithm::SBand, &scorer, &q).records);
    }

    /// A sealed shard's skyband never reports a context id, and inside the
    /// owned range reports exactly what an index over the shard's whole
    /// sub-dataset does — for shards built from a dataset and for shards
    /// sealed from a grown head, with `max_tau` below and above the span.
    #[test]
    fn sealed_skybands_cover_exactly_the_owned_records() {
        use durable_topk_index::SkybandCandidates;
        let ds = dataset(600);
        for max_tau in [20, 150] {
            let cfg = EngineConfig::new(2, 60, max_tau).skyband_bound(4);
            let built = cfg.clone().build_from(&ds, 10).expect("build");
            let mut grown = cfg.build().expect("config");
            for id in 0..600u32 {
                grown.append(ds.row(id));
            }
            for engine in [&built, &grown] {
                assert_eq!(engine.tails.len(), 10);
                for shard in &engine.tails {
                    let (chunk, _) = engine.storage.fetch(shard.chunk);
                    let whole = DurableSkybandIndex::build(&chunk, 4);
                    let sealed = shard.skyband.as_ref().expect("bound configured");
                    let OwnedRange { ext_lo, lo, hi } = shard.range;
                    let owned = Window::new(lo - ext_lo, hi - ext_lo);
                    for (k, tau) in [(1usize, 1u32), (2, 7), (3, 20), (4, 150)] {
                        let (got, _) = sealed.candidates(Window::new(0, hi - ext_lo), tau, k);
                        assert!(got.iter().all(|&id| owned.contains(id)), "context id reported");
                        assert_eq!(got, whole.candidates(owned, tau, k).0, "k={k} tau={tau}");
                    }
                }
            }
        }
    }

    #[test]
    fn grown_head_serves_sband_natively_at_every_prefix() {
        // Span larger than the run: every record stays in the mutable
        // head, the regime the S-Hop fallback used to own.
        let ds = dataset(120);
        let scorer = LinearScorer::new(vec![0.35, 0.65]);
        let mut live = EngineConfig::new(2, 1_000, 25).skyband_bound(4).build().expect("config");
        let flat_ref = |n: usize| DurableTopKEngine::new(dataset(n)).with_skyband_index(4);
        for id in 0..120u32 {
            live.append(ds.row(id));
            if id % 17 == 3 {
                let q = DurableQuery { k: 3, tau: 12, interval: Window::new(0, id) };
                let got = live.query(Algorithm::SBand, &scorer, &q);
                assert!(
                    got.stats.fallback.is_none(),
                    "head must serve S-Band natively at prefix {}",
                    id + 1
                );
                let flat = flat_ref(id as usize + 1);
                assert_eq!(got.records, flat.query(Algorithm::SBand, &scorer, &q).records);
            }
        }
        // Out-of-bound k still degrades gracefully, with the right reason.
        let q = DurableQuery { k: 9, tau: 12, interval: Window::new(0, 119) };
        let got = live.query(Algorithm::SBand, &scorer, &q);
        assert_eq!(got.stats.fallback, Some(crate::FallbackReason::SkybandBoundExceeded));
    }

    #[test]
    fn paged_storage_serves_identical_answers_from_spilled_tails() {
        let ds = dataset(600);
        let scorer = LinearScorer::new(vec![0.7, 0.3]);
        let mut live = live(64, 32);
        for id in 0..600u32 {
            live.append(ds.row(id));
        }
        // Keep only the newest chunk decoded: everything older must be
        // served by faulting pages back in.
        let live =
            live.migrate_storage(Arc::new(PagedStorage::with_temp_file(1).expect("paged backend")));
        assert!(
            live.storage().stats().spilled_chunks >= 2,
            "spill_after=1 must leave most tails spilled"
        );
        let flat = DurableTopKEngine::new(ds.clone());
        let q = DurableQuery { k: 3, tau: 30, interval: Window::new(0, 599) };
        for alg in [Algorithm::THop, Algorithm::SHop, Algorithm::TBase] {
            let got = live.query(alg, &scorer, &q);
            assert_eq!(got.records, flat.query(alg, &scorer, &q).records, "alg={alg}");
        }
        // The full-interval queries touched spilled shards and decoded
        // them from pages. (Physical reads may be zero here — the pool's
        // frame cache is still warm right after migration — which is
        // exactly what cold_page_hits should then report.)
        assert!(
            live.storage().stats().cold_fetches > 0,
            "queries over spilled tails must decode from the paged tier"
        );
        // A paged engine keeps ingesting and sealing into the same backend.
        let mut live = live;
        for id in 0..200u32 {
            live.append(ds.row(id));
        }
        let q = DurableQuery { k: 2, tau: 30, interval: Window::new(550, 799) };
        let mut full = ds.clone();
        for id in 0..200u32 {
            full.push(ds.row(id));
        }
        let flat = DurableTopKEngine::new(full);
        assert_eq!(
            live.query(Algorithm::SHop, &scorer, &q).records,
            flat.query(Algorithm::SHop, &scorer, &q).records
        );
    }

    #[test]
    fn copy_history_into_reconstructs_the_global_timeline() {
        let ds = dataset(300);
        let mut live = live(32, 16);
        for id in 0..300u32 {
            live.append(ds.row(id));
        }
        // From zero: the whole history, bit-identical, even with spilled
        // chunks.
        let live =
            live.migrate_storage(Arc::new(PagedStorage::with_temp_file(1).expect("paged backend")));
        let mut out = Dataset::new(2);
        live.copy_history_into(&mut out, 0);
        assert_eq!(out.raw_attrs(), ds.raw_attrs());
        // From an offset: exactly the suffix.
        let mut tail = Dataset::new(2);
        live.copy_history_into(&mut tail, 123);
        assert_eq!(tail.len(), 300 - 123);
        assert_eq!(tail.row(0), ds.row(123));
        assert_eq!(tail.row(176), ds.row(299));
    }

    #[test]
    #[should_panic(expected = "dataset is empty")]
    fn querying_an_empty_live_engine_is_rejected() {
        let live = live(8, 4);
        let q = DurableQuery { k: 1, tau: 2, interval: Window::new(0, 0) };
        live.query(Algorithm::THop, &LinearScorer::uniform(2), &q);
    }
}
