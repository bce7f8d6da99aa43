//! A time-sharded durable top-k engine with live ingestion.
//!
//! Durable top-k queries decompose naturally along arrival time: a record's
//! durability window `[p.t − τ, p.t]` only looks *backwards*, and the
//! building block `Q(u, k, W)` composes over any partition of `W` (§IV's
//! canonical decomposition). So every shard holds the rows and the tree of
//! the records it owns and nothing else, and a query over the records
//! `[lo, hi]` of one shard reads `[lo − τ, hi]` through a per-request
//! view: rows from the shard's own chunk plus every predecessor the reach
//! overlaps, probes as one best-first search over every tree there.
//! [`crate::plan`] states the decomposition once, as plain data; this
//! module supplies the shards it routes over.
//!
//! The paper's setting is inherently temporal: records keep arriving in
//! time order. [`ShardedEngine`] therefore treats sharding and ingestion as
//! one system:
//!
//! * **Sealed tail shards** are immutable: a frozen segment-tree oracle,
//!   an optional skyband index, and a record chunk held by the engine's
//!   [`PagedStorage`], over contiguous time ranges.
//! * **One mutable head shard** receives [`append`](ShardedEngine::append)s,
//!   indexed incrementally by the appendable segment-tree forest
//!   ([`AppendableTopKIndex`]). When the head has accumulated `shard_span`
//!   records it is *sealed* where it stands: its forest's trees are joined
//!   into one segment tree, the head becomes the next tail shard, and a
//!   fresh, empty head starts.
//!
//! `max_tau` means one thing: how far back the durable k-skyband durations
//! that serve S-Band look. Built shard and live head compute them with the
//! same backward scan: a head scans its own rows, then its *context* — a
//! copy of the rows of the up-to-`max_tau` records before it, no tree, no
//! chunk — which a seal hands the next head
//! ([`IncrementalSkybandIndex::inherit`]). Sealed shards keep durations
//! for the records they own. A truncated look-back only overestimates a
//! duration, so the candidates stay an exact superset for any `τ`.
//!
//! A shard is in one of those two states and nothing about a seal is
//! concurrent. Joining trees moves their nodes and adds one root per join
//! ([`AppendableTopKIndex::seal`]) — no record is indexed again — so the
//! seal runs on the appending thread, inside the `append` that fills the
//! head; so does the chunk store's write.
//!
//! Queries fan `DurTop(k, I, τ)` out across the shards owning a piece of
//! `I` through the persistent [`WorkerPool`] (no `thread::spawn` on the
//! query path; each worker reuses its own [`QueryContext`]); per-piece
//! answers are mapped back to global record ids and merged. The result is
//! record-for-record identical to an unsharded engine over the same
//! history for every `τ`.
//!
//! [`IncrementalSkybandIndex::inherit`]: durable_topk_index::IncrementalSkybandIndex::inherit

use crate::config::EngineConfig;
use crate::context::QueryContext;
use crate::duration::max_duration;
use crate::engine::{run_algorithm, Algorithm};
use crate::error::QueryError;
use crate::plan::{merge, route, OwnedRange};
use crate::pool::WorkerPool;
use crate::query::{DurableQuery, QueryResult};
use crate::result_cache::{CacheKey, ShardResultCache};
use crate::storage::{ChunkId, PagedStorage};
use crate::view::View;
use durable_topk_index::{
    AppendableTopKIndex, DurableSkybandIndex, IncrementalSkybandIndex, OracleScorer,
    SkybandCandidates, SkylineSegTree, TopKResult, TreeRows,
};
use durable_topk_temporal::{Dataset, RecordId, Time, Window};
use std::sync::Arc;

/// One sealed time shard: a skyline segment tree over the records it owns,
/// plus optional frozen skyband durations for them. The record chunk itself
/// lives in the engine's [`PagedStorage`], reached by handle — with a
/// pager it may be spilled to pages and is faulted back in transparently
/// at query time.
#[derive(Debug)]
struct Shard {
    oracle: SkylineSegTree,
    skyband: Option<DurableSkybandIndex>,
    /// Handle to the shard's record chunk in storage.
    chunk: ChunkId,
    /// The global ids the shard owns; chunk row 0 is the first. Its start
    /// keys the shard's entries in the [`ShardResultCache`].
    owned: Window,
}

/// The mutable ingestion shard: every record appended since the last seal,
/// indexed by the appendable forest and, with a skyband bound, by an
/// incremental skyband index that computes each arrival's durations on
/// append, so S-Band serves natively from the first append.
#[derive(Debug)]
struct Head {
    ds: Dataset,
    index: AppendableTopKIndex,
    /// Durations of the head's records; its context is the up-to-`max_tau`
    /// records before the head.
    skyband: Option<IncrementalSkybandIndex>,
    /// Global id of `ds`'s row 0.
    lo: Time,
}

/// The construction-time parameters every head and every seal is cut from.
#[derive(Debug, Clone, Copy)]
struct Shape {
    dim: usize,
    /// Owned records per sealed shard.
    shard_span: usize,
    /// How far back skyband durations look.
    max_tau: Time,
    /// Leaf granularity of the head forest and the trees sealed from it.
    leaf_size: usize,
    /// Skyband bound every head maintains and every seal freezes.
    k_max: Option<usize>,
}

impl Shape {
    /// An empty head whose first record will be global record `lo`, with
    /// the skyband state of what came before.
    fn head(&self, lo: Time, skyband: Option<IncrementalSkybandIndex>) -> Head {
        let index = AppendableTopKIndex::new(self.leaf_size);
        Head { ds: Dataset::with_capacity(self.dim, self.shard_span), index, skyband, lo }
    }

    /// The first record of the skyband look-back ending before record `n`.
    fn reach(&self, n: usize) -> usize {
        n - (self.max_tau as usize).min(n)
    }
}

/// A copy of records `lo..hi` of `ds`.
fn rows(ds: &Dataset, lo: usize, hi: usize) -> Dataset {
    let mut out = Dataset::with_capacity(ds.dim(), hi - lo);
    for id in lo..hi {
        out.push(ds.row(id as RecordId));
    }
    out
}

/// Resident heap bytes of a [`ShardedEngine`], by structure
/// ([`ShardedEngine::memory_usage`]). No record row and no tree node is
/// held twice: every figure but `skyband_head` is independent of
/// `max_tau`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryUsage {
    /// Record rows: the chunk store's decoded chunks plus the head's
    /// rows.
    pub records: usize,
    /// Skyline segment trees: sealed shards' and the head forest's.
    pub trees: usize,
    /// Sealed shards' skyband durations — owned records only.
    pub skyband_sealed: usize,
    /// The head's incremental skyband index: durations of its records
    /// (with `Vec` growth slack), the rows of the up-to-`max_tau` records
    /// before the head that its appends scan, and block corners.
    pub skyband_head: usize,
    /// Memoized answers in the result cache.
    pub result_cache: usize,
}

/// A durable top-k engine over contiguous time shards with an appendable
/// head, serving parallel fan-out queries through the persistent worker
/// pool. Built by [`EngineConfig::build`] (empty, live) or
/// [`EngineConfig::build_from`] (over an existing dataset).
///
/// One shard over a dataset is the paper's single-index engine:
///
/// ```
/// use durable_topk::{Algorithm, Dataset, DurableQuery, EngineConfig, LinearScorer, Window};
///
/// // Ten records, two attributes, arriving in order.
/// let ds = Dataset::from_rows(2, (0..10).map(|i| {
///     let x = ((i * 37) % 11) as f64;
///     [x, 10.0 - x]
/// }));
/// let engine = EngineConfig::new(2, ds.len(), 4).build_from(&ds, 1).expect("valid");
/// let query = DurableQuery { k: 2, tau: 4, interval: Window::new(0, 9) };
/// let scorer = LinearScorer::new(vec![0.8, 0.2]);
/// let result = engine.query(Algorithm::SHop, &scorer, &query);
/// // Every algorithm returns the same answer set.
/// let check = engine.query(Algorithm::TBase, &scorer, &query);
/// assert_eq!(result.records, check.records);
/// ```
#[derive(Debug)]
pub struct ShardedEngine {
    tails: Vec<Shard>,
    /// Where sealed tails' record chunks live — in memory by default, old
    /// ones spilled to pager-backed pages with a pager (see
    /// [`EngineConfig::storage`]).
    storage: Arc<PagedStorage>,
    head: Head,
    shape: Shape,
    len: usize,
    /// Memoized immutable per-shard answers, consulted by the sealed arm
    /// of [`try_query`](ShardedEngine::try_query) before `storage.fetch`
    /// — `None` (the default) disables memoization entirely.
    result_cache: Option<Arc<ShardResultCache>>,
}

impl ShardedEngine {
    /// Builds an engine from a configuration [`EngineConfig`] already
    /// validated: empty and appendable for `data = None`, otherwise over
    /// `ds` partitioned into `shard_count` contiguous time shards (capped
    /// at the dataset size), each built in parallel on the worker pool.
    /// Either way the chunk store is chosen first, so built tails are
    /// stored straight into it, and the head is created with its skyband
    /// bound — nothing is applied after construction.
    pub(crate) fn from_config(cfg: EngineConfig, data: Option<(&Dataset, usize)>) -> Self {
        let storage = cfg.storage.unwrap_or_else(|| Arc::new(PagedStorage::in_memory()));
        let mut shape = Shape {
            dim: cfg.dim,
            shard_span: cfg.shard_span,
            max_tau: cfg.max_tau,
            leaf_size: cfg.leaf_size,
            k_max: cfg.skyband_bound,
        };
        let (tails, head, len) = match data {
            None => (Vec::new(), shape.head(0, shape.k_max.map(IncrementalSkybandIndex::new)), 0),
            Some((ds, shard_count)) => {
                let n = ds.len();
                // Ceil-division can need fewer shards than requested (e.g.
                // 10 records across 7 shards -> 2 per shard -> 5 shards);
                // recompute so no degenerate (empty) shard is emitted. The
                // partition supersedes the configured span.
                shape.shard_span = n.div_ceil(shard_count.min(n));
                let ranges: Vec<(usize, usize)> = (0..n)
                    .step_by(shape.shard_span)
                    .map(|lo| (lo, (lo + shape.shard_span).min(n)))
                    .collect();
                // Each job copies its records and indexes them.
                let jobs = ranges.len();
                let built = WorkerPool::global().run_jobs(jobs, jobs, |s, _ctx| {
                    let (lo, hi) = ranges[s];
                    let chunk = rows(ds, lo, hi);
                    // A sealed forest's leaves hold at most half `leaf_size`
                    // records (`SkylineSegTree::join` fuses up to that); a
                    // built shard gets the same granularity.
                    let leaf = shape.leaf_size.div_ceil(2);
                    let oracle = SkylineSegTree::with_leaf_size(&chunk, leaf);
                    // Durations look `max_tau` records back: the look-back
                    // rows are copied for the build and dropped after it.
                    let skyband = shape.k_max.map(|k_max| {
                        let from = shape.reach(lo);
                        let owned = (lo - from) as RecordId;
                        DurableSkybandIndex::build_owned(&rows(ds, from, hi), k_max, owned)
                    });
                    (Arc::new(chunk), oracle, skyband)
                });
                // Store the chunks sequentially after the parallel index
                // build so chunk ids land in time order — under a paged
                // store that keeps the *newest* shards resident and
                // spills the oldest first.
                let tails = built
                    .into_iter()
                    .zip(&ranges)
                    .map(|((chunk, oracle, skyband), &(lo, hi))| Shard {
                        oracle,
                        skyband,
                        chunk: storage.store(chunk),
                        owned: Window::new(lo as Time, (hi - 1) as Time),
                    })
                    .collect();
                // The head's skyband context is a copy of the trailing rows;
                // nothing is scanned until the first append.
                let context = |k_max| {
                    IncrementalSkybandIndex::with_context(&rows(ds, shape.reach(n), n), k_max)
                };
                (tails, shape.head(n as Time, shape.k_max.map(context)), n)
            }
        };
        Self {
            tails,
            storage,
            head,
            shape,
            len,
            result_cache: cfg.result_cache_bytes.map(|b| Arc::new(ShardResultCache::new(b))),
        }
    }

    /// The store holding the sealed tails' record chunks (its
    /// [`stats`](PagedStorage::stats) expose residency and cold-read
    /// counters; [`resident_bytes`](PagedStorage::resident_bytes) the
    /// decoded footprint).
    pub fn storage(&self) -> &Arc<PagedStorage> {
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
        // The head holds its skyband even while it owns no record, so it
        // is counted directly rather than through `pieces`.
        let Head { ds, index, skyband, .. } = &self.head;
        usage.skyband_head = skyband.as_ref().map_or(0, IncrementalSkybandIndex::heap_bytes);
        usage.records += ds.heap_bytes();
        usage.trees += index.heap_bytes();
        usage
    }

    /// Ingests one record, returning its global id. The record lands in
    /// the head shard's forest in amortized polylogarithmic time; the
    /// append that fills the head to `shard_span` records also seals it,
    /// which joins the forest's trees and rebuilds nothing.
    ///
    /// # Panics
    /// Panics if the attribute arity mismatches or an attribute is NaN or
    /// infinite, before anything is mutated;
    /// [`ServeEngine::append`](crate::ServeEngine::append) reports both as
    /// errors instead.
    pub fn append(&mut self, attrs: &[f64]) -> RecordId {
        assert_eq!(attrs.len(), self.shape.dim, "attribute arity mismatch");
        assert!(attrs.iter().all(|x| x.is_finite()), "attributes must be finite");
        let id = self.len as RecordId;
        let head = &mut self.head;
        head.ds.push(attrs);
        head.index.append(&head.ds);
        if let Some(skyband) = head.skyband.as_mut() {
            skyband.push(&head.ds);
        }
        self.len += 1;
        if self.head.ds.len() >= self.shape.shard_span {
            self.seal_head();
        }
        id
    }

    /// Turns the full head into the next tail shard — its forest's trees
    /// joined into one, its records' durations copied out of its
    /// incremental skyband index, its rows handed to the store as the
    /// shard's chunk (which, with a pager, writes it to pages) — and
    /// starts an empty head whose skyband context is the rows of the
    /// trailing `max_tau` records.
    fn seal_head(&mut self) {
        let Head { ds, skyband, .. } = &self.head;
        let heir = skyband.as_ref().map(|skyband| {
            // The skyband's last record is global record `len − 1`.
            let covered = skyband.len();
            skyband.inherit(ds, (covered + self.shape.reach(self.len) - self.len) as RecordId)
        });
        let fresh = self.shape.head(self.len as Time, heir);
        let Head { ds, index, skyband, lo } = std::mem::replace(&mut self.head, fresh);
        let skyband = skyband.map(|skyband| skyband.to_static(skyband.base()));
        let oracle = index.seal(&ds);
        self.tails.push(Shard {
            oracle,
            skyband,
            chunk: self.storage.store(Arc::new(ds)),
            owned: Window::new(lo, (self.len - 1) as Time),
        });
    }

    /// Always zero; kept only because the frozen benchmark harness calls it.
    #[doc(hidden)]
    pub fn pending_seals(&self) -> usize {
        0
    }

    /// Number of shards (sealed tails, plus the head when it owns records).
    pub fn shard_count(&self) -> usize {
        self.sealed_shards() + usize::from(!self.head.ds.is_empty())
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

    /// Every shard in time order — the sealed tails, then the mutable head
    /// when it owns records — with the range it owns, and the tail itself
    /// (`None` for the head). Routing, the routing table and the counters
    /// iterate this.
    fn pieces(&self) -> impl Iterator<Item = (OwnedRange, Option<&Shard>)> {
        let owned = |w: Window| OwnedRange { ext_lo: 0, lo: w.start(), hi: w.end() };
        let tails = self.tails.iter().map(move |shard| (owned(shard.owned), Some(shard)));
        let head = (!self.head.ds.is_empty())
            .then(|| (owned(Window::new(self.head.lo, (self.len - 1) as Time)), None));
        tails.chain(head)
    }

    /// Hands `f` the view of records `[base, hi]`, numbered from `base`,
    /// over every shard holding one of records `[reach, hi]`: their trees,
    /// the rows a search inside `[reach, hi]` reads, and the skyband of
    /// the shard owning `hi`. Of a spilled chunk only the leaves of its
    /// tree that `[reach, hi]` touches are faulted in; the page reads they
    /// cost are added to `cold`.
    fn with_view<R>(
        &self,
        base: Time,
        reach: Time,
        hi: Time,
        cold: &mut u64,
        f: impl FnOnce(&View<'_>) -> R,
    ) -> R {
        let first = self.tails.partition_point(|shard| shard.owned.end() < reach);
        let sealed: Vec<(&Shard, Arc<Dataset>, Time)> = self.tails[first..]
            .iter()
            .take_while(|shard| shard.owned.start() <= hi)
            .map(|shard| {
                let (lo, end) = (shard.owned.start(), shard.owned.end());
                let touched = Window::new(reach.max(lo) - lo, hi.min(end) - lo);
                let leaves = shard.oracle.leaf_span(touched).unwrap_or(touched);
                let (rows, first, pages) = self.storage.fetch_rows(shard.chunk, leaves);
                *cold += pages;
                (shard, rows, first)
            })
            .collect();
        let mut view = View::new(base, hi);
        for (shard, rows, first) in &sealed {
            let rows = TreeRows { rows, first: *first };
            view.add_sealed(shard.owned.start(), rows, &shard.oracle, shard.skyband.as_ref());
        }
        let Head { ds, index, skyband, lo } = &self.head;
        if *lo <= hi && !ds.is_empty() {
            view.add_head(*lo, ds, index, skyband.as_ref());
        }
        f(&view)
    }

    /// The owned `[lo, hi]` record range of every shard in time order:
    /// sealed tails, then the mutable head when it owns records. Ranges are
    /// disjoint, contiguous, and cover `[0, len)`. This is the routing
    /// table a scatter-gather coordinator works from.
    pub fn shard_ranges(&self) -> Vec<(Time, Time)> {
        self.pieces().map(|(range, _)| (range.lo, range.hi)).collect()
    }

    /// The newest record's durable k-skyband duration at the level
    /// serving `k`, read from the head's incremental skyband index —
    /// or, when that arrival filled the head and was sealed with it, from
    /// the newest tail's frozen copy (the fresh head keeps no duration for
    /// the records before it).
    ///
    /// This is the per-arrival verdict the S-Band structures already
    /// computed on append, repurposed as a zero-change gate for standing
    /// queries: for a *monotone* scorer, a duration `< τ` proves the
    /// arrival is beaten by at least `k` records inside its own look-back
    /// window — the same superset argument [`Algorithm::SBand`] relies on
    /// — so no standing `DurTop(k', I, τ')` with `k' ≤ k`, `τ' ≥` the
    /// duration can admit it. Both sources look at least `max_tau` records
    /// back, and truncation only *overestimates* a duration, so a reading
    /// below any `τ` is always sound.
    ///
    /// Returns `None` when no skyband bound is configured, `k` exceeds
    /// it, or no record has arrived yet — callers must then run the full
    /// bounded probe instead.
    pub fn arrival_skyband_duration(&self, k: usize) -> Option<Time> {
        let skyband = self.head.skyband.as_ref()?;
        let level = skyband.levels().iter().position(|&lk| lk >= k)?;
        match skyband.durations(level).last() {
            Some(&duration) => Some(duration),
            None => self.tails.last()?.skyband.as_ref()?.durations(level).last().copied(),
        }
    }

    /// Answers `DurTop(k, I, τ)` by fanning out over the shards owning a
    /// piece of `I` through the persistent worker pool (one job and one
    /// reused [`QueryContext`] per shard) and merging the per-shard
    /// answers. Identical, for every `τ`, to the paper's single-index
    /// engine over the same history — which is this engine built with one
    /// shard.
    ///
    /// With a skyband bound configured ([`EngineConfig::skyband_bound`]),
    /// [`Algorithm::SBand`] runs natively everywhere — sealed tails and the
    /// mutable head (whose skyband index computes each arrival's durations
    /// on append) —
    /// so [`QueryStats::fallback`](crate::QueryStats::fallback) stays `None`
    /// at every point of the ingestion timeline for `k` within the bound.
    ///
    /// # Panics
    /// Panics on invalid parameters. Serving callers use
    /// [`try_query`](ShardedEngine::try_query), which returns them as
    /// typed [`QueryError`]s instead.
    // Documented-panic wrapper over try_query.
    #[allow(clippy::panic)]
    pub fn query<S: OracleScorer + Sync + ?Sized>(
        &self,
        alg: Algorithm,
        scorer: &S,
        query: &DurableQuery,
    ) -> QueryResult {
        self.try_query(alg, scorer, query).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`query`](ShardedEngine::query): every condition
    /// reachable from request input (zero `k`/`τ`, an empty engine, an
    /// interval past the history) comes back as a [`QueryError`] instead
    /// of a panic, so a serving worker can fail one request without dying.
    pub fn try_query<S: OracleScorer + Sync + ?Sized>(
        &self,
        alg: Algorithm,
        scorer: &S,
        query: &DurableQuery,
    ) -> Result<QueryResult, QueryError> {
        let interval = query.check(self.len)?;
        let jobs = route(interval, self.pieces());

        // One fingerprint per query, not per shard: `None` (no cache, or
        // an unfingerprintable scorer) makes every tail probe bypass the
        // cache — neither a hit nor a miss.
        let scorer_fp = self.result_cache.as_ref().and_then(|_| scorer.fingerprint());

        let partials = WorkerPool::global().run_jobs(jobs.len(), jobs.len(), |i, ctx| {
            // Shards route in global ids; the piece's view starts τ records
            // before it (or at time zero) and numbers from there.
            let piece = jobs[i].local;
            let base = piece.start() - piece.start().min(query.tau);
            let local = DurableQuery {
                k: query.k,
                tau: query.tau,
                interval: Window::new(piece.start() - base, piece.end() - base),
            };
            // A sealed tail's answer over its FULL owned range is a pure
            // function of (shard, alg, scorer, k, τ) — consult the result
            // cache before touching storage, so a hit never faults spilled
            // pages back in. Boundary pieces (the query interval clips the
            // owned range) always probe: their answers depend on the
            // interval, which is deliberately not part of the key.
            let cached = match (jobs[i].owner, &self.result_cache, scorer_fp) {
                (Some(shard), Some(cache), Some(fp)) if piece == shard.owned => {
                    let key = CacheKey {
                        shard_start: shard.owned.start(),
                        alg,
                        scorer: fp,
                        k: local.k,
                        tau: local.tau,
                    };
                    if let Some(hit) = cache.get(&key) {
                        return (base, hit);
                    }
                    Some((cache, key))
                }
                _ => None,
            };
            // Resident chunks come back as a free Arc clone; a spilled one
            // faults its pages in, and the query's stats carry the physical
            // reads it paid.
            let mut cold = 0;
            let mut result = self.with_view(base, base, piece.end(), &mut cold, |view| {
                run_algorithm(view, view, view.skyband(), alg, scorer, &local, ctx)
            });
            if let Some((cache, key)) = cached {
                // Snapshot before the cold-read accounting below: a future
                // hit skips storage, so it must replay with zero cold-page
                // hits.
                cache.insert(key, &result.records, result.stats);
                result.stats.cache_misses += 1;
            }
            result.stats.cold_page_hits += cold;
            (base, result)
        });

        let (records, stats) =
            merge(partials.iter().map(|(base, part)| (*base, &part.records[..], &part.stats)));
        Ok(QueryResult { records, stats })
    }

    /// Answers `DurTop(k, I, τ)` with look-ahead durability windows
    /// `[p.t, p.t + τ]`, on an engine built over the reversed history
    /// ([`Dataset::reversed`]); `I` and the answer are in the original
    /// history's ids. A record is τ-durable looking ahead iff its mirror
    /// image is τ-durable looking back, so the interval is mirrored, the
    /// look-back algorithms run unchanged, and the ids are mapped home.
    ///
    /// # Panics
    /// As [`query`](ShardedEngine::query).
    pub fn query_lookahead<S: OracleScorer + Sync + ?Sized>(
        &self,
        alg: Algorithm,
        scorer: &S,
        query: &DurableQuery,
    ) -> QueryResult {
        let interval = query.validate(self.len);
        let last = (self.len - 1) as Time;
        let mirrored = DurableQuery {
            interval: Window::new(last - interval.end(), last - interval.start()),
            ..*query
        };
        let mut result = self.query(alg, scorer, &mirrored);
        for id in &mut result.records {
            *id = last - *id;
        }
        result.records.reverse();
        result
    }

    /// The longest duration for which record `p` stays in the top-k
    /// (look-back), plus the number of top-k probes used: [`max_duration`]
    /// over the view of records `[0, p]`. A record durable over all of
    /// history reports [`len`](ShardedEngine::len). On an engine over the
    /// reversed history this is the look-ahead duration of record
    /// `len − 1 − p`.
    ///
    /// # Panics
    /// Panics if `k == 0` or `p` is not a record of the engine.
    pub fn max_duration<S: OracleScorer + ?Sized>(
        &self,
        scorer: &S,
        p: RecordId,
        k: usize,
    ) -> (Time, u64) {
        assert!((p as usize) < self.len, "record {p} out of bounds");
        let mut cold = 0;
        let (duration, probes) = self.with_view(0, 0, p, &mut cold, |view| {
            max_duration(view, view, scorer, p, k, &mut QueryContext::new())
        });
        // Durable over all of `[0, p]` is durable over all of history.
        (if duration > p { self.len as Time } else { duration }, probes)
    }

    /// Answers the preference top-k query `Q(u, k, W)` over the whole
    /// sharded history into `out`, drawing scratch from `ctx` — the
    /// building-block view of the engine, which standing-query refreshes
    /// use for per-arrival durability probes: one search over the trees of
    /// every shard `W` touches.
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
        self.probe(scorer, k, w, f64::NEG_INFINITY, ctx, out);
    }

    /// The durability-check twin of [`top_k_into`](ShardedEngine::top_k_into):
    /// whether a record of `w` scoring `score` belongs to `π≤k` of `w`,
    /// searching only at or above `score` — with
    /// [`TopKOracle::durable_into`](crate::TopKOracle::durable_into)'s
    /// contract on `out`.
    pub(crate) fn durable_into<S: OracleScorer + ?Sized>(
        &self,
        scorer: &S,
        k: usize,
        w: Window,
        score: f64,
        ctx: &mut QueryContext,
        out: &mut TopKResult,
    ) -> bool {
        self.probe(scorer, k, w, score, ctx, out);
        out.admits_score(score)
    }

    /// One search of the trees holding `w`, at or above `floor`.
    fn probe<S: OracleScorer + ?Sized>(
        &self,
        scorer: &S,
        k: usize,
        w: Window,
        floor: f64,
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
        // Numbered from time zero, the view reports global ids. The
        // building-block path has no per-query stats channel, so cold
        // reads accumulate in the context; callers drain them via
        // `QueryContext::take_cold_page_hits`.
        let QueryContext { oracle, cold_page_hits, .. } = ctx;
        self.with_view(0, w.start(), w.end(), cold_page_hits, |view| {
            view.search(scorer, k, w, floor, oracle, out)
        });
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

    /// Cumulative top-k queries issued across all shard oracles (sealed
    /// tails plus the head forest; a sealed tree carries on from its
    /// forest's count). Monotone until
    /// [`reset_counters`](ShardedEngine::reset_counters).
    pub fn oracle_queries(&self) -> u64 {
        let tails: u64 = self.tails.iter().map(|shard| shard.oracle.counters().queries()).sum();
        tails + self.head.index.counters().queries()
    }

    /// Resets instrumentation on every shard.
    pub fn reset_counters(&self) {
        self.tails.iter().for_each(|shard| shard.oracle.counters().reset());
        self.head.index.counters().reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{brute_durable, flat};
    use crate::error::BuildError;
    use durable_topk_temporal::{Anchor, LinearScorer};

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
        let flat = flat(&ds, None);
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
        // Interval and its τ reach inside shard 3's owned range [300, 399].
        let q = DurableQuery { k: 2, tau: 30, interval: Window::new(330, 380) };
        let got = sharded.query(Algorithm::THop, &scorer, &q);
        let flat = flat(&ds, None);
        assert_eq!(got.records, flat.query(Algorithm::THop, &scorer, &q).records);
        // Only shard 3's oracle saw traffic.
        let active = sharded.tails.iter().filter(|s| s.oracle.counters().queries() > 0).count();
        assert_eq!(active, 1);
    }

    #[test]
    fn sband_served_per_shard_with_skyband_indexes() {
        let ds = dataset(1_200);
        let sharded =
            EngineConfig::new(2, 1, 100).skyband_bound(8).build_from(&ds, 4).expect("build");
        let flat = flat(&ds, Some(8));
        let scorer = LinearScorer::new(vec![0.4, 0.6]);
        let q = DurableQuery { k: 5, tau: 90, interval: Window::new(0, 1_199) };
        let got = sharded.query(Algorithm::SBand, &scorer, &q);
        assert_eq!(got.records, flat.query(Algorithm::SBand, &scorer, &q).records);
        assert!(got.stats.fallback.is_none(), "within the build bound no shard falls back");
    }

    /// `max_tau` only bounds how far back skyband durations look: windows
    /// reaching one, two or every shard back answer exactly, S-Band
    /// natively.
    #[test]
    fn tau_beyond_max_tau_is_answered_exactly() {
        let ds = dataset(300);
        let sharded =
            EngineConfig::new(2, 1, 20).skyband_bound(4).build_from(&ds, 3).expect("build");
        let flat = flat(&ds, Some(4));
        let scorer = LinearScorer::uniform(2);
        for tau in [21, 150, 299, 5_000] {
            let q = DurableQuery { k: 3, tau, interval: Window::new(90, 299) };
            for alg in Algorithm::ALL {
                let got = sharded.query(alg, &scorer, &q);
                assert_eq!(got.records, flat.query(alg, &scorer, &q).records, "alg={alg} τ={tau}");
                assert_eq!(got.stats.fallback, None, "alg={alg} τ={tau}");
            }
        }
    }

    #[test]
    fn try_query_reports_bad_requests_as_typed_errors() {
        let ds = dataset(300);
        let sharded = built(&ds, 3, 20).expect("build");
        let scorer = LinearScorer::uniform(2);
        let base = DurableQuery { k: 1, tau: 5, interval: Window::new(0, 299) };
        // τ beyond `max_tau` is no error: the answer is the flat engine's.
        let over = DurableQuery { tau: 21, ..base };
        assert_eq!(
            sharded.try_query(Algorithm::THop, &scorer, &over).expect("any τ").records,
            flat(&ds, None).query(Algorithm::THop, &scorer, &over).records
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
        let scorer = LinearScorer::uniform(2);
        let q = DurableQuery { k: 2, tau: 2, interval: Window::new(0, 9) };
        assert_eq!(
            sharded.query(Algorithm::THop, &scorer, &q).records,
            flat(&ds, None).query(Algorithm::THop, &scorer, &q).records
        );
        // A second awkward split: 5 records over 4 shards.
        let ds = dataset(5);
        let sharded = built(&ds, 4, 1).expect("build");
        assert_eq!(sharded.shard_count(), 3);
        let q = DurableQuery { k: 1, tau: 1, interval: Window::new(0, 4) };
        assert_eq!(
            sharded.query(Algorithm::SHop, &scorer, &q).records,
            flat(&ds, None).query(Algorithm::SHop, &scorer, &q).records
        );
    }

    #[test]
    fn more_shards_than_records_clamps() {
        let ds = dataset(5);
        let sharded = built(&ds, 64, 3).expect("build");
        assert_eq!(sharded.shard_count(), 5);
        let scorer = LinearScorer::uniform(2);
        let q = DurableQuery { k: 1, tau: 2, interval: Window::new(0, 4) };
        let flat = flat(&ds, None);
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
        let flat = flat(&ds, None);
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
    /// time on paged storage and engines built from each prefix route alike
    /// and answer like the flat engine at every prefix, for every
    /// algorithm, across a dozen seals and τ up to the whole history, S-Band
    /// natively — and the queries a head served stay counted once it is a
    /// tail.
    #[test]
    fn grown_and_built_engines_agree_at_every_prefix() {
        let ds = dataset(400);
        let scorer = LinearScorer::new(vec![0.3, 0.7]);
        let cfg = EngineConfig::new(2, 32, 24).skyband_bound(4).leaf_size(4);
        let paged = Arc::new(PagedStorage::with_temp_file(1).expect("paged backend"));
        let mut grown = cfg.clone().storage(paged).build().expect("config");
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
            let flat = flat(&prefix, Some(4));
            let q = DurableQuery {
                k: 1 + id as usize % 3,
                tau: 1 + (id * 37) % (id + 1),
                interval: Window::new(id / 3, id),
            };
            for alg in Algorithm::ALL {
                let want = flat.query(alg, &scorer, &q);
                for engine in [&grown, &built] {
                    let got = engine.query(alg, &scorer, &q);
                    assert_eq!(got.records, want.records, "alg={alg} q={q:?}");
                    assert_eq!(got.stats.fallback, None, "alg={alg} q={q:?}");
                }
            }
            let queries = grown.oracle_queries();
            assert!(queries >= queries_so_far, "oracle_queries went backwards at seal {id}");
            queries_so_far = queries;
        }
        assert_eq!(grown.sealed_shards(), 12);
        assert!(grown.storage().stats().spilled_chunks >= 2, "the run spilled");
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
        let flat = flat(&full, None);
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
    fn windows_reaching_across_many_short_shards_answer_exactly() {
        // Span far below τ: every window reads back across three shards,
        // and while the history is short, clamps at its start.
        let scorer = LinearScorer::uniform(2);
        let mut live = live(4, 10);
        let mut full = Dataset::new(2);
        for i in 0..40usize {
            let row = [((i * 13) % 17) as f64, ((i * 5) % 11) as f64];
            live.append(&row);
            full.push(&row);
            let n = full.len() as Time;
            let q = DurableQuery { k: 2, tau: 10, interval: Window::new(0, n - 1) };
            assert_eq!(
                live.query(Algorithm::THop, &scorer, &q).records,
                flat(&full, None).query(Algorithm::THop, &scorer, &q).records,
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
        let flat = SkylineSegTree::build(&ds);
        let mut ctx = QueryContext::new();
        let mut out = TopKResult::empty();
        for (k, a, b) in [(1usize, 0u32, 699u32), (4, 350, 360), (3, 95, 105), (2, 680, 699)] {
            live.top_k_into(&scorer, k, Window::new(a, b), &mut ctx, &mut out);
            let expected = flat.top_k(&ds, &scorer, k, Window::new(a, b));
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
        let flat = flat(&ds, Some(4));
        let got = live.query(Algorithm::SBand, &scorer, &q);
        assert!(got.stats.fallback.is_none(), "sealed shards carry the skyband index");
        assert_eq!(got.records, flat.query(Algorithm::SBand, &scorer, &q).records);
    }

    /// A shard holds the rows it owns and nothing more, and its skyband
    /// reports exactly what an index over those rows plus the `max_tau`
    /// before them does, for those rows only — for shards built from a
    /// dataset and for shards sealed from a grown head, with `max_tau`
    /// below and above the span.
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
                    let (lo, hi) = (shard.owned.start(), shard.owned.end());
                    let (chunk, _) = engine.storage.fetch(shard.chunk);
                    assert_eq!(
                        chunk.raw_attrs(),
                        rows(&ds, lo as usize, hi as usize + 1).raw_attrs()
                    );
                    let from = lo.saturating_sub(max_tau);
                    let reach = rows(&ds, from as usize, hi as usize + 1);
                    let whole = DurableSkybandIndex::build_owned(&reach, 4, lo - from);
                    let sealed = shard.skyband.as_ref().expect("bound configured");
                    let owned = Window::new(sealed.base(), sealed.base() + (hi - lo));
                    for (k, tau) in [(1usize, 1u32), (2, 7), (3, 20), (4, 150), (4, 900)] {
                        let (got, _) = sealed.candidates(Window::new(0, owned.end()), tau, k);
                        assert!(got.iter().all(|&id| owned.contains(id)), "context id reported");
                        let want = whole.candidates(Window::new(lo - from, hi - from), tau, k).0;
                        let shift = |id: RecordId| id - (lo - from) + sealed.base();
                        assert_eq!(got, want.into_iter().map(shift).collect::<Vec<_>>());
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
        let flat_ref = |n: usize| flat(&dataset(n), Some(4));
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
        // Keep only the newest chunk decoded: everything older must be
        // served by faulting pages back in.
        let paged = Arc::new(PagedStorage::with_temp_file(1).expect("paged backend"));
        let mut live = EngineConfig::new(2, 64, 32).storage(paged).build().expect("config");
        for id in 0..600u32 {
            live.append(ds.row(id));
        }
        assert!(
            live.storage().stats().spilled_chunks >= 2,
            "spill_after=1 must leave most tails spilled"
        );
        let one_shard = flat(&ds, None);
        let q = DurableQuery { k: 3, tau: 30, interval: Window::new(0, 599) };
        for alg in [Algorithm::THop, Algorithm::SHop, Algorithm::TBase] {
            let got = live.query(alg, &scorer, &q);
            assert_eq!(got.records, one_shard.query(alg, &scorer, &q).records, "alg={alg}");
        }
        // The full-interval queries touched spilled shards and decoded
        // them from pages. (Physical reads may be zero here — the pool's
        // frames may still hold the pages — which is exactly what
        // cold_page_hits should then report.)
        assert!(
            live.storage().stats().cold_fetches > 0,
            "queries over spilled tails must decode from the paged tier"
        );
        // A paged engine keeps ingesting and sealing into the same store.
        for id in 0..200u32 {
            live.append(ds.row(id));
        }
        let q = DurableQuery { k: 2, tau: 30, interval: Window::new(550, 799) };
        let full = Dataset::from_rows(2, (0..800).map(|i| ds.row(i % 600).to_vec()));
        assert_eq!(
            live.query(Algorithm::SHop, &scorer, &q).records,
            flat(&full, None).query(Algorithm::SHop, &scorer, &q).records
        );
    }

    /// `ds` grown on paged storage that keeps one chunk resident, with
    /// 4-record leaves: three sealed 32-record tails and a head.
    fn paged_engine(ds: &Dataset) -> ShardedEngine {
        let paged = Arc::new(PagedStorage::with_temp_file(1).expect("paged backend"));
        let cfg = EngineConfig::new(2, 32, 24).skyband_bound(4).leaf_size(4).storage(paged);
        let mut engine = cfg.build().expect("config");
        for id in 0..ds.len() as RecordId {
            engine.append(ds.row(id));
        }
        assert_eq!((engine.sealed_shards(), engine.shard_count()), (3, 4));
        assert!(engine.storage().stats().spilled_chunks >= 2);
        engine
    }

    /// The largest `τ`, up to the whole history, for which fewer than `k`
    /// records of `p`'s `anchor` window beat it.
    fn brute_max_duration(
        ds: &Dataset,
        scorer: &LinearScorer,
        p: RecordId,
        k: usize,
        anchor: Anchor,
    ) -> Time {
        let durable = |tau| {
            let q = DurableQuery { k, tau, interval: Window::new(p, p) };
            !brute_durable(ds, scorer, &q, anchor).is_empty()
        };
        (1..=ds.len() as Time).take_while(|&tau| durable(tau)).last().unwrap_or(0)
    }

    /// Both entry points beyond `query`, across spilled tails, seal
    /// boundaries and the head: `max_duration` looking back, and on an
    /// engine over the reversed history look-ahead answers and durations.
    #[test]
    fn max_duration_and_lookahead_match_brute_force_across_spilled_shards() {
        let row = |i: usize| [((i * 37) % 101) as f64, ((i * 73) % 97) as f64];
        // Record 70 beats every other record.
        let ds = Dataset::from_rows(2, (0..120).map(|i| if i == 70 { [200.0; 2] } else { row(i) }));
        let (forward, reversed) = (paged_engine(&ds), paged_engine(&ds.reversed()));
        let scorer = LinearScorer::new(vec![0.4, 0.6]);
        for p in [5, 31, 32, 63, 64, 95, 96, 110, 119] {
            for k in [1, 3] {
                let back = brute_max_duration(&ds, &scorer, p, k, Anchor::LookBack);
                assert_eq!(forward.max_duration(&scorer, p, k).0, back, "p={p} k={k}");
                let ahead = brute_max_duration(&ds, &scorer, p, k, Anchor::LookAhead);
                assert_eq!(reversed.max_duration(&scorer, 119 - p, k).0, ahead, "p={p} k={k}");
            }
        }
        assert_eq!(forward.max_duration(&scorer, 70, 1).0, 120, "durable over all history");
        assert_eq!(reversed.max_duration(&scorer, 119 - 70, 1).0, 120);
        for (k, tau, a, b) in [(1, 10, 0, 119), (3, 40, 20, 100), (2, 200, 50, 119)] {
            let q = DurableQuery { k, tau, interval: Window::new(a, b) };
            let want = brute_durable(&ds, &scorer, &q, Anchor::LookAhead);
            for alg in Algorithm::ALL {
                let got = reversed.query_lookahead(alg, &scorer, &q);
                assert_eq!((got.records, got.stats.fallback), (want.clone(), None), "{alg} {q:?}");
            }
        }
    }

    /// The work the sealed trees do for a fixed T-Hop / S-Band / S-Hop
    /// request set, pinned: durability checks search only at or above the
    /// checked record's score, so the same checks open fewer nodes and
    /// score fewer records, while every check count stays the same.
    #[test]
    fn durability_checks_search_only_above_the_checked_score() {
        let engine = EngineConfig::new(2, 1, 400).skyband_bound(8).build_from(&dataset(8_000), 4);
        let engine = engine.expect("build");
        let mut checks = 0;
        for (i, alg) in [Algorithm::THop, Algorithm::SBand, Algorithm::SHop].into_iter().enumerate()
        {
            for (j, (k, tau, lo, hi)) in
                [(1, 50, 0, 7_999), (4, 300, 1_500, 6_500), (10, 900, 3_900, 4_100)]
                    .into_iter()
                    .enumerate()
            {
                let scorer = LinearScorer::new(vec![1.0 + (i + j) as f64, 2.0 + j as f64]);
                let q = DurableQuery { k, tau, interval: Window::new(lo, hi) };
                checks += engine.query(alg, &scorer, &q).stats.durability_checks;
            }
        }
        let work = engine.tails.iter().fold((0, 0), |(nodes, records), shard| {
            let c = shard.oracle.counters();
            (nodes + c.nodes_opened(), records + c.records_scanned())
        });
        // With every check searching down to the window's k-th score,
        // the same request set read (897, 3_908, 125_263); with S-Hop's
        // refills searching for top-k sets, (897, 3_176, 100_231).
        assert_eq!((checks, work.0, work.1), (897, 3_255, 100_424), "(checks, nodes, records)");
    }

    #[test]
    #[should_panic(expected = "dataset is empty")]
    fn querying_an_empty_live_engine_is_rejected() {
        let live = live(8, 4);
        let q = DurableQuery { k: 1, tau: 2, interval: Window::new(0, 0) };
        live.query(Algorithm::THop, &LinearScorer::uniform(2), &q);
    }
}
