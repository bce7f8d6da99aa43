//! Memoization of immutable per-shard answers.
//!
//! Sealed tail shards never change, so the partial answer a shard produces
//! for a given `(algorithm, scorer, k, τ)` over its **full owned range** is
//! a pure function of the key — yet every serve request, `--alg all`
//! sweep, and subscription seal-boundary reconciliation re-runs the probe
//! (and, over a [`PagedStorage`](crate::PagedStorage) with a pager, may
//! re-fault spilled pages just to recompute an answer already produced). [`ShardResultCache`]
//! closes that gap: a bounded, byte-budgeted, sharded-lock LRU that
//! [`ShardedEngine::try_query`](crate::ShardedEngine::try_query) consults
//! *before* touching storage, so a hit never faults pages back in.
//!
//! # Key structure and invalidation
//!
//! Entries are keyed by `(shard generation, algorithm, scorer fingerprint,
//! k, τ)`:
//!
//! * **Shard generation** — a process-global, never-reused id
//!   (`next_shard_gen`, crate-private) stamped onto each shard when it is
//!   sealed. Seal cascades and head splices therefore invalidate *for
//!   free*: the superseded generation can never be probed again, and its
//!   entries age out of the LRU. Nothing is ever flushed wholesale.
//! * **Scorer fingerprint** — the bit-exact structural hash of
//!   [`OracleScorer::fingerprint`](durable_topk_index::OracleScorer::fingerprint).
//!   Scorers without one (opaque [`ScorerSpec::Custom`](crate::ScorerSpec)
//!   closures) bypass the cache entirely — neither a hit nor a miss.
//! * **The query interval is deliberately absent**: only probes covering
//!   the shard's full owned range are cached, and for those the localized
//!   interval is determined by the shard itself. Boundary pieces (queries
//!   clipping the owned range) always probe.
//!
//! Entries hold the per-shard partial answer in **local** record ids plus a
//! stats snapshot taken *before* the probe's cold-read accounting, so a hit
//! replays the answer with `cold_page_hits = 0` — physically true, since
//! the hit skipped `storage.fetch` — while preserving the snapshot's
//! [`fallback`](crate::QueryStats::fallback) classification bit-exactly.

use crate::check::{LockClass, TrackedMutex};
use crate::engine::Algorithm;
use crate::query::{QueryResult, QueryStats};
use durable_topk_temporal::{RecordId, Time};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-global allocator for shard generation ids. Never reused: a
/// superseded generation's cache entries can never be probed again, which
/// is the entire invalidation story.
static NEXT_SHARD_GEN: AtomicU64 = AtomicU64::new(0);

/// Allocates a fresh shard generation id (see [`ShardResultCache`]).
pub(crate) fn next_shard_gen() -> u64 {
    NEXT_SHARD_GEN.fetch_add(1, Ordering::Relaxed)
}

/// The identity of one cacheable per-shard probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// The shard's generation id ([`next_shard_gen`]).
    pub(crate) shard_gen: u64,
    pub(crate) alg: Algorithm,
    /// The scorer's structural fingerprint.
    pub(crate) scorer: u64,
    pub(crate) k: usize,
    pub(crate) tau: Time,
}

/// One memoized partial answer: local record ids plus the probe's stats
/// snapshot (taken before cold-read accounting).
#[derive(Debug)]
struct Entry {
    records: Vec<RecordId>,
    stats: QueryStats,
    /// Estimated resident footprint, fixed at insert time.
    bytes: usize,
    /// LRU stamp from the cache-global tick.
    last_used: u64,
}

impl Entry {
    fn footprint(records: &[RecordId]) -> usize {
        std::mem::size_of::<CacheKey>()
            + std::mem::size_of::<Entry>()
            + std::mem::size_of_val(records)
    }
}

/// One lock shard of the cache: an open-addressed map plus its resident
/// byte count.
#[derive(Debug, Default)]
struct CacheShard {
    map: HashMap<CacheKey, Entry>,
    bytes: usize,
}

/// Number of independently locked map shards; keys spread by hash, so
/// concurrent fan-out workers rarely contend on one mutex.
const LOCK_SHARDS: usize = 16;

/// A point-in-time snapshot of the cache's counters and residency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Probes answered from the cache (each one skipped a `storage.fetch`).
    pub hits: u64,
    /// Cacheable probes that ran because no entry existed yet.
    pub misses: u64,
    /// Entries evicted to stay under the byte budget, oldest first.
    pub evictions: u64,
    /// Estimated bytes currently resident across all lock shards.
    pub resident_bytes: u64,
    /// Entries currently resident.
    pub entries: u64,
}

/// A bounded, byte-budgeted, sharded-lock LRU memoizing immutable
/// per-shard partial answers (see the module docs for the key structure
/// and invalidation rules).
#[derive(Debug)]
pub struct ShardResultCache {
    shards: Vec<TrackedMutex<CacheShard>>,
    /// Byte budget per lock shard (total budget split evenly).
    shard_budget: usize,
    /// Monotone LRU clock shared by all lock shards.
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ShardResultCache {
    /// Creates a cache bounded at roughly `budget_bytes` of memoized
    /// answers (split evenly across the internal lock shards).
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            shards: (0..LOCK_SHARDS)
                .map(|_| TrackedMutex::new(LockClass::CacheShard, CacheShard::default()))
                .collect(),
            shard_budget: (budget_bytes / LOCK_SHARDS).max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: &CacheKey) -> &TrackedMutex<CacheShard> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % LOCK_SHARDS]
    }

    /// Looks one probe up. A hit returns the memoized partial answer with
    /// [`cache_hits`](QueryStats::cache_hits)` = 1` and zero cold-page
    /// hits; an absent key counts as a miss (the caller runs the probe and
    /// [`insert`](ShardResultCache::insert)s).
    pub(crate) fn get(&self, key: &CacheKey) -> Option<QueryResult> {
        let mut shard = self.shard_for(key).lock();
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                let mut stats = entry.stats;
                stats.cache_hits += 1;
                Some(QueryResult { records: entry.records.clone(), stats })
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Memoizes one probe's partial answer. `stats` must be the snapshot
    /// *before* cold-read accounting, so replays report zero cold-page
    /// hits. Evicts least-recently-used entries while the lock shard is
    /// over its budget slice; an answer bigger than the whole slice is not
    /// cached at all.
    pub(crate) fn insert(&self, key: CacheKey, records: &[RecordId], stats: QueryStats) {
        let bytes = Entry::footprint(records);
        if bytes > self.shard_budget {
            return;
        }
        let last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard_for(&key).lock();
        let entry = Entry { records: records.to_vec(), stats, bytes, last_used };
        if let Some(old) = shard.map.insert(key, entry) {
            shard.bytes -= old.bytes;
        }
        shard.bytes += bytes;
        while shard.bytes > self.shard_budget {
            // Oldest-first eviction by scan: shards stay small enough
            // (bounded by the budget slice) that a scan beats maintaining
            // an intrusive list under the same lock.
            let oldest = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                // lint: allow(expect) — the loop guard saw bytes > 0.
                .expect("over-budget shard cannot be empty");
            // lint: allow(expect) — `oldest` was read out of this map
            // under the same shard lock.
            let evicted = shard.map.remove(&oldest).expect("key just observed");
            shard.bytes -= evicted.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A snapshot of the hit/miss/eviction counters and current residency.
    pub fn stats(&self) -> ResultCacheStats {
        let mut resident_bytes = 0u64;
        let mut entries = 0u64;
        for shard in &self.shards {
            let shard = shard.lock();
            resident_bytes += shard.bytes as u64;
            entries += shard.map.len() as u64;
        }
        ResultCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes,
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(shard_gen: u64, k: usize) -> CacheKey {
        CacheKey { shard_gen, alg: Algorithm::THop, scorer: 0xfeed, k, tau: 8 }
    }

    #[test]
    fn hit_replays_the_answer_with_zero_cold_hits() {
        let cache = ShardResultCache::new(1 << 20);
        let stats = QueryStats { candidates: 7, cold_page_hits: 0, ..Default::default() };
        assert!(cache.get(&key(1, 3)).is_none(), "empty cache misses");
        cache.insert(key(1, 3), &[2, 5, 9], stats);
        let hit = cache.get(&key(1, 3)).expect("just inserted");
        assert_eq!(hit.records, vec![2, 5, 9]);
        assert_eq!(hit.stats.cache_hits, 1);
        assert_eq!(hit.stats.cold_page_hits, 0);
        assert_eq!(hit.stats.candidates, 7);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.resident_bytes > 0);
    }

    #[test]
    fn distinct_generations_never_alias() {
        let cache = ShardResultCache::new(1 << 20);
        cache.insert(key(1, 3), &[1], QueryStats::default());
        assert!(cache.get(&key(2, 3)).is_none(), "a resealed shard has a new generation");
        assert!(cache.get(&key(1, 4)).is_none(), "k is part of the key");
    }

    #[test]
    fn byte_budget_evicts_oldest_first() {
        // A tiny budget: each entry is ~200 bytes, so a few inserts into
        // one lock shard must evict.
        let cache = ShardResultCache::new(LOCK_SHARDS * 4 * Entry::footprint(&[0; 8]));
        for g in 0..256u64 {
            cache.insert(key(g, 1), &[0; 8], QueryStats::default());
        }
        let s = cache.stats();
        assert!(s.evictions > 0, "256 entries cannot fit a 4-entry-per-shard budget");
        assert!(s.resident_bytes <= (LOCK_SHARDS * 4 * Entry::footprint(&[0; 8])) as u64);
        assert_eq!(s.entries + s.evictions, 256);
    }

    #[test]
    fn oversized_answers_are_not_cached() {
        let cache = ShardResultCache::new(64);
        cache.insert(key(1, 1), &vec![0; 10_000], QueryStats::default());
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions, s.resident_bytes), (0, 0, 0));
    }

    #[test]
    fn generation_ids_are_never_reused() {
        let a = next_shard_gen();
        let b = next_shard_gen();
        assert_ne!(a, b);
    }
}
