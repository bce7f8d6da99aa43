//! Reusable per-thread scratch for the query pipeline.
//!
//! The hop algorithms win by bounding *oracle invocations*; the constant
//! factor per invocation is dominated by allocator traffic when every probe
//! builds fresh heaps and bitmaps. A [`QueryContext`] owns every buffer the
//! five algorithms and the segment-tree oracle need — heaps, visited
//! stamps, blocking Fenwick, answer and `π≤k` item buffers — so a context
//! reused across queries makes the per-probe path allocation-free.
//!
//! One context per thread: contexts are cheap to create, internally reset
//! between queries, and deliberately `!Sync` usage — batch executors hold
//! one per worker (see [`crate::WorkerPool`]).

use crate::algorithms::ShopScratch;
use durable_topk_index::{BlockingSet, OracleScratch, TopKResult};
use durable_topk_temporal::RecordId;

/// A generation-stamped membership set over record ids.
///
/// Replaces the `vec![false; ds.len()]` bitmaps the algorithms used to
/// allocate per query: resetting bumps a generation counter instead of
/// clearing, so reuse across queries costs `O(1)` once the stamp array is
/// warm.
#[derive(Debug, Clone, Default)]
pub(crate) struct StampSet {
    stamps: Vec<u32>,
    generation: u32,
}

impl StampSet {
    /// Empties the set and grows it to address ids `0..n`.
    pub(crate) fn reset(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        if self.generation == u32::MAX {
            self.stamps.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
    }

    /// Whether `id` is in the set.
    #[inline]
    pub(crate) fn contains(&self, id: RecordId) -> bool {
        self.stamps[id as usize] == self.generation
    }

    /// Inserts `id`, returning whether it was newly inserted.
    #[inline]
    pub(crate) fn insert(&mut self, id: RecordId) -> bool {
        let slot = &mut self.stamps[id as usize];
        let fresh = *slot != self.generation;
        *slot = self.generation;
        fresh
    }
}

/// Reusable scratch for the durable top-k query pipeline.
///
/// Thread one context through repeated calls of the
/// [`algorithms`](crate::algorithms) (every
/// [`WorkerPool`](crate::WorkerPool) participant holds one, which a
/// [`ShardedEngine`](crate::ShardedEngine) query's pieces use) and the hot
/// path performs no per-probe allocations: segment-tree search heaps,
/// durability-check result buffers, S-Hop's candidate arena and max-heap,
/// and the blocking Fenwick are all drawn from here.
///
/// A context carries no query state between calls — every algorithm resets
/// the pieces it uses — so any sequence of queries against any mix of
/// datasets may share one context.
#[derive(Debug, Default)]
pub struct QueryContext {
    /// Segment-tree / scan oracle scratch (frontier, best-k heap, memo).
    pub(crate) oracle: OracleScratch,
    /// Reusable `π≤k` buffer for durability checks.
    pub(crate) pi: TopKResult,
    /// Reusable `π≤k` buffer for refill queries (S-Hop subinterval sets,
    /// T-Base window recomputation).
    pub(crate) refill: TopKResult,
    /// Answer accumulation buffer.
    pub(crate) answers: Vec<RecordId>,
    /// Scored-candidate buffer (S-Base / S-Band sort input).
    pub(crate) scored: Vec<(RecordId, f64)>,
    /// Blocking-interval multiset (score-prioritized algorithms).
    pub(crate) blocking: BlockingSet,
    /// "Has a blocking interval been placed for this record" membership.
    pub(crate) has_interval: StampSet,
    /// "Was this record already popped" membership (S-Hop resurfacing).
    pub(crate) processed: StampSet,
    /// S-Hop's subinterval arena, exposure heap and item-vector pool.
    pub(crate) shop: ShopScratch,
    /// Cold page reads paid by building-block probes
    /// ([`ShardedEngine::top_k_into`](crate::ShardedEngine::top_k_into))
    /// since the last [`take_cold_page_hits`](QueryContext::take_cold_page_hits)
    /// — the stats channel the per-query path does not have.
    pub(crate) cold_page_hits: u64,
}

impl QueryContext {
    /// Creates an empty context; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains the answer buffer into an owned, right-sized vector, keeping
    /// the buffer's capacity for the next query.
    pub(crate) fn take_answers(&mut self) -> Vec<RecordId> {
        let records = self.answers.clone();
        self.answers.clear();
        records
    }

    /// Drains the cold page reads accumulated by building-block probes
    /// ([`ShardedEngine::top_k_into`](crate::ShardedEngine::top_k_into))
    /// run through this context since the last drain. The subscription
    /// refresh path folds the count into
    /// [`ServeStats::cold_page_hits`](crate::ServeStats).
    pub fn take_cold_page_hits(&mut self) -> u64 {
        std::mem::take(&mut self.cold_page_hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_set_resets_in_constant_time() {
        let mut s = StampSet::default();
        s.reset(4);
        assert!(s.insert(2));
        assert!(!s.insert(2));
        assert!(s.contains(2));
        assert!(!s.contains(3));
        s.reset(4);
        assert!(!s.contains(2), "reset must empty the set");
        assert!(s.insert(2));
    }

    #[test]
    fn stamp_set_survives_generation_wrap() {
        let mut s = StampSet { stamps: vec![u32::MAX - 1; 3], generation: u32::MAX - 1 };
        assert!(s.contains(0));
        s.reset(3);
        assert!(!s.contains(0), "wrap to MAX still empties");
        s.insert(1);
        s.reset(3);
        assert!(!s.contains(1), "wrap past MAX clears stale stamps");
    }

    #[test]
    fn take_answers_keeps_capacity() {
        let mut ctx = QueryContext::new();
        ctx.answers.extend([3, 1, 2]);
        let cap = ctx.answers.capacity();
        let taken = ctx.take_answers();
        assert_eq!(taken, vec![3, 1, 2]);
        assert!(ctx.answers.is_empty());
        assert_eq!(ctx.answers.capacity(), cap);
    }
}
