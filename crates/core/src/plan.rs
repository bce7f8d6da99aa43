//! The time decomposition of `DurTop(k, I, τ)` as plain data.
//!
//! A durability window `[p.t − τ, p.t]` only looks backwards, so any
//! contiguous time range whose owner can read the `τ` records before it —
//! its own left context, or its predecessors' rows — answers its own
//! records exactly, and the per-range answers concatenate. This module is
//! that sentence as code, and the only place it is written: [`route`]
//! splits an interval over a time-ordered list of [`OwnedRange`]s into
//! per-owner local windows, [`merge`] maps the per-owner answers home and
//! concatenates them. [`ShardedEngine`](crate::ShardedEngine) routes over
//! its shards with it, in global ids, each piece reading its predecessors;
//! a scatter-gather coordinator routes over its nodes, each holding its own
//! left context, with the same two functions, one level up.

use crate::query::QueryStats;
use durable_topk_temporal::{RecordId, Time, Window};

/// One contiguous slice of the global timeline as its owner sees it: the
/// owner's ids start at `ext_lo` (a node's left context; `0` for owners
/// that speak global ids), and it reports answers for `[lo, hi]` only.
/// Global record `g` is the owner's local record `g − ext_lo`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OwnedRange {
    /// Global id of the owner's local record 0 (`≤ lo`).
    pub ext_lo: Time,
    /// First global id the owner answers for.
    pub lo: Time,
    /// Last global id the owner answers for (inclusive).
    pub hi: Time,
}

impl OwnedRange {
    /// The part of the global window `w` this range owns, in the owner's
    /// local coordinates, or `None` when they are disjoint.
    pub fn localize(&self, w: Window) -> Option<Window> {
        let piece = w.intersect(Window::new(self.lo, self.hi))?;
        Some(Window::new(piece.start() - self.ext_lo, piece.end() - self.ext_lo))
    }
}

/// One routed piece of a query: who answers it, over which local window,
/// and the offset that maps its local answer ids back to global ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Piece<T> {
    /// Whatever the caller attached to the owning range (a shard, a node
    /// index).
    pub owner: T,
    /// The owner's `ext_lo`: local id + `ext_lo` = global id.
    pub ext_lo: Time,
    /// The piece in the owner's local coordinates.
    pub local: Window,
}

/// Splits `interval` over `owners` — disjoint, time-ordered ranges, each
/// with a caller-chosen tag — keeping only the owners it touches. Pieces
/// come back in time order; their global images partition `interval ∩ ⋃
/// owners`.
pub fn route<T>(
    interval: Window,
    owners: impl IntoIterator<Item = (OwnedRange, T)>,
) -> Vec<Piece<T>> {
    owners
        .into_iter()
        .filter_map(|(range, owner)| {
            let local = range.localize(interval)?;
            Some(Piece { owner, ext_lo: range.ext_lo, local })
        })
        .collect()
}

/// Merges per-piece answers given as `(base, local records, stats)` in
/// time order, where `base` is the global id of the piece's local record 0
/// (its owner's `ext_lo`, or the first id of the view it ran over): local
/// ids are mapped home and concatenated (owners are disjoint and
/// increasing, so sorted per-piece answers concatenate into a sorted
/// global answer) into one exactly-reserved vector, and every piece's
/// stats are [`absorb`](QueryStats::absorb)ed.
pub fn merge<'a>(
    parts: impl Iterator<Item = (Time, &'a [RecordId], &'a QueryStats)> + Clone,
) -> (Vec<RecordId>, QueryStats) {
    let total = parts.clone().map(|(_, records, _)| records.len()).sum();
    let mut records = Vec::with_capacity(total);
    let mut stats = QueryStats::default();
    for (base, local, part) in parts {
        records.extend(local.iter().map(|&id| id + base));
        stats.absorb(part);
    }
    (records, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::FallbackReason;
    use rand::prelude::*;

    /// A random contiguous tiling of `[0, n)` by 1–12 ranges, each with a
    /// random amount of left context.
    fn tiling(rng: &mut StdRng) -> Vec<OwnedRange> {
        let mut ranges = Vec::new();
        let mut lo: Time = 0;
        for _ in 0..rng.random_range(1..13) {
            let hi = lo + rng.random_range(0..40);
            ranges.push(OwnedRange { ext_lo: lo - rng.random_range(0..lo + 1), lo, hi });
            lo = hi + 1;
        }
        ranges
    }

    #[test]
    fn route_partitions_the_interval_over_its_owners() {
        let mut rng = StdRng::seed_from_u64(1_501);
        for case in 0..400 {
            let ranges = tiling(&mut rng);
            let n = ranges[ranges.len() - 1].hi + 1;
            let a = rng.random_range(0..n);
            let interval = Window::new(a, rng.random_range(a..n));
            let pieces = route(interval, ranges.iter().copied().zip(0usize..));
            // Time order, each inside its owner, local window inside the
            // owner's local range; the global images tile the interval.
            let mut next = interval.start();
            for (i, piece) in pieces.iter().enumerate() {
                let owner = ranges[piece.owner];
                assert!(i == 0 || pieces[i - 1].owner < piece.owner, "case {case}: time order");
                assert_eq!(piece.ext_lo, owner.ext_lo, "case {case}");
                let global = (piece.local.start() + owner.ext_lo, piece.local.end() + owner.ext_lo);
                assert!(owner.lo <= global.0 && global.1 <= owner.hi, "case {case}: inside owner");
                assert_eq!(global.0, next, "case {case}: images are disjoint and gap-free");
                next = global.1 + 1;
            }
            assert_eq!(next, interval.end() + 1, "case {case}: images cover the interval");
        }
    }

    #[test]
    fn merge_concatenates_in_global_ids_and_absorbs_every_stat() {
        let (degraded, missing) =
            (FallbackReason::NonMonotoneScorer, FallbackReason::MissingSkybandIndex);
        let mut rng = StdRng::seed_from_u64(1_502);
        for case in 0..200 {
            let ranges = tiling(&mut rng);
            let n = ranges[ranges.len() - 1].hi + 1;
            let pieces = route(Window::new(0, n - 1), ranges.iter().copied().zip(0usize..));
            // Each owner answers a random subset of its piece, local ids.
            let answers: Vec<(Vec<RecordId>, QueryStats)> = pieces
                .iter()
                .map(|p| {
                    let records = p.local.iter().filter(|_| rng.random_range(0..3) == 0).collect();
                    let stats = QueryStats {
                        durability_checks: rng.random_range(0..9),
                        refill_queries: rng.random_range(0..9),
                        candidates: rng.random_range(0..9),
                        blocked_skips: rng.random_range(0..9),
                        cold_page_hits: rng.random_range(0..9),
                        cache_hits: rng.random_range(0..9),
                        cache_misses: rng.random_range(0..9),
                        fallback: [None, None, Some(degraded), Some(missing)]
                            [rng.random_range(0..4)],
                    };
                    (records, stats)
                })
                .collect();
            let (records, stats) =
                merge(pieces.iter().zip(&answers).map(|(p, (r, s))| (p.ext_lo, &r[..], s)));
            let mut expected: Vec<RecordId> = pieces
                .iter()
                .zip(&answers)
                .flat_map(|(p, (r, _))| r.iter().map(|&id| id + p.ext_lo))
                .collect();
            assert_eq!(records.capacity(), expected.len(), "case {case}: one exact reservation");
            assert_eq!(records, expected, "case {case}");
            expected.sort_unstable();
            assert_eq!(records, expected, "case {case}: concatenation is already sorted");
            let sum = |f: fn(&QueryStats) -> u64| answers.iter().map(|(_, s)| f(s)).sum::<u64>();
            assert_eq!(stats.durability_checks, sum(|s| s.durability_checks));
            assert_eq!(stats.refill_queries, sum(|s| s.refill_queries));
            assert_eq!(stats.candidates, sum(|s| s.candidates));
            assert_eq!(stats.blocked_skips, sum(|s| s.blocked_skips));
            assert_eq!(stats.cold_page_hits, sum(|s| s.cold_page_hits));
            assert_eq!(stats.cache_hits, sum(|s| s.cache_hits));
            assert_eq!(stats.cache_misses, sum(|s| s.cache_misses));
            // The gate-worthy reason wins wherever it sits; else the first.
            let reasons = || answers.iter().filter_map(|(_, s)| s.fallback);
            assert_eq!(stats.fallback, reasons().find(|&r| r == missing).or(reasons().next()));
        }
    }
}
