//! Offline past-dominator counting.
//!
//! For every record `p_i`, counts how many earlier records (`j < i`) strictly
//! dominate it. The durable k-skyband construction uses these counts to
//! short-circuit records that never accumulate `k` dominators (their skyband
//! duration is unbounded), which is what makes the S-Band index build
//! tractable on anti-correlated data where most records stay in the skyband
//! forever.
//!
//! * `d == 2`: CDQ divide-and-conquer on time with a Fenwick sweep on the
//!   y-rank — `O(n log² n)`.
//! * `d != 2`: per-record backward scan with per-pair early exit —
//!   `O(n²)` worst case (used only at the reduced sizes the
//!   high-dimensional experiments run at).

use crate::dominance::dominates;
use durable_topk_temporal::Dataset;
use std::collections::HashMap;

/// A minimal Fenwick (binary indexed) tree over `u64` counts.
///
/// Exposed publicly because the blocking-interval mechanism in the index
/// crate builds on it.
#[derive(Debug, Clone)]
pub struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    /// Creates a Fenwick tree over positions `0..len`.
    pub fn new(len: usize) -> Self {
        Self { tree: vec![0; len + 1] }
    }

    /// Number of addressable positions.
    pub fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Whether the tree addresses no positions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Re-sizes a tree whose counts are **all zero** to address `0..len`,
    /// reusing the allocation and writing only the cells it gains — for
    /// callers that emptied the tree by undoing their own additions, so
    /// re-use costs what they added, not the whole domain.
    pub fn resize_zeroed(&mut self, len: usize) {
        debug_assert!(self.tree.iter().all(|&c| c == 0), "tree still holds counts");
        self.tree.resize(len + 1, 0);
    }

    /// Adds `delta` at position `i` (0-based).
    #[inline]
    pub fn add(&mut self, i: usize, delta: i64) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta as u64);
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `0..=i`.
    #[inline]
    pub fn prefix(&self, i: usize) -> u64 {
        let mut i = (i + 1).min(self.tree.len() - 1);
        let mut s = 0u64;
        while i > 0 {
            s = s.wrapping_add(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Sum over the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range(&self, lo: usize, hi: usize) -> u64 {
        if lo > hi {
            return 0;
        }
        let hi_sum = self.prefix(hi);
        if lo == 0 {
            hi_sum
        } else {
            hi_sum.wrapping_sub(self.prefix(lo - 1))
        }
    }
}

/// Counts, for each record, the number of strictly earlier records that
/// strictly dominate it.
pub fn past_dominator_counts(ds: &Dataset) -> Vec<u32> {
    match ds.dim() {
        2 => counts_2d(ds),
        _ => counts_scan(ds),
    }
}

fn counts_scan(ds: &Dataset) -> Vec<u32> {
    let n = ds.len();
    let mut counts = vec![0u32; n];
    for (i, count) in counts.iter_mut().enumerate().skip(1) {
        let row = ds.row(i as u32);
        let mut c = 0u32;
        for j in 0..i {
            if dominates(ds.row(j as u32), row) {
                c += 1;
            }
        }
        *count = c;
    }
    counts
}

fn counts_2d(ds: &Dataset) -> Vec<u32> {
    let n = ds.len();
    if n == 0 {
        return Vec::new();
    }
    // Weak-dominance counts via CDQ, then subtract exact duplicates to get
    // strict dominance (weak dominator that is not an identical point).
    let xs: Vec<f64> = (0..n).map(|i| ds.value(i as u32, 0)).collect();
    let ys: Vec<f64> = (0..n).map(|i| ds.value(i as u32, 1)).collect();

    // Global y-rank compression.
    let mut y_sorted: Vec<f64> = ys.clone();
    y_sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN attributes"));
    y_sorted.dedup();
    let y_rank = |y: f64| -> usize {
        y_sorted.partition_point(|&v| v < y) // rank of first value >= y
    };
    let ranks: Vec<usize> = ys.iter().map(|&y| y_rank(y)).collect();

    let mut weak = vec![0u64; n];
    let mut fenwick = Fenwick::new(y_sorted.len());
    // Iterative CDQ: process ranges [lo, hi) with explicit stack, counting
    // cross contributions left-half -> right-half at every merge level.
    let mut stack = vec![(0usize, n)];
    let mut order: Vec<(usize, usize, usize)> = Vec::new(); // (lo, mid, hi)
    while let Some((lo, hi)) = stack.pop() {
        if hi - lo <= 1 {
            continue;
        }
        let mid = lo + (hi - lo) / 2;
        order.push((lo, mid, hi));
        stack.push((lo, mid));
        stack.push((mid, hi));
    }
    let mut left_ids: Vec<u32> = Vec::new();
    let mut right_ids: Vec<u32> = Vec::new();
    for (lo, mid, hi) in order {
        left_ids.clear();
        left_ids.extend(lo as u32..mid as u32);
        right_ids.clear();
        right_ids.extend(mid as u32..hi as u32);
        // Sort both halves by x descending; sweep targets, inserting every
        // source with x_src >= x_tgt, then count inserted y_src >= y_tgt.
        let sort_desc = |ids: &mut Vec<u32>| {
            ids.sort_unstable_by(|&a, &b| {
                xs[b as usize].partial_cmp(&xs[a as usize]).expect("no NaN attributes")
            })
        };
        sort_desc(&mut left_ids);
        sort_desc(&mut right_ids);
        let mut li = 0;
        let total_ranks = y_sorted.len();
        let mut inserted = 0u64;
        for &tgt in right_ids.iter() {
            while li < left_ids.len() && xs[left_ids[li] as usize] >= xs[tgt as usize] {
                fenwick.add(ranks[left_ids[li] as usize], 1);
                inserted += 1;
                li += 1;
            }
            let r = ranks[tgt as usize];
            let below = if r == 0 { 0 } else { fenwick.prefix(r - 1) };
            weak[tgt as usize] += inserted - below;
        }
        // Roll back this merge's insertions.
        for &src in &left_ids[..li] {
            fenwick.add(ranks[src as usize], -1);
        }
        let _ = total_ranks;
    }

    // Subtract exact duplicates (weakly dominate but not strictly).
    let mut dup: HashMap<(u64, u64), u32> = HashMap::new();
    let mut counts = vec![0u32; n];
    for i in 0..n {
        let key = (xs[i].to_bits(), ys[i].to_bits());
        let eq_before = dup.get(&key).copied().unwrap_or(0);
        counts[i] = (weak[i] - eq_before as u64) as u32;
        *dup.entry(key).or_insert(0) += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fenwick_prefix_and_range() {
        let mut f = Fenwick::new(10);
        f.add(0, 3);
        f.add(4, 2);
        f.add(9, 1);
        assert_eq!(f.prefix(0), 3);
        assert_eq!(f.prefix(3), 3);
        assert_eq!(f.prefix(4), 5);
        assert_eq!(f.prefix(9), 6);
        assert_eq!(f.range(1, 4), 2);
        assert_eq!(f.range(5, 9), 1);
        assert_eq!(f.range(7, 3), 0);
        f.add(4, -2);
        assert_eq!(f.prefix(9), 4);
    }

    #[test]
    fn counts_on_known_sequence() {
        // times:    0         1         2         3
        let ds = Dataset::from_rows(2, [[5.0, 5.0], [3.0, 3.0], [4.0, 6.0], [1.0, 1.0]]);
        // record1 dominated by record0; record2 by nobody; record3 by all.
        assert_eq!(past_dominator_counts(&ds), vec![0, 1, 0, 3]);
    }

    #[test]
    fn duplicates_do_not_dominate() {
        let ds = Dataset::from_rows(2, [[2.0, 2.0], [2.0, 2.0], [2.0, 1.0]]);
        assert_eq!(past_dominator_counts(&ds), vec![0, 0, 2]);
    }

    #[test]
    fn cdq_matches_scan_randomized() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..15 {
            let n = rng.random_range(1..200);
            let rows: Vec<[f64; 2]> = (0..n)
                .map(|_| [rng.random_range(0..12) as f64, rng.random_range(0..12) as f64])
                .collect();
            let ds = Dataset::from_rows(2, rows);
            let fast = counts_2d(&ds);
            let slow = counts_scan(&ds);
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn high_dim_scan_counts() {
        let ds = Dataset::from_rows(
            3,
            [[3.0, 3.0, 3.0], [2.0, 2.0, 2.0], [3.0, 2.0, 4.0], [1.0, 1.0, 1.0]],
        );
        assert_eq!(past_dominator_counts(&ds), vec![0, 1, 0, 3]);
    }
}
