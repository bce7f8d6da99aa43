//! The blocking mechanism of the score-prioritized algorithms.
//!
//! When a record `q` with score `f(q)` is visited, it *blocks* the τ-length
//! interval `[q.t, q.t + τ]`: any record arriving in that interval has `q`
//! inside its own look-back window. Once a timestamp is covered by `k`
//! blocking intervals from strictly higher-scoring records, no record there
//! can be τ-durable (Section IV, Fig. 3).
//!
//! Because every blocking interval has the same length τ, coverage of `t`
//! reduces to counting interval *left endpoints* in `[t − τ, t]` — a Fenwick
//! prefix-sum query over the discrete time domain.
//!
//! **Tie safety.** The paper assumes distinct scores; with real data (e.g.
//! integer rebounds) ties are common, and an interval contributed by a
//! record scoring *equal* to the record under test must not count (the
//! durability predicate is strict: `f(q) > f(p)`). Callers visit records in
//! non-increasing score order, so only the most recent score level can tie;
//! the set keeps that level's left endpoints in a side buffer and subtracts
//! the ones covering the probe.

use durable_topk_geom::Fenwick;
use durable_topk_temporal::Time;

/// A multiset of fixed-length blocking intervals with tie-aware coverage
/// counting.
#[derive(Debug, Clone)]
pub struct BlockingSet {
    fenwick: Fenwick,
    tau: Time,
    /// Every left endpoint inserted since the last reset, so the next
    /// reset can take them back out instead of zeroing the domain.
    lefts: Vec<Time>,
    /// Left endpoints inserted at the current (lowest-so-far) score level.
    tie_lefts: Vec<Time>,
    tie_score: f64,
}

impl Default for BlockingSet {
    /// An empty set over an empty domain; size it with
    /// [`reset`](BlockingSet::reset) before use.
    fn default() -> Self {
        Self::new(0, 1)
    }
}

impl BlockingSet {
    /// Creates an empty set over the time domain `[0, n)` for intervals of
    /// length `tau`.
    pub fn new(n: usize, tau: Time) -> Self {
        Self {
            fenwick: Fenwick::new(n),
            tau,
            lefts: Vec::new(),
            tie_lefts: Vec::new(),
            tie_score: f64::INFINITY,
        }
    }

    /// Empties the set and re-sizes it for the time domain `[0, n)` with
    /// intervals of length `tau`, reusing the Fenwick allocation — the
    /// scratch-reuse path of the score-prioritized algorithms.
    ///
    /// The inserted left endpoints are taken back out one by one
    /// (`O(inserts · log n)`) rather than zeroing the domain: S-Band and
    /// S-Hop insert a few hundred intervals into a domain of a whole shard.
    pub fn reset(&mut self, n: usize, tau: Time) {
        for &left in &self.lefts {
            self.fenwick.add(left as usize, -1);
        }
        self.fenwick.resize_zeroed(n);
        self.lefts.clear();
        self.tau = tau;
        self.tie_lefts.clear();
        self.tie_score = f64::INFINITY;
    }

    /// Number of intervals inserted.
    pub fn len(&self) -> usize {
        self.lefts.len()
    }

    /// Whether no interval was inserted.
    pub fn is_empty(&self) -> bool {
        self.lefts.is_empty()
    }

    /// Inserts the blocking interval `[left, left + τ]` contributed by a
    /// record scoring `score`.
    ///
    /// Scores at or below every previously *probed* score may arrive in any
    /// order (the score-prioritized algorithms insert higher-scoring
    /// blockers discovered by durability checks out of order); the tie
    /// buffer only needs to track the minimum score level, which is the only
    /// level that can tie future probes.
    pub fn insert(&mut self, left: Time, score: f64) {
        self.fenwick.add(left as usize, 1);
        self.lefts.push(left);
        if score < self.tie_score {
            self.tie_lefts.clear();
            self.tie_score = score;
            self.tie_lefts.push(left);
        } else if score == self.tie_score {
            self.tie_lefts.push(left);
        }
        // score > tie_score: strictly above every future probe; no buffering.
    }

    /// Counts blocking intervals covering `t` contributed by records with
    /// score **strictly greater** than `score`.
    ///
    /// Correct provided probes arrive in non-increasing score order relative
    /// to inserted minimums (the invariant maintained by S-Base, S-Band and
    /// S-Hop, which process candidates by descending score).
    pub fn coverage_above(&self, t: Time, score: f64) -> usize {
        let lo = t.saturating_sub(self.tau) as usize;
        let all = self.fenwick.range(lo, t as usize) as usize;
        if score < self.tie_score {
            return all;
        }
        debug_assert!(
            score == self.tie_score,
            "probe score above an inserted level violates descending-order use"
        );
        let tied_covering = self.tie_lefts.iter().filter(|&&l| l as usize >= lo && l <= t).count();
        all - tied_covering
    }

    /// Counts all blocking intervals covering `t`, regardless of score.
    pub fn coverage(&self, t: Time) -> usize {
        let lo = t.saturating_sub(self.tau) as usize;
        self.fenwick.range(lo, t as usize) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_counts_intervals_containing_t() {
        let mut b = BlockingSet::new(100, 10);
        b.insert(5, 9.0); // covers [5, 15]
        b.insert(12, 8.0); // covers [12, 22]
        assert_eq!(b.coverage(4), 0);
        assert_eq!(b.coverage(5), 1);
        assert_eq!(b.coverage(12), 2);
        assert_eq!(b.coverage(15), 2);
        assert_eq!(b.coverage(16), 1);
        assert_eq!(b.coverage(23), 0);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn strictly_above_excludes_tied_level() {
        let mut b = BlockingSet::new(50, 5);
        b.insert(0, 7.0);
        b.insert(2, 7.0);
        // Insert a new minimum level, then probe at the tied level 6.0:
        // only the two 7.0 intervals count.
        b.insert(3, 6.0);
        assert_eq!(b.coverage_above(4, 6.0), 2);
        // Probe below every level: everything counts.
        assert_eq!(b.coverage_above(4, 5.9), 3);
        assert_eq!(b.coverage(4), 3);
    }

    #[test]
    fn out_of_order_higher_insertions_always_count() {
        let mut b = BlockingSet::new(50, 5);
        b.insert(1, 4.0); // processing level drops to 4.0
        b.insert(2, 9.0); // blocker discovered by a durability check
        assert_eq!(b.coverage_above(3, 4.0), 1); // only the 9.0 interval
        assert_eq!(b.coverage_above(3, 3.0), 2);
    }

    #[test]
    fn left_edge_clamps() {
        let mut b = BlockingSet::new(20, 8);
        b.insert(0, 1.0);
        assert_eq!(b.coverage(0), 1);
        assert_eq!(b.coverage(8), 1);
        assert_eq!(b.coverage(9), 0);
    }

    #[test]
    fn reset_matches_a_fresh_set_sparse_and_dense() {
        // One set reused across domains that shrink and grow, with few
        // inserts and with every position inserted, against a fresh set
        // each round.
        let rounds: [(usize, Time, usize); 5] =
            [(200, 10, 7), (50, 5, 50), (400, 30, 3), (400, 30, 400), (64, 8, 9)];
        let mut reused = BlockingSet::default();
        for (round, &(n, tau, inserts)) in rounds.iter().enumerate() {
            reused.reset(n, tau);
            let mut fresh = BlockingSet::new(n, tau);
            assert!(reused.is_empty());
            for i in 0..inserts {
                let left = ((i * 37 + round * 11) % n) as Time;
                let score = 100.0 - (i / 3) as f64;
                reused.insert(left, score);
                fresh.insert(left, score);
            }
            assert_eq!(reused.len(), inserts);
            let level = 100.0 - ((inserts - 1) / 3) as f64;
            for t in 0..n as Time {
                assert_eq!(reused.coverage(t), fresh.coverage(t), "round={round} t={t}");
                for probe in [level, level - 1.0] {
                    assert_eq!(
                        reused.coverage_above(t, probe),
                        fresh.coverage_above(t, probe),
                        "round={round} t={t} probe={probe}"
                    );
                }
            }
        }
    }

    #[test]
    fn tie_buffer_resets_on_new_level() {
        let mut b = BlockingSet::new(30, 3);
        b.insert(0, 5.0);
        b.insert(1, 5.0);
        assert_eq!(b.coverage_above(1, 5.0), 0);
        b.insert(2, 4.0);
        // Level 5.0 intervals now count for probes at 4.0.
        assert_eq!(b.coverage_above(2, 4.0), 2);
        assert_eq!(b.coverage_above(2, 3.5), 3);
    }
}
