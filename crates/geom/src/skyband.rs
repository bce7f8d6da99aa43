//! k-skyband computation and durable k-skyband durations.
//!
//! The k-skyband of a set contains every point dominated by at most `k − 1`
//! other points in the set (footnote 4 of the paper); the skyline is the
//! 1-skyband. The *durable k-skyband duration* `τ_p` of a record is the
//! longest look-back window length for which `p` remains in the k-skyband of
//! `P([p.t − τ, p.t])`. Because the `k` highest scores under any monotone
//! scoring function lie in the k-skyband, `τ_p >= τ` is a necessary
//! condition for `p` to be τ-durable — this is the pruning the S-Band index
//! exploits.

use crate::domcount::past_dominator_counts;
use crate::dominance::dominates;
use durable_topk_temporal::{Dataset, RecordId};

/// Sentinel duration for records that stay in the k-skyband for every window
/// length (fewer than `k` past dominators exist at all).
pub const DURATION_UNBOUNDED: u32 = u32::MAX;

/// Computes the k-skyband of the records `ids`: those dominated by at most
/// `k − 1` others in the set.
///
/// Runs the quadratic candidate-vs-all scan with early exit at `k`
/// dominators; intended for moderate set sizes (tests, per-window checks).
///
/// # Panics
/// Panics if `k == 0`.
pub fn k_skyband(ds: &Dataset, ids: &[RecordId], k: usize) -> Vec<RecordId> {
    assert!(k > 0, "k must be positive");
    let mut out = Vec::new();
    for &p in ids {
        let row = ds.row(p);
        let mut dominators = 0usize;
        for &q in ids {
            if q != p && dominates(ds.row(q), row) {
                dominators += 1;
                if dominators >= k {
                    break;
                }
            }
        }
        if dominators < k {
            out.push(p);
        }
    }
    out
}

/// Computes, for every record, its durable k-skyband duration `τ_p`.
///
/// `τ_p` is the largest `τ` such that fewer than `k` records in
/// `[p.t − τ, p.t]` dominate `p`; equivalently `p.t − t_k − 1` where `t_k`
/// is the arrival time of the k-th most recent past dominator, or
/// [`DURATION_UNBOUNDED`] when fewer than `k` past dominators exist.
///
/// Strategy: for `d == 2` an `O(n log² n)` offline
/// dominator-count pass first identifies the unbounded records so that the
/// exact backward scan runs only on records guaranteed to find their k-th
/// dominator; for other dimensionalities the backward scan runs directly
/// with per-pair early exit.
///
/// # Panics
/// Panics if `k == 0`.
pub fn skyband_durations(ds: &Dataset, k: usize) -> Vec<u32> {
    assert!(k > 0, "k must be positive");
    let n = ds.len();
    if ds.dim() == 2 {
        let counts = past_dominator_counts(ds);
        let mut out = vec![DURATION_UNBOUNDED; n];
        for i in 0..n {
            if (counts[i] as usize) >= k {
                out[i] = kth_recent_dominator_duration(ds, i as RecordId, k)
                    .expect("count pass guarantees k dominators exist");
            }
        }
        out
    } else {
        (0..n as RecordId)
            .map(|i| kth_recent_dominator_duration(ds, i, k).unwrap_or(DURATION_UNBOUNDED))
            .collect()
    }
}

/// Computes durable skyband durations for several `k` values in one pass.
///
/// Equivalent to calling [`skyband_durations`] per level but sharing the
/// dominator scans: each record is scanned backwards once, up to the largest
/// level that can be satisfied, recording the duration at every requested
/// level along the way. This is how the S-Band index builds its logarithmic
/// family of levels (`k = 1, 2, 4, …`) without multiplying the build cost.
///
/// Durations are computed for records `first..` only — a shard passes the
/// first record it owns, so its left context is read by the backward scans
/// (every potential dominator is there) but never scanned *for*. Returns
/// one duration vector per entry of `ks`, in order, whose entry `j` belongs
/// to record `first + j`.
///
/// # Panics
/// Panics if `ks` is empty, unsorted, or contains zero or duplicates, or if
/// `first` lies beyond the dataset.
pub fn skyband_durations_multi(ds: &Dataset, ks: &[usize], first: RecordId) -> Vec<Vec<u32>> {
    assert!(!ks.is_empty(), "at least one k level required");
    assert!(ks[0] > 0, "k must be positive");
    assert!(ks.windows(2).all(|w| w[0] < w[1]), "ks must be strictly ascending");
    let (n, first) = (ds.len(), first as usize);
    assert!(first <= n, "first record lies beyond the dataset");
    let mut out = vec![vec![DURATION_UNBOUNDED; n - first]; ks.len()];
    // For d == 2, the count pass tells us exactly how deep each record's
    // scan must go; in higher dimensions we scan until the largest level or
    // exhaustion.
    let counts = (ds.dim() == 2).then(|| past_dominator_counts(ds));
    let k_max = *ks.last().expect("non-empty");
    for i in first..n {
        let target = match &counts {
            Some(c) => {
                // Deepest satisfiable level for this record.
                let avail = c[i] as usize;
                match ks.iter().rev().find(|&&k| k <= avail) {
                    Some(&k) => k,
                    None => continue, // all levels unbounded
                }
            }
            None => k_max,
        };
        let row = ds.row(i as RecordId);
        let mut found = 0usize;
        let mut level = 0usize;
        for j in (0..i).rev() {
            if dominates(ds.row(j as RecordId), row) {
                found += 1;
                while level < ks.len() && ks[level] == found {
                    out[level][i - first] = (i - j - 1) as u32;
                    level += 1;
                }
                if found == target {
                    break;
                }
            }
        }
    }
    out
}

/// The logarithmic family of skyband levels serving queries with
/// `k <= k_max`: `1, 2, 4, …` up to the first power of two at or above
/// `k_max`. Shared by the static index build and the incremental
/// maintainer so both produce structurally identical level sets.
///
/// # Panics
/// Panics if `k_max == 0`.
pub fn level_ks(k_max: usize) -> Vec<usize> {
    assert!(k_max > 0, "k_max must be positive");
    let mut ks = vec![1usize];
    while *ks.last().expect("non-empty") < k_max {
        ks.push(ks.last().expect("non-empty") * 2);
    }
    ks
}

/// A record still worth scanning when classifying future arrivals, plus
/// how many *later* records dominate it so far.
#[derive(Debug, Clone, Copy)]
struct ActiveRecord {
    id: RecordId,
    later_dominators: u32,
}

/// Incrementally maintains durable k-skyband durations under append-only
/// arrivals.
///
/// `τ_p` looks only backwards — it is the distance to `p`'s k-th most
/// recent *past* dominator — so a later arrival never changes an existing
/// record's duration: appending is pure insertion. The maintainer computes
/// the newcomer's duration at every level of [`level_ks`] with one backward
/// pass over an *active list*, applying two classical streaming-skyband
/// ideas:
///
/// * **Dominance-count updates on insert.** Each active record carries the
///   number of later arrivals dominating it; the newcomer's pass both
///   collects its own most-recent dominators and bumps these counts for
///   every active record it dominates.
/// * **Lazy eviction past `k_max`.** Once a record has `k_max` later
///   dominators it can never again be among the `k_max` most recent
///   dominators of any future arrival: dominance is transitive, so all
///   `k_max` of its later dominators also dominate that arrival and are
///   more recent. Such records are tombstoned (their counter stops the
///   scan from testing them) and compacted away once they outnumber the
///   live half of the list.
///
/// Per-append cost is `O(|active|)` dominance tests; the active list is
/// the "k_max-skyband with respect to later arrivals", which stays near
/// `O(k_max · skyline)` on well-behaved data and degrades to `O(n)` only
/// when the stream is one large anti-chain — exactly the regime where the
/// offline build pays the same quadratic cost.
///
/// Durations produced are bit-identical to [`skyband_durations_multi`]
/// over the same prefix (property-tested below), so an index sealed from
/// the maintainer equals one built from scratch.
#[derive(Debug, Clone)]
pub struct SkybandMaintainer {
    ks: Vec<usize>,
    /// Per level, per record: the durable skyband duration.
    durs: Vec<Vec<u32>>,
    n: usize,
    active: Vec<ActiveRecord>,
    /// Tombstoned entries awaiting compaction.
    evicted: usize,
}

impl SkybandMaintainer {
    /// An empty maintainer covering levels `1, 2, 4, … >= k_max`.
    ///
    /// # Panics
    /// Panics if `k_max == 0`.
    pub fn new(k_max: usize) -> Self {
        let ks = level_ks(k_max);
        let durs = vec![Vec::new(); ks.len()];
        Self { ks, durs, n: 0, active: Vec::new(), evicted: 0 }
    }

    /// Builds the maintainer over existing history by replaying appends —
    /// the same code path live ingestion uses, so grown and bootstrapped
    /// states are indistinguishable.
    pub fn build(ds: &Dataset, k_max: usize) -> Self {
        let mut m = Self::new(k_max);
        for _ in 0..ds.len() {
            // Replay against growing prefixes: `append` only reads rows
            // `<= self.n`, so handing the full dataset each time is sound.
            m.append(ds);
        }
        m
    }

    /// Records covered so far.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no record was appended yet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The maintained levels, strictly ascending powers of two.
    pub fn levels(&self) -> &[usize] {
        &self.ks
    }

    /// The largest `k` the maintained durations can serve.
    pub fn k_max(&self) -> usize {
        *self.ks.last().expect("levels are never empty")
    }

    /// Durations of level `self.levels()[level]`, indexed by record id.
    pub fn durations(&self, level: usize) -> &[u32] {
        &self.durs[level]
    }

    /// Heap bytes held: every level's durations plus the active list, by
    /// capacity.
    pub fn heap_bytes(&self) -> usize {
        let durs: usize = self.durs.iter().map(Vec::capacity).sum();
        durs * std::mem::size_of::<u32>()
            + self.active.capacity() * std::mem::size_of::<ActiveRecord>()
    }

    /// Live (non-tombstoned) entries of the active list — instrumentation
    /// for tests and benches.
    pub fn active_len(&self) -> usize {
        self.active.len() - self.evicted
    }

    /// Ingests record `self.len()` of `ds` — the next one in arrival
    /// order — computing its duration at every level and updating the
    /// active list. `ds` may already hold further records (that is how
    /// [`build`](SkybandMaintainer::build) replays a whole history); only
    /// rows up to `self.len()` are read, so durations are identical
    /// either way.
    ///
    /// # Panics
    /// Panics if `ds` holds no record at index `self.len()`.
    pub fn append(&mut self, ds: &Dataset) {
        assert!(ds.len() > self.n, "append expects the new record to be present in the dataset");
        let p = self.n as RecordId;
        let row = ds.row(p);
        let k_max = self.k_max() as u32;
        for level in &mut self.durs {
            level.push(DURATION_UNBOUNDED);
        }
        let mut found = 0u32;
        let mut level = 0usize;
        // One backward pass, most recent first: collect the newcomer's
        // dominators (recording a duration whenever a level's k is hit)
        // and charge the newcomer against every active record it
        // dominates.
        for entry in self.active.iter_mut().rev() {
            if entry.later_dominators >= k_max {
                continue; // tombstoned
            }
            let other = ds.row(entry.id);
            if found < k_max && dominates(other, row) {
                found += 1;
                while level < self.ks.len() && self.ks[level] as u32 == found {
                    self.durs[level][p as usize] = p - entry.id - 1;
                    level += 1;
                }
            } else if dominates(row, other) {
                entry.later_dominators += 1;
                if entry.later_dominators == k_max {
                    self.evicted += 1;
                }
            }
        }
        self.active.push(ActiveRecord { id: p, later_dominators: 0 });
        self.n += 1;
        // Compact once tombstones dominate: O(live) work amortized O(1).
        if self.evicted * 2 > self.active.len() {
            self.active.retain(|e| e.later_dominators < k_max);
            self.evicted = 0;
        }
    }
}

/// Scans backwards from `p` for its k-th most recent dominator; returns the
/// corresponding duration, or `None` if fewer than `k` dominators exist.
fn kth_recent_dominator_duration(ds: &Dataset, p: RecordId, k: usize) -> Option<u32> {
    let row = ds.row(p);
    let mut found = 0usize;
    for j in (0..p).rev() {
        if dominates(ds.row(j), row) {
            found += 1;
            if found == k {
                return Some(p - j - 1);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_durations(ds: &Dataset, k: usize) -> Vec<u32> {
        // Reference: for each p, the largest τ with fewer than k dominators
        // in [p.t - τ, p.t], found by trying every τ.
        let n = ds.len();
        (0..n as RecordId)
            .map(|p| {
                let mut best: u32 = DURATION_UNBOUNDED;
                for tau in 0..n as u32 {
                    let lo = p.saturating_sub(tau);
                    let doms = (lo..p).filter(|&j| dominates(ds.row(j), ds.row(p))).count();
                    if doms >= k {
                        best = tau - 1;
                        break;
                    }
                }
                best
            })
            .collect()
    }

    #[test]
    fn skyband_contains_skyline() {
        let ds = Dataset::from_rows(2, [[1.0, 5.0], [5.0, 1.0], [3.0, 3.0], [2.0, 2.0]]);
        let ids: Vec<RecordId> = (0..4).collect();
        let sky1 = k_skyband(&ds, &ids, 1);
        let sky2 = k_skyband(&ds, &ids, 2);
        assert!(sky1.iter().all(|p| sky2.contains(p)));
        assert_eq!(sky1, vec![0, 1, 2]);
        assert_eq!(sky2, vec![0, 1, 2, 3]);
    }

    #[test]
    fn skyband_of_chain() {
        // Decreasing chain: each point dominated by all previous ones.
        let ds = Dataset::from_rows(2, [[4.0, 4.0], [3.0, 3.0], [2.0, 2.0], [1.0, 1.0]]);
        let ids: Vec<RecordId> = (0..4).collect();
        assert_eq!(k_skyband(&ds, &ids, 1), vec![0]);
        assert_eq!(k_skyband(&ds, &ids, 2), vec![0, 1]);
        assert_eq!(k_skyband(&ds, &ids, 3), vec![0, 1, 2]);
    }

    #[test]
    fn durations_on_known_sequence() {
        // t0 (5,5)   t1 (4,4)   t2 (6,6)   t3 (3,3)
        let ds = Dataset::from_rows(2, [[5.0, 5.0], [4.0, 4.0], [6.0, 6.0], [3.0, 3.0]]);
        let d1 = skyband_durations(&ds, 1);
        // t0: no dominators. t1: dominated by t0 (gap 0). t2: none.
        // t3: most recent dominator t2 -> τ = 0.
        assert_eq!(d1, vec![DURATION_UNBOUNDED, 0, DURATION_UNBOUNDED, 0]);
        let d2 = skyband_durations(&ds, 2);
        // t3's 2nd most recent dominator is t1 -> τ = 3 - 1 - 1 = 1.
        assert_eq!(d2, vec![DURATION_UNBOUNDED, DURATION_UNBOUNDED, DURATION_UNBOUNDED, 1]);
    }

    #[test]
    fn durations_match_brute_force_2d() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let n = rng.random_range(1..80);
            let rows: Vec<[f64; 2]> = (0..n)
                .map(|_| [rng.random_range(0..10) as f64, rng.random_range(0..10) as f64])
                .collect();
            let ds = Dataset::from_rows(2, rows);
            for k in [1usize, 2, 3, 5] {
                assert_eq!(skyband_durations(&ds, k), brute_durations(&ds, k), "k={k}");
            }
        }
    }

    #[test]
    fn durations_match_brute_force_3d() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..6 {
            let n = rng.random_range(1..60);
            let rows: Vec<[f64; 3]> = (0..n)
                .map(|_| {
                    [
                        rng.random_range(0..6) as f64,
                        rng.random_range(0..6) as f64,
                        rng.random_range(0..6) as f64,
                    ]
                })
                .collect();
            let ds = Dataset::from_rows(3, rows);
            for k in [1usize, 2, 4] {
                assert_eq!(skyband_durations(&ds, k), brute_durations(&ds, k), "k={k}");
            }
        }
    }

    #[test]
    fn multi_level_matches_single_level() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(17);
        for d in [2usize, 3] {
            let n = 120;
            let rows: Vec<Vec<f64>> =
                (0..n).map(|_| (0..d).map(|_| rng.random_range(0..9) as f64).collect()).collect();
            let ds = Dataset::from_rows(d, rows);
            let ks = [1usize, 2, 4, 8];
            let multi = skyband_durations_multi(&ds, &ks, 0);
            // From a later first record: the same durations, context rows
            // read but not reported.
            let owned = skyband_durations_multi(&ds, &ks, 45);
            for (level, &k) in ks.iter().enumerate() {
                assert_eq!(multi[level], skyband_durations(&ds, k), "d={d} k={k}");
                assert_eq!(owned[level], multi[level][45..], "d={d} k={k}");
            }
        }
    }

    #[test]
    fn maintainer_matches_offline_build_under_appends() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(23);
        for d in [2usize, 3] {
            for k_max in [1usize, 3, 8] {
                let mut ds = Dataset::new(d);
                let mut m = SkybandMaintainer::new(k_max);
                assert_eq!(m.levels(), level_ks(k_max).as_slice());
                for step in 0..150usize {
                    let row: Vec<f64> = (0..d).map(|_| rng.random_range(0..7) as f64).collect();
                    ds.push(&row);
                    m.append(&ds);
                    if step % 29 == 11 {
                        let offline = skyband_durations_multi(&ds, m.levels(), 0);
                        for (level, durs) in offline.iter().enumerate() {
                            assert_eq!(
                                m.durations(level),
                                durs.as_slice(),
                                "d={d} k_max={k_max} step={step} level={level}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn maintainer_build_equals_replay() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(29);
        let rows: Vec<[f64; 2]> = (0..120)
            .map(|_| [rng.random_range(0..9) as f64, rng.random_range(0..9) as f64])
            .collect();
        let ds = Dataset::from_rows(2, rows);
        let built = SkybandMaintainer::build(&ds, 4);
        let mut grown = SkybandMaintainer::new(4);
        let mut prefix = Dataset::new(2);
        for i in 0..ds.len() {
            prefix.push(ds.row(i as RecordId));
            grown.append(&prefix);
        }
        assert_eq!(built.len(), grown.len());
        for level in 0..built.levels().len() {
            assert_eq!(built.durations(level), grown.durations(level));
        }
    }

    #[test]
    fn eviction_bounds_the_active_list_on_dominated_chains() {
        // Strictly increasing chain: every newcomer dominates all previous
        // records, so each record accrues later-dominators fast and the
        // active list must stay near k_max instead of growing linearly.
        let mut ds = Dataset::new(2);
        let mut m = SkybandMaintainer::new(2);
        for i in 0..500usize {
            ds.push(&[i as f64, i as f64]);
            m.append(&ds);
        }
        assert!(
            m.active_len() <= 8,
            "dominated records must be evicted, active={}",
            m.active_len()
        );
        // Every record's level-1 duration is still exact: its most recent
        // dominator is its immediate successor-free past neighbour... i.e.
        // the previous record dominates nothing *backwards*; here nobody
        // has past dominators, so all durations stay unbounded.
        assert!(m.durations(0).iter().all(|&d| d == DURATION_UNBOUNDED));
    }

    #[test]
    fn level_ks_rounds_up_to_powers_of_two() {
        assert_eq!(level_ks(1), vec![1]);
        assert_eq!(level_ks(2), vec![1, 2]);
        assert_eq!(level_ks(5), vec![1, 2, 4, 8]);
        assert_eq!(level_ks(8), vec![1, 2, 4, 8]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn multi_level_rejects_unsorted() {
        let ds = Dataset::from_rows(2, [[1.0, 1.0]]);
        skyband_durations_multi(&ds, &[2, 1], 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_k_rejected() {
        let ds = Dataset::from_rows(2, [[1.0, 1.0]]);
        skyband_durations(&ds, 0);
    }
}
