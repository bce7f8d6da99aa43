//! k-skyband computation and durable k-skyband durations.
//!
//! The k-skyband of a set contains every point dominated by at most `k − 1`
//! other points in the set (footnote 4 of the paper); the skyline is the
//! 1-skyband. The *durable k-skyband duration* `τ_p` of a record is the
//! longest look-back window length for which fewer than `k` records of
//! `P([p.t − τ, p.t])` *strictly* dominate `p` — are better in every
//! attribute. A strict dominator outscores `p` under every monotone scorer
//! the engine accepts, a zero weight included, so `τ_p >= τ` is a necessary
//! condition for `p` to be τ-durable — this is the pruning the S-Band index
//! exploits. (A footnote-4 dominator, no worse everywhere and better
//! somewhere, may tie `p` under a scorer that ignores the attribute it is
//! better in, and a tie does not beat `p`.)
//!
//! Every duration — of a built shard, of a live head's newcomer — is
//! computed by one backward scan ([`scan_durations`]) over runs of rows
//! with their [`BlockCorners`]: per-block maximum corners at two
//! granularities let the scan skip whole blocks that cannot hold a
//! dominator, and inside a block a branch-free bitmask of dominators is
//! visited newest first, stopping as soon as enough were found. `τ_p` only
//! looks backwards, so a later arrival never changes it: a run grows one
//! row and one corner update at a time, and nothing is ever rescanned.

use crate::dominance::dominates;
use durable_topk_temporal::{Dataset, RecordId};

/// Sentinel duration for records that stay in the k-skyband for every window
/// length (fewer than `k` past dominators exist at all).
pub const DURATION_UNBOUNDED: u32 = u32::MAX;

/// Rows per fine block of the kernel: one bitmask's worth.
const FINE: usize = 16;
/// Rows per coarse block of the kernel: sixteen fine blocks.
const COARSE: usize = 256;

/// The block corners of a run of `dim`-wide rows, grown one row at a time:
/// for every 16-row and every 256-row block, the corner of
/// per-dimension maxima. A row strictly dominating `p` is above `p`
/// everywhere, so a block whose corner is not above `p` in some dimension
/// holds no dominator and is skipped. A NaN coordinate is never strictly
/// better ([`strictly_dominates`](crate::strictly_dominates)), so the
/// corners ignore it, and a scan's verdict is exactly `strictly_dominates`,
/// row for row.
///
/// The corners do not hold the rows: every scan is handed them, so a run
/// whose rows live elsewhere (a head shard's dataset) is not copied.
#[derive(Debug, Clone, Default)]
pub struct BlockCorners {
    dim: usize,
    rows: usize,
    /// Corner of fine block `b` at `fine[b * dim..(b + 1) * dim]`.
    fine: Vec<f64>,
    /// Corner of coarse block `b`, likewise.
    coarse: Vec<f64>,
}

impl BlockCorners {
    /// The corners of every `dim`-wide row of `attrs`.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn over(attrs: &[f64], dim: usize) -> Self {
        let mut corners = Self::default();
        for row in attrs.chunks_exact(dim) {
            corners.push(row);
        }
        corners
    }

    /// Rows covered.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether no row is covered.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Heap bytes held, by capacity.
    pub fn heap_bytes(&self) -> usize {
        (self.fine.capacity() + self.coarse.capacity()) * std::mem::size_of::<f64>()
    }

    /// Covers the next row of the run, NaNs ignored.
    ///
    /// # Panics
    /// Panics if the row's arity differs from earlier rows'.
    pub fn push(&mut self, row: &[f64]) {
        if self.rows == 0 {
            self.dim = row.len();
        }
        assert_eq!(row.len(), self.dim, "attribute arity mismatch");
        for (corners, per_block) in [(&mut self.fine, FINE), (&mut self.coarse, COARSE)] {
            if self.rows % per_block == 0 {
                corners.resize(corners.len() + self.dim, f64::NEG_INFINITY);
            }
            let corner = corners.len() - self.dim;
            for (c, &v) in corners[corner..].iter_mut().zip(row) {
                *c = c.max(v);
            }
        }
        self.rows += 1;
    }

    /// Whether block `b` of `corners` may hold a dominator of `row`: its
    /// corner is above `row` everywhere.
    #[inline]
    fn may_dominate(&self, corners: &[f64], b: usize, row: &[f64]) -> bool {
        let corner = &corners[b * self.dim..(b + 1) * self.dim];
        corner.iter().zip(row).all(|(c, y)| c > y)
    }

    /// Bit `j` set iff row `lo + j` of `attrs` strictly dominates `row`,
    /// for rows `lo..hi` (at most [`FINE`] of them) — `strictly_dominates`
    /// without branches.
    #[inline]
    fn mask(&self, attrs: &[f64], lo: usize, hi: usize, row: &[f64]) -> u32 {
        let rows = &attrs[lo * self.dim..hi * self.dim];
        // A literal arity lets the inlined test unroll: the benchmark's
        // 3-d shard builds in about a third less time than through the
        // generic call (BENCHMARKS.md, PR 25).
        match self.dim {
            3 => dominance_mask(rows, row, 3),
            dim => dominance_mask(rows, row, dim),
        }
    }

    /// Calls `visit` with the rows of the run strictly dominating `row`,
    /// newest first, until it returns `true`; returns whether it did.
    /// `attrs` holds the run's rows, row 0 first.
    fn scan_back(&self, attrs: &[f64], row: &[f64], mut visit: impl FnMut(usize) -> bool) -> bool {
        let mut hi = self.rows;
        while hi > 0 {
            let coarse_lo = (hi - 1) / COARSE * COARSE;
            if self.may_dominate(&self.coarse, coarse_lo / COARSE, row) {
                while hi > coarse_lo {
                    let lo = (hi - 1) / FINE * FINE;
                    if self.may_dominate(&self.fine, lo / FINE, row) {
                        let mut mask = self.mask(attrs, lo, hi, row);
                        while mask != 0 {
                            let j = 31 - mask.leading_zeros() as usize;
                            if visit(lo + j) {
                                return true;
                            }
                            mask ^= 1 << j;
                        }
                    }
                    hi = lo;
                }
            }
            hi = coarse_lo;
        }
        false
    }
}

/// Bit `j` set iff the `j`-th `dim`-wide row of `rows` strictly dominates
/// `row`.
#[inline(always)]
fn dominance_mask(rows: &[f64], row: &[f64], dim: usize) -> u32 {
    let mut mask = 0;
    for (j, other) in rows.chunks_exact(dim).enumerate() {
        let mut better = true;
        for (x, y) in other.iter().zip(&row[..dim]) {
            better &= x > y;
        }
        mask |= u32::from(better) << j;
    }
    mask
}

/// The durations of `row`, a record arriving right after every run of
/// `runs`, at the levels `ks` (strictly ascending): one backward scan over
/// the runs, newest run first, stopping at the largest level. Each run is
/// its rows and their corners; the runs are consecutive, so a dominator at
/// row `j` of a run with `m` rows, behind runs holding `skipped` rows in
/// all, lies `skipped + m − j − 1` records before `row`. Calls
/// `record(level, τ)` for every level that found its `ks[level]`-th
/// dominator; the other levels' durations are [`DURATION_UNBOUNDED`].
pub fn scan_durations(
    row: &[f64],
    ks: &[usize],
    runs: &[(&[f64], &BlockCorners)],
    mut record: impl FnMut(usize, u32),
) {
    let (mut found, mut level, mut skipped) = (0usize, 0usize, 0usize);
    for &(attrs, corners) in runs {
        let end = skipped + corners.len();
        let done = corners.scan_back(attrs, row, |j| {
            found += 1;
            while level < ks.len() && ks[level] == found {
                record(level, (end - j - 1) as u32);
                level += 1;
            }
            level == ks.len()
        });
        if done {
            return;
        }
        skipped = end;
    }
}

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
/// `[p.t − τ, p.t]` strictly dominate `p`; equivalently `p.t − t_k − 1`
/// where `t_k` is the arrival time of the k-th most recent past strict
/// dominator, or
/// [`DURATION_UNBOUNDED`] when fewer than `k` past dominators exist. The
/// single-level case of [`skyband_durations_multi`].
///
/// # Panics
/// Panics if `k == 0`.
pub fn skyband_durations(ds: &Dataset, k: usize) -> Vec<u32> {
    skyband_durations_multi(ds, &[k], 0).swap_remove(0)
}

/// Computes durable skyband durations for several `k` values in one pass.
///
/// Each record is scanned backwards once ([`scan_durations`] over the rows
/// before it), newest dominator first, up to the largest level, recording
/// the duration at every requested level along the way. This is how the S-Band index builds its logarithmic family of
/// levels (`k = 1, 2, 4, …`) without multiplying the build cost.
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
    let (attrs, dim) = (ds.raw_attrs(), ds.dim());
    let mut corners = BlockCorners::default();
    for (i, row) in attrs.chunks_exact(dim).enumerate() {
        if i >= first {
            scan_durations(row, ks, &[(attrs, &corners)], |level, dur| out[level][i - first] = dur);
        }
        corners.push(row);
    }
    out
}

/// The logarithmic family of skyband levels serving queries with
/// `k <= k_max`: `1, 2, 4, …` up to the first power of two at or above
/// `k_max`. Shared by the static index build and the incremental head
/// index so both produce structurally identical level sets.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::strictly_dominates;
    use durable_topk_temporal::{LinearScorer, Scorer};
    use proptest::prelude::*;

    /// Reference: for each p, the largest τ with fewer than k strict
    /// dominators in `[p.t − τ, p.t]`, found by widening the window one
    /// record at a time and testing each pair with [`strictly_dominates`].
    fn brute_durations(ds: &Dataset, k: usize) -> Vec<u32> {
        (0..ds.len() as RecordId)
            .map(|p| {
                let mut doms = 0;
                for tau in 1..=p {
                    if strictly_dominates(ds.row(p - tau), ds.row(p)) {
                        doms += 1;
                        if doms == k {
                            return tau - 1;
                        }
                    }
                }
                DURATION_UNBOUNDED
            })
            .collect()
    }

    /// Durations of `ds`'s records `c..`, each computed on arrival as a
    /// head shard computes it: one scan over the records before it from
    /// `c` on, then over the context records `..c`, two runs with their
    /// own corners.
    fn appended(ds: &Dataset, ks: &[usize], c: usize) -> Vec<Vec<u32>> {
        let dim = ds.dim();
        let (context, owned) = ds.raw_attrs().split_at(c * dim);
        let context_corners = BlockCorners::over(context, dim);
        let mut corners = BlockCorners::default();
        let mut out = vec![Vec::new(); ks.len()];
        for row in owned.chunks_exact(dim) {
            let i = corners.len();
            out.iter_mut().for_each(|durs| durs.push(DURATION_UNBOUNDED));
            let runs = [(owned, &corners), (context, &context_corners)];
            scan_durations(row, ks, &runs, |level, dur| out[level][i] = dur);
            corners.push(row);
        }
        out
    }

    /// Records `lo..hi` of `ds`.
    fn slice(ds: &Dataset, lo: usize, hi: usize) -> Dataset {
        Dataset::from_rows(ds.dim(), (lo..hi).map(|i| ds.row(i as RecordId)))
    }

    /// The dimensionalities the exactness tests cover.
    fn dims() -> impl Strategy<Value = usize> {
        (0usize..4).prop_map(|i| [1, 2, 3, 5][i])
    }

    /// Rows of `d` coordinates drawn from five values (ties, duplicates),
    /// with NaN, +∞ and −∞ each once in `special` codes, and column
    /// `constant_col`, if it exists, held constant.
    fn degenerate_rows(codes: &[u32], special: u32, d: usize, constant_col: usize) -> Dataset {
        let value = |code: u32| match code % special {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => f64::from(code % 5),
        };
        let rows: Vec<Vec<f64>> = codes
            .chunks_exact(d)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(c, &code)| if c == constant_col { 2.0 } else { value(code) })
                    .collect()
            })
            .collect();
        Dataset::from_rows(d, rows)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The kernel-driven multi-level build equals the brute-force
        /// definition on degenerate data: ties, duplicates, constant
        /// columns, NaN and ±∞ (a NaN never lets a block be skipped), at
        /// lengths and first records straddling the 16- and 256-row block
        /// edges, in every dimensionality the engine uses.
        #[test]
        fn durations_match_brute_force_on_degenerate_data(
            d in dims(),
            len in 1usize..530,
            codes in prop::collection::vec(0u32..1_000_000, 530 * 5),
            special in (0usize..4).prop_map(|i| [u32::MAX, 10, 60, 400][i]),
            constant_col in 0usize..8,
            first_frac in 0usize..5,
        ) {
            let ds = degenerate_rows(&codes[..len * d], special, d, constant_col);
            let first = [0, 15, 16, 255, len][first_frac].min(len);
            let ks = [1usize, 2, 4, 8];
            let multi = skyband_durations_multi(&ds, &ks, first as RecordId);
            for (level, &k) in ks.iter().enumerate() {
                prop_assert_eq!(&multi[level][..], &brute_durations(&ds, k)[first..], "d={} k={}", d, k);
            }
        }

        /// After a context of `c` rows straddling the block edges, appending
        /// degenerate rows one at a time — each scanned over the appended
        /// rows, then the context — gives exactly the offline durations of
        /// the context followed by the rows, at every prefix (a duration
        /// only looks back, so a prefix's durations lead the whole run's;
        /// a shorter prefix is checked on its own as well). So does the
        /// head a seal at a random point hands on, whose context is the
        /// last up-to-`max_tau` rows before the seal, against the offline
        /// durations of that context followed by the later rows.
        #[test]
        fn appends_after_a_context_equal_the_offline_scan(
            d in dims(),
            c_at in 0usize..6,
            len in 1usize..300,
            codes in prop::collection::vec(0u32..1_000_000, 600 * 5),
            special in (0usize..4).prop_map(|i| [u32::MAX, 10, 60, 400][i]),
            constant_col in 0usize..8,
            seal_frac in 0.0f64..1.0,
            max_tau in 1usize..300,
        ) {
            let c = [0, 15, 16, 255, 256, 300][c_at];
            let ds = degenerate_rows(&codes[..(c + len) * d], special, d, constant_col);
            let ks = [1usize, 2, 4, 8];
            let grown = appended(&ds, &ks, c);
            prop_assert_eq!(&grown, &skyband_durations_multi(&ds, &ks, c as RecordId), "d={} c={}", d, c);
            let prefix = c + len / 2;
            let offline = skyband_durations_multi(&slice(&ds, 0, prefix), &ks, c as RecordId);
            for level in 0..ks.len() {
                prop_assert_eq!(&grown[level][..prefix - c], &offline[level][..], "d={} c={}", d, c);
            }
            // The seal: the next head's context is the rows `from..seal`.
            let seal = c + (seal_frac * len as f64) as usize;
            let from = seal - max_tau.min(seal);
            let rest = slice(&ds, from, ds.len());
            let heir = appended(&rest, &ks, seal - from);
            let offline = skyband_durations_multi(&rest, &ks, (seal - from) as RecordId);
            prop_assert_eq!(&heir, &offline, "d={} c={} seal={}", d, c, seal);
        }

        /// On tie-heavy rows (three values per attribute) the offline scan
        /// and the per-append one give the brute-force strict-dominance
        /// durations, and no duration drops a durable record under a
        /// scorer that ignores an attribute: a record whose look-back
        /// window of length `τ` holds fewer than `k` records scoring
        /// strictly higher has `τ_p >= τ`.
        #[test]
        fn durations_on_tied_rows_keep_every_durable_record(
            d in 1usize..4,
            len in 1usize..160,
            codes in prop::collection::vec(0u32..3, 160 * 3),
            ignored in 0usize..3,
        ) {
            let rows = codes[..len * d].chunks_exact(d);
            let ds = Dataset::from_rows(d, rows.map(|r| r.iter().map(|&v| f64::from(v)).collect::<Vec<_>>()));
            let weights: Vec<f64> =
                (0..d).map(|i| if i == ignored && d > 1 { 0.0 } else { 1.0 + i as f64 }).collect();
            let scorer = LinearScorer::new(weights);
            let scores: Vec<f64> = (0..len).map(|i| scorer.score(ds.row(i as RecordId))).collect();
            let ks = level_ks(4);
            let grown = appended(&ds, &ks, 0);
            for (level, &k) in ks.iter().enumerate() {
                let durs = skyband_durations(&ds, k);
                prop_assert_eq!(&durs, &brute_durations(&ds, k), "d={} k={}", d, k);
                prop_assert_eq!(&grown[level], &durs, "d={} k={}", d, k);
                for (p, &duration) in durs.iter().enumerate() {
                    // The longest look-back over which p stays durable.
                    let mut better = 0;
                    let durable = (1..=p).take_while(|&tau| {
                        better += usize::from(scores[p - tau] > scores[p]);
                        better < k
                    });
                    let longest = durable.last().unwrap_or(0) as u32;
                    prop_assert!(duration >= longest, "p={} k={}: τ_p {} < {}", p, k, duration, longest);
                }
            }
        }

        /// Streams where every record dominates all earlier ones (never
        /// dominated) or is dominated by all of them.
        #[test]
        fn durations_match_brute_force_on_chains(
            d in dims(),
            len in 1usize..530,
            rising in prop::bool::ANY,
        ) {
            let step = |i: usize| if rising { i as f64 } else { -(i as f64) };
            let ds = Dataset::from_rows(d, (0..len).map(|i| vec![step(i); d]));
            for k in [1usize, 3, 16] {
                prop_assert_eq!(skyband_durations(&ds, k), brute_durations(&ds, k), "k={}", k);
            }
        }
    }

    /// A NaN coordinate is never strictly better, so a row holding one
    /// dominates nothing and a newcomer holding one has no dominator,
    /// whichever blocks they share — at both block granularities, in one
    /// run and across two.
    #[test]
    fn nan_coordinates_never_strictly_dominate() {
        let mut rows = vec![[0.0, 0.0]; 300];
        rows[5] = [9.0, 9.0];
        rows[200] = [f64::NAN, 9.0];
        rows[250] = [9.0, 9.0];
        rows[299] = [5.0, 1.0];
        let ds = Dataset::from_rows(2, rows);
        let durs = skyband_durations_multi(&ds, &[1, 2], 299);
        assert_eq!(durs, [[299 - 250 - 1], [299 - 5 - 1]]);
        let mut rows = vec![[9.0, 9.0]; 40];
        rows.push([f64::NAN, 0.0]);
        let durs = skyband_durations(&Dataset::from_rows(2, rows), 1);
        assert_eq!(durs.last(), Some(&DURATION_UNBOUNDED));
        // Across two runs: the newest real dominator sits in the context,
        // behind a NaN row in each run.
        let mut rows = vec![[0.0, 0.0]; 320];
        rows[5] = [9.0, 9.0];
        rows[200] = [f64::NAN, 9.0];
        rows[303] = [f64::NAN, 9.0];
        rows.push([5.0, 1.0]);
        let durs = appended(&Dataset::from_rows(2, rows), &[1, 2], 300);
        assert_eq!(durs[0].last(), Some(&(320 - 5 - 1)));
        assert_eq!(durs[1].last(), Some(&DURATION_UNBOUNDED));
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
