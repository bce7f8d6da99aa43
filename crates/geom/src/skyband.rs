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
//! Every duration is computed by one private dominance-scan kernel:
//! per-block maximum corners at two granularities let a scan skip whole
//! blocks that cannot hold a dominator, and inside a block a branch-free
//! bitmask of dominators is visited in arrival order, stopping as soon as
//! enough were found.

use crate::dominance::{dominates, strictly_dominates};
use durable_topk_temporal::{Dataset, RecordId};

/// Sentinel duration for records that stay in the k-skyband for every window
/// length (fewer than `k` past dominators exist at all).
pub const DURATION_UNBOUNDED: u32 = u32::MAX;

/// Rows per fine block of the kernel: one bitmask's worth.
const FINE: usize = 16;
/// Rows per coarse block of the kernel: sixteen fine blocks.
const COARSE: usize = 256;

/// Block-pruned dominance scans over the rows of one dataset.
///
/// Keeps, for every [`FINE`]- and [`COARSE`]-row block, the corner of
/// per-dimension maxima. A row strictly dominating `p` is above `p`
/// everywhere, so a block whose corner is not above `p` in some dimension
/// holds no dominator and is skipped. A NaN coordinate is never strictly better
/// ([`strictly_dominates`]), so the corners ignore it, and the kernel's
/// verdict is exactly `strictly_dominates`, row for row.
struct DominanceKernel<'a> {
    attrs: &'a [f64],
    dim: usize,
    rows: usize,
    /// Corner of fine block `b` at `fine[b * dim..(b + 1) * dim]`.
    fine: Vec<f64>,
    /// Corner of coarse block `b`, likewise.
    coarse: Vec<f64>,
}

impl<'a> DominanceKernel<'a> {
    fn new(ds: &'a Dataset) -> Self {
        let (attrs, dim) = (ds.raw_attrs(), ds.dim());
        let fine = corners(attrs, dim, FINE);
        let coarse = corners(&fine, dim, COARSE / FINE);
        Self { attrs, dim, rows: ds.len(), fine, coarse }
    }

    /// Whether block `b` of `corners` may hold a dominator of `row`: its
    /// corner is above `row` everywhere.
    #[inline]
    fn may_dominate(&self, corners: &[f64], b: usize, row: &[f64]) -> bool {
        let corner = &corners[b * self.dim..(b + 1) * self.dim];
        corner.iter().zip(row).all(|(c, y)| c > y)
    }

    /// Bit `j` set iff row `lo + j` strictly dominates `row`, for rows
    /// `lo..hi` (at most [`FINE`] of them) — [`strictly_dominates`] without
    /// branches.
    #[inline]
    fn mask(&self, lo: usize, hi: usize, row: &[f64]) -> u32 {
        let rows = &self.attrs[lo * self.dim..hi * self.dim];
        // A literal arity lets the inlined test unroll: the benchmark's
        // 3-d shard builds in about a third less time than through the
        // generic call (BENCHMARKS.md, PR 25).
        match self.dim {
            3 => dominance_mask(rows, row, 3),
            dim => dominance_mask(rows, row, dim),
        }
    }

    /// Calls `visit` with the rows among `0..end` strictly dominating
    /// `row`, newest first, until it returns `true`.
    fn scan_back(&self, row: &[f64], end: usize, mut visit: impl FnMut(usize) -> bool) {
        let mut hi = end;
        while hi > 0 {
            let coarse_lo = (hi - 1) / COARSE * COARSE;
            if self.may_dominate(&self.coarse, coarse_lo / COARSE, row) {
                while hi > coarse_lo {
                    let lo = (hi - 1) / FINE * FINE;
                    if self.may_dominate(&self.fine, lo / FINE, row) {
                        let mut mask = self.mask(lo, hi, row);
                        while mask != 0 {
                            let j = 31 - mask.leading_zeros() as usize;
                            if visit(lo + j) {
                                return;
                            }
                            mask ^= 1 << j;
                        }
                    }
                    hi = lo;
                }
            }
            hi = coarse_lo;
        }
    }

    /// Calls `visit` with the rows among `start..` strictly dominating
    /// `row`, oldest first, until it returns `true`.
    fn scan_forward(&self, row: &[f64], start: usize, mut visit: impl FnMut(usize) -> bool) {
        let mut lo = start;
        while lo < self.rows {
            let coarse_hi = ((lo / COARSE + 1) * COARSE).min(self.rows);
            if self.may_dominate(&self.coarse, lo / COARSE, row) {
                while lo < coarse_hi {
                    let hi = ((lo / FINE + 1) * FINE).min(self.rows);
                    if self.may_dominate(&self.fine, lo / FINE, row) {
                        let mut mask = self.mask(lo, hi, row);
                        while mask != 0 {
                            if visit(lo + mask.trailing_zeros() as usize) {
                                return;
                            }
                            mask &= mask - 1;
                        }
                    }
                    lo = hi;
                }
            }
            lo = coarse_hi;
        }
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

/// Per-dimension maxima of every `per_block` consecutive `dim`-wide rows of
/// `attrs`, NaNs ignored (`−∞` where a block has no other value).
fn corners(attrs: &[f64], dim: usize, per_block: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(attrs.len().div_ceil(per_block));
    for block in attrs.chunks(per_block * dim) {
        let corner = out.len();
        out.resize(corner + dim, f64::NEG_INFINITY);
        for row in block.chunks_exact(dim) {
            for (c, &v) in out[corner..].iter_mut().zip(row) {
                *c = c.max(v);
            }
        }
    }
    out
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
/// Each record is scanned backwards once, newest dominator first, up to the
/// largest level, recording the duration at every requested level along the
/// way. This is how the S-Band index builds its logarithmic family of
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
    let kernel = DominanceKernel::new(ds);
    for i in first..n {
        let (mut found, mut level) = (0usize, 0usize);
        kernel.scan_back(ds.row(i as RecordId), i, |j| {
            found += 1;
            while level < ks.len() && ks[level] == found {
                out[level][i - first] = (i - j - 1) as u32;
                level += 1;
            }
            level == ks.len()
        });
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
///   dominators of any future arrival: strict dominance is transitive, so
///   all `k_max` of its later dominators also dominate that arrival and
///   are more recent. Such records are tombstoned (their counter stops the
///   scan from testing them) and compacted away once they outnumber the
///   live half of the list.
///
/// Records before [`base`](SkybandMaintainer::base) are *context*: they
/// sit in the active list as potential dominators, but no duration is kept
/// for them — a head shard never reports them. Context arrives whole,
/// either [bootstrapped](SkybandMaintainer::with_context) by one forward
/// kernel pass or [inherited](SkybandMaintainer::inherit) from the
/// maintainer whose trailing records it is. The maintainer keeps the
/// attribute row of every active entry, so nobody else has to keep the
/// context's rows: an append reads nothing but the newcomer.
///
/// Per-append cost is `O(|active|)` dominance tests; the active list is
/// the "k_max-skyband with respect to later arrivals", which stays near
/// `O(k_max · skyline)` on well-behaved data and degrades to `O(n)` only
/// when the stream is one large anti-chain — exactly the regime where the
/// offline build pays the same quadratic cost.
///
/// Durations produced are bit-identical to [`skyband_durations_multi`]
/// over the same rows (property-tested below), so an index sealed from
/// the maintainer equals one built from scratch.
#[derive(Debug, Clone)]
pub struct SkybandMaintainer {
    ks: Vec<usize>,
    /// Per level, per owned record (`base..n`): the durable skyband
    /// duration.
    durs: Vec<Vec<u32>>,
    /// Context records: those before `base` have no duration.
    base: usize,
    n: usize,
    active: Vec<ActiveRecord>,
    /// The attribute row of `active[i]` at `rows[i * dim..(i + 1) * dim]`.
    rows: Vec<f64>,
    /// Attribute arity; `0` until the first row arrives.
    dim: usize,
    /// Tombstoned entries awaiting compaction.
    evicted: usize,
}

impl SkybandMaintainer {
    /// An empty maintainer covering levels `1, 2, 4, … >= k_max`.
    ///
    /// # Panics
    /// Panics if `k_max == 0`.
    pub fn new(k_max: usize) -> Self {
        Self::over_context(k_max, 0, 0, Vec::new(), Vec::new())
    }

    /// A maintainer whose context is `base` records with the given live
    /// active entries and their rows, owning nothing yet.
    fn over_context(
        k_max: usize,
        dim: usize,
        base: usize,
        active: Vec<ActiveRecord>,
        rows: Vec<f64>,
    ) -> Self {
        let ks = level_ks(k_max);
        let durs = vec![Vec::new(); ks.len()];
        Self { ks, durs, base, n: base, active, rows, dim, evicted: 0 }
    }

    /// The reference replay: every record of `ds` appended in turn, so all
    /// of them are owned. Context bootstraps and seal inheritance are
    /// tested against it.
    pub fn build(ds: &Dataset, k_max: usize) -> Self {
        let mut m = Self::new(k_max);
        for id in 0..ds.len() {
            m.append(ds.row(id as RecordId));
        }
        m
    }

    /// A maintainer whose context is every record of `ds`, owning none.
    ///
    /// One forward kernel pass counts each record's later dominators,
    /// stopping at `k_max`; the records that stay below it form the active
    /// list — exactly the live entries a replay of `ds` would leave.
    ///
    /// # Panics
    /// Panics if `k_max == 0`.
    pub fn with_context(ds: &Dataset, k_max: usize) -> Self {
        let mut m = Self::over_context(k_max, ds.dim(), ds.len(), Vec::new(), Vec::new());
        let cap = m.k_max() as u32;
        let kernel = DominanceKernel::new(ds);
        for i in 0..ds.len() {
            let row = ds.row(i as RecordId);
            let mut later_dominators = 0;
            kernel.scan_forward(row, i + 1, |_| {
                later_dominators += 1;
                later_dominators == cap
            });
            if later_dominators < cap {
                m.active.push(ActiveRecord { id: i as RecordId, later_dominators });
                m.rows.extend_from_slice(row);
            }
        }
        m
    }

    /// A maintainer whose context is this one's records `from..len()`,
    /// renumbered from zero, owning none — the state a seal hands the next
    /// head. Every record after a context record is itself in the context,
    /// so the live active entries from `from` on, rows included, carry
    /// exactly the counts a [bootstrap](SkybandMaintainer::with_context)
    /// would compute.
    ///
    /// # Panics
    /// Panics if `from > self.len()`.
    pub fn inherit(&self, from: RecordId) -> Self {
        assert!(from as usize <= self.n, "context starts beyond the covered records");
        let cap = self.k_max() as u32;
        let (mut active, mut rows) = (Vec::new(), Vec::new());
        for (e, row) in self.active.iter().zip(self.rows.chunks_exact(self.dim.max(1))) {
            if e.id >= from && e.later_dominators < cap {
                active.push(ActiveRecord { id: e.id - from, ..*e });
                rows.extend_from_slice(row);
            }
        }
        Self::over_context(self.k_max(), self.dim, self.n - from as usize, active, rows)
    }

    /// Records covered so far, context included.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no record is covered, context included.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Id of the first owned record: earlier ones are context.
    pub fn base(&self) -> RecordId {
        self.base as RecordId
    }

    /// The maintained levels, strictly ascending powers of two.
    pub fn levels(&self) -> &[usize] {
        &self.ks
    }

    /// The largest `k` the maintained durations can serve.
    pub fn k_max(&self) -> usize {
        *self.ks.last().expect("levels are never empty")
    }

    /// Durations of level `self.levels()[level]` of the owned records:
    /// entry `i` belongs to record `base() + i`.
    pub fn durations(&self, level: usize) -> &[u32] {
        &self.durs[level]
    }

    /// Heap bytes held: every level's durations plus the active list and
    /// its rows, by capacity.
    pub fn heap_bytes(&self) -> usize {
        let durs: usize = self.durs.iter().map(Vec::capacity).sum();
        durs * std::mem::size_of::<u32>()
            + self.active.capacity() * std::mem::size_of::<ActiveRecord>()
            + self.rows.capacity() * std::mem::size_of::<f64>()
    }

    /// Live (non-tombstoned) entries of the active list — instrumentation
    /// for tests and benches.
    pub fn active_len(&self) -> usize {
        self.active.len() - self.evicted
    }

    /// Ingests the next record in arrival order, record `self.len()`,
    /// given by its attribute row: computes its duration at every level
    /// and updates the active list. Only the active entries' own rows are
    /// read.
    ///
    /// # Panics
    /// Panics if the row's arity differs from earlier rows'.
    pub fn append(&mut self, row: &[f64]) {
        if self.dim == 0 {
            self.dim = row.len();
        }
        assert_eq!(row.len(), self.dim, "attribute arity mismatch");
        let p = self.n as RecordId;
        let k_max = self.k_max() as u32;
        for level in &mut self.durs {
            level.push(DURATION_UNBOUNDED);
        }
        let owned = self.n - self.base;
        let mut found = 0u32;
        let mut level = 0usize;
        // One backward pass, most recent first: collect the newcomer's
        // dominators (recording a duration whenever a level's k is hit)
        // and charge the newcomer against every active record it
        // dominates.
        for (entry, other) in self.active.iter_mut().zip(self.rows.chunks_exact(self.dim)).rev() {
            if entry.later_dominators >= k_max {
                continue; // tombstoned
            }
            if found < k_max && strictly_dominates(other, row) {
                found += 1;
                while level < self.ks.len() && self.ks[level] as u32 == found {
                    self.durs[level][owned] = p - entry.id - 1;
                    level += 1;
                }
            } else if strictly_dominates(row, other) {
                entry.later_dominators += 1;
                if entry.later_dominators == k_max {
                    self.evicted += 1;
                }
            }
        }
        self.active.push(ActiveRecord { id: p, later_dominators: 0 });
        self.rows.extend_from_slice(row);
        self.n += 1;
        // Compact once tombstones dominate: O(live) work amortized O(1).
        if self.evicted * 2 > self.active.len() {
            let mut kept = 0;
            for i in 0..self.active.len() {
                if self.active[i].later_dominators < k_max {
                    self.active[kept] = self.active[i];
                    self.rows.copy_within(i * self.dim..(i + 1) * self.dim, kept * self.dim);
                    kept += 1;
                }
            }
            self.active.truncate(kept);
            self.rows.truncate(kept * self.dim);
            self.evicted = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The live active entries with their rows, tombstones dropped.
    fn live(m: &SkybandMaintainer) -> Vec<(ActiveRecord, Vec<f64>)> {
        let cap = m.k_max() as u32;
        let rows = m.rows.chunks_exact(m.dim.max(1)).map(<[f64]>::to_vec);
        m.active.iter().copied().zip(rows).filter(|(e, _)| e.later_dominators < cap).collect()
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

        /// On tie-heavy rows (three values per attribute) the kernel and
        /// the streaming maintainer give the brute-force strict-dominance
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
            let m = SkybandMaintainer::build(&ds, 4);
            for (level, &k) in m.levels().iter().enumerate() {
                let durs = skyband_durations(&ds, k);
                prop_assert_eq!(&durs, &brute_durations(&ds, k), "d={} k={}", d, k);
                prop_assert_eq!(m.durations(level), &durs[..], "d={} k={}", d, k);
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
    /// whichever blocks they share — at both block granularities, forwards
    /// and backwards.
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
        let mut ds = Dataset::from_rows(2, [[5.0, 1.0]]);
        for i in 1..300 {
            ds.push(match i {
                150 => &[f64::NAN, 9.0],
                299 => &[6.0, 2.0],
                _ => &[0.0, 0.0],
            });
        }
        let m = SkybandMaintainer::with_context(&ds, 2);
        assert_eq!(live(&m)[0], (ActiveRecord { id: 0, later_dominators: 1 }, vec![5.0, 1.0]));
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
                    m.append(&row);
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
            grown.append(prefix.row(i as RecordId));
        }
        assert_eq!(built.len(), grown.len());
        for level in 0..built.levels().len() {
            assert_eq!(built.durations(level), grown.durations(level));
        }
    }

    /// A context bootstrap followed by appends holds exactly what a replay
    /// of the context followed by the same appends holds — the same owned
    /// durations and the same live active list — and so does a maintainer
    /// inherited at a seal, against a replay over the suffix it inherits.
    #[test]
    fn context_bootstrap_and_inheritance_equal_a_replay() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(31);
        for (d, vals) in [(1usize, 40u32), (2, 12), (3, 7), (5, 4)] {
            for k_max in [1usize, 3, 8] {
                for ctx in [0usize, 1, 17, 300] {
                    let rows: Vec<Vec<f64>> = (0..ctx + 200)
                        .map(|_| (0..d).map(|_| f64::from(rng.random_range(0..vals))).collect())
                        .collect();
                    let full = Dataset::from_rows(d, rows);
                    let at = format!("d={d} k_max={k_max} ctx={ctx}");
                    let mut ds = Dataset::from_rows(d, (0..ctx).map(|i| full.row(i as RecordId)));
                    let mut booted = SkybandMaintainer::with_context(&ds, k_max);
                    let mut replay = SkybandMaintainer::build(&ds, k_max);
                    assert_eq!((booted.base(), booted.len()), (ctx as RecordId, ctx), "{at}");
                    assert_eq!(live(&booted), live(&replay), "{at}");
                    assert_eq!(booted.active_len(), replay.active_len(), "{at}");
                    for i in ctx..full.len() {
                        ds.push(full.row(i as RecordId));
                        booted.append(full.row(i as RecordId));
                        replay.append(full.row(i as RecordId));
                    }
                    assert_eq!(live(&booted), live(&replay), "{at}");
                    for level in 0..replay.levels().len() {
                        assert_eq!(
                            booted.durations(level),
                            &replay.durations(level)[ctx..],
                            "{at}"
                        );
                    }

                    // Seal: the trailing records become the next context.
                    let from = (ds.len() - ctx.min(ds.len())) as RecordId;
                    let mut heir = booted.inherit(from);
                    let suffix =
                        Dataset::from_rows(d, (from..ds.len() as RecordId).map(|i| ds.row(i)));
                    let mut replay = SkybandMaintainer::build(&suffix, k_max);
                    assert_eq!(heir.base() as usize, suffix.len(), "{at}");
                    assert_eq!(live(&heir), live(&replay), "{at}");
                    let mut ds = suffix;
                    for _ in 0..60 {
                        let row: Vec<f64> =
                            (0..d).map(|_| f64::from(rng.random_range(0..vals))).collect();
                        ds.push(&row);
                        heir.append(&row);
                        replay.append(&row);
                    }
                    let base = heir.base() as usize;
                    assert_eq!(live(&heir), live(&replay), "{at}");
                    for level in 0..replay.levels().len() {
                        assert_eq!(heir.durations(level), &replay.durations(level)[base..], "{at}");
                    }
                }
            }
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
            m.append(&[i as f64, i as f64]);
        }
        assert!(
            m.active_len() <= 8,
            "dominated records must be evicted, active={}",
            m.active_len()
        );
        // Nobody has a past dominator, so all durations stay unbounded.
        assert!(m.durations(0).iter().all(|&d| d == DURATION_UNBOUNDED));
        // A bootstrap over the same chain keeps only the last k_max.
        assert_eq!(SkybandMaintainer::with_context(&ds, 2).active_len(), 2);
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
