//! The durable k-skyband candidate index (paper Section IV-B, Fig. 4).
//!
//! For a monotone scoring function, any τ-durable top-k record must be
//! τ-durable for the k-skyband as well. The paper maps each record `p` to
//! the point `(p.t, τ_p)` — arrival time versus longest skyband-resident
//! duration — and retrieves candidates with the 3-sided range query
//! `I × [τ, +∞)`. Here `p.t` *is* the dense record id, so the search
//! dimension is an array index and the query reads "every `i ∈ I` with
//! `dur[i] >= τ`": each level is a plain duration array with one layer of
//! per-block maxima, and one loop reports from it, skipping the blocks
//! whose maximum is below `τ`. Durations are append-stable (they only look
//! backwards), so an append pushes one value per level and raises the last
//! block's maximum; nothing is ever rebuilt, at append or at seal. A static
//! build and a head's append compute durations with the same block-pruned
//! backward scan ([`scan_durations`]): the head scans its own rows, then
//! the rows of its left context — the up-to-`max_tau` records before it,
//! which it keeps — and a seal hands the next head the trailing ones.
//!
//! Because `k` is a query parameter, the index keeps a logarithmic family of
//! levels `k = 1, 2, 4, …, 2^⌈log κ⌉`; a query with parameter `k` uses the
//! smallest level `k̄ >= k`, whose candidate set is a superset of the answer
//! (`S ⊆ C`), at the cost of at most doubling the effective `k`.

use durable_topk_geom::{
    level_ks, scan_durations, skyband_durations_multi, BlockCorners, DURATION_UNBOUNDED,
};
use durable_topk_temporal::{Dataset, RecordId, Time, Window};

/// A source of S-Band candidate supersets: anything that can answer the
/// query "records arriving in `I` whose k̄-skyband duration is at least
/// `τ`". Implemented by the static [`DurableSkybandIndex`] (sealed shards)
/// and the [`IncrementalSkybandIndex`] of the mutable head shard, so the
/// S-Band algorithm runs unchanged over both.
pub trait SkybandCandidates {
    /// The levels (`k̄` values) kept, strictly ascending powers of two.
    fn levels(&self) -> &[usize];

    /// Calls `visit` with every record arriving in `interval` whose
    /// k̄-skyband duration is at least `tau` — the candidate superset `C`
    /// for `DurTop(k, I, τ)`, in ascending id order, without allocating —
    /// and returns the level `k̄` used.
    ///
    /// # Panics
    /// Panics if `k` is zero or exceeds the largest level (the source
    /// cannot guarantee a superset then).
    fn for_each_candidate(
        &self,
        interval: Window,
        tau: Time,
        k: usize,
        visit: &mut dyn FnMut(RecordId),
    ) -> usize;

    /// Id of the first record the source holds a duration for: earlier
    /// ids are left context and are never reported.
    fn base(&self) -> RecordId;

    /// The largest `k` the candidate source can serve.
    fn max_k(&self) -> usize {
        self.levels().last().copied().unwrap_or(0)
    }

    /// Allocating convenience over
    /// [`for_each_candidate`](SkybandCandidates::for_each_candidate): the
    /// candidate ids and the level `k̄` used.
    fn candidates(&self, interval: Window, tau: Time, k: usize) -> (Vec<RecordId>, usize) {
        let mut ids = Vec::new();
        let k_bar = self.for_each_candidate(interval, tau, k, &mut |id| ids.push(id));
        (ids, k_bar)
    }
}

/// Records per block maximum: one extra `u32` per 64 durations (+1.6 %).
const BLOCK: usize = 64;

/// Position in `ks` of the level serving `k`.
// Documented-panic API: k beyond the build bound is a caller bug, not a
// query-path state.
#[allow(clippy::panic)]
fn level_index(ks: &[usize], k: usize) -> usize {
    assert!(k >= 1, "k must be positive");
    ks.iter().position(|&lk| lk >= k).unwrap_or_else(|| {
        panic!("index built for k <= {}, got {k}", ks.last().copied().unwrap_or(0))
    })
}

/// The maximum of every [`BLOCK`] consecutive durations.
fn block_maxima(durs: &[u32]) -> Vec<u32> {
    durs.chunks(BLOCK).map(|block| block.iter().fold(0, |max, &dur| max.max(dur))).collect()
}

/// Reports every record of `interval` whose duration is at least `tau`,
/// where `durs[i]` belongs to record `base + i` and `maxima` are its
/// [`block_maxima`]. Records outside `base..base + durs.len()` are not
/// covered and never reported.
fn report(
    durs: &[u32],
    maxima: &[u32],
    base: RecordId,
    interval: Window,
    tau: Time,
    visit: &mut dyn FnMut(RecordId),
) {
    let mut from = interval.start().saturating_sub(base) as usize;
    let end = durs.len().min((interval.end() as usize + 1).saturating_sub(base as usize));
    while from < end {
        let to = end.min((from / BLOCK + 1) * BLOCK);
        if maxima[from / BLOCK] >= tau {
            for (i, &dur) in durs[from..to].iter().enumerate() {
                if dur >= tau {
                    visit(base + (from + i) as RecordId);
                }
            }
        }
        from = to;
    }
}

/// The static durable k-skyband index of a sealed shard (or of the flat
/// engine): per level, the durations of the records it owns.
#[derive(Debug, Clone)]
pub struct DurableSkybandIndex {
    ks: Vec<usize>,
    /// Id of the first owned record; earlier records (a shard's left
    /// context) have no duration here and are never reported.
    base: RecordId,
    /// Per level: durations of records `base..` and their block maxima.
    levels: Vec<(Vec<u32>, Vec<u32>)>,
}

impl DurableSkybandIndex {
    /// Builds levels `k = 1, 2, 4, …` up to the first power of two at or
    /// above `k_max` over the whole dataset.
    ///
    /// # Panics
    /// Panics if the dataset is empty or `k_max == 0`.
    pub fn build(ds: &Dataset, k_max: usize) -> Self {
        Self::build_owned(ds, k_max, 0)
    }

    /// As [`build`](DurableSkybandIndex::build), keeping (and computing)
    /// durations for records `first..` only: rows before `first` are left
    /// context — read as potential dominators, never candidates.
    ///
    /// # Panics
    /// Panics if no record is owned (`first >= ds.len()`) or `k_max == 0`.
    pub fn build_owned(ds: &Dataset, k_max: usize, first: RecordId) -> Self {
        assert!((first as usize) < ds.len(), "cannot index an empty dataset");
        let ks = level_ks(k_max);
        let durations = skyband_durations_multi(ds, &ks, first);
        Self::from_durations(ks, durations, first)
    }

    /// Assembles the index from per-level durations of records `base..`.
    fn from_durations(ks: Vec<usize>, durations: Vec<Vec<u32>>, base: RecordId) -> Self {
        let levels = durations
            .into_iter()
            .map(|durs| {
                let maxima = block_maxima(&durs);
                (durs, maxima)
            })
            .collect();
        Self { ks, base, levels }
    }

    /// Durations of level `self.levels()[level]` of the owned records:
    /// entry `i` belongs to record `base + i`.
    pub fn durations(&self, level: usize) -> &[u32] {
        &self.levels[level].0
    }

    /// Heap bytes held: every level's durations and block maxima.
    pub fn heap_bytes(&self) -> usize {
        let words: usize = self.levels.iter().map(|(d, m)| d.capacity() + m.capacity()).sum();
        words * std::mem::size_of::<u32>()
    }
}

impl SkybandCandidates for DurableSkybandIndex {
    fn levels(&self) -> &[usize] {
        &self.ks
    }

    fn base(&self) -> RecordId {
        self.base
    }

    fn for_each_candidate(
        &self,
        interval: Window,
        tau: Time,
        k: usize,
        visit: &mut dyn FnMut(RecordId),
    ) -> usize {
        let level = level_index(&self.ks, k);
        let (durs, maxima) = &self.levels[level];
        report(durs, maxima, self.base, interval, tau, visit);
        self.ks[level]
    }
}

/// An appendable durable k-skyband index for the mutable head shard. Each
/// arriving record's durations are computed once, on
/// [`push`](IncrementalSkybandIndex::push), by the same backward scan a
/// static build runs ([`scan_durations`]): over the records the index owns,
/// then over its left *context* — the rows of the records before the head,
/// dominators only, never candidates. Durations only look backwards, so a
/// push appends one value per level and raises its last block maximum;
/// candidate retrieval is the static index's loop over the same arrays, so
/// [`SkybandCandidates`] serves S-Band over either without the algorithm
/// noticing.
///
/// The index keeps the context's rows and the block corners of both runs;
/// the owned rows themselves stay in the caller's dataset, which every
/// push reads.
#[derive(Debug, Clone)]
pub struct IncrementalSkybandIndex {
    /// Durations of the owned records, from `base` = the context's length.
    owned: DurableSkybandIndex,
    /// Block corners of the owned rows.
    corners: BlockCorners,
    /// The context's rows, oldest first, and their block corners.
    context: (Vec<f64>, BlockCorners),
}

impl IncrementalSkybandIndex {
    /// An empty incremental index serving `k <= k_max` (rounded up to a
    /// power of two), with no context.
    ///
    /// # Panics
    /// Panics if `k_max == 0`.
    pub fn new(k_max: usize) -> Self {
        Self::over(Vec::new(), BlockCorners::default(), k_max)
    }

    /// An index whose left context is every record of `ds`, owning none:
    /// a copy of the rows and their block corners — nothing is scanned.
    ///
    /// # Panics
    /// Panics if `k_max == 0`.
    pub fn with_context(ds: &Dataset, k_max: usize) -> Self {
        let rows = ds.raw_attrs().to_vec();
        let corners = BlockCorners::over(&rows, ds.dim());
        Self::over(rows, corners, k_max)
    }

    /// The index a seal hands the next head: its left context is this
    /// one's records `from..` (context records, then owned ones, numbered
    /// as in [`len`](IncrementalSkybandIndex::len)). `ds` is the dataset
    /// this index was pushed from, holding the owned rows last.
    ///
    /// # Panics
    /// Panics if `from` lies beyond the covered records or `ds` holds
    /// fewer rows than the index owns.
    pub fn inherit(&self, ds: &Dataset, from: RecordId) -> Self {
        let (from, base, dim) = (from as usize, self.base() as usize, ds.dim());
        assert!(from <= self.len(), "context starts beyond the covered records");
        let mut rows = self.context.0[from.min(base) * dim..].to_vec();
        rows.extend_from_slice(&self.owned_rows(ds)[from.saturating_sub(base) * dim..]);
        let corners = BlockCorners::over(&rows, dim);
        Self::over(rows, corners, self.max_k())
    }

    /// An index over the given context, owning no record yet.
    fn over(rows: Vec<f64>, corners: BlockCorners, k_max: usize) -> Self {
        let ks = level_ks(k_max);
        let durations = vec![Vec::new(); ks.len()];
        let owned = DurableSkybandIndex::from_durations(ks, durations, corners.len() as RecordId);
        Self { owned, corners: BlockCorners::default(), context: (rows, corners) }
    }

    /// The owned rows: the last rows of `ds`, one per owned record.
    fn owned_rows<'d>(&self, ds: &'d Dataset) -> &'d [f64] {
        let owned = self.corners.len();
        assert!(ds.len() >= owned, "the dataset holds every owned row");
        &ds.raw_attrs()[(ds.len() - owned) * ds.dim()..]
    }

    /// Records covered, context included: the owned record `i` is record
    /// `base() + i`.
    pub fn len(&self) -> usize {
        self.context.1.len() + self.corners.len()
    }

    /// Whether no record is covered, context included.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Durations of level `self.levels()[level]` of the owned records:
    /// entry `i` belongs to record `base() + i`.
    pub fn durations(&self, level: usize) -> &[u32] {
        self.owned.durations(level)
    }

    /// Ingests the last row of `ds` as the next owned record: one backward
    /// scan over the owned rows — the rows of `ds` before it, as many as
    /// the index owns — and then the context, newest first, gives its
    /// duration at every level, each folded into its level's last block
    /// maximum.
    ///
    /// # Panics
    /// Panics if `ds` holds fewer rows than the index owns plus one.
    pub fn push(&mut self, ds: &Dataset) {
        let i = self.corners.len();
        assert!(ds.len() > i, "the dataset holds every owned row and the newcomer");
        let attrs = &ds.raw_attrs()[(ds.len() - i - 1) * ds.dim()..];
        let row = &attrs[i * ds.dim()..];
        let levels = &mut self.owned.levels;
        for (durs, _) in levels.iter_mut() {
            durs.push(DURATION_UNBOUNDED);
        }
        let runs = [(attrs, &self.corners), (&self.context.0[..], &self.context.1)];
        scan_durations(row, &self.owned.ks, &runs, |level, dur| levels[level].0[i] = dur);
        for (durs, maxima) in levels.iter_mut() {
            match maxima.last_mut() {
                Some(last) if i % BLOCK != 0 => *last = durs[i].max(*last),
                _ => maxima.push(durs[i]),
            }
        }
        self.corners.push(row);
    }

    /// Does nothing; kept only because the frozen benchmark harness calls it.
    #[doc(hidden)]
    pub fn sync<I: Iterator<Item = Window>>(&mut self, _coverages: I) {}

    /// Freezes the durations of records `first..` into the static index a
    /// sealed shard serves — a slice copy per level.
    ///
    /// # Panics
    /// Panics if `first` is context or not a covered record.
    pub fn to_static(&self, first: RecordId) -> DurableSkybandIndex {
        let base = self.base();
        assert!(first >= base, "context records have no duration to seal");
        assert!((first as usize) < self.len(), "cannot seal an empty skyband index");
        let durations = (0..self.owned.levels.len())
            .map(|level| self.durations(level)[(first - base) as usize..].to_vec())
            .collect();
        DurableSkybandIndex::from_durations(self.owned.ks.clone(), durations, first)
    }

    /// Heap bytes held: the owned records' durations with their block
    /// maxima, the context's rows, and both runs' block corners, by
    /// capacity.
    pub fn heap_bytes(&self) -> usize {
        let (rows, corners) = &self.context;
        self.owned.heap_bytes()
            + rows.capacity() * std::mem::size_of::<f64>()
            + corners.heap_bytes()
            + self.corners.heap_bytes()
    }
}

impl SkybandCandidates for IncrementalSkybandIndex {
    fn levels(&self) -> &[usize] {
        self.owned.levels()
    }

    fn base(&self) -> RecordId {
        self.owned.base()
    }

    fn for_each_candidate(
        &self,
        interval: Window,
        tau: Time,
        k: usize,
        visit: &mut dyn FnMut(RecordId),
    ) -> usize {
        self.owned.for_each_candidate(interval, tau, k, visit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use durable_topk_geom::{skyband_durations, DURATION_UNBOUNDED};
    use rand::prelude::*;

    fn random_rows(seed: u64, n: usize, dim: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = (0..n).map(|_| (0..dim).map(|_| rng.random_range(0..10) as f64).collect());
        Dataset::from_rows(dim, rows.collect::<Vec<Vec<f64>>>())
    }

    /// The brute-force filter `{ i ∈ I : i >= base, dur[i] >= τ }`.
    fn filter(durs: &[u32], base: RecordId, interval: Window, tau: Time) -> Vec<RecordId> {
        (interval.start().max(base)..=interval.end())
            .filter(|&i| durs.get(i as usize).is_some_and(|&d| d >= tau))
            .collect()
    }

    /// Every level × `τ ∈ {1, mid, MAX}` × interval shape (whole, inner,
    /// single-record, clipped on each side, fully out of range) of `idx`,
    /// covering `base..n`, against the brute-force filter over `durs`.
    fn check(idx: &dyn SkybandCandidates, durs: &[Vec<u32>], base: RecordId, n: usize, at: &str) {
        let last = n as RecordId - 1;
        let intervals = [
            Window::new(0, last),
            Window::new(last / 3, last - last / 4),
            Window::new(last / 2, last / 2),
            Window::new(last, last),
            Window::new(last / 2, last + 70),
            Window::new(0, base + (last - base) / 2),
            Window::new(last + 1, last + 200),
        ];
        for (level, &k_bar) in idx.levels().iter().enumerate() {
            for tau in [1, 6, u32::MAX] {
                for w in intervals {
                    // The smallest k served by this level.
                    let (got, used) = idx.candidates(w, tau, k_bar / 2 + 1);
                    assert_eq!(used, k_bar);
                    let want = filter(&durs[level][..n], base, w, tau);
                    assert_eq!(got, want, "{at} n={n} base={base} k̄={k_bar} τ={tau} I={w:?}");
                }
            }
        }
    }

    /// Grows an incremental index over `full` one push at a time — never
    /// calling `sync` — checking it at every short prefix and at lengths
    /// straddling block edges, where the static index (whole and owned-only)
    /// and the frozen incremental one are checked as well.
    fn check_stream(full: &Dataset, k_max: usize, at: &str) -> Vec<Vec<u32>> {
        let durs: Vec<Vec<u32>> =
            level_ks(k_max).iter().map(|&k| skyband_durations(full, k)).collect();
        let mut ds = Dataset::new(full.dim());
        let mut inc = IncrementalSkybandIndex::new(k_max);
        for id in 0..full.len() as RecordId {
            ds.push(full.row(id));
            inc.push(&ds);
            let n = ds.len();
            let edge = [1, 63, 64, 65, 127, 128, 129, 4_097].contains(&n);
            if n <= 130 || edge {
                check(&inc, &durs, 0, n, at);
            }
            if edge {
                check(&DurableSkybandIndex::build(&ds, k_max), &durs, 0, n, at);
                for first in [n as RecordId / 2, n as RecordId - 1] {
                    let built = DurableSkybandIndex::build_owned(&ds, k_max, first);
                    check(&built, &durs, first, n, at);
                    check(&inc.to_static(first), &durs, first, n, at);
                }
            }
        }
        durs
    }

    #[test]
    fn levels_are_powers_of_two() {
        let ds = Dataset::from_rows(2, (0..32).map(|i| [i as f64, (32 - i) as f64]));
        let idx = DurableSkybandIndex::build(&ds, 10);
        assert_eq!(idx.max_k(), 16);
        assert_eq!(idx.levels(), [1, 2, 4, 8, 16]);
        let level = |k| idx.for_each_candidate(Window::new(0, 31), 1, k, &mut |_| {});
        assert_eq!([level(1), level(3), level(16)], [1, 4, 16]);
    }

    #[test]
    fn candidates_match_direct_duration_filter() {
        let ds = random_rows(5, 150, 2);
        let idx = DurableSkybandIndex::build(&ds, 8);
        for (k, k_bar) in [(1usize, 1usize), (2, 2), (3, 4), (5, 8), (8, 8)] {
            let durs = skyband_durations(&ds, k_bar);
            for tau in [1u32, 5, 20, 100] {
                let interval = Window::new(30, 120);
                let (got, used) = idx.candidates(interval, tau, k);
                assert_eq!(used, k_bar);
                assert_eq!(got, filter(&durs, 0, interval, tau), "k={k} tau={tau}");
            }
        }
    }

    #[test]
    fn unbounded_records_are_always_candidates() {
        // Strictly increasing chain: nobody is ever dominated.
        let ds = Dataset::from_rows(2, (0..130).map(|i| [i as f64, i as f64]));
        let durs = check_stream(&ds, 4, "increasing");
        assert!(durs.iter().flatten().all(|&d| d == DURATION_UNBOUNDED));
        let idx = DurableSkybandIndex::build(&ds, 4);
        let (got, _) = idx.candidates(Window::new(0, 129), u32::MAX, 1);
        assert_eq!(got.len(), 130);
    }

    #[test]
    fn decreasing_stream_has_duration_k_bar_minus_one() {
        // Every record is dominated by all its predecessors, so its k̄-th
        // most recent dominator sits exactly k̄ arrivals back.
        let ds = Dataset::from_rows(2, (0..130).map(|i| [(200 - i) as f64, (200 - i) as f64]));
        let durs = check_stream(&ds, 8, "decreasing");
        for (durs, k_bar) in durs.iter().zip(level_ks(8)) {
            for (i, &d) in durs.iter().enumerate() {
                let want = if i >= k_bar { k_bar as u32 - 1 } else { DURATION_UNBOUNDED };
                assert_eq!(d, want, "record {i} k̄={k_bar}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "index built for")]
    fn oversized_k_panics() {
        let ds = Dataset::from_rows(2, [[1.0, 1.0], [2.0, 2.0]]);
        let idx = DurableSkybandIndex::build(&ds, 2);
        idx.candidates(Window::new(0, 1), 1, 50);
    }

    #[test]
    fn from_durations_equals_build() {
        let ds = random_rows(14, 120, 2);
        let built = DurableSkybandIndex::build(&ds, 4);
        let ks = level_ks(4);
        let durs = skyband_durations_multi(&ds, &ks, 0);
        let assembled = DurableSkybandIndex::from_durations(ks, durs, 0);
        for k in [1usize, 2, 4] {
            for tau in [1u32, 7, 40] {
                let w = Window::new(15, 100);
                assert_eq!(built.candidates(w, tau, k), assembled.candidates(w, tau, k));
            }
        }
    }

    /// The incremental index under appends — `sync` never called — reports
    /// exactly the brute-force filter, and so exactly the static index's
    /// candidates, at every prefix.
    #[test]
    fn incremental_candidates_match_static_at_every_prefix() {
        check_stream(&random_rows(77, 4_097, 2), 5, "random");
    }

    #[test]
    fn incremental_seals_into_the_static_shape() {
        let full = random_rows(91, 90, 3);
        let mut ds = Dataset::new(3);
        let mut inc = IncrementalSkybandIndex::new(3);
        for id in 0..full.len() as RecordId {
            ds.push(full.row(id));
            inc.push(&ds);
        }
        let sealed = inc.to_static(0);
        let stat = DurableSkybandIndex::build(&ds, 3);
        assert_eq!(sealed.heap_bytes(), stat.heap_bytes());
        for k in [1usize, 3, 4] {
            for tau in [2u32, 11, 60] {
                let w = Window::new(10, 80);
                assert_eq!(sealed.candidates(w, tau, k), stat.candidates(w, tau, k));
            }
        }
    }

    /// Grown from a bootstrapped context or from one inherited at a seal,
    /// the incremental index reports owned records only, exactly as the
    /// static index over the same rows does, and seals into its shape.
    #[test]
    fn context_is_never_a_candidate() {
        let full = random_rows(91, 290, 3);
        let rows = |lo: usize, hi: usize| {
            Dataset::from_rows(3, (lo..hi).map(|i| full.row(i as RecordId)).collect::<Vec<_>>())
        };
        let mut ds = rows(0, 70);
        let mut inc = IncrementalSkybandIndex::with_context(&ds, 3);
        for id in 70..200 {
            ds.push(full.row(id));
            inc.push(&ds);
        }
        // A seal at 200 keeps the last 50 records as the next context.
        let mut heir = inc.inherit(&ds, 150);
        let mut next = rows(150, 200);
        for id in 200..290 {
            next.push(full.row(id));
            heir.push(&next);
        }
        for (idx, ds, base) in [(&inc, &ds, 70), (&heir, &next, 50)] {
            let stat = DurableSkybandIndex::build_owned(ds, 3, base);
            let all = Window::new(0, ds.len() as RecordId - 1);
            for k in [1usize, 3, 4] {
                for tau in [1u32, 2, 11, 60] {
                    let got = idx.candidates(all, tau, k);
                    assert!(got.0.iter().all(|&id| id >= base), "context id reported");
                    assert_eq!(got, stat.candidates(all, tau, k), "k={k} tau={tau}");
                }
            }
            let sealed = idx.to_static(base);
            assert_eq!(sealed.heap_bytes(), stat.heap_bytes());
            assert_eq!(sealed.candidates(all, 5, 2), stat.candidates(all, 5, 2));
        }
    }

    /// Two indexes over one stream: one owns every record, the other was
    /// bootstrapped over the first 37 and is pushed from a dataset holding
    /// its owned rows only, as a head shard's is. Over the records both
    /// own they hold the same durations and report the same candidates,
    /// which are a from-scratch static build's.
    #[test]
    fn context_bootstrap_matches_a_context_free_index() {
        let mut rng = StdRng::seed_from_u64(53);
        let mut rows = std::iter::repeat_with(|| {
            [rng.random_range(0..14) as f64, rng.random_range(0..14) as f64]
        });
        let (mut ds, mut head) = (Dataset::new(2), Dataset::new(2));
        let mut classic = IncrementalSkybandIndex::new(6);
        for row in rows.by_ref().take(37) {
            ds.push(&row);
            classic.push(&ds);
        }
        let mut booted = IncrementalSkybandIndex::with_context(&ds, 6);
        assert_eq!((booted.base(), booted.len()), (37, 37));
        for (step, row) in rows.take(143).enumerate() {
            ds.push(&row);
            head.push(&row);
            classic.push(&ds);
            booted.push(&head);
            for level in 0..booted.levels().len() {
                let (a, b) = (booted.durations(level), classic.durations(level));
                assert_eq!(a, &b[37..], "step={step}");
            }
            // Asked about every record, the booted index still reports
            // only those from 37 on.
            let n = ds.len() as Time;
            let (w, owned) = (Window::new(0, n - 1), Window::new(37, n - 1));
            for (k, tau) in [(1usize, 2u32), (3, 9), (6, 40)] {
                let got = booted.candidates(w, tau, k);
                assert_eq!(got, classic.candidates(owned, tau, k), "step={step}");
                if step % 19 == 3 {
                    let stat = DurableSkybandIndex::build_owned(&ds, 6, 37);
                    assert_eq!(got, stat.candidates(w, tau, k), "step={step}");
                }
            }
        }
        assert_eq!(booted.len(), 180);
    }

    /// Sealed from the first owned record or a later one, a bootstrapped
    /// index and the ones handed on at seals — cut inside the owned records
    /// and inside the context — equal a from-scratch static build over the
    /// same rows.
    #[test]
    fn to_static_equals_build_owned() {
        let full = Dataset::from_rows(2, (0..260).map(|i| [((i * 7) % 13) as f64, (i % 5) as f64]));
        let rows = |lo: usize, hi: usize| {
            Dataset::from_rows(2, (lo..hi).map(|i| full.row(i as RecordId)).collect::<Vec<_>>())
        };
        // A head grown over `lo..hi` from `idx`, pushed from its own rows.
        let grow = |mut idx: IncrementalSkybandIndex, lo: usize, hi: usize| {
            let mut head = Dataset::new(2);
            for id in lo..hi {
                head.push(full.row(id as RecordId));
                idx.push(&head);
            }
            (idx, head)
        };
        let (booted, head) = grow(IncrementalSkybandIndex::with_context(&rows(0, 40), 3), 40, 120);
        // A seal keeping the last 30 records: the cut lies in the owned ones.
        let heir = booted.inherit(&head, 90);
        assert_eq!((heir.base(), heir.len()), (30, 30));
        let (heir, head) = grow(heir, 120, 200);
        // A seal keeping 100: the cut lies in the context.
        let next = heir.inherit(&head, 10);
        assert_eq!((next.base(), next.len()), (100, 100));
        let (next, _) = grow(next, 200, 260);
        let cases =
            [(&booted, rows(0, 120), 40), (&heir, rows(90, 200), 30), (&next, rows(100, 260), 100)];
        for (idx, ds, base) in cases {
            for first in [base, base + 23] {
                let sealed = idx.to_static(first);
                let stat = DurableSkybandIndex::build_owned(&ds, 3, first);
                assert_eq!(sealed.heap_bytes(), stat.heap_bytes());
                for level in 0..stat.levels().len() {
                    assert_eq!(sealed.durations(level), stat.durations(level), "first={first}");
                }
                let w = Window::new(20, 170);
                assert_eq!(sealed.candidates(w, 12, 3), stat.candidates(w, 12, 3));
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot seal an empty skyband index")]
    fn sealing_an_empty_incremental_index_is_rejected() {
        IncrementalSkybandIndex::new(2).to_static(0);
    }
}
