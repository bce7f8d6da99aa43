//! The top-k "building block" abstraction.
//!
//! The paper's algorithms treat the top-k query `Q(u, k, W)` as a black box:
//! *"the novelty and major contribution of our algorithms come from \[their\]
//! ability to reduce and bound the number of invocations of the building
//! block, totally independent of how the building block operates itself."*
//! [`TopKOracle`] is that black box; the durable top-k algorithms are
//! generic over it.
//!
//! The black box answers two questions. [`TopKOracle::top_k_into`] is
//! `Q(u, k, W)` itself: T-Base's window refills and S-Hop's subinterval
//! sets read the whole answer. [`TopKOracle::durable_into`] asks "is `p`
//! in `π≤k` of `W`?" — the durability check of T-Hop, S-Band and S-Hop,
//! which read `π≤k` only when the answer is no. An index can answer the
//! second by searching only at or above `score(p)`: for a durable `p` it
//! stops once fewer than `k` records can still beat that floor.
//!
//! The trait is *monomorphized* over the scoring function: every probe
//! resolves the scorer statically, so the per-probe path carries no virtual
//! dispatch, and results land in caller-provided buffers drawn from a
//! [`QueryContext`](crate::QueryContext) — no per-probe allocations either.
//! Requests that carry their scorer as data reach this trait the same way:
//! [`ScorerSpec`](crate::ScorerSpec) resolves to a concrete
//! `LinearScorer` / `CosineScorer` before the first probe, and only its
//! `Custom` variant probes through a trait object.
//!
//! Every oracle answers over a [`Rows`] source — the records the
//! algorithms score directly. Three implementations ship with the crate;
//! the index type is its own oracle, no wrapper in between:
//!
//! * [`SkylineSegTree`] — the skyline segment tree of Appendix A, over a
//!   [`Dataset`].
//! * the per-request timeline view of a
//!   [`ShardedEngine`](crate::ShardedEngine) — its own rows, read from
//!   every shard a window touches and searched as one forest.
//! * [`ScanOracle`] — a linear scan of the window (the correctness
//!   reference).

use durable_topk_index::{
    scan_top_k_into, top_k_over, OracleScorer, OracleScratch, Part, SkylineSegTree, TopKResult,
};
use durable_topk_temporal::{Dataset, RecordId, Window};
use std::cell::Cell;

/// The records an algorithm reads: `len()` of them, ids `0..len()`, each an
/// attribute row.
pub trait Rows {
    /// Number of records.
    fn len(&self) -> usize;

    /// Whether there is no record.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record `id`'s attribute row.
    fn row(&self, id: RecordId) -> &[f64];
}

impl Rows for Dataset {
    fn len(&self) -> usize {
        Dataset::len(self)
    }

    fn row(&self, id: RecordId) -> &[f64] {
        Dataset::row(self, id)
    }
}

/// A building block answering preference top-k queries over time windows.
pub trait TopKOracle {
    /// The records the oracle answers over.
    type Rows: Rows + ?Sized;

    /// Answers `Q(u, k, W)` into `out`: the top-k records (with ties of the
    /// k-th score) among records arriving in `w`, best first. Internal
    /// search state comes from `scratch`, so repeated probes allocate
    /// nothing.
    fn top_k_into<S: OracleScorer + ?Sized>(
        &self,
        ds: &Self::Rows,
        scorer: &S,
        k: usize,
        w: Window,
        scratch: &mut OracleScratch,
        out: &mut TopKResult,
    );

    /// Whether a record of `w` scoring `score` belongs to `π≤k` of `w` —
    /// the durability check, with `w` the record's durability window.
    ///
    /// On `false`, `out` is exactly what
    /// [`top_k_into`](TopKOracle::top_k_into) would leave there: `π≤k`,
    /// whose members outscore the record. On `true`, `out` may hold only
    /// the records scoring at least `score`, and callers must not read it.
    /// The default answers with a full search; an index may search only at
    /// or above `score` instead.
    #[allow(clippy::too_many_arguments)]
    fn durable_into<S: OracleScorer + ?Sized>(
        &self,
        ds: &Self::Rows,
        scorer: &S,
        k: usize,
        w: Window,
        score: f64,
        scratch: &mut OracleScratch,
        out: &mut TopKResult,
    ) -> bool {
        self.top_k_into(ds, scorer, k, w, scratch, out);
        out.admits_score(score)
    }

    /// Allocating convenience wrapper around
    /// [`top_k_into`](TopKOracle::top_k_into) for one-off probes.
    fn top_k<S: OracleScorer + ?Sized>(
        &self,
        ds: &Self::Rows,
        scorer: &S,
        k: usize,
        w: Window,
    ) -> TopKResult {
        let mut scratch = OracleScratch::new();
        let mut out = TopKResult::empty();
        self.top_k_into(ds, scorer, k, w, &mut scratch, &mut out);
        out
    }
}

/// The skyline segment tree of Appendix A is its own oracle over one
/// [`Dataset`]; a [`ShardedEngine`](crate::ShardedEngine) searches its
/// shards' trees through its per-request view instead.
impl TopKOracle for SkylineSegTree {
    type Rows = Dataset;

    fn top_k_into<S: OracleScorer + ?Sized>(
        &self,
        ds: &Dataset,
        scorer: &S,
        k: usize,
        w: Window,
        scratch: &mut OracleScratch,
        out: &mut TopKResult,
    ) {
        self.top_k_with(ds, scorer, k, w, scratch, out);
    }

    fn durable_into<S: OracleScorer + ?Sized>(
        &self,
        ds: &Dataset,
        scorer: &S,
        k: usize,
        w: Window,
        score: f64,
        scratch: &mut OracleScratch,
        out: &mut TopKResult,
    ) -> bool {
        let part = Part { tree: self, rows: ds.into(), offset: 0 };
        top_k_over(1, |_| part, scorer, k, w, score, scratch, out);
        out.admits_score(score)
    }
}

/// Naive oracle scanning every record in the window.
#[derive(Debug, Default)]
pub struct ScanOracle {
    queries: Cell<u64>,
}

impl ScanOracle {
    /// Creates the oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of top-k queries issued since construction or the last
    /// [`reset_counters`](ScanOracle::reset_counters) — the metric every
    /// figure in the paper's evaluation reports (the index types count
    /// theirs in `counters()`).
    pub fn queries_issued(&self) -> u64 {
        self.queries.get()
    }

    /// Resets the query count.
    pub fn reset_counters(&self) {
        self.queries.set(0);
    }
}

impl TopKOracle for ScanOracle {
    type Rows = Dataset;

    fn top_k_into<S: OracleScorer + ?Sized>(
        &self,
        ds: &Dataset,
        scorer: &S,
        k: usize,
        w: Window,
        _scratch: &mut OracleScratch,
        out: &mut TopKResult,
    ) {
        self.queries.set(self.queries.get() + 1);
        scan_top_k_into(ds, scorer, k, w, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use durable_topk_index::AppendableTopKIndex;
    use durable_topk_temporal::LinearScorer;

    #[test]
    fn oracles_agree_and_count() {
        let ds = Dataset::from_rows(2, [[1.0, 0.0], [3.0, 1.0], [2.0, 5.0], [0.0, 0.0]]);
        let scorer = LinearScorer::new(vec![1.0, 1.0]);
        let seg = SkylineSegTree::build(&ds);
        let forest = AppendableTopKIndex::build(&ds, 2);
        let scan = ScanOracle::new();
        let w = Window::new(0, 3);
        let expected = scan.top_k(&ds, &scorer, 2, w);
        assert_eq!(TopKOracle::top_k(&seg, &ds, &scorer, 2, w), expected);
        assert_eq!(forest.top_k(&ds, &scorer, 2, w), expected);
        let counts =
            || (seg.counters().queries(), forest.counters().queries(), scan.queries_issued());
        assert_eq!(counts(), (1, 1, 1));
        seg.counters().reset();
        forest.counters().reset();
        scan.reset_counters();
        assert_eq!(counts(), (0, 0, 0));
    }

    #[test]
    fn scratch_reuse_matches_fresh_buffers() {
        let ds = Dataset::from_rows(1, (0..64).map(|i| [((i * 23) % 17) as f64]));
        let seg = SkylineSegTree::build(&ds);
        let scorer = LinearScorer::new(vec![1.0]);
        let mut scratch = OracleScratch::new();
        let mut out = TopKResult::empty();
        for k in 1..5 {
            for (a, b) in [(0u32, 63u32), (10, 40), (5, 5), (60, 63)] {
                seg.top_k_into(&ds, &scorer, k, Window::new(a, b), &mut scratch, &mut out);
                assert_eq!(out, seg.top_k(&ds, &scorer, k, Window::new(a, b)), "k={k} w={a}:{b}");
            }
        }
    }
}
