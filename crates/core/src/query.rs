//! Query parameters, results and instrumentation.

use crate::error::QueryError;
use durable_topk_temporal::{RecordId, Time, Window};
use std::time::Duration;

/// Parameters of a durable top-k query `DurTop(k, I, τ)`.
///
/// All three are query-time parameters, together with the scoring function's
/// preference vector — none is baked into any index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableQuery {
    /// Rank threshold: a record must be within the top-k of its durability
    /// window.
    pub k: usize,
    /// Durability window length τ (in discrete arrival instants).
    pub tau: Time,
    /// Query interval `I`: only records arriving in `I` are reported.
    pub interval: Window,
}

impl DurableQuery {
    /// Checks the parameters against a dataset of `n` records, returning
    /// the interval clamped to the dataset — the serving-safe counterpart
    /// of [`validate`](DurableQuery::validate).
    pub fn check(&self, n: usize) -> Result<Window, QueryError> {
        if self.k == 0 {
            return Err(QueryError::ZeroK);
        }
        if self.tau == 0 {
            return Err(QueryError::ZeroTau);
        }
        if n == 0 {
            return Err(QueryError::EmptyDataset);
        }
        if (self.interval.start() as usize) >= n {
            return Err(QueryError::IntervalOutOfRange {
                start: self.interval.start(),
                last: (n - 1) as Time,
            });
        }
        Ok(self.interval.clamp_to(n))
    }

    /// Validates the parameters against a dataset of `n` records.
    ///
    /// # Panics
    /// Panics if `k == 0`, `tau == 0`, or the interval lies outside the
    /// dataset. Fallible callers (the serving layer) use
    /// [`check`](DurableQuery::check) instead.
    // Documented-panic wrapper over check().
    #[allow(clippy::panic)]
    pub fn validate(&self, n: usize) -> Window {
        self.check(n).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Why an engine substituted a different execution for the requested one.
///
/// Splitting the old boolean flag into reasons separates *expected*
/// degradations (a non-monotone scorer cannot use skyband pruning; `k`
/// exceeds the skyband build bound) from the one that signals a missing
/// capability — an S-Band request finding no skyband index at all, which
/// a regression gate should fail on. Every reason is an S-Band → S-Hop
/// substitution; no `τ` is one — S-Band's candidates stay a superset for
/// any `τ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// S-Band was requested but the serving substrate carries no durable
    /// k-skyband index. This is the "index went missing" signal CI gates
    /// on: a correctly configured engine never reports it.
    MissingSkybandIndex,
    /// S-Band was requested with `k` above the skyband build bound; the
    /// candidate superset guarantee no longer holds, so S-Hop serves the
    /// query. Expected when clients exceed the configured bound.
    SkybandBoundExceeded,
    /// S-Band's k-skyband pruning argument requires a monotone scoring
    /// function; S-Hop (which does not) serves non-monotone scorers.
    NonMonotoneScorer,
}

impl FallbackReason {
    /// Whether the degradation is an expected consequence of the request
    /// (as opposed to a missing index, which a gate should fail on).
    pub fn is_expected(&self) -> bool {
        !matches!(self, FallbackReason::MissingSkybandIndex)
    }
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FallbackReason::MissingSkybandIndex => "no skyband index; S-Hop served the query",
            FallbackReason::SkybandBoundExceeded => {
                "k exceeds the skyband build bound; S-Hop served the query"
            }
            FallbackReason::NonMonotoneScorer => "non-monotone scorer; S-Hop served the query",
        })
    }
}

/// Instrumentation of one query execution — the quantities the paper's
/// figures report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Top-k queries issued for durability checks.
    pub durability_checks: u64,
    /// Top-k queries issued to find the next highest-score record (S-Hop's
    /// shaded bars in Fig. 8) or the initial window (T-Base).
    pub refill_queries: u64,
    /// Candidate records considered (|C| for S-Band, sorted records for
    /// S-Base, visited records otherwise).
    pub candidates: u64,
    /// Candidates skipped purely by the blocking mechanism.
    pub blocked_skips: u64,
    /// Physical page reads performed to fault spilled record chunks back
    /// in (always `0` without a pager; with one, see
    /// [`PagedStorage`](crate::PagedStorage), it counts the cold-tier cost
    /// the query actually paid).
    pub cold_page_hits: u64,
    /// Per-shard probes answered from the sealed-shard result cache
    /// (each one skipped its `storage.fetch` and its algorithm run
    /// entirely). Always `0` without a cache configured — see
    /// [`EngineConfig::result_cache`](crate::EngineConfig::result_cache).
    pub cache_hits: u64,
    /// Cacheable per-shard probes that ran because no memoized answer
    /// existed yet (uncacheable probes — boundary pieces, unfingerprintable
    /// scorers, the head shard — count as neither hit nor miss).
    pub cache_misses: u64,
    /// Set when the engine substituted a different execution for the
    /// requested one, carrying why (see [`FallbackReason`]); `None` means
    /// the requested algorithm served the query natively.
    pub fallback: Option<FallbackReason>,
}

impl QueryStats {
    /// Total top-k building-block invocations.
    pub fn topk_queries(&self) -> u64 {
        self.durability_checks + self.refill_queries
    }

    /// Whether any substitution happened (the old boolean view).
    pub fn is_fallback(&self) -> bool {
        self.fallback.is_some()
    }

    /// Accumulates another execution's counters into this one (used when
    /// merging per-shard results). When shards report different fallback
    /// reasons, the gate-worthy one (a missing index) wins over expected
    /// degradations so a merged answer can never mask it.
    pub fn absorb(&mut self, other: &QueryStats) {
        self.durability_checks += other.durability_checks;
        self.refill_queries += other.refill_queries;
        self.candidates += other.candidates;
        self.blocked_skips += other.blocked_skips;
        self.cold_page_hits += other.cold_page_hits;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.fallback = match (self.fallback, other.fallback) {
            (Some(mine), Some(theirs)) if mine.is_expected() && !theirs.is_expected() => {
                Some(theirs)
            }
            (mine, theirs) => mine.or(theirs),
        };
    }
}

/// The `p`-th percentile (`0.0..=1.0`) of an ascending latency list by the
/// nearest-rank rule — the smallest sample with at least `p·n` samples at
/// or below it; zero for an empty list. The one rank rule every summary
/// line in the workspace (CLI, coordinator) reports with, so a
/// cluster p50 and its per-node p50s are comparable.
pub fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The answer to a durable top-k query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// τ-durable records arriving in `I`, in increasing arrival order.
    pub records: Vec<RecordId>,
    /// Execution instrumentation.
    pub stats: QueryStats,
}

impl QueryResult {
    pub(crate) fn new(mut records: Vec<RecordId>, stats: QueryStats) -> Self {
        records.sort_unstable();
        records.dedup();
        Self { records, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_clamps_interval() {
        let q = DurableQuery { k: 1, tau: 5, interval: Window::new(2, 100) };
        assert_eq!(q.validate(10), Window::new(2, 9));
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn validate_rejects_zero_k() {
        DurableQuery { k: 0, tau: 1, interval: Window::new(0, 1) }.validate(5);
    }

    #[test]
    #[should_panic(expected = "tau must be positive")]
    fn validate_rejects_zero_tau() {
        DurableQuery { k: 1, tau: 0, interval: Window::new(0, 1) }.validate(5);
    }

    #[test]
    #[should_panic(expected = "starts past")]
    fn validate_rejects_out_of_range_interval() {
        DurableQuery { k: 1, tau: 1, interval: Window::new(7, 9) }.validate(5);
    }

    #[test]
    fn check_reports_typed_errors_without_panicking() {
        let ok = DurableQuery { k: 1, tau: 5, interval: Window::new(2, 100) };
        assert_eq!(ok.check(10), Ok(Window::new(2, 9)));
        let bad_k = DurableQuery { k: 0, ..ok };
        assert_eq!(bad_k.check(10), Err(QueryError::ZeroK));
        let bad_tau = DurableQuery { tau: 0, ..ok };
        assert_eq!(bad_tau.check(10), Err(QueryError::ZeroTau));
        assert_eq!(ok.check(0), Err(QueryError::EmptyDataset));
        let past = DurableQuery { interval: Window::new(30, 40), ..ok };
        assert_eq!(past.check(10), Err(QueryError::IntervalOutOfRange { start: 30, last: 9 }));
    }

    #[test]
    fn stats_total() {
        let s = QueryStats { durability_checks: 3, refill_queries: 4, ..Default::default() };
        assert_eq!(s.topk_queries(), 7);
    }

    #[test]
    fn absorb_never_masks_a_missing_index_behind_an_expected_reason() {
        // Merge order must not decide whether the gate-worthy reason
        // survives: whichever side carries MissingSkybandIndex wins.
        let missing = QueryStats {
            fallback: Some(FallbackReason::MissingSkybandIndex),
            ..Default::default()
        };
        let expected =
            QueryStats { fallback: Some(FallbackReason::NonMonotoneScorer), ..Default::default() };
        let mut a = expected;
        a.absorb(&missing);
        assert_eq!(a.fallback, Some(FallbackReason::MissingSkybandIndex));
        let mut b = missing;
        b.absorb(&expected);
        assert_eq!(b.fallback, Some(FallbackReason::MissingSkybandIndex));
        // Two expected reasons: the first one set is kept; None absorbs.
        let mut c = expected;
        c.absorb(&QueryStats {
            fallback: Some(FallbackReason::SkybandBoundExceeded),
            ..Default::default()
        });
        assert_eq!(c.fallback, Some(FallbackReason::NonMonotoneScorer));
        let mut d = QueryStats::default();
        d.absorb(&expected);
        assert_eq!(d.fallback, Some(FallbackReason::NonMonotoneScorer));
    }

    #[test]
    fn nearest_rank_on_empty_single_and_even_inputs() {
        let ms = |v: &[u64]| v.iter().map(|&m| Duration::from_millis(m)).collect::<Vec<_>>();
        assert_eq!(percentile(&[], 0.5), Duration::ZERO);
        let one = ms(&[7]);
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&one, p), one[0], "p={p}");
        }
        // Even length: the median is the lower middle sample (rank 5 of
        // 10), where round((n − 1)·p) would pick the upper one.
        let ten = ms(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(percentile(&ten, 0.50), ten[4]);
        assert_eq!(percentile(&ten, 0.90), ten[8]);
        assert_eq!(percentile(&ten, 0.99), ten[9]);
        assert_eq!(percentile(&ten, 0.0), ten[0]);
        assert_eq!(percentile(&ten, 1.0), ten[9]);
    }

    #[test]
    fn result_sorts_records() {
        let r = QueryResult::new(vec![5, 1, 3], QueryStats::default());
        assert_eq!(r.records, vec![1, 3, 5]);
    }
}
