//! S-Base: the score-prioritized baseline (Section IV-A).
//!
//! Sorts every record of `[I.start − τ, I.end]` by descending score and
//! processes them in order, maintaining blocking intervals. A record is
//! durable exactly when, at its turn, it lies in fewer than `k` blocking
//! intervals from strictly higher-scoring records: the blocking count is a
//! complete durability test here (unlike S-Band/S-Hop, where only a subset
//! of records is processed), because *every* potential blocker is processed
//! before the records it blocks. Consequently S-Base issues **zero** top-k
//! queries — its `O(n log n)` sort is what makes it slow.

use crate::context::QueryContext;
use crate::oracle::Rows;
use crate::query::{DurableQuery, QueryResult, QueryStats};
use durable_topk_temporal::Scorer;

/// Runs S-Base. See the module docs.
///
/// # Panics
/// Panics on invalid query parameters (see [`DurableQuery::validate`]).
pub fn s_base<D: Rows + ?Sized, S: Scorer + ?Sized>(
    ds: &D,
    scorer: &S,
    query: &DurableQuery,
    ctx: &mut QueryContext,
) -> QueryResult {
    let interval = query.validate(ds.len());
    let (k, tau) = (query.k, query.tau);
    let mut stats = QueryStats::default();
    ctx.answers.clear();

    // All records that can either be answers or block answers.
    let lo = interval.start().saturating_sub(tau);
    let hi = interval.end();
    let order = &mut ctx.scored;
    order.clear();
    order.extend((lo..=hi).map(|id| (id, scorer.score(ds.row(id)))));
    // Documented scorer contract: scores are total-ordered (no NaN); see
    // OracleScorer.
    #[allow(clippy::expect_used)]
    order.sort_unstable_by(|a, b| {
        b.1.partial_cmp(&a.1).expect("scores must not be NaN").then(a.0.cmp(&b.0))
    });
    stats.candidates = order.len() as u64;

    ctx.blocking.reset(ds.len(), tau);
    for &(id, score) in ctx.scored.iter() {
        if interval.contains(id) {
            if ctx.blocking.coverage_above(id, score) < k {
                ctx.answers.push(id);
            } else {
                stats.blocked_skips += 1;
            }
        }
        ctx.blocking.insert(id, score);
    }

    QueryResult::new(ctx.take_answers(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use durable_topk_temporal::{Dataset, SingleAttributeScorer, Window};

    fn run(ds: &Dataset, scorer: &SingleAttributeScorer, q: &DurableQuery) -> QueryResult {
        s_base(ds, scorer, q, &mut QueryContext::new())
    }

    #[test]
    fn issues_zero_oracle_queries() {
        let ds = Dataset::from_rows(1, (0..80).map(|i| [((i * 11) % 31) as f64]));
        let scorer = SingleAttributeScorer::new(0);
        let q = DurableQuery { k: 3, tau: 12, interval: Window::new(20, 79) };
        let r = run(&ds, &scorer, &q);
        assert_eq!(r.stats.topk_queries(), 0);
        // Sorts [I.start - tau, I.end] = [8, 79].
        assert_eq!(r.stats.candidates, 72);
    }

    #[test]
    fn pre_interval_records_block_but_are_not_reported() {
        // A giant record just before I blocks the first tau instants of I.
        let mut rows: Vec<[f64; 1]> = (0..40).map(|_| [1.0]).collect();
        rows[9] = [100.0];
        let ds = Dataset::from_rows(1, rows);
        let scorer = SingleAttributeScorer::new(0);
        let q = DurableQuery { k: 1, tau: 10, interval: Window::new(10, 39) };
        let r = run(&ds, &scorer, &q);
        assert!(!r.records.contains(&9), "pre-interval record must not be reported");
        // Records 10..=19 are inside the blocker's interval and all tie at
        // 1.0 (strictly below 100): not durable. 20.. tie-dominate each
        // other only equally, so they are durable.
        assert_eq!(r.records, (20..40).collect::<Vec<u32>>());
    }

    #[test]
    fn equal_scores_do_not_block_each_other() {
        let ds = Dataset::from_rows(1, (0..20).map(|_| [7.0]));
        let scorer = SingleAttributeScorer::new(0);
        let q = DurableQuery { k: 1, tau: 5, interval: Window::new(0, 19) };
        let r = run(&ds, &scorer, &q);
        assert_eq!(r.records.len(), 20, "ties are co-durable");
        assert_eq!(r.stats.blocked_skips, 0);
    }

    #[test]
    fn shared_context_across_different_domains() {
        // Reuse one context across datasets of different sizes: the blocking
        // Fenwick and scored buffer must re-size cleanly.
        let scorer = SingleAttributeScorer::new(0);
        let big = Dataset::from_rows(1, (0..200).map(|i| [((i * 7) % 13) as f64]));
        let small = Dataset::from_rows(1, (0..30).map(|i| [((i * 5) % 11) as f64]));
        let mut ctx = QueryContext::new();
        for ds in [&big, &small, &big] {
            let n = ds.len() as u32;
            let q = DurableQuery { k: 2, tau: 9, interval: Window::new(0, n - 1) };
            let reused = s_base(ds, &scorer, &q, &mut ctx);
            let fresh = s_base(ds, &scorer, &q, &mut QueryContext::new());
            assert_eq!(reused.records, fresh.records);
        }
    }
}
