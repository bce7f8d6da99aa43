//! T-Hop: the time-prioritized hop algorithm (Section III-B, Algorithm 1).
//!
//! Visits records backwards along the query interval. For the record at
//! `t_curr` it runs one top-k query over `[t_curr − τ, t_curr]`; if the
//! record is durable the traversal steps back by one, otherwise it *hops*
//! directly to the most recent arrival among the window's `π≤k` — no record
//! strictly between can be durable, because all `k` (or more) members of
//! `π≤k` fall inside that record's own durability window and outscore it.
//!
//! Lemma 1 bounds the number of top-k queries by `O(|S| + k⌈|I|/τ⌉)`.
//!
//! Tie note: the oracle returns `π≤k` *with* ties of the k-th score, so the
//! hop target is the most recent among all records that could render the
//! skipped region non-durable; this keeps the hop sound when scores collide.

use crate::context::QueryContext;
use crate::oracle::{Rows, TopKOracle};
use crate::query::{DurableQuery, QueryResult, QueryStats};
use durable_topk_index::OracleScorer;
use durable_topk_temporal::Window;

/// Runs T-Hop. See the module docs.
///
/// # Panics
/// Panics on invalid query parameters (see [`DurableQuery::validate`]).
pub fn t_hop<O: TopKOracle + ?Sized, S: OracleScorer + ?Sized>(
    ds: &O::Rows,
    oracle: &O,
    scorer: &S,
    query: &DurableQuery,
    ctx: &mut QueryContext,
) -> QueryResult {
    let interval = query.validate(ds.len());
    let (k, tau) = (query.k, query.tau);
    let mut stats = QueryStats::default();
    ctx.answers.clear();

    let mut t = interval.end();
    loop {
        stats.candidates += 1;
        stats.durability_checks += 1;
        let (w, score) = (Window::lookback(t, tau), scorer.score(ds.row(t)));
        if oracle.durable_into(ds, scorer, k, w, score, &mut ctx.oracle, &mut ctx.pi) {
            ctx.answers.push(t);
            if t == interval.start() {
                break;
            }
            t -= 1;
        } else {
            // Hop: the most recent arrival in π≤k. It is strictly earlier
            // than t (t itself is not in π≤k), and every record in between
            // has at least k strictly-better records inside its own window.
            // lint: allow(expect) — a rejecting top-k set cannot be empty.
            let hop = ctx.pi.max_time().expect("non-durable implies non-empty top-k");
            debug_assert!(hop < t);
            if hop < interval.start() {
                break;
            }
            t = hop;
        }
    }

    QueryResult::new(ctx.take_answers(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ScanOracle;
    use durable_topk_temporal::{Dataset, SingleAttributeScorer};

    #[test]
    fn hops_over_shadowed_stretches() {
        // One huge record at t=50 shadows everything for tau after it:
        // T-Hop should check far fewer than |I| records.
        let mut rows: Vec<[f64; 1]> = (0..200).map(|i| [(i % 5) as f64]).collect();
        rows[50] = [1000.0];
        let ds = Dataset::from_rows(1, rows);
        let oracle = ScanOracle::new();
        let scorer = SingleAttributeScorer::new(0);
        let q = DurableQuery { k: 1, tau: 100, interval: Window::new(0, 199) };
        let r = t_hop(&ds, &oracle, &scorer, &q, &mut QueryContext::new());
        assert!(r.records.contains(&50));
        // Lemma 1: checks are O(|S| + k⌈|I|/τ⌉) — concretely at most one
        // type-1 false check per durable record plus O(k) type-2 checks per
        // τ-window — far below |I| = 200.
        let bound = 2 * r.records.len() as u64 + 2 * 2 + 8;
        assert!(
            r.stats.durability_checks <= bound,
            "checks {} vs bound {bound} (|S|={})",
            r.stats.durability_checks,
            r.records.len()
        );
    }

    #[test]
    fn hop_target_before_interval_terminates() {
        // Non-durable at I.start with all top-k members before I: loop must
        // terminate without underflow.
        let mut rows: Vec<[f64; 1]> = vec![[100.0], [99.0], [98.0]];
        rows.extend((0..20).map(|i| [(i % 3) as f64]));
        let ds = Dataset::from_rows(1, rows);
        let oracle = ScanOracle::new();
        let scorer = SingleAttributeScorer::new(0);
        let q = DurableQuery { k: 3, tau: 23, interval: Window::new(3, 22) };
        let r = t_hop(&ds, &oracle, &scorer, &q, &mut QueryContext::new());
        assert!(r.records.is_empty());
        assert!(r.stats.durability_checks <= 5);
    }

    #[test]
    fn tie_at_kth_score_is_durable_and_hop_stays_sound() {
        // Records tying the k-th score are durable (paper: "tying for the
        // top record" counts).
        let ds = Dataset::from_rows(1, [[5.0], [5.0], [3.0], [5.0], [2.0]]);
        let oracle = ScanOracle::new();
        let scorer = SingleAttributeScorer::new(0);
        let q = DurableQuery { k: 1, tau: 4, interval: Window::new(0, 4) };
        let r = t_hop(&ds, &oracle, &scorer, &q, &mut QueryContext::new());
        assert_eq!(r.records, vec![0, 1, 3]);
    }

    #[test]
    fn context_reuse_across_queries_is_clean() {
        // The same context answers consecutive queries with different
        // parameters; answers must match fresh-context runs exactly.
        let ds = Dataset::from_rows(1, (0..120).map(|i| [((i * 13) % 31) as f64]));
        let oracle = ScanOracle::new();
        let scorer = SingleAttributeScorer::new(0);
        let mut ctx = QueryContext::new();
        for (k, tau, lo, hi) in [(1, 5, 0, 119), (3, 40, 20, 90), (2, 200, 0, 50)] {
            let q = DurableQuery { k, tau, interval: Window::new(lo, hi) };
            let reused = t_hop(&ds, &oracle, &scorer, &q, &mut ctx);
            let fresh = t_hop(&ds, &oracle, &scorer, &q, &mut QueryContext::new());
            assert_eq!(reused.records, fresh.records, "q={q:?}");
        }
    }
}
