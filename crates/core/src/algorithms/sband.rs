//! S-Band: score-prioritized search over durable k-skyband candidates
//! (Section IV-B, Algorithm 2). Monotone scoring functions only.
//!
//! The durable k-skyband index yields a candidate superset `C ⊇ S` with one
//! range query; the candidates are then sorted by descending score
//! and verified with the blocking mechanism plus durability checks. Unlike
//! S-Base, a blocking count below `k` does **not** prove durability —
//! higher-scoring records outside `C` may never have been visited — so each
//! unblocked candidate still pays one top-k query, whose `π≤k` members are
//! recruited as additional blockers (lines 10–11 of Algorithm 2, the
//! "missing records" of Fig. 5).

use crate::context::QueryContext;
use crate::oracle::{Rows, TopKOracle};
use crate::query::{DurableQuery, FallbackReason, QueryResult, QueryStats};
use durable_topk_index::{OracleScorer, SkybandCandidates};
use durable_topk_temporal::Window;

/// Classifies why an S-Band request cannot be served natively by the given
/// candidate source, or `None` when it can. One derivation shared by every
/// dispatch site (sealed engine, head forest), so the same request can
/// never be classified differently depending on which substrate serves it.
pub(crate) fn sband_fallback_reason<C, S>(
    index: Option<&C>,
    scorer: &S,
    k: usize,
) -> Option<FallbackReason>
where
    C: SkybandCandidates + ?Sized,
    S: OracleScorer + ?Sized,
{
    match index {
        None => Some(FallbackReason::MissingSkybandIndex),
        Some(_) if !scorer.is_monotone() => Some(FallbackReason::NonMonotoneScorer),
        Some(idx) if k > idx.max_k() => Some(FallbackReason::SkybandBoundExceeded),
        Some(_) => None,
    }
}

/// Runs S-Band. See the module docs.
///
/// Generic over the candidate source: the static
/// [`DurableSkybandIndex`](durable_topk_index::DurableSkybandIndex) of a
/// sealed shard, or the
/// [`IncrementalSkybandIndex`](durable_topk_index::IncrementalSkybandIndex)
/// of a still-growing head shard's forest.
///
/// # Panics
/// Panics on invalid query parameters, if the scorer is not monotone (the
/// k-skyband pruning argument requires monotonicity), or if `query.k`
/// exceeds the index's largest level. The engine
/// ([`ShardedEngine::query`](crate::ShardedEngine::query)) degrades to
/// S-Hop instead of panicking on the latter two.
pub fn s_band<O: TopKOracle + ?Sized, C: SkybandCandidates + ?Sized, S: OracleScorer + ?Sized>(
    ds: &O::Rows,
    oracle: &O,
    index: &C,
    scorer: &S,
    query: &DurableQuery,
    ctx: &mut QueryContext,
) -> QueryResult {
    assert!(
        scorer.is_monotone(),
        "S-Band requires a monotone scoring function (use T-Hop or S-Hop instead)"
    );
    let interval = query.validate(ds.len());
    let (k, tau) = (query.k, query.tau);
    let mut stats = QueryStats::default();
    ctx.answers.clear();

    let scored = &mut ctx.scored;
    scored.clear();
    index.for_each_candidate(interval, tau, k, &mut |id| {
        scored.push((id, scorer.score(ds.row(id))));
    });
    stats.candidates = scored.len() as u64;
    scored.sort_unstable_by(|a, b| {
        // lint: allow(expect) — documented scorer contract: scores are
        // total-ordered (no NaN); see OracleScorer.
        b.1.partial_cmp(&a.1).expect("scores must not be NaN").then(a.0.cmp(&b.0))
    });

    ctx.blocking.reset(ds.len(), tau);
    ctx.has_interval.reset(ds.len());

    for i in 0..ctx.scored.len() {
        let (id, score) = ctx.scored[i];
        if ctx.blocking.coverage_above(id, score) < k {
            stats.durability_checks += 1;
            let w = Window::lookback(id, tau);
            if oracle.durable_into(ds, scorer, k, w, score, &mut ctx.oracle, &mut ctx.pi) {
                ctx.answers.push(id);
            } else {
                // Recruit the strictly better records as blockers; they were
                // not in C (or not yet visited) but shadow lower-scored
                // candidates.
                for &(q, qs) in &ctx.pi.items {
                    if ctx.has_interval.insert(q) {
                        ctx.blocking.insert(q, qs);
                    }
                }
            }
        } else {
            stats.blocked_skips += 1;
        }
        if ctx.has_interval.insert(id) {
            ctx.blocking.insert(id, score);
        }
    }

    QueryResult::new(ctx.take_answers(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ScanOracle;
    use durable_topk_index::DurableSkybandIndex;
    use durable_topk_temporal::{Dataset, LinearScorer};

    fn setup(n: usize) -> (Dataset, ScanOracle, DurableSkybandIndex) {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(8);
        let rows: Vec<[f64; 2]> = (0..n)
            .map(|_| [rng.random_range(0..25) as f64, rng.random_range(0..25) as f64])
            .collect();
        let ds = Dataset::from_rows(2, rows);
        let idx = DurableSkybandIndex::build(&ds, 8);
        (ds, ScanOracle::new(), idx)
    }

    #[test]
    fn candidate_count_appears_in_stats() {
        let (ds, oracle, idx) = setup(300);
        let scorer = LinearScorer::new(vec![0.5, 0.5]);
        let q = DurableQuery { k: 4, tau: 40, interval: Window::new(60, 299) };
        let r = s_band(&ds, &oracle, &idx, &scorer, &q, &mut QueryContext::new());
        let direct = idx.candidates(q.interval, q.tau, q.k).0.len();
        assert_eq!(r.stats.candidates as usize, direct);
        assert!(r.records.len() <= direct, "S ⊆ C");
    }

    #[test]
    fn blocked_candidates_skip_durability_checks() {
        let (ds, oracle, idx) = setup(400);
        let scorer = LinearScorer::new(vec![0.9, 0.1]);
        let q = DurableQuery { k: 2, tau: 60, interval: Window::new(100, 399) };
        let r = s_band(&ds, &oracle, &idx, &scorer, &q, &mut QueryContext::new());
        assert_eq!(
            r.stats.durability_checks + r.stats.blocked_skips,
            r.stats.candidates,
            "every candidate is either checked or blocked"
        );
        assert!(r.stats.blocked_skips > 0, "blocking must prune something here");
    }

    #[test]
    fn recruited_blockers_improve_pruning() {
        // The Fig. 5 scenario: records outside C (non-durable but
        // high-scoring) must still block lower candidates once discovered
        // by a failed durability check. We verify indirectly: the number of
        // durability checks is at most |C|, and results stay exact.
        let (ds, oracle, idx) = setup(500);
        let scorer = LinearScorer::new(vec![0.3, 0.7]);
        let q = DurableQuery { k: 3, tau: 100, interval: Window::new(150, 499) };
        let mut ctx = QueryContext::new();
        let r = s_band(&ds, &oracle, &idx, &scorer, &q, &mut ctx);
        assert!(r.stats.durability_checks <= r.stats.candidates);
        // Exactness versus T-Hop, sharing the same context.
        let reference = crate::algorithms::t_hop(&ds, &oracle, &scorer, &q, &mut ctx);
        assert_eq!(r.records, reference.records);
    }
}
