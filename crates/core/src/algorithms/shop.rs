//! S-Hop: the score-prioritized hop algorithm (Section IV-C, Algorithm 3,
//! with the paper's footnote-5 top-1 refill).
//!
//! Finds durable records in descending score order *without* sorting the
//! whole interval: the query interval is partitioned into τ-length
//! subintervals, each holding a candidate set `M_j`; a max-heap over the
//! exposed heads yields the globally next-highest unvisited record. A popped
//! record `p` that lies in `k` blocking intervals is skipped (an *auxiliary*
//! record — the hop in score space); otherwise one durability check decides
//! membership, recruiting `π≤k` as blockers on failure, and `M_j` is split
//! around `p.t`. Every popped record leaves a blocking interval behind.
//!
//! Every set starts as a top-1 set (footnote 5): a single top-1 search per
//! fresh subinterval, instead of Algorithm 3's top-k. A blocked pop that
//! reaches the end of a top-1 set upgrades it once to the full top-k list,
//! because Lemma 6 drops a subinterval only after its top k records have
//! all been popped. The candidates and the global pop order are Algorithm
//! 3's; only the refill probes differ. The refill searches a query issues
//! are bounded by
//!
//! * `⌈|I|/τ⌉` initial top-1 refills, one per subinterval;
//! * at most 2 top-1 refills per unblocked pop, one per non-empty half;
//! * at most 1 top-k upgrade per subinterval ever created,
//!
//! so at most `2·(⌈|I|/τ⌉ + 2u)` for `u` unblocked pops (one durability
//! check each). `u` is Algorithm 3's, so Lemma 3's `O(|S| + k⌈|I|/τ⌉)`
//! bound on its searches carries over with a constant factor.
//!
//! All working state — the subinterval arena, the exposure heap, and the
//! `M_j` item vectors (recycled through a pool) — lives in the
//! [`QueryContext`], so repeated queries allocate nothing on this path.

use crate::context::QueryContext;
use crate::oracle::{Rows, TopKOracle};
use crate::query::{DurableQuery, QueryResult, QueryStats};
use durable_topk_index::{OracleScorer, OrdF64};
use durable_topk_temporal::{RecordId, Time, Window};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An exposure-heap entry: (score, younger-id-last for determinism, arena
/// index of the owning subinterval set).
type HeapEntry = (OrdF64, Reverse<RecordId>, usize);

/// A per-subinterval candidate set `M_j`.
#[derive(Debug)]
pub(crate) struct MSet {
    lo: Time,
    hi: Time,
    items: Vec<(RecordId, f64)>,
    /// Items popped so far. A set still at 0 holds its top-1 list; its
    /// first blocked pop upgrades it to the full top-k list.
    cursor: usize,
}

/// S-Hop's reusable working set, owned by [`QueryContext`].
#[derive(Debug, Default)]
pub(crate) struct ShopScratch {
    arena: Vec<MSet>,
    heap: BinaryHeap<HeapEntry>,
    /// Recycled `M_j` item vectors.
    pool: Vec<Vec<(RecordId, f64)>>,
}

impl ShopScratch {
    /// Empties arena and heap, recycling every item vector into the pool.
    fn begin(&mut self) {
        for mut m in self.arena.drain(..) {
            m.items.clear();
            self.pool.push(m.items);
        }
        self.heap.clear();
    }
}

/// Refills subinterval `w` with its top-1 set and exposes its head, if any.
fn refill<O: TopKOracle + ?Sized, S: OracleScorer + ?Sized>(
    ds: &O::Rows,
    oracle: &O,
    scorer: &S,
    w: Window,
    ctx: &mut QueryContext,
    stats: &mut QueryStats,
) {
    stats.refill_queries += 1;
    oracle.top_k_into(ds, scorer, 1, w, &mut ctx.oracle, &mut ctx.refill);
    let Some(&(id, score)) = ctx.refill.items.first() else { return };
    let shop = &mut ctx.shop;
    let items = std::mem::replace(&mut ctx.refill.items, shop.pool.pop().unwrap_or_default());
    shop.heap.push((OrdF64(score), Reverse(id), shop.arena.len()));
    shop.arena.push(MSet { lo: w.start(), hi: w.end(), items, cursor: 0 });
}

/// Runs S-Hop. See the module docs.
///
/// # Panics
/// Panics on invalid query parameters (see [`DurableQuery::validate`]).
pub fn s_hop<O: TopKOracle + ?Sized, S: OracleScorer + ?Sized>(
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
    ctx.shop.begin();

    for chunk in interval.chunks(tau) {
        refill(ds, oracle, scorer, chunk, ctx, &mut stats);
    }

    ctx.blocking.reset(ds.len(), tau);
    ctx.has_interval.reset(ds.len());
    ctx.processed.reset(ds.len());

    while let Some((OrdF64(score), Reverse(id), j)) = ctx.shop.heap.pop() {
        stats.candidates += 1;
        // A record can resurface after a split re-queries part of its old
        // subinterval (paper footnote 7); its blocking interval is already
        // placed, so treat it like a blocked pop.
        let already = ctx.processed.contains(id);
        let blocked = already || ctx.blocking.coverage_above(id, score) >= k;
        ctx.processed.insert(id);

        if !blocked {
            stats.durability_checks += 1;
            let w = Window::lookback(id, tau);
            if oracle.durable_into(ds, scorer, k, w, score, &mut ctx.oracle, &mut ctx.pi) {
                ctx.answers.push(id);
            } else {
                for &(q, qs) in &ctx.pi.items {
                    if ctx.has_interval.insert(q) {
                        ctx.blocking.insert(q, qs);
                    }
                }
            }
            // Split M_j around id and expose the halves (the paper's text
            // applies the split to every unblocked pop).
            let (lo, hi) = (ctx.shop.arena[j].lo, ctx.shop.arena[j].hi);
            if lo < id {
                refill(ds, oracle, scorer, Window::new(lo, id - 1), ctx, &mut stats);
            }
            if id < hi {
                refill(ds, oracle, scorer, Window::new(id + 1, hi), ctx, &mut stats);
            }
        } else {
            if !already {
                stats.blocked_skips += 1;
            }
            // Blocked (auxiliary) pop: expose M_j's next-best record. The
            // set's first blocked pop upgrades its top-1 list to the full
            // top-k list (with k = 1 it already is); the deterministic
            // (score desc, id asc) order makes the upgraded list begin with
            // the popped head, so the cursor carries over. Once the full
            // list is exhausted the subinterval is dropped — at that point
            // at least k blocked records left blocking intervals over it
            // (Lemma 6).
            let m = &mut ctx.shop.arena[j];
            if m.cursor == 0 && k > 1 {
                stats.refill_queries += 1;
                let w = Window::new(m.lo, m.hi);
                oracle.top_k_into(ds, scorer, k, w, &mut ctx.oracle, &mut ctx.refill);
                std::mem::swap(&mut m.items, &mut ctx.refill.items);
            }
            m.cursor += 1;
            if let Some(&(nid, ns)) = m.items.get(m.cursor) {
                ctx.shop.heap.push((OrdF64(ns), Reverse(nid), j));
            }
        }

        if ctx.has_interval.insert(id) {
            ctx.blocking.insert(id, score);
        }
    }

    ctx.shop.begin();
    QueryResult::new(ctx.take_answers(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ScanOracle;
    use durable_topk_temporal::{Dataset, SingleAttributeScorer};

    /// Brute force agrees with S-Hop on tie-heavy data, the refill count
    /// stays within the module's bound, and the top-k upgrade of an
    /// exhausted top-1 set runs: some query issues more refills than its
    /// initial and split refills can account for.
    #[test]
    fn top1_refill_agrees_with_brute_force_on_ties() {
        use crate::engine::tests::brute_durable;
        use durable_topk_temporal::Anchor;
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(61);
        let mut ctx = QueryContext::new();
        let mut upgraded = 0;
        for _ in 0..60 {
            let n = rng.random_range(10..300);
            let rows: Vec<[f64; 1]> = (0..n).map(|_| [rng.random_range(0..6) as f64]).collect();
            let ds = Dataset::from_rows(1, rows);
            let scorer = SingleAttributeScorer::new(0);
            let lo = rng.random_range(0..n as u32);
            let q = DurableQuery {
                k: rng.random_range(1..6),
                tau: rng.random_range(1..n as u32 + 1),
                interval: Window::new(lo, rng.random_range(lo..n as u32)),
            };
            let r = s_hop(&ds, &ScanOracle::new(), &scorer, &q, &mut ctx);
            assert_eq!(r.records, brute_durable(&ds, &scorer, &q, Anchor::LookBack), "q={q:?}");
            let subintervals = q.interval.chunks(q.tau).len() as u64;
            let unupgraded = subintervals + 2 * r.stats.durability_checks;
            assert!(r.stats.refill_queries <= 2 * unupgraded, "q={q:?} {:?}", r.stats);
            upgraded += usize::from(r.stats.refill_queries > unupgraded);
        }
        assert!(upgraded > 0, "no query upgraded a top-1 set");
    }

    #[test]
    fn blocking_prunes_on_skewed_data() {
        // A few giants early in each chunk block the rest: S-Hop's
        // durability checks should be close to |S| + k per chunk, far below
        // the chunk populations.
        let rows: Vec<[f64; 1]> = (0..400)
            .map(|i| if i % 100 == 0 { [1000.0 + i as f64] } else { [(i % 7) as f64] })
            .collect();
        let ds = Dataset::from_rows(1, rows);
        let oracle = ScanOracle::new();
        let scorer = SingleAttributeScorer::new(0);
        let q = DurableQuery { k: 2, tau: 100, interval: Window::new(0, 399) };
        let r = s_hop(&ds, &oracle, &scorer, &q, &mut QueryContext::new());
        assert!(
            r.stats.durability_checks <= (r.records.len() + 4 * 2 + 4) as u64,
            "checks {} vs |S|={}",
            r.stats.durability_checks,
            r.records.len()
        );
    }

    #[test]
    fn every_pop_is_counted_once_as_candidate() {
        let ds = Dataset::from_rows(1, (0..60).map(|i| [((i * 17) % 13) as f64]));
        let oracle = ScanOracle::new();
        let scorer = SingleAttributeScorer::new(0);
        let q = DurableQuery { k: 2, tau: 15, interval: Window::new(0, 59) };
        let r = s_hop(&ds, &oracle, &scorer, &q, &mut QueryContext::new());
        // candidates = total pops >= durability checks + blocked skips.
        assert!(r.stats.candidates >= r.stats.durability_checks + r.stats.blocked_skips);
    }

    #[test]
    fn single_chunk_when_tau_exceeds_interval() {
        let ds = Dataset::from_rows(1, (0..40).map(|i| [((i * 3) % 11) as f64]));
        let oracle = ScanOracle::new();
        let scorer = SingleAttributeScorer::new(0);
        let q = DurableQuery { k: 1, tau: 500, interval: Window::new(10, 39) };
        let mut ctx = QueryContext::new();
        let r = s_hop(&ds, &oracle, &scorer, &q, &mut ctx);
        let reference = crate::algorithms::t_base(&ds, &oracle, &scorer, &q, &mut ctx);
        assert_eq!(r.records, reference.records);
    }

    #[test]
    fn item_vectors_are_recycled_through_the_pool() {
        let ds = Dataset::from_rows(1, (0..200).map(|i| [((i * 31) % 23) as f64]));
        let oracle = ScanOracle::new();
        let scorer = SingleAttributeScorer::new(0);
        let q = DurableQuery { k: 2, tau: 20, interval: Window::new(0, 199) };
        let mut ctx = QueryContext::new();
        let first = s_hop(&ds, &oracle, &scorer, &q, &mut ctx);
        assert!(!ctx.shop.pool.is_empty(), "finished query returns vectors to the pool");
        assert!(ctx.shop.arena.is_empty() && ctx.shop.heap.is_empty(), "scratch left clean");
        let pooled = ctx.shop.pool.len();
        let second = s_hop(&ds, &oracle, &scorer, &q, &mut ctx);
        assert_eq!(first.records, second.records);
        assert_eq!(ctx.shop.pool.len(), pooled, "steady state: no new vectors created");
    }
}
