//! S-Hop: the score-prioritized hop algorithm (Section IV-C, Algorithm 3).
//!
//! Finds durable records in descending score order *without* sorting the
//! whole interval: the query interval is partitioned into τ-length
//! subintervals, each contributing its top-k set `M_j`; a max-heap over the
//! exposed heads yields the globally next-highest unvisited record. A popped
//! record `p` that lies in `k` blocking intervals is skipped (an *auxiliary*
//! record — the hop in score space); otherwise one durability check decides
//! membership, recruiting `π≤k` as blockers on failure, and `M_j` is split
//! around `p.t` with two fresh top-k queries. Every popped record leaves a
//! blocking interval behind.
//!
//! Lemma 3 bounds the top-k queries by `O(|S| + k⌈|I|/τ⌉)` — the same bound
//! as T-Hop, but in practice S-Hop issues fewer durability checks because
//! blocking prunes candidates before they are ever checked.
//!
//! All working state — the subinterval arena, the exposure heap, and the
//! `M_j` item vectors (recycled through a pool) — lives in the
//! [`QueryContext`], so repeated queries allocate nothing on this path.

use crate::context::QueryContext;
use crate::oracle::{Rows, TopKOracle};
use crate::query::{DurableQuery, QueryResult, QueryStats};
use durable_topk_index::OracleScorer;
use durable_topk_temporal::{RecordId, Time, Window};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How S-Hop refills its per-subinterval candidate sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefillMode {
    /// Algorithm 3 as written: full top-k sets per subinterval; a blocked
    /// pop advances the set's cursor.
    #[default]
    TopK,
    /// The paper's footnote-5 practical variant: top-1 sets; every pop
    /// splits the subinterval. Cheaper per refill on most datasets.
    Top1,
}

/// Total-order wrapper so scores can key the max-heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OrdF64(f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// An exposure-heap entry: (score, younger-id-last for determinism, arena
/// index of the owning subinterval set).
type HeapEntry = (OrdF64, Reverse<RecordId>, usize);

/// A per-subinterval candidate set `M_j`.
#[derive(Debug)]
pub(crate) struct MSet {
    lo: Time,
    hi: Time,
    items: Vec<(RecordId, f64)>,
    cursor: usize,
    /// Whether `items` came from a full top-k query (vs a top-1 refill).
    full: bool,
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

    /// Takes a cleared vector from the pool (or a fresh one on cold start).
    fn take_vec(&mut self) -> Vec<(RecordId, f64)> {
        self.pool.pop().unwrap_or_default()
    }
}

/// Adds `m` to the arena and exposes its head on the heap (if any).
fn expose(
    arena: &mut Vec<MSet>,
    heap: &mut BinaryHeap<HeapEntry>,
    m: MSet,
    pool: &mut Vec<Vec<(RecordId, f64)>>,
) {
    if m.cursor < m.items.len() {
        let (id, s) = m.items[m.cursor];
        let j = arena.len();
        arena.push(m);
        heap.push((OrdF64(s), Reverse(id), j));
    } else {
        let mut items = m.items;
        items.clear();
        pool.push(items);
    }
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
    refill: RefillMode,
    ctx: &mut QueryContext,
) -> QueryResult {
    let interval = query.validate(ds.len());
    let (k, tau) = (query.k, query.tau);
    let refill_k = match refill {
        RefillMode::TopK => k,
        RefillMode::Top1 => 1,
    };
    let mut stats = QueryStats::default();
    ctx.answers.clear();
    ctx.shop.begin();

    for chunk in interval.chunks(tau) {
        stats.refill_queries += 1;
        oracle.top_k_into(ds, scorer, refill_k, chunk, &mut ctx.oracle, &mut ctx.refill);
        let mut items = ctx.shop.take_vec();
        std::mem::swap(&mut items, &mut ctx.refill.items);
        expose(
            &mut ctx.shop.arena,
            &mut ctx.shop.heap,
            MSet {
                lo: chunk.start(),
                hi: chunk.end(),
                items,
                cursor: 0,
                full: refill == RefillMode::TopK,
            },
            &mut ctx.shop.pool,
        );
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
                stats.refill_queries += 1;
                oracle.top_k_into(
                    ds,
                    scorer,
                    refill_k,
                    Window::new(lo, id - 1),
                    &mut ctx.oracle,
                    &mut ctx.refill,
                );
                let mut items = ctx.shop.take_vec();
                std::mem::swap(&mut items, &mut ctx.refill.items);
                expose(
                    &mut ctx.shop.arena,
                    &mut ctx.shop.heap,
                    MSet { lo, hi: id - 1, items, cursor: 0, full: refill == RefillMode::TopK },
                    &mut ctx.shop.pool,
                );
            }
            if id < hi {
                stats.refill_queries += 1;
                oracle.top_k_into(
                    ds,
                    scorer,
                    refill_k,
                    Window::new(id + 1, hi),
                    &mut ctx.oracle,
                    &mut ctx.refill,
                );
                let mut items = ctx.shop.take_vec();
                std::mem::swap(&mut items, &mut ctx.refill.items);
                expose(
                    &mut ctx.shop.arena,
                    &mut ctx.shop.heap,
                    MSet { lo: id + 1, hi, items, cursor: 0, full: refill == RefillMode::TopK },
                    &mut ctx.shop.pool,
                );
            }
        } else {
            if !already {
                stats.blocked_skips += 1;
            }
            // Blocked (auxiliary) pop: expose M_j's next-best record. A
            // top-1 set is first upgraded to the full top-k list; the
            // deterministic (score desc, id asc) order makes the upgraded
            // list a superset that begins with the already-popped prefix, so
            // the cursor carries over. Once the full list is exhausted the
            // subinterval is dropped — at that point at least k blocked
            // records left blocking intervals over it (Lemma 6).
            let needs_upgrade = {
                let m = &ctx.shop.arena[j];
                !m.full && m.cursor + 1 >= m.items.len()
            };
            if needs_upgrade {
                stats.refill_queries += 1;
                let (lo, hi) = (ctx.shop.arena[j].lo, ctx.shop.arena[j].hi);
                oracle.top_k_into(
                    ds,
                    scorer,
                    k,
                    Window::new(lo, hi),
                    &mut ctx.oracle,
                    &mut ctx.refill,
                );
                let m = &mut ctx.shop.arena[j];
                let popped = m.cursor + 1;
                std::mem::swap(&mut m.items, &mut ctx.refill.items);
                m.cursor = popped - 1;
                m.full = true;
            }
            let m = &mut ctx.shop.arena[j];
            m.cursor += 1;
            if m.cursor < m.items.len() {
                let (nid, ns) = m.items[m.cursor];
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

    #[test]
    fn refill_modes_agree_on_answers() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(61);
        let mut ctx = QueryContext::new();
        for _ in 0..10 {
            let n = rng.random_range(10..300);
            let rows: Vec<[f64; 1]> = (0..n).map(|_| [rng.random_range(0..12) as f64]).collect();
            let ds = Dataset::from_rows(1, rows);
            let oracle = ScanOracle::new();
            let scorer = SingleAttributeScorer::new(0);
            let q = DurableQuery {
                k: rng.random_range(1..5),
                tau: rng.random_range(1..n as u32 + 1),
                interval: Window::new(0, (n - 1) as u32),
            };
            let a = s_hop(&ds, &oracle, &scorer, &q, RefillMode::TopK, &mut ctx);
            let b = s_hop(&ds, &oracle, &scorer, &q, RefillMode::Top1, &mut ctx);
            assert_eq!(a.records, b.records, "q={q:?}");
        }
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
        let r = s_hop(&ds, &oracle, &scorer, &q, RefillMode::TopK, &mut QueryContext::new());
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
        let r = s_hop(&ds, &oracle, &scorer, &q, RefillMode::TopK, &mut QueryContext::new());
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
        let r = s_hop(&ds, &oracle, &scorer, &q, RefillMode::TopK, &mut ctx);
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
        let first = s_hop(&ds, &oracle, &scorer, &q, RefillMode::TopK, &mut ctx);
        assert!(!ctx.shop.pool.is_empty(), "finished query returns vectors to the pool");
        assert!(ctx.shop.arena.is_empty() && ctx.shop.heap.is_empty(), "scratch left clean");
        let pooled = ctx.shop.pool.len();
        let second = s_hop(&ds, &oracle, &scorer, &q, RefillMode::TopK, &mut ctx);
        assert_eq!(first.records, second.records);
        assert_eq!(ctx.shop.pool.len(), pooled, "steady state: no new vectors created");
    }
}
