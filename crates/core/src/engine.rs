//! The paper's offline engine: one dataset, one skyline segment tree, the
//! five algorithms — and the dispatch (`run_algorithm`) every shard of
//! the live engine shares with it.

use crate::algorithms::{s_band, s_base, s_hop, sband_fallback_reason, t_base, t_hop, RefillMode};
use crate::context::QueryContext;
use crate::duration::max_duration;
use crate::oracle::TopKOracle;
use crate::query::{DurableQuery, QueryResult};
use durable_topk_index::{DurableSkybandIndex, OracleScorer, SkybandCandidates, SkylineSegTree};
use durable_topk_temporal::{Anchor, Dataset, RecordId, Time, Window};

/// Which durable top-k algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Time-prioritized baseline (Section III-A).
    TBase,
    /// Time-prioritized hop algorithm (Section III-B).
    THop,
    /// Score-prioritized sorting baseline (Section IV-A).
    SBase,
    /// Durable k-skyband candidates (Section IV-B); monotone scorers only.
    /// Served by the index built with
    /// [`DurableTopKEngine::with_skyband_index`]; without one (or when `k`
    /// exceeds its build bound, or the scorer is not monotone) the engine
    /// falls back to S-Hop and flags
    /// [`QueryStats::fallback`](crate::QueryStats).
    SBand,
    /// Score-prioritized hop algorithm (Section IV-C).
    SHop,
    /// S-Hop with the footnote-5 top-1 refill variant.
    SHopTop1,
}

impl Algorithm {
    /// All algorithm variants (handy for agreement tests and sweeps).
    pub const ALL: [Algorithm; 6] = [
        Algorithm::TBase,
        Algorithm::THop,
        Algorithm::SBase,
        Algorithm::SBand,
        Algorithm::SHop,
        Algorithm::SHopTop1,
    ];

    /// Short display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::TBase => "T-Base",
            Algorithm::THop => "T-Hop",
            Algorithm::SBase => "S-Base",
            Algorithm::SBand => "S-Band",
            Algorithm::SHop => "S-Hop",
            Algorithm::SHopTop1 => "S-Hop/1",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Shared per-substrate dispatch: runs `alg` over one dataset + oracle +
/// optional skyband candidate source, with S-Band's graceful degradation
/// to S-Hop (reason recorded in the stats). Both the offline engine and
/// every arm of the sharded fan-out delegate here, so the same request can
/// never be dispatched differently depending on which substrate serves it.
pub(crate) fn run_algorithm<O, C, S>(
    ds: &O::Rows,
    oracle: &O,
    skyband: Option<&C>,
    alg: Algorithm,
    scorer: &S,
    query: &DurableQuery,
    ctx: &mut QueryContext,
) -> QueryResult
where
    O: TopKOracle + ?Sized,
    C: SkybandCandidates + ?Sized,
    S: OracleScorer + ?Sized,
{
    match alg {
        Algorithm::TBase => t_base(ds, oracle, scorer, query, ctx),
        Algorithm::THop => t_hop(ds, oracle, scorer, query, ctx),
        Algorithm::SBase => s_base(ds, scorer, query, ctx),
        Algorithm::SBand => match sband_fallback_reason(skyband, scorer, query.k) {
            None => {
                // lint: allow(expect) — sband_fallback_reason returned None,
                // which requires the index to be present.
                let idx = skyband.expect("reason checked Some");
                s_band(ds, oracle, idx, scorer, query, ctx)
            }
            Some(reason) => {
                // Graceful degradation: S-Hop answers the same query
                // without the candidate index, and the stats carry why.
                let mut result = s_hop(ds, oracle, scorer, query, RefillMode::TopK, ctx);
                result.stats.fallback = Some(reason);
                result
            }
        },
        Algorithm::SHop => s_hop(ds, oracle, scorer, query, RefillMode::TopK, ctx),
        Algorithm::SHopTop1 => s_hop(ds, oracle, scorer, query, RefillMode::Top1, ctx),
    }
}

/// The paper's offline durable top-k engine over one immutable dataset,
/// and the reference the live engines are tested against.
///
/// Owns the dataset and its skyline segment tree (the top-k oracle), and
/// optionally the durable k-skyband index (for S-Band) and a reversed twin
/// (for look-ahead durability). It answers any `τ`, offers the leaf-size
/// ablation and [`max_duration`](DurableTopKEngine::max_duration), and is
/// not a shard: [`ShardedEngine`](crate::ShardedEngine) keeps its own
/// trees and shares only [`Algorithm`] dispatch with this type.
#[derive(Debug)]
pub struct DurableTopKEngine {
    ds: Dataset,
    oracle: SkylineSegTree,
    skyband: Option<DurableSkybandIndex>,
    /// Reversed dataset + oracle, built on demand for look-ahead queries.
    reversed: Option<Box<DurableTopKEngine>>,
}

impl DurableTopKEngine {
    /// Builds the engine (segment-tree oracle included) over a dataset.
    ///
    /// # Panics
    /// Panics if the dataset is empty.
    pub fn new(ds: Dataset) -> Self {
        let oracle = SkylineSegTree::build(&ds);
        Self { ds, oracle, skyband: None, reversed: None }
    }

    /// Builds the engine with a custom oracle leaf size (ablations).
    pub fn with_leaf_size(ds: Dataset, leaf_size: usize) -> Self {
        let oracle = SkylineSegTree::with_leaf_size(&ds, leaf_size);
        Self { ds, oracle, skyband: None, reversed: None }
    }

    /// Adds the durable k-skyband index serving queries with `k <= k_max`
    /// (rounded up to a power of two), enabling [`Algorithm::SBand`].
    pub fn with_skyband_index(mut self, k_max: usize) -> Self {
        self.skyband = Some(DurableSkybandIndex::build(&self.ds, k_max));
        self
    }

    /// Pre-builds the reversed twin enabling
    /// [`Anchor::LookAhead`] queries via
    /// [`query_anchored`](DurableTopKEngine::query_anchored).
    pub fn with_lookahead(mut self) -> Self {
        let mut rev = DurableTopKEngine::new(self.ds.reversed());
        if let Some(sb) = &self.skyband {
            rev = rev.with_skyband_index(sb.max_k());
        }
        self.reversed = Some(Box::new(rev));
        self
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.ds
    }

    /// The top-k oracle (for direct `Q(u, k, W)` queries).
    pub fn oracle(&self) -> &SkylineSegTree {
        &self.oracle
    }

    /// The skyband index, if built.
    pub fn skyband_index(&self) -> Option<&DurableSkybandIndex> {
        self.skyband.as_ref()
    }

    /// Answers `DurTop(k, I, τ)` with look-back durability windows,
    /// allocating a fresh [`QueryContext`].
    ///
    /// Repeated callers should hold a context and use
    /// [`query_with`](DurableTopKEngine::query_with) to reuse scratch
    /// buffers across queries.
    ///
    /// # Panics
    /// Panics on invalid parameters.
    pub fn query<S: OracleScorer + ?Sized>(
        &self,
        alg: Algorithm,
        scorer: &S,
        query: &DurableQuery,
    ) -> QueryResult {
        self.query_with(alg, scorer, query, &mut QueryContext::new())
    }

    /// Answers `DurTop(k, I, τ)` with look-back durability windows, drawing
    /// all working memory from `ctx` — the allocation-free path.
    ///
    /// [`Algorithm::SBand`] degrades gracefully: when no skyband index was
    /// built, `query.k` exceeds its largest level, or the scorer is not
    /// monotone, the engine answers with S-Hop instead and sets
    /// [`QueryStats::fallback`](crate::QueryStats).
    ///
    /// # Panics
    /// Panics on invalid parameters.
    pub fn query_with<S: OracleScorer + ?Sized>(
        &self,
        alg: Algorithm,
        scorer: &S,
        query: &DurableQuery,
        ctx: &mut QueryContext,
    ) -> QueryResult {
        run_algorithm(&self.ds, &self.oracle, self.skyband.as_ref(), alg, scorer, query, ctx)
    }

    /// Answers `DurTop(k, I, τ)` under either window anchoring.
    ///
    /// Look-ahead durability runs the unmodified look-back algorithms on the
    /// reversed dataset (`p` is τ-durable looking ahead iff its mirror image
    /// is τ-durable looking back) and maps the ids home.
    ///
    /// # Panics
    /// As [`query`](DurableTopKEngine::query); for look-ahead additionally
    /// if [`with_lookahead`](DurableTopKEngine::with_lookahead) was not
    /// called.
    pub fn query_anchored<S: OracleScorer + ?Sized>(
        &self,
        alg: Algorithm,
        scorer: &S,
        query: &DurableQuery,
        anchor: Anchor,
    ) -> QueryResult {
        match anchor {
            Anchor::LookBack => self.query(alg, scorer, query),
            Anchor::LookAhead => {
                let rev = self
                    .reversed
                    .as_ref()
                    // lint: allow(expect) — documented-panic API: the method
                    // docs require with_lookahead() for look-ahead anchors.
                    .expect("look-ahead queries require with_lookahead() at engine build time");
                let n = self.ds.len() as Time;
                let interval = query.interval.clamp_to(self.ds.len());
                let mirrored = DurableQuery {
                    k: query.k,
                    tau: query.tau,
                    interval: Window::new(n - 1 - interval.end(), n - 1 - interval.start()),
                };
                let mut result = rev.query(alg, scorer, &mirrored);
                for id in &mut result.records {
                    *id = n - 1 - *id;
                }
                result.records.sort_unstable();
                result
            }
        }
    }

    /// The longest duration for which record `p` stays in the top-k
    /// (look-back), plus the number of top-k probes used.
    pub fn max_duration<S: OracleScorer + ?Sized>(
        &self,
        scorer: &S,
        p: RecordId,
        k: usize,
    ) -> (Time, u64) {
        max_duration(&self.ds, &self.oracle, scorer, p, k, &mut QueryContext::new())
    }

    /// Cumulative top-k queries issued by the engine's oracle.
    pub fn oracle_queries(&self) -> u64 {
        self.oracle.counters().queries()
    }

    /// Resets oracle instrumentation.
    pub fn reset_counters(&self) {
        self.oracle.counters().reset();
        if let Some(rev) = &self.reversed {
            rev.reset_counters();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::FallbackReason;
    use durable_topk_temporal::{LinearScorer, SingleAttributeScorer};
    use rand::prelude::*;

    fn random_engine(rng: &mut StdRng, n: usize, vals: u32) -> DurableTopKEngine {
        let rows: Vec<[f64; 2]> = (0..n)
            .map(|_| [rng.random_range(0..vals) as f64, rng.random_range(0..vals) as f64])
            .collect();
        DurableTopKEngine::new(Dataset::from_rows(2, rows)).with_skyband_index(8).with_lookahead()
    }

    /// Reference implementation: definition-level durability test.
    fn brute_durable(
        ds: &Dataset,
        scorer: &dyn crate::Scorer,
        q: &DurableQuery,
        anchor: Anchor,
    ) -> Vec<RecordId> {
        let interval = q.interval.clamp_to(ds.len());
        interval
            .iter()
            .filter(|&t| {
                let w = anchor.window(t, q.tau).clamp_to(ds.len());
                let my = scorer.score(ds.row(t));
                let better = w.iter().filter(|&u| scorer.score(ds.row(u)) > my).count();
                better < q.k
            })
            .collect()
    }

    #[test]
    fn all_algorithms_agree_with_definition() {
        let mut rng = StdRng::seed_from_u64(101);
        for trial in 0..12 {
            let n = rng.random_range(5..120);
            // Small value range: plenty of score ties to stress tie paths.
            let engine = random_engine(&mut rng, n, 6);
            let scorer = LinearScorer::new(vec![rng.random::<f64>() + 0.1, 1.0]);
            for _ in 0..4 {
                let a = rng.random_range(0..n as Time);
                let b = rng.random_range(0..n as Time);
                let q = DurableQuery {
                    k: rng.random_range(1..6),
                    tau: rng.random_range(1..(n as Time + 4)),
                    interval: Window::new(a.min(b), a.max(b)),
                };
                let expected = brute_durable(engine.dataset(), &scorer, &q, Anchor::LookBack);
                for alg in Algorithm::ALL {
                    let got = engine.query(alg, &scorer, &q);
                    assert_eq!(got.records, expected, "trial={trial} alg={alg} q={q:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn lookahead_matches_definition() {
        let mut rng = StdRng::seed_from_u64(202);
        for _ in 0..8 {
            let n = rng.random_range(5..80);
            let engine = random_engine(&mut rng, n, 8);
            let scorer = SingleAttributeScorer::new(0);
            let a = rng.random_range(0..n as Time);
            let b = rng.random_range(0..n as Time);
            let q = DurableQuery {
                k: rng.random_range(1..4),
                tau: rng.random_range(1..(n as Time)),
                interval: Window::new(a.min(b), a.max(b)),
            };
            let expected = brute_durable(engine.dataset(), &scorer, &q, Anchor::LookAhead);
            for alg in [Algorithm::THop, Algorithm::SHop, Algorithm::TBase] {
                let got = engine.query_anchored(alg, &scorer, &q, Anchor::LookAhead);
                assert_eq!(got.records, expected, "alg={alg}");
            }
        }
    }

    #[test]
    fn hop_algorithms_issue_fewer_checks_than_tbase_visits() {
        let mut rng = StdRng::seed_from_u64(303);
        let engine = random_engine(&mut rng, 2000, 1000);
        let scorer = LinearScorer::new(vec![0.5, 0.5]);
        let q = DurableQuery { k: 5, tau: 400, interval: Window::new(0, 1999) };
        let tb = engine.query(Algorithm::TBase, &scorer, &q);
        let th = engine.query(Algorithm::THop, &scorer, &q);
        let sh = engine.query(Algorithm::SHop, &scorer, &q);
        assert_eq!(tb.records, th.records);
        // T-Base touches every record; T-Hop's durability checks are far
        // fewer on a selective query.
        assert!(th.stats.durability_checks < tb.stats.candidates / 2);
        assert!(sh.stats.durability_checks <= th.stats.durability_checks * 3);
    }

    #[test]
    fn sband_without_index_falls_back_to_shop() {
        let ds = Dataset::from_rows(2, (0..40).map(|i| [((i * 7) % 11) as f64, (i % 5) as f64]));
        let engine = DurableTopKEngine::new(ds);
        let scorer = LinearScorer::uniform(2);
        let q = DurableQuery { k: 2, tau: 8, interval: Window::new(0, 39) };
        let got = engine.query(Algorithm::SBand, &scorer, &q);
        assert_eq!(
            got.stats.fallback,
            Some(FallbackReason::MissingSkybandIndex),
            "missing index must be flagged with its reason"
        );
        assert!(!got.stats.fallback.expect("set").is_expected(), "missing index is gate-worthy");
        let reference = engine.query(Algorithm::SHop, &scorer, &q);
        assert_eq!(got.records, reference.records);
        assert!(reference.stats.fallback.is_none());
    }

    #[test]
    fn sband_with_k_above_build_bound_falls_back() {
        let mut rng = StdRng::seed_from_u64(77);
        let engine = random_engine(&mut rng, 120, 9); // skyband built for k <= 8
        let scorer = LinearScorer::new(vec![0.7, 0.3]);
        let q = DurableQuery { k: 11, tau: 20, interval: Window::new(0, 119) };
        let got = engine.query(Algorithm::SBand, &scorer, &q);
        assert_eq!(
            got.stats.fallback,
            Some(FallbackReason::SkybandBoundExceeded),
            "k above the build bound must fall back with its reason"
        );
        assert_eq!(got.records, engine.query(Algorithm::THop, &scorer, &q).records);
        // Within the bound the real S-Band path serves the query.
        let in_bound = DurableQuery { k: 8, ..q };
        assert!(engine.query(Algorithm::SBand, &scorer, &in_bound).stats.fallback.is_none());
    }

    #[test]
    fn sband_with_non_monotone_scorer_falls_back() {
        let mut rng = StdRng::seed_from_u64(78);
        let engine = random_engine(&mut rng, 80, 12);
        let scorer = crate::CosineScorer::new(vec![0.6, 0.8]);
        let q = DurableQuery { k: 2, tau: 10, interval: Window::new(0, 79) };
        let got = engine.query(Algorithm::SBand, &scorer, &q);
        assert_eq!(got.stats.fallback, Some(FallbackReason::NonMonotoneScorer));
        assert!(got.stats.fallback.expect("set").is_expected());
        assert_eq!(got.records, engine.query(Algorithm::SHop, &scorer, &q).records);
    }

    #[test]
    fn max_duration_via_engine() {
        let ds = Dataset::from_rows(1, (0..50).map(|i| [(i % 7) as f64]));
        let engine = DurableTopKEngine::new(ds);
        let scorer = SingleAttributeScorer::new(0);
        // Record 6 has value 6, the maximum; nothing beats it until the next
        // 6 (record 13)... looking back, it is durable for all of history.
        let (d, probes) = engine.max_duration(&scorer, 6, 1);
        assert_eq!(d, 50);
        assert!(probes >= 1);
    }
}
