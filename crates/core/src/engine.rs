//! The five algorithms as one dispatch: [`Algorithm`] names them and
//! `run_algorithm` runs one over a substrate — every piece of a
//! [`ShardedEngine`](crate::ShardedEngine) query goes through it.

use crate::algorithms::{s_band, s_base, s_hop, sband_fallback_reason, t_base, t_hop};
use crate::context::QueryContext;
use crate::oracle::TopKOracle;
use crate::query::{DurableQuery, QueryResult};
use durable_topk_index::{OracleScorer, SkybandCandidates};

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
    /// Served by the index an engine maintains with
    /// [`EngineConfig::skyband_bound`](crate::EngineConfig::skyband_bound);
    /// without one (or when `k` exceeds its bound, or the scorer is not
    /// monotone) the engine falls back to S-Hop and flags
    /// [`QueryStats::fallback`](crate::QueryStats).
    SBand,
    /// Score-prioritized hop algorithm (Section IV-C) with the paper's
    /// footnote-5 top-1 refill.
    SHop,
}

impl Algorithm {
    /// All algorithm variants (handy for agreement tests and sweeps).
    pub const ALL: [Algorithm; 5] =
        [Algorithm::TBase, Algorithm::THop, Algorithm::SBase, Algorithm::SBand, Algorithm::SHop];

    /// Short display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::TBase => "T-Base",
            Algorithm::THop => "T-Hop",
            Algorithm::SBase => "S-Base",
            Algorithm::SBand => "S-Band",
            Algorithm::SHop => "S-Hop",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Shared per-substrate dispatch: runs `alg` over one set of rows, an
/// oracle and an optional skyband candidate source, with S-Band's graceful
/// degradation to S-Hop (reason recorded in the stats). Every piece of a
/// sharded fan-out delegates here, so the same request can never be
/// dispatched differently depending on which substrate serves it.
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
                // sband_fallback_reason returned None, which requires the
                // index to be present.
                #[allow(clippy::expect_used)]
                let idx = skyband.expect("reason checked Some");
                s_band(ds, oracle, idx, scorer, query, ctx)
            }
            Some(reason) => {
                // Graceful degradation: S-Hop answers the same query
                // without the candidate index, and the stats carry why.
                let mut result = s_hop(ds, oracle, scorer, query, ctx);
                result.stats.fallback = Some(reason);
                result
            }
        },
        Algorithm::SHop => s_hop(ds, oracle, scorer, query, ctx),
    }
}

/// The references every engine test compares against: the definition of
/// durability, and the paper's single-index engine — one shard owning
/// every record.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::query::FallbackReason;
    use crate::{EngineConfig, ShardedEngine};
    use durable_topk_temporal::{
        Anchor, Dataset, LinearScorer, RecordId, SingleAttributeScorer, Time, Window,
    };
    use rand::prelude::*;

    /// One shard owning all of `ds`; with a skyband bound its durations
    /// are exact for every `τ`.
    pub(crate) fn flat(ds: &Dataset, k_max: Option<usize>) -> ShardedEngine {
        let cfg = EngineConfig::new(ds.dim(), ds.len(), ds.len() as Time);
        let cfg = if let Some(k_max) = k_max { cfg.skyband_bound(k_max) } else { cfg };
        cfg.build_from(ds, 1).expect("a one-shard build")
    }

    /// Reference implementation: definition-level durability test.
    pub(crate) fn brute_durable(
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

    fn random_dataset(rng: &mut StdRng, n: usize, vals: u32) -> Dataset {
        let rows: Vec<[f64; 2]> = (0..n)
            .map(|_| [rng.random_range(0..vals) as f64, rng.random_range(0..vals) as f64])
            .collect();
        Dataset::from_rows(2, rows)
    }

    #[test]
    fn all_algorithms_agree_with_definition() {
        let mut rng = StdRng::seed_from_u64(101);
        for trial in 0..12 {
            let n = rng.random_range(5..120);
            // Small value range: plenty of score ties to stress tie paths.
            let ds = random_dataset(&mut rng, n, 6);
            let engine = flat(&ds, Some(8));
            let scorer = LinearScorer::new(vec![rng.random::<f64>() + 0.1, 1.0]);
            for _ in 0..4 {
                let a = rng.random_range(0..n as Time);
                let b = rng.random_range(0..n as Time);
                let q = DurableQuery {
                    k: rng.random_range(1..6),
                    tau: rng.random_range(1..(n as Time + 4)),
                    interval: Window::new(a.min(b), a.max(b)),
                };
                let expected = brute_durable(&ds, &scorer, &q, Anchor::LookBack);
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
            let ds = random_dataset(&mut rng, n, 8);
            let reversed = flat(&ds.reversed(), Some(8));
            let scorer = SingleAttributeScorer::new(0);
            let a = rng.random_range(0..n as Time);
            let b = rng.random_range(0..n as Time);
            let q = DurableQuery {
                k: rng.random_range(1..4),
                tau: rng.random_range(1..(n as Time)),
                interval: Window::new(a.min(b), a.max(b)),
            };
            let expected = brute_durable(&ds, &scorer, &q, Anchor::LookAhead);
            // The scorer ignores attribute 1, so on these tied rows a
            // dominator better only there ties: S-Band must still keep the
            // record a candidate.
            for alg in Algorithm::ALL {
                let got = reversed.query_lookahead(alg, &scorer, &q);
                assert_eq!(got.records, expected, "alg={alg}");
                assert_eq!(got.stats.fallback, None, "alg={alg}");
            }
        }
    }

    #[test]
    fn hop_algorithms_issue_fewer_checks_than_tbase_visits() {
        let mut rng = StdRng::seed_from_u64(303);
        let engine = flat(&random_dataset(&mut rng, 2000, 1000), None);
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
        let engine = flat(&ds, None);
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
        let engine = flat(&random_dataset(&mut rng, 120, 9), Some(8));
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
        let engine = flat(&random_dataset(&mut rng, 80, 12), Some(8));
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
        let engine = flat(&ds, None);
        let scorer = SingleAttributeScorer::new(0);
        // Record 6 has value 6, the maximum; nothing beats it until the next
        // 6 (record 13)... looking back, it is durable for all of history.
        let (d, probes) = engine.max_duration(&scorer, 6, 1);
        assert_eq!(d, 50);
        assert!(probes >= 1);
    }
}
