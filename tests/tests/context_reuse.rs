//! Property tests for `QueryContext` scratch reuse.
//!
//! The allocation-free pipeline reuses heaps, stamp sets, the blocking
//! Fenwick and result buffers across queries; any state leaking from one
//! query into the next would corrupt answers in ways single-query tests
//! cannot see. Here a *single* context serves a randomized sequence of
//! queries — algorithms, `k`, `τ` and intervals all varying, including
//! dataset switches mid-sequence — and every answer must agree
//! record-for-record with a fresh-context run and with the brute-force
//! durability definition.

use durable_topk::algorithms::{s_band, s_base, s_hop, t_base, t_hop};
use durable_topk::{Algorithm, DurableQuery, LinearScorer, QueryContext, QueryResult, Window};
use durable_topk_index::{DurableSkybandIndex, SkylineSegTree};
use durable_topk_temporal::Dataset;
use durable_topk_tests::{brute_durable, dataset_strategy};
use proptest::prelude::*;

/// A dataset with its top-k tree and its durable 8-skyband.
struct Indexed(Dataset, SkylineSegTree, DurableSkybandIndex);

impl Indexed {
    fn new(ds: Dataset) -> Self {
        let (tree, skyband) = (SkylineSegTree::build(&ds), DurableSkybandIndex::build(&ds, 8));
        Self(ds, tree, skyband)
    }

    /// Runs `alg` on `ctx`.
    fn run(
        &self,
        alg: Algorithm,
        scorer: &LinearScorer,
        q: &DurableQuery,
        ctx: &mut QueryContext,
    ) -> QueryResult {
        let Self(ds, tree, skyband) = self;
        match alg {
            Algorithm::TBase => t_base(ds, tree, scorer, q, ctx),
            Algorithm::THop => t_hop(ds, tree, scorer, q, ctx),
            Algorithm::SBase => s_base(ds, scorer, q, ctx),
            Algorithm::SBand => s_band(ds, tree, skyband, scorer, q, ctx),
            Algorithm::SHop => s_hop(ds, tree, scorer, q, ctx),
        }
    }
}

/// One randomized query shape, instantiated against a dataset at run time.
#[derive(Debug, Clone)]
struct QuerySpec {
    alg_index: usize,
    k: usize,
    tau_raw: u32,
    seed: u32,
}

fn query_strategy() -> impl Strategy<Value = QuerySpec> {
    (0usize..Algorithm::ALL.len(), 1usize..6, 1u32..200, 0u32..10_000)
        .prop_map(|(alg_index, k, tau_raw, seed)| QuerySpec { alg_index, k, tau_raw, seed })
}

fn materialize(spec: &QuerySpec, n: u32) -> (Algorithm, DurableQuery) {
    let tau = 1 + spec.tau_raw % (n + 3);
    let a = spec.seed % n;
    let b = (spec.seed / 7) % n;
    let q = DurableQuery { k: spec.k, tau, interval: Window::new(a.min(b), a.max(b)) };
    (Algorithm::ALL[spec.alg_index], q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A single context across a mixed-algorithm query sequence agrees with
    /// fresh contexts and the definition.
    #[test]
    fn reused_context_matches_fresh_and_brute_force(
        ds in dataset_strategy(2..70, 2, 6),
        specs in prop::collection::vec(query_strategy(), 1..12),
    ) {
        let n = ds.len() as u32;
        let engine = Indexed::new(ds);
        let scorer = LinearScorer::new(vec![0.6, 0.4]);
        let mut shared = QueryContext::new();
        for spec in &specs {
            let (alg, q) = materialize(spec, n);
            let reused = engine.run(alg, &scorer, &q, &mut shared);
            let fresh = engine.run(alg, &scorer, &q, &mut QueryContext::new());
            prop_assert_eq!(&reused.records, &fresh.records, "alg={} q={:?}", alg, q);
            prop_assert_eq!(reused.stats, fresh.stats, "alg={} q={:?}", alg, q);
            let expected = brute_durable(&engine.0, &scorer, &q);
            prop_assert_eq!(&reused.records, &expected, "alg={} q={:?}", alg, q);
        }
    }

    /// Context reuse survives switching datasets (of different sizes)
    /// between queries: every buffer re-sizes cleanly.
    #[test]
    fn reused_context_survives_dataset_switches(
        ds_a in dataset_strategy(2..60, 2, 5),
        ds_b in dataset_strategy(2..25, 2, 7),
        specs in prop::collection::vec(query_strategy(), 2..8),
    ) {
        let engines = [Indexed::new(ds_a), Indexed::new(ds_b)];
        let scorer = LinearScorer::new(vec![0.3, 0.7]);
        let mut shared = QueryContext::new();
        for (i, spec) in specs.iter().enumerate() {
            let engine = &engines[i % 2];
            let (alg, q) = materialize(spec, engine.0.len() as u32);
            let reused = engine.run(alg, &scorer, &q, &mut shared);
            let expected = brute_durable(&engine.0, &scorer, &q);
            prop_assert_eq!(&reused.records, &expected, "alg={} q={:?} engine={}", alg, q, i % 2);
        }
    }
}
