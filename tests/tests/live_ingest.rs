//! Live-ingestion equivalence and worker-pool persistence.
//!
//! The incremental `ShardedEngine` must be *indistinguishable* from a
//! from-scratch build: a head shard grown by appends, sealed mid-stream at
//! arbitrary points, answers every `DurTop(k, I, τ)` — `τ` up to the
//! whole history — record-for-record like both a freshly sharded build
//! over the final dataset and a flat unsharded engine — at every prefix of
//! the ingestion timeline, not just at the end.
//!
//! Separately, the query path must spawn no threads: batched queries and
//! `ShardedEngine::query` run on the persistent [`WorkerPool`], so the
//! process-wide spawn counter stays flat across arbitrarily many queries.

use durable_topk::{
    Algorithm, DurableQuery, EngineConfig, LinearScorer, QueryContext, TopKResult, Window,
    WorkerPool,
};
use durable_topk_index::SkylineSegTree;
use durable_topk_temporal::Dataset;
use durable_topk_tests::flat;
use proptest::prelude::*;

/// One randomized query shape, instantiated against a prefix at run time.
#[derive(Debug, Clone)]
struct QuerySpec {
    alg_index: usize,
    k: usize,
    tau_raw: u32,
    seed: u32,
}

fn query_strategy() -> impl Strategy<Value = QuerySpec> {
    (0usize..Algorithm::ALL.len(), 1usize..5, 0u32..10_000, 0u32..10_000)
        .prop_map(|(alg_index, k, tau_raw, seed)| QuerySpec { alg_index, k, tau_raw, seed })
}

fn rows_strategy(max_n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0u32..8, 2), 2..max_n).prop_map(|rows| {
        rows.into_iter().map(|r| r.into_iter().map(|v| v as f64).collect()).collect()
    })
}

/// Definition-level durability over the first `upto + 1` records: `p` is
/// reported iff fewer than `k` records in its look-back window beat its
/// score.
fn brute_durable(ds: &Dataset, scorer: &LinearScorer, q: &DurableQuery, upto: u32) -> Vec<u32> {
    use durable_topk::Scorer;
    let interval = Window::new(q.interval.start(), q.interval.end().min(upto));
    interval
        .iter()
        .filter(|&t| {
            let lo = t.saturating_sub(q.tau);
            let my = scorer.score(ds.row(t));
            let better = (lo..t).filter(|&u| scorer.score(ds.row(u)) > my).count();
            better < q.k
        })
        .collect()
}

/// Materializes a spec against `n` ingested records, with `τ` anywhere up
/// to the whole history or twice `max_tau`, whichever is longer.
fn materialize(spec: &QuerySpec, n: u32, max_tau: u32) -> (Algorithm, DurableQuery) {
    let tau = 1 + spec.tau_raw % (2 * max_tau).max(n);
    let a = spec.seed % n;
    let b = (spec.seed / 7) % n;
    let q = DurableQuery { k: spec.k, tau, interval: Window::new(a.min(b), a.max(b)) };
    (Algorithm::ALL[spec.alg_index], q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An engine grown by interleaved appends and queries answers
    /// identically to engines built from scratch, across random `k`/`τ`/
    /// window sequences and shard geometries.
    #[test]
    fn grown_engine_matches_rebuild_and_flat(
        rows in rows_strategy(90),
        span in 1usize..16,
        max_tau in 1u32..24,
        specs in prop::collection::vec(query_strategy(), 1..8),
    ) {
        let ds = Dataset::from_rows(2, rows);
        let n = ds.len();
        let scorer = LinearScorer::new(vec![0.6, 0.4]);
        let mut live = EngineConfig::new(2, span, max_tau).build().expect("config");

        // Interleave: append everything, querying a few growing prefixes
        // against a flat engine over the same prefix.
        let mut spec_cursor = specs.iter().cycle();
        for id in 0..n {
            live.append(ds.row(id as u32));
            if id % 11 == 7 {
                let prefix = Dataset::from_rows(2, (0..=id).map(|i| ds.row(i as u32).to_vec()));
                let flat = flat(&prefix, None);
                let spec = spec_cursor.next().expect("cycle never ends");
                let (alg, q) = materialize(spec, (id + 1) as u32, max_tau);
                prop_assert_eq!(
                    live.query(alg, &scorer, &q).records,
                    flat.query(alg, &scorer, &q).records,
                    "prefix={} alg={} q={:?}", id + 1, alg, q
                );
            }
        }

        // Final dataset: grown engine vs from-scratch sharded build vs flat.
        let rebuilt = EngineConfig::new(2, span, max_tau)
            .build_from(&ds, n.div_ceil(span))
            .expect("build");
        let flat = flat(&ds, None);
        for spec in &specs {
            let (alg, q) = materialize(spec, n as u32, max_tau);
            let grown = live.query(alg, &scorer, &q);
            let scratch_built = rebuilt.query(alg, &scorer, &q);
            let unsharded = flat.query(alg, &scorer, &q);
            prop_assert_eq!(&grown.records, &scratch_built.records, "alg={} q={:?}", alg, q);
            prop_assert_eq!(&grown.records, &unsharded.records, "alg={} q={:?}", alg, q);
        }
    }

    /// The tentpole gate for head-shard S-Band: an engine grown by appends
    /// with a skyband bound serves `Algorithm::SBand` *natively* — exact
    /// against the definition-level brute force and against a
    /// rebuilt-from-scratch `build_from` engine, with
    /// `QueryStats::fallback == None`, at **every** prefix of the
    /// ingestion timeline, across at least two seal boundaries.
    #[test]
    fn grown_head_sband_is_native_and_exact_at_every_prefix(
        rows in rows_strategy(60),
        k_max in 1usize..6,
        max_tau in 1u32..16,
        seed in 0u32..10_000,
    ) {
        let ds = Dataset::from_rows(2, rows);
        let n = ds.len();
        // Two full seals fit in the run, so the head and sealed tails are
        // both exercised mid-stream.
        let span = (n / 3).max(1);
        let scorer = LinearScorer::new(vec![0.55, 0.45]);
        let mut live = EngineConfig::new(2, span, max_tau)
            .skyband_bound(k_max)
            .build()
            .expect("live config");
        for id in 0..n {
            live.append(ds.row(id as u32));
            let upto = id as u32;
            let k = 1 + (id + seed as usize) % k_max;
            let tau = 1 + (seed + upto) % max_tau;
            let q = DurableQuery { k, tau, interval: Window::new(0, upto) };
            let got = live.query(Algorithm::SBand, &scorer, &q);
            prop_assert_eq!(
                got.stats.fallback, None,
                "S-Band fell back at prefix {} (q={:?})", id + 1, q
            );
            let expected = brute_durable(&ds, &scorer, &q, upto);
            prop_assert_eq!(
                &got.records, &expected,
                "S-Band diverged from brute force at prefix {} (q={:?})", id + 1, q
            );
        }
        prop_assert!(live.sealed_shards() >= 2, "the run must cross two seal boundaries");

        // Final state: grown engine vs a from-scratch skyband build.
        let rebuilt = EngineConfig::new(2, span, max_tau)
            .skyband_bound(k_max)
            .build_from(&ds, n.div_ceil(span))
            .expect("build");
        for k in 1..=k_max {
            let q = DurableQuery {
                k,
                tau: 1 + (seed + k as u32) % max_tau,
                interval: Window::new(0, (n - 1) as u32),
            };
            let grown = live.query(Algorithm::SBand, &scorer, &q);
            let scratch_built = rebuilt.query(Algorithm::SBand, &scorer, &q);
            prop_assert_eq!(grown.stats.fallback, None);
            prop_assert_eq!(scratch_built.stats.fallback, None);
            prop_assert_eq!(&grown.records, &scratch_built.records, "k={} q={:?}", k, q);
        }
    }

    /// The sharded top-k building block (what a standing query's refresh
    /// probes) is exact for arbitrary windows, including `τ > max_tau`.
    #[test]
    fn sharded_top_k_is_exact_for_any_window(
        rows in rows_strategy(70),
        span in 1usize..12,
        windows in prop::collection::vec((0u32..10_000, 0u32..10_000, 1usize..5), 1..6),
    ) {
        let ds = Dataset::from_rows(2, rows);
        let n = ds.len() as u32;
        let scorer = LinearScorer::new(vec![0.3, 0.7]);
        let mut live = EngineConfig::new(2, span, 4).build().expect("config");
        for id in 0..n {
            live.append(ds.row(id));
        }
        let flat = SkylineSegTree::build(&ds);
        let mut ctx = QueryContext::new();
        let mut out = TopKResult::empty();
        for &(a, b, k) in &windows {
            let (a, b) = (a % n, b % n);
            let w = Window::new(a.min(b), a.max(b));
            live.top_k_into(&scorer, k, w, &mut ctx, &mut out);
            prop_assert_eq!(&out, &flat.top_k(&ds, &scorer, k, w), "k={} w={}", k, w);
        }
    }
}

/// The acceptance gate for the worker-pool refactor: once the global pool
/// exists, arbitrarily many sharded queries and batch runs spawn zero
/// additional threads — workers persist across queries.
#[test]
fn query_path_spawns_no_threads() {
    let ds = Dataset::from_rows(2, (0..600).map(|i| [((i * 37) % 101) as f64, (i % 13) as f64]));
    let sharded = EngineConfig::new(2, 120, 60).build_from(&ds, 5).expect("build");
    let scorer = LinearScorer::new(vec![0.5, 0.5]);
    let scorers: Vec<LinearScorer> =
        (1..=6).map(|i| LinearScorer::new(vec![i as f64, (7 - i) as f64])).collect();
    let q = DurableQuery { k: 3, tau: 50, interval: Window::new(100, 599) };
    let batch =
        |alg| WorkerPool::global().run_jobs(6, 4, |i, _ctx| sharded.query(alg, &scorers[i], &q));

    // Warm-up: force the global pool (and its one-time worker spawns).
    let warm = sharded.query(Algorithm::THop, &scorer, &q);
    batch(Algorithm::THop);

    let before = WorkerPool::threads_spawned();
    for _ in 0..25 {
        let got = sharded.query(Algorithm::THop, &scorer, &q);
        assert_eq!(got.records, warm.records);
        batch(Algorithm::SHop);
    }
    assert_eq!(
        WorkerPool::threads_spawned(),
        before,
        "the query path must reuse persistent pool workers, never spawn"
    );
}

/// Appending must also stay spawn-free: sealing joins the head forest's
/// trees in place on the ingesting thread.
#[test]
fn append_path_spawns_no_threads() {
    let mut live = EngineConfig::new(2, 32, 16).build().expect("config");
    // Warm the global pool through an unrelated build first.
    let warm_ds = Dataset::from_rows(2, (0..64).map(|i| [i as f64, (64 - i) as f64]));
    let _ = EngineConfig::new(2, 32, 8).build_from(&warm_ds, 2).expect("build");
    let before = WorkerPool::threads_spawned();
    for i in 0..500usize {
        live.append(&[((i * 7) % 23) as f64, ((i * 3) % 17) as f64]);
    }
    assert!(live.sealed_shards() > 10, "appends must have sealed shards");
    assert_eq!(WorkerPool::threads_spawned(), before, "append/seal must not spawn");
}
