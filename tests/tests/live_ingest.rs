//! Live ingestion: exactness at every prefix, and worker-pool persistence.
//!
//! A live engine, grown by appends and sealed mid-stream, answers like
//! brute force at every prefix and like a from-scratch build at the end;
//! these tests run the model in `durable_topk_tests::model` on the doors
//! with one engine behind them.
//!
//! The query path must spawn no threads: batched queries and
//! `ShardedEngine::query` run on the persistent [`WorkerPool`], so the
//! process-wide spawn counter stays flat across arbitrarily many queries;
//! appends and seals spawn none either.

use durable_topk::{Algorithm, DurableQuery, EngineConfig, LinearScorer, Window, WorkerPool};
use durable_topk_temporal::Dataset;
use durable_topk_tests::model::{check, Front, Op, Setup};

/// The doors with one engine behind them, which `top_k_into` reaches.
const ONE_ENGINE: &[Front] = &[Front::Direct, Front::Serve];

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

/// A live engine grown by appends, sealed wherever its span says,
/// answers every query like brute force at every prefix, `τ` up to the
/// whole history, and like an engine rebuilt from the whole history.
#[test]
fn grown_engine_matches_rebuild_and_flat() {
    let exercised = ["two seals", "a whole-span rebuild"];
    check("grown_engine_matches_rebuild_and_flat", 12, ONE_ENGINE, |_, _| {}, &exercised);
}

/// S-Band within its bound is served natively and exactly at every
/// prefix, by a head alone and across seals; above the bound it carries
/// `SkybandBoundExceeded` and stays exact.
#[test]
fn grown_head_sband_is_native_and_exact_at_every_prefix() {
    let sband = |_: &mut Setup, ops: &mut [Op]| {
        for op in ops {
            if let Op::Query(ask, _) = op {
                ask.alg = Algorithm::SBand;
            }
        }
    };
    let exercised = ["S-Band on a head alone", "S-Band above its bound", "two seals"];
    check("grown_head_sband_is_native_and_exact", 12, ONE_ENGINE, sband, &exercised);
}

/// `top_k_into` over any window of a live engine equals a scan.
#[test]
fn sharded_top_k_is_exact_for_any_window() {
    let top_k = |_: &mut Setup, ops: &mut [Op]| {
        for op in ops {
            if let Op::Query(ask, _) = *op {
                *op = Op::TopK(ask);
            }
        }
    };
    check("sharded_top_k_is_exact", 8, ONE_ENGINE, top_k, &["a top-k probe", "two seals"]);
}
