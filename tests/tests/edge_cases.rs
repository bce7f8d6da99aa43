//! Edge cases, failure paths, and non-monotone scorer coverage.

use durable_topk::{
    Algorithm, Backpressure, BuildError, CosineScorer, DurableQuery, EngineConfig, LinearScorer,
    QueryError, ScanOracle, Scorer, ScorerSpec, ServeEngine, ServeError, ServeRequest, TopKOracle,
    Window,
};
use durable_topk_temporal::Dataset;
use durable_topk_tests::flat;
use std::sync::{mpsc, Arc};
use std::time::Duration;

#[test]
fn single_record_dataset() {
    let ds = Dataset::from_rows(3, [[1.0, 2.0, 3.0]]);
    let engine = flat(&ds, Some(4));
    let scorer = LinearScorer::uniform(3);
    let q = DurableQuery { k: 1, tau: 1, interval: Window::new(0, 0) };
    for alg in Algorithm::ALL {
        assert_eq!(engine.query(alg, &scorer, &q).records, vec![0], "alg={alg}");
    }
}

#[test]
fn interval_of_one_instant() {
    let ds = Dataset::from_rows(1, (0..100).map(|i| [((i * 7) % 13) as f64]));
    let engine = flat(&ds, Some(4));
    let scorer = LinearScorer::uniform(1);
    for t in [0u32, 50, 99] {
        let q = DurableQuery { k: 2, tau: 10, interval: Window::new(t, t) };
        let reference = engine.query(Algorithm::TBase, &scorer, &q);
        for alg in Algorithm::ALL {
            assert_eq!(
                engine.query(alg, &scorer, &q).records,
                reference.records,
                "t={t} alg={alg}"
            );
        }
    }
}

#[test]
fn tau_larger_than_history() {
    let ds = Dataset::from_rows(1, (0..50).map(|i| [((i * 11) % 17) as f64]));
    let engine = flat(&ds, Some(4));
    let scorer = LinearScorer::uniform(1);
    // τ covering far more than all of history: windows clamp at 0, so a
    // record is durable iff it is top-k among ALL its predecessors.
    let q = DurableQuery { k: 3, tau: 10_000, interval: Window::new(0, 49) };
    let expected: Vec<u32> = (0..50u32)
        .filter(|&t| {
            let my = ds.value(t, 0);
            (0..t).filter(|&u| ds.value(u, 0) > my).count() < 3
        })
        .collect();
    for alg in Algorithm::ALL {
        assert_eq!(engine.query(alg, &scorer, &q).records, expected, "alg={alg}");
    }
}

#[test]
fn k_larger_than_window_population() {
    let ds = Dataset::from_rows(1, (0..30).map(|i| [i as f64]));
    let engine = flat(&ds, Some(64));
    let scorer = LinearScorer::uniform(1);
    // k = 50 > any window population: everything is durable.
    let q = DurableQuery { k: 50, tau: 5, interval: Window::new(0, 29) };
    for alg in Algorithm::ALL {
        assert_eq!(engine.query(alg, &scorer, &q).records.len(), 30, "alg={alg}");
    }
}

#[test]
fn cosine_scorer_works_with_general_algorithms() {
    let rows: Vec<[f64; 3]> = (0..400)
        .map(|i| {
            let a = ((i * 13) % 23) as f64 + 1.0;
            let b = ((i * 7) % 19) as f64 + 1.0;
            let c = ((i * 29) % 31) as f64 + 1.0;
            [a, b, c]
        })
        .collect();
    let ds = Dataset::from_rows(3, rows);
    let engine = flat(&ds, None);
    let scorer = CosineScorer::new(vec![1.0, 2.0, 0.5]);
    let q = DurableQuery { k: 4, tau: 50, interval: Window::new(100, 399) };
    // Brute-force reference with the non-monotone scorer.
    let expected: Vec<u32> = q
        .interval
        .iter()
        .filter(|&t| {
            let my = scorer.score(ds.row(t));
            Window::lookback(t, q.tau).iter().filter(|&u| scorer.score(ds.row(u)) > my).count()
                < q.k
        })
        .collect();
    for alg in [Algorithm::TBase, Algorithm::THop, Algorithm::SBase, Algorithm::SHop] {
        assert_eq!(engine.query(alg, &scorer, &q).records, expected, "alg={alg}");
    }
}

#[test]
fn sband_with_cosine_falls_back_to_shop() {
    // S-Band's pruning argument needs monotonicity; instead of panicking the
    // engine degrades to S-Hop and flags the substitution.
    let ds = Dataset::from_rows(2, [[1.0, 2.0], [2.0, 1.0], [0.5, 0.5], [3.0, 0.1]]);
    let engine = flat(&ds, Some(2));
    let scorer = CosineScorer::new(vec![1.0, 1.0]);
    let q = DurableQuery { k: 1, tau: 2, interval: Window::new(0, 3) };
    let got = engine.query(Algorithm::SBand, &scorer, &q);
    assert_eq!(
        got.stats.fallback,
        Some(durable_topk::FallbackReason::NonMonotoneScorer),
        "non-monotone scorer must be served via fallback"
    );
    assert_eq!(got.records, engine.query(Algorithm::SHop, &scorer, &q).records);
}

#[test]
fn zero_vectors_with_cosine() {
    // Records containing the zero vector must not break the oracle's
    // bounding logic (cosine of zero is defined as 0).
    let ds = Dataset::from_rows(2, [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [2.0, 0.1], [0.5, 0.5]]);
    let engine = flat(&ds, None);
    let scorer = CosineScorer::new(vec![1.0, 1.0]);
    let scan = ScanOracle::new();
    for k in 1..=3 {
        let fast = engine.top_k(&scorer, k, Window::new(0, 4));
        let slow = scan.top_k(&ds, &scorer, k, Window::new(0, 4));
        assert_eq!(fast, slow, "k={k}");
    }
}

#[test]
fn negative_cosine_weights_supported() {
    // Cosine allows signed preferences ("like x0, dislike x1").
    let ds = Dataset::from_rows(
        2,
        (0..200).map(|i| [((i * 3) % 11) as f64 + 1.0, ((i * 5) % 7) as f64 + 1.0]),
    );
    let engine = flat(&ds, None);
    let scorer = CosineScorer::new(vec![1.0, -1.0]);
    let scan = ScanOracle::new();
    for t in [30u32, 120, 199] {
        let w = Window::lookback(t, 40);
        let fast = engine.top_k(&scorer, 3, w);
        let slow = scan.top_k(&ds, &scorer, 3, w);
        assert_eq!(fast, slow, "t={t}");
    }
}

#[test]
fn stats_reflect_algorithm_behaviour() {
    let ds = Dataset::from_rows(1, (0..2_000).map(|i| [((i * 97) % 389) as f64]));
    let engine = flat(&ds, Some(8));
    let scorer = LinearScorer::uniform(1);
    let q = DurableQuery { k: 5, tau: 400, interval: Window::new(500, 1_999) };
    let tb = engine.query(Algorithm::TBase, &scorer, &q);
    // T-Base visits every record of I.
    assert_eq!(tb.stats.candidates, 1_500);
    let sb = engine.query(Algorithm::SBase, &scorer, &q);
    // S-Base sorts everything in [I.start - tau, I.end] and never calls the
    // oracle.
    assert_eq!(sb.stats.candidates, 1_900);
    assert_eq!(sb.stats.topk_queries(), 0);
    let th = engine.query(Algorithm::THop, &scorer, &q);
    // T-Hop's durability checks equal its visited candidates.
    assert_eq!(th.stats.durability_checks, th.stats.candidates);
    let sh = engine.query(Algorithm::SHop, &scorer, &q);
    // Blocking prunes: S-Hop checks no more records than T-Hop.
    assert!(sh.stats.durability_checks <= th.stats.durability_checks);
}

#[test]
fn oracle_counters_are_cumulative_across_queries() {
    let ds = Dataset::from_rows(1, (0..500).map(|i| [(i % 97) as f64]));
    let engine = flat(&ds, None);
    let scorer = LinearScorer::uniform(1);
    engine.reset_counters();
    let q = DurableQuery { k: 3, tau: 100, interval: Window::new(100, 499) };
    let r1 = engine.query(Algorithm::THop, &scorer, &q);
    let after_one = engine.oracle_queries();
    assert_eq!(after_one, r1.stats.topk_queries());
    let r2 = engine.query(Algorithm::SHop, &scorer, &q);
    assert_eq!(engine.oracle_queries(), after_one + r2.stats.topk_queries());
}

/// Runs `f` on a thread of its own: `None` if it panicked or is still
/// running after 20 s, so a hang fails the test instead of stalling the
/// suite.
fn within_deadline<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Option<T> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(20)).ok()
}

fn grid(dim: usize, n: usize) -> Dataset {
    Dataset::from_rows(
        dim,
        (0..n).map(|i| (0..dim).map(|j| ((i * (7 + j)) % 23) as f64).collect::<Vec<_>>()),
    )
}

#[test]
fn non_finite_appends_are_rejected_and_the_engine_keeps_serving() {
    for dim in [2usize, 3] {
        let engine = EngineConfig::new(dim, 64, 16).build_from(&grid(dim, 200), 2).expect("build");
        let serve = Arc::new(ServeEngine::new(engine, 8, Backpressure::Block));
        let worker = Arc::clone(&serve);
        let outcome = within_deadline(move || {
            let bad: Vec<(Vec<f64>, usize)> = (0..dim)
                .flat_map(|at| {
                    [f64::NAN, f64::INFINITY, f64::NEG_INFINITY].map(|x| {
                        let mut row = vec![1.0; dim];
                        row[at] = x;
                        (row, at)
                    })
                })
                .collect();
            let rejected: Vec<_> = bad.iter().map(|(row, at)| (worker.append(row), *at)).collect();
            let len_after_rejects = worker.engine().len();
            let id = worker.append(&vec![2.0; dim]);
            let request = ServeRequest {
                alg: Algorithm::THop,
                query: DurableQuery { k: 2, tau: 20, interval: Window::new(100, 200) },
                scorer: ScorerSpec::Linear(vec![1.0; dim]),
            };
            let answered = worker.submit(request).expect("accepted").wait().is_ok();
            (rejected, len_after_rejects, id, answered)
        });
        let (rejected, len_after_rejects, id, answered) =
            outcome.unwrap_or_else(|| panic!("dim {dim}: a non-finite append hung or panicked"));
        for (got, at) in rejected {
            assert_eq!(got, Err(ServeError::Query(QueryError::NonFinite { attribute: at })));
        }
        assert_eq!(len_after_rejects, 200, "dim {dim}: a rejected record was ingested");
        assert_eq!(id, Ok(200));
        assert!(answered, "dim {dim}: the engine stopped answering");
        serve.shutdown();
    }
}

#[test]
fn build_from_rejects_non_finite_attributes() {
    let outcome = within_deadline(|| {
        let mut ds = grid(2, 40);
        ds.push(&[1.0, f64::NAN]);
        let nan = EngineConfig::new(2, 16, 8).build_from(&ds, 2).map(|_| ()).unwrap_err();
        // Mixed-sign infinities make a sum-of-attributes sort key NaN.
        let mut ds = grid(3, 40);
        ds.push(&[f64::INFINITY, f64::NEG_INFINITY, 1.0]);
        let inf = EngineConfig::new(3, 16, 8).build_from(&ds, 2).map(|_| ()).unwrap_err();
        (nan, inf)
    });
    assert_eq!(
        outcome,
        Some((
            BuildError::NonFinite { record: 40, attribute: 1 },
            BuildError::NonFinite { record: 40, attribute: 0 }
        ))
    );
}

#[test]
fn sharded_append_panics_on_non_finite_before_mutating() {
    let outcome = within_deadline(|| {
        let mut engine = EngineConfig::new(2, 64, 16).build_from(&grid(2, 100), 2).expect("build");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.append(&[f64::NAN, 1.0]);
        }));
        let message = caught.err().and_then(|p| p.downcast_ref::<&str>().map(|m| m.to_string()));
        let len = engine.len();
        // The engine is intact: it appends and answers as before.
        engine.append(&[3.0, 4.0]);
        let q = DurableQuery { k: 1, tau: 10, interval: Window::new(90, 100) };
        let answered = engine.try_query(Algorithm::THop, &LinearScorer::uniform(2), &q).is_ok();
        (message, len, engine.len(), answered)
    });
    assert_eq!(outcome, Some((Some("attributes must be finite".to_string()), 100, 101, true)));
}
