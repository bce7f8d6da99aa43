//! Fast agreement gate: the paper's five algorithms must return
//! byte-identical answer sets on a small synthetic dataset.
//!
//! This is the cheap invariant every future optimization PR must keep green
//! before the heavier `agreement.rs` and property suites run. It checks the
//! answers against the brute-force durability definition, not just against
//! each other, so a bug shared by all five algorithms still fails.

use durable_topk::{Algorithm, DurableQuery, LinearScorer, Window};
use durable_topk_tests::{brute_durable, flat};
use durable_topk_workloads::{anti, ind};

#[test]
fn all_algorithms_agree_on_smoke_dataset() {
    let ds = ind(256, 2, 7);
    let engine = flat(&ds, Some(16));
    let scorer = LinearScorer::new(vec![0.6, 0.4]);
    for (k, tau, lo, hi) in [(1, 8, 0, 255), (3, 16, 40, 200), (5, 64, 100, 255), (10, 256, 0, 100)]
    {
        let q = DurableQuery { k, tau, interval: Window::new(lo, hi) };
        let expected = brute_durable(&ds, &scorer, &q);
        for alg in Algorithm::ALL {
            let got = engine.query(alg, &scorer, &q);
            assert_eq!(got.records, expected, "alg={alg} disagrees for {q:?}");
        }
    }
}

#[test]
fn all_algorithms_agree_on_anticorrelated_data() {
    let ds = anti(256, 9);
    let engine = flat(&ds, Some(8));
    let scorer = LinearScorer::uniform(2);
    let q = DurableQuery { k: 4, tau: 32, interval: Window::new(32, 224) };
    let expected = brute_durable(&ds, &scorer, &q);
    assert!(!expected.is_empty(), "smoke query should return some records");
    for alg in Algorithm::ALL {
        assert_eq!(engine.query(alg, &scorer, &q).records, expected, "alg={alg}");
    }
}

#[test]
fn sharded_engine_matches_unsharded_on_smoke_datasets() {
    for (ds, name) in [(ind(256, 2, 7), "ind"), (anti(256, 9), "anti")] {
        let flat = flat(&ds, Some(16));
        let sharded = durable_topk::EngineConfig::new(ds.dim(), ds.len(), 64)
            .skyband_bound(16)
            .build_from(&ds, 4)
            .expect("build");
        let scorer = LinearScorer::new(vec![0.6, 0.4]);
        for (k, tau, lo, hi) in [(1, 8, 0, 255), (3, 16, 40, 200), (5, 64, 100, 255)] {
            let q = DurableQuery { k, tau, interval: Window::new(lo, hi) };
            for alg in [Algorithm::THop, Algorithm::SHop, Algorithm::SBand, Algorithm::TBase] {
                assert_eq!(
                    sharded.query(alg, &scorer, &q).records,
                    flat.query(alg, &scorer, &q).records,
                    "ds={name} alg={alg} q={q:?}"
                );
            }
        }
    }
}
