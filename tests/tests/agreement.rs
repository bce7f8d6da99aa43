//! Cross-algorithm agreement: the paper's five algorithms (plus variants)
//! must return identical answer sets on every workload family.

use durable_topk::{Algorithm, DurableQuery, LinearScorer, MonotoneCombinationScorer, Window};
use durable_topk_temporal::Dataset;
use durable_topk_tests::{brute_durable, flat};
use durable_topk_workloads::{anti, ind, nba_attribute, nba_like, network_like, preference_suite};
use rand::prelude::*;

fn check_all(ds: Dataset, seed: u64, queries: usize) {
    let n = ds.len();
    let d = ds.dim();
    let engine = flat(&ds, Some(16));
    let mut rng = StdRng::seed_from_u64(seed);
    for (qi, u) in preference_suite(d, queries, seed).into_iter().enumerate() {
        let scorer = LinearScorer::new(u);
        let a = rng.random_range(0..n as u32);
        let b = rng.random_range(0..n as u32);
        let q = DurableQuery {
            k: rng.random_range(1..12),
            tau: rng.random_range(1..(n as u32 / 2).max(2)),
            interval: Window::new(a.min(b), a.max(b)),
        };
        let expected = brute_durable(&ds, &scorer, &q);
        for alg in Algorithm::ALL {
            let got = engine.query(alg, &scorer, &q);
            assert_eq!(got.records, expected, "q{qi} alg={alg} params={q:?}");
        }
    }
}

#[test]
fn agreement_on_ind() {
    check_all(ind(600, 2, 11), 11, 6);
}

#[test]
fn agreement_on_anti() {
    check_all(anti(600, 12), 12, 6);
}

#[test]
fn agreement_on_nba_like() {
    let ds = nba_like(700, 13).project(&[nba_attribute("points"), nba_attribute("assists")]);
    check_all(ds, 13, 6);
}

#[test]
fn agreement_on_network_5d() {
    let ds = network_like(500, 14).project(&[0, 1, 2, 3, 4]);
    check_all(ds, 14, 5);
}

#[test]
fn agreement_on_tie_heavy_data() {
    // Tiny value alphabet: nearly every score collides.
    let mut rng = StdRng::seed_from_u64(15);
    let rows: Vec<[f64; 2]> =
        (0..500).map(|_| [rng.random_range(0..3) as f64, rng.random_range(0..3) as f64]).collect();
    check_all(Dataset::from_rows(2, rows), 15, 8);
}

/// `Log1p` below zero: strictly ordered negative values must stay ordered
/// after the transform, or S-Band's skyband drops records that tie with
/// their dominators on score.
#[test]
fn sband_matches_tbase_on_negative_ties_under_log1p() {
    let mut rng = StdRng::seed_from_u64(17);
    let rows: Vec<[f64; 2]> = (0..400)
        .map(|_| [rng.random_range(-3..2) as f64, rng.random_range(-3..2) as f64])
        .collect();
    let ds = Dataset::from_rows(2, rows);
    let engine = flat(&ds, Some(4));
    let scorer = MonotoneCombinationScorer::log1p(vec![0.5, 0.5]);
    for (k, tau) in [(1, 10), (2, 40), (4, 150)] {
        let q = DurableQuery { k, tau, interval: Window::new(0, 399) };
        let want = engine.query(Algorithm::TBase, &scorer, &q);
        let got = engine.query(Algorithm::SBand, &scorer, &q);
        assert_eq!(got.records, want.records, "k={k} tau={tau}");
        assert_eq!(got.stats.fallback, None);
    }
}

#[test]
fn agreement_on_constant_data() {
    // All records identical: everyone ties; every record is durable for
    // every tau and k.
    let ds = Dataset::from_rows(2, std::iter::repeat_n([1.0, 1.0], 200));
    let engine = flat(&ds, Some(4));
    let scorer = LinearScorer::uniform(2);
    let q = DurableQuery { k: 1, tau: 50, interval: Window::new(0, 199) };
    for alg in Algorithm::ALL {
        let got = engine.query(alg, &scorer, &q);
        assert_eq!(got.records.len(), 200, "alg={alg}");
    }
}

#[test]
fn agreement_on_monotone_decreasing_data() {
    // Strictly decreasing scores: only records within tau of a higher
    // predecessor are excluded — i.e. for k=1 only the first record of I
    // plus anything whose window clamps... brute force decides.
    let ds = Dataset::from_rows(1, (0..300).map(|i| [(300 - i) as f64]));
    check_all(ds, 16, 4);
}

#[test]
fn agreement_on_strictly_increasing_data() {
    // Every record beats all predecessors: everything is durable.
    let ds = Dataset::from_rows(1, (0..300).map(|i| [i as f64]));
    let engine = flat(&ds, Some(4));
    let scorer = LinearScorer::uniform(1);
    let q = DurableQuery { k: 3, tau: 100, interval: Window::new(50, 299) };
    for alg in Algorithm::ALL {
        assert_eq!(engine.query(alg, &scorer, &q).records.len(), 250, "alg={alg}");
    }
}
