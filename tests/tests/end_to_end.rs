//! End-to-end integration: store vs in-memory engine, complexity bounds,
//! expected-size law, and duration reporting across crates.

use durable_topk::{
    Algorithm, DurableQuery, LinearScorer, SingleAttributeScorer, SkybandCandidates, Window,
};
use durable_topk_index::DurableSkybandIndex;
use durable_topk_store::{t_base_proc, t_hop_proc, RelStore};
use durable_topk_tests::{flat, TempPath};
use durable_topk_workloads::{ind, nba_attribute, nba_like, random_permutation_dataset};

#[test]
fn stored_procedures_match_in_memory_engine() {
    let ds = nba_like(4_000, 77).project(&[nba_attribute("points"), nba_attribute("rebounds")]);
    let engine = flat(&ds, None);
    let mut store = RelStore::create(TempPath::new("e2e.db"), &ds, 64, 128).expect("create");
    let scorer = LinearScorer::new(vec![0.3, 0.7]);
    for (k, tau, lo, hi) in
        [(1usize, 100u32, 500u32, 3999u32), (5, 800, 0, 3999), (10, 2000, 2000, 3500)]
    {
        let q = DurableQuery { k, tau, interval: Window::new(lo, hi) };
        let mem = engine.query(Algorithm::THop, &scorer, &q);
        let (hop, _) = t_hop_proc(&mut store, &scorer, k, q.interval, tau).expect("t-hop");
        let (base, _) = t_base_proc(&mut store, &scorer, k, q.interval, tau).expect("t-base");
        assert_eq!(mem.records, hop, "k={k} tau={tau}");
        assert_eq!(mem.records, base, "k={k} tau={tau}");
    }
}

#[test]
fn lemma1_and_lemma3_bounds_hold() {
    // The number of top-k queries by T-Hop and S-Hop is O(|S| + k⌈|I|/τ⌉);
    // verify the concrete inequality with a generous constant on random
    // data (where the bound is provably tight up to constants).
    let n = 20_000usize;
    let ds = ind(n, 2, 99);
    let engine = flat(&ds, None);
    let scorer = LinearScorer::uniform(2);
    for (k, tau_pct) in [(1usize, 0.05f64), (5, 0.10), (10, 0.25)] {
        let tau = ((n as f64 * tau_pct) as u32).max(1);
        let interval = Window::new((n / 2) as u32, (n - 1) as u32);
        let q = DurableQuery { k, tau, interval };
        let budget_units =
            |s: usize| s as u64 + k as u64 * (interval.len() as u64).div_ceil(tau as u64);
        for alg in [Algorithm::THop, Algorithm::SHop] {
            let r = engine.query(alg, &scorer, &q);
            let bound = 6 * budget_units(r.records.len()) + 20;
            assert!(
                r.stats.topk_queries() <= bound,
                "{alg}: {} queries vs bound {bound} (|S|={}, k={k}, tau={tau})",
                r.stats.topk_queries(),
                r.records.len()
            );
        }
    }
}

#[test]
fn lemma4_expected_answer_size() {
    // E[|S|] = k|I|/(τ+1) under the random permutation model; check the
    // empirical mean lands within 15% over 12 trials.
    let n = 30_000;
    let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let k = 5usize;
    let tau = 1_000u32;
    let interval = Window::new((n / 2) as u32, (n - 1) as u32);
    let expected = k as f64 * interval.len() as f64 / (tau as f64 + 1.0);
    let mut total = 0usize;
    let trials = 12;
    for t in 0..trials {
        let ds = random_permutation_dataset(&values, 1000 + t);
        let engine = flat(&ds, None);
        let scorer = SingleAttributeScorer::new(0);
        let r = engine.query(Algorithm::THop, &scorer, &DurableQuery { k, tau, interval });
        total += r.records.len();
    }
    let mean = total as f64 / trials as f64;
    assert!(
        (mean - expected).abs() / expected < 0.15,
        "measured {mean:.1} vs predicted {expected:.1}"
    );
}

#[test]
fn skyband_candidates_cover_answers_across_parameters() {
    let ds = ind(3_000, 3, 5);
    let engine = flat(&ds, None);
    let idx = DurableSkybandIndex::build(&ds, 16);
    let scorer = LinearScorer::new(vec![0.2, 0.5, 0.3]);
    for k in [1usize, 3, 8, 16] {
        for tau in [10u32, 100, 1_000] {
            let interval = Window::new(1_000, 2_999);
            let q = DurableQuery { k, tau, interval };
            let s = engine.query(Algorithm::THop, &scorer, &q);
            let (c, _) = idx.candidates(interval, tau, k);
            for id in &s.records {
                assert!(c.contains(id), "answer {id} missing from C (k={k}, tau={tau})");
            }
        }
    }
}

#[test]
fn max_duration_consistent_with_query_answers() {
    let ds = nba_like(2_000, 3).project(&[nba_attribute("points")]);
    let engine = flat(&ds, None);
    let scorer = SingleAttributeScorer::new(0);
    let k = 3usize;
    let tau = 300u32;
    let q = DurableQuery { k, tau, interval: Window::new(500, 1_999) };
    let answers = engine.query(Algorithm::SHop, &scorer, &q);
    assert!(!answers.records.is_empty());
    for &id in answers.records.iter().take(20) {
        let (dur, _) = engine.max_duration(&scorer, id, k);
        assert!(dur >= tau, "answer {id} reports duration {dur} < queried tau {tau}");
    }
    // And a record *not* in the answer set must have duration < tau.
    let non_answer = q
        .interval
        .iter()
        .find(|t| !answers.records.contains(t))
        .expect("some record is non-durable");
    let (dur, _) = engine.max_duration(&scorer, non_answer, k);
    assert!(dur < tau, "non-answer {non_answer} reports duration {dur} >= {tau}");
}

#[test]
fn selectivity_monotonicity() {
    // Larger tau or smaller k can only shrink the answer set.
    let ds = ind(5_000, 2, 21);
    let engine = flat(&ds, None);
    let scorer = LinearScorer::uniform(2);
    let interval = Window::new(2_000, 4_999);
    let base =
        engine.query(Algorithm::THop, &scorer, &DurableQuery { k: 5, tau: 200, interval }).records;
    let longer_tau =
        engine.query(Algorithm::THop, &scorer, &DurableQuery { k: 5, tau: 800, interval }).records;
    let smaller_k =
        engine.query(Algorithm::THop, &scorer, &DurableQuery { k: 2, tau: 200, interval }).records;
    assert!(longer_tau.iter().all(|r| base.contains(r)));
    assert!(smaller_k.iter().all(|r| base.contains(r)));
    assert!(longer_tau.len() <= base.len());
    assert!(smaller_k.len() <= base.len());
}
