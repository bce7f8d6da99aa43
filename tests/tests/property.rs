//! Property-based tests (proptest) over the core invariants.

use durable_topk::{Algorithm, DurableQuery, LinearScorer, Window};
use durable_topk_geom::{dominates, k_skyband, skyband_durations, skyline_indices};
use durable_topk_index::{scan_top_k, SkylineSegTree};
use durable_topk_temporal::{Dataset, Scorer};
use durable_topk_tests::flat;
use proptest::prelude::*;

fn dataset_strategy(max_n: usize, d: usize, vals: u32) -> impl Strategy<Value = Dataset> {
    prop::collection::vec(prop::collection::vec(0..vals, d), 1..max_n).prop_map(move |rows| {
        Dataset::from_rows(
            d,
            rows.into_iter().map(|r| r.into_iter().map(|v| v as f64).collect::<Vec<_>>()),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The segment tree agrees with the scan oracle on arbitrary windows.
    #[test]
    fn segtree_matches_scan(
        ds in dataset_strategy(120, 2, 9),
        k in 1usize..6,
        leaf in 1usize..16,
        seed in 0u32..1000,
    ) {
        let n = ds.len() as u32;
        let a = seed % n;
        let b = (seed / 7) % n;
        let w = Window::new(a.min(b), a.max(b));
        let tree = SkylineSegTree::with_leaf_size(&ds, leaf);
        let scorer = LinearScorer::new(vec![0.3, 0.7]);
        prop_assert_eq!(tree.top_k(&ds, &scorer, k, w), scan_top_k(&ds, &scorer, k, w));
    }

    /// All algorithms agree with the brute-force durability definition.
    #[test]
    fn algorithms_match_definition(
        ds in dataset_strategy(80, 2, 5),
        k in 1usize..5,
        tau_raw in 1u32..120,
        seed in 0u32..1000,
    ) {
        let n = ds.len() as u32;
        let tau = 1 + tau_raw % n.max(2);
        let a = seed % n;
        let b = (seed / 3) % n;
        let interval = Window::new(a.min(b), a.max(b));
        let q = DurableQuery { k, tau, interval };
        let engine = flat(&ds, Some(8));
        let scorer = LinearScorer::new(vec![0.6, 0.4]);
        let expected: Vec<u32> = interval
            .iter()
            .filter(|&t| {
                let w = Window::lookback(t, tau);
                let my = scorer.score(ds.row(t));
                w.clamp_to(ds.len())
                    .iter()
                    .filter(|&u| scorer.score(ds.row(u)) > my)
                    .count()
                    < k
            })
            .collect();
        for alg in Algorithm::ALL {
            prop_assert_eq!(&engine.query(alg, &scorer, &q).records, &expected, "alg={}", alg);
        }
    }

    /// Skyline: nothing in the skyline is dominated; everything outside is.
    #[test]
    fn skyline_is_exact(ds in dataset_strategy(100, 3, 6)) {
        let ids: Vec<u32> = (0..ds.len() as u32).collect();
        let sky = skyline_indices(&ds, &ids);
        for &p in &ids {
            let dominated = ids.iter().any(|&q| q != p && dominates(ds.row(q), ds.row(p)));
            prop_assert_eq!(sky.contains(&p), !dominated, "record {}", p);
        }
    }

    /// k-skyband nests: the k-skyband is contained in the (k+1)-skyband.
    #[test]
    fn skyband_nesting(ds in dataset_strategy(80, 2, 6), k in 1usize..5) {
        let ids: Vec<u32> = (0..ds.len() as u32).collect();
        let inner = k_skyband(&ds, &ids, k);
        let outer = k_skyband(&ds, &ids, k + 1);
        prop_assert!(inner.iter().all(|p| outer.contains(p)));
    }

    /// Skyband durations are monotone in k: a larger k never shortens τ_p.
    #[test]
    fn skyband_durations_monotone_in_k(ds in dataset_strategy(80, 2, 6)) {
        let d1 = skyband_durations(&ds, 1);
        let d2 = skyband_durations(&ds, 2);
        let d4 = skyband_durations(&ds, 4);
        for i in 0..ds.len() {
            prop_assert!(d1[i] <= d2[i]);
            prop_assert!(d2[i] <= d4[i]);
        }
    }

    /// Answers always arrive sorted, deduplicated, and inside I.
    #[test]
    fn answers_are_canonical(
        ds in dataset_strategy(60, 2, 8),
        k in 1usize..4,
        tau in 1u32..40,
    ) {
        let n = ds.len() as u32;
        let interval = Window::new(n / 4, (n * 3 / 4).max(n / 4));
        let q = DurableQuery { k, tau, interval };
        let engine = flat(&ds, None);
        let scorer = LinearScorer::uniform(2);
        let r = engine.query(Algorithm::SHop, &scorer, &q);
        prop_assert!(r.records.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        prop_assert!(r.records.iter().all(|&t| interval.contains(t)), "inside I");
    }
}
