//! Property-based tests for the indexing substrates.

use durable_topk_geom::Fenwick;
use durable_topk_index::BlockingSet;
use durable_topk_temporal::{
    read_csv, write_csv, CosineScorer, Dataset, LinearScorer, MonotoneCombinationScorer,
    MonotoneTransform, Scorer, SingleAttributeScorer,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseResult;

/// A value drawn from a palette of awkward floats (signed zeros,
/// subnormals, ±1e300) or, otherwise, from `x`.
fn awkward(pick: usize, x: f64) -> f64 {
    match pick {
        0 => -0.0,
        1 => 0.0,
        2 => 5e-324,
        3 => -2.5e-310,
        4 => 1e300,
        5 => -1e300,
        _ => x,
    }
}

/// `score_run` over `rows` equals per-row `score`, bit for bit.
fn run_matches_rows<S: Scorer>(scorer: &S, rows: &[f64], dim: usize) -> TestCaseResult {
    let mut out = vec![f64::NAN; 3];
    scorer.score_run(rows, dim, &mut out);
    let want: Vec<u64> = rows.chunks_exact(dim).map(|r| scorer.score(r).to_bits()).collect();
    let got: Vec<u64> = out.iter().map(|s| s.to_bits()).collect();
    prop_assert_eq!(got, want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fenwick prefix sums agree with a naive accumulator under arbitrary
    /// interleaved updates.
    #[test]
    fn fenwick_matches_naive(
        ops in prop::collection::vec((0usize..64, -3i64..4), 1..200),
        probes in prop::collection::vec(0usize..64, 1..20),
    ) {
        let mut fen = Fenwick::new(64);
        let mut naive = vec![0i64; 64];
        for (i, delta) in ops {
            fen.add(i, delta);
            naive[i] += delta;
        }
        for p in probes {
            let expected: i64 = naive[..=p].iter().sum();
            prop_assert_eq!(fen.prefix(p) as i64, expected);
        }
    }

    /// BlockingSet coverage equals brute-force interval counting, including
    /// the strictly-above variant, when probes arrive in non-increasing
    /// score order (the algorithmic invariant).
    #[test]
    fn blocking_set_matches_brute_force(
        // (left endpoint, score level) — levels descend as the algorithms
        // process candidates; occasional higher-level inserts model the
        // blockers recruited by failed durability checks.
        events in prop::collection::vec((0u32..80, 0u32..12, prop::bool::ANY), 1..120),
        tau in 1u32..30,
    ) {
        let mut set = BlockingSet::new(100, tau);
        let mut brute: Vec<(u32, f64)> = Vec::new();
        // Sort event scores descending to respect the probe invariant, but
        // let the "recruited" flag inject out-of-order higher scores.
        let mut levels: Vec<(u32, u32, bool)> = events;
        levels.sort_by_key(|e| std::cmp::Reverse(e.1));
        for (left, level, _recruited) in levels {
            let score = level as f64;
            let probe_score = score;
            // Probe before inserting (as the algorithms do).
            for t in [left, left.saturating_sub(tau), (left + tau).min(99)] {
                let expected = brute
                    .iter()
                    .filter(|&&(l, s)| l <= t && t <= l + tau && s > probe_score)
                    .count();
                prop_assert_eq!(
                    set.coverage_above(t, probe_score),
                    expected,
                    "t={} score={}", t, probe_score
                );
                let expected_all = brute
                    .iter()
                    .filter(|&&(l, _)| l <= t && t <= l + tau)
                    .count();
                prop_assert_eq!(set.coverage(t), expected_all);
            }
            set.insert(left, score);
            brute.push((left, score));
        }
    }

    /// CSV round-trips arbitrary finite datasets exactly.
    #[test]
    fn csv_roundtrip_exact(
        rows in prop::collection::vec(
            prop::collection::vec(-1e6f64..1e6, 3),
            1..60,
        ),
    ) {
        let ds = Dataset::from_rows(3, rows);
        let mut buf = Vec::new();
        write_csv(&mut buf, &ds, Some(&["a", "b", "c"])).expect("write");
        let imported = read_csv(&buf[..]).expect("read").dataset;
        prop_assert_eq!(imported.raw_attrs(), ds.raw_attrs());
    }

    /// `Scorer::score_run` is bit-identical to scoring row by row, for
    /// every scorer family and every arity from 1 to 6 (the linear
    /// scorer's specialised arms and its generic one alike), on signed
    /// zeros, subnormals, huge values, zero weights and all-zero rows.
    #[test]
    fn score_run_is_bit_identical_to_score(
        dim in 1usize..7,
        weights in prop::collection::vec((0usize..10, 0.0f64..4.0), 6),
        cells in prop::collection::vec((0usize..12, -50.0f64..50.0), 0..96),
        zero_row in 0usize..16,
    ) {
        // Weights are non-negative and finite; a pick of 0 or 1 makes a
        // zero weight, 2 or 3 a subnormal magnitude.
        let w: Vec<f64> = weights[..dim].iter().map(|&(p, x)| awkward(p, x).abs().min(1e300)).collect();
        let mut rows: Vec<f64> = cells.iter().map(|&(p, x)| awkward(p, x)).collect();
        rows.truncate(rows.len() / dim * dim);
        if zero_row * dim < rows.len() {
            rows[zero_row * dim..(zero_row + 1) * dim].fill(0.0);
        }
        run_matches_rows(&LinearScorer::new(w.clone()), &rows, dim)?;
        let transforms = (0..dim).map(|j| [MonotoneTransform::Log1p, MonotoneTransform::Identity, MonotoneTransform::Sqrt, MonotoneTransform::Cube][j % 4]).collect();
        run_matches_rows(&MonotoneCombinationScorer::new(w.clone(), transforms), &rows, dim)?;
        run_matches_rows(&MonotoneCombinationScorer::log1p(w.clone()), &rows, dim)?;
        // Cosine takes signed weights, small enough that their norm stays
        // finite; the first stays away from zero so the vector has a
        // direction.
        let mut signed: Vec<f64> =
            weights[..dim].iter().map(|&(p, x)| awkward(p, x - 2.0).clamp(-1e100, 1e100)).collect();
        signed[0] = 1.0 + signed[0].abs();
        run_matches_rows(&CosineScorer::new(signed), &rows, dim)?;
        run_matches_rows(&SingleAttributeScorer::new(dim - 1), &rows, dim)?;
    }
}

mod stored_oracle {
    use durable_topk::LinearScorer;
    use durable_topk_index::scan_top_k;
    use durable_topk_store::RelStore;
    use durable_topk_temporal::{Dataset, Window};
    use durable_topk_tests::TempPath;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The disk-backed top-k oracle agrees with the in-memory scan on
        /// arbitrary data, windows, and leaf sizes.
        #[test]
        fn stored_topk_matches_scan(
            rows in prop::collection::vec(prop::collection::vec(0u32..40, 2), 2..250),
            k in 1usize..6,
            leaf in 1usize..48,
            seed in 0u32..10_000,
        ) {
            let ds = Dataset::from_rows(
                2,
                rows.iter().map(|r| r.iter().map(|&v| v as f64).collect::<Vec<_>>()),
            );
            let n = ds.len() as u32;
            let a = seed % n;
            let b = (seed / 13) % n;
            let w = Window::new(a.min(b), a.max(b));
            let path = TempPath::new(&format!("prop-store-{seed}-{k}-{leaf}.db"));
            let mut store = RelStore::create(&path, &ds, leaf, 16).expect("create");
            let scorer = LinearScorer::new(vec![0.4, 0.6]);
            let got = store.top_k(&scorer, k, w).expect("stored top-k");
            prop_assert_eq!(got, scan_top_k(&ds, &scorer, k, w));
        }
    }
}
