//! Tiered storage exactness: a paged `PagedStorage` ≡ the in-memory one.
//!
//! The pager is invisible to queries by construction — a sealed tail's
//! record chunk must decode bit-identically after spilling to pager-backed
//! pages and reloading on demand. These properties drive two live engines
//! in lockstep, one with a pager and one without, and require record-for-record
//! identical answers for **every** algorithm at **every** ingestion prefix,
//! with `τ` anywhere from 1 to the whole history — windows reaching back
//! into spilled predecessors fault them in — across at least two spills
//! (`spill_after = 1` keeps only the newest sealed chunk resident).
//!
//! A spilled chunk is read by the rows a piece can touch, aligned to the
//! leaves of its tree; with four-record leaves the window and `τ` edges
//! land mid-leaf, and the answers must not notice.

use durable_topk::{
    Algorithm, DurableQuery, EngineConfig, LinearScorer, PagedStorage, QueryContext, ShardedEngine,
    TopKResult, Window,
};
use durable_topk_store::PAGE_SIZE;
use durable_topk_temporal::Dataset;
use durable_topk_tests::flat;
use proptest::prelude::*;
use std::sync::Arc;

fn rows_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0u32..8, 2), 24..64).prop_map(|rows| {
        rows.into_iter().map(|r| r.into_iter().map(|v| v as f64).collect()).collect()
    })
}

/// A live engine on a paged store, spilling every sealed chunk but the
/// newest.
fn paged_live(span: usize, max_tau: u32, k_max: usize) -> ShardedEngine {
    EngineConfig::new(2, span, max_tau)
        .skyband_bound(k_max)
        .storage(Arc::new(PagedStorage::with_temp_file(1).expect("temp-file backend")))
        .build()
        .expect("paged live config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Lockstep ingestion into an in-memory and a paged engine yields
    /// identical answers for every algorithm at every prefix, S-Band
    /// without fallback, and the run demonstrably crossed the cold tier
    /// (≥ 2 spills, > 0 cold fetches).
    #[test]
    fn paged_engine_matches_memory_at_every_prefix(
        rows in rows_strategy(),
        max_tau in 1u32..16,
        k_max in 1usize..5,
        seed in 0u32..10_000,
    ) {
        let ds = Dataset::from_rows(2, rows);
        let n = ds.len();
        // Small spans force several seals, so spill_after = 1 spills ≥ 2
        // chunks well before ingestion ends.
        let span = (n / 6).max(1);
        let scorer = LinearScorer::new(vec![0.6, 0.4]);
        let mut memory = EngineConfig::new(2, span, max_tau)
            .skyband_bound(k_max)
            .build()
            .expect("memory live config");
        let mut paged = paged_live(span, max_tau, k_max);

        for id in 0..n as u32 {
            memory.append(ds.row(id));
            paged.append(ds.row(id));
            let k = 1 + (id as usize + seed as usize) % k_max;
            let tau = 1 + (seed + id) % (id + 1);
            let a = (seed.wrapping_mul(31) + id) % (id + 1);
            let q = DurableQuery { k, tau, interval: Window::new(a, id) };
            for alg in Algorithm::ALL {
                let warm = memory.query(alg, &scorer, &q);
                let cold = paged.query(alg, &scorer, &q);
                prop_assert_eq!(
                    &cold.records, &warm.records,
                    "engines diverged at prefix {} (alg={} q={:?})", id + 1, alg, q
                );
                prop_assert_eq!(
                    (cold.stats.fallback, warm.stats.fallback), (None, None),
                    "fell back at prefix {} (alg={} q={:?})", id + 1, alg, q
                );
            }
        }

        // The equivalence must have been exercised against spilled chunks,
        // not a run where everything stayed resident.
        let stats = paged.storage().stats();
        prop_assert!(
            stats.spilled_chunks >= 2,
            "the run must spill at least twice (spilled={})", stats.spilled_chunks
        );
        prop_assert!(
            stats.cold_fetches > 0,
            "queries must have faulted spilled chunks back in"
        );

        // Final state: both engines also agree with the flat unsharded
        // engine on the full history.
        let flat = flat(&ds, Some(k_max));
        for alg in Algorithm::ALL {
            let q = DurableQuery {
                k: 1 + seed as usize % k_max,
                tau: 1 + seed % n as u32,
                interval: Window::new(0, (n - 1) as u32),
            };
            let warm = memory.query(alg, &scorer, &q);
            let cold = paged.query(alg, &scorer, &q);
            let reference = flat.query(alg, &scorer, &q);
            prop_assert_eq!(&cold.records, &warm.records, "alg={} q={:?}", alg, q);
            prop_assert_eq!(&cold.records, &reference.records, "alg={} q={:?}", alg, q);
        }
    }

    /// With leaf size 4, windows and `τ` reaching into spilled chunks cut
    /// leaves in two: every algorithm and the building-block `top_k_into`
    /// still answer exactly as over memory.
    #[test]
    fn mid_leaf_edges_over_spilled_chunks_match_memory(
        rows in prop::collection::vec(prop::collection::vec(0u32..8, 2), 60..160),
        max_tau in 1u32..24,
        probes in prop::collection::vec((1usize..5, 1u32..200, 0u32..200, 0u32..200), 8..16),
    ) {
        let ds = Dataset::from_rows(
            2,
            rows.into_iter().map(|r| r.into_iter().map(f64::from).collect::<Vec<_>>()),
        );
        let n = ds.len() as u32;
        let cfg = EngineConfig::new(2, (n as usize / 6).max(1), max_tau).skyband_bound(4).leaf_size(4);
        let mut memory = cfg.clone().build().expect("memory config");
        let paged = Arc::new(PagedStorage::with_temp_file(1).expect("temp-file backend"));
        let mut spilled = cfg.storage(paged).build().expect("paged config");
        for id in 0..n {
            memory.append(ds.row(id));
            spilled.append(ds.row(id));
        }
        let scorer = LinearScorer::new(vec![0.3, 0.7]);
        let (mut ctx, mut got, mut want) = (QueryContext::new(), TopKResult::empty(), TopKResult::empty());
        for (k, tau, a, b) in probes {
            let (a, b) = (a % n, b % n);
            let interval = Window::new(a.min(b), a.max(b));
            let q = DurableQuery { k, tau, interval };
            for alg in Algorithm::ALL {
                prop_assert_eq!(
                    &spilled.query(alg, &scorer, &q).records,
                    &memory.query(alg, &scorer, &q).records,
                    "alg={} q={:?}", alg, q
                );
            }
            spilled.top_k_into(&scorer, k, interval, &mut ctx, &mut got);
            memory.top_k_into(&scorer, k, interval, &mut ctx, &mut want);
            prop_assert_eq!(&got, &want, "top_k_into k={} w={:?}", k, interval);
        }
        prop_assert!(spilled.storage().stats().cold_fetches > 0, "spilled chunks must be read");
    }
}

/// A narrow query over one spilled shard faults in only the pages its
/// leaf-aligned rows span, not the chunk.
#[test]
fn narrow_query_over_a_spilled_shard_reads_only_its_leaves_pages() {
    const SPAN: u32 = 4_096;
    // Four frames: writing later chunks evicts the first one's pages, so
    // the query below finds them cold.
    let paged = Arc::new(
        PagedStorage::create(
            std::env::temp_dir().join(format!("durable-topk-narrow-{}.db", std::process::id())),
            4,
            1,
        )
        .expect("paged backend"),
    );
    let mut engine = EngineConfig::new(2, SPAN as usize, 64)
        .leaf_size(4)
        .storage(paged)
        .build()
        .expect("config");
    for id in 0..3 * SPAN {
        let x = f64::from((id * 37) % 101);
        engine.append(&[x, 100.0 - x]);
    }
    assert!(engine.storage().stats().spilled_chunks >= 2);
    let (tau, interval) = (5, Window::new(1_000, 1_010));
    let q = DurableQuery { k: 3, tau, interval };
    let got = engine.query(Algorithm::THop, &LinearScorer::new(vec![0.5, 0.5]), &q);
    // Sealed leaves hold at most two records, so the leaf-aligned rows lie
    // within one record of [start − τ, end]; rows are 16 bytes after a
    // 32-byte header.
    let byte = |row: u32| 32 + 16 * row as usize;
    let (lo, hi) = (interval.start() - tau - 1, interval.end() + 1);
    let spanned = ((byte(hi + 1) - 1) / PAGE_SIZE - byte(lo) / PAGE_SIZE + 1) as u64;
    let hits = got.stats.cold_page_hits;
    assert!(hits > 0, "the shard is spilled, its pages must be faulted in");
    assert!(hits <= spanned, "{hits} cold pages for rows spanning {spanned}");
    let whole = byte(SPAN).div_ceil(PAGE_SIZE) as u64;
    assert!(hits < whole, "a whole-chunk read costs {whole} pages");
}

/// On a device that takes no write, no chunk ever spills: every one stays
/// resident, counts as a write failure, and the engine answers like the
/// default one.
#[test]
fn an_engine_on_a_full_device_answers_from_resident_chunks() {
    let ds =
        Dataset::from_rows(2, (0..300).map(|i| [((i * 37) % 101) as f64, ((i * 73) % 97) as f64]));
    let full = Arc::new(PagedStorage::create("/dev/full", 16, 1).expect("open /dev/full"));
    let cfg = EngineConfig::new(2, 32, 24).skyband_bound(4);
    let memory = cfg.clone().build_from(&ds, 9).expect("config");
    let failing = cfg.storage(full).build_from(&ds, 9).expect("config");
    let stats = failing.storage().stats();
    assert_eq!((stats.chunks, stats.spilled_chunks), (9, 0));
    assert_eq!(failing.storage().write_failures(), 9);
    let scorer = LinearScorer::new(vec![0.4, 0.6]);
    for (k, tau, a, b) in [(2, 40, 0, 299), (3, 100, 150, 290), (1, 7, 31, 33)] {
        let q = DurableQuery { k, tau, interval: Window::new(a, b) };
        for alg in Algorithm::ALL {
            assert_eq!(
                failing.query(alg, &scorer, &q).records,
                memory.query(alg, &scorer, &q).records,
                "alg={alg} q={q:?}"
            );
        }
    }
}
