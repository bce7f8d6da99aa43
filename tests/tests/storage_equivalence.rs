//! Tiered storage at its edges: what a spilled chunk costs to read, and
//! an engine whose device takes no write.
//!
//! A spilled chunk is read by the rows a piece can touch, aligned to the
//! leaves of its tree, not as a whole. A paged engine answers like brute
//! force for every algorithm at every prefix across spills: the model in
//! `durable_topk_tests::model`, run on paged storage.

use durable_topk::{Algorithm, DurableQuery, EngineConfig, LinearScorer, PagedStorage, Window};
use durable_topk_store::PAGE_SIZE;
use durable_topk_temporal::Dataset;
use durable_topk_tests::model::{check, Front, Op, Setup, EVERY_DOOR};
use std::sync::Arc;

/// A narrow query over one spilled shard faults in only the pages its
/// leaf-aligned rows span, not the chunk.
#[test]
fn narrow_query_over_a_spilled_shard_reads_only_its_leaves_pages() {
    const SPAN: u32 = 4_096;
    // Four frames: writing later chunks evicts the first one's pages, so
    // the query below finds them cold. The pager keeps its file open, so
    // the path can go at once.
    let path = std::env::temp_dir().join(format!("durable-topk-narrow-{}.db", std::process::id()));
    let paged = Arc::new(PagedStorage::create(&path, 4, 1).expect("paged backend"));
    std::fs::remove_file(&path).expect("unlink the pager's file");
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

/// Paged engines, one chunk resident, answer every algorithm like brute
/// force at every prefix, behind every door, across spills.
#[test]
fn paged_engine_matches_memory_at_every_prefix() {
    let paged = |s: &mut Setup, _: &mut [Op]| s.paged = true;
    let exercised = ["two spills, read back"];
    check("paged_engine_matches_memory", 12, &EVERY_DOOR, paged, &exercised);
}

/// Leaves of 2, 4 and 8 records over spilled chunks: queries and
/// `top_k_into` whose windows end mid-leaf read the right rows back.
#[test]
fn mid_leaf_edges_over_spilled_chunks_match_memory() {
    let paged = |s: &mut Setup, _: &mut [Op]| s.paged = true;
    let exercised = ["two spills, read back", "a top-k probe"];
    let doors = &[Front::Direct, Front::Serve];
    check("mid_leaf_edges_over_spilled_chunks", 12, doors, paged, &exercised);
}
