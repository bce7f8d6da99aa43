//! Cost and payoff of incremental skyband durations on the live path.
//!
//! The `append_*` pair prices the head's skyband index itself: identical
//! ingestion runs with the durable k-skyband off (S-Band falls back to
//! S-Hop on the head) and on (S-Band native everywhere). The `head_*`
//! pair measures what that buys: the same `DurTop` query against a head
//! shard that never sealed, answered by native S-Band versus S-Hop — the
//! algorithm the old fallback substituted.
//!
//! The `skyband_build` series prices the backward scan at the
//! benchmark's `adhoc_uncached` shape: the static durations of one
//! `build_from` shard, the head's context bootstrap (a copy of the rows and
//! their block corners), and the inheritance that replaces it at a seal.

use criterion::{criterion_group, criterion_main, Criterion};
use durable_topk::{
    Algorithm, Dataset, DurableQuery, EngineConfig, IncrementalSkybandIndex, LinearScorer,
    RecordId, Window,
};
use durable_topk_index::DurableSkybandIndex;
use durable_topk_workloads::ind;

const N: usize = 20_000;
const SPAN: usize = 4_096;
const MAX_TAU: u32 = 512;
const K_MAX: usize = 8;

/// Records kept entirely in the mutable head for the query pair: a span
/// no run ever reaches.
const HEAD_N: usize = 8_192;

fn bench(c: &mut Criterion) {
    let ds = ind(N, 2, 7);
    let scorer = LinearScorer::uniform(2);
    let mut g = c.benchmark_group("skyband_ingest");
    g.sample_size(10);

    g.bench_function("append_20k_no_skyband", |b| {
        b.iter(|| {
            let mut live = EngineConfig::new(2, SPAN, MAX_TAU).build().expect("config");
            for id in 0..N as u32 {
                live.append(ds.row(id));
            }
            live.len()
        })
    });

    g.bench_function("append_20k_skyband_k8", |b| {
        b.iter(|| {
            let mut live = EngineConfig::new(2, SPAN, MAX_TAU)
                .skyband_bound(K_MAX)
                .build()
                .expect("live config");
            for id in 0..N as u32 {
                live.append(ds.row(id));
            }
            live.len()
        })
    });

    // A pure head shard: span larger than the run, so every record stays
    // in the appendable forest — the regime the S-Hop fallback used to
    // own exclusively.
    let mut head = EngineConfig::new(2, HEAD_N * 2, MAX_TAU)
        .skyband_bound(K_MAX)
        .build()
        .expect("head config");
    for id in 0..HEAD_N as u32 {
        head.append(ds.row(id));
    }
    assert_eq!(head.sealed_shards(), 0, "the whole run must stay in the head");
    let q = DurableQuery { k: 5, tau: 256, interval: Window::new(0, HEAD_N as u32 - 1) };
    let native = head.query(Algorithm::SBand, &scorer, &q);
    assert!(native.stats.fallback.is_none(), "the head must serve S-Band natively");
    assert_eq!(
        native.records,
        head.query(Algorithm::SHop, &scorer, &q).records,
        "both series must answer identically"
    );

    g.bench_function("head_sband_native", |b| {
        b.iter(|| head.query(Algorithm::SBand, &scorer, &q).records.len())
    });

    g.bench_function("head_shop_fallback_equivalent", |b| {
        b.iter(|| head.query(Algorithm::SHop, &scorer, &q).records.len())
    });

    g.finish();
}

/// One `adhoc_uncached` shard: 15 385 owned records after 20 000 of
/// context, three uniform attributes, levels up to `k_max = 20`.
const SHARD_ROWS: usize = 35_385;
const CONTEXT: usize = 20_000;
const BUILD_K_MAX: usize = 20;

fn bench_build(c: &mut Criterion) {
    let shard = ind(SHARD_ROWS, 3, 11);
    let rows = |lo: usize, hi: usize| {
        Dataset::from_rows(3, (lo..hi).map(|i| shard.row(i as RecordId)).collect::<Vec<_>>())
    };
    // A head bootstrapped over the first 20 000 records and grown over the
    // rest, so it is full when a seal hands its state on.
    let mut grown = rows(0, CONTEXT);
    let mut head = IncrementalSkybandIndex::with_context(&grown, BUILD_K_MAX);
    for id in CONTEXT..SHARD_ROWS {
        grown.push(shard.row(id as RecordId));
        head.push(&grown);
    }
    let context = rows(SHARD_ROWS - CONTEXT, SHARD_ROWS);
    let from = (SHARD_ROWS - CONTEXT) as RecordId;

    let mut g = c.benchmark_group("skyband_build");
    g.sample_size(10);
    g.bench_function("static_shard_35k_k20", |b| {
        b.iter(|| DurableSkybandIndex::build_owned(&shard, BUILD_K_MAX, CONTEXT as RecordId))
    });
    g.bench_function("context_bootstrap_20k_k20", |b| {
        b.iter(|| IncrementalSkybandIndex::with_context(&context, BUILD_K_MAX))
    });
    g.bench_function("seal_inheritance_20k_k20", |b| b.iter(|| head.inherit(&grown, from)));
    g.finish();
}

criterion_group!(benches, bench, bench_build);
criterion_main!(benches);
