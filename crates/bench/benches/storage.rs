//! Storage-tier bench: hot vs cold query latency and resident-set size.
//!
//! Two live engines ingest the same 20k-record stream: the default engine
//! keeps every sealed chunk in memory (a `PagedStorage` without a pager),
//! the other spills all but the newest two to pager-backed pages, as the
//! CLI's `--spill-after 2` does. The criterion group then queries the
//! *oldest* interval — resident on the default engine, spilled on the
//! paged one — so `query_cold_paged ÷ query_hot_memory` is the cold-tier
//! premium a query pays to fault and decode its chunks.
//! `query_warm_paged` hits the newest (still-resident) interval, showing
//! the paged engine matches the in-memory path when no fault occurs.
//!
//! Before the group runs, the harness prints a one-shot resident-set
//! report: raw dataset bytes, each store's `resident_bytes()`, and the
//! spill counters — the numbers BENCHMARKS.md's storage table records.
//! The dataset-bytes line is the yardstick: the shards are the only copy
//! of the history, so the in-memory store should sit close to it.

use criterion::{criterion_group, criterion_main, Criterion};
use durable_topk::{
    Algorithm, Dataset, DurableQuery, EngineConfig, LinearScorer, PagedStorage, ShardedEngine,
    Window,
};
use durable_topk_workloads::ind;
use std::sync::Arc;

const N: usize = 20_000;
const SPAN: usize = 2_048;
const MAX_TAU: u32 = 256;
/// Sealed chunks the paged engine keeps resident.
const SPILL_AFTER: usize = 2;

/// Ingests the whole stream into a live engine, in memory or paged.
fn grow(ds: &Dataset, paged: bool) -> ShardedEngine {
    let mut config = EngineConfig::new(2, SPAN, MAX_TAU);
    if paged {
        config = config
            .storage(Arc::new(PagedStorage::with_temp_file(SPILL_AFTER).expect("temp-file pager")));
    }
    let mut live = config.build().expect("live config");
    for id in 0..ds.len() as u32 {
        live.append(ds.row(id));
    }
    live
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn bench(c: &mut Criterion) {
    let ds = ind(N, 2, 7);
    let memory = grow(&ds, false);
    let paged = grow(&ds, true);
    let scorer = LinearScorer::uniform(2);

    let mem_stats = memory.storage().stats();
    let paged_stats = paged.storage().stats();
    eprintln!(
        "resident set over {N} records: dataset={:.2} MiB; in memory={:.2} MiB ({} chunks, \
         all resident); paged (spill_after={SPILL_AFTER})={:.2} MiB ({} of {} chunks spilled)",
        mib(ds.heap_bytes()),
        mib(memory.storage().resident_bytes()),
        mem_stats.chunks,
        mib(paged.storage().resident_bytes()),
        paged_stats.spilled_chunks,
        paged_stats.chunks,
    );

    // The oldest chunks: resident on the default engine, spilled on the
    // paged one — the same query is hot there and cold here. Cold stays
    // cold across iterations because faulted chunks are decoded per fetch,
    // not re-admitted to the resident tier.
    let old = DurableQuery { k: 5, tau: MAX_TAU, interval: Window::new(0, (2 * SPAN - 1) as u32) };
    let new = DurableQuery {
        k: 5,
        tau: MAX_TAU,
        interval: Window::new((N - 2 * SPAN) as u32, (N - 1) as u32),
    };

    let mut g = c.benchmark_group("storage");
    g.sample_size(20);

    g.bench_function("query_hot_memory", |b| {
        b.iter(|| memory.query(Algorithm::SHop, &scorer, &old).records.len())
    });
    g.bench_function("query_cold_paged", |b| {
        b.iter(|| paged.query(Algorithm::SHop, &scorer, &old).records.len())
    });
    g.bench_function("query_warm_paged", |b| {
        b.iter(|| paged.query(Algorithm::SHop, &scorer, &new).records.len())
    });

    g.finish();

    let after = paged.storage().stats();
    eprintln!(
        "paged engine after the group: {} fetches ({} cold), {} cold page reads",
        after.fetches, after.cold_fetches, after.cold_page_reads,
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
