//! Sealed-shard result-cache bench: the memoization claim in numbers.
//!
//! Three latency points bound the cache's value: `query_direct_uncached`
//! is what every probe of a sealed tail costs without the cache,
//! `query_hot_hit` is the memoized replay (key hash + clone of the
//! answer), and `query_miss_tiny_budget` is the probe-plus-failed-admit
//! overhead a miss adds on top of the recompute (a 1-byte budget admits
//! nothing, so every probe stays a miss forever).
//!
//! `zipf_mix_cached` replays a skewed scorer mix — rank-r of a 12-scorer
//! pool gets ~1/r of the traffic, the shape of a serving tier where a few
//! preference vectors dominate — and the one-shot report before the group
//! prints the steady-state hit rate the budget sustains. The seal-storm
//! pair streams a batch across several shard seals with eight *verified*
//! standing subscriptions: every seal re-runs every subscription's full
//! recompute over the sealed prefix, which is exactly the repeated
//! sealed-tail traffic the cache absorbs.

use criterion::{criterion_group, criterion_main, Criterion};
use durable_topk::{
    Algorithm, Backpressure, Dataset, DurableQuery, EngineConfig, LinearScorer, PagedStorage,
    ScorerSpec, ServeEngine, ServeRequest, ShardedEngine, Window,
};
use durable_topk_workloads::ind;
use std::sync::Arc;
use std::time::Instant;

const N: usize = 20_000;
const SPAN: usize = 2_048;
const MAX_TAU: u32 = 256;
/// Sealed chunks the paged engine keeps resident.
const SPILL_AFTER: usize = 2;
/// Default cache budget for the cached engines (32 MiB).
const BUDGET: usize = 32 << 20;

/// Seal-storm shape: a short span forces a seal every 512 appends.
const STORM_BASE: usize = 1_024;
const STORM_BATCH: usize = 2_048;
const STORM_SPAN: usize = 512;
const STORM_SUBS: usize = 8;

/// Ingests the whole stream into a live paged engine, optionally fronted
/// by a result cache with the given byte budget.
fn grow(ds: &Dataset, cache_budget: Option<usize>) -> ShardedEngine {
    let mut config = EngineConfig::new(2, SPAN, MAX_TAU)
        .storage(Arc::new(PagedStorage::with_temp_file(SPILL_AFTER).expect("temp-file pager")));
    if let Some(budget) = cache_budget {
        config = config.result_cache(budget);
    }
    let mut live = config.build().expect("paged live config");
    for id in 0..ds.len() as u32 {
        live.append(ds.row(id));
    }
    live
}

/// The skewed scorer pool: rank r gets ~1/(r+1) of the replayed traffic.
fn zipf_pool() -> (Vec<LinearScorer>, Vec<usize>) {
    let pool: Vec<LinearScorer> = (0..12)
        .map(|i| {
            let w = 0.2 + 0.05 * i as f64;
            LinearScorer::new(vec![w, 1.0 - w])
        })
        .collect();
    let mut seq = Vec::new();
    for r in 0..pool.len() {
        for _ in 0..(24 / (r + 1)) {
            seq.push(r);
        }
    }
    (pool, seq)
}

/// One-shot hit-rate report: the zipfian mix against the cached engine,
/// plus the storage counters proving hits skip the cold tier.
fn report_zipf_hit_rate(engine: &ShardedEngine) {
    let (pool, seq) = zipf_pool();
    let q = DurableQuery { k: 5, tau: MAX_TAU, interval: Window::new(0, (N - 1) as u32) };
    let t = Instant::now();
    let rounds = 2_000;
    for i in 0..rounds {
        // A fixed multiplier walk through the frequency table stands in
        // for a shuffled arrival order without any run-time randomness.
        let scorer = &pool[seq[(i * 17) % seq.len()]];
        std::hint::black_box(engine.query(Algorithm::SHop, scorer, &q).records.len());
    }
    let per_query = t.elapsed().as_nanos() as f64 / rounds as f64;
    let stats = engine.result_cache().expect("cache configured").stats();
    let rate = stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64;
    eprintln!(
        "zipfian 12-scorer mix over {N} records: {per_query:.0} ns/query, hit rate \
         {:.1}% ({} hits, {} misses, {} evictions, {} bytes resident)",
        rate * 100.0,
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.resident_bytes,
    );
}

fn storm_row(i: usize) -> [f64; 2] {
    let x = ((i * 37) % 101) as f64;
    [x, 101.0 - x]
}

/// Streams the seal-storm batch with verified subscriptions and returns
/// ns per append; every seal re-verifies every subscription with a full
/// recompute over the sealed prefix.
fn seal_storm(cache_budget: Option<usize>) -> f64 {
    let mut config = EngineConfig::new(2, STORM_SPAN, 64);
    if let Some(budget) = cache_budget {
        config = config.result_cache(budget);
    }
    let mut engine = config.build().expect("storm config");
    for i in 0..STORM_BASE {
        engine.append(&storm_row(i));
    }
    let serving = ServeEngine::new(engine, 64, Backpressure::Block);
    for s in 0..STORM_SUBS {
        let req = ServeRequest {
            alg: Algorithm::THop,
            query: DurableQuery {
                k: 1 + s % 4,
                tau: 1 + (s as u32) * 7 % 64,
                interval: Window::new(0, u32::MAX),
            },
            scorer: ScorerSpec::Uniform,
        };
        serving.subscribe_verified(req).expect("valid subscription");
    }
    let t = Instant::now();
    for i in STORM_BASE..STORM_BASE + STORM_BATCH {
        serving.append(&storm_row(i)).expect("arity matches");
    }
    let per_append = t.elapsed().as_nanos() as f64 / STORM_BATCH as f64;
    serving.shutdown();
    per_append
}

fn bench(c: &mut Criterion) {
    let ds = ind(N, 2, 7);
    let uncached = grow(&ds, None);
    let cached = grow(&ds, Some(BUDGET));
    let starved = grow(&ds, Some(1));
    let scorer = LinearScorer::uniform(2);
    // The oldest interval: spilled on this engine, so the direct path
    // pays a cold fault per probe — the traffic the cache absorbs.
    let q = DurableQuery { k: 5, tau: MAX_TAU, interval: Window::new(0, (2 * SPAN - 1) as u32) };

    // Warm the hit path once so the group measures steady-state replays.
    std::hint::black_box(cached.query(Algorithm::SHop, &scorer, &q).records.len());
    report_zipf_hit_rate(&cached);

    let mut g = c.benchmark_group("result_cache");
    g.sample_size(10);

    g.bench_function("query_direct_uncached", |b| {
        b.iter(|| uncached.query(Algorithm::SHop, &scorer, &q).records.len())
    });
    g.bench_function("query_hot_hit", |b| {
        b.iter(|| cached.query(Algorithm::SHop, &scorer, &q).records.len())
    });
    g.bench_function("query_miss_tiny_budget", |b| {
        b.iter(|| starved.query(Algorithm::SHop, &scorer, &q).records.len())
    });

    let (pool, seq) = zipf_pool();
    let mut i = 0usize;
    g.bench_function("zipf_mix_cached", |b| {
        b.iter(|| {
            i += 1;
            let scorer = &pool[seq[(i * 17) % seq.len()]];
            cached.query(Algorithm::SHop, scorer, &q).records.len()
        })
    });

    g.bench_function("seal_storm_8subs_uncached", |b| b.iter(|| seal_storm(None)));
    g.bench_function("seal_storm_8subs_cached", |b| b.iter(|| seal_storm(Some(BUDGET))));

    g.finish();

    let stats = cached.result_cache().expect("cache configured").stats();
    let storage = cached.storage().stats();
    eprintln!(
        "cached engine after the group: {} hits, {} misses, {} evictions, {} bytes resident; \
         storage paid {} cold fetches",
        stats.hits, stats.misses, stats.evictions, stats.resident_bytes, storage.cold_fetches,
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
