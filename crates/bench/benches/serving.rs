//! Serving-layer bench: request-queue throughput and seal tail latency.
//!
//! `serve_queue_64req` pushes a mixed 64-request workload through the
//! bounded queue onto the persistent worker pool and waits for every
//! completion handle (ns/iter ÷ 64 = per-request serving cost);
//! `direct_64req` runs the identical workload as plain sequential
//! `ShardedEngine::query` calls — the queue's overhead is the difference.
//! `append_cross_seal` measures a fresh live engine ingesting one full
//! shard span plus one record (exactly one seal).
//!
//! Before the criterion groups run, the harness prints one-shot p50/p99
//! serving latencies and per-append seal tail latencies (p50/p999/max) —
//! the numbers BENCHMARKS.md records, which adaptive ns/iter means cannot
//! show.

use criterion::{criterion_group, criterion_main, Criterion};
use durable_topk::{
    percentile, Algorithm, Backpressure, DurableQuery, EngineConfig, ScorerSpec, ServeEngine,
    ServeRequest, Window,
};
use durable_topk_workloads::ind;
use std::time::{Duration, Instant};

const N: usize = 20_000;
const SPAN: usize = 4_096;
const MAX_TAU: u32 = 512;

/// The mixed workload: algorithms cycled, k/τ/interval varied.
fn request(i: usize, n: u32) -> ServeRequest {
    let algs = [Algorithm::THop, Algorithm::SHop, Algorithm::TBase, Algorithm::SBase];
    let b = (i as u32).wrapping_mul(7919) % n;
    let a = b.saturating_sub(1 + (i as u32).wrapping_mul(104_729) % n);
    ServeRequest {
        alg: algs[i % algs.len()],
        query: DurableQuery {
            k: 1 + i % 5,
            tau: 1 + (i as u32).wrapping_mul(31) % MAX_TAU,
            interval: Window::new(a, b),
        },
        scorer: ScorerSpec::Uniform,
    }
}

/// One-shot serving-latency distribution: 512 requests through the queue.
fn report_serving_percentiles(serve: &ServeEngine, n: u32) {
    let handles: Vec<_> =
        (0..512).map(|i| serve.submit(request(i, n)).expect("accepted")).collect();
    let mut lat: Vec<Duration> = handles
        .into_iter()
        .map(|h| {
            let r = h.wait().expect("served");
            r.queued + r.service
        })
        .collect();
    lat.sort_unstable();
    eprintln!(
        "serving latency over 512 queued requests: p50={:.2?} p99={:.2?} max={:.2?}",
        percentile(&lat, 0.50),
        percentile(&lat, 0.99),
        lat[lat.len() - 1],
    );
}

/// One-shot per-append latency distribution across several seal
/// boundaries. Seal-triggering appends (global id `k·span − 1`) are
/// reported separately: they pay the seal's joins, the chunk store and the
/// fresh head's context replay on top of the forest's own binary-counter
/// joins.
fn report_seal_tail() {
    let rows = ind(4 * SPAN + 64, 2, 11);
    let mut live = EngineConfig::new(2, SPAN, MAX_TAU).build().expect("live config");
    let mut lat = Vec::with_capacity(rows.len());
    let mut seal_lat = Vec::new();
    for id in 0..rows.len() as u32 {
        let t = Instant::now();
        live.append(rows.row(id));
        let elapsed = t.elapsed();
        lat.push(elapsed);
        if (id as usize + 1) % SPAN == 0 {
            seal_lat.push(elapsed);
        }
    }
    lat.sort_unstable();
    seal_lat.sort_unstable();
    eprintln!(
        "append latency ({} appends, {} seals): p50={:.2?} p999={:.2?} max={:.2?}; \
         seal-boundary appends: median={:.2?} max={:.2?}",
        lat.len(),
        seal_lat.len(),
        percentile(&lat, 0.50),
        percentile(&lat, 0.999),
        lat[lat.len() - 1],
        percentile(&seal_lat, 0.50),
        seal_lat[seal_lat.len() - 1],
    );
}

fn bench(c: &mut Criterion) {
    let ds = ind(N, 2, 7);
    let build =
        || EngineConfig::new(2, SPAN, MAX_TAU).build_from(&ds, N.div_ceil(SPAN)).expect("build");
    let serve = ServeEngine::new(build(), 1_024, Backpressure::Block);
    let direct = build();
    let scorer = durable_topk::LinearScorer::uniform(2);

    report_serving_percentiles(&serve, N as u32);
    report_seal_tail();

    let mut g = c.benchmark_group("serving");
    g.sample_size(10);

    g.bench_function("serve_queue_64req", |b| {
        b.iter(|| {
            let handles: Vec<_> =
                (0..64).map(|i| serve.submit(request(i, N as u32)).expect("accepted")).collect();
            handles.into_iter().map(|h| h.wait().expect("served").records.len()).sum::<usize>()
        })
    });

    g.bench_function("direct_64req", |b| {
        b.iter(|| {
            (0..64)
                .map(|i| {
                    let req = request(i, N as u32);
                    direct.query(req.alg, &scorer, &req.query).records.len()
                })
                .sum::<usize>()
        })
    });

    g.bench_function("append_cross_seal", |b| {
        b.iter(|| {
            let mut live = EngineConfig::new(2, SPAN, MAX_TAU).build().expect("config");
            for id in 0..(SPAN + 1) as u32 {
                live.append(ds.row(id));
            }
            live.sealed_shards()
        })
    });

    g.finish();
    serve.shutdown();
}

criterion_group!(benches, bench);
criterion_main!(benches);
