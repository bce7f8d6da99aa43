//! Ingestion-throughput bench for the live `ShardedEngine`.
//!
//! `append` measures pure arrival cost (amortized forest maintenance plus
//! periodic shard sealing); `append_query` the realistic interleaved
//! regime of a monitoring deployment; `rebuild_query` the from-scratch
//! alternative the incremental path replaces (rebuild the sharded engine
//! at every checkpoint); and `query_pool` steady-state query latency
//! through the persistent worker pool on a sealed engine.

use criterion::{criterion_group, criterion_main, Criterion};
use durable_topk::algorithms::t_hop;
use durable_topk::{
    Algorithm, Dataset, DurableQuery, EngineConfig, LinearScorer, Window, WorkerPool,
};
use durable_topk_index::SkylineSegTree;
use durable_topk_workloads::ind;

const N: usize = 20_000;
const SPAN: usize = 4_096;
const MAX_TAU: u32 = 512;
/// Query cadence of the interleaved series: a monitoring deployment
/// queries far more often than the history doubles, which is exactly the
/// regime where rebuilding from scratch loses to incremental ingestion.
const CHECKPOINT: u32 = 500;

fn checkpoint_query(id: u32) -> DurableQuery {
    DurableQuery { k: 5, tau: 256, interval: Window::new(0, id) }
}

fn bench(c: &mut Criterion) {
    let ds = ind(N, 2, 7);
    let scorer = LinearScorer::uniform(2);
    let mut g = c.benchmark_group("ingest");
    g.sample_size(10);

    g.bench_function("append_20k", |b| {
        b.iter(|| {
            let mut live = EngineConfig::new(2, SPAN, MAX_TAU).build().expect("config");
            for id in 0..N as u32 {
                live.append(ds.row(id));
            }
            live.len()
        })
    });

    g.bench_function("append_20k_query_every_500", |b| {
        b.iter(|| {
            let mut live = EngineConfig::new(2, SPAN, MAX_TAU).build().expect("config");
            let mut durable = 0usize;
            for id in 0..N as u32 {
                live.append(ds.row(id));
                if (id + 1) % CHECKPOINT == 0 {
                    durable +=
                        live.query(Algorithm::THop, &scorer, &checkpoint_query(id)).records.len();
                }
            }
            durable
        })
    });

    g.bench_function("rebuild_20k_query_every_500", |b| {
        b.iter(|| {
            let mut prefix = Dataset::new(2);
            let mut durable = 0usize;
            for id in 0..N as u32 {
                prefix.push(ds.row(id));
                if (id + 1) % CHECKPOINT == 0 {
                    let built = EngineConfig::new(2, SPAN, MAX_TAU)
                        .build_from(&prefix, prefix.len().div_ceil(SPAN))
                        .expect("build");
                    durable +=
                        built.query(Algorithm::THop, &scorer, &checkpoint_query(id)).records.len();
                }
            }
            durable
        })
    });

    let sealed =
        EngineConfig::new(2, SPAN, MAX_TAU).build_from(&ds, N.div_ceil(SPAN)).expect("build");
    let q = DurableQuery { k: 5, tau: 256, interval: Window::new(0, N as u32 - 1) };
    g.bench_function("sharded_query_pool", |b| {
        b.iter(|| sealed.query(Algorithm::THop, &scorer, &q).records.len())
    });

    // Batch fan-out through the pool (was: scoped spawns per batch).
    let tree = SkylineSegTree::build(&ds);
    let scorers: Vec<LinearScorer> =
        (1..=8).map(|i| LinearScorer::new(vec![i as f64, (9 - i) as f64])).collect();
    g.bench_function("batch_run_8_scorers", |b| {
        b.iter(|| {
            let job = |i: usize, ctx: &mut _| t_hop(&ds, &tree, &scorers[i], &q, ctx);
            WorkerPool::global().run_jobs(scorers.len(), 4, job).len()
        })
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
