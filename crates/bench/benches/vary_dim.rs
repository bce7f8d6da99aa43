//! Criterion micro-bench for the Fig. 11 family: dimensionality impact.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use durable_topk::{Algorithm, LinearScorer};
use durable_topk_bench::{default_query, one_shard};
use durable_topk_workloads::network_like;

fn bench(c: &mut Criterion) {
    let n = 12_000;
    let base = network_like(n, 42);
    let mut g = c.benchmark_group("vary_dim_network");
    g.sample_size(10);
    for d in [2usize, 10, 30] {
        let cols: Vec<usize> = (0..d).collect();
        let ds = base.project(&cols);
        let engine = one_shard(&ds, Some(16));
        let scorer = LinearScorer::uniform(d);
        let q = default_query(n);
        for alg in [Algorithm::THop, Algorithm::SBand, Algorithm::SHop] {
            g.bench_with_input(BenchmarkId::new(alg.name(), format!("d{d}")), &q, |b, q| {
                b.iter(|| engine.query(alg, &scorer, q))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
