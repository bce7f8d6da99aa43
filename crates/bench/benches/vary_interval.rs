//! Criterion micro-bench for the Fig. 10 family: query time as |I| varies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use durable_topk::{Algorithm, LinearScorer};
use durable_topk_bench::{one_shard, query_pct};
use durable_topk_workloads::network_like;

fn bench(c: &mut Criterion) {
    let n = 40_000;
    let ds = network_like(n, 42).project(&[0, 1]);
    let engine = one_shard(&ds, Some(16));
    let scorer = LinearScorer::new(vec![0.5, 0.5]);
    let mut g = c.benchmark_group("vary_interval_network2");
    g.sample_size(10);
    for pct in [0.10f64, 0.40, 0.80] {
        for alg in [Algorithm::TBase, Algorithm::THop, Algorithm::SHop] {
            let q = query_pct(n, 10, 0.10, pct);
            g.bench_with_input(
                BenchmarkId::new(alg.name(), format!("I{}%", (pct * 100.0) as u32)),
                &q,
                |b, q| b.iter(|| engine.query(alg, &scorer, q)),
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
