//! Criterion micro-bench for the Fig. 9 family: query time as k varies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use durable_topk::{Algorithm, LinearScorer};
use durable_topk_bench::{one_shard, query_pct};
use durable_topk_workloads::{nba_attribute, nba_like};

fn bench(c: &mut Criterion) {
    let n = 30_000;
    let ds = nba_like(n, 42).project(&[nba_attribute("points"), nba_attribute("assists")]);
    let engine = one_shard(&ds, Some(64));
    let scorer = LinearScorer::new(vec![0.6, 0.4]);
    let mut g = c.benchmark_group("vary_k_nba2");
    g.sample_size(10);
    for k in [5usize, 20, 50] {
        for alg in [Algorithm::THop, Algorithm::SBand, Algorithm::SHop] {
            let q = query_pct(n, k, 0.10, 0.50);
            g.bench_with_input(BenchmarkId::new(alg.name(), format!("k{k}")), &q, |b, q| {
                b.iter(|| engine.query(alg, &scorer, q))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
