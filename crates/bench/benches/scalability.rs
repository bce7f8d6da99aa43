//! Criterion micro-bench for the Fig. 12 family: input-size scaling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use durable_topk::{Algorithm, LinearScorer};
use durable_topk_bench::{default_query, one_shard};
use durable_topk_workloads::{anti, ind};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("scalability");
    g.sample_size(10);
    for n in [10_000usize, 40_000, 160_000] {
        for dist in ["IND", "ANTI"] {
            let ds = if dist == "IND" { ind(n, 2, 42) } else { anti(n, 42) };
            let engine = one_shard(&ds, Some(16));
            let scorer = LinearScorer::uniform(2);
            let q = default_query(n);
            for alg in [Algorithm::THop, Algorithm::SHop] {
                g.bench_with_input(
                    BenchmarkId::new(format!("{}_{dist}", alg.name()), n),
                    &q,
                    |b, q| b.iter(|| engine.query(alg, &scorer, q)),
                );
            }
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
