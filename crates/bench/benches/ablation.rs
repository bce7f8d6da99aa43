//! Criterion micro-bench for the design-choice ablations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use durable_topk::algorithms::t_hop;
use durable_topk::{Algorithm, LinearScorer, QueryContext};
use durable_topk_bench::{default_query, one_shard};
use durable_topk_index::SkylineSegTree;
use durable_topk_workloads::{nba_attribute, nba_like};

fn bench(c: &mut Criterion) {
    let n = 30_000;
    let ds = nba_like(n, 42).project(&[nba_attribute("points"), nba_attribute("assists")]);
    let scorer = LinearScorer::new(vec![0.5, 0.5]);
    let q = default_query(n);
    let mut g = c.benchmark_group("ablation");
    g.sample_size(10);
    for leaf in [16usize, 128, 1024] {
        let tree = SkylineSegTree::with_leaf_size(&ds, leaf);
        let mut ctx = QueryContext::new();
        g.bench_with_input(BenchmarkId::new("leaf_size_thop", leaf), &q, |b, q| {
            b.iter(|| t_hop(&ds, &tree, &scorer, q, &mut ctx))
        });
    }
    let engine = one_shard(&ds, None);
    for alg in [Algorithm::SHop, Algorithm::SHopTop1] {
        g.bench_with_input(BenchmarkId::new("refill_mode", alg.name()), &q, |b, q| {
            b.iter(|| engine.query(alg, &scorer, q))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
