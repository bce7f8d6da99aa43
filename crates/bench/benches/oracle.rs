//! Criterion micro-bench for the top-k building block itself.
//!
//! The `segtree`/`scan` series use the scratch-reuse path
//! ([`TopKOracle::top_k_into`]) — the steady-state regime of the query
//! pipeline; `segtree_alloc` measures the one-off allocating wrapper for
//! comparison.
//!
//! `segtree` repeats one identical probe, so after the first iteration
//! every node bound comes out of the scratch's memo — the best case. The
//! series that bracket what a request really sees: `segtree_fresh_scorer`
//! changes the preference every iteration (every bound is computed, the
//! memo only costs its bookkeeping), `segtree_slide` keeps the preference
//! and steps the window back by one (T-Hop's pattern: most bounds were
//! seen by the previous probe), and `segtree_slide_dyn` is the same probe
//! reached through `&dyn OracleScorer`, as `ScorerSpec::Custom` is.
//!
//! `refill_k20` is S-Hop's refill shape: `k = 20`, floor `−∞`, one
//! τ = 1 000 window per probe sliding across the seam of two adjacent
//! trees (one [`top_k_over`] search over both), three attributes as in the
//! benchmark workloads. With twenty winners the threshold heap and the
//! frontier see real traffic, so this series isolates their cost.
//!
//! The `durable_check` group times one durability check two ways: `floored`
//! is [`TopKOracle::durable_into`], whose search stops below the record's
//! score, and `full` is `top_k_into` plus `admits_score`, the search down to
//! the window's k-th score. `durable` checks the best record of the last
//! τ = 1 000 (a floored search stops almost at once), `non_durable` the
//! worst (both searches must produce `π≤k`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use durable_topk::{
    LinearScorer, OracleScorer, OracleScratch, ScanOracle, Scorer, TopKOracle, TopKResult, Window,
};
use durable_topk_index::{top_k_over, Part, SkylineSegTree};
use durable_topk_workloads::ind;

fn bench(c: &mut Criterion) {
    let n = 100_000u32;
    let ds = &ind(n as usize, 2, 42);
    let seg = SkylineSegTree::build(ds);
    let scan = ScanOracle::new();
    let scorer = LinearScorer::uniform(2);
    let mut scratch = OracleScratch::new();
    let mut out = TopKResult::empty();
    let mut g = c.benchmark_group("topk_oracle");
    g.sample_size(20);
    for wlen in [1_000u32, 10_000, 100_000] {
        let w = Window::new(n - wlen, n - 1);
        g.bench_with_input(BenchmarkId::new("segtree", wlen), &w, |b, w| {
            b.iter(|| seg.top_k_into(ds, &scorer, 10, *w, &mut scratch, &mut out))
        });
        g.bench_with_input(BenchmarkId::new("segtree_alloc", wlen), &w, |b, w| {
            b.iter(|| seg.top_k(ds, &scorer, 10, *w))
        });
        g.bench_with_input(BenchmarkId::new("scan", wlen), &w, |b, w| {
            b.iter(|| scan.top_k_into(ds, &scorer, 10, *w, &mut scratch, &mut out))
        });
    }
    // 1024 distinct preferences cycled against 16 memo slots: no probe
    // ever finds its pair memoized.
    let fresh: Vec<LinearScorer> =
        (0..1024).map(|i| LinearScorer::new(vec![1.0 + i as f64 / 1024.0, 1.0])).collect();
    // `black_box` keeps the optimizer from seeing through the trait object.
    let dynamic: &dyn OracleScorer = std::hint::black_box(&scorer);
    for wlen in [1_000u32, 10_000] {
        let w = Window::new(n - wlen, n - 1);
        let mut i = 0usize;
        g.bench_with_input(BenchmarkId::new("segtree_fresh_scorer", wlen), &w, |b, w| {
            b.iter(|| {
                i += 1;
                seg.top_k_into(ds, &fresh[i % fresh.len()], 10, *w, &mut scratch, &mut out)
            })
        });
        // Slide back one record per probe, wrapping before the window
        // would leave the data.
        let slide = |i: &mut u32| {
            *i = (*i + 1) % (n - wlen);
            Window::new(n - wlen - *i, n - 1 - *i)
        };
        let mut i = 0u32;
        g.bench_function(BenchmarkId::new("segtree_slide", wlen), |b| {
            b.iter(|| seg.top_k_into(ds, &scorer, 10, slide(&mut i), &mut scratch, &mut out))
        });
        let mut i = 0u32;
        g.bench_function(BenchmarkId::new("segtree_slide_dyn", wlen), |b| {
            b.iter(|| seg.top_k_into(ds, dynamic, 10, slide(&mut i), &mut scratch, &mut out))
        });
    }
    let ds3 = &ind(n as usize, 3, 42);
    let seam = n / 2;
    let halves = [
        SkylineSegTree::build_over(ds3, 0, seam - 1, durable_topk_index::DEFAULT_LEAF_SIZE),
        SkylineSegTree::build_over(ds3, seam, n - 1, durable_topk_index::DEFAULT_LEAF_SIZE),
    ];
    let part = |p: usize| Part { tree: &halves[p], rows: ds3.into(), offset: 0 };
    let scorer3 = LinearScorer::new(vec![0.5, 0.3, 0.2]);
    let tau = 1_000u32;
    let mut i = 0u32;
    g.bench_function("refill_k20", |b| {
        b.iter(|| {
            i = (i + 1) % tau;
            let w = Window::lookback(seam + i, tau - 1);
            top_k_over(2, part, &scorer3, 20, w, f64::NEG_INFINITY, &mut scratch, &mut out)
        })
    });
    g.finish();

    let mut g = c.benchmark_group("durable_check");
    g.sample_size(20);
    let tau = 1_000u32;
    let score = |p: u32| scorer.score(ds.row(p));
    let by_score = |a: &u32, b: &u32| score(*a).total_cmp(&score(*b));
    let recent = n - tau..n;
    let best = recent.clone().max_by(by_score).expect("a non-empty range");
    let worst = recent.min_by(by_score).expect("a non-empty range");
    let durable = |p| seg.top_k(ds, &scorer, 10, Window::lookback(p, tau)).admits_score(score(p));
    assert!(durable(best) && !durable(worst), "one durable and one non-durable record");
    for (name, p) in [("durable", best), ("non_durable", worst)] {
        let (w, s) = (Window::lookback(p, tau), score(p));
        g.bench_function(BenchmarkId::new("floored", name), |b| {
            b.iter(|| seg.durable_into(ds, &scorer, 10, w, s, &mut scratch, &mut out))
        });
        g.bench_function(BenchmarkId::new("full", name), |b| {
            b.iter(|| {
                seg.top_k_into(ds, &scorer, 10, w, &mut scratch, &mut out);
                out.admits_score(s)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
