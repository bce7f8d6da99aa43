//! Standing-query subscription bench: refresh cost vs change rate, the
//! zero-change fast path, and the FULL-vs-INCREMENTAL break-even.
//!
//! Three stream shapes pin the change rate of a tail-following
//! subscription:
//!
//! * **descending** — every arrival scores below all of recent history,
//!   so no arrival can enter a standing top-k: the skyband gate skips
//!   everything and appends ride the zero-change fast path.
//! * **ascending** — every arrival beats all of history: the worst case,
//!   every append probes every subscription.
//! * **mixed(1/p)** — one ascending spike every `p` arrivals, the dial
//!   between those extremes.
//!
//! `append_no_subs` vs `append_gated_8subs` is the fast-path overhead
//! claim (they must be within noise of each other);
//! `append_hot_8subs` is the bounded-probe worst case; and
//! `full_recompute_per_append` is what a subscriber *would* pay keeping a
//! result set current by re-running `try_query` after every arrival —
//! the FULL side of the break-even table printed before the criterion
//! groups run.

use criterion::{criterion_group, criterion_main, Criterion};
use durable_topk::{
    Algorithm, Backpressure, DurableQuery, EngineConfig, ScorerSpec, ServeEngine, ServeRequest,
    Window,
};
use std::time::Instant;

const BASE: usize = 2_048;
const BATCH: usize = 1_000;
const SPAN: usize = 16_384;
const MAX_TAU: u32 = 256;
const K_MAX: usize = 8;
const SUB_TAU: u32 = 128;
const SUB_K: usize = 4;

/// Stream shapes with a known standing-top-k change rate.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Descending,
    Ascending,
    /// One durable spike every `p` arrivals.
    Mixed(usize),
}

/// Row `i` of a shape, over the whole base + batch timeline.
fn row(shape: Shape, i: usize) -> [f64; 2] {
    let jitter = ((i * 37) % 101) as f64 * 1e-3;
    match shape {
        Shape::Descending => {
            let v = (BASE + BATCH + 10 - i) as f64;
            [v + jitter, v - jitter]
        }
        Shape::Ascending => {
            let v = i as f64;
            [v + jitter, v - jitter]
        }
        Shape::Mixed(p) => {
            if i % p == 0 {
                // A spike above everything so far: durable on arrival.
                let v = 1e6 + i as f64;
                [v, v]
            } else {
                let v = (BASE + BATCH + 10 - i) as f64;
                [v + jitter, v - jitter]
            }
        }
    }
}

/// A live serving engine pre-loaded with the shape's first `BASE` records,
/// sized so the measured batch crosses no seal boundary (seal cost is
/// `serving.rs`'s subject, not this bench's).
fn engine_with_base(shape: Shape) -> ServeEngine {
    let mut engine =
        EngineConfig::new(2, SPAN, MAX_TAU).skyband_bound(K_MAX).build().expect("base config");
    for i in 0..BASE {
        engine.append(&row(shape, i));
    }
    ServeEngine::new(engine, 64, Backpressure::Block)
}

fn tail_request(s: usize) -> ServeRequest {
    ServeRequest {
        alg: Algorithm::THop,
        query: DurableQuery {
            k: 1 + (SUB_K + s) % K_MAX,
            tau: SUB_TAU,
            interval: Window::new(0, u32::MAX),
        },
        scorer: ScorerSpec::Uniform,
    }
}

/// Streams the batch with `subs` standing subscriptions and returns
/// (ns per append, refreshes, fast-path skips).
fn stream_batch(shape: Shape, subs: usize) -> (f64, u64, u64) {
    let serving = engine_with_base(shape);
    for s in 0..subs {
        serving.subscribe(tail_request(s)).expect("valid subscription");
    }
    let t = Instant::now();
    for i in BASE..BASE + BATCH {
        serving.append(&row(shape, i)).expect("arity matches");
    }
    let per_append = t.elapsed().as_nanos() as f64 / BATCH as f64;
    let stats = serving.stats();
    serving.shutdown();
    (per_append, stats.refreshes, stats.fast_path_skips)
}

/// Streams the batch with no subscriptions, re-running the full
/// recompute after every `poll` appends — the FULL side of the ledger.
fn stream_full(shape: Shape, poll: usize) -> f64 {
    let serving = engine_with_base(shape);
    let req = tail_request(0);
    let t = Instant::now();
    for i in BASE..BASE + BATCH {
        serving.append(&row(shape, i)).expect("arity matches");
        if (i - BASE) % poll == 0 {
            let engine = serving.engine();
            let full = DurableQuery {
                k: req.query.k,
                tau: req.query.tau,
                interval: Window::new(0, i as u32),
            };
            let scorer = durable_topk::LinearScorer::uniform(2);
            let out = engine.try_query(req.alg, &scorer, &full).expect("query");
            std::hint::black_box(out.records.len());
        }
    }
    let per_append = t.elapsed().as_nanos() as f64 / BATCH as f64;
    serving.shutdown();
    per_append
}

/// One-shot FULL-vs-INCREMENTAL table across change rates — the numbers
/// BENCHMARKS.md records.
fn report_break_even() {
    eprintln!(
        "FULL vs INCREMENTAL refresh, {BATCH} appends over {BASE} base records, 1 subscription \
         (k={SUB_K}, tau={SUB_TAU}):"
    );
    let shapes = [
        ("descending (0% durable)", Shape::Descending),
        ("mixed 1/64 (~2% durable)", Shape::Mixed(64)),
        ("mixed 1/8 (~12% durable)", Shape::Mixed(8)),
        ("ascending (100% durable)", Shape::Ascending),
    ];
    for (label, shape) in shapes {
        let (incr, refreshes, skips) = stream_batch(shape, 1);
        let full = stream_full(shape, 1);
        eprintln!(
            "  {label:<26} INCREMENTAL {incr:>9.0} ns/append ({refreshes} probes, {skips} \
             zero-change skips)   FULL-per-append {full:>9.0} ns/append",
        );
    }
    let (none, _, _) = stream_batch(Shape::Descending, 0);
    let (gated, _, skips) = stream_batch(Shape::Descending, 8);
    eprintln!(
        "zero-change fast path: no subs {none:.0} ns/append vs 8 gated subs {gated:.0} ns/append \
         ({skips} skips)",
    );
}

fn bench(c: &mut Criterion) {
    report_break_even();

    let mut g = c.benchmark_group("subscribe");
    g.sample_size(10);

    // Fast-path claim: these two must be within noise of each other.
    g.bench_function("append_1k_no_subs", |b| b.iter(|| stream_batch(Shape::Descending, 0).0));
    g.bench_function("append_1k_gated_8subs", |b| b.iter(|| stream_batch(Shape::Descending, 8).0));

    // Worst case: every arrival probes all eight standing top-ks.
    g.bench_function("append_1k_hot_8subs", |b| b.iter(|| stream_batch(Shape::Ascending, 8).0));

    // The FULL baseline the incremental path replaces.
    g.bench_function("append_1k_full_recompute_poll8", |b| {
        b.iter(|| stream_full(Shape::Mixed(8), 8))
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
