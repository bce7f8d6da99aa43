//! Quickstart: build a dataset, run a durable top-k query, inspect results.
//!
//! Run with `cargo run --release -p durable_topk_examples --example quickstart`.

use durable_topk::{Algorithm, DurableQuery, EngineConfig, LinearScorer, Window};
use durable_topk_temporal::Dataset;
use durable_topk_workloads::ind;

fn main() {
    // 1. A dataset is a sequence of records ordered by arrival time, each
    //    with d real-valued attributes. Here: 100k synthetic 2-d records.
    let ds: Dataset = ind(100_000, 2, 7);
    let n = ds.len();
    println!("dataset: {} records x {} attributes", n, ds.dim());

    // 2. Build the engine as one shard over the whole dataset: this
    //    constructs the skyline segment tree (the top-k building block)
    //    and, optionally, the durable k-skyband index that powers the
    //    S-Band algorithm, its durations looking back over all n records.
    let engine = EngineConfig::new(ds.dim(), n, n as u32)
        .skyband_bound(16)
        .build_from(&ds, 1)
        .expect("a non-empty dataset");

    // 3. All query parameters arrive at query time: the rank threshold k,
    //    the durability window τ, the query interval I, and the scoring
    //    function's preference vector u.
    let query = DurableQuery {
        k: 10,
        tau: (n / 10) as u32, // τ = 10% of history
        interval: Window::new((n / 2) as u32, (n - 1) as u32), // most recent half
    };
    let scorer = LinearScorer::new(vec![0.7, 0.3]);

    // 4. Run it. Every algorithm returns the same answer; T-Hop was the
    //    fastest on the benchmark's ad-hoc shape (BENCHMARKS.md, "PR 36:
    //    one S-Hop", which ranks T-Hop, S-Band and S-Hop).
    let result = engine.query(Algorithm::THop, &scorer, &query);
    println!(
        "found {} durable records using {} top-k queries ({} durability checks)",
        result.records.len(),
        result.stats.topk_queries(),
        result.stats.durability_checks,
    );

    // 5. Cross-check with the score-prioritized hop algorithm.
    let check = engine.query(Algorithm::SHop, &scorer, &query);
    assert_eq!(result.records, check.records);

    // 6. For any answer, ask how long its supremacy actually lasted.
    if let Some(&best) = result.records.first() {
        let (duration, probes) = engine.max_duration(&scorer, best, query.k);
        println!(
            "record t={best} stays in the top-{} for {duration} instants ({probes} probes)",
            query.k
        );
    }
}
