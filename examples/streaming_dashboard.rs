//! Streaming ingestion with immediate durable-record detection.
//!
//! The paper analyzes historical data offline; this example exercises the
//! library's live engine through the door the product serves through:
//! records arrive one by one at a [`ServeEngine`], and the "record-breaking
//! event" push notification is what it is — a standing
//! `DurTop(k, [0, ∞), τ)` subscription. Durability only looks back, so the
//! subscription's per-arrival delta is exactly "did this newcomer land as a
//! τ-durable top-k record?".
//!
//! Run with `cargo run --release -p durable_topk_examples --example streaming_dashboard`.

use durable_topk::{
    Algorithm, Backpressure, DurableQuery, EngineConfig, LinearScorer, Scorer, ScorerSpec,
    ServeEngine, ServeRequest, Window,
};
use rand::prelude::*;

fn main() {
    let (k, tau) = (3usize, 5_000u32);
    // Shards of 4096 records, exact for any τ — a window reaching past a
    // shard reads its predecessors. Skyband durations look back τ records,
    // and the bound lets the subscription skip arrivals that provably
    // cannot enter the top-k.
    let cfg = EngineConfig::new(2, 4_096, tau).skyband_bound(k);
    let serve =
        ServeEngine::new(cfg.build().expect("valid configuration"), 64, Backpressure::Block);
    let weights = vec![0.6, 0.4];
    let scorer = LinearScorer::new(weights.clone());
    let request = |interval| ServeRequest {
        alg: Algorithm::SHop,
        query: DurableQuery { k, tau, interval },
        scorer: ScorerSpec::Linear(weights.clone()),
    };
    let alert = serve.subscribe(request(Window::new(0, u32::MAX))).expect("valid subscription");
    let mut rng = StdRng::seed_from_u64(7);

    let total = 60_000usize;
    let mut alerts: Vec<(u32, f64)> = Vec::new();
    for i in 0..total {
        // A slowly drifting signal with occasional spikes.
        let drift = (i as f64 / total as f64) * 3.0;
        let spike = if rng.random::<f64>() < 5e-4 { 20.0 * rng.random::<f64>() } else { 0.0 };
        let attrs =
            [drift + rng.random::<f64>() * 4.0 + spike, rng.random::<f64>() * 6.0 + spike * 0.5];
        // `append` indexes the record and refreshes the subscription before
        // it returns, so the delta answers "is this a τ-durable top-k
        // record as of right now?".
        serve.append(&attrs).expect("arity matches");
        for t in serve.take_delta(alert).expect("registered") {
            alerts.push((t, scorer.score(&attrs)));
        }
    }
    println!(
        "ingested {total} records; {} arrived as durable top-{k} records of their trailing {tau} instants",
        alerts.len()
    );
    for (t, score) in alerts.iter().rev().take(5) {
        println!("  alert at t={t}: score {score:.2}");
    }

    // The same engine answers historical queries over everything ingested
    // so far through its serving queue — and the standing answer over the
    // same range must be that answer.
    let n = total as u32;
    let lo = n - 20_000;
    let history =
        serve.submit(request(Window::new(lo, n - 1))).expect("accepted").wait().expect("served");
    println!(
        "historical re-check over the last 20k records: {} durable ({} top-k probes)",
        history.records.len(),
        history.stats.topk_queries()
    );
    let standing = serve.poll_subscription(alert).expect("registered").records;
    let standing: Vec<u32> = standing.into_iter().filter(|&t| t >= lo).collect();
    assert_eq!(history.records, standing, "the subscription and the re-check must agree");

    // And the "current champions" view of continuous monitoring.
    let champs = serve.engine().top_k(&scorer, k, Window::lookback(n - 1, tau));
    let champs: Vec<u32> = champs.items.into_iter().map(|(id, _)| id).collect();
    println!("current top-{k} of the trailing window: records {champs:?}");
    serve.shutdown();
}
