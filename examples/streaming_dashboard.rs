//! Streaming ingestion with immediate durable-record detection.
//!
//! The paper analyzes historical data offline; this example exercises the
//! library's streaming extension: records arrive one by one, the appendable
//! index forest keeps the top-k building block current, and each newcomer is
//! classified as a durable record (or not) the instant it lands — the
//! "record-breaking event" push-notification use case.
//!
//! Run with `cargo run --release -p durable-topk-examples --bin streaming_dashboard`.

use durable_topk::{DurableQuery, EngineConfig, LinearScorer, StreamingMonitor, Window};
use rand::prelude::*;

fn main() {
    // Shards of 4096 records. Historical queries fan out across them for
    // τ ≤ 4096; beyond that (the τ = 5000 re-check below) the monitor falls
    // back to its exact single-threaded path.
    let cfg = EngineConfig::new(2, 4_096, 4_096).leaf_size(64);
    let mut monitor = StreamingMonitor::new(cfg).expect("valid configuration");
    let scorer = LinearScorer::new(vec![0.6, 0.4]);
    let (k, tau) = (3usize, 5_000u32);
    let mut rng = StdRng::seed_from_u64(7);

    let total = 60_000usize;
    let mut alerts = 0usize;
    let mut recent_alerts: Vec<(usize, f64)> = Vec::new();
    for i in 0..total {
        // A slowly drifting signal with occasional spikes.
        let drift = (i as f64 / total as f64) * 3.0;
        let spike = if rng.random::<f64>() < 5e-4 { 20.0 * rng.random::<f64>() } else { 0.0 };
        let attrs =
            [drift + rng.random::<f64>() * 4.0 + spike, rng.random::<f64>() * 6.0 + spike * 0.5];
        // `push` indexes the record and answers "is this a τ-durable
        // top-k record as of right now?" in one call.
        if monitor.push(&attrs, &scorer, k, tau) {
            alerts += 1;
            let score = attrs[0] * 0.6 + attrs[1] * 0.4;
            recent_alerts.push((i, score));
        }
    }
    println!(
        "ingested {total} records; {alerts} arrived as durable top-{k} records of their trailing {tau} instants"
    );
    for (t, score) in recent_alerts.iter().rev().take(5) {
        println!("  alert at t={t}: score {score:.2}");
    }

    // The same monitor also answers historical queries over everything
    // ingested so far, served through the forest oracle.
    let n = monitor.len() as u32;
    let q = DurableQuery { k, tau, interval: Window::new(n - 20_000, n - 1) };
    let history = monitor.query(&scorer, &q, true);
    println!(
        "historical re-check over the last 20k records: {} durable ({} top-k probes)",
        history.records.len(),
        history.stats.topk_queries()
    );

    // And the "current champions" view of continuous monitoring.
    let champs = monitor.current_top(&scorer, k, tau);
    println!("current top-{k} of the trailing window: records {champs:?}");
}
