//! Network-anomaly triage with durable top-k (the paper's cybersecurity
//! use case from Section I).
//!
//! A scoring function combines session features (duration, bytes, login
//! attempts, hosts touched); a durable top-k query surfaces sessions that
//! stood out against everything in their surrounding window — candidate
//! intrusions — and the analyst can re-weight features at query time without
//! rebuilding anything.
//!
//! Run with `cargo run --release -p durable_topk_examples --example network_anomaly`.

use durable_topk::{Algorithm, DurableQuery, EngineConfig, LinearScorer, Scorer, Window};
use durable_topk_workloads::network_like;

fn main() {
    // 300k connection records, 5 headline features:
    // 0 duration, 1 src_bytes, 2 dst_bytes, 3 login attempts, 4 hosts.
    let ds = network_like(300_000, 99).project(&[0, 1, 2, 3, 4]);
    let n = ds.len() as u32;
    let engine =
        EngineConfig::new(5, ds.len(), n).skyband_bound(16).build_from(&ds, 1).expect("records");

    // A session must dominate ~5% of history around it. Skip the first
    // window so early sessions are not trivially durable.
    let tau = n / 20;
    let interval = Window::new(tau, n - 1);

    // Analyst preference #1: exfiltration-shaped (bytes-heavy).
    let exfil = LinearScorer::new(vec![0.1, 0.5, 0.3, 0.05, 0.05]);
    // Analyst preference #2: credential-stuffing-shaped (logins/hosts).
    let stuffing = LinearScorer::new(vec![0.05, 0.05, 0.05, 0.45, 0.4]);

    for (name, scorer) in [("exfiltration", &exfil), ("credential-stuffing", &stuffing)] {
        let q = DurableQuery { k: 5, tau, interval };
        let result = engine.query(Algorithm::SHop, scorer, &q);
        println!(
            "{name}: {} durable suspicious sessions ({} top-k probes over {} records)",
            result.records.len(),
            result.stats.topk_queries(),
            n
        );
        // Show the strongest alerts (highest-scoring durable sessions).
        let mut ranked: Vec<u32> = result.records.clone();
        ranked.sort_by(|&a, &b| {
            let (sa, sb) = (scorer.score(ds.row(a)), scorer.score(ds.row(b)));
            sb.partial_cmp(&sa).expect("no NaN")
        });
        for &id in ranked.iter().take(4) {
            let row = ds.row(id);
            println!(
                "    t={id}: dur={:.2} src={:.2} dst={:.2} logins={:.2} hosts={:.2}",
                row[0], row[1], row[2], row[3], row[4]
            );
        }
    }

    // The same index serves both preferences: nothing was rebuilt between
    // queries — the core property that makes interactive triage feasible.
    println!("(both preferences served by one index; no rebuild between queries)");
}
