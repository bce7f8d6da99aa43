//! "The coldest temperatures in the past 20 years": durable records over
//! weather-like data, including the look-ahead anchoring.
//!
//! Reproduces the introduction's Wikipedia example — a cold wave is
//! newsworthy exactly when a day's low is a durable top-k record of
//! *coldness* over a long look-back window. The look-ahead variant answers
//! the dual question: which records then stood unbeaten for years to come?
//!
//! Run with `cargo run --release -p durable_topk_examples --example weather_watch`.

use durable_topk::{Algorithm, DurableQuery, EngineConfig, Window};
use durable_topk_temporal::{Dataset, SingleAttributeScorer};
use rand::prelude::*;

/// Simulates `years` of daily minimum temperatures with seasonality, slow
/// warming drift, and occasional cold snaps; stores *coldness* (negated
/// temperature) so "colder" means "higher score".
fn simulate(years: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = Dataset::with_capacity(1, years * 365);
    for day in 0..years * 365 {
        let t = day as f64;
        let seasonal = -10.0 * (std::f64::consts::TAU * t / 365.0).cos();
        let warming = 0.25 * t / (365.0 * years as f64);
        let noise = 4.0 * (rng.random::<f64>() - 0.5);
        let snap = if rng.random::<f64>() < 0.003 {
            -6.0 - 14.0 * rng.random::<f64>().powi(2) * (1.0 + rng.random::<f64>())
        } else {
            0.0
        };
        let temp = 8.0 + seasonal + warming + noise + snap;
        ds.push(&[-temp]); // coldness
    }
    ds
}

fn main() {
    let years = 60;
    let ds = simulate(years, 1234);
    let n = ds.len() as u32;
    // One shard over all of history; the look-ahead question runs on a
    // second engine over the history reversed.
    let build = |ds: &Dataset| EngineConfig::new(1, ds.len(), n).build_from(ds, 1).expect("days");
    let (engine, reversed) = (build(&ds), build(&ds.reversed()));
    let coldness = SingleAttributeScorer::new(0);

    // "Coldest day of the past decade", asked over the last 25 years; the
    // max-duration probe then upgrades each hit to its strongest claim
    // ("coldest in N years").
    let tau = 10 * 365;
    let q = DurableQuery { k: 1, tau, interval: Window::new(n - 25 * 365, n - 1) };
    let waves = engine.query(Algorithm::THop, &coldness, &q);
    println!(
        "look-back: {} days in the last 25 years were 10-year cold records",
        waves.records.len()
    );
    for &id in waves.records.iter().take(6) {
        let (dur, _) = engine.max_duration(&coldness, id, 1);
        println!(
            "  year {:2}, day {:3}: {:5.1}°C — coldest in the preceding {:.1} years",
            id / 365,
            id % 365,
            -ds.value(id, 0),
            (dur as f64 / 365.0).min(years as f64),
        );
    }

    // The dual claim: records that stayed unbeaten for the following decade
    // (look-ahead anchoring over the first half of history).
    let q = DurableQuery { k: 1, tau, interval: Window::new(0, n / 2) };
    let unbeaten = reversed.query_lookahead(Algorithm::THop, &coldness, &q);
    println!(
        "look-ahead: {} early cold records stood unbeaten for the following decade",
        unbeaten.records.len()
    );

    // Warming drift means look-back cold records get rarer over time; the
    // look-ahead set concentrates early. Both read as one-line claims.
    println!("(same engine, same index; only the anchoring changed)");
}
