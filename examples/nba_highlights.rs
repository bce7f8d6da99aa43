//! The paper's Fig. 1 case study: finding durable rebound highlights.
//!
//! Compares the durable top-k query against tumbling-window and
//! sliding-window top-k on NBA-like data, illustrating why durable top-k
//! answers are both robust (insensitive to window placement) and
//! interpretable (every answer reads "best in the preceding 5 years").
//!
//! Run with `cargo run --release -p durable_topk_examples --example nba_highlights`.

use durable_topk::{alternatives, Algorithm, DurableQuery, EngineConfig, Window};
use durable_topk_index::SkylineSegTree;
use durable_topk_temporal::SingleAttributeScorer;
use durable_topk_workloads::{nba_attribute, nba_like};

fn main() {
    // 36 seasons of NBA-like history; rank by a single attribute: rebounds.
    let seasons = 36u32;
    let ds = nba_like(120_000, 2024).project(&[nba_attribute("rebounds")]);
    let n = ds.len() as u32;
    let per_season = n / seasons;
    let engine = EngineConfig::new(1, ds.len(), n).build_from(&ds, 1).expect("records");
    // The tumbling and sliding alternatives probe one tree over the data.
    let tree = SkylineSegTree::build(&ds);
    let scorer = SingleAttributeScorer::new(0);
    // A 5-season durability window. Start the query interval one window in,
    // so every claim has a full 5 seasons of history behind it.
    let tau = 5 * per_season;
    let interval = Window::new(tau, n - 1);

    let season_of = |t: u32| 1984 + (t / per_season).min(seasons - 1);

    println!("== durable top-1 rebounds, 5-season look-back window ==");
    let durable = engine.query(Algorithm::THop, &scorer, &DurableQuery { k: 1, tau, interval });
    for &id in &durable.records {
        let (dur, _) = engine.max_duration(&scorer, id, 1);
        let years = dur as f64 / per_season as f64;
        println!(
            "  {}: {} rebounds — best single-game mark of the preceding 5 seasons \
             (actually unbeaten for the prior {:.1} seasons)",
            season_of(id),
            ds.value(id, 0),
            years.min(seasons as f64),
        );
    }

    println!("\n== tumbling-window top-1 (5-season grid) ==");
    let grid0 = alternatives::tumbling_topk(&ds, &tree, &scorer, 1, interval, tau, 0);
    let grid1 = alternatives::tumbling_topk(&ds, &tree, &scorer, 1, interval, tau, tau / 2);
    let ids0: Vec<u32> = grid0.iter().flat_map(|(_, v)| v.clone()).collect();
    let ids1: Vec<u32> = grid1.iter().flat_map(|(_, v)| v.clone()).collect();
    let stable = ids0.iter().filter(|i| ids1.contains(i)).count();
    println!(
        "  grid at 0: {} answers; grid shifted by 2.5 seasons: {} answers; only {} survive both",
        ids0.len(),
        ids1.len(),
        stable
    );
    println!("  (answers depend on an arbitrary grid placement — cherry-picking risk)");

    println!("\n== sliding-window top-1 union ==");
    let sliding = alternatives::sliding_topk_union(&ds, &tree, &scorer, 1, interval, tau);
    println!(
        "  {} records appear in some 5-season window's top-1 — {}x the durable answer, \
         with records drifting in and out as the window slides",
        sliding.len(),
        sliding.len() / durable.records.len().max(1)
    );

    // Every durable answer is also a sliding answer, never vice versa.
    assert!(durable.records.iter().all(|r| sliding.contains(r)));
    println!(
        "\ndurable answers are the interpretable core: {} records, each a \
         \"best of the past 5 seasons\" claim",
        durable.records.len()
    );
}
