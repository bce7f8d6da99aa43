//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage: `cargo run --release -p durable_topk_bench --bin experiments --
//! [all|fig1|fig7|fig8|fig9|fig10|fig11|fig12|fig13|tab4|tab5|tab6|lemma4|lemma5|ablation]
//! [--scale X] [--reps N] [--seed S]`
//!
//! Dataset sizes are laptop-scaled (each figure's `cfg.n(..)` default);
//! `--scale` multiplies them. Numbers are means over `--reps` random
//! preference vectors, as the paper averages over 100 vectors.

use durable_topk::algorithms::{s_hop, t_hop};
use durable_topk::{
    alternatives, Algorithm, DurableQuery, LinearScorer, QueryContext, ScanOracle, ShardedEngine,
    SingleAttributeScorer, SkybandCandidates, Window,
};
use durable_topk_bench::{
    default_query, mean_std, measure, measure_by, one_shard, pm, query_pct, Config, Measurement,
    TablePrinter,
};
use durable_topk_index::{DurableSkybandIndex, SkylineSegTree};
use durable_topk_store::{t_base_proc, t_hop_proc, RelStore};
use durable_topk_temporal::{Dataset, DatasetStats, Time};
use durable_topk_workloads::{
    anti, ind, nba_attribute, nba_like, network_like, preference_suite, random_permutation_dataset,
};
use std::time::Instant;

/// A named section of the evaluation and the function that prints it.
type Section = (&'static str, fn(&Config));

/// Every section, in the order `all` runs them.
const SECTIONS: &[Section] = &[
    ("fig1", fig1),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("tab4", tab4),
    ("tab5", tab5),
    ("tab6", tab6),
    ("lemma4", lemma4),
    ("lemma5", lemma5),
    ("ablation", ablation),
];

fn main() {
    let (which, cfg) = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
        eprintln!("error: {e}");
        eprintln!("usage: experiments [all|{}] [--scale X] [--reps N] [--seed S]", names.join("|"));
        std::process::exit(2);
    });
    let all = which.is_empty() || which.iter().any(|w| w == "all");
    println!("durable top-k experiment harness (scale={}, reps={})", cfg.scale, cfg.reps);
    for &(name, run) in SECTIONS {
        if all || which.iter().any(|w| w == name) {
            run(&cfg);
        }
    }
}

/// The requested sections (none means all) and the configuration; an
/// unknown section, a missing or unparsable flag value, a scale that is not
/// positive and finite, or `--reps 0` is an error.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<(Vec<String>, Config), String> {
    fn value<T: std::str::FromStr>(flag: &str, arg: Option<String>) -> Result<T, String> {
        let arg = arg.ok_or_else(|| format!("{flag} takes a value"))?;
        arg.parse().map_err(|_| format!("{flag}: cannot parse {arg:?}"))
    }
    let mut which = Vec::new();
    let mut cfg = Config::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => cfg.scale = value("--scale", args.next())?,
            "--reps" => cfg.reps = value("--reps", args.next())?,
            "--seed" => cfg.seed = value("--seed", args.next())?,
            name if name == "all" || SECTIONS.iter().any(|(known, _)| *known == name) => {
                which.push(arg);
            }
            other => return Err(format!("unknown experiment or flag {other:?}")),
        }
    }
    if !(cfg.scale.is_finite() && cfg.scale > 0.0) {
        return Err(format!("--scale must be positive and finite, got {}", cfg.scale));
    }
    if cfg.reps == 0 {
        return Err("--reps must be at least 1".to_string());
    }
    Ok((which, cfg))
}

fn banner(title: &str) {
    println!("\n==== {title} ====");
}

fn nba_x(cfg: &Config, n: usize, attrs: &[&str]) -> Dataset {
    let cols: Vec<usize> = attrs.iter().map(|a| nba_attribute(a)).collect();
    nba_like(cfg.n(n), cfg.seed).project(&cols)
}

fn network_x(cfg: &Config, n: usize, d: usize) -> Dataset {
    let cols: Vec<usize> = (0..d).collect();
    network_like(cfg.n(n), cfg.seed).project(&cols)
}

/// Fig. 1: the case study — durable vs tumbling vs sliding top-1 rebounds.
fn fig1(cfg: &Config) {
    banner("Fig 1: durable vs tumbling vs sliding (NBA-like rebounds, k=1)");
    let ds = nba_x(cfg, 40_000, &["rebounds"]);
    let n = ds.len();
    let engine = one_shard(&ds, None);
    // The alternatives probe one tree over the whole dataset.
    let tree = SkylineSegTree::build(&ds);
    let scorer = SingleAttributeScorer::new(0);
    // "5-year window over 36 years of history"; the query interval starts
    // one window-length in so every claim spans a full 5 years of history.
    let tau = (n as f64 * 5.0 / 36.0) as Time;
    let interval = Window::new(tau, (n - 1) as Time);
    let query = DurableQuery { k: 1, tau, interval };

    let durable = engine.query(Algorithm::THop, &scorer, &query);
    let tumbling = alternatives::tumbling_topk(&ds, &tree, &scorer, 1, interval, tau, 0);
    let shifted = alternatives::tumbling_topk(&ds, &tree, &scorer, 1, interval, tau, tau / 2);
    let sliding = alternatives::sliding_topk_union(&ds, &tree, &scorer, 1, interval, tau);
    let tumbling_ids: Vec<u32> = tumbling.iter().flat_map(|(_, v)| v.clone()).collect();
    let shifted_ids: Vec<u32> = shifted.iter().flat_map(|(_, v)| v.clone()).collect();
    println!(
        "answer sizes: durable={} tumbling={} tumbling(shifted)={} sliding-union={}",
        durable.records.len(),
        tumbling_ids.len(),
        shifted_ids.len(),
        sliding.len()
    );
    let moved = tumbling_ids.iter().filter(|id| !shifted_ids.contains(id)).count();
    println!(
        "tumbling placement sensitivity: {moved}/{} answers change when the grid shifts by tau/2",
        tumbling_ids.len()
    );
    println!(
        "sliding union is {:.1}x larger than the durable answer (hard to interpret)",
        sliding.len() as f64 / durable.records.len().max(1) as f64
    );
    for &id in durable.records.iter().take(5) {
        let (dur, _) = engine.max_duration(&scorer, id, 1);
        println!(
            "  record t={id}: {} rebounds, durable over the tau={} window (max duration {})",
            ds.value(id, 0),
            tau,
            dur
        );
    }
}

/// Fig. 7: synthetic data distributions.
fn fig7(cfg: &Config) {
    banner("Fig 7: IND / ANTI value distributions");
    let ind_ds = ind(cfg.n(50_000), 2, cfg.seed);
    let anti_ds = anti(cfg.n(50_000), cfg.seed);
    println!("IND:\n{}", DatasetStats::compute(&ind_ds));
    println!("ANTI:\n{}", DatasetStats::compute(&anti_ds));
}

fn sweep_table(
    title: &str,
    engine: &ShardedEngine,
    sweeps: &[(String, DurableQuery)],
    cfg: &Config,
) {
    banner(title);
    let names = Algorithm::ALL.map(|a| format!("{a} ms"));
    let mut time_t = TablePrinter::new(["param", "|S|"].map(String::from).into_iter().chain(names));
    let mut q_t = TablePrinter::new([
        "param",
        "T-Hop #topk",
        "S-Band #topk",
        "S-Hop #topk",
        "S-Hop #checks",
        "|C|",
    ]);
    for (label, query) in sweeps {
        let ms = Algorithm::ALL.map(|a| measure(engine, a, query, cfg));
        let times = ms.iter().map(|m| pm(m.time_ms, m.time_std));
        time_t.row([label.clone(), format!("{:.0}", ms[0].answer_size)].into_iter().chain(times));
        let (t, b, h) = (&ms[1], &ms[3], &ms[4]);
        let counts = [t.topk_queries, b.topk_queries, h.topk_queries, h.durability_checks];
        let counts = counts.into_iter().chain([b.candidates]).map(|c| format!("{c:.0}"));
        q_t.row([label.clone()].into_iter().chain(counts));
    }
    println!("(a) query time\n{}", time_t.render());
    println!("(b) top-k building-block invocations\n{}", q_t.render());
}

/// Fig. 8: vary τ on NBA-2 and Network-2.
fn fig8(cfg: &Config) {
    for (name, ds) in [
        ("NBA-2", nba_x(cfg, 150_000, &["points", "assists"])),
        ("Network-2", network_x(cfg, 200_000, 2)),
    ] {
        let n = ds.len();
        let engine = one_shard(&ds, Some(64));
        let sweeps: Vec<(String, DurableQuery)> =
            [0.01, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 0.50]
                .iter()
                .map(|&p| (format!("tau={:.0}%", p * 100.0), query_pct(n, 10, p, 0.50)))
                .collect();
        sweep_table(&format!("Fig 8 ({name}, n={n}): vary tau"), &engine, &sweeps, cfg);
    }
}

/// Fig. 9: vary k.
fn fig9(cfg: &Config) {
    for (name, ds) in [
        ("NBA-2", nba_x(cfg, 150_000, &["points", "assists"])),
        ("Network-2", network_x(cfg, 200_000, 2)),
    ] {
        let n = ds.len();
        let engine = one_shard(&ds, Some(64));
        let sweeps: Vec<(String, DurableQuery)> = (1..=10)
            .map(|m| {
                let k = 5 * m;
                (format!("k={k}"), query_pct(n, k, 0.10, 0.50))
            })
            .collect();
        sweep_table(&format!("Fig 9 ({name}, n={n}): vary k"), &engine, &sweeps, cfg);
    }
}

/// Fig. 10: vary |I|.
fn fig10(cfg: &Config) {
    for (name, ds) in [
        ("NBA-2", nba_x(cfg, 150_000, &["points", "assists"])),
        ("Network-2", network_x(cfg, 200_000, 2)),
    ] {
        let n = ds.len();
        let engine = one_shard(&ds, Some(64));
        let sweeps: Vec<(String, DurableQuery)> = [0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80]
            .iter()
            .map(|&p| (format!("|I|={:.0}%", p * 100.0), query_pct(n, 10, 0.10, p)))
            .collect();
        sweep_table(&format!("Fig 10 ({name}, n={n}): vary |I|"), &engine, &sweeps, cfg);
    }
}

/// Fig. 11 and 12's rows for `ms`, measured with `[_, T-Hop, S-Band, S-Hop]`:
/// `|S|` and each time, then T-Hop's, S-Band's and S-Hop's top-k calls and
/// S-Band's `|C|`.
fn four_alg_rows(time_t: &mut TablePrinter, q_t: &mut TablePrinter, p: String, ms: &[Measurement]) {
    let times = ms.iter().map(|m| pm(m.time_ms, m.time_std));
    time_t.row([p.clone(), format!("{:.0}", ms[1].answer_size)].into_iter().chain(times));
    let counts = [ms[1].topk_queries, ms[2].topk_queries, ms[3].topk_queries, ms[2].candidates];
    q_t.row([p].into_iter().chain(counts.map(|c| format!("{c:.0}"))));
}

/// Fig. 11: vary dimensionality on Network-X.
fn fig11(cfg: &Config) {
    banner("Fig 11: vary d (Network-X)");
    let base = network_like(cfg.n(50_000), cfg.seed);
    let mut time_t =
        TablePrinter::new(vec!["d", "|S|", "T-Base ms", "T-Hop ms", "S-Band ms", "S-Hop ms"]);
    let mut q_t = TablePrinter::new(vec!["d", "T-Hop #topk", "S-Band #topk", "S-Hop #topk", "|C|"]);
    for d in [1usize, 2, 3, 5, 10, 20, 30, 37] {
        let cols: Vec<usize> = (0..d).collect();
        let ds = base.project(&cols);
        let n = ds.len();
        let build = Instant::now();
        let engine = one_shard(&ds, Some(16));
        let build_s = build.elapsed().as_secs_f64();
        let q = default_query(n);
        let algs = [Algorithm::TBase, Algorithm::THop, Algorithm::SBand, Algorithm::SHop];
        let ms = algs.map(|a| measure(&engine, a, &q, cfg));
        four_alg_rows(&mut time_t, &mut q_t, format!("{d}"), &ms);
        eprintln!("  [fig11] d={d} built in {build_s:.1}s");
    }
    println!("(1) query time\n{}", time_t.render());
    println!("(2) top-k invocations and |C|\n{}", q_t.render());
}

/// Fig. 12: scalability on IND and ANTI.
fn fig12(cfg: &Config) {
    for dist in ["IND", "ANTI"] {
        banner(&format!("Fig 12 ({dist}): scalability"));
        let mut time_t =
            TablePrinter::new(vec!["n", "|S|", "S-Base ms", "T-Hop ms", "S-Band ms", "S-Hop ms"]);
        let mut q_t =
            TablePrinter::new(vec!["n", "T-Hop #topk", "S-Band #topk", "S-Hop #topk", "|C|"]);
        for base in [50_000usize, 100_000, 200_000, 400_000, 800_000] {
            let n = cfg.n(base);
            let ds = if dist == "IND" { ind(n, 2, cfg.seed) } else { anti(n, cfg.seed) };
            let build = Instant::now();
            let engine = one_shard(&ds, Some(16));
            let build_s = build.elapsed().as_secs_f64();
            // The paper grows |I| proportionally with n (fixed percentage).
            let q = default_query(n);
            let algs = [Algorithm::SBase, Algorithm::THop, Algorithm::SBand, Algorithm::SHop];
            let ms = algs.map(|a| measure(&engine, a, &q, cfg));
            four_alg_rows(&mut time_t, &mut q_t, format!("{n}"), &ms);
            eprintln!("  [fig12 {dist}] n={n} built in {build_s:.1}s");
        }
        println!("(a) query time\n{}", time_t.render());
        println!("(b) top-k invocations and |C|\n{}", q_t.render());
    }
}

/// Fig. 13: runtime distribution over 20 random 5-d NBA attribute subsets.
fn fig13(cfg: &Config) {
    banner("Fig 13: runtime distribution over 20 random 5-d NBA subsets");
    use rand::prelude::*;
    let full = nba_like(cfg.n(40_000), cfg.seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xf13);
    let mut samples: Vec<(Algorithm, Vec<f64>)> = vec![
        (Algorithm::THop, Vec::new()),
        (Algorithm::SHop, Vec::new()),
        (Algorithm::SBand, Vec::new()),
    ];
    for subset in 0..20 {
        let mut cols: Vec<usize> = (0..15).collect();
        cols.shuffle(&mut rng);
        cols.truncate(5);
        let ds = full.project(&cols);
        let n = ds.len();
        let engine = one_shard(&ds, Some(16));
        let q = default_query(n);
        for (alg, times) in &mut samples {
            let m = measure(&engine, *alg, &q, cfg);
            times.push(m.time_ms);
        }
        eprintln!("  [fig13] subset {subset} cols {cols:?} done");
    }
    let mut t = TablePrinter::new(vec!["alg", "min", "q1", "median", "q3", "max", "mean"]);
    for (alg, mut times) in samples {
        times.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let quant = |p: f64| times[((times.len() - 1) as f64 * p).round() as usize];
        let (mean, _) = mean_std(&times);
        let cells = [0.0, 0.25, 0.5, 0.75, 1.0].map(quant).into_iter().chain([mean]);
        t.row([alg.name().to_string()].into_iter().chain(cells.map(|x| format!("{x:.2}"))));
    }
    println!("{}", t.render());
}

fn store_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("durable-topk-experiments");
    std::fs::create_dir_all(&dir).expect("mk tmpdir");
    dir.join(name)
}

fn store_sweep(
    title: &str,
    store: &mut RelStore,
    scorer: &LinearScorer,
    sweeps: &[(String, Window, Time)],
) {
    banner(title);
    let mut t = TablePrinter::new(vec![
        "param",
        "T-Hop s",
        "T-Base s",
        "speedup",
        "T-Hop misses",
        "T-Base misses",
    ]);
    for (label, interval, tau) in sweeps {
        store.clear_cache().expect("cold cache");
        let start = Instant::now();
        let (a, hop) = t_hop_proc(store, scorer, 10, *interval, *tau).expect("t-hop");
        let hop_s = start.elapsed().as_secs_f64();
        store.clear_cache().expect("cold cache");
        let start = Instant::now();
        let (b, base) = t_base_proc(store, scorer, 10, *interval, *tau).expect("t-base");
        let base_s = start.elapsed().as_secs_f64();
        assert_eq!(a, b, "stored procedures disagree");
        t.row(vec![
            label.clone(),
            format!("{hop_s:.3}"),
            format!("{base_s:.3}"),
            format!("{:.1}x", base_s / hop_s.max(1e-9)),
            format!("{}", hop.io.misses),
            format!("{}", base.io.misses),
        ]);
    }
    println!("{}", t.render());
}

/// Table IV: DBMS backend, vary τ on NBA-2.
fn tab4(cfg: &Config) {
    let ds = nba_x(cfg, 200_000, &["points", "assists"]);
    let n = ds.len();
    // Pool deliberately small relative to the data (the paper's server
    // reads 30 GB through a bounded buffer cache): 64 pages = 512 KiB.
    let mut store = RelStore::create(store_path("tab4.db"), &ds, 128, 64).expect("create store");
    let scorer = LinearScorer::uniform(2);
    let sweeps: Vec<(String, Window, Time)> = [0.10, 0.20, 0.30, 0.40, 0.50]
        .iter()
        .map(|&p| {
            let q = query_pct(n, 10, p, 0.50);
            (format!("tau={:.0}%", p * 100.0), q.interval, q.tau)
        })
        .collect();
    store_sweep(&format!("Table IV (stored NBA-2, n={n}): vary tau"), &mut store, &scorer, &sweeps);
}

/// Table V: DBMS backend, vary |I| on NBA-2.
fn tab5(cfg: &Config) {
    let ds = nba_x(cfg, 200_000, &["points", "assists"]);
    let n = ds.len();
    let mut store = RelStore::create(store_path("tab5.db"), &ds, 128, 64).expect("create store");
    let scorer = LinearScorer::uniform(2);
    let sweeps: Vec<(String, Window, Time)> = [0.10, 0.20, 0.30, 0.40, 0.50]
        .iter()
        .map(|&p| {
            let q = query_pct(n, 10, 0.10, p);
            (format!("|I|={:.0}%", p * 100.0), q.interval, q.tau)
        })
        .collect();
    store_sweep(&format!("Table V (stored NBA-2, n={n}): vary |I|"), &mut store, &scorer, &sweeps);
}

/// Table VI: DBMS backend at scale (paper: 500M rows / 30 GB; scaled here).
fn tab6(cfg: &Config) {
    banner("Table VI: stored backend at scale");
    let mut t = TablePrinter::new(vec!["dataset", "rows", "T-Hop s", "T-Base s", "speedup"]);
    let datasets: Vec<(&str, Dataset)> = vec![
        ("NBA-2", nba_x(cfg, 100_000, &["points", "assists"])),
        ("Syn-IND", ind(cfg.n(2_000_000), 2, cfg.seed)),
        ("Syn-ANTI", anti(cfg.n(2_000_000), cfg.seed)),
    ];
    for (name, ds) in datasets {
        let n = ds.len();
        let mut store = RelStore::create(store_path(&format!("tab6-{name}.db")), &ds, 128, 256)
            .expect("create store");
        let scorer = LinearScorer::uniform(2);
        let q = default_query(n);
        store.clear_cache().expect("cold cache");
        let start = Instant::now();
        let (a, _) = t_hop_proc(&mut store, &scorer, q.k, q.interval, q.tau).expect("t-hop");
        let hop_s = start.elapsed().as_secs_f64();
        store.clear_cache().expect("cold cache");
        let start = Instant::now();
        let (b, _) = t_base_proc(&mut store, &scorer, q.k, q.interval, q.tau).expect("t-base");
        let base_s = start.elapsed().as_secs_f64();
        assert_eq!(a, b);
        t.row(vec![
            name.to_string(),
            format!("{n}"),
            format!("{hop_s:.3}"),
            format!("{base_s:.3}"),
            format!("{:.1}x", base_s / hop_s.max(1e-9)),
        ]);
        eprintln!("  [tab6] {name} done");
    }
    println!("{}", t.render());
}

/// Lemma 4: E[|S|] = k·|I|/(τ+1) under the random permutation model.
fn lemma4(cfg: &Config) {
    banner("Lemma 4: expected answer size under the random permutation model");
    let n = cfg.n(100_000);
    // Adversarial value profile: exponentially spaced (any profile works).
    let values: Vec<f64> = (0..n).map(|i| (i as f64).powf(1.7)).collect();
    let mut t = TablePrinter::new(vec!["k", "tau", "|I|", "E[|S|] pred", "|S| measured", "ratio"]);
    for &k in &[1usize, 5, 10, 25] {
        for &tau_pct in &[0.05f64, 0.10, 0.25] {
            let q = query_pct(n, k, tau_pct, 0.50);
            let trials = cfg.reps.max(3);
            let mut sizes = Vec::with_capacity(trials);
            for trial in 0..trials {
                let ds = random_permutation_dataset(&values, cfg.seed + trial as u64);
                let engine = one_shard(&ds, None);
                let scorer = SingleAttributeScorer::new(0);
                let r = engine.query(Algorithm::THop, &scorer, &q);
                sizes.push(r.records.len() as f64);
            }
            let (measured, _) = mean_std(&sizes);
            let predicted = k as f64 * q.interval.len() as f64 / (q.tau as f64 + 1.0);
            t.row(vec![
                format!("{k}"),
                format!("{}", q.tau),
                format!("{}", q.interval.len()),
                format!("{predicted:.1}"),
                format!("{measured:.1}"),
                format!("{:.3}", measured / predicted),
            ]);
        }
    }
    println!("{}", t.render());
}

/// Lemma 5: E[|C|] = O(k·|I|/τ · log^{d-1} τ) on random data.
fn lemma5(cfg: &Config) {
    banner("Lemma 5: expected durable k-skyband size on IND data");
    let mut t = TablePrinter::new(vec![
        "d",
        "tau",
        "|C| measured",
        "k|I|/tau",
        "|C|/(k|I|/tau)",
        "log^{d-1} tau",
    ]);
    for &d in &[2usize, 3, 4] {
        let n = cfg.n(30_000);
        let ds = ind(n, d, cfg.seed);
        let idx = DurableSkybandIndex::build(&ds, 16);
        for &tau_pct in &[0.05f64, 0.10, 0.25] {
            let q = query_pct(n, 10, tau_pct, 0.50);
            let c = idx.candidates(q.interval, q.tau, q.k).0.len() as f64;
            let base = q.k as f64 * q.interval.len() as f64 / q.tau as f64;
            let logs = (q.tau as f64).ln().powi(d as i32 - 1);
            t.row(vec![
                format!("{d}"),
                format!("{}", q.tau),
                format!("{c:.0}"),
                format!("{base:.1}"),
                format!("{:.2}", c / base),
                format!("{logs:.1}"),
            ]);
        }
    }
    println!("{}", t.render());
}

/// Ablations: leaf size, oracle choice.
fn ablation(cfg: &Config) {
    banner("Ablation A: oracle LENGTH_THRESHOLD (leaf size)");
    let ds = nba_x(cfg, 100_000, &["points", "assists"]);
    let n = ds.len();
    let q = default_query(n);
    let mut t = TablePrinter::new(vec!["leaf", "T-Hop ms", "S-Hop ms"]);
    for leaf in [16usize, 64, 128, 512, 2048] {
        let tree = SkylineSegTree::with_leaf_size(&ds, leaf);
        let mut ctx = QueryContext::new();
        let a = measure_by(2, Algorithm::THop, cfg, |u| t_hop(&ds, &tree, u, &q, &mut ctx));
        let b = measure_by(2, Algorithm::SHop, cfg, |u| s_hop(&ds, &tree, u, &q, &mut ctx));
        t.row(vec![format!("{leaf}"), pm(a.time_ms, a.time_std), pm(b.time_ms, b.time_std)]);
    }
    println!("{}", t.render());

    banner("Ablation B: building-block choice — T-Hop with tree vs scan oracle");
    let small = nba_x(cfg, 20_000, &["points", "assists"]);
    let ns = small.len();
    let qs = default_query(ns);
    let engine = one_shard(&small, None);
    let scan = ScanOracle::new();
    let vectors = preference_suite(2, cfg.reps, cfg.seed);
    let mut tree_ms = Vec::new();
    let mut scan_ms = Vec::new();
    for u in vectors {
        let scorer = LinearScorer::new(u);
        let s = Instant::now();
        let a = engine.query(Algorithm::THop, &scorer, &qs);
        tree_ms.push(s.elapsed().as_secs_f64() * 1e3);
        let s = Instant::now();
        let b = t_hop(&small, &scan, &scorer, &qs, &mut QueryContext::new());
        scan_ms.push(s.elapsed().as_secs_f64() * 1e3);
        assert_eq!(a.records, b.records);
    }
    let (tm, ts) = mean_std(&tree_ms);
    let (sm, ss) = mean_std(&scan_ms);
    println!("tree oracle: {} ms   scan oracle: {} ms", pm(tm, ts), pm(sm, ss));
    let _ = scan.queries_issued();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Vec<String>, Config), String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn known_sections_and_flags_parse() {
        let (which, cfg) = parse(&["fig8", "ablation", "--scale", "0.5", "--reps", "2"]).unwrap();
        assert_eq!(which, ["fig8", "ablation"]);
        assert_eq!((cfg.scale, cfg.reps), (0.5, 2));
        assert!(parse(&[]).unwrap().0.is_empty());
    }

    #[test]
    fn what_cannot_run_is_an_error() {
        for args in [
            &["fig99"][..],
            &["--scale"],
            &["--scale", "abc"],
            &["--bogus"],
            &["--reps", "0"],
            &["--scale", "-1"],
            &["--scale", "NaN"],
        ] {
            assert!(parse(args).is_err(), "{args:?}");
        }
    }
}
