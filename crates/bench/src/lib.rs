//! Shared harness for the evaluation experiments (Figs. 1–13, Tables IV–VI).
//!
//! The `experiments` binary regenerates every table and figure series from
//! the paper's Section VI; this library holds the measurement plumbing:
//! dataset construction at laptop-scaled sizes, repeated timed runs over
//! random preference vectors (the paper uses 100 vectors per setting), and
//! aligned text tables.

use durable_topk::{
    Algorithm, DurableQuery, EngineConfig, LinearScorer, QueryResult, ShardedEngine, Window,
};
use durable_topk_temporal::{Dataset, Time};
use durable_topk_workloads::preference_suite;
use std::time::Instant;

/// Scale factor applied to every default dataset size. `1.0` targets a
/// laptop run of a few minutes for `all`.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Multiplies default dataset sizes.
    pub scale: f64,
    /// Preference vectors per measurement (paper: 100).
    pub reps: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self { scale: 1.0, reps: 5, seed: 42 }
    }
}

impl Config {
    /// Scales a default size.
    pub fn n(&self, base: usize) -> usize {
        ((base as f64 * self.scale) as usize).max(64)
    }
}

/// Mean and population standard deviation of a sample.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len().max(1) as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// One measured algorithm run, averaged over preference vectors.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Algorithm measured.
    pub alg: Algorithm,
    /// Mean wall time in milliseconds.
    pub time_ms: f64,
    /// Standard deviation of wall time.
    pub time_std: f64,
    /// Mean number of top-k building-block queries.
    pub topk_queries: f64,
    /// Mean durability checks (subset of `topk_queries`).
    pub durability_checks: f64,
    /// Mean candidate-set size (|C| for S-Band).
    pub candidates: f64,
    /// Mean answer size |S|.
    pub answer_size: f64,
}

/// The paper's single-index engine over `ds`: one shard owning every
/// record, with the durable k-skyband for `k <= k_max` when given.
pub fn one_shard(ds: &Dataset, k_max: Option<usize>) -> ShardedEngine {
    let cfg = EngineConfig::new(ds.dim(), ds.len(), ds.len() as Time);
    let cfg = if let Some(k_max) = k_max { cfg.skyband_bound(k_max) } else { cfg };
    cfg.build_from(ds, 1).expect("a one-shard build")
}

/// Times `alg` on `engine` across the configured preference vectors.
pub fn measure(
    engine: &ShardedEngine,
    alg: Algorithm,
    query: &DurableQuery,
    cfg: &Config,
) -> Measurement {
    measure_by(engine.dim(), alg, cfg, |scorer| engine.query(alg, scorer, query))
}

/// Times `run`, which answers one query as `alg`, across the configured
/// preference vectors over `dim` attributes.
pub fn measure_by(
    dim: usize,
    alg: Algorithm,
    cfg: &Config,
    mut run: impl FnMut(&LinearScorer) -> QueryResult,
) -> Measurement {
    let vectors = preference_suite(dim, cfg.reps, cfg.seed);
    let mut times = Vec::with_capacity(vectors.len());
    let mut queries = Vec::with_capacity(vectors.len());
    let mut checks = Vec::with_capacity(vectors.len());
    let mut cands = Vec::with_capacity(vectors.len());
    let mut answers = Vec::with_capacity(vectors.len());
    for u in vectors {
        let scorer = LinearScorer::new(u);
        let start = Instant::now();
        let result = run(&scorer);
        times.push(start.elapsed().as_secs_f64() * 1e3);
        queries.push(result.stats.topk_queries() as f64);
        checks.push(result.stats.durability_checks as f64);
        cands.push(result.stats.candidates as f64);
        answers.push(result.records.len() as f64);
    }
    let (time_ms, time_std) = mean_std(&times);
    Measurement {
        alg,
        time_ms,
        time_std,
        topk_queries: mean_std(&queries).0,
        durability_checks: mean_std(&checks).0,
        candidates: mean_std(&cands).0,
        answer_size: mean_std(&answers).0,
    }
}

/// Builds the default query (paper Table III bold defaults):
/// `k = 10`, `τ = 10%` of the domain, `|I| = 50%` anchored at the most
/// recent timestamp.
pub fn default_query(n: usize) -> DurableQuery {
    query_pct(n, 10, 0.10, 0.50)
}

/// A query with τ and |I| given as fractions of the domain, interval
/// anchored at the most recent timestamp (as the paper fixes it).
pub fn query_pct(n: usize, k: usize, tau_pct: f64, interval_pct: f64) -> DurableQuery {
    let n = n as Time;
    let tau = ((n as f64 * tau_pct) as Time).max(1);
    let ilen = ((n as f64 * interval_pct) as Time).max(1);
    DurableQuery { k, tau, interval: Window::new(n - ilen, n - 1) }
}

/// Aligned text-table printer for experiment output.
pub struct TablePrinter {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TablePrinter {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends one row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// `format!`-ready `mean±std` cell.
pub fn pm(mean: f64, std: f64) -> String {
    if mean >= 100.0 {
        format!("{mean:.0}±{std:.0}")
    } else if mean >= 1.0 {
        format!("{mean:.2}±{std:.2}")
    } else {
        format!("{mean:.3}±{std:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_of_known_values() {
        let (m, s) = mean_std(&[2.0, 4.0]);
        assert_eq!(m, 3.0);
        assert_eq!(s, 1.0);
    }

    #[test]
    fn query_pct_shapes() {
        let q = query_pct(1000, 10, 0.10, 0.50);
        assert_eq!(q.tau, 100);
        assert_eq!(q.interval, Window::new(500, 999));
        assert_eq!(q.k, 10);
    }

    #[test]
    fn measure_reports_consistent_answer_sizes() {
        let ds = Dataset::from_rows(
            2,
            (0..500).map(|i| [((i * 13) % 97) as f64, ((i * 29) % 89) as f64]),
        );
        let engine = one_shard(&ds, Some(16));
        let cfg = Config { reps: 3, ..Default::default() };
        let q = default_query(500);
        let a = measure(&engine, Algorithm::THop, &q, &cfg);
        let b = measure(&engine, Algorithm::SHop, &q, &cfg);
        let c = measure(&engine, Algorithm::SBand, &q, &cfg);
        assert_eq!(a.answer_size, b.answer_size);
        assert_eq!(a.answer_size, c.answer_size);
        assert!(c.candidates >= c.answer_size, "C is a superset of S");
    }

    #[test]
    fn table_printer_aligns() {
        let mut t = TablePrinter::new(vec!["a", "bbbb"]);
        t.row(vec!["1", "2"]);
        let s = t.render();
        assert!(s.contains("a  bbbb"));
        assert!(s.lines().count() == 3);
    }
}
