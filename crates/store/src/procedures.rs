//! T-Base and T-Hop as stored procedures over [`RelStore`].
//!
//! These mirror the paper's PL/Python stored procedures (Section VI-C):
//! every record and index-node access flows through the buffer pool, so the
//! reported I/O counts reflect what a DBMS-resident implementation pays.
//! (S-Hop "requires a more delicate query procedure and data structures …
//! more suitable … as a wrapper function outside the DBMS" — the paper makes
//! the same scoping choice.)

use crate::pager::IoStats;
use crate::relation::RelStore;
use durable_topk_index::{OracleScorer, OracleScratch, SkybandBuffer, TopKResult};
use durable_topk_temporal::{RecordId, Time, Window};
use std::io;

/// Instrumentation for one stored-procedure execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStats {
    /// Top-k queries executed against the index relation.
    pub topk_queries: u64,
    /// Individual rows fetched from the data table.
    pub rows_read: u64,
    /// Buffer-pool deltas during the call.
    pub io: IoStats,
}

fn io_delta(after: IoStats, before: IoStats) -> IoStats {
    IoStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        reads: after.reads - before.reads,
        writes: after.writes - before.writes,
    }
}

/// T-Hop (Algorithm 1) as a stored procedure.
///
/// Holds one [`OracleScratch`] and one result buffer for the whole
/// execution, so every top-k probe runs through the allocation-free
/// [`RelStore::top_k_with`] path.
///
/// # Panics
/// Panics if `k == 0`, `tau == 0` or the interval lies outside the table.
pub fn t_hop_proc<S: OracleScorer + ?Sized>(
    store: &mut RelStore,
    scorer: &S,
    k: usize,
    interval: Window,
    tau: Time,
) -> io::Result<(Vec<RecordId>, ProcStats)> {
    assert!(k > 0 && tau > 0, "k and tau must be positive");
    let interval = interval.clamp_to(store.len());
    let before = store.io_stats();
    let mut stats = ProcStats::default();
    let mut answers = Vec::new();
    let mut row = vec![0.0f64; store.dim()];
    let mut scratch = OracleScratch::new();
    let mut pi = TopKResult::empty();

    let mut t = interval.end();
    loop {
        stats.topk_queries += 1;
        store.top_k_with(scorer, k, Window::lookback(t, tau), &mut scratch, &mut pi)?;
        store.read_row(t, &mut row)?;
        stats.rows_read += 1;
        if pi.admits_score(scorer.score(&row)) {
            answers.push(t);
            if t == interval.start() {
                break;
            }
            t -= 1;
        } else {
            // A record is non-durable only when some top-k set rejected it,
            // and a rejecting set cannot be empty.
            #[allow(clippy::expect_used)]
            let hop = pi.max_time().expect("non-durable implies non-empty top-k");
            if hop < interval.start() {
                break;
            }
            t = hop;
        }
    }
    answers.sort_unstable();
    stats.io = io_delta(store.io_stats(), before);
    Ok((answers, stats))
}

/// T-Base (Section III-A) as a stored procedure: backward sliding window
/// with incremental top-k maintenance, recomputing from the index relation
/// only when a `π≤k` member expires.
///
/// Like [`t_hop_proc`], one [`OracleScratch`] and one result buffer serve
/// every recomputation; the skyband buffer refills in place.
///
/// # Panics
/// Panics if `k == 0`, `tau == 0` or the interval lies outside the table.
pub fn t_base_proc<S: OracleScorer + ?Sized>(
    store: &mut RelStore,
    scorer: &S,
    k: usize,
    interval: Window,
    tau: Time,
) -> io::Result<(Vec<RecordId>, ProcStats)> {
    assert!(k > 0 && tau > 0, "k and tau must be positive");
    let interval = interval.clamp_to(store.len());
    let before = store.io_stats();
    let mut stats = ProcStats::default();
    let mut answers = Vec::new();
    let mut row = vec![0.0f64; store.dim()];
    let mut scratch = OracleScratch::new();
    let mut pi = TopKResult::empty();

    let mut t = interval.end();
    stats.topk_queries += 1;
    store.top_k_with(scorer, k, Window::lookback(t, tau), &mut scratch, &mut pi)?;
    let mut buffer = SkybandBuffer::from_result(k, &pi);
    loop {
        store.read_row(t, &mut row)?;
        stats.rows_read += 1;
        if buffer.admits(scorer.score(&row)) {
            answers.push(t);
        }
        if t == interval.start() {
            break;
        }
        let expiring = t;
        t -= 1;
        if buffer.contains(expiring) {
            stats.topk_queries += 1;
            store.top_k_with(scorer, k, Window::lookback(t, tau), &mut scratch, &mut pi)?;
            buffer.refill(&pi);
        } else if t >= tau {
            let incoming = t - tau;
            store.read_row(incoming, &mut row)?;
            stats.rows_read += 1;
            buffer.insert(incoming, scorer.score(&row));
        }
    }
    answers.sort_unstable();
    stats.io = io_delta(store.io_stats(), before);
    Ok((answers, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use durable_topk_temporal::{Dataset, LinearScorer, Scorer};
    use rand::prelude::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("durable-topk-proc-tests");
        std::fs::create_dir_all(&dir).expect("mk tmpdir");
        dir.join(name)
    }

    fn brute_durable(
        ds: &Dataset,
        scorer: &dyn Scorer,
        k: usize,
        i: Window,
        tau: Time,
    ) -> Vec<RecordId> {
        i.iter()
            .filter(|&t| {
                let w = Window::lookback(t, tau);
                let my = scorer.score(ds.row(t));
                let better =
                    w.clamp_to(ds.len()).iter().filter(|&u| scorer.score(ds.row(u)) > my).count();
                better < k
            })
            .collect()
    }

    #[test]
    fn procedures_match_definition() {
        let mut rng = StdRng::seed_from_u64(55);
        let rows: Vec<[f64; 2]> = (0..800)
            .map(|_| [rng.random_range(0..15) as f64, rng.random_range(0..15) as f64])
            .collect();
        let ds = Dataset::from_rows(2, rows);
        let mut store = RelStore::create(tmp("agree.db"), &ds, 16, 64).expect("create");
        let scorer = LinearScorer::new(vec![0.4, 0.6]);
        for (k, tau) in [(1usize, 50u32), (3, 120), (5, 400)] {
            let i = Window::new(100, 799);
            let expected = brute_durable(&ds, &scorer, k, i, tau);
            let (hop, _) = t_hop_proc(&mut store, &scorer, k, i, tau).expect("t-hop");
            let (base, _) = t_base_proc(&mut store, &scorer, k, i, tau).expect("t-base");
            assert_eq!(hop, expected, "t-hop k={k} tau={tau}");
            assert_eq!(base, expected, "t-base k={k} tau={tau}");
        }
    }

    #[test]
    fn thop_does_less_io_than_tbase() {
        let mut rng = StdRng::seed_from_u64(56);
        let rows: Vec<[f64; 2]> =
            (0..40_000).map(|_| [rng.random::<f64>(), rng.random::<f64>()]).collect();
        let ds = Dataset::from_rows(2, rows);
        let mut store = RelStore::create(tmp("io.db"), &ds, 128, 96).expect("create");
        let scorer = LinearScorer::uniform(2);
        let i = Window::new(10_000, 39_999);
        let tau = 8_000;

        store.clear_cache().expect("cold");
        let (a, hop_stats) = t_hop_proc(&mut store, &scorer, 10, i, tau).expect("t-hop");
        store.clear_cache().expect("cold");
        let (b, base_stats) = t_base_proc(&mut store, &scorer, 10, i, tau).expect("t-base");
        assert_eq!(a, b);
        assert!(
            hop_stats.topk_queries * 5 < base_stats.rows_read,
            "hop queries {} vs base rows {}",
            hop_stats.topk_queries,
            base_stats.rows_read
        );
        assert!(
            hop_stats.io.misses < base_stats.io.misses,
            "hop misses {} vs base misses {}",
            hop_stats.io.misses,
            base_stats.io.misses
        );
    }
}
