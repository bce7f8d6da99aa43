//! The alternative durability-flavored queries of Example I.1.
//!
//! Provided for comparison and for the Fig. 1 case study: tumbling-window
//! top-k (sensitive to window placement) and sliding-window top-k (returns
//! the union over all placements, with the discontinuity artifacts the paper
//! illustrates with Drummond's 29-rebound game).

use crate::oracle::{Rows, TopKOracle};
use durable_topk_index::{OracleScorer, SkybandBuffer};
use durable_topk_temporal::{RecordId, Time, Window};

/// Tumbling-window top-k: partitions `interval` into consecutive τ-length
/// windows starting at `interval.start() + offset` and reports each window's
/// top-k (with ties).
///
/// The `offset` parameter exposes the placement sensitivity the paper
/// criticizes: shifting the grid changes the answer.
///
/// # Panics
/// Panics if `k == 0`, `tau == 0`, or the interval is outside the dataset.
pub fn tumbling_topk<O: TopKOracle + ?Sized, S: OracleScorer + ?Sized>(
    ds: &O::Rows,
    oracle: &O,
    scorer: &S,
    k: usize,
    interval: Window,
    tau: Time,
    offset: Time,
) -> Vec<(Window, Vec<RecordId>)> {
    assert!(k > 0, "k must be positive");
    assert!(tau > 0, "tau must be positive");
    let interval = interval.clamp_to(ds.len());
    let mut out = Vec::new();
    let mut lo = interval.start();
    if offset > 0 {
        let first_hi = (interval.start() + offset.min(tau) - 1).min(interval.end());
        let w = Window::new(lo, first_hi);
        out.push((w, ids(oracle.top_k(ds, scorer, k, w).items)));
        if first_hi == interval.end() {
            return out;
        }
        lo = first_hi + 1;
    }
    for w in Window::new(lo, interval.end()).chunks(tau) {
        out.push((w, ids(oracle.top_k(ds, scorer, k, w).items)));
    }
    out
}

/// Sliding-window top-k: the union of `π≤k` over every τ-length window with
/// its right endpoint in `interval`, maintained incrementally.
///
/// Returns the distinct records in arrival order. This is the
/// overwhelmingly-larger answer set of Fig. 1-(4); the paper's footnote-1
/// baseline (post-filtering it down to durable records) is what
/// [`t_base`](crate::algorithms::t_base) implements.
///
/// # Panics
/// Panics if `k == 0`, `tau == 0`, or the interval is outside the dataset.
pub fn sliding_topk_union<O: TopKOracle + ?Sized, S: OracleScorer + ?Sized>(
    ds: &O::Rows,
    oracle: &O,
    scorer: &S,
    k: usize,
    interval: Window,
    tau: Time,
) -> Vec<RecordId> {
    assert!(k > 0, "k must be positive");
    assert!(tau > 0, "tau must be positive");
    let interval = interval.clamp_to(ds.len());
    let mut seen = vec![false; ds.len()];
    let mut t = interval.start();
    let mut buffer =
        SkybandBuffer::from_result(k, &oracle.top_k(ds, scorer, k, Window::lookback(t, tau)));
    loop {
        for &(id, _) in buffer.items() {
            seen[id as usize] = true;
        }
        if t == interval.end() {
            break;
        }
        // Slide forward: [t-τ, t] -> [t+1-τ, t+1].
        t += 1;
        let incoming = t;
        let expires = (t as i64 - 1 - tau as i64) >= 0;
        if expires && buffer.contains(t - 1 - tau) {
            buffer = SkybandBuffer::from_result(
                k,
                &oracle.top_k(ds, scorer, k, Window::lookback(t, tau)),
            );
        } else {
            buffer.insert(incoming, scorer.score(ds.row(incoming)));
        }
    }
    (0..ds.len() as RecordId).filter(|&i| seen[i as usize]).collect()
}

fn ids(items: Vec<(RecordId, f64)>) -> Vec<RecordId> {
    let mut v: Vec<RecordId> = items.into_iter().map(|(id, _)| id).collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ScanOracle;
    use durable_topk_temporal::{Dataset, SingleAttributeScorer};

    fn ds() -> Dataset {
        Dataset::from_rows(1, [[5.0], [1.0], [7.0], [2.0], [6.0], [3.0], [9.0], [0.0]])
    }

    #[test]
    fn tumbling_partitions_and_reports_tops() {
        let ds = ds();
        let oracle = ScanOracle::new();
        let scorer = SingleAttributeScorer::new(0);
        let out = tumbling_topk(&ds, &oracle, &scorer, 1, Window::new(0, 7), 4, 0);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], (Window::new(0, 3), vec![2]));
        assert_eq!(out[1], (Window::new(4, 7), vec![6]));
    }

    #[test]
    fn tumbling_offset_changes_answers() {
        let ds = ds();
        let oracle = ScanOracle::new();
        let scorer = SingleAttributeScorer::new(0);
        let out = tumbling_topk(&ds, &oracle, &scorer, 1, Window::new(0, 7), 4, 2);
        // First (short) window [0,1], then [2,5], then [6,7].
        assert_eq!(out[0], (Window::new(0, 1), vec![0]));
        assert_eq!(out[1], (Window::new(2, 5), vec![2]));
        assert_eq!(out[2], (Window::new(6, 7), vec![6]));
    }

    #[test]
    fn sliding_union_matches_brute_force() {
        let ds = ds();
        let oracle = ScanOracle::new();
        let scorer = SingleAttributeScorer::new(0);
        for k in 1..=3usize {
            for tau in [1u32, 2, 3, 7] {
                let got = sliding_topk_union(&ds, &oracle, &scorer, k, Window::new(0, 7), tau);
                let mut expected = vec![false; ds.len()];
                for t in 0..8u32 {
                    let pi = oracle.top_k(&ds, &scorer, k, Window::lookback(t, tau));
                    for (id, _) in pi.items {
                        expected[id as usize] = true;
                    }
                }
                let expected: Vec<RecordId> = (0..8).filter(|&i| expected[i as usize]).collect();
                assert_eq!(got, expected, "k={k} tau={tau}");
            }
        }
    }

    #[test]
    fn sliding_union_is_superset_of_durable_answers() {
        use crate::algorithms::t_hop;
        use crate::query::DurableQuery;
        let ds = ds();
        let oracle = ScanOracle::new();
        let scorer = SingleAttributeScorer::new(0);
        let q = DurableQuery { k: 2, tau: 3, interval: Window::new(0, 7) };
        let durable = t_hop(&ds, &oracle, &scorer, &q, &mut crate::QueryContext::new());
        let union = sliding_topk_union(&ds, &oracle, &scorer, 2, Window::new(0, 7), 3);
        assert!(durable.records.iter().all(|r| union.contains(r)));
    }
}
