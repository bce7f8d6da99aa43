//! Skyline (maxima) computation.
//!
//! The segment-tree top-k index stores, per node, the skyline of the records
//! in the node's time interval: for any monotone scoring function, the
//! maximum score over the node is attained on the skyline, which is what
//! makes skylines exact score upper bounds (paper Appendix A).

use crate::dominance::dominates;
use durable_topk_temporal::{Dataset, RecordId};

/// Computes the skyline of the records `ids` (indices into `ds`).
///
/// Returns the ids of records not strictly dominated by any other record in
/// the set. Duplicated attribute vectors all survive (none dominates the
/// other), matching the strict-dominance semantics used throughout.
///
/// Complexity: `O(m log m)` for `d == 2` via a sort-and-sweep; `O(m · s)`
/// for general `d` via sort-by-sum filtering, where `s` is the skyline size.
pub fn skyline_indices(ds: &Dataset, ids: &[RecordId]) -> Vec<RecordId> {
    match ds.dim() {
        2 => skyline_2d(ds, ids),
        _ => skyline_general(ds, ids),
    }
}

/// Merges two skylines into the skyline of the union of their underlying
/// sets.
///
/// Valid because the skyline of a union is a subset of the union of the
/// skylines; used bottom-up when building (and appending to) the segment
/// tree.
pub fn skyline_merge(ds: &Dataset, a: &[RecordId], b: &[RecordId]) -> Vec<RecordId> {
    let mut all = Vec::with_capacity(a.len() + b.len());
    all.extend_from_slice(a);
    all.extend_from_slice(b);
    skyline_indices(ds, &all)
}

fn skyline_2d(ds: &Dataset, ids: &[RecordId]) -> Vec<RecordId> {
    let mut sorted: Vec<RecordId> = ids.to_vec();
    // Sort by x descending; for equal x, by y descending so the sweep sees
    // the best y first and equal points are kept together.
    sorted.sort_unstable_by(|&p, &q| {
        let (px, py) = (ds.value(p, 0), ds.value(p, 1));
        let (qx, qy) = (ds.value(q, 0), ds.value(q, 1));
        qx.partial_cmp(&px)
            .expect("attribute values must not be NaN")
            .then(qy.partial_cmp(&py).expect("attribute values must not be NaN"))
    });
    let mut out: Vec<RecordId> = Vec::new();
    let mut best_y = f64::NEG_INFINITY;
    let mut i = 0;
    while i < sorted.len() {
        // Process a run of equal (x, y) points together: duplicates of a
        // skyline point are all skyline points.
        let x = ds.value(sorted[i], 0);
        let y = ds.value(sorted[i], 1);
        // The run holds at least its first point, so every pass advances
        // (a NaN coordinate equals nothing, itself included).
        let mut j = i + 1;
        while j < sorted.len() && ds.value(sorted[j], 0) == x && ds.value(sorted[j], 1) == y {
            j += 1;
        }
        if y > best_y {
            out.extend_from_slice(&sorted[i..j]);
            best_y = y;
        } else if y == best_y {
            // Same y as a previously accepted point with larger-or-equal x:
            // dominated unless x also equal, in which case that run already
            // handled it. Points with equal y but strictly smaller x are
            // dominated (larger x, equal y dominates).
        }
        i = j;
    }
    out
}

fn skyline_general(ds: &Dataset, ids: &[RecordId]) -> Vec<RecordId> {
    let mut sorted: Vec<RecordId> = ids.to_vec();
    // Sorting by coordinate sum descending guarantees no later point can
    // dominate an earlier one (dominance implies a strictly larger sum), so
    // one filtering pass against the accepted skyline suffices.
    sorted.sort_unstable_by(|&p, &q| {
        let sp: f64 = ds.row(p).iter().sum();
        let sq: f64 = ds.row(q).iter().sum();
        sq.partial_cmp(&sp).expect("attribute values must not be NaN")
    });
    let mut out: Vec<RecordId> = Vec::new();
    'cand: for &c in &sorted {
        let row = ds.row(c);
        for &s in &out {
            if dominates(ds.row(s), row) {
                continue 'cand;
            }
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_skyline(ds: &Dataset, ids: &[RecordId]) -> Vec<RecordId> {
        let mut out: Vec<RecordId> = ids
            .iter()
            .copied()
            .filter(|&p| !ids.iter().any(|&q| q != p && dominates(ds.row(q), ds.row(p))))
            .collect();
        out.sort_unstable();
        out
    }

    fn all_ids(ds: &Dataset) -> Vec<RecordId> {
        (0..ds.len() as RecordId).collect()
    }

    #[test]
    fn skyline_2d_terminates_on_a_nan_point() {
        // A lone NaN point is never compared by the sort, so only the run
        // loop sees it; it must still advance. On a thread with a deadline
        // so a regression fails instead of stalling the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        #[allow(clippy::disallowed_methods)]
        std::thread::spawn(move || {
            let ds = Dataset::from_rows(2, [[f64::NAN, 1.0]]);
            let _ = tx.send(skyline_indices(&ds, &[0]));
        });
        let got = rx.recv_timeout(std::time::Duration::from_secs(20));
        assert_eq!(got, Ok(vec![0]));
    }

    #[test]
    fn skyline_2d_matches_brute_force() {
        let ds = Dataset::from_rows(
            2,
            [
                [1.0, 9.0],
                [2.0, 8.0],
                [3.0, 3.0],
                [2.0, 8.0], // duplicate survives
                [9.0, 1.0],
                [5.0, 5.0],
                [4.0, 5.0], // dominated by (5,5)
                [5.0, 4.0], // dominated by (5,5)
            ],
        );
        let ids = all_ids(&ds);
        let mut got = skyline_indices(&ds, &ids);
        got.sort_unstable();
        assert_eq!(got, brute_skyline(&ds, &ids));
        assert!(got.contains(&1) && got.contains(&3), "duplicates both kept");
    }

    #[test]
    fn skyline_general_matches_brute_force() {
        let ds = Dataset::from_rows(
            3,
            [
                [1.0, 1.0, 9.0],
                [9.0, 1.0, 1.0],
                [1.0, 9.0, 1.0],
                [5.0, 5.0, 5.0],
                [4.0, 4.0, 4.0],
                [5.0, 5.0, 4.0],
            ],
        );
        let ids = all_ids(&ds);
        let mut got = skyline_indices(&ds, &ids);
        got.sort_unstable();
        assert_eq!(got, brute_skyline(&ds, &ids));
    }

    #[test]
    fn skyline_of_chain_is_top_point() {
        let ds = Dataset::from_rows(2, [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]);
        assert_eq!(skyline_indices(&ds, &all_ids(&ds)), vec![2]);
    }

    #[test]
    fn skyline_of_anti_chain_is_everything() {
        let ds = Dataset::from_rows(2, [[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]]);
        let mut got = skyline_indices(&ds, &all_ids(&ds));
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn merge_equals_skyline_of_union() {
        let ds = Dataset::from_rows(
            2,
            [[1.0, 5.0], [5.0, 1.0], [3.0, 3.0], [2.0, 6.0], [6.0, 0.5], [0.5, 0.5]],
        );
        let a = skyline_indices(&ds, &[0, 1, 2]);
        let b = skyline_indices(&ds, &[3, 4, 5]);
        let mut merged = skyline_merge(&ds, &a, &b);
        merged.sort_unstable();
        assert_eq!(merged, brute_skyline(&ds, &all_ids(&ds)));
    }

    #[test]
    fn randomized_skyline_agreement() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        for d in [2usize, 3, 4] {
            for _ in 0..20 {
                let n = rng.random_range(1..60);
                let rows: Vec<Vec<f64>> = (0..n)
                    .map(|_| (0..d).map(|_| (rng.random_range(0..8)) as f64).collect())
                    .collect();
                let ds = Dataset::from_rows(d, rows);
                let ids = all_ids(&ds);
                let mut got = skyline_indices(&ds, &ids);
                got.sort_unstable();
                assert_eq!(got, brute_skyline(&ds, &ids), "d={d}");
            }
        }
    }
}
