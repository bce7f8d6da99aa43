//! Integration-test-only crate; see `tests/tests/`. Holds the references
//! and generators the suites share, and the [`model`] they check every
//! front door against.

use durable_topk::{DurableQuery, EngineConfig, Scorer, ShardedEngine};
use durable_topk_temporal::{Dataset, RecordId, Time, Window};
use proptest::prelude::*;
use std::ops::Range;
use std::path::{Path, PathBuf};

pub mod model;

/// The paper's single-index engine over `ds`: one shard owning every
/// record, with the durable k-skyband for `k <= k_max` when given — its
/// durations exact for every `τ`.
///
/// # Panics
/// Panics if `ds` is empty.
pub fn flat(ds: &Dataset, k_max: Option<usize>) -> ShardedEngine {
    let cfg = EngineConfig::new(ds.dim(), ds.len(), ds.len() as Time);
    let cfg = if let Some(k_max) = k_max { cfg.skyband_bound(k_max) } else { cfg };
    cfg.build_from(ds, 1).expect("a one-shard build")
}

/// Definition-level durability: `t ∈ I` is durable iff fewer than `k`
/// records in its look-back window `[t − τ, t]` score above it.
pub fn brute_durable<S: Scorer + ?Sized>(
    ds: &Dataset,
    scorer: &S,
    q: &DurableQuery,
) -> Vec<RecordId> {
    q.interval
        .clamp_to(ds.len())
        .iter()
        .filter(|&t| {
            let w = Window::lookback(t, q.tau).clamp_to(ds.len());
            let my = scorer.score(ds.row(t));
            w.iter().filter(|&u| scorer.score(ds.row(u)) > my).count() < q.k
        })
        .collect()
}

/// `len` rows of two attributes in `0..8`: ties everywhere.
pub fn rows_strategy(len: Range<usize>) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0u32..8, 2), len).prop_map(|rows| {
        rows.into_iter().map(|r| r.into_iter().map(|v| v as f64).collect()).collect()
    })
}

/// `len` rows of `d` attributes in `0..vals`.
pub fn dataset_strategy(len: Range<usize>, d: usize, vals: u32) -> impl Strategy<Value = Dataset> {
    prop::collection::vec(prop::collection::vec(0..vals, d), len).prop_map(move |rows| {
        Dataset::from_rows(
            d,
            rows.into_iter().map(|r| r.into_iter().map(|v| v as f64).collect::<Vec<_>>()),
        )
    })
}

/// `durable-topk-<pid>-<name>` in the temp dir, its file removed when the
/// guard drops, pass or fail. Handed by value to a call that opens it, the
/// file goes once that call returns; the open handle keeps it readable.
pub struct TempPath(PathBuf);

impl TempPath {
    /// The path for `name`, unique to this process.
    pub fn new(name: &str) -> TempPath {
        TempPath(std::env::temp_dir().join(format!("durable-topk-{}-{name}", std::process::id())))
    }
}

impl AsRef<Path> for TempPath {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}
