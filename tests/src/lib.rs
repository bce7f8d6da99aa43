//! Integration-test-only crate; see `tests/tests/`. Holds the one
//! reference engine the suites share.

use durable_topk::{EngineConfig, ShardedEngine};
use durable_topk_temporal::{Dataset, Time};

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
