//! One validated builder for every [`ShardedEngine`] knob.
//!
//! [`EngineConfig`] is the only way to construct a [`ShardedEngine`]:
//! describe the engine declaratively, then [`build`](EngineConfig::build)
//! an empty live engine or [`build_from`](EngineConfig::build_from) one
//! over an existing dataset. Every parameter is checked up front and
//! reported as a typed [`BuildError`], and every subsystem — chunk
//! store, skyband bound, result cache — is in place before the first
//! record lands; nothing is applied to a constructed engine afterwards.
//!
//! ```
//! use durable_topk::EngineConfig;
//!
//! let mut engine = EngineConfig::new(2, 1_024, 64)
//!     .skyband_bound(10)
//!     .result_cache(1 << 20)
//!     .build()
//!     .expect("valid configuration");
//! engine.append(&[1.0, 2.0]);
//! ```

use crate::error::BuildError;
use crate::sharded::ShardedEngine;
use crate::storage::PagedStorage;
use durable_topk_index::DEFAULT_LEAF_SIZE;
use durable_topk_temporal::{Dataset, Time};
use std::sync::Arc;

/// Declarative configuration for a [`ShardedEngine`]: required shape
/// parameters up front, optional subsystems as chainable setters, one
/// validated build step.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    pub(crate) dim: usize,
    pub(crate) shard_span: usize,
    pub(crate) max_tau: Time,
    pub(crate) leaf_size: usize,
    pub(crate) skyband_bound: Option<usize>,
    pub(crate) storage: Option<Arc<PagedStorage>>,
    pub(crate) result_cache_bytes: Option<usize>,
}

impl EngineConfig {
    /// Starts a configuration from the three required shape parameters:
    /// attribute arity, records per sealed shard, and `max_tau`, how far
    /// back the durable k-skyband durations behind S-Band look.
    ///
    /// `max_tau` bounds no query: every `τ` is answered exactly, a window
    /// reaching past its shard reading the predecessors it overlaps. A
    /// duration truncated at `max_tau` only overestimates, so S-Band's
    /// candidates stay a superset of the answer for any `τ`; a `τ` at or
    /// below `max_tau` keeps that superset tight. It costs memory only in
    /// the head's skyband context: the rows of the `max_tau` records
    /// before it.
    pub fn new(dim: usize, shard_span: usize, max_tau: Time) -> Self {
        Self {
            dim,
            shard_span,
            max_tau,
            leaf_size: DEFAULT_LEAF_SIZE,
            skyband_bound: None,
            storage: None,
            result_cache_bytes: None,
        }
    }

    /// Index leaf granularity (default: [`DEFAULT_LEAF_SIZE`]): the head
    /// forest fuses one-record leaves up to half of it, and trees built
    /// over a dataset's shards get leaves of at most that half too.
    /// Streaming callers ingesting few records per query may prefer
    /// smaller leaves.
    pub fn leaf_size(mut self, leaf_size: usize) -> Self {
        self.leaf_size = leaf_size;
        self
    }

    /// Maintains the durable k-skyband levels `1, 2, 4, …` up to the first
    /// power of two at or above `k_max`, serving
    /// [`Algorithm::SBand`](crate::Algorithm::SBand) natively (without
    /// fallback) on every substrate — head and sealed tails — for every `k`
    /// up to that power: `skyband_bound(3)` serves `k = 4` natively too.
    /// A larger `k` falls back with
    /// [`FallbackReason::SkybandBoundExceeded`](crate::FallbackReason::SkybandBoundExceeded).
    pub fn skyband_bound(mut self, k_max: usize) -> Self {
        self.skyband_bound = Some(k_max);
        self
    }

    /// The store for sealed tails' record chunks (default:
    /// [`PagedStorage::in_memory`], which never spills). In
    /// [`build_from`](EngineConfig::build_from) the freshly built tails
    /// are stored straight into it, so a store with a pager starts
    /// spilling immediately.
    pub fn storage(mut self, storage: Arc<PagedStorage>) -> Self {
        self.storage = Some(storage);
        self
    }

    /// Enables the sealed-shard result cache with the given byte budget
    /// (see [`ShardResultCache`](crate::ShardResultCache)).
    pub fn result_cache(mut self, budget_bytes: usize) -> Self {
        self.result_cache_bytes = Some(budget_bytes);
        self
    }

    /// Validates every parameter that does not depend on a dataset.
    fn validate(&self) -> Result<(), BuildError> {
        if self.dim == 0 {
            return Err(BuildError::ZeroParam("dim"));
        }
        if self.shard_span == 0 {
            return Err(BuildError::ZeroParam("shard_span"));
        }
        if self.max_tau == 0 {
            return Err(BuildError::ZeroParam("max_tau"));
        }
        if self.leaf_size == 0 {
            return Err(BuildError::ZeroParam("leaf size"));
        }
        if self.skyband_bound == Some(0) {
            return Err(BuildError::ZeroParam("skyband bound"));
        }
        if self.result_cache_bytes == Some(0) {
            return Err(BuildError::ZeroParam("result cache budget"));
        }
        Ok(())
    }

    /// Builds an empty, appendable engine: records arrive via
    /// [`append`](ShardedEngine::append), shards seal every `shard_span`
    /// records, and queries are exact for every `τ`; skyband durations
    /// look `max_tau` records back.
    pub fn build(self) -> Result<ShardedEngine, BuildError> {
        self.validate()?;
        Ok(ShardedEngine::from_config(self, None))
    }

    /// Builds an engine over `ds` partitioned into `shard_count`
    /// contiguous time shards (capped at the dataset size), each built in
    /// parallel on the worker pool over the records it owns — its skyband
    /// durations looking `max_tau` records back — so a query with any `τ`
    /// matches the unsharded engine. The engine stays appendable: new
    /// arrivals land in an empty head shard whose skyband context is a
    /// copy of the trailing `max_tau` records' rows.
    ///
    /// The partition supersedes [`shard_span`](EngineConfig::new): each
    /// sealed shard owns `ceil(ds.len() / shard_count)` records, and that
    /// figure also becomes the span at which future appends seal.
    ///
    /// Errors on an empty dataset, an arity mismatch, a NaN or infinite
    /// attribute or a zero parameter instead of panicking, so a serving
    /// front end can surface bad input as a response rather than an abort.
    pub fn build_from(self, ds: &Dataset, shard_count: usize) -> Result<ShardedEngine, BuildError> {
        self.validate()?;
        if ds.dim() != self.dim {
            return Err(BuildError::DimMismatch { config: self.dim, data: ds.dim() });
        }
        if ds.is_empty() {
            return Err(BuildError::EmptyDataset);
        }
        if shard_count == 0 {
            return Err(BuildError::ZeroParam("shard_count"));
        }
        if let Some(at) = ds.raw_attrs().iter().position(|x| !x.is_finite()) {
            return Err(BuildError::NonFinite { record: at / ds.dim(), attribute: at % ds.dim() });
        }
        Ok(ShardedEngine::from_config(self, Some((ds, shard_count))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{tests::flat, Algorithm};
    use crate::query::DurableQuery;
    use durable_topk_temporal::{LinearScorer, Window};

    fn dataset(n: usize) -> Dataset {
        Dataset::from_rows(2, (0..n).map(|i| [((i * 37) % 101) as f64, ((i * 73) % 97) as f64]))
    }

    #[test]
    fn zero_parameters_are_rejected_by_name() {
        assert_eq!(EngineConfig::new(0, 8, 4).build().unwrap_err(), BuildError::ZeroParam("dim"));
        assert_eq!(
            EngineConfig::new(2, 0, 4).build().unwrap_err(),
            BuildError::ZeroParam("shard_span")
        );
        assert_eq!(
            EngineConfig::new(2, 8, 0).build().unwrap_err(),
            BuildError::ZeroParam("max_tau")
        );
        assert_eq!(
            EngineConfig::new(2, 8, 4).leaf_size(0).build().unwrap_err(),
            BuildError::ZeroParam("leaf size")
        );
        assert_eq!(
            EngineConfig::new(2, 8, 4).skyband_bound(0).build().unwrap_err(),
            BuildError::ZeroParam("skyband bound")
        );
        assert_eq!(
            EngineConfig::new(2, 8, 4).result_cache(0).build().unwrap_err(),
            BuildError::ZeroParam("result cache budget")
        );
    }

    #[test]
    fn build_from_checks_the_dataset_too() {
        let ds = dataset(10);
        assert_eq!(
            EngineConfig::new(2, 8, 4).build_from(&Dataset::new(2), 2).unwrap_err(),
            BuildError::EmptyDataset
        );
        assert_eq!(
            EngineConfig::new(2, 8, 4).build_from(&ds, 0).unwrap_err(),
            BuildError::ZeroParam("shard_count")
        );
        assert_eq!(
            EngineConfig::new(3, 8, 4).build_from(&ds, 2).unwrap_err(),
            BuildError::DimMismatch { config: 3, data: 2 }
        );
    }

    #[test]
    fn configured_live_engine_matches_flat_and_keeps_every_subsystem() {
        let ds = dataset(300);
        let mut live = EngineConfig::new(2, 48, 24)
            .skyband_bound(4)
            .result_cache(1 << 20)
            .storage(Arc::new(PagedStorage::with_temp_file(2).expect("paged backend")))
            .build()
            .expect("valid configuration");
        for id in 0..300u32 {
            live.append(ds.row(id));
        }
        assert!(live.result_cache().is_some(), "result cache configured");
        assert!(live.storage().stats().spilled_chunks > 0, "paged backend spills");
        let flat = flat(&ds, Some(4));
        let scorer = LinearScorer::new(vec![0.6, 0.4]);
        let q = DurableQuery { k: 3, tau: 20, interval: Window::new(0, 299) };
        for alg in Algorithm::ALL {
            let got = live.query(alg, &scorer, &q);
            assert_eq!(got.records, flat.query(alg, &scorer, &q).records, "alg={alg}");
            assert!(got.stats.fallback.is_none(), "alg={alg} must not fall back");
        }
    }

    #[test]
    fn build_from_partitions_and_serves_sband_without_fallback() {
        let ds = dataset(400);
        let engine = EngineConfig::new(2, 9_999, 40)
            .skyband_bound(6)
            .build_from(&ds, 5)
            .expect("valid configuration");
        assert_eq!(engine.sealed_shards(), 5);
        let flat = flat(&ds, Some(6));
        let scorer = LinearScorer::new(vec![0.3, 0.7]);
        let q = DurableQuery { k: 4, tau: 30, interval: Window::new(0, 399) };
        let got = engine.query(Algorithm::SBand, &scorer, &q);
        assert_eq!(got.records, flat.query(Algorithm::SBand, &scorer, &q).records);
        assert!(got.stats.fallback.is_none());
    }

    #[test]
    fn leaf_size_only_changes_performance_shape() {
        let ds = dataset(200);
        let mut tuned =
            EngineConfig::new(2, 32, 16).leaf_size(8).build().expect("valid configuration");
        let mut stock = EngineConfig::new(2, 32, 16).build().expect("valid configuration");
        for id in 0..200u32 {
            tuned.append(ds.row(id));
            stock.append(ds.row(id));
        }
        let scorer = LinearScorer::uniform(2);
        let q = DurableQuery { k: 2, tau: 12, interval: Window::new(0, 199) };
        assert_eq!(
            tuned.query(Algorithm::THop, &scorer, &q).records,
            stock.query(Algorithm::THop, &scorer, &q).records
        );
    }
}
