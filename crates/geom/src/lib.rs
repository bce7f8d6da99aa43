//! Computational-geometry substrates for durable top-k queries.
//!
//! The paper's S-Band algorithm (Section IV-B) and its analysis (Section V-B)
//! rest on classical multidimensional maxima machinery. This crate implements
//! those substrates from scratch:
//!
//! * [`dominance`] — Pareto-dominance tests with early exit.
//! * [`skyline`] — skyline (maxima) computation: a sort-sweep algorithm for
//!   d = 2 and a sort-filter algorithm for general d, plus skyline merging
//!   used by the segment-tree index.
//! * [`skyband`] — k-skyband computation and the per-record *durable
//!   k-skyband duration* `τ_p` (the longest look-back window in which
//!   fewer than `k` records strictly dominate it), the quantity indexed by
//!   S-Band, all computed by one block-pruned dominance-scan kernel.
//! * [`domcount`] — the Fenwick tree behind the blocking-interval counts.

pub mod domcount;
pub mod dominance;
pub mod skyband;
pub mod skyline;

pub use domcount::Fenwick;
pub use dominance::{dominates, strictly_dominates, weakly_dominates};
pub use skyband::{
    k_skyband, level_ks, skyband_durations, skyband_durations_multi, SkybandMaintainer,
    DURATION_UNBOUNDED,
};
pub use skyline::{skyline_indices, skyline_merge};
