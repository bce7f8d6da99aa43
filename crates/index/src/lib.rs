//! Indexing substrates for durable top-k queries.
//!
//! This crate implements the paper's "building block" and supporting
//! machinery:
//!
//! * [`segtree`] — the preference top-k index of Appendix A: a segment tree
//!   over arrival order whose nodes carry skyline summaries, queried
//!   best-first with interval max scores ([`SkylineSegTree`]); one search
//!   body ([`top_k_over`]) walks any number of adjacent trees under a
//!   single frontier. Generalized
//!   to any scorer that can bound a node summary ([`OracleScorer`]), so the
//!   non-monotone cosine scorer works through admissible bounding-box
//!   bounds. Also provides [`scan_top_k`], the naive reference oracle.
//! * [`blocking`] — the score-prioritized algorithms' blocking mechanism
//!   ([`BlockingSet`]): a Fenwick-backed multiset of τ-length intervals with
//!   tie-safe coverage counting.
//! * [`skyband_index`] — the durable k-skyband candidate index of Section
//!   IV-B ([`DurableSkybandIndex`]): per-record skyband durations in a
//!   block-maxima array, one per logarithmic k level.
//! * [`sliding`] — incremental top-k maintenance over sliding windows
//!   ([`SkybandBuffer`]), the substrate of the T-Base baseline (after
//!   Mouratidis et al.'s continuous-monitoring approach).
//! * [`forest`] — an appendable top-k index ([`AppendableTopKIndex`]): a
//!   logarithmic forest of segment trees supporting amortized-cheap appends
//!   for streaming arrivals.

#![deny(clippy::panic, clippy::unreachable)]

pub mod blocking;
pub mod forest;
pub mod segtree;
pub mod skyband_index;
pub mod sliding;

pub use blocking::BlockingSet;
pub use forest::AppendableTopKIndex;
pub use segtree::{
    scan_top_k, scan_top_k_into, structural_fingerprint, top_k_over, NodeSummary, OracleScorer,
    OracleScratch, OrdF64, Part, QueryCounters, SkylineSegTree, TopKResult, TreeRows,
    DEFAULT_LEAF_SIZE,
};
pub use skyband_index::{DurableSkybandIndex, IncrementalSkybandIndex, SkybandCandidates};
pub use sliding::SkybandBuffer;
