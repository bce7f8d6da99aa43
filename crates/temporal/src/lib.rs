//! Temporal data model for durable top-k queries.
//!
//! This crate provides the data model from Section II of *"Durable Top-K
//! Instant-Stamped Temporal Records with User-Specified Scoring Functions"*
//! (ICDE 2021): a dataset `P` of `n` records, each with `d` real-valued
//! attributes and a distinct arrival instant, organized in increasing order
//! of arrival time over the discrete time domain `T = {0, 1, …, n-1}`.
//!
//! The central types are:
//!
//! * [`Dataset`] — an immutable-by-default, append-friendly columnless
//!   (row-major) store of records ordered by arrival time. A record's
//!   *position* in the dataset **is** its discrete arrival time, exactly as
//!   the paper sets `p_i.t = i`.
//! * [`Window`] — an inclusive discrete time window `[start, end] ⊆ T`.
//! * [`Anchor`] — how a durability window is positioned relative to a
//!   record's arrival time (look-back `[p.t − τ, p.t]` or look-ahead
//!   `[p.t, p.t + τ]`).
//! * [`Scorer`] — the user-specified scoring function interface `f : R^d → R`,
//!   with the three concrete preference-function families from the paper
//!   (linear, linear combination of monotone transforms, cosine).

#![deny(clippy::panic, clippy::unreachable)]

pub mod dataset;
pub mod io;
pub mod scoring;
pub mod stats;
pub mod window;

pub use dataset::{Dataset, RecordId, RecordRef};
pub use io::{read_csv, read_csv_file, write_csv, write_csv_file, CsvError, CsvImport};
pub use scoring::{
    CosineScorer, LinearScorer, MonotoneCombinationScorer, MonotoneTransform, Scorer, ScorerError,
    SingleAttributeScorer,
};
pub use stats::{ColumnStats, DatasetStats};
pub use window::{Anchor, Window};

/// Discrete time instant: the position of a record in arrival order.
///
/// The paper's time domain is `T = {1, …, n}`; we use zero-based positions
/// `{0, …, n-1}` throughout, which only shifts notation.
pub type Time = u32;
