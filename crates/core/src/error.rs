//! Typed errors for engine construction and the query path.
//!
//! The offline experiment driver could afford to `panic!` on bad input —
//! the process was the experiment. A serving deployment cannot: a panic on
//! a routine bad request (a zero `k`, an empty CSV)
//! would take a worker, or the whole process, down with it. These enums
//! carry the same diagnostics as the old panic messages, so callers that
//! still want to abort (`ShardedEngine::query`,
//! `DurableQuery::validate`) print identical text, while the serving layer
//! ([`ServeEngine`](crate::ServeEngine)) turns them into per-request
//! failures.

use durable_topk_temporal::{ScorerError, Time};

/// Why a `DurTop(k, I, τ)` request cannot be answered.
///
/// Everything here is reachable from *request input* — none of these
/// conditions indicates engine corruption, so a serving worker reports the
/// error on the request's completion handle and moves on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// `k == 0` — an empty top-k set is not a meaningful query.
    ZeroK,
    /// `τ == 0` — durability needs a positive window length.
    ZeroTau,
    /// The engine covers no records yet.
    EmptyDataset,
    /// The query interval starts past the last ingested record.
    IntervalOutOfRange {
        /// Requested interval start.
        start: Time,
        /// Last record id currently covered by the engine.
        last: Time,
    },
    /// `τ` exceeds a cluster's exactness bound: the coordinator's nodes
    /// are separate processes, each holding `max_tau` records of left
    /// context at least, so exactness cannot be guaranteed beyond it. An
    /// in-process engine answers every `τ` and never reports this.
    TauExceedsOverlap {
        /// Requested durability window length.
        tau: Time,
        /// The cluster's exactness bound.
        max_tau: Time,
    },
    /// A parameter vector's arity does not match the dataset's attribute
    /// count (scorer weights or appended record).
    Arity {
        /// Attribute count of the engine's dataset.
        expected: usize,
        /// Arity actually supplied.
        got: usize,
    },
    /// The request's preference vector cannot parameterize its scorer
    /// family: a negative or non-finite linear weight, a non-finite or
    /// all-zero cosine vector.
    InvalidScorer(ScorerError),
    /// An appended record has a NaN or infinite attribute; scores and
    /// skylines are defined over finite attributes only.
    NonFinite {
        /// 0-based index of the first non-finite attribute.
        attribute: usize,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::ZeroK => write!(f, "k must be positive"),
            QueryError::ZeroTau => write!(f, "tau must be positive"),
            QueryError::EmptyDataset => write!(f, "dataset is empty"),
            QueryError::IntervalOutOfRange { start, last } => {
                write!(f, "query interval starting at {start} starts past the last record {last}")
            }
            QueryError::TauExceedsOverlap { tau, max_tau } => write!(
                f,
                "tau {tau} exceeds the node context max_tau {max_tau}; \
                 give the cluster's nodes deeper left context"
            ),
            QueryError::Arity { expected, got } => {
                write!(f, "arity mismatch: the data has {expected} attributes, got {got}")
            }
            QueryError::InvalidScorer(e) => write!(f, "invalid scorer: {e}"),
            QueryError::NonFinite { attribute } => {
                write!(f, "attribute {attribute} of the record is not a finite number")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Why an engine cannot be constructed over the given inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildError {
    /// The dataset holds no records.
    EmptyDataset,
    /// A structural parameter (`dim`, `shard_count`, `shard_span`,
    /// `max_tau`, `leaf_size`) was zero; the name says which.
    ZeroParam(&'static str),
    /// An [`EngineConfig`](crate::EngineConfig) declared one attribute
    /// arity but was asked to build over a dataset with another.
    DimMismatch {
        /// Arity the configuration declared.
        config: usize,
        /// Arity of the dataset handed to `build_from`.
        data: usize,
    },
    /// A record of the dataset has a NaN or infinite attribute.
    NonFinite {
        /// Id of the first such record.
        record: usize,
        /// 0-based index of its first non-finite attribute.
        attribute: usize,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::EmptyDataset => write!(f, "cannot build an engine over an empty dataset"),
            BuildError::ZeroParam(name) => write!(f, "{name} must be positive"),
            BuildError::DimMismatch { config, data } => {
                write!(f, "configuration declares {config} attributes but the dataset has {data}")
            }
            BuildError::NonFinite { record, attribute } => {
                write!(f, "record {record} has a non-finite attribute {attribute}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_keep_the_historical_diagnostics() {
        // Callers that still panic print `Display`; these substrings are
        // load-bearing for #[should_panic] expectations across the suite.
        assert_eq!(QueryError::ZeroK.to_string(), "k must be positive");
        assert_eq!(QueryError::ZeroTau.to_string(), "tau must be positive");
        assert_eq!(QueryError::EmptyDataset.to_string(), "dataset is empty");
        assert!(QueryError::IntervalOutOfRange { start: 7, last: 4 }
            .to_string()
            .contains("starts past"));
        assert!(QueryError::TauExceedsOverlap { tau: 9, max_tau: 4 }
            .to_string()
            .contains("exceeds the node context"));
        assert!(BuildError::ZeroParam("shard_span").to_string().contains("shard_span"));
    }
}
