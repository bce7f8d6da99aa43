//! Workload generators for the durable top-k evaluation.
//!
//! Reproduces the paper's dataset families (Table II):
//!
//! * [`synthetic`] — the IND (independent uniform) and ANTI
//!   (anti-correlated annulus) 2-d distributions of Fig. 7, used by the
//!   scalability experiments (Fig. 12, Table VI).
//! * [`rpm`] — the random permutation model of Section V-A (adversarial
//!   values, random arrival order), used to validate Lemma 4.
//! * [`nba`] — a generator standing in for the proprietary NBA box-score
//!   dataset (1M records, 15 attributes, era trends): the algorithms read only
//!   arrival order and attribute dominance, which the generator reproduces.
//! * [`network`] — a generator standing in for KDD Cup 1999 network
//!   connection records (5M records, 37 MinMax-normalized attributes with
//!   heavy tails and bursty attack episodes).
//! * [`preference`] — random preference vectors for query workloads (the
//!   paper averages each measurement over 100 random vectors).

pub mod nba;
pub mod network;
pub mod preference;
pub mod rpm;
pub mod synthetic;

pub use nba::{nba_attribute, nba_like, NBA_ATTRIBUTES};
pub use network::{network_like, NETWORK_DIM};
pub use preference::{preference_suite, random_preference};
pub use rpm::random_permutation_dataset;
pub use synthetic::{anti, corr, ind};
