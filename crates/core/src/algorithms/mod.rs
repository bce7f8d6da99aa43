//! The five durable top-k query algorithms.
//!
//! All algorithms answer the same query and return identical answer sets;
//! they differ in how many building-block invocations they need:
//!
//! * time-prioritized: [`t_base`] (Section III-A), [`t_hop`] (III-B);
//! * score-prioritized: [`s_base`] (IV-A), [`s_band`] (IV-B),
//!   [`s_hop`] (IV-C).
//!
//! T-Hop and S-Hop both perform `O(|S| + k⌈|I|/τ⌉)` top-k queries
//! (Lemmas 1 and 3); under the random permutation model the expected answer
//! size is `k·|I|/(τ+1)` (Lemma 4), making their expected cost linear in the
//! output.
//!
//! Every algorithm is monomorphized over the oracle *and* the scoring
//! function — on the serving path too, where
//! [`ScorerSpec`](crate::ScorerSpec) resolves to a concrete scorer type
//! before dispatching here — and draws all working memory from a
//! [`QueryContext`](crate::QueryContext): repeated queries through one
//! context perform no per-probe allocations.

mod sband;
mod sbase;
mod shop;
mod tbase;
mod thop;

pub use sband::s_band;
pub(crate) use sband::sband_fallback_reason;
pub use sbase::s_base;
pub(crate) use shop::ShopScratch;
pub use shop::{s_hop, RefillMode};
pub use tbase::t_base;
pub use thop::t_hop;
