//! Embedded paged storage engine: the DBMS substrate for the durable top-k
//! stored-procedure experiments (paper Section VI-C, Tables IV–VI).
//!
//! The paper implements T-Base and T-Hop as PL/Python stored procedures over
//! PostgreSQL tables plus an "index table" mirroring the tree-based top-k
//! index. This crate reproduces the storage behaviour those experiments
//! measure without requiring a PostgreSQL installation:
//!
//! * [`pager`] — 8 KiB pages in a single file behind an LRU
//!   [`pager::BufferPool`] with hit/miss/physical-I/O
//!   accounting;
//! * [`table`] — a fixed-width row table over the data region (row id =
//!   arrival instant, so time-window scans are sequential page reads);
//! * [`relation`] — the index relation: the skyline tree serialized as
//!   variable-length node records with skyline entries inlined (so interval
//!   max scores never touch the data region), plus the stored best-first
//!   top-k query;
//! * [`procedures`] — T-Base and T-Hop as stored procedures issuing all
//!   record and node accesses through the buffer pool.
//!
//! The experimental claim this substrate preserves: T-Base pays page I/O
//! linear in `|I|`, while T-Hop touches only the pages needed for
//! `O(|S| + k⌈|I|/τ⌉)` top-k probes — a >100× gap at scale (Table VI).
//!
//! Since PR 6 the same pager also backs the core crate's tiered shard
//! storage: [`chunk`] serializes sealed record chunks page-aligned (bit
//! identical on reload), and reads any run of a chunk's rows back through
//! the pages holding them alone ([`read_chunk_rows`]).

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

pub mod chunk;
mod codec;
pub mod pager;
pub mod procedures;
pub mod relation;
pub mod table;
#[cfg(test)]
mod test_path;

pub use chunk::{
    chunk_page_len, read_chunk, read_chunk_rows, write_chunk, ChunkRowBytes, ChunkShape,
};
pub use pager::{BufferPool, IoStats, PAGE_SIZE};
pub use procedures::{t_base_proc, t_hop_proc, ProcStats};
pub use relation::RelStore;
pub use table::Table;
