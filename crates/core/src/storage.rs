//! Tiered storage for sealed shard record chunks.
//!
//! A sealed tail shard of the [`ShardedEngine`](crate::ShardedEngine) is
//! three things: a segment tree, an optional frozen skyband
//! index, and the *record chunk* — the immutable rows of the records the
//! shard owns. A query piece fetches its own shard's chunk and those of the
//! predecessors its windows reach. The first two are compact; the chunk is
//! where the resident set lives. This module puts the chunk behind a
//! [`ShardStorage`] trait with two backends:
//!
//! * [`MemoryStorage`] — every chunk stays decoded in memory as a shared
//!   [`Arc<Dataset>`]. Today's behavior, zero-cost fetches, the default.
//! * [`PagedStorage`] — chunks are serialized page-aligned into a
//!   [`BufferPool`] file at store time (once per seal, about 0.1 ms for a
//!   4 096-record chunk). The newest `spill_after` chunks additionally stay
//!   decoded; older ones are *spilled* — a query touching one
//!   transparently faults in the pages holding the rows it can read
//!   ([`ShardStorage::fetch_rows`]), decodes those rows, and reports the
//!   physical page reads as cold-page hits
//!   ([`QueryStats::cold_page_hits`](crate::QueryStats::cold_page_hits)).
//!   Pages stay in the pool's LRU frames, so a repeated cold query is
//!   served from them while they last.
//!
//! Because chunks are shared `Arc`s end to end — the sealed head's
//! sub-dataset, storage, query fan-out — sealing does not copy the record
//! data and
//! the engine holds exactly one decoded copy of each chunk, whichever
//! backend is active. Exactness is non-negotiable: the paged roundtrip is
//! bit-identical (see the store crate's chunk format), proptested against
//! [`MemoryStorage`] across seal boundaries.

use crate::check::{LockClass, TrackedMutex};
use crate::sync::lock;
use durable_topk_store::{read_chunk_rows, write_chunk, BufferPool, ChunkShape};
use durable_topk_temporal::{Dataset, Time, Window};
use std::collections::VecDeque;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Handle to a stored record chunk, issued by [`ShardStorage::store`].
pub type ChunkId = usize;

/// A point-in-time snapshot of a storage backend's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Chunks stored.
    pub chunks: usize,
    /// Chunks currently held decoded in memory.
    pub resident_chunks: usize,
    /// Chunks currently spilled (reachable only through page I/O).
    pub spilled_chunks: usize,
    /// Total [`fetch`](ShardStorage::fetch) and
    /// [`fetch_rows`](ShardStorage::fetch_rows) calls.
    pub fetches: u64,
    /// Fetches that had to decode rows of a spilled chunk from pages.
    pub cold_fetches: u64,
    /// Physical page reads performed by cold fetches.
    pub cold_page_reads: u64,
}

/// Where sealed shards keep their record chunks.
///
/// Implementations are shared across the appending thread and the query
/// fan-out (`Send + Sync`); all methods take `&self`.
pub trait ShardStorage: Send + Sync + std::fmt::Debug {
    /// Stores an immutable chunk, returning its handle. Runs once per
    /// seal, on the appending thread.
    fn store(&self, chunk: Arc<Dataset>) -> ChunkId;

    /// Retrieves a chunk by handle, together with the number of physical
    /// page reads the retrieval needed (`0` when the chunk was resident —
    /// the figure queries surface as
    /// [`QueryStats::cold_page_hits`](crate::QueryStats::cold_page_hits)).
    ///
    /// # Panics
    /// Panics if `id` was not issued by this backend.
    fn fetch(&self, id: ChunkId) -> (Arc<Dataset>, u64);

    /// Retrieves at least records `rows` (chunk ids) of a chunk: the rows,
    /// the chunk id of their row 0, and the physical page reads the
    /// retrieval needed. A resident chunk comes back whole (first row
    /// `0`, no copy); a spilled one reads and decodes only the pages
    /// holding `rows`.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this backend or `rows` reaches
    /// past the chunk.
    fn fetch_rows(&self, id: ChunkId, rows: Window) -> (Arc<Dataset>, Time, u64);

    /// Counter snapshot.
    fn stats(&self) -> StorageStats;

    /// Heap bytes of the chunks currently held decoded (the resident-set
    /// figure the storage bench reports).
    fn resident_bytes(&self) -> usize;
}

/// The all-in-memory backend: chunks are shared `Arc`s, fetches are clone
/// cheap, nothing is ever cold.
#[derive(Debug)]
pub struct MemoryStorage {
    chunks: TrackedMutex<Vec<Arc<Dataset>>>,
    fetches: AtomicU64,
}

impl MemoryStorage {
    /// An empty in-memory backend.
    pub fn new() -> Self {
        Self {
            chunks: TrackedMutex::new(LockClass::PagePool, Vec::new()),
            fetches: AtomicU64::new(0),
        }
    }
}

impl Default for MemoryStorage {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardStorage for MemoryStorage {
    fn store(&self, chunk: Arc<Dataset>) -> ChunkId {
        let mut chunks = lock(&self.chunks);
        chunks.push(chunk);
        chunks.len() - 1
    }

    fn fetch(&self, id: ChunkId) -> (Arc<Dataset>, u64) {
        self.fetches.fetch_add(1, Ordering::Relaxed);
        (Arc::clone(&lock(&self.chunks)[id]), 0)
    }

    fn fetch_rows(&self, id: ChunkId, _rows: Window) -> (Arc<Dataset>, Time, u64) {
        let (rows, cold) = self.fetch(id);
        (rows, 0, cold)
    }

    fn stats(&self) -> StorageStats {
        let chunks = lock(&self.chunks).len();
        StorageStats {
            chunks,
            resident_chunks: chunks,
            spilled_chunks: 0,
            fetches: self.fetches.load(Ordering::Relaxed),
            cold_fetches: 0,
            cold_page_reads: 0,
        }
    }

    fn resident_bytes(&self) -> usize {
        lock(&self.chunks).iter().map(|c| c.heap_bytes()).sum()
    }
}

/// Per-chunk directory entry of the paged backend.
struct PagedChunk {
    first_page: u64,
    /// The header fields, so row reads never fault the header page.
    shape: ChunkShape,
    /// Decoded copy, present while the chunk is in the resident tier (or
    /// permanently, if its spill write failed).
    resident: Option<Arc<Dataset>>,
    /// Whether the serialized form reached the pool (spilling is only
    /// legal then; a failed write degrades the chunk to memory residency
    /// rather than losing data).
    on_disk: bool,
}

struct Paged {
    pool: BufferPool,
    dir: Vec<PagedChunk>,
    /// Chunks eligible for spilling, oldest first.
    resident_order: VecDeque<ChunkId>,
    next_page: u64,
    fetches: u64,
    cold_fetches: u64,
    cold_page_reads: u64,
    write_failures: u64,
}

/// The pager-backed tiered backend: every chunk is serialized to pages at
/// store time; the newest `spill_after` chunks also stay decoded, older
/// ones are served by faulting their pages back in. See the module docs
/// for the full story.
pub struct PagedStorage {
    inner: TrackedMutex<Paged>,
    spill_after: usize,
}

impl std::fmt::Debug for PagedStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("PagedStorage")
            .field("spill_after", &self.spill_after)
            .field("chunks", &s.chunks)
            .field("spilled_chunks", &s.spilled_chunks)
            .finish()
    }
}

impl PagedStorage {
    /// Creates a paged backend over a (truncated) file at `path` with
    /// `cache_pages` buffer-pool frames; the newest `spill_after` chunks
    /// stay decoded in memory.
    ///
    /// # Panics
    /// Panics if `cache_pages == 0`.
    pub fn create<P: AsRef<Path>>(
        path: P,
        cache_pages: usize,
        spill_after: usize,
    ) -> io::Result<Self> {
        Ok(Self {
            inner: TrackedMutex::new(
                LockClass::PagePool,
                Paged {
                    pool: BufferPool::create(path, cache_pages)?,
                    dir: Vec::new(),
                    resident_order: VecDeque::new(),
                    next_page: 0,
                    fetches: 0,
                    cold_fetches: 0,
                    cold_page_reads: 0,
                    write_failures: 0,
                },
            ),
            spill_after,
        })
    }

    /// Creates a paged backend over a fresh file in the system temp
    /// directory (unique per process and instance) with a default cache of
    /// 64 pages — the convenience constructor the CLI's `--storage paged`
    /// uses. The file is not cleaned up on drop; chunk files are scratch
    /// space sized by the spilled history.
    pub fn with_temp_file(spill_after: usize) -> io::Result<Self> {
        static INSTANCE: AtomicU64 = AtomicU64::new(0);
        let name = format!(
            "durable-topk-chunks-{}-{}.db",
            std::process::id(),
            INSTANCE.fetch_add(1, Ordering::Relaxed)
        );
        Self::create(Self::temp_path(&name), 64, spill_after)
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(name)
    }

    /// [`fetch_rows`](ShardStorage::fetch_rows) of the records `rows`
    /// picks from the chunk's shape.
    fn read_rows(
        &self,
        id: ChunkId,
        rows: impl FnOnce(ChunkShape) -> Range<usize>,
    ) -> (Arc<Dataset>, Time, u64) {
        let (bytes, first, cold) = {
            let inner = &mut *lock(&self.inner);
            inner.fetches += 1;
            let chunk = &inner.dir[id];
            if let Some(resident) = &chunk.resident {
                return (Arc::clone(resident), 0, 0);
            }
            // Cold: copy the rows' bytes out of the pool. Pages still
            // cached cost no physical I/O — only true faults count.
            assert!(
                chunk.on_disk,
                "a non-resident chunk must have reached the pool (write failures stay resident)"
            );
            let rows = rows(chunk.shape);
            let before = inner.pool.stats().reads;
            let bytes =
                read_chunk_rows(&mut inner.pool, chunk.first_page, chunk.shape, rows.clone())
                    // lint: allow(expect) — `on_disk` was asserted above: the
                    // chunk's serialized form reached this pool and pages are
                    // never reused; rows past the chunk are a documented panic.
                    .expect("a spilled chunk's rows are readable from its own pool");
            let cold = inner.pool.stats().reads - before;
            inner.cold_fetches += 1;
            inner.cold_page_reads += cold;
            (bytes, rows.start as Time, cold)
        };
        // Decoded with the pool released.
        (Arc::new(bytes.decode()), first, cold)
    }

    /// Cumulative spill writes that failed (those chunks stay memory
    /// resident; data is never lost to an I/O error).
    pub fn write_failures(&self) -> u64 {
        lock(&self.inner).write_failures
    }
}

impl ShardStorage for PagedStorage {
    fn store(&self, chunk: Arc<Dataset>) -> ChunkId {
        let inner = &mut *lock(&self.inner);
        let id = inner.dir.len();
        let first_page = inner.next_page;
        let on_disk = match write_chunk(&mut inner.pool, first_page, &chunk) {
            Ok(pages) => {
                inner.next_page += pages;
                true
            }
            Err(_) => {
                // Degrade to memory residency: the decoded Arc is kept
                // forever and the page range is abandoned.
                inner.write_failures += 1;
                false
            }
        };
        inner.dir.push(PagedChunk {
            first_page,
            shape: ChunkShape::of(&chunk),
            resident: Some(chunk),
            on_disk,
        });
        if on_disk {
            inner.resident_order.push_back(id);
            while inner.resident_order.len() > self.spill_after {
                // lint: allow(expect) — the loop guard saw len > 0.
                let victim = inner.resident_order.pop_front().expect("non-empty");
                inner.dir[victim].resident = None;
            }
        }
        id
    }

    fn fetch(&self, id: ChunkId) -> (Arc<Dataset>, u64) {
        let (rows, _, cold) = self.read_rows(id, |shape| 0..shape.records);
        (rows, cold)
    }

    fn fetch_rows(&self, id: ChunkId, rows: Window) -> (Arc<Dataset>, Time, u64) {
        self.read_rows(id, |_| rows.start() as usize..rows.end() as usize + 1)
    }

    fn stats(&self) -> StorageStats {
        let inner = lock(&self.inner);
        let resident = inner.dir.iter().filter(|c| c.resident.is_some()).count();
        StorageStats {
            chunks: inner.dir.len(),
            resident_chunks: resident,
            spilled_chunks: inner.dir.len() - resident,
            fetches: inner.fetches,
            cold_fetches: inner.cold_fetches,
            cold_page_reads: inner.cold_page_reads,
        }
    }

    fn resident_bytes(&self) -> usize {
        lock(&self.inner)
            .dir
            .iter()
            .filter_map(|c| c.resident.as_ref())
            .map(|c| c.heap_bytes())
            .sum()
    }
}

/// Keep `PAGE_SIZE` reachable from the core crate's storage vocabulary so
/// callers sizing pools need not depend on the store crate directly.
pub use durable_topk_store::PAGE_SIZE as STORAGE_PAGE_SIZE;

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(seed: u64, n: usize) -> Arc<Dataset> {
        Arc::new(Dataset::from_rows(
            2,
            (0..n).map(|i| {
                let x = ((i as u64 * 37 + seed * 101) % 113) as f64;
                [x, 113.0 - x]
            }),
        ))
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("durable-topk-storage-tests");
        std::fs::create_dir_all(&dir).expect("mk tmpdir");
        dir.join(name)
    }

    #[test]
    fn memory_storage_shares_the_arc() {
        let storage = MemoryStorage::new();
        let c = chunk(1, 50);
        let id = storage.store(Arc::clone(&c));
        let (back, cold) = storage.fetch(id);
        assert_eq!(cold, 0);
        assert!(Arc::ptr_eq(&back, &c), "memory fetches never copy");
        assert_eq!(storage.stats().chunks, 1);
        assert_eq!(storage.resident_bytes(), c.heap_bytes());
    }

    #[test]
    fn paged_storage_spills_old_chunks_and_reloads_bit_identically() {
        let storage = PagedStorage::create(tmp("spill.db"), 16, 1).expect("create");
        let chunks: Vec<_> = (0..4).map(|s| chunk(s, 600)).collect();
        let ids: Vec<_> = chunks.iter().map(|c| storage.store(Arc::clone(c))).collect();
        let s = storage.stats();
        assert_eq!(s.chunks, 4);
        assert_eq!(s.resident_chunks, 1, "spill_after=1 keeps only the newest decoded");
        assert_eq!(s.spilled_chunks, 3);
        // Every chunk — resident or spilled — reads back bit-identically.
        for (id, original) in ids.iter().zip(&chunks) {
            let (back, _) = storage.fetch(*id);
            assert_eq!(back.raw_attrs(), original.raw_attrs());
        }
        assert!(storage.stats().cold_fetches >= 3);
        assert_eq!(storage.write_failures(), 0);
    }

    #[test]
    fn cold_fetch_reports_page_reads_and_the_lru_warms_repeats() {
        let storage = PagedStorage::create(tmp("lru.db"), 16, 1).expect("create");
        let a = storage.store(chunk(7, 800));
        storage.store(chunk(8, 800)); // spills `a`
                                      // Drop the page cache so the fault is genuinely cold.
        lock(&storage.inner).pool.clear_cache().expect("clear");
        let (_, cold_first) = storage.fetch(a);
        assert!(cold_first > 0, "a spilled chunk must fault pages in");
        // The faulted pages stay in the pool's frames: an immediate repeat
        // needs no physical reads.
        let (_, cold_again) = storage.fetch(a);
        assert_eq!(cold_again, 0, "cached pages must serve the repeat warm");
    }

    #[test]
    fn row_fetches_read_only_the_pages_holding_the_rows() {
        let storage = PagedStorage::create(tmp("rows.db"), 16, 1).expect("create");
        // 2 000 two-attribute rows: 4 pages of attributes after the header.
        let original = chunk(3, 2_000);
        let a = storage.store(Arc::clone(&original));
        let newest = chunk(4, 10);
        let b = storage.store(Arc::clone(&newest)); // spills `a`
        lock(&storage.inner).pool.clear_cache().expect("clear");
        let (rows, first, cold) = storage.fetch_rows(a, Window::new(1_000, 1_009));
        assert_eq!((first, rows.len()), (1_000, 10));
        assert_eq!(rows.raw_attrs(), &original.raw_attrs()[2_000..2_020]);
        assert_eq!(cold, 1, "ten rows inside one page fault that page alone");
        let (_, whole) = storage.fetch(a);
        assert!(whole > cold, "the whole chunk spans more pages: {whole}");
        // Resident chunks come back whole, shared, from row 0.
        let (rows, first, cold) = storage.fetch_rows(b, Window::new(2, 3));
        assert!(Arc::ptr_eq(&rows, &newest) && first == 0 && cold == 0);
        let memory = MemoryStorage::new();
        let id = memory.store(Arc::clone(&original));
        let (rows, first, _) = memory.fetch_rows(id, Window::new(5, 6));
        assert!(Arc::ptr_eq(&rows, &original) && first == 0);
    }

    #[test]
    fn resident_bytes_shrink_as_chunks_spill() {
        let storage = PagedStorage::create(tmp("bytes.db"), 16, 2).expect("create");
        for s in 0..5 {
            storage.store(chunk(s, 400));
        }
        let two_chunks = 2 * chunk(0, 400).heap_bytes();
        assert!(storage.resident_bytes() <= two_chunks);
        let all = MemoryStorage::new();
        for s in 0..5 {
            all.store(chunk(s, 400));
        }
        assert!(storage.resident_bytes() < all.resident_bytes());
    }
}
