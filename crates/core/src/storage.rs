//! The record chunks of sealed shards, with an optional pager.
//!
//! A sealed tail shard of the [`ShardedEngine`](crate::ShardedEngine) is
//! three things: a segment tree, an optional frozen skyband
//! index, and the *record chunk* — the immutable rows of the records the
//! shard owns. A query piece fetches its own shard's chunk and those of the
//! predecessors its windows reach. The first two are compact; the chunk is
//! where the resident set lives. One [`PagedStorage`] holds every chunk of
//! an engine:
//!
//! * Without a pager ([`PagedStorage::in_memory`], the engine's default)
//!   every chunk stays decoded in memory as a shared [`Arc<Dataset>`]: a
//!   fetch is one mutex and one `Arc` clone, no file is ever opened and
//!   nothing is ever cold — the paper's setting.
//! * With a pager ([`PagedStorage::create`], [`PagedStorage::with_temp_file`])
//!   each chunk is also serialized page-aligned into a [`BufferPool`] file
//!   at store time and written back to the file at once (about 0.1 ms for
//!   a 4 096-record chunk). The newest `spill_after` chunks stay decoded;
//!   older ones are *spilled* — a query touching one transparently faults
//!   in the pages holding the rows it can read
//!   ([`PagedStorage::fetch_rows`]), decodes those rows, and reports the
//!   physical page reads as cold-page hits
//!   ([`QueryStats::cold_page_hits`](crate::QueryStats::cold_page_hits)).
//!   Pages stay in the pool's LRU frames, so a repeated cold query is
//!   served from them while they last. A chunk whose write fails stays
//!   decoded for good: an I/O error never loses data, and a query never
//!   writes.
//!
//! Because chunks are shared `Arc`s end to end — the sealed head's
//! sub-dataset, storage, query fan-out — sealing does not copy the record
//! data and the engine holds exactly one decoded copy of each chunk, pager
//! or not. Exactness is non-negotiable: the paged roundtrip is
//! bit-identical (see the store crate's chunk format), proptested against
//! the pager-less store across seal boundaries.

use crate::check::{LockClass, TrackedMutex};
use crate::sync::lock;
use durable_topk_store::{read_chunk_rows, write_chunk, BufferPool, ChunkShape};
use durable_topk_temporal::{Dataset, Time, Window};
use std::collections::VecDeque;
use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Handle to a stored record chunk, issued by [`PagedStorage::store`].
pub type ChunkId = usize;

/// A point-in-time snapshot of a store's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Chunks stored.
    pub chunks: usize,
    /// Chunks currently held decoded in memory.
    pub resident_chunks: usize,
    /// Chunks currently spilled (reachable only through page I/O).
    pub spilled_chunks: usize,
    /// Total [`fetch`](PagedStorage::fetch) and
    /// [`fetch_rows`](PagedStorage::fetch_rows) calls.
    pub fetches: u64,
    /// Fetches that had to decode rows of a spilled chunk from pages.
    pub cold_fetches: u64,
    /// Physical page reads performed by cold fetches.
    pub cold_page_reads: u64,
}

/// Per-chunk directory entry.
struct StoredChunk {
    /// Decoded rows; `None` once the chunk is spilled.
    resident: Option<Arc<Dataset>>,
    /// First page and shape of the serialized form, once it reached the
    /// pager's file (only such a chunk may spill; the shape lets row reads
    /// skip the header page).
    on_file: Option<(u64, ChunkShape)>,
}

/// The file old chunks spill to.
struct Pager {
    pool: BufferPool,
    /// Chunks kept decoded after they reached the file.
    spill_after: usize,
    /// Chunks on file and still decoded, oldest first.
    resident_order: VecDeque<ChunkId>,
    next_page: u64,
}

impl Pager {
    /// Writes `chunk` to the next free pages of the file (no sync: it is
    /// scratch space): its first page and shape, or `None` if a page did
    /// not reach the file — its dirty frames are then dropped unwritten,
    /// so no eviction inside a query's cold read retries them.
    fn write(&mut self, chunk: &Dataset) -> Option<(u64, ChunkShape)> {
        let first_page = self.next_page;
        let written = write_chunk(&mut self.pool, first_page, chunk)
            .and_then(|pages| self.pool.write_back().map(|()| pages));
        match written {
            Ok(pages) => {
                self.next_page += pages;
                Some((first_page, ChunkShape::of(chunk)))
            }
            Err(_) => {
                self.pool.discard_dirty();
                None
            }
        }
    }
}

#[derive(Default)]
struct Chunks {
    dir: Vec<StoredChunk>,
    pager: Option<Pager>,
    fetches: u64,
    cold_fetches: u64,
    cold_page_reads: u64,
    write_failures: u64,
}

/// Where sealed shards keep their record chunks: decoded in memory, and
/// with a pager, old ones spilled to pages of a file. See the module docs
/// for the full story.
///
/// Shared by the appending thread and the query fan-out; every method
/// takes `&self`.
pub struct PagedStorage {
    inner: TrackedMutex<Chunks>,
}

impl std::fmt::Debug for PagedStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("PagedStorage").field(&self.stats()).finish()
    }
}

impl PagedStorage {
    fn with_pager(pager: Option<Pager>) -> Self {
        let chunks = Chunks { pager, ..Chunks::default() };
        Self { inner: TrackedMutex::new(LockClass::PagePool, chunks) }
    }

    /// A store without a pager, the engine's default: every chunk stays
    /// decoded in memory, nothing is written to a file or spilled.
    pub fn in_memory() -> Self {
        Self::with_pager(None)
    }

    /// A store paging to a (truncated) file at `path` through
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
        let pool = BufferPool::create(path, cache_pages)?;
        Ok(Self::with_pager(Some(Pager {
            pool,
            spill_after,
            resident_order: VecDeque::new(),
            next_page: 0,
        })))
    }

    /// A store paging to a fresh file in the system temp directory (unique
    /// per process and instance) through 64 frames — what the CLI's
    /// `--spill-after` uses. The file is unlinked as soon as it is open:
    /// the pager keeps its handle and never reopens the path, so the pages
    /// stay readable while no file outlives the store, even if the process
    /// is killed.
    pub fn with_temp_file(spill_after: usize) -> io::Result<Self> {
        static INSTANCE: AtomicU64 = AtomicU64::new(0);
        let name = format!(
            "durable-topk-chunks-{}-{}.db",
            std::process::id(),
            INSTANCE.fetch_add(1, Ordering::Relaxed)
        );
        let path = std::env::temp_dir().join(name);
        let store = Self::create(&path, 64, spill_after)?;
        std::fs::remove_file(&path)?;
        Ok(store)
    }

    /// Stores an immutable chunk, returning its handle. Runs once per
    /// seal, on the appending thread; with a pager it writes the chunk to
    /// the file and spills the oldest decoded chunk past `spill_after`.
    pub fn store(&self, chunk: Arc<Dataset>) -> ChunkId {
        let Chunks { dir, pager, write_failures, .. } = &mut *lock(&self.inner);
        let id = dir.len();
        let on_file = pager.as_mut().and_then(|pager| pager.write(&chunk));
        dir.push(StoredChunk { resident: Some(chunk), on_file });
        let Some(pager) = pager else { return id };
        if on_file.is_none() {
            // Kept decoded forever; the page range is reused.
            *write_failures += 1;
            return id;
        }
        pager.resident_order.push_back(id);
        let excess = pager.resident_order.len().saturating_sub(pager.spill_after);
        for victim in pager.resident_order.drain(..excess) {
            dir[victim].resident = None;
        }
        id
    }

    /// Retrieves a chunk by handle, together with the number of physical
    /// page reads the retrieval needed (`0` when the chunk was resident —
    /// the figure queries surface as
    /// [`QueryStats::cold_page_hits`](crate::QueryStats::cold_page_hits)).
    ///
    /// # Panics
    /// Panics if `id` was not issued by this store.
    pub fn fetch(&self, id: ChunkId) -> (Arc<Dataset>, u64) {
        let (rows, _, cold) = self.read_rows(id, |shape| 0..shape.records);
        (rows, cold)
    }

    /// Retrieves at least records `rows` (chunk ids) of a chunk: the rows,
    /// the chunk id of their row 0, and the physical page reads the
    /// retrieval needed. A resident chunk comes back whole (first row
    /// `0`, no copy); a spilled one reads and decodes only the pages
    /// holding `rows`.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this store or `rows` reaches past
    /// the chunk.
    pub fn fetch_rows(&self, id: ChunkId, rows: Window) -> (Arc<Dataset>, Time, u64) {
        self.read_rows(id, |_| rows.start() as usize..rows.end() as usize + 1)
    }

    /// [`fetch_rows`](PagedStorage::fetch_rows) of the records `rows`
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
            let spilled = (inner.pager.as_mut(), chunk.on_file);
            // Only a chunk whose pages reached its store's pager file ever
            // stops being resident.
            #[allow(clippy::unreachable)]
            let (Some(pager), Some((first_page, shape))) = spilled
            else {
                unreachable!("a spilled chunk lives on its store's pager file")
            };
            // Cold: copy the rows' bytes out of the pool. Pages still
            // cached cost no physical I/O — only true faults count.
            let rows = rows(shape);
            let before = pager.pool.stats().reads;
            // The chunk's pages were written back to this file when it was
            // stored and pages are never reused; rows past the chunk are a
            // documented panic.
            #[allow(clippy::expect_used)]
            let bytes = read_chunk_rows(&mut pager.pool, first_page, shape, rows.clone())
                .expect("a spilled chunk's rows are readable from its own file");
            let cold = pager.pool.stats().reads - before;
            inner.cold_fetches += 1;
            inner.cold_page_reads += cold;
            (bytes, rows.start as Time, cold)
        };
        // Decoded with the pool released.
        (Arc::new(bytes.decode()), first, cold)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StorageStats {
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

    /// Heap bytes of the chunks currently held decoded (the resident-set
    /// figure the benchmark reports as `core.storage.resident_mb`).
    pub fn resident_bytes(&self) -> usize {
        lock(&self.inner)
            .dir
            .iter()
            .filter_map(|c| c.resident.as_ref())
            .map(|c| c.heap_bytes())
            .sum()
    }

    /// Cumulative chunk writes that failed (those chunks stay resident;
    /// data is never lost to an I/O error).
    pub fn write_failures(&self) -> u64 {
        lock(&self.inner).write_failures
    }
}

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

    /// A store with a pager over a file that is unlinked once open, so
    /// the test leaves nothing in the temp dir.
    fn paged(name: &str, frames: usize, spill_after: usize) -> PagedStorage {
        let path = std::env::temp_dir()
            .join(format!("durable-topk-storage-{}-{name}", std::process::id()));
        let storage = PagedStorage::create(&path, frames, spill_after).expect("create");
        std::fs::remove_file(&path).expect("unlink the pager's file");
        storage
    }

    /// The pager-less store, the engine's default, shares the stored `Arc`
    /// and never spills or reads a page.
    #[test]
    fn memory_storage_shares_the_arc() {
        let storage = PagedStorage::in_memory();
        let c = chunk(1, 50);
        let id = storage.store(Arc::clone(&c));
        storage.store(chunk(2, 50));
        let (back, cold) = storage.fetch(id);
        assert!(Arc::ptr_eq(&back, &c) && cold == 0, "memory fetches never copy");
        let s = storage.stats();
        assert_eq!((s.chunks, s.spilled_chunks, s.cold_page_reads), (2, 0, 0));
        assert_eq!(storage.resident_bytes(), 2 * c.heap_bytes());
    }

    #[test]
    fn paged_storage_spills_old_chunks_and_reloads_bit_identically() {
        let storage = paged("spill.db", 16, 1);
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
        let storage = paged("lru.db", 16, 1);
        let a = storage.store(chunk(7, 800));
        storage.store(chunk(8, 800)); // spills `a`
                                      // Drop the page cache so the fault is genuinely cold.
        lock(&storage.inner).pager.as_mut().expect("paged").pool.clear_cache().expect("clear");
        let (_, cold_first) = storage.fetch(a);
        assert!(cold_first > 0, "a spilled chunk must fault pages in");
        // The faulted pages stay in the pool's frames: an immediate repeat
        // needs no physical reads.
        let (_, cold_again) = storage.fetch(a);
        assert_eq!(cold_again, 0, "cached pages must serve the repeat warm");
    }

    #[test]
    fn row_fetches_read_only_the_pages_holding_the_rows() {
        let storage = paged("rows.db", 16, 1);
        // 2 000 two-attribute rows: 4 pages of attributes after the header.
        let original = chunk(3, 2_000);
        let a = storage.store(Arc::clone(&original));
        let newest = chunk(4, 10);
        let b = storage.store(Arc::clone(&newest)); // spills `a`
        lock(&storage.inner).pager.as_mut().expect("paged").pool.clear_cache().expect("clear");
        let (rows, first, cold) = storage.fetch_rows(a, Window::new(1_000, 1_009));
        assert_eq!((first, rows.len()), (1_000, 10));
        assert_eq!(rows.raw_attrs(), &original.raw_attrs()[2_000..2_020]);
        assert_eq!(cold, 1, "ten rows inside one page fault that page alone");
        let (_, whole) = storage.fetch(a);
        assert!(whole > cold, "the whole chunk spans more pages: {whole}");
        // Resident chunks come back whole, shared, from row 0 — with or
        // without a pager.
        let (rows, first, cold) = storage.fetch_rows(b, Window::new(2, 3));
        assert!(Arc::ptr_eq(&rows, &newest) && first == 0 && cold == 0);
        let memory = PagedStorage::in_memory();
        let id = memory.store(Arc::clone(&original));
        let (rows, first, cold) = memory.fetch_rows(id, Window::new(5, 6));
        assert!(Arc::ptr_eq(&rows, &original) && first == 0 && cold == 0);
    }

    #[test]
    fn resident_bytes_shrink_as_chunks_spill() {
        let storage = paged("bytes.db", 16, 2);
        let all = PagedStorage::in_memory();
        for s in 0..5 {
            storage.store(chunk(s, 400));
            all.store(chunk(s, 400));
        }
        let two_chunks = 2 * chunk(0, 400).heap_bytes();
        assert!(storage.resident_bytes() <= two_chunks);
        assert!(storage.resident_bytes() < all.resident_bytes());
    }

    /// A chunk counts as spilled only once its pages are in the file, not
    /// while they sit in dirty pool frames: on a device that takes no
    /// write, every chunk stays resident and counts as a write failure.
    #[test]
    fn chunks_that_never_reach_the_file_stay_resident() {
        let storage = PagedStorage::create("/dev/full", 16, 1).expect("open /dev/full");
        let chunks: Vec<_> = (0..3).map(|s| chunk(s, 10)).collect();
        for c in &chunks {
            storage.store(Arc::clone(c));
        }
        assert_eq!(storage.stats().spilled_chunks, 0);
        assert_eq!(storage.write_failures(), 3);
        for (id, c) in chunks.iter().enumerate() {
            let (back, cold) = storage.fetch(id);
            assert!(Arc::ptr_eq(&back, c) && cold == 0);
        }
    }
}
