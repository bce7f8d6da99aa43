//! Page-granular file I/O behind an LRU buffer pool.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;

/// Page size in bytes (PostgreSQL's default, 8 KiB).
pub const PAGE_SIZE: usize = 8192;

/// Identifier of a page: its index within the backing file.
pub type PageId = u64;

/// Buffer-pool I/O accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Page requests satisfied from the pool.
    pub hits: u64,
    /// Page requests that required a physical read.
    pub misses: u64,
    /// Physical page reads.
    pub reads: u64,
    /// Physical page writes (evictions of dirty pages + flushes).
    pub writes: u64,
}

struct Frame {
    page: PageId,
    data: Box<[u8]>,
    last_used: u64,
    dirty: bool,
}

/// An LRU buffer pool over one backing file.
///
/// All reads and writes go through fixed-size frames; byte-granular helpers
/// walk pages so callers can store variable-length records that cross page
/// boundaries (each crossed page counts as its own request, exactly as a
/// real slotted-blob layout would behave).
pub struct BufferPool {
    file: File,
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    capacity: usize,
    tick: u64,
    len_pages: u64,
    stats: IoStats,
}

impl BufferPool {
    /// Creates (truncating) a pool over `path` with room for `capacity`
    /// pages in memory.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn create<P: AsRef<Path>>(path: P, capacity: usize) -> io::Result<Self> {
        let mut options = OpenOptions::new();
        Self::over(options.read(true).write(true).create(true).truncate(true).open(path)?, capacity)
    }

    /// Opens an existing file.
    pub fn open<P: AsRef<Path>>(path: P, capacity: usize) -> io::Result<Self> {
        Self::over(OpenOptions::new().read(true).write(true).open(path)?, capacity)
    }

    fn over(file: File, capacity: usize) -> io::Result<Self> {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let len_pages = file.metadata()?.len().div_ceil(PAGE_SIZE as u64);
        let (frames, map) = (Vec::with_capacity(capacity), HashMap::with_capacity(capacity));
        Ok(Self { file, frames, map, capacity, tick: 0, len_pages, stats: IoStats::default() })
    }

    /// Number of pages in the backing file (allocated high-water mark).
    pub fn len_pages(&self) -> u64 {
        self.len_pages
    }

    /// Cumulative I/O statistics.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Resets I/O statistics (keeps pool contents).
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::default();
    }

    /// Drops every cached page (dirty pages are flushed first), simulating a
    /// cold cache.
    pub fn clear_cache(&mut self) -> io::Result<()> {
        self.flush()?;
        self.frames.clear();
        self.map.clear();
        Ok(())
    }

    fn frame_for(&mut self, page: PageId) -> io::Result<usize> {
        self.tick += 1;
        if let Some(&idx) = self.map.get(&page) {
            self.stats.hits += 1;
            self.frames[idx].last_used = self.tick;
            return Ok(idx);
        }
        self.stats.misses += 1;
        let idx = if self.frames.len() < self.capacity {
            self.frames.push(Frame {
                page,
                data: vec![0u8; PAGE_SIZE].into_boxed_slice(),
                last_used: self.tick,
                dirty: false,
            });
            self.frames.len() - 1
        } else {
            // Evict the least-recently-used frame (a full pool has at least
            // one); the new page is loaded into its buffer.
            let idx = (0..self.frames.len()).min_by_key(|&i| self.frames[i].last_used).unwrap_or(0);
            let old = &mut self.frames[idx];
            if old.dirty {
                self.stats.writes += 1;
                self.file.write_all_at(&old.data, old.page * PAGE_SIZE as u64)?;
            }
            self.map.remove(&old.page);
            old.page = page;
            old.last_used = self.tick;
            old.dirty = false;
            idx
        };
        // Load (zero-filled past EOF so fresh pages need no prior write).
        let data = &mut self.frames[idx].data;
        let offset = page * PAGE_SIZE as u64;
        if page < self.len_pages {
            self.stats.reads += 1;
            if let Err(e) = read_full_at(&self.file, data, offset) {
                // The frame holds no page now; leave it to the next miss.
                self.frames.swap_remove(idx);
                if let Some(moved) = self.frames.get(idx) {
                    self.map.insert(moved.page, idx);
                }
                return Err(e);
            }
        } else {
            data.fill(0);
        }
        self.map.insert(page, idx);
        self.len_pages = self.len_pages.max(page + 1);
        Ok(idx)
    }

    /// Reads `buf.len()` bytes starting at byte `offset`, walking pages
    /// through the pool.
    pub fn read_bytes(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let mut done = 0usize;
        while done < buf.len() {
            let pos = offset + done as u64;
            let page = pos / PAGE_SIZE as u64;
            let in_page = (pos % PAGE_SIZE as u64) as usize;
            let take = (PAGE_SIZE - in_page).min(buf.len() - done);
            let idx = self.frame_for(page)?;
            buf[done..done + take].copy_from_slice(&self.frames[idx].data[in_page..in_page + take]);
            done += take;
        }
        Ok(())
    }

    /// Writes `buf` at byte `offset`, walking pages through the pool.
    pub fn write_bytes(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        let mut done = 0usize;
        while done < buf.len() {
            let pos = offset + done as u64;
            let page = pos / PAGE_SIZE as u64;
            let in_page = (pos % PAGE_SIZE as u64) as usize;
            let take = (PAGE_SIZE - in_page).min(buf.len() - done);
            let idx = self.frame_for(page)?;
            self.frames[idx].data[in_page..in_page + take].copy_from_slice(&buf[done..done + take]);
            self.frames[idx].dirty = true;
            done += take;
        }
        Ok(())
    }

    /// Writes every dirty page to the file, without syncing it: once this
    /// returns `Ok`, an eviction never has to write.
    pub fn write_back(&mut self) -> io::Result<()> {
        for f in &mut self.frames {
            if f.dirty {
                self.stats.writes += 1;
                self.file.write_all_at(&f.data, f.page * PAGE_SIZE as u64)?;
                f.dirty = false;
            }
        }
        Ok(())
    }

    /// Drops every dirty frame unwritten — the pages of a write the caller
    /// abandons after [`write_back`](BufferPool::write_back) failed, so no
    /// later eviction retries them.
    pub fn discard_dirty(&mut self) {
        self.frames.retain(|f| !f.dirty);
        self.map = self.frames.iter().enumerate().map(|(i, f)| (f.page, i)).collect();
    }

    /// Writes every dirty page to the file and syncs it.
    pub fn flush(&mut self) -> io::Result<()> {
        self.write_back()?;
        self.file.sync_data()
    }
}

/// Fills `buf` from `offset`, reading until EOF; whatever lies past EOF
/// reads as zeros (fresh page semantics).
fn read_full_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    let mut done = 0;
    while done < buf.len() {
        match file.read_at(&mut buf[done..], offset + done as u64) {
            Ok(0) => break,
            Ok(n) => done += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    buf[done..].fill(0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("durable-topk-store-tests");
        std::fs::create_dir_all(&dir).expect("mk tmpdir");
        dir.join(name)
    }

    #[test]
    fn roundtrip_within_one_page() {
        let mut pool = BufferPool::create(tmp("roundtrip.db"), 4).expect("create");
        pool.write_bytes(100, b"hello world").expect("write");
        let mut buf = [0u8; 11];
        pool.read_bytes(100, &mut buf).expect("read");
        assert_eq!(&buf, b"hello world");
    }

    #[test]
    fn roundtrip_across_page_boundary() {
        let mut pool = BufferPool::create(tmp("cross.db"), 4).expect("create");
        let payload: Vec<u8> = (0..=255u8).cycle().take(3 * PAGE_SIZE + 17).collect();
        pool.write_bytes(PAGE_SIZE as u64 - 9, &payload).expect("write");
        let mut buf = vec![0u8; payload.len()];
        pool.read_bytes(PAGE_SIZE as u64 - 9, &mut buf).expect("read");
        assert_eq!(buf, payload);
    }

    #[test]
    fn eviction_persists_dirty_pages() {
        let path = tmp("evict.db");
        let mut pool = BufferPool::create(&path, 2).expect("create");
        for p in 0..6u64 {
            pool.write_bytes(p * PAGE_SIZE as u64, &[p as u8 + 1; 32]).expect("write");
        }
        // Pool holds 2 frames; earlier pages were evicted (written out).
        for p in 0..6u64 {
            let mut buf = [0u8; 32];
            pool.read_bytes(p * PAGE_SIZE as u64, &mut buf).expect("read");
            assert_eq!(buf, [p as u8 + 1; 32], "page {p}");
        }
        assert!(pool.stats().writes >= 4, "evictions must write dirty pages");
    }

    #[test]
    fn write_back_leaves_nothing_for_eviction_and_discard_drops_dirty_frames() {
        let mut pool = BufferPool::create(tmp("write-back.db"), 2).expect("create");
        pool.write_bytes(0, &[1u8; 8]).expect("write");
        pool.write_back().expect("write back");
        pool.write_bytes(PAGE_SIZE as u64, &[2u8; 8]).expect("write");
        pool.discard_dirty();
        let written = pool.stats().writes;
        // Evicting page 0 writes nothing; the discarded page 1 never
        // reached the file.
        let mut buf = [0u8; 8];
        for (page, byte) in [(2, 0u8), (3, 0), (1, 0), (0, 1)] {
            pool.read_bytes(page * PAGE_SIZE as u64, &mut buf).expect("read");
            assert_eq!(buf, [byte; 8], "page {page}");
        }
        assert_eq!(pool.stats().writes, written, "no eviction wrote a page");
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut pool = BufferPool::create(tmp("stats.db"), 4).expect("create");
        let mut buf = [0u8; 8];
        pool.read_bytes(0, &mut buf).expect("read");
        pool.read_bytes(8, &mut buf).expect("read");
        let s = pool.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn flush_and_reopen() {
        let path = tmp("reopen.db");
        {
            let mut pool = BufferPool::create(&path, 4).expect("create");
            pool.write_bytes(3 * PAGE_SIZE as u64 + 5, b"persisted").expect("write");
            pool.flush().expect("flush");
        }
        let mut pool = BufferPool::open(&path, 4).expect("open");
        let mut buf = [0u8; 9];
        pool.read_bytes(3 * PAGE_SIZE as u64 + 5, &mut buf).expect("read");
        assert_eq!(&buf, b"persisted");
        assert_eq!(pool.len_pages(), 4);
    }

    #[test]
    fn clear_cache_forces_cold_reads() {
        let mut pool = BufferPool::create(tmp("cold.db"), 4).expect("create");
        pool.write_bytes(0, b"x").expect("write");
        pool.clear_cache().expect("clear");
        pool.reset_stats();
        let mut buf = [0u8; 1];
        pool.read_bytes(0, &mut buf).expect("read");
        assert_eq!(pool.stats().misses, 1);
    }
}
