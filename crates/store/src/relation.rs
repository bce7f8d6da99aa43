//! The stored index relation and the disk-backed top-k building block.
//!
//! Mirrors the paper's DBMS setup: besides the data table, an *index table*
//! holds the tree-based top-k index. Here every tree node is a
//! variable-length record `(lo, hi, left, right, skyline…)` with the skyline
//! entries' attribute vectors inlined, so computing an interval max score
//! costs only index-region I/O; the data region is touched exclusively when
//! a candidate leaf interval is actually scanned — exactly the access
//! pattern the PostgreSQL experiments measure.

use crate::pager::{BufferPool, IoStats, PAGE_SIZE};
use crate::table::Table;
use durable_topk_geom::{skyline_indices, skyline_merge};
use durable_topk_index::{OracleScorer, OracleScratch, OrdF64, TopKResult};
use durable_topk_temporal::{Dataset, RecordId, Time, Window};
use std::cmp::Reverse;
use std::io;
use std::path::Path;

const MAGIC: u64 = 0x00D7_DB70_90CE_2021;
const NO_CHILD: u64 = u64::MAX;

/// A disk-backed durable-top-k store: data table + index relation behind one
/// buffer pool.
pub struct RelStore {
    pool: BufferPool,
    table: Table,
    root: u64,
    leaf_size: usize,
}

impl RelStore {
    /// Creates the store file at `path`, bulk-loading `ds` and building the
    /// index relation.
    ///
    /// `pool_pages` bounds the in-memory cache — keep it small relative to
    /// the data size to observe the I/O behaviour the experiments are about.
    ///
    /// # Panics
    /// Panics if the dataset is empty or `leaf_size == 0`.
    pub fn create<P: AsRef<Path>>(
        path: P,
        ds: &Dataset,
        leaf_size: usize,
        pool_pages: usize,
    ) -> io::Result<RelStore> {
        assert!(!ds.is_empty(), "cannot store an empty dataset");
        assert!(leaf_size > 0, "leaf size must be positive");
        let mut pool = BufferPool::create(path, pool_pages)?;
        let table = Table::create(&mut pool, 1, ds)?;
        let index_start = table.end_page() * PAGE_SIZE as u64;
        let mut builder = NodeWriter { pool: &mut pool, cursor: index_start, dim: ds.dim() };
        let (root, _) = builder.build(ds, 0, (ds.len() - 1) as Time, leaf_size)?;

        // Header page.
        let mut header = Vec::with_capacity(64);
        header.extend_from_slice(&MAGIC.to_le_bytes());
        for m in table.to_meta() {
            header.extend_from_slice(&m.to_le_bytes());
        }
        header.extend_from_slice(&root.to_le_bytes());
        header.extend_from_slice(&(leaf_size as u64).to_le_bytes());
        pool.write_bytes(0, &header)?;
        pool.flush()?;
        Ok(RelStore { pool, table, root, leaf_size })
    }

    /// Opens an existing store file.
    pub fn open<P: AsRef<Path>>(path: P, pool_pages: usize) -> io::Result<RelStore> {
        let mut pool = BufferPool::open(path, pool_pages)?;
        let mut header = [0u8; 64];
        pool.read_bytes(0, &mut header)?;
        let magic = crate::codec::le_u64(&header[0..8]);
        if magic != MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "not a RelStore file"));
        }
        let mut meta = [0u64; 4];
        for (i, m) in meta.iter_mut().enumerate() {
            *m = crate::codec::le_u64(&header[8 + i * 8..16 + i * 8]);
        }
        let root = crate::codec::le_u64(&header[40..48]);
        let leaf_size = crate::codec::le_u64(&header[48..56]) as usize;
        Ok(RelStore { pool, table: Table::from_meta(meta), root, leaf_size })
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the store is empty (never true for created stores).
    pub fn is_empty(&self) -> bool {
        self.table.len() == 0
    }

    /// Attribute arity.
    pub fn dim(&self) -> usize {
        self.table.dim()
    }

    /// Leaf granularity of the index relation.
    pub fn leaf_size(&self) -> usize {
        self.leaf_size
    }

    /// Buffer-pool statistics.
    pub fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// Resets buffer-pool statistics.
    pub fn reset_io_stats(&mut self) {
        self.pool.reset_stats();
    }

    /// Drops the page cache (cold-start experiments).
    pub fn clear_cache(&mut self) -> io::Result<()> {
        self.pool.clear_cache()
    }

    /// Reads record `id`'s attributes.
    pub fn read_row(&mut self, id: RecordId, out: &mut [f64]) -> io::Result<()> {
        self.table.read_row(&mut self.pool, id, out)
    }

    /// Disk-backed `Q(u, k, W)` with the same semantics as the in-memory
    /// oracle (top-k plus ties of the k-th score).
    ///
    /// Convenience wrapper over [`top_k_with`](RelStore::top_k_with) that
    /// allocates fresh scratch; the stored procedures hold an
    /// [`OracleScratch`] and call `top_k_with` directly.
    ///
    /// # Panics
    /// Panics if `k == 0` or the scorer is not monotone (the stored index
    /// carries only skylines, which bound monotone scorers exactly).
    pub fn top_k<S: OracleScorer + ?Sized>(
        &mut self,
        scorer: &S,
        k: usize,
        w: Window,
    ) -> io::Result<TopKResult> {
        let mut scratch = OracleScratch::new();
        let mut out = TopKResult::empty();
        self.top_k_with(scorer, k, w, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Disk-backed `Q(u, k, W)` into `out`, drawing the search frontier,
    /// threshold heap and row/byte buffers from `scratch` — the
    /// allocation-free counterpart of [`top_k`](RelStore::top_k) used by
    /// the stored procedures.
    ///
    /// # Panics
    /// Panics if `k == 0` or the scorer is not monotone.
    pub fn top_k_with<S: OracleScorer + ?Sized>(
        &mut self,
        scorer: &S,
        k: usize,
        w: Window,
        scratch: &mut OracleScratch,
        out: &mut TopKResult,
    ) -> io::Result<()> {
        assert!(k > 0, "k must be positive");
        assert!(scorer.is_monotone(), "the stored index supports monotone scorers");
        out.clear();
        let n = self.table.len();
        if (w.start() as usize) >= n {
            return Ok(());
        }
        let w = w.clamp_to(n);

        // Best-first over stored nodes: (bound, node offset, window slice).
        scratch.pq_ext.clear();
        scratch.best_ext.clear();
        scratch.row.clear();
        scratch.row.resize(self.table.dim(), 0.0);
        self.seed(self.root, w, scorer, scratch)?;
        // Extract max-bound entries until the bound falls below the running
        // k-th best score; candidates accumulate directly in `out`.
        while let Some((bound, off, lo, hi)) = scratch.pq_ext.pop() {
            // `k > 0` is asserted at top_k entry, so len() >= k implies a
            // non-empty heap.
            #[allow(clippy::expect_used)]
            let threshold = if scratch.best_ext.len() >= k {
                scratch.best_ext.peek().expect("non-empty").0 .0
            } else {
                f64::NEG_INFINITY
            };
            if bound.0 < threshold {
                break;
            }
            let node = self.read_node_header(off)?;
            if node.left == NO_CHILD {
                for id in lo..=hi {
                    self.table.read_row(&mut self.pool, id, &mut scratch.row)?;
                    let s = scorer.score(&scratch.row);
                    // k > 0 asserted at entry.
                    #[allow(clippy::expect_used)]
                    let threshold = if scratch.best_ext.len() >= k {
                        scratch.best_ext.peek().expect("non-empty").0 .0
                    } else {
                        f64::NEG_INFINITY
                    };
                    if s >= threshold {
                        out.items.push((id, s));
                        scratch.best_ext.push(Reverse(OrdF64(s)));
                        if scratch.best_ext.len() > k {
                            scratch.best_ext.pop();
                        }
                    }
                }
            } else {
                for child_off in [node.left, node.right] {
                    let child = self.read_node_header(child_off)?;
                    let cw = Window::new(child.lo, child.hi);
                    if let Some(iw) = cw.intersect(Window::new(lo, hi)) {
                        let b = self.node_bound(
                            child_off,
                            &child,
                            scorer,
                            &mut scratch.bytes,
                            &mut scratch.row,
                        )?;
                        scratch.pq_ext.push((OrdF64(b), child_off, iw.start(), iw.end()));
                    }
                }
            }
        }
        out.finalize_in_place(k);
        Ok(())
    }

    fn seed<S: OracleScorer + ?Sized>(
        &mut self,
        off: u64,
        w: Window,
        scorer: &S,
        scratch: &mut OracleScratch,
    ) -> io::Result<()> {
        let node = self.read_node_header(off)?;
        let range = Window::new(node.lo, node.hi);
        let Some(iw) = range.intersect(w) else { return Ok(()) };
        if w.contains_window(range) || node.left == NO_CHILD {
            let b = self.node_bound(off, &node, scorer, &mut scratch.bytes, &mut scratch.row)?;
            scratch.pq_ext.push((OrdF64(b), off, iw.start(), iw.end()));
            return Ok(());
        }
        self.seed(node.left, w, scorer, scratch)?;
        self.seed(node.right, w, scorer, scratch)
    }

    fn read_node_header(&mut self, off: u64) -> io::Result<NodeHeader> {
        let mut buf = [0u8; 28];
        self.pool.read_bytes(off, &mut buf)?;
        Ok(NodeHeader {
            lo: crate::codec::le_u32(&buf[0..4]),
            hi: crate::codec::le_u32(&buf[4..8]),
            left: crate::codec::le_u64(&buf[8..16]),
            right: crate::codec::le_u64(&buf[16..24]),
            sky_len: crate::codec::le_u32(&buf[24..28]),
        })
    }

    /// Max score over the node's inlined skyline entries, using the
    /// caller's byte and attribute buffers.
    fn node_bound<S: OracleScorer + ?Sized>(
        &mut self,
        off: u64,
        node: &NodeHeader,
        scorer: &S,
        bytes: &mut Vec<u8>,
        attrs: &mut Vec<f64>,
    ) -> io::Result<f64> {
        let d = self.table.dim();
        let entry = 4 + 8 * d;
        bytes.clear();
        bytes.resize(node.sky_len as usize * entry, 0);
        self.pool.read_bytes(off + 28, bytes)?;
        attrs.clear();
        attrs.resize(d, 0.0);
        let mut bound = f64::NEG_INFINITY;
        for e in bytes.chunks_exact(entry) {
            for (j, a) in attrs.iter_mut().enumerate() {
                *a = crate::codec::le_f64(&e[4 + j * 8..12 + j * 8]);
            }
            bound = bound.max(scorer.score(attrs));
        }
        Ok(bound)
    }
}

struct NodeHeader {
    lo: Time,
    hi: Time,
    left: u64,
    right: u64,
    sky_len: u32,
}

struct NodeWriter<'a> {
    pool: &'a mut BufferPool,
    cursor: u64,
    dim: usize,
}

impl NodeWriter<'_> {
    /// Serializes the subtree over `[lo, hi]` post-order; returns the node's
    /// byte offset and skyline.
    fn build(
        &mut self,
        ds: &Dataset,
        lo: Time,
        hi: Time,
        leaf_size: usize,
    ) -> io::Result<(u64, Vec<RecordId>)> {
        if ((hi - lo) as usize) < leaf_size {
            let ids: Vec<RecordId> = (lo..=hi).collect();
            let skyline = skyline_indices(ds, &ids);
            let off = self.write_node(ds, lo, hi, NO_CHILD, NO_CHILD, &skyline)?;
            return Ok((off, skyline));
        }
        let mid = lo + (hi - lo) / 2;
        let (left, lsky) = self.build(ds, lo, mid, leaf_size)?;
        let (right, rsky) = self.build(ds, mid + 1, hi, leaf_size)?;
        let skyline = skyline_merge(ds, &lsky, &rsky);
        let off = self.write_node(ds, lo, hi, left, right, &skyline)?;
        Ok((off, skyline))
    }

    fn write_node(
        &mut self,
        ds: &Dataset,
        lo: Time,
        hi: Time,
        left: u64,
        right: u64,
        skyline: &[RecordId],
    ) -> io::Result<u64> {
        let off = self.cursor;
        let mut buf = Vec::with_capacity(28 + skyline.len() * (4 + 8 * self.dim));
        buf.extend_from_slice(&lo.to_le_bytes());
        buf.extend_from_slice(&hi.to_le_bytes());
        buf.extend_from_slice(&left.to_le_bytes());
        buf.extend_from_slice(&right.to_le_bytes());
        buf.extend_from_slice(&(skyline.len() as u32).to_le_bytes());
        for &id in skyline {
            buf.extend_from_slice(&id.to_le_bytes());
            for &x in ds.row(id) {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
        self.pool.write_bytes(off, &buf)?;
        self.cursor += buf.len() as u64;
        Ok(off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use durable_topk_index::scan_top_k;
    use durable_topk_temporal::LinearScorer;
    use rand::prelude::*;

    fn tmp(name: &str) -> crate::test_path::TempPath {
        crate::test_path::TempPath::new("relation", name)
    }

    #[test]
    fn stored_topk_matches_scan() {
        let mut rng = StdRng::seed_from_u64(13);
        let rows: Vec<[f64; 2]> = (0..3_000)
            .map(|_| [rng.random_range(0..40) as f64, rng.random_range(0..40) as f64])
            .collect();
        let ds = Dataset::from_rows(2, rows);
        let mut store = RelStore::create(tmp("topk.db"), &ds, 32, 64).expect("create");
        let scorer = LinearScorer::new(vec![0.3, 0.7]);
        for _ in 0..25 {
            let a = rng.random_range(0..3_000u32);
            let b = rng.random_range(0..3_000u32);
            let w = Window::new(a.min(b), a.max(b));
            let k = rng.random_range(1..7);
            let got = store.top_k(&scorer, k, w).expect("query");
            assert_eq!(got, scan_top_k(&ds, &scorer, k, w));
        }
    }

    #[test]
    fn reopen_preserves_queries() {
        let ds = Dataset::from_rows(2, (0..500).map(|i| [(i % 17) as f64, (i % 5) as f64]));
        let path = tmp("reopen.db");
        {
            RelStore::create(&path, &ds, 16, 32).expect("create");
        }
        let mut store = RelStore::open(&path, 32).expect("open");
        assert_eq!(store.len(), 500);
        assert_eq!(store.dim(), 2);
        assert_eq!(store.leaf_size(), 16);
        let scorer = LinearScorer::uniform(2);
        let got = store.top_k(&scorer, 3, Window::new(0, 499)).expect("query");
        assert_eq!(got, scan_top_k(&ds, &scorer, 3, Window::new(0, 499)));
    }

    #[test]
    fn narrow_query_reads_fewer_pages_than_full_scan() {
        let ds = Dataset::from_rows(2, (0..60_000).map(|i| [(i % 997) as f64, (i % 31) as f64]));
        let mut store = RelStore::create(tmp("io.db"), &ds, 128, 128).expect("create");
        let scorer = LinearScorer::uniform(2);
        store.clear_cache().expect("cold");
        store.reset_io_stats();
        store.top_k(&scorer, 5, Window::new(30_000, 30_500)).expect("query");
        let narrow = store.io_stats().misses;
        store.clear_cache().expect("cold");
        store.reset_io_stats();
        let mut row = [0.0f64; 2];
        for id in 0..60_000u32 {
            store.read_row(id, &mut row).expect("read");
        }
        let scan = store.io_stats().misses;
        assert!(
            narrow * 10 < scan,
            "indexed query ({narrow} misses) should beat full scan ({scan})"
        );
    }

    #[test]
    fn open_rejects_foreign_files() {
        let path = tmp("bogus.db");
        std::fs::write(&path, vec![0u8; PAGE_SIZE]).expect("write");
        assert!(RelStore::open(&path, 4).is_err());
    }
}
