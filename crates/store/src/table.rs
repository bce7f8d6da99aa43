//! Fixed-width row tables over the data region.
//!
//! Rows are `dim` little-endian f64s; the row id is the arrival instant, so
//! the table *is* the time index: a time-window scan touches exactly the
//! pages spanning the window. Rows never cross page boundaries (slotted by
//! `rows_per_page`), mirroring how a clustered heap file behaves.

use crate::pager::{BufferPool, PAGE_SIZE};
use durable_topk_temporal::{Dataset, RecordId};
use std::io;

/// A fixed-width row table occupying a page range of the backing file.
#[derive(Debug, Clone, Copy)]
pub struct Table {
    first_page: u64,
    dim: usize,
    n: usize,
    rows_per_page: usize,
}

impl Table {
    /// Bulk-loads a dataset into pages starting at `first_page`.
    ///
    /// # Panics
    /// Panics if the dataset is empty or a row does not fit in a page.
    pub fn create(pool: &mut BufferPool, first_page: u64, ds: &Dataset) -> io::Result<Table> {
        assert!(!ds.is_empty(), "cannot store an empty dataset");
        let dim = ds.dim();
        let row_bytes = dim * 8;
        assert!(row_bytes <= PAGE_SIZE, "row of {row_bytes} bytes exceeds a page");
        let rows_per_page = PAGE_SIZE / row_bytes;
        let table = Table { first_page, dim, n: ds.len(), rows_per_page };
        let mut buf = vec![0u8; row_bytes];
        for id in 0..ds.len() as RecordId {
            for (j, &x) in ds.row(id).iter().enumerate() {
                buf[j * 8..(j + 1) * 8].copy_from_slice(&x.to_le_bytes());
            }
            pool.write_bytes(table.row_offset(id), &buf)?;
        }
        Ok(table)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the table holds no rows (never true for created tables).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Attribute arity.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// First page past the table's data (where the next region may start).
    pub fn end_page(&self) -> u64 {
        self.first_page + (self.n as u64).div_ceil(self.rows_per_page as u64)
    }

    fn row_offset(&self, id: RecordId) -> u64 {
        let page = self.first_page + id as u64 / self.rows_per_page as u64;
        let slot = id as u64 % self.rows_per_page as u64;
        page * PAGE_SIZE as u64 + slot * (self.dim as u64 * 8)
    }

    /// Reads row `id` into `out`.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds or `out.len() != dim`.
    pub fn read_row(&self, pool: &mut BufferPool, id: RecordId, out: &mut [f64]) -> io::Result<()> {
        assert!((id as usize) < self.n, "row {id} out of bounds");
        assert_eq!(out.len(), self.dim, "output arity mismatch");
        let mut buf = vec![0u8; self.dim * 8];
        pool.read_bytes(self.row_offset(id), &mut buf)?;
        for (j, x) in out.iter_mut().enumerate() {
            *x = crate::codec::le_f64(&buf[j * 8..(j + 1) * 8]);
        }
        Ok(())
    }

    /// Serialization of the table metadata (for the store header).
    pub(crate) fn to_meta(self) -> [u64; 4] {
        [self.first_page, self.dim as u64, self.n as u64, self.rows_per_page as u64]
    }

    pub(crate) fn from_meta(meta: [u64; 4]) -> Table {
        Table {
            first_page: meta[0],
            dim: meta[1] as usize,
            n: meta[2] as usize,
            rows_per_page: meta[3] as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> crate::test_path::TempPath {
        crate::test_path::TempPath::new("table", name)
    }

    #[test]
    fn roundtrip_rows() {
        let ds = Dataset::from_rows(3, (0..1000).map(|i| [i as f64, -(i as f64), 0.5 * i as f64]));
        let mut pool = BufferPool::create(tmp("rows.db"), 8).expect("create");
        let table = Table::create(&mut pool, 1, &ds).expect("load");
        let mut row = [0.0f64; 3];
        for id in [0u32, 1, 341, 999] {
            table.read_row(&mut pool, id, &mut row).expect("read");
            assert_eq!(&row, ds.row(id), "row {id}");
        }
        assert_eq!(table.len(), 1000);
        assert_eq!(table.dim(), 3);
    }

    #[test]
    fn sequential_scan_is_page_efficient() {
        let ds = Dataset::from_rows(2, (0..10_000).map(|i| [i as f64, 1.0]));
        let mut pool = BufferPool::create(tmp("scan.db"), 64).expect("create");
        let table = Table::create(&mut pool, 0, &ds).expect("load");
        pool.clear_cache().expect("cold");
        pool.reset_stats();
        let mut row = [0.0f64; 2];
        for id in 0..10_000u32 {
            table.read_row(&mut pool, id, &mut row).expect("read");
        }
        let stats = pool.stats();
        // 512 rows/page at d=2: 10_000 rows span ~20 pages.
        assert!(stats.misses <= 25, "sequential scan misses {}", stats.misses);
        assert!(stats.hits > 9_000);
    }

    #[test]
    fn meta_roundtrip() {
        let ds = Dataset::from_rows(2, [[1.0, 2.0]]);
        let mut pool = BufferPool::create(tmp("meta.db"), 4).expect("create");
        let table = Table::create(&mut pool, 5, &ds).expect("load");
        let back = Table::from_meta(table.to_meta());
        assert_eq!(back.len(), table.len());
        assert_eq!(back.end_page(), table.end_page());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_read_panics() {
        let ds = Dataset::from_rows(1, [[1.0]]);
        let mut pool = BufferPool::create(tmp("oob.db"), 4).expect("create");
        let table = Table::create(&mut pool, 0, &ds).expect("load");
        let mut row = [0.0f64; 1];
        table.read_row(&mut pool, 1, &mut row).expect("read");
    }
}
