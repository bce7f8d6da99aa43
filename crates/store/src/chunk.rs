//! Page-aligned (de)serialization of sealed record chunks.
//!
//! The tiered shard storage of the core crate spills a sealed tail's record
//! chunk — one immutable [`Dataset`] covering the shard's extended time
//! range — to pager-backed pages and faults it back in on demand. This
//! module defines that on-page format:
//!
//! ```text
//! page k:   magic u64 | records u64 | dim u64 | wall-clock flag u64
//!           attrs: records × dim × f64, row-major, little-endian
//!           wall-clock column: records × i64 (only when flagged)
//! ```
//!
//! Every chunk starts on a page boundary so chunks can be cached, evicted
//! and read back independently. All scalars are fixed-width little-endian;
//! `f64` values travel through [`f64::to_le_bytes`]/[`f64::from_le_bytes`],
//! so a spill/reload roundtrip is **bit-identical** — the exactness
//! contract the storage-equivalence proptests pin down.

use crate::pager::{BufferPool, PageId, PAGE_SIZE};
use durable_topk_temporal::Dataset;
use std::io;
use std::ops::Range;

/// Format tag guarding against reading a foreign page range as a chunk.
const CHUNK_MAGIC: u64 = 0x00D7_C40C_2021_0006;

/// Bytes of the fixed chunk header (magic, record count, dim, wall-clock
/// flag).
const HEADER_BYTES: usize = 32;

/// Bytes of one serialized scalar.
const WORD: usize = 8;

/// The header fields of a chunk: what a caller keeps in memory to read
/// rows without faulting the header page in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkShape {
    /// Records in the chunk.
    pub records: usize,
    /// Attributes per record.
    pub dim: usize,
    /// Whether the chunk carries a wall-clock column.
    pub wall_clock: bool,
}

impl ChunkShape {
    /// The shape `ds` is serialized with.
    pub fn of(ds: &Dataset) -> Self {
        Self { records: ds.len(), dim: ds.dim(), wall_clock: ds.raw_wall_clock().is_some() }
    }

    /// Serialized size in bytes (header + payload).
    fn byte_len(&self) -> u64 {
        let row = self.dim + usize::from(self.wall_clock);
        (HEADER_BYTES + self.records * row * WORD) as u64
    }
}

/// Number of pages a serialized `ds` occupies (chunks are page-aligned, so
/// this is also the allocation granularity of the chunk directory).
pub fn chunk_page_len(ds: &Dataset) -> u64 {
    ChunkShape::of(ds).byte_len().div_ceil(PAGE_SIZE as u64).max(1)
}

/// Serializes `ds` starting at the first byte of `first_page`, returning
/// the number of pages written (= [`chunk_page_len`]).
///
/// The write goes through the buffer pool: pages land in cache frames and
/// reach the file on eviction or flush, so an immediately following read is
/// warm.
pub fn write_chunk(pool: &mut BufferPool, first_page: PageId, ds: &Dataset) -> io::Result<u64> {
    let wall_clock = ds.raw_wall_clock();
    let mut buf = Vec::with_capacity(ChunkShape::of(ds).byte_len() as usize);
    buf.extend_from_slice(&CHUNK_MAGIC.to_le_bytes());
    buf.extend_from_slice(&(ds.len() as u64).to_le_bytes());
    buf.extend_from_slice(&(ds.dim() as u64).to_le_bytes());
    buf.extend_from_slice(&u64::from(wall_clock.is_some()).to_le_bytes());
    for &x in ds.raw_attrs() {
        buf.extend_from_slice(&x.to_le_bytes());
    }
    if let Some(wc) = wall_clock {
        for &t in wc {
            buf.extend_from_slice(&t.to_le_bytes());
        }
    }
    pool.write_bytes(first_page * PAGE_SIZE as u64, &buf)?;
    Ok(chunk_page_len(ds))
}

/// Reads back a chunk previously written by [`write_chunk`] at
/// `first_page`. The reload is bit-identical to the dataset that was
/// spilled.
pub fn read_chunk(pool: &mut BufferPool, first_page: PageId) -> io::Result<Dataset> {
    let mut header = [0u8; HEADER_BYTES];
    pool.read_bytes(first_page * PAGE_SIZE as u64, &mut header)?;
    let word = |i: usize| crate::codec::le_u64(&header[i * WORD..(i + 1) * WORD]);
    if word(0) != CHUNK_MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "not a record chunk"));
    }
    let shape =
        ChunkShape { records: word(1) as usize, dim: word(2) as usize, wall_clock: word(3) != 0 };
    if shape.dim == 0 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "chunk with zero dim"));
    }
    Ok(read_chunk_rows(pool, first_page, shape, 0..shape.records)?.decode())
}

/// Rows of a chunk copied out of the pool, still serialized: the
/// attributes of every row, then their wall-clock values.
#[derive(Debug, Clone)]
pub struct ChunkRowBytes {
    dim: usize,
    wall_clock: bool,
    bytes: Vec<u8>,
}

/// Copies rows `rows` (chunk record ids) of the chunk of `shape` written
/// at `first_page` out of the pool. Only the pages holding those rows are
/// read — not the header, which `shape` stands in for. Split from
/// [`ChunkRowBytes::decode`] so a caller sharing the pool can release it
/// before decoding.
///
/// # Errors
/// `InvalidInput` if `rows` reaches past the chunk; I/O errors of the pool.
pub fn read_chunk_rows(
    pool: &mut BufferPool,
    first_page: PageId,
    shape: ChunkShape,
    rows: Range<usize>,
) -> io::Result<ChunkRowBytes> {
    if rows.end > shape.records {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "rows past the chunk's end"));
    }
    let (first, n) = (rows.start, rows.len());
    let attrs = (first_page * PAGE_SIZE as u64) + HEADER_BYTES as u64;
    let attr_bytes = n * shape.dim * WORD;
    let wc_bytes = if shape.wall_clock { n * WORD } else { 0 };
    let mut bytes = vec![0u8; attr_bytes + wc_bytes];
    pool.read_bytes(attrs + (first * shape.dim * WORD) as u64, &mut bytes[..attr_bytes])?;
    if shape.wall_clock {
        let wall_clock = attrs + (shape.records * shape.dim * WORD) as u64;
        pool.read_bytes(wall_clock + (first * WORD) as u64, &mut bytes[attr_bytes..])?;
    }
    Ok(ChunkRowBytes { dim: shape.dim, wall_clock: shape.wall_clock, bytes })
}

impl ChunkRowBytes {
    /// Decodes the rows into a dataset, bit-identical to those rows of the
    /// chunk that was written.
    pub fn decode(&self) -> Dataset {
        let rows = self.bytes.len() / (WORD * (self.dim + usize::from(self.wall_clock)));
        let (attrs, wall_clock) = self.bytes.split_at(rows * self.dim * WORD);
        let attrs = attrs.chunks_exact(WORD).map(crate::codec::le_f64).collect();
        let wall_clock = self
            .wall_clock
            .then(|| wall_clock.chunks_exact(WORD).map(crate::codec::le_i64).collect());
        Dataset::from_raw_parts(self.dim, attrs, wall_clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn tmp(name: &str) -> crate::test_path::TempPath {
        crate::test_path::TempPath::new("chunk", name)
    }

    #[test]
    fn roundtrip_is_bit_identical_including_awkward_floats() {
        let mut ds = Dataset::new(3);
        ds.push(&[0.1 + 0.2, -0.0, f64::MIN_POSITIVE]);
        ds.push(&[1e300, -1e-300, 42.0]);
        let mut pool = BufferPool::create(tmp("exact.db"), 4).expect("create");
        let pages = write_chunk(&mut pool, 0, &ds).expect("write");
        assert_eq!(pages, 1);
        let back = read_chunk(&mut pool, 0).expect("read");
        assert_eq!(back.dim(), 3);
        // Bit-level comparison, not numeric: -0.0 must stay -0.0.
        let bits = |d: &Dataset| d.raw_attrs().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&ds));
    }

    #[test]
    fn multi_page_chunks_roundtrip_after_a_cold_restart() {
        let mut rng = StdRng::seed_from_u64(6);
        let rows: Vec<[f64; 4]> =
            (0..2_000).map(|_| std::array::from_fn(|_| rng.random())).collect();
        let ds = Dataset::from_rows(4, rows);
        let mut pool = BufferPool::create(tmp("multi.db"), 3).expect("create");
        let pages = write_chunk(&mut pool, 2, &ds).expect("write");
        assert!(pages > 1, "2000×4 f64 rows must span pages");
        assert_eq!(pages, chunk_page_len(&ds));
        pool.clear_cache().expect("cold");
        let back = read_chunk(&mut pool, 2).expect("read");
        assert_eq!(back.raw_attrs(), ds.raw_attrs());
    }

    #[test]
    fn wall_clock_column_is_preserved() {
        let mut ds = Dataset::new(1);
        ds.push_with_wall_clock(&[5.0], -123);
        ds.push_with_wall_clock(&[6.0], i64::MAX);
        let mut pool = BufferPool::create(tmp("wc.db"), 4).expect("create");
        write_chunk(&mut pool, 0, &ds).expect("write");
        let back = read_chunk(&mut pool, 0).expect("read");
        assert_eq!(back.wall_clock(0), Some(-123));
        assert_eq!(back.wall_clock(1), Some(i64::MAX));
    }

    #[test]
    fn adjacent_chunks_do_not_interfere() {
        let a = Dataset::from_rows(2, (0..700).map(|i| [i as f64, -(i as f64)]));
        let b = Dataset::from_rows(2, (0..5).map(|i| [100.0 + i as f64, 0.5]));
        let mut pool = BufferPool::create(tmp("adjacent.db"), 4).expect("create");
        let pages_a = write_chunk(&mut pool, 0, &a).expect("write a");
        write_chunk(&mut pool, pages_a, &b).expect("write b");
        assert_eq!(read_chunk(&mut pool, 0).expect("a").raw_attrs(), a.raw_attrs());
        assert_eq!(read_chunk(&mut pool, pages_a).expect("b").raw_attrs(), b.raw_attrs());
    }

    #[test]
    fn foreign_pages_are_rejected() {
        let mut pool = BufferPool::create(tmp("foreign.db"), 4).expect("create");
        pool.write_bytes(0, &[0xAB; 64]).expect("write");
        assert!(read_chunk(&mut pool, 0).is_err());
    }

    fn bits(ds: &Dataset) -> (Vec<u64>, Option<Vec<i64>>) {
        (
            ds.raw_attrs().iter().map(|x| x.to_bits()).collect(),
            ds.raw_wall_clock().map(<[i64]>::to_vec),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Rows `a..=b` read on their own equal those rows of the full
        /// decode bit for bit — across page boundaries, at either end,
        /// with or without a wall-clock column, through a pool with fewer
        /// frames than the range spans.
        #[test]
        fn range_reads_equal_the_rows_of_the_full_decode(
            dim in 1usize..5,
            records in 1usize..3_000,
            wall_clock in prop::bool::ANY,
            ends in (0u32..3_000, 0u32..3_000),
            frames in 1usize..4,
            seed in 0u64..1_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ds = Dataset::new(dim);
            for _ in 0..records {
                let row: Vec<f64> = (0..dim).map(|_| rng.random::<f64>() - 0.5).collect();
                if wall_clock {
                    ds.push_with_wall_clock(&row, rng.random::<i64>());
                } else {
                    ds.push(&row);
                }
            }
            let (a, b) = (ends.0 as usize % records, ends.1 as usize % records);
            let (a, b) = (a.min(b), a.max(b));
            let mut pool = BufferPool::create(tmp(&format!("range-{seed}.db")), frames).expect("create");
            write_chunk(&mut pool, 1, &ds).expect("write");
            pool.clear_cache().expect("cold");
            let full = read_chunk(&mut pool, 1).expect("full");
            let shape = ChunkShape::of(&ds);
            for rows in [a..b + 1, a..a + 1, 0..1, records - 1..records] {
                let part = read_chunk_rows(&mut pool, 1, shape, rows.clone()).expect("rows").decode();
                let want = Dataset::from_rows(dim, rows.clone().map(|i| full.row(i as u32).to_vec()));
                prop_assert_eq!(bits(&part).0, bits(&want).0);
                let wc = wall_clock.then(|| rows.map(|i| full.wall_clock(i as u32).expect("wc")).collect());
                prop_assert_eq!(bits(&part).1, wc);
            }
        }
    }

    #[test]
    fn range_reads_past_the_end_are_rejected() {
        let ds = Dataset::from_rows(2, (0..10).map(|i| [i as f64, 0.0]));
        let mut pool = BufferPool::create(tmp("past.db"), 2).expect("create");
        write_chunk(&mut pool, 0, &ds).expect("write");
        let err =
            read_chunk_rows(&mut pool, 0, ChunkShape::of(&ds), 5..11).expect_err("past the end");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
