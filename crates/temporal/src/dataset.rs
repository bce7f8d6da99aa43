//! Instant-stamped record datasets ordered by arrival time.

use crate::{Time, Window};

/// Identifier of a record: its position in arrival order.
///
/// Because records are stored sorted by arrival instant and arrival instants
/// are distinct (ties in source data are broken arbitrarily but consistently,
/// as in the paper's NBA preparation), the identifier doubles as the record's
/// discrete arrival time.
pub type RecordId = u32;

/// A borrowed view of one record: its arrival time and attribute vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordRef<'a> {
    /// Discrete arrival time (= position in the dataset).
    pub t: Time,
    /// The `d` real-valued ranking attributes.
    pub attrs: &'a [f64],
}

/// A dataset `P` of `n` records with `d` real-valued attributes each,
/// organized by increasing arrival time.
///
/// Attributes are stored row-major in a single flat allocation so that a
/// record's attribute slice is one contiguous cache line run; this matters
/// because the top-k building block scores millions of records per query.
///
/// An optional `wall_clock` column carries real-world timestamps (e.g. epoch
/// days) purely for presentation; all query semantics operate on discrete
/// positions.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    dim: usize,
    attrs: Vec<f64>,
    wall_clock: Option<Vec<i64>>,
}

impl Dataset {
    /// Creates an empty dataset of records with `dim` attributes.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "datasets must have at least one attribute");
        Self { dim, attrs: Vec::new(), wall_clock: None }
    }

    /// Creates an empty dataset with capacity for `n` records.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim > 0, "datasets must have at least one attribute");
        Self { dim, attrs: Vec::with_capacity(dim * n), wall_clock: None }
    }

    /// Builds a dataset from an iterator of attribute rows.
    ///
    /// Rows are interpreted in arrival order: the first row arrives at time 0.
    ///
    /// # Panics
    /// Panics if any row's length differs from `dim`.
    pub fn from_rows<I, R>(dim: usize, rows: I) -> Self
    where
        I: IntoIterator<Item = R>,
        R: AsRef<[f64]>,
    {
        let mut ds = Self::new(dim);
        for row in rows {
            ds.push(row.as_ref());
        }
        ds
    }

    /// Appends a record, assigning it the next arrival instant.
    ///
    /// Returns the new record's id. This is the online-arrival path: the
    /// paper's indexes support appends with polylogarithmic amortized cost,
    /// and the index crate mirrors that via right-spine rebuilds.
    ///
    /// # Panics
    /// Panics if `attrs.len() != self.dim()` or the dataset is full
    /// (`u32::MAX` records).
    pub fn push(&mut self, attrs: &[f64]) -> RecordId {
        assert_eq!(attrs.len(), self.dim, "attribute arity mismatch");
        let id = self.len();
        assert!(id < u32::MAX as usize, "dataset full");
        self.attrs.extend_from_slice(attrs);
        if let Some(wc) = &mut self.wall_clock {
            // Keep the auxiliary column aligned even for mixed pushes.
            wc.push(id as i64);
        }
        id as RecordId
    }

    /// Appends a record together with a wall-clock timestamp.
    ///
    /// The first call on a dataset without wall-clock data backfills earlier
    /// records with their positions.
    pub fn push_with_wall_clock(&mut self, attrs: &[f64], wall_clock: i64) -> RecordId {
        if self.wall_clock.is_none() {
            self.wall_clock = Some((0..self.len() as i64).collect());
        }
        let id = self.push(attrs);
        // `push` appended a placeholder; overwrite it with the real value.
        let wc = self.wall_clock.as_mut().expect("initialized above");
        *wc.last_mut().expect("just pushed") = wall_clock;
        id
    }

    /// Number of records `n` (also the size of the time domain `|T|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.attrs.len() / self.dim
    }

    /// Whether the dataset holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Attribute dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The attribute vector of record `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn row(&self, id: RecordId) -> &[f64] {
        let start = id as usize * self.dim;
        &self.attrs[start..start + self.dim]
    }

    /// A [`RecordRef`] view of record `id`.
    #[inline]
    pub fn record(&self, id: RecordId) -> RecordRef<'_> {
        RecordRef { t: id, attrs: self.row(id) }
    }

    /// Single attribute access: attribute `j` of record `id`.
    #[inline]
    pub fn value(&self, id: RecordId, j: usize) -> f64 {
        debug_assert!(j < self.dim);
        self.attrs[id as usize * self.dim + j]
    }

    /// The wall-clock timestamp of record `id`, if the dataset carries one.
    pub fn wall_clock(&self, id: RecordId) -> Option<i64> {
        self.wall_clock.as_ref().map(|wc| wc[id as usize])
    }

    /// Iterates over all records in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = RecordRef<'_>> + '_ {
        (0..self.len() as RecordId).map(move |id| self.record(id))
    }

    /// The full time domain as a window, `[0, n-1]`.
    ///
    /// # Panics
    /// Panics if the dataset is empty.
    pub fn domain(&self) -> Window {
        assert!(!self.is_empty(), "empty dataset has no time domain");
        Window::new(0, (self.len() - 1) as Time)
    }

    /// Projects the dataset onto a subset of attributes (the paper's NBA-X /
    /// Network-X constructions choose attribute subsets of a master dataset).
    ///
    /// # Panics
    /// Panics if `attrs` is empty or any index is out of range.
    pub fn project(&self, attrs: &[usize]) -> Dataset {
        assert!(!attrs.is_empty(), "projection needs at least one attribute");
        for &j in attrs {
            assert!(j < self.dim, "projection attribute {j} out of range");
        }
        let n = self.len();
        let mut out = Vec::with_capacity(n * attrs.len());
        for i in 0..n {
            let row = self.row(i as RecordId);
            out.extend(attrs.iter().map(|&j| row[j]));
        }
        Dataset { dim: attrs.len(), attrs: out, wall_clock: self.wall_clock.clone() }
    }

    /// Keeps only the first `n` records (used to carve size-X subsets like
    /// the paper's Syn-X family).
    pub fn truncate(&mut self, n: usize) {
        self.attrs.truncate(n * self.dim);
        if let Some(wc) = &mut self.wall_clock {
            wc.truncate(n);
        }
    }

    /// Returns a dataset whose arrival order is reversed.
    ///
    /// Reversal converts look-ahead durability into look-back durability:
    /// record `p` at time `t` is τ-durable looking *ahead* in `P` iff the
    /// corresponding record at time `n-1-t` is τ-durable looking *back* in
    /// the reversed dataset. The query layer uses this to serve
    /// [`Anchor::LookAhead`](crate::Anchor) with unmodified algorithms.
    pub fn reversed(&self) -> Dataset {
        let n = self.len();
        let mut out = Vec::with_capacity(self.attrs.len());
        for i in (0..n).rev() {
            out.extend_from_slice(self.row(i as RecordId));
        }
        Dataset {
            dim: self.dim,
            attrs: out,
            wall_clock: self.wall_clock.as_ref().map(|wc| wc.iter().rev().copied().collect()),
        }
    }

    /// Rescales every attribute to `[0, 1]` via min-max normalization, as the
    /// paper does for the Network dataset ("since these attributes have
    /// different measurement units").
    ///
    /// Constant columns map to `0`.
    pub fn minmax_normalize(&mut self) {
        let n = self.len();
        if n == 0 {
            return;
        }
        let d = self.dim;
        let mut lo = vec![f64::INFINITY; d];
        let mut hi = vec![f64::NEG_INFINITY; d];
        for i in 0..n {
            let row = &self.attrs[i * d..(i + 1) * d];
            for j in 0..d {
                lo[j] = lo[j].min(row[j]);
                hi[j] = hi[j].max(row[j]);
            }
        }
        for i in 0..n {
            let row = &mut self.attrs[i * d..(i + 1) * d];
            for j in 0..d {
                let span = hi[j] - lo[j];
                row[j] = if span > 0.0 { (row[j] - lo[j]) / span } else { 0.0 };
            }
        }
    }

    /// Raw row-major attribute storage (for bulk serialization by the store
    /// substrate).
    pub fn raw_attrs(&self) -> &[f64] {
        &self.attrs
    }

    /// The raw wall-clock column, if present (for bulk serialization by the
    /// store substrate).
    pub fn raw_wall_clock(&self) -> Option<&[i64]> {
        self.wall_clock.as_deref()
    }

    /// Reassembles a dataset from raw parts — the inverse of
    /// [`raw_attrs`](Dataset::raw_attrs) /
    /// [`raw_wall_clock`](Dataset::raw_wall_clock), used by the store
    /// substrate's chunk deserialization. No value is inspected or
    /// converted, so a serialize/deserialize roundtrip is bit-identical.
    ///
    /// # Panics
    /// Panics if `dim == 0`, `attrs.len()` is not a multiple of `dim`, or a
    /// wall-clock column's length differs from the record count.
    pub fn from_raw_parts(dim: usize, attrs: Vec<f64>, wall_clock: Option<Vec<i64>>) -> Self {
        assert!(dim > 0, "datasets must have at least one attribute");
        assert!(attrs.len() % dim == 0, "attribute storage must hold whole rows");
        if let Some(wc) = &wall_clock {
            assert_eq!(wc.len(), attrs.len() / dim, "wall-clock column length mismatch");
        }
        Self { dim, attrs, wall_clock }
    }

    /// Heap bytes held by the attribute and wall-clock storage (capacity,
    /// not just length) — the resident-set accounting behind `MemoryUsage`.
    pub fn heap_bytes(&self) -> usize {
        self.attrs.capacity() * std::mem::size_of::<f64>()
            + self.wall_clock.as_ref().map_or(0, |wc| wc.capacity() * std::mem::size_of::<i64>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        Dataset::from_rows(2, [[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0]])
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let mut ds = Dataset::new(3);
        assert_eq!(ds.push(&[1.0, 2.0, 3.0]), 0);
        assert_eq!(ds.push(&[4.0, 5.0, 6.0]), 1);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn record_time_equals_position() {
        let ds = sample();
        for (i, r) in ds.iter().enumerate() {
            assert_eq!(r.t as usize, i);
        }
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn push_rejects_wrong_arity() {
        let mut ds = Dataset::new(2);
        ds.push(&[1.0]);
    }

    #[test]
    fn projection_selects_attributes() {
        let ds = Dataset::from_rows(3, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]);
        let p = ds.project(&[2, 0]);
        assert_eq!(p.dim(), 2);
        assert_eq!(p.row(0), &[3.0, 1.0]);
        assert_eq!(p.row(1), &[6.0, 4.0]);
    }

    #[test]
    fn reversal_is_involutive_and_flips_times() {
        let ds = sample();
        let rev = ds.reversed();
        assert_eq!(rev.row(0), ds.row(3));
        assert_eq!(rev.row(3), ds.row(0));
        let back = rev.reversed();
        assert_eq!(back.raw_attrs(), ds.raw_attrs());
    }

    #[test]
    fn minmax_normalizes_to_unit_range_and_zeroes_constants() {
        let mut ds = Dataset::from_rows(2, [[0.0, 7.0], [5.0, 7.0], [10.0, 7.0]]);
        ds.minmax_normalize();
        assert_eq!(ds.row(0), &[0.0, 0.0]);
        assert_eq!(ds.row(1), &[0.5, 0.0]);
        assert_eq!(ds.row(2), &[1.0, 0.0]);
    }

    #[test]
    fn wall_clock_backfills_positions() {
        let mut ds = Dataset::new(1);
        ds.push(&[1.0]);
        ds.push_with_wall_clock(&[2.0], 1000);
        assert_eq!(ds.wall_clock(0), Some(0));
        assert_eq!(ds.wall_clock(1), Some(1000));
    }

    #[test]
    fn raw_parts_roundtrip_is_bit_identical() {
        let mut ds = Dataset::new(2);
        ds.push(&[1.5, -0.0]);
        ds.push_with_wall_clock(&[f64::MIN_POSITIVE, 3.25], 7);
        let back = Dataset::from_raw_parts(
            ds.dim(),
            ds.raw_attrs().to_vec(),
            ds.raw_wall_clock().map(<[i64]>::to_vec),
        );
        assert_eq!(back.raw_attrs(), ds.raw_attrs());
        assert_eq!(back.wall_clock(1), Some(7));
        assert!(back.heap_bytes() >= 4 * 8);
    }

    #[test]
    #[should_panic(expected = "whole rows")]
    fn from_raw_parts_rejects_ragged_storage() {
        Dataset::from_raw_parts(2, vec![1.0, 2.0, 3.0], None);
    }

    #[test]
    fn truncate_keeps_prefix() {
        let mut ds = sample();
        ds.truncate(2);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.row(1), &[2.0, 20.0]);
    }
}
