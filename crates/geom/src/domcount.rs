//! A Fenwick (binary indexed) tree for dominance counting: the blocking
//! interval multiset of the index crate counts interval left endpoints in
//! it.

/// A minimal Fenwick (binary indexed) tree over `u64` counts.
///
/// Exposed publicly because the blocking-interval mechanism in the index
/// crate builds on it.
#[derive(Debug, Clone)]
pub struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    /// Creates a Fenwick tree over positions `0..len`.
    pub fn new(len: usize) -> Self {
        Self { tree: vec![0; len + 1] }
    }

    /// Number of addressable positions.
    pub fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Whether the tree addresses no positions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Makes a tree whose counts are **all zero** address at least
    /// `0..len`, reusing the allocation and writing only the cells it
    /// gains — for callers that emptied the tree by undoing their own
    /// additions, so re-use costs what they added, not the whole domain.
    /// It never shrinks: zero cells past `len` change no sum below it, and
    /// domains that vary from call to call (per-request views) do not
    /// re-zero the same cells over and over.
    pub fn resize_zeroed(&mut self, len: usize) {
        debug_assert!(self.tree.iter().all(|&c| c == 0), "tree still holds counts");
        if self.tree.len() <= len {
            self.tree.resize(len + 1, 0);
        }
    }

    /// Adds `delta` at position `i` (0-based).
    #[inline]
    pub fn add(&mut self, i: usize, delta: i64) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta as u64);
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `0..=i`.
    #[inline]
    pub fn prefix(&self, i: usize) -> u64 {
        let mut i = (i + 1).min(self.tree.len() - 1);
        let mut s = 0u64;
        while i > 0 {
            s = s.wrapping_add(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Sum over the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range(&self, lo: usize, hi: usize) -> u64 {
        if lo > hi {
            return 0;
        }
        let hi_sum = self.prefix(hi);
        if lo == 0 {
            hi_sum
        } else {
            hi_sum.wrapping_sub(self.prefix(lo - 1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fenwick_prefix_and_range() {
        let mut f = Fenwick::new(10);
        f.add(0, 3);
        f.add(4, 2);
        f.add(9, 1);
        assert_eq!(f.prefix(0), 3);
        assert_eq!(f.prefix(3), 3);
        assert_eq!(f.prefix(4), 5);
        assert_eq!(f.prefix(9), 6);
        assert_eq!(f.range(1, 4), 2);
        assert_eq!(f.range(5, 9), 1);
        assert_eq!(f.range(7, 3), 0);
        f.add(4, -2);
        assert_eq!(f.prefix(9), 4);
    }
}
