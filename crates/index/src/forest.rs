//! An appendable top-k index for streaming arrivals.
//!
//! The static [`SkylineSegTree`] is built once over a
//! dataset; instant-stamped data, however, keeps arriving. This module
//! provides the classical logarithmic method: maintain a forest of segment
//! trees over consecutive arrival ranges whose sizes follow a binary
//! counter. Appending a record adds a singleton tree and
//! [joins](SkylineSegTree::join) equal-sized neighbors — a new root over
//! the two trees as they stand, no record is indexed twice — keeping at most
//! `⌈log₂ n⌉ + 1` trees; a query is one best-first search over all of them
//! ([`top_k_over`]). [Sealing](AppendableTopKIndex::seal) joins what is
//! left into one tree the same way.
//!
//! This realizes the paper's claim that the index "supports updates in
//! polylogarithmic time" for the append-heavy temporal setting.

use crate::segtree::{
    top_k_over, OracleScorer, OracleScratch, Part, QueryCounters, SkylineSegTree, TopKResult,
};
use durable_topk_temporal::{Dataset, Time, Window};

/// A forest of skyline segment trees supporting appends.
#[derive(Debug)]
pub struct AppendableTopKIndex {
    trees: Vec<SkylineSegTree>,
    n: usize,
    leaf_size: usize,
    counters: QueryCounters,
}

impl AppendableTopKIndex {
    /// Creates an empty index with the given leaf granularity.
    ///
    /// # Panics
    /// Panics if `leaf_size == 0`.
    pub fn new(leaf_size: usize) -> Self {
        assert!(leaf_size > 0, "leaf size must be positive");
        Self { trees: Vec::new(), n: 0, leaf_size, counters: QueryCounters::default() }
    }

    /// Builds the index over an existing dataset (one tree), ready for
    /// further appends.
    pub fn build(ds: &Dataset, leaf_size: usize) -> Self {
        let mut idx = Self::new(leaf_size);
        if !ds.is_empty() {
            idx.trees.push(SkylineSegTree::with_leaf_size(ds, leaf_size));
            idx.n = ds.len();
        }
        idx
    }

    /// Number of records indexed.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the index covers no records.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of trees currently in the forest.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// Instrumentation counters (logical queries against the forest).
    pub fn counters(&self) -> &QueryCounters {
        &self.counters
    }

    /// Heap bytes held by the forest's trees (see
    /// [`SkylineSegTree::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.trees.iter().map(SkylineSegTree::heap_bytes).sum()
    }

    /// Indexes the most recently appended record of `ds`.
    ///
    /// # Panics
    /// Panics unless `ds.len() == self.len() + 1` — exactly one new record
    /// must have been pushed to the dataset since the last append/build.
    pub fn append(&mut self, ds: &Dataset) {
        assert_eq!(ds.len(), self.n + 1, "append expects exactly one new record in the dataset");
        let t = self.n as Time;
        self.trees.push(SkylineSegTree::build_over(ds, t, t, self.leaf_size));
        self.n += 1;
        // Binary-counter merge: join equal-length suffix trees.
        while let [.., prev, last] = &self.trees[..] {
            if prev.coverage().len() != last.coverage().len() {
                break;
            }
            let last = self.trees.pop().expect("two trees");
            let prev = self.trees.pop().expect("two trees");
            self.trees.push(SkylineSegTree::join(ds, prev, last));
        }
    }

    /// Consumes the forest, joining its trees into one over its whole
    /// coverage — the *sealing* step of shard rotation: a head shard grown
    /// by appends freezes into an immutable tail shard's tree. Nothing is
    /// rebuilt: the trees are folded right to left (smallest first, so every
    /// node is moved a constant number of times), each step one
    /// [`SkylineSegTree::join`]. The tree takes over the forest's
    /// [`counters`](AppendableTopKIndex::counters), so the queries the forest
    /// served stay counted.
    ///
    /// # Panics
    /// Panics if the index is empty.
    pub fn seal(mut self, ds: &Dataset) -> SkylineSegTree {
        let mut sealed = self.trees.pop().expect("cannot seal an empty index");
        while let Some(prev) = self.trees.pop() {
            sealed = SkylineSegTree::join(ds, prev, sealed);
        }
        sealed.with_counters(self.counters)
    }

    /// Answers `Q(u, k, W)` over the forest.
    ///
    /// Convenience wrapper over [`top_k_with`](AppendableTopKIndex::top_k_with)
    /// that allocates fresh scratch.
    ///
    /// # Panics
    /// Panics if `k == 0` or the index is empty.
    pub fn top_k<S: OracleScorer + ?Sized>(
        &self,
        ds: &Dataset,
        scorer: &S,
        k: usize,
        w: Window,
    ) -> TopKResult {
        let mut scratch = OracleScratch::new();
        let mut out = TopKResult::empty();
        self.top_k_with(ds, scorer, k, w, &mut scratch, &mut out);
        out
    }

    /// Answers `Q(u, k, W)` over the forest into `out`: one best-first
    /// search whose frontier spans every tree ([`top_k_over`]), so a tree
    /// is opened only while its nodes can still beat the running k-th score
    /// of the whole forest.
    ///
    /// # Panics
    /// Panics if `k == 0` or the index is empty.
    pub fn top_k_with<S: OracleScorer + ?Sized>(
        &self,
        ds: &Dataset,
        scorer: &S,
        k: usize,
        w: Window,
        scratch: &mut OracleScratch,
        out: &mut TopKResult,
    ) {
        assert!(!self.trees.is_empty(), "cannot query an empty index");
        self.counters.bump_queries();
        let part = |i: usize| Part { tree: &self.trees[i], rows: ds.into(), offset: 0 };
        top_k_over(self.trees.len(), part, scorer, k, w, f64::NEG_INFINITY, scratch, out);
    }

    /// The forest's trees, oldest first — the parts a search spanning
    /// this index and its neighbours walks ([`top_k_over`]).
    pub fn trees(&self) -> impl Iterator<Item = &SkylineSegTree> {
        self.trees.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segtree::scan_top_k;
    use durable_topk_temporal::LinearScorer;
    use rand::prelude::*;

    #[test]
    fn forest_matches_scan_under_appends() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut ds = Dataset::new(2);
        let mut idx = AppendableTopKIndex::new(4);
        let scorer = LinearScorer::new(vec![0.6, 0.4]);
        for step in 0..200usize {
            ds.push(&[rng.random_range(0..20) as f64, rng.random_range(0..20) as f64]);
            idx.append(&ds);
            if step % 17 == 0 {
                let n = ds.len() as Time;
                let a = rng.random_range(0..n);
                let b = rng.random_range(0..n);
                let w = Window::new(a.min(b), a.max(b));
                let k = rng.random_range(1..5);
                assert_eq!(
                    idx.top_k(&ds, &scorer, k, w),
                    scan_top_k(&ds, &scorer, k, w),
                    "step={step}"
                );
            }
        }
        assert_eq!(idx.len(), 200);
    }

    #[test]
    fn forest_size_stays_logarithmic() {
        let mut ds = Dataset::new(1);
        let mut idx = AppendableTopKIndex::new(2);
        for i in 0..1024usize {
            ds.push(&[i as f64]);
            idx.append(&ds);
        }
        // 1024 = 2^10: binary counter collapses to a single tree.
        assert_eq!(idx.tree_count(), 1);
        ds.push(&[0.0]);
        idx.append(&ds);
        assert_eq!(idx.tree_count(), 2);
        for i in 0..6usize {
            ds.push(&[i as f64]);
            idx.append(&ds);
        }
        assert!(idx.tree_count() <= 11);
    }

    #[test]
    fn build_then_append_mixes() {
        let mut ds = Dataset::from_rows(1, [[3.0], [1.0], [2.0]]);
        let mut idx = AppendableTopKIndex::build(&ds, 2);
        ds.push(&[9.0]);
        idx.append(&ds);
        let scorer = LinearScorer::new(vec![1.0]);
        let r = idx.top_k(&ds, &scorer, 2, Window::new(0, 3));
        assert_eq!(r.items, vec![(3, 9.0), (0, 3.0)]);
    }

    /// A seal joins and nothing else: over the same range the sealed tree
    /// answers exactly like a balanced `build_over`, it is made of the
    /// forest's own nodes plus one new root per join, and it carries the
    /// forest's query count.
    #[test]
    fn seal_only_joins_and_answers_like_a_balanced_build() {
        let mut rng = StdRng::seed_from_u64(47);
        let mut ds = Dataset::from_rows(2, (0..40).map(|i| [(i % 9) as f64, (i % 7) as f64]));
        // A context-sized first tree, then a binary counter on top of it.
        let mut idx = AppendableTopKIndex::build(&ds, 4);
        for _ in 0..(256 + 64 + 16 + 4) {
            ds.push(&[rng.random_range(0..25) as f64, rng.random_range(0..25) as f64]);
            idx.append(&ds);
        }
        let sizes: Vec<usize> = idx.trees.iter().map(|t| t.coverage().len()).collect();
        assert_eq!(sizes, [40, 256, 64, 16, 4], "every tree is larger than the fuse bound");
        let forest_nodes: usize = idx.trees.iter().map(SkylineSegTree::node_count).sum();
        let scorer = LinearScorer::new(vec![0.7, 0.3]);
        idx.top_k(&ds, &scorer, 2, Window::new(0, 100));
        idx.top_k(&ds, &scorer, 2, Window::new(90, 300));

        let sealed = idx.seal(&ds);
        assert_eq!(sealed.node_count(), forest_nodes + sizes.len() - 1);
        assert_eq!(sealed.counters().queries(), 2, "the forest's queries stay counted");
        let n = ds.len() as Time;
        let balanced = SkylineSegTree::build_over(&ds, 0, n - 1, 4);
        assert_eq!(sealed.coverage(), balanced.coverage());
        for _ in 0..60 {
            let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
            let w = Window::new(a.min(b), a.max(b));
            let k = rng.random_range(1..6);
            let got = sealed.top_k(&ds, &scorer, k, w);
            assert_eq!(got, balanced.top_k(&ds, &scorer, k, w), "k={k} w={w}");
            assert_eq!(got, scan_top_k(&ds, &scorer, k, w), "k={k} w={w}");
        }
    }

    #[test]
    fn seal_collapses_to_one_exact_tree() {
        let mut ds = Dataset::new(2);
        let mut idx = AppendableTopKIndex::new(4);
        let scorer = LinearScorer::new(vec![0.5, 0.5]);
        for i in 0..37usize {
            ds.push(&[((i * 13) % 29) as f64, ((i * 7) % 23) as f64]);
            idx.append(&ds);
        }
        assert!(idx.tree_count() > 1, "37 = 0b100101 keeps several trees");
        let sealed = idx.seal(&ds);
        assert_eq!(sealed.coverage(), Window::new(0, 36));
        for k in [1usize, 3] {
            let w = Window::new(5, 30);
            assert_eq!(sealed.top_k(&ds, &scorer, k, w), scan_top_k(&ds, &scorer, k, w));
        }
    }

    #[test]
    #[should_panic(expected = "cannot seal an empty index")]
    fn sealing_an_empty_forest_is_rejected() {
        AppendableTopKIndex::new(2).seal(&Dataset::new(1));
    }

    #[test]
    #[should_panic(expected = "exactly one new record")]
    fn append_requires_one_push() {
        let mut ds = Dataset::from_rows(1, [[1.0]]);
        let mut idx = AppendableTopKIndex::build(&ds, 2);
        ds.push(&[2.0]);
        ds.push(&[3.0]);
        idx.append(&ds);
    }
}
