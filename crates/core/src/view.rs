//! A per-request view of a [`ShardedEngine`](crate::ShardedEngine)'s
//! timeline: records `[base, base + len)` numbered from zero, their rows
//! read from every chunk they lie in, probed as one search over every tree
//! over those chunks ([`top_k_over`]), and the skyband of the chunk owning
//! the last record renumbered to the view's ids. The five algorithms run
//! over it unchanged.

use crate::oracle::{Rows, TopKOracle};
use durable_topk_index::{
    top_k_over, AppendableTopKIndex, DurableSkybandIndex, IncrementalSkybandIndex, OracleScorer,
    OracleScratch, Part, SkybandCandidates, SkylineSegTree, TopKResult, TreeRows,
};
use durable_topk_temporal::{Dataset, RecordId, Time, Window};

/// Records `[base, base + len)` of the timeline, read through the chunks
/// and trees that hold them.
pub(crate) struct View<'a> {
    /// Global id of the view's record 0.
    base: Time,
    len: usize,
    /// Row sources in time order: global id of row 0, and the rows. They
    /// cover every record a search of the view or an algorithm reads.
    chunks: Vec<(Time, &'a Dataset)>,
    /// Every tree over the chunks, in view ids.
    parts: Vec<Part<'a>>,
    /// The skyband of the most recently added chunk.
    skyband: Option<ViewSkyband<'a>>,
    /// The head forest, if added, and the view id of its first record: a
    /// probe reaching it counts one forest query.
    forest: Option<(i64, &'a AppendableTopKIndex)>,
}

impl<'a> View<'a> {
    /// An empty view of records `[base, hi]`; add the chunks holding them
    /// in time order.
    pub(crate) fn new(base: Time, hi: Time) -> Self {
        let len = (hi - base) as usize + 1;
        Self { base, len, chunks: Vec::new(), parts: Vec::new(), skyband: None, forest: None }
    }

    /// Adds a sealed shard whose record 0 is global record `lo`, with
    /// the rows of it the view reads.
    pub(crate) fn add_sealed(
        &mut self,
        lo: Time,
        rows: TreeRows<'a>,
        tree: &'a SkylineSegTree,
        skyband: Option<&'a DurableSkybandIndex>,
    ) {
        self.add(lo, rows, [tree], skyband.map(|s| s as &dyn SkybandCandidates));
    }

    /// Adds the head's rows, whose row 0 is global record `lo`, with its
    /// forest and skyband.
    pub(crate) fn add_head(
        &mut self,
        lo: Time,
        rows: &'a Dataset,
        forest: &'a AppendableTopKIndex,
        skyband: Option<&'a IncrementalSkybandIndex>,
    ) {
        let skyband = skyband.map(|s| s as &dyn SkybandCandidates);
        self.add(lo, rows.into(), forest.trees(), skyband);
        self.forest = Some((i64::from(lo) - i64::from(self.base), forest));
    }

    fn add(
        &mut self,
        lo: Time,
        rows: TreeRows<'a>,
        trees: impl IntoIterator<Item = &'a SkylineSegTree>,
        skyband: Option<&'a dyn SkybandCandidates>,
    ) {
        let offset = i64::from(lo) - i64::from(self.base);
        self.chunks.push((lo + rows.first, rows.rows));
        self.parts.extend(trees.into_iter().map(|tree| Part { tree, rows, offset }));
        self.skyband =
            skyband.map(|inner| ViewSkyband { inner, shift: i64::from(inner.base()) - offset });
    }

    /// The skyband S-Band reads, in view ids.
    pub(crate) fn skyband(&self) -> Option<&ViewSkyband<'a>> {
        self.skyband.as_ref()
    }

    /// One search of every tree for `Q(u, k, w)` at or above `floor`
    /// ([`top_k_over`]); a search reaching the head counts one forest
    /// query.
    pub(crate) fn search<S: OracleScorer + ?Sized>(
        &self,
        scorer: &S,
        k: usize,
        w: Window,
        floor: f64,
        scratch: &mut OracleScratch,
        out: &mut TopKResult,
    ) {
        if let Some((at, forest)) = self.forest {
            if i64::from(w.end()) >= at {
                forest.counters().bump_queries();
            }
        }
        top_k_over(self.parts.len(), |i| self.parts[i], scorer, k, w, floor, scratch, out);
    }
}

impl Rows for View<'_> {
    fn len(&self) -> usize {
        self.len
    }

    fn row(&self, id: RecordId) -> &[f64] {
        let at = self.base + id;
        // Most reads fall in the newest chunk, the one owning the piece.
        let chunk = self.chunks.iter().rev().find(|(lo, _)| *lo <= at);
        // A view holds every chunk its records lie in.
        #[allow(clippy::expect_used)]
        let &(lo, rows) = chunk.expect("a record of the view");
        rows.row(at - lo)
    }
}

impl<'a> TopKOracle for View<'a> {
    type Rows = View<'a>;

    fn top_k_into<S: OracleScorer + ?Sized>(
        &self,
        _rows: &View<'a>,
        scorer: &S,
        k: usize,
        w: Window,
        scratch: &mut OracleScratch,
        out: &mut TopKResult,
    ) {
        self.search(scorer, k, w, f64::NEG_INFINITY, scratch, out);
    }

    fn durable_into<S: OracleScorer + ?Sized>(
        &self,
        _rows: &View<'a>,
        scorer: &S,
        k: usize,
        w: Window,
        score: f64,
        scratch: &mut OracleScratch,
        out: &mut TopKResult,
    ) -> bool {
        self.search(scorer, k, w, score, scratch, out);
        out.admits_score(score)
    }
}

/// A chunk's skyband read in view ids: skyband id = view id + `shift`.
pub(crate) struct ViewSkyband<'a> {
    inner: &'a dyn SkybandCandidates,
    shift: i64,
}

impl SkybandCandidates for ViewSkyband<'_> {
    fn levels(&self) -> &[usize] {
        self.inner.levels()
    }

    fn base(&self) -> RecordId {
        (i64::from(self.inner.base()) - self.shift).max(0) as RecordId
    }

    fn for_each_candidate(
        &self,
        interval: Window,
        tau: Time,
        k: usize,
        visit: &mut dyn FnMut(RecordId),
    ) -> usize {
        // Ids before the skyband's first record clamp to zero: they have
        // no duration, and a clamped end is filtered out below.
        let inner = |id: Time| (i64::from(id) + self.shift).max(0) as Time;
        let shifted = Window::new(inner(interval.start()), inner(interval.end()));
        self.inner.for_each_candidate(shifted, tau, k, &mut |id| {
            let id = RecordId::try_from(i64::from(id) - self.shift);
            if let Some(id) = id.ok().filter(|&id| interval.contains(id)) {
                visit(id);
            }
        })
    }
}
