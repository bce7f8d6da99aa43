//! The preference top-k building block: a skyline-augmented segment tree.
//!
//! This is the index of the paper's Appendix A (Algorithms 4 and 5): a
//! balanced binary tree over arrival order where every node stores the
//! skyline of the records in its time interval. For a monotone scoring
//! function the maximum score within a node is attained on its skyline, so
//! scanning the (small) skyline yields an *exact* interval max score; a
//! best-first search over canonical nodes then needs to open at most `k`
//! leaf intervals to answer `Q(u, k, W)`.
//!
//! Two deliberate generalizations over the paper's description:
//!
//! 1. **Ties.** Results include every record tying the k-th score
//!    ([`TopKResult::kth_score`]), so the durability predicate
//!    `#{q : f(q) > f(p)} < k` can be evaluated exactly, and T-Hop's hop
//!    target (the most recent arrival in `π≤k`) remains correct when scores
//!    collide (common with integer-valued attributes such as rebounds).
//! 2. **Non-monotone scorers.** A node exposes a full [`NodeSummary`]
//!    (skyline, per-dimension bounds, norm range); any scorer that can
//!    produce an admissible upper bound from the summary plugs in via
//!    [`OracleScorer`]. The search remains exact because candidate records
//!    are always scored individually — bounds only drive pruning.

use durable_topk_geom::{skyline_indices, skyline_merge};
use durable_topk_temporal::{
    CosineScorer, Dataset, LinearScorer, MonotoneCombinationScorer, RecordId, Scorer,
    SingleAttributeScorer, Time, Window,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default leaf granularity; the paper's `LENGTH_THRESHOLD = 128`.
pub const DEFAULT_LEAF_SIZE: usize = 128;

/// Per-node statistics exposed to scorers for bounding.
#[derive(Debug, Clone)]
pub struct NodeSummary {
    /// Skyline of the node's records (ids into the dataset).
    pub skyline: Vec<RecordId>,
    /// Per-dimension maximum over the node's records.
    pub dim_max: Vec<f64>,
    /// Per-dimension minimum over the node's records.
    pub dim_min: Vec<f64>,
    /// Minimum Euclidean norm over the node's records.
    pub norm_min: f64,
    /// Maximum Euclidean norm over the node's records.
    pub norm_max: f64,
}

impl NodeSummary {
    fn from_range(ds: &Dataset, lo: Time, hi: Time) -> Self {
        let ids: Vec<RecordId> = (lo..=hi).collect();
        let skyline = skyline_indices(ds, &ids);
        let mut s = Self::empty(ds.dim());
        for id in lo..=hi {
            s.absorb_row(ds.row(id));
        }
        s.skyline = skyline;
        s
    }

    fn merged(ds: &Dataset, a: &NodeSummary, b: &NodeSummary) -> Self {
        let d = a.dim_max.len();
        let mut dim_max = Vec::with_capacity(d);
        let mut dim_min = Vec::with_capacity(d);
        for j in 0..d {
            dim_max.push(a.dim_max[j].max(b.dim_max[j]));
            dim_min.push(a.dim_min[j].min(b.dim_min[j]));
        }
        Self {
            skyline: skyline_merge(ds, &a.skyline, &b.skyline),
            dim_max,
            dim_min,
            norm_min: a.norm_min.min(b.norm_min),
            norm_max: a.norm_max.max(b.norm_max),
        }
    }

    fn empty(dim: usize) -> Self {
        Self {
            skyline: Vec::new(),
            dim_max: vec![f64::NEG_INFINITY; dim],
            dim_min: vec![f64::INFINITY; dim],
            norm_min: f64::INFINITY,
            norm_max: f64::NEG_INFINITY,
        }
    }

    fn absorb_row(&mut self, row: &[f64]) {
        let mut sq = 0.0;
        for (j, &x) in row.iter().enumerate() {
            self.dim_max[j] = self.dim_max[j].max(x);
            self.dim_min[j] = self.dim_min[j].min(x);
            sq += x * x;
        }
        let norm = sq.sqrt();
        self.norm_min = self.norm_min.min(norm);
        self.norm_max = self.norm_max.max(norm);
    }
}

/// A scorer usable by the top-k index: it must bound its own maximum over a
/// summarized set of records.
///
/// The bound must be *admissible*: `node_bound(..) >= max_{p in node} f(p)`.
/// Tighter bounds only improve pruning; correctness never depends on them.
pub trait OracleScorer: Scorer {
    /// An upper bound on the score of any record summarized by `node`;
    /// `rows` holds at least the node's skyline records.
    fn node_bound(&self, rows: TreeRows<'_>, node: &NodeSummary) -> f64;

    /// A structural fingerprint of the scoring function, or `None` when it
    /// has no canonical structure (opaque custom scorers).
    ///
    /// The contract is one-directional: two scorers returning the *same*
    /// fingerprint must score every record and bound every node
    /// bit-identically — memoization layers (the sealed-shard result cache,
    /// the per-scratch [node-bound memo](OracleScratch)) key on it.
    /// Parameters are canonicalized bit-exactly through `f64::to_bits`
    /// (the same total-order view [`OrdF64`] takes), so `0.0`/`-0.0` or two
    /// NaN payloads are distinct inputs to the hash. The default is `None`:
    /// an unfingerprintable scorer simply bypasses caches, which costs
    /// performance, never correctness.
    ///
    /// **Collisions are accepted, not excluded.** The print is 64 bits of
    /// an unkeyed hash ([`structural_fingerprint`]) and both memoization
    /// layers trust it as the scorer's identity without comparing the
    /// parameters behind it. Two unrelated scorers alias with probability
    /// about 2⁻⁶⁴; a client that *chooses* its last weight can construct an
    /// alias of a known vector, after which the result cache may replay
    /// the other scorer's answer and the node-bound memo may prune with
    /// the other scorer's (possibly inadmissible) bounds — records dropped
    /// silently. That is inside the serving layer's trust model (the wire
    /// protocol authenticates nobody); closing it needs a keyed hash or a
    /// parameter compare on every lookup, which ROADMAP lists as open.
    fn fingerprint(&self) -> Option<u64> {
        None
    }
}

/// Order-sensitive FNV-1a over a scorer-family tag and parameter words —
/// the canonicalization behind [`OracleScorer::fingerprint`]. Word-at-a-time
/// mixing is deliberate: the fingerprint needs collision resistance between
/// *structurally different* scorers, not cryptographic strength.
pub fn structural_fingerprint(tag: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = (0xcbf2_9ce4_8422_2325u64 ^ tag).wrapping_mul(PRIME);
    for w in words {
        h = (h ^ w).wrapping_mul(PRIME);
    }
    h
}

/// Family tags feeding [`structural_fingerprint`]; distinct per scorer type
/// so equal parameter vectors under different families never collide.
mod fingerprint_tag {
    pub(super) const LINEAR: u64 = 1;
    pub(super) const MONOTONE_COMBINATION: u64 = 2;
    pub(super) const SINGLE_ATTRIBUTE: u64 = 3;
    pub(super) const COSINE: u64 = 4;
}

/// Exact bound for monotone scorers: the max score over the node is attained
/// on the skyline.
fn skyline_bound<S: Scorer>(scorer: &S, rows: TreeRows<'_>, node: &NodeSummary) -> f64 {
    let mut best = f64::NEG_INFINITY;
    for &id in &node.skyline {
        best = best.max(scorer.score(rows.row(id)));
    }
    best
}

impl OracleScorer for LinearScorer {
    fn node_bound(&self, rows: TreeRows<'_>, node: &NodeSummary) -> f64 {
        skyline_bound(self, rows, node)
    }

    fn fingerprint(&self) -> Option<u64> {
        Some(structural_fingerprint(
            fingerprint_tag::LINEAR,
            self.weights().iter().map(|w| w.to_bits()),
        ))
    }
}

impl OracleScorer for MonotoneCombinationScorer {
    fn node_bound(&self, rows: TreeRows<'_>, node: &NodeSummary) -> f64 {
        skyline_bound(self, rows, node)
    }

    fn fingerprint(&self) -> Option<u64> {
        // Interleave weight bits with transform discriminants so
        // reordering transforms across attributes changes the print.
        let words = self
            .weights()
            .iter()
            .zip(self.transforms())
            .flat_map(|(w, tr)| [w.to_bits(), *tr as u64]);
        Some(structural_fingerprint(fingerprint_tag::MONOTONE_COMBINATION, words))
    }
}

impl OracleScorer for SingleAttributeScorer {
    fn node_bound(&self, rows: TreeRows<'_>, node: &NodeSummary) -> f64 {
        skyline_bound(self, rows, node)
    }

    fn fingerprint(&self) -> Option<u64> {
        Some(structural_fingerprint(fingerprint_tag::SINGLE_ATTRIBUTE, [self.attr() as u64]))
    }
}

impl OracleScorer for CosineScorer {
    /// Admissible bounding-box bound: `u·p` is bounded coordinate-wise by
    /// the node box, `|p|` by the node's norm range. Cosine is capped at 1.
    fn node_bound(&self, _rows: TreeRows<'_>, node: &NodeSummary) -> f64 {
        let mut num = 0.0;
        for (j, &w) in self.weights().iter().enumerate() {
            num += if w >= 0.0 { w * node.dim_max[j] } else { w * node.dim_min[j] };
        }
        let wn = self.weight_norm();
        if num > 0.0 {
            if node.norm_min <= 0.0 {
                1.0
            } else {
                (num / (wn * node.norm_min)).min(1.0)
            }
        } else if node.norm_min <= 0.0 {
            // A zero vector scores exactly 0, which dominates the negative
            // bound the box would give.
            0.0
        } else {
            num / (wn * node.norm_max)
        }
    }

    fn fingerprint(&self) -> Option<u64> {
        // `norm` is derived from the weights, so the weights alone pin the
        // function bit-exactly.
        Some(structural_fingerprint(
            fingerprint_tag::COSINE,
            self.weights().iter().map(|w| w.to_bits()),
        ))
    }
}

/// The result of a (range-restricted) preference top-k query.
///
/// `items` holds the `k` highest-scoring records in the window **plus every
/// record tying the k-th score**, sorted by descending score and ascending
/// id within ties. This is exactly the paper's `π≤k`: the set of records
/// with fewer than `k` strictly-better records in the window.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKResult {
    /// `(record, score)` pairs, best first.
    pub items: Vec<(RecordId, f64)>,
    /// The k-th highest score in the window (counting multiplicity), or
    /// `f64::NEG_INFINITY` if the window holds fewer than `k` records.
    pub kth_score: f64,
}

impl Default for TopKResult {
    fn default() -> Self {
        Self::empty()
    }
}

impl TopKResult {
    /// An empty result (`kth_score = -inf`), ready to be filled in place.
    pub fn empty() -> Self {
        Self { items: Vec::new(), kth_score: f64::NEG_INFINITY }
    }

    /// Clears the result for reuse, keeping the item buffer's capacity.
    pub fn clear(&mut self) {
        self.items.clear();
        self.kth_score = f64::NEG_INFINITY;
    }

    /// Whether a record scoring `score` belongs to `π≤k` of this window.
    ///
    /// Valid for records *inside* the queried window: membership is exactly
    /// `score >= kth_score` because all ties are materialized.
    #[inline]
    pub fn admits_score(&self, score: f64) -> bool {
        score >= self.kth_score
    }

    /// The most recent arrival time among the returned records, if any.
    pub fn max_time(&self) -> Option<Time> {
        self.items.iter().map(|&(id, _)| id).max()
    }

    /// Number of returned records with score strictly above `score`.
    pub fn strictly_better(&self, score: f64) -> usize {
        self.items.iter().take_while(|&&(_, s)| s > score).count()
    }

    /// Builds a result from unsorted candidates: sorts best-first, derives
    /// the k-th score and drops everything strictly below it.
    pub fn finalize(candidates: Vec<(RecordId, f64)>, k: usize) -> Self {
        let mut out = Self { items: candidates, kth_score: f64::NEG_INFINITY };
        out.finalize_in_place(k);
        out
    }

    /// Finalizes `items` in place: derives the k-th score, drops everything
    /// strictly below it and sorts the survivors best-first (descending
    /// score, ascending id). The allocation-free counterpart of
    /// [`finalize`](TopKResult::finalize).
    ///
    /// The k-th score comes from a linear-time selection, so only the
    /// `k + ties` survivors pay for a sort — candidate buffers routinely
    /// hold several times `k`.
    pub fn finalize_in_place(&mut self, k: usize) {
        let best_first = |a: &(RecordId, f64), b: &(RecordId, f64)| {
            b.1.partial_cmp(&a.1).expect("scores must not be NaN").then(a.0.cmp(&b.0))
        };
        self.kth_score = f64::NEG_INFINITY;
        if self.items.len() >= k {
            let kth = self.items.select_nth_unstable_by(k - 1, best_first).1 .1;
            self.kth_score = kth;
            self.items.retain(|&(_, s)| s >= kth);
        }
        self.items.sort_unstable_by(best_first);
    }
}

/// Instrumentation counters for the oracle, used by the experiment harness
/// to report "number of top-k queries" exactly as the paper's figures do.
///
/// Counters are atomic (relaxed) so a built index can be shared across
/// threads for batch query workloads.
#[derive(Debug, Default)]
pub struct QueryCounters {
    queries: AtomicU64,
    nodes_opened: AtomicU64,
    records_scanned: AtomicU64,
}

impl QueryCounters {
    /// Total `Q(u, k, W)` invocations since the last reset.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Total tree nodes expanded by best-first search.
    pub fn nodes_opened(&self) -> u64 {
        self.nodes_opened.load(Ordering::Relaxed)
    }

    /// Total records individually scored.
    pub fn records_scanned(&self) -> u64 {
        self.records_scanned.load(Ordering::Relaxed)
    }

    /// Increments the logical query count (used by composite indexes).
    pub fn bump_queries(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.queries.store(0, Ordering::Relaxed);
        self.nodes_opened.store(0, Ordering::Relaxed);
        self.records_scanned.store(0, Ordering::Relaxed);
    }
}

#[derive(Debug, Clone)]
struct TreeNode {
    lo: Time,
    hi: Time,
    left: i32,
    right: i32,
    summary: NodeSummary,
}

/// Total-order wrapper for `f64` heap keys (via `total_cmp`).
///
/// Public so out-of-crate oracle implementations (e.g. the disk-backed
/// store relation) can key their [`OracleScratch`] heaps the same way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrdF64(pub f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Trees one scratch memoizes node bounds for at once. A binary-counter
/// forest over `n` records holds at most `⌈log₂ n⌉ + 1` trees, so a search
/// over a head forest of up to ~8k records plus a sealed predecessor or two
/// keeps every tree's slot. A search over more trees still answers exactly:
/// a part whose slot is taken over inside the probe only computes its
/// bounds again.
const MEMO_SLOTS: usize = 16;

/// One memoized bound; live iff `stamp` equals its slot's current stamp.
#[derive(Debug, Clone, Copy, Default)]
struct MemoEntry {
    stamp: u32,
    bound: f64,
}

/// The bounds of one `(tree, scorer)` pair, indexed by node slot.
#[derive(Debug, Clone, Default)]
struct MemoSlot {
    /// [`SkylineSegTree`] id the entries belong to; `0` while unbound.
    tree: u64,
    /// [`OracleScorer::fingerprint`] the entries were computed under.
    fingerprint: u64,
    /// Stamp of the live entries. Rebinding the slot draws a fresh stamp,
    /// which invalidates every entry at once without touching them.
    stamp: u32,
    /// [`BoundMemo::clock`] reading of the last probe bound here.
    last_used: u64,
    entries: Vec<MemoEntry>,
}

/// Memo of [`OracleScorer::node_bound`] values, so the probes of one request
/// — same tree, same scorer, overlapping windows — evaluate each node's
/// bound once.
///
/// A bound is a pure function of `(tree, node, scorer)`: trees are immutable
/// once built and carry a process-unique id, and scorers with equal
/// fingerprints bound bit-identically. Every probe re-derives each part's
/// slot from exactly that pair ([`bind`](BoundMemo::bind)), so a bound
/// computed for another tree or scorer is unreachable rather than merely
/// avoided — up to a 64-bit fingerprint collision, which
/// [`OracleScorer::fingerprint`] documents as accepted. Entries are read
/// under the binding's stamp, so two parts of one probe that end up sharing
/// a slot (more parts than slots) never read each other's bounds.
///
/// **Footprint.** A slot's entries are indexed by node slot, grow to the
/// largest tree ever bound to the slot and never shrink, so one scratch
/// holds at most `MEMO_SLOTS × max nodes × 16 B`, i.e. about
/// `16 × 2n/leaf × 16 B` for trees over `n` records: ~140 KiB per worker
/// for 35k-record shard trees at the default 128-record leaves, and MiBs
/// with small leaves or one large flat tree — not a few KB.
#[derive(Debug, Clone, Default)]
struct BoundMemo {
    slots: [MemoSlot; MEMO_SLOTS],
    /// Last stamp handed out; `0` is never live ([`MemoEntry::default`]).
    last_stamp: u32,
    /// Probes bound so far — the LRU clock.
    clock: u64,
}

/// Where one part's bounds live for the rest of a probe: a slot and the
/// stamp its entries carry. Stamp `0` is never live, so an unmemoized
/// binding computes every bound.
#[derive(Debug, Clone, Copy, Default)]
struct Binding {
    slot: usize,
    stamp: u32,
}

impl BoundMemo {
    /// Binds `(tree, fingerprint)` to its slot, evicting the least recently
    /// probed pair when no slot matches. A scorer without a fingerprint
    /// gets the unmemoized binding: every lookup computes.
    fn bind(&mut self, tree: u64, nodes: usize, fingerprint: Option<u64>) -> Binding {
        let Some(fingerprint) = fingerprint else {
            return Binding::default();
        };
        self.clock += 1;
        let found = self.slots.iter().position(|s| s.tree == tree && s.fingerprint == fingerprint);
        let at = found.unwrap_or_else(|| {
            // Least recently probed; never-bound slots read 0 and go first.
            let at = (0..MEMO_SLOTS).min_by_key(|&at| self.slots[at].last_used).unwrap_or(0);
            let stamp = self.fresh_stamp();
            let slot = &mut self.slots[at];
            (slot.tree, slot.fingerprint, slot.stamp) = (tree, fingerprint, stamp);
            if slot.entries.len() < nodes {
                slot.entries.resize(nodes, MemoEntry::default());
            }
            at
        });
        let slot = &mut self.slots[at];
        slot.last_used = self.clock;
        Binding { slot: at, stamp: slot.stamp }
    }

    /// Node `idx`'s bound under `binding`, computing and recording it on
    /// first use.
    #[inline]
    fn get_or_compute(&mut self, binding: Binding, idx: i32, compute: impl FnOnce() -> f64) -> f64 {
        if binding.stamp == 0 {
            return compute();
        }
        match self.slots[binding.slot].entries.get_mut(idx as usize) {
            Some(entry) if entry.stamp == binding.stamp => entry.bound,
            Some(entry) => {
                *entry = MemoEntry { stamp: binding.stamp, bound: compute() };
                entry.bound
            }
            None => compute(),
        }
    }

    /// A stamp no live or dead entry carries. When the counter is
    /// exhausted every slot is unbound and wiped first, so a stamp from the
    /// previous cycle can never read as live.
    fn fresh_stamp(&mut self) -> u32 {
        if self.last_stamp == u32::MAX {
            for slot in &mut self.slots {
                slot.tree = 0;
                slot.entries.fill(MemoEntry::default());
            }
            self.last_stamp = 0;
        }
        self.last_stamp += 1;
        self.last_stamp
    }
}

/// One part of the search in flight: the part of the window it covers (in
/// its own ids) with its memo binding — `None` when the window misses the
/// part — and the work it was charged.
#[derive(Debug, Clone, Copy)]
struct PartState {
    reach: Option<(Window, Binding)>,
    opened: u64,
    scanned: u64,
}

/// A best-first frontier entry, 16 bytes: (bound, part, node).
///
/// The slice a node scans is not carried: it is the node's range clipped
/// to its part's local window ([`PartState::reach`]). `(part, node)`
/// occurs at most once per search, so entries never compare equal and the
/// heap's pop order is a function of the set it holds, not of how the set
/// was built.
type Frontier = (OrdF64, u32, i32);

/// Reusable scratch space for [`top_k_over`] and [`scan_top_k_into`]: the
/// best-first frontier, the running best-k threshold heap, the leaf score
/// buffer, the node-bound memo and the per-part state of the search in
/// flight.
///
/// One instance per query thread; reusing it across calls removes every
/// per-probe heap allocation from the oracle path, and lets the probes of
/// one request share each node's bound: the search looks a bound up under
/// `(tree id, scorer fingerprint)` before asking the scorer for it. The
/// memo costs up to 16 slots × the largest probed tree's node count × 16 B
/// per scratch and is never given back while the scratch lives. Any
/// interleaving of trees, scorers and `k` values through one scratch answers
/// exactly as a fresh scratch would; scorers whose
/// [`fingerprint`](OracleScorer::fingerprint) is `None` simply bypass the
/// memo.
#[derive(Debug, Clone, Default)]
pub struct OracleScratch {
    /// Best-first frontier of 16-byte [`Frontier`] entries.
    pq: BinaryHeap<Frontier>,
    /// Min-heap over the best k scores seen; its top is the running s_k.
    best_k: BinaryHeap<Reverse<OrdF64>>,
    /// Scores of the leaf being scanned ([`Scorer::score_run`]).
    scores: Vec<f64>,
    /// Node bounds already evaluated for recently probed trees.
    bounds: BoundMemo,
    parts: Vec<PartState>,
    /// Best-first frontier for out-of-crate oracles that address nodes by
    /// byte offset instead of slot index (the disk-backed store relation):
    /// (bound, node offset, window slice).
    pub pq_ext: BinaryHeap<(OrdF64, u64, Time, Time)>,
    /// Running best-k min-heap for out-of-crate oracles; its top is the
    /// running s_k.
    pub best_ext: BinaryHeap<Reverse<OrdF64>>,
    /// Reusable attribute-row buffer for oracles that materialize records
    /// one at a time (e.g. through a buffer pool).
    pub row: Vec<f64>,
    /// Reusable byte buffer for serialized node payloads.
    pub bytes: Vec<u8>,
}

impl OracleScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The skyline-augmented segment tree over arrival order.
///
/// Built once per dataset in `O(n · s̄ + n log n)` where `s̄` is the mean
/// node skyline size; answers `Q(u, k, W)` for any window `W` and any
/// [`OracleScorer`] given at query time.
///
/// A tree is immutable once built and must always be probed with the
/// dataset it was built over (rows inside its coverage never change in the
/// append-only [`Dataset`]); its process-unique id is what lets an
/// [`OracleScratch`] reuse node bounds across probes.
#[derive(Debug)]
pub struct SkylineSegTree {
    /// Process-unique, never reused: a rebuilt or joined tree is a new
    /// identity to every memo keyed on it.
    id: u64,
    /// Parents precede their children; the root is slot [`ROOT`].
    nodes: Vec<TreeNode>,
    leaf_size: usize,
    counters: QueryCounters,
}

/// Largest leaf [`SkylineSegTree::join`] fuses two single-leaf trees into.
/// Half of `leaf_size`: `build_over` halves a range until it fits
/// `leaf_size`, so its leaves hold between half and all of it, while fused
/// leaves only double. At `leaf_size / 2` a sealed forest probes as fast as
/// a balanced tree over the same records, with the same `heap_bytes`
/// (4 096 + 1 024 records, 128-record leaves: 2.5–2.7 µs against 2.7–2.9 µs);
/// fusing up to `leaf_size` measured 5–10 % slower per probe.
fn fuse_bound(leaf_size: usize) -> usize {
    leaf_size / 2
}

/// Slot of every tree's root node.
const ROOT: i32 = 0;

/// Source of [`SkylineSegTree`] ids; `0` is reserved for "no tree".
static NEXT_TREE_ID: AtomicU64 = AtomicU64::new(1);

fn next_tree_id() -> u64 {
    // Relaxed: the id only has to be unique; it publishes nothing.
    NEXT_TREE_ID.fetch_add(1, Ordering::Relaxed)
}

impl SkylineSegTree {
    /// Builds the index over the whole dataset with the default leaf size.
    ///
    /// # Panics
    /// Panics if the dataset is empty.
    pub fn build(ds: &Dataset) -> Self {
        Self::with_leaf_size(ds, DEFAULT_LEAF_SIZE)
    }

    /// Builds with an explicit leaf granularity (the paper's
    /// `LENGTH_THRESHOLD`). Exposed for the ablation experiments.
    ///
    /// # Panics
    /// Panics if the dataset is empty or `leaf_size == 0`.
    pub fn with_leaf_size(ds: &Dataset, leaf_size: usize) -> Self {
        assert!(!ds.is_empty(), "cannot index an empty dataset");
        assert!(leaf_size > 0, "leaf size must be positive");
        Self::build_over(ds, 0, (ds.len() - 1) as Time, leaf_size)
    }

    /// Builds a balanced tree over a sub-range of the dataset — a shard's
    /// tree, or the one-record tree the appendable forest starts every
    /// arrival as. Larger forest trees are [`join`](SkylineSegTree::join)ed,
    /// never rebuilt.
    pub fn build_over(ds: &Dataset, lo: Time, hi: Time, leaf_size: usize) -> Self {
        let mut tree = Self {
            id: next_tree_id(),
            nodes: Vec::with_capacity(2 * ((hi - lo) as usize + 1) / leaf_size + 2),
            leaf_size,
            counters: QueryCounters::default(),
        };
        tree.build_rec(ds, lo, hi);
        tree
    }

    fn build_rec(&mut self, ds: &Dataset, lo: Time, hi: Time) -> i32 {
        let idx = self.nodes.len() as i32;
        if ((hi - lo) as usize) < self.leaf_size {
            let summary = NodeSummary::from_range(ds, lo, hi);
            self.nodes.push(TreeNode { lo, hi, left: -1, right: -1, summary });
            return idx;
        }
        // Reserve the slot so parents precede children in memory.
        self.nodes.push(TreeNode {
            lo,
            hi,
            left: -1,
            right: -1,
            summary: NodeSummary::empty(ds.dim()),
        });
        let mid = lo + (hi - lo) / 2;
        let left = self.build_rec(ds, lo, mid);
        let right = self.build_rec(ds, mid + 1, hi);
        let summary = NodeSummary::merged(
            ds,
            &self.nodes[left as usize].summary,
            &self.nodes[right as usize].summary,
        );
        let node = &mut self.nodes[idx as usize];
        node.left = left;
        node.right = right;
        node.summary = summary;
        idx
    }

    /// Makes one tree of two over adjacent ranges (`left` ends where `right`
    /// begins) without summarizing any record again: a new root, whose
    /// summary is merged from the two roots', goes on top of the two node
    /// arrays, which are moved as they are. Two single-leaf trees fuse into
    /// one leaf while the result stays within the fuse bound, so a forest
    /// grown one record at a time ends up with leaves, not chains of
    /// one-record nodes.
    ///
    /// The result is a new tree (fresh id, zeroed counters) that answers
    /// exactly like [`build_over`](SkylineSegTree::build_over) over the joint
    /// range; only its shape — and so the search's node counts — differs.
    /// `ds` must be the dataset both trees were built over.
    ///
    /// # Panics
    /// Panics unless the coverages are adjacent.
    pub fn join(ds: &Dataset, left: Self, right: Self) -> Self {
        let (lw, rw) = (left.coverage(), right.coverage());
        assert_eq!(lw.end() + 1, rw.start(), "joined trees must cover adjacent ranges");
        let summary = NodeSummary::merged(
            ds,
            &left.nodes[ROOT as usize].summary,
            &right.nodes[ROOT as usize].summary,
        );
        let mut root = TreeNode { lo: lw.start(), hi: rw.end(), left: -1, right: -1, summary };
        let fuse = left.nodes.len() == 1
            && right.nodes.len() == 1
            && lw.len() + rw.len() <= fuse_bound(left.leaf_size);
        let nodes = if fuse {
            vec![root]
        } else {
            // The root, then each operand's nodes in their old order.
            let (left_at, right_at) = (1, 1 + left.nodes.len() as i32);
            (root.left, root.right) = (left_at, right_at);
            let mut nodes = Vec::with_capacity(right_at as usize + right.nodes.len());
            nodes.push(root);
            for (shift, operand) in [(left_at, left.nodes), (right_at, right.nodes)] {
                nodes.extend(operand.into_iter().map(|mut node| {
                    if node.left >= 0 {
                        node.left += shift;
                        node.right += shift;
                    }
                    node
                }));
            }
            nodes
        };
        Self {
            id: next_tree_id(),
            nodes,
            leaf_size: left.leaf_size,
            counters: QueryCounters::default(),
        }
    }

    /// Replaces the tree's counters — how a sealed forest's query count
    /// lives on in the tree it became.
    pub(crate) fn with_counters(mut self, counters: QueryCounters) -> Self {
        self.counters = counters;
        self
    }

    #[cfg(test)]
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The time range covered by this tree.
    pub fn coverage(&self) -> Window {
        let root = &self.nodes[ROOT as usize];
        Window::new(root.lo, root.hi)
    }

    /// The union of the leaves `w` touches, within the coverage (`None`
    /// when `w` misses the tree): every row a search over a window inside
    /// `w` reads. Such a search scans leaves only inside the window and
    /// bounds only nodes inside it, save a leaf straddling an edge, which
    /// it bounds by the whole leaf's skyline.
    pub fn leaf_span(&self, w: Window) -> Option<Window> {
        let w = self.coverage().intersect(w)?;
        let leaf = |t: Time| {
            let mut node = &self.nodes[ROOT as usize];
            while node.left >= 0 {
                let left = &self.nodes[node.left as usize];
                node = if t <= left.hi { left } else { &self.nodes[node.right as usize] };
            }
            node
        };
        Some(Window::new(leaf(w.start()).lo, leaf(w.end()).hi))
    }

    /// Instrumentation counters.
    pub fn counters(&self) -> &QueryCounters {
        &self.counters
    }

    /// Heap bytes held by the tree: the node array plus every node's
    /// skyline and per-dimension bound vectors (capacities, not lengths).
    /// Resident-set accounting for the storage-tier bench.
    pub fn heap_bytes(&self) -> usize {
        let summaries: usize = self
            .nodes
            .iter()
            .map(|n| {
                n.summary.skyline.capacity() * std::mem::size_of::<RecordId>()
                    + (n.summary.dim_max.capacity() + n.summary.dim_min.capacity())
                        * std::mem::size_of::<f64>()
            })
            .sum();
        self.nodes.capacity() * std::mem::size_of::<TreeNode>() + summaries
    }

    /// Answers `Q(u, k, W)`: the top-k records (with ties) in the window.
    ///
    /// Convenience wrapper over [`top_k_with`](SkylineSegTree::top_k_with)
    /// that allocates fresh scratch; hot paths should hold an
    /// [`OracleScratch`] and call `top_k_with` directly.
    ///
    /// # Panics
    /// Panics if `k == 0`.
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

    /// Answers `Q(u, k, W)` into `out`, drawing every internal heap and
    /// buffer from `scratch` — the allocation-free oracle path: the
    /// one-part case of [`top_k_over`].
    ///
    /// The window is clamped to the tree's coverage; empty intersections
    /// yield an empty result with `kth_score = -inf`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn top_k_with<S: OracleScorer + ?Sized>(
        &self,
        ds: &Dataset,
        scorer: &S,
        k: usize,
        w: Window,
        scratch: &mut OracleScratch,
        out: &mut TopKResult,
    ) {
        let part = Part { tree: self, rows: ds.into(), offset: 0 };
        top_k_over(1, |_| part, scorer, k, w, f64::NEG_INFINITY, scratch, out);
    }
}

/// The rows a tree's ids read from: `rows` holds tree ids `first..`, a run
/// of the dataset the tree was built over — all of it (`first` 0), or the
/// rows a range fetch brought in.
#[derive(Debug, Clone, Copy)]
pub struct TreeRows<'a> {
    /// The rows, tree id `first` at row 0.
    pub rows: &'a Dataset,
    /// Tree id of `rows`' row 0.
    pub first: Time,
}

impl<'a> TreeRows<'a> {
    /// Tree record `id`'s attribute row.
    #[inline]
    pub fn row(&self, id: RecordId) -> &'a [f64] {
        self.rows.row(id - self.first)
    }

    /// Tree records `lo..=hi`'s rows, back to back.
    #[inline]
    fn run(&self, lo: Time, hi: Time) -> &'a [f64] {
        let dim = self.rows.dim();
        &self.rows.raw_attrs()
            [(lo - self.first) as usize * dim..(hi - self.first + 1) as usize * dim]
    }
}

impl<'a> From<&'a Dataset> for TreeRows<'a> {
    fn from(rows: &'a Dataset) -> Self {
        Self { rows, first: 0 }
    }
}

/// One tree of a [`top_k_over`] search: the tree, the rows it reads, and
/// where its records sit among the caller's ids.
#[derive(Debug, Clone, Copy)]
pub struct Part<'a> {
    /// The tree searched.
    pub tree: &'a SkylineSegTree,
    /// Rows of the dataset the tree was built over: at least those of
    /// [`leaf_span`](SkylineSegTree::leaf_span) over the searched window.
    pub rows: TreeRows<'a>,
    /// The caller's id of the tree's record 0: the search reads windows
    /// and reports records as tree ids plus `offset`. Negative when the
    /// tree starts before the caller's first id.
    pub offset: i64,
}

impl Part<'_> {
    /// The part of the caller's window `w` this tree covers, in its ids.
    fn local(&self, w: Window) -> Option<Window> {
        let cover = self.tree.coverage();
        let lo = (i64::from(w.start()) - self.offset).max(i64::from(cover.start()));
        let hi = (i64::from(w.end()) - self.offset).min(i64::from(cover.end()));
        (lo <= hi).then(|| Window::new(lo as Time, hi as Time))
    }

    /// Collects the canonical decomposition of `w` (tree ids) under node
    /// `idx` into `seeds` as entries of part `p`, leaving off nodes bounded
    /// below `floor`. Every internal node collected lies inside `w`; only
    /// a leaf may straddle its edge.
    #[allow(clippy::too_many_arguments)]
    fn seed<S: OracleScorer + ?Sized>(
        &self,
        (p, binding): (u32, Binding),
        scorer: &S,
        idx: i32,
        w: Window,
        floor: f64,
        bounds: &mut BoundMemo,
        seeds: &mut Vec<Frontier>,
    ) {
        let node = &self.tree.nodes[idx as usize];
        let range = Window::new(node.lo, node.hi);
        if range.intersect(w).is_none() {
            return;
        }
        if w.contains_window(range) || node.left < 0 {
            let b =
                bounds.get_or_compute(binding, idx, || scorer.node_bound(self.rows, &node.summary));
            if b >= floor {
                seeds.push((OrdF64(b), p, idx));
            }
            return;
        }
        self.seed((p, binding), scorer, node.left, w, floor, bounds, seeds);
        self.seed((p, binding), scorer, node.right, w, floor, bounds, seeds);
    }
}

/// The entry the search opens next once `fresh` is eligible: `fresh` itself
/// when it outranks the frontier's top (the dive — no push, no pop), else
/// the top, whose place `fresh` takes in one sift. Either way it is what
/// pushing `fresh` and then popping would yield, leaving the same set.
#[inline]
fn next_after(pq: &mut BinaryHeap<Frontier>, fresh: Frontier) -> Frontier {
    match pq.peek_mut() {
        Some(mut top) if *top > fresh => std::mem::replace(&mut *top, fresh),
        _ => fresh,
    }
}

/// Answers `Q(u, k, W)` over `parts` trees at once, into `out`, drawing
/// every internal heap and buffer from `scratch` — searching only at or
/// above `floor`.
///
/// The one search body of the crate. `part(i)` for `i < parts` names the
/// trees; their id ranges (after their offsets) must not overlap. One
/// best-first frontier holds `(bound, part, node)` entries from every tree
/// the window reaches, so a node is opened only while its bound can still
/// reach the running threshold of the whole window — the canonical
/// decomposition of §IV spanning several trees, with no per-tree answer
/// merged afterwards. Each part's node-bound memo is bound once per probe;
/// each tree the window reaches counts one query plus the nodes and
/// records the search charged to it.
///
/// The threshold is `max(floor, running k-th score)`: seeds, children and
/// leaf records scoring below `floor` are never pushed. With `floor = −∞`
/// (a NaN floor counts as −∞) `out` is `π≤k` of `w`. Otherwise:
///
/// * if fewer than `k` records of `w` score at least `floor`, `out` holds
///   exactly those records, with `kth_score = −∞`;
/// * if at least `k` do, the window's k-th score is at least `floor`, the
///   threshold never passes it, and `out` is `π≤k` bit for bit.
///
/// Either way `out.admits_score(floor)` is the full search's verdict on a
/// record scoring `floor` — the durability check of §III–§IV with
/// `floor = score(p)` — and no part opens more nodes than under `−∞`.
///
/// **Cost per node.** The nodes opened, and their order, are those of the
/// textbook loop "pop the best entry; push its children; repeat"; only the
/// heap traffic is trimmed:
///
/// * a frontier entry is 16 bytes, `(bound, part, node)`; the slice a node
///   scans is its range clipped to the part's local window;
/// * the seeds are collected into the frontier's buffer and heapified once;
/// * after an internal node, the better eligible child is opened next
///   without touching the heap when it outranks the frontier's top (the
///   dive; under a skyline bound the best child's bound is its parent's,
///   so this is the common case), and otherwise takes the top's place in
///   one sift — the entry a push-then-pop would yield;
/// * a leaf is scored in one [`Scorer::score_run`] call, bit-identical to
///   scoring row by row;
/// * once the threshold heap holds `k` scores, an admitted score replaces
///   its minimum in one sift instead of a push and a pop — the same
///   multiset, so the same threshold after every record.
///
/// Entries never compare equal (a `(part, node)` pair is pushed at most
/// once), so the pop order depends only on which entries the frontier
/// holds, and the trimmed loop opens the same nodes in the same order.
///
/// # Panics
/// Panics if `k == 0`.
#[allow(clippy::too_many_arguments)]
pub fn top_k_over<'a, S: OracleScorer + ?Sized>(
    parts: usize,
    part: impl Fn(usize) -> Part<'a>,
    scorer: &S,
    k: usize,
    w: Window,
    floor: f64,
    scratch: &mut OracleScratch,
    out: &mut TopKResult,
) {
    assert!(k > 0, "k must be positive");
    out.clear();
    let floor = if floor.is_nan() { f64::NEG_INFINITY } else { floor };
    let OracleScratch { pq, best_k, scores, bounds, parts: states, .. } = scratch;
    states.clear();
    // Seed the frontier with every part's canonical decomposition,
    // collected in the heap's own buffer and heapified once.
    let mut seeds = std::mem::take(pq).into_vec();
    seeds.clear();
    let fingerprint = scorer.fingerprint();
    for p in 0..parts {
        let at = part(p);
        let reach = at
            .local(w)
            .map(|local| (local, bounds.bind(at.tree.id, at.tree.nodes.len(), fingerprint)));
        states.push(PartState { reach, opened: 0, scanned: 0 });
        if let Some((local, binding)) = reach {
            at.seed((p as u32, binding), scorer, ROOT, local, floor, bounds, &mut seeds);
        }
    }
    *pq = BinaryHeap::from(seeds);

    // Candidates accumulate directly in the output buffer.
    let candidates = &mut out.items;
    best_k.clear();
    // The running threshold: the k-th best score seen so far, never below
    // the floor. Only an admission moves it.
    let mut threshold = floor;

    let mut next = pq.pop();
    while let Some((bound, p, idx)) = next {
        // Strictly below the threshold: no record inside can enter π≤k
        // (equal bounds may still contain ties of s_k).
        if bound.0 < threshold {
            break;
        }
        let Part { tree, rows, offset } = part(p as usize);
        let state = &mut states[p as usize];
        let (local, binding) = state.reach.expect("only reached parts are seeded");
        state.opened += 1;
        let node = &tree.nodes[idx as usize];
        if node.left < 0 {
            // Leaf: score the records of its slice in one run.
            let slice = Window::new(node.lo, node.hi).intersect(local).expect("seeded slice");
            let (lo, hi) = (slice.start(), slice.end());
            state.scanned += u64::from(hi - lo) + 1;
            scorer.score_run(rows.run(lo, hi), rows.rows.dim(), scores);
            for (id, &s) in (lo..=hi).zip(scores.iter()) {
                if s < threshold {
                    continue;
                }
                candidates.push(((i64::from(id) + offset) as RecordId, s));
                if best_k.len() < k {
                    best_k.push(Reverse(OrdF64(s)));
                } else {
                    // `s` is at least the minimum: replacing it keeps the
                    // multiset push-then-pop would leave.
                    *best_k.peek_mut().expect("k > 0") = Reverse(OrdF64(s));
                }
                if best_k.len() >= k {
                    threshold = best_k.peek().expect("non-empty").0 .0.max(floor);
                }
            }
            // Keep the candidate buffer from growing without bound on
            // tie-heavy data.
            if candidates.len() > 8 * k + 64 {
                candidates.retain(|&(_, s)| s >= threshold);
            }
            next = pq.pop();
        } else {
            // An internal node on the frontier lies inside the local
            // window, so both children do. A child already strictly below
            // the threshold (which only rises) would be popped only to end
            // the search; leave it off the frontier.
            let mut child = |c: i32| {
                let node = &tree.nodes[c as usize];
                debug_assert!(local.contains_window(Window::new(node.lo, node.hi)));
                let b =
                    bounds.get_or_compute(binding, c, || scorer.node_bound(rows, &node.summary));
                (b >= threshold).then_some((OrdF64(b), p, c))
            };
            next = match (child(node.left), child(node.right)) {
                (Some(l), Some(r)) => {
                    let (best, other) = if l > r { (l, r) } else { (r, l) };
                    pq.push(other);
                    Some(next_after(pq, best))
                }
                (Some(only), None) | (None, Some(only)) => Some(next_after(pq, only)),
                (None, None) => pq.pop(),
            };
        }
    }
    for (p, state) in states.iter().enumerate() {
        if state.reach.is_some() {
            let counters = &part(p).tree.counters;
            counters.queries.fetch_add(1, Ordering::Relaxed);
            counters.nodes_opened.fetch_add(state.opened, Ordering::Relaxed);
            counters.records_scanned.fetch_add(state.scanned, Ordering::Relaxed);
        }
    }
    out.finalize_in_place(k);
}

/// Naive reference oracle: scores every record in the window.
///
/// Used as the correctness baseline in tests and as the fallback oracle for
/// scorers without node bounds.
pub fn scan_top_k<S: Scorer + ?Sized>(ds: &Dataset, scorer: &S, k: usize, w: Window) -> TopKResult {
    let mut out = TopKResult::empty();
    scan_top_k_into(ds, scorer, k, w, &mut out);
    out
}

/// [`scan_top_k`] into a caller-provided result buffer (allocation-free once
/// the buffer is warm).
///
/// # Panics
/// Panics if `k == 0`.
pub fn scan_top_k_into<S: Scorer + ?Sized>(
    ds: &Dataset,
    scorer: &S,
    k: usize,
    w: Window,
    out: &mut TopKResult,
) {
    assert!(k > 0, "k must be positive");
    out.clear();
    if ds.is_empty() || w.start() as usize >= ds.len() {
        return;
    }
    let w = w.clamp_to(ds.len());
    out.items.extend(w.iter().map(|id| (id, scorer.score(ds.row(id)))));
    out.finalize_in_place(k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn random_dataset(rng: &mut StdRng, n: usize, d: usize, vals: u32) -> Dataset {
        let rows: Vec<Vec<f64>> =
            (0..n).map(|_| (0..d).map(|_| rng.random_range(0..vals) as f64).collect()).collect();
        Dataset::from_rows(d, rows)
    }

    #[test]
    fn top_k_matches_scan_small() {
        let ds = Dataset::from_rows(
            2,
            [[1.0, 2.0], [5.0, 5.0], [3.0, 1.0], [5.0, 5.0], [0.0, 9.0], [4.0, 4.0]],
        );
        let tree = SkylineSegTree::with_leaf_size(&ds, 2);
        let scorer = LinearScorer::new(vec![1.0, 1.0]);
        for k in 1..=4 {
            let w = Window::new(0, 5);
            let fast = tree.top_k(&ds, &scorer, k, w);
            let slow = scan_top_k(&ds, &scorer, k, w);
            assert_eq!(fast, slow, "k={k}");
        }
    }

    #[test]
    fn ties_at_kth_are_all_returned() {
        let ds = Dataset::from_rows(1, [[5.0], [3.0], [5.0], [5.0], [1.0]]);
        let tree = SkylineSegTree::with_leaf_size(&ds, 1);
        let scorer = SingleAttributeScorer::new(0);
        let r = tree.top_k(&ds, &scorer, 2, Window::new(0, 4));
        // Three records tie the 2nd score of 5.0.
        assert_eq!(r.kth_score, 5.0);
        let ids: Vec<RecordId> = r.items.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![0, 2, 3]);
        assert!(r.admits_score(5.0));
        assert!(!r.admits_score(4.9));
        assert_eq!(r.strictly_better(4.0), 3);
        assert_eq!(r.max_time(), Some(3));
    }

    #[test]
    fn window_smaller_than_k_admits_everything() {
        let ds = Dataset::from_rows(1, [[1.0], [2.0], [3.0]]);
        let tree = SkylineSegTree::build(&ds);
        let scorer = SingleAttributeScorer::new(0);
        let r = tree.top_k(&ds, &scorer, 5, Window::new(0, 2));
        assert_eq!(r.items.len(), 3);
        assert_eq!(r.kth_score, f64::NEG_INFINITY);
        assert!(r.admits_score(-1e300));
    }

    #[test]
    fn window_clamps_beyond_coverage() {
        let ds = Dataset::from_rows(1, [[1.0], [2.0], [3.0]]);
        let tree = SkylineSegTree::build(&ds);
        let scorer = SingleAttributeScorer::new(0);
        let r = tree.top_k(&ds, &scorer, 1, Window::new(1, 500));
        assert_eq!(r.items, vec![(2, 3.0)]);
    }

    #[test]
    fn randomized_agreement_linear_2d() {
        let mut rng = StdRng::seed_from_u64(21);
        for trial in 0..20 {
            let n = rng.random_range(1..400);
            let ds = random_dataset(&mut rng, n, 2, 15);
            let leaf = *[1usize, 3, 8, 128].choose(&mut rng).expect("non-empty");
            let tree = SkylineSegTree::with_leaf_size(&ds, leaf);
            for _ in 0..10 {
                let a = rng.random_range(0..n as Time);
                let b = rng.random_range(0..n as Time);
                let w = Window::new(a.min(b), a.max(b));
                let k = rng.random_range(1..8);
                let u = vec![rng.random::<f64>(), rng.random::<f64>()];
                let scorer = LinearScorer::new(u);
                let fast = tree.top_k(&ds, &scorer, k, w);
                let slow = scan_top_k(&ds, &scorer, k, w);
                assert_eq!(fast, slow, "trial={trial} k={k} w={w}");
            }
        }
    }

    #[test]
    fn randomized_agreement_high_dim() {
        let mut rng = StdRng::seed_from_u64(22);
        for d in [3usize, 5, 8] {
            let n = 200;
            let ds = random_dataset(&mut rng, n, d, 10);
            let tree = SkylineSegTree::with_leaf_size(&ds, 16);
            for _ in 0..8 {
                let a = rng.random_range(0..n as Time);
                let b = rng.random_range(0..n as Time);
                let w = Window::new(a.min(b), a.max(b));
                let k = rng.random_range(1..6);
                let u: Vec<f64> = (0..d).map(|_| rng.random::<f64>()).collect();
                let scorer = LinearScorer::new(u);
                assert_eq!(tree.top_k(&ds, &scorer, k, w), scan_top_k(&ds, &scorer, k, w), "d={d}");
            }
        }
    }

    #[test]
    fn randomized_agreement_cosine() {
        let mut rng = StdRng::seed_from_u64(23);
        for trial in 0..10 {
            let n = rng.random_range(2..200);
            let ds = random_dataset(&mut rng, n, 3, 9);
            let tree = SkylineSegTree::with_leaf_size(&ds, 4);
            let mut u: Vec<f64> = (0..3).map(|_| rng.random::<f64>() * 2.0 - 0.5).collect();
            if u.iter().all(|&w| w == 0.0) {
                u[0] = 1.0;
            }
            let scorer = CosineScorer::new(u);
            for _ in 0..6 {
                let a = rng.random_range(0..n as Time);
                let b = rng.random_range(0..n as Time);
                let w = Window::new(a.min(b), a.max(b));
                let k = rng.random_range(1..5);
                let fast = tree.top_k(&ds, &scorer, k, w);
                let slow = scan_top_k(&ds, &scorer, k, w);
                assert_eq!(fast, slow, "trial={trial}");
            }
        }
    }

    #[test]
    fn monotone_combination_agreement() {
        let mut rng = StdRng::seed_from_u64(24);
        let ds = random_dataset(&mut rng, 300, 2, 50);
        let tree = SkylineSegTree::build(&ds);
        let scorer = MonotoneCombinationScorer::log1p(vec![0.7, 0.3]);
        for _ in 0..10 {
            let a = rng.random_range(0..300 as Time);
            let b = rng.random_range(0..300 as Time);
            let w = Window::new(a.min(b), a.max(b));
            assert_eq!(tree.top_k(&ds, &scorer, 3, w), scan_top_k(&ds, &scorer, 3, w));
        }
    }

    /// A scorer with no fingerprint, so the node-bound memo steps aside.
    struct Opaque(LinearScorer);

    impl Scorer for Opaque {
        fn score(&self, attrs: &[f64]) -> f64 {
            self.0.score(attrs)
        }

        fn is_monotone(&self) -> bool {
            true
        }
    }

    impl OracleScorer for Opaque {
        fn node_bound(&self, rows: TreeRows<'_>, node: &NodeSummary) -> f64 {
            self.0.node_bound(rows, node)
        }
    }

    /// `(id, score bits)` and the k-th score's bits: bit-identity.
    fn bits(r: &TopKResult) -> (Vec<(RecordId, u64)>, u64) {
        (r.items.iter().map(|&(id, s)| (id, s.to_bits())).collect(), r.kth_score.to_bits())
    }

    /// `rows` as a 3-attribute dataset.
    fn rows3(rows: &[Vec<u32>]) -> Dataset {
        Dataset::from_rows(3, rows.iter().map(|r| r.iter().map(|&v| v as f64).collect::<Vec<_>>()))
    }

    /// A split of `0..n` into adjacent `(lo, hi)` pieces: a first piece of
    /// any size, pieces starting at `cuts`, then the last `singles` records
    /// one by one.
    fn adjacent(n: Time, cuts: Vec<u32>, singles: u32) -> Vec<(Time, Time)> {
        let mut starts: Vec<Time> = cuts.into_iter().filter(|&c| c < n).collect();
        starts.extend(n.saturating_sub(singles).max(1)..n);
        starts.push(0);
        starts.sort_unstable();
        starts.dedup();
        let ends = starts.iter().skip(1).map(|&s| s - 1).chain([n - 1]).collect::<Vec<_>>();
        starts.into_iter().zip(ends).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Separately built trees over a random adjacent split of the
        /// dataset — so single-leaf operands of every size around the fuse
        /// bound occur — joined in either direction answer like a scan. The
        /// cosine scorer bounds nodes by `dim_min`/`dim_max`/`norm_*`, so
        /// the merged summaries are read whole, not just their skylines.
        #[test]
        fn joined_trees_answer_like_a_scan(
            rows in prop::collection::vec(prop::collection::vec(0u32..10, 3), 1..260),
            cuts in prop::collection::vec(1u32..260, 0..10),
            singles in 0u32..40,
            leaf_size in 1usize..10,
            right_to_left in prop::bool::ANY,
            probes in prop::collection::vec((1usize..7, 0u32..260, 0u32..260), 6..16),
        ) {
            let (n, ds) = (rows.len() as Time, rows3(&rows));
            let mut pieces: Vec<SkylineSegTree> = adjacent(n, cuts, singles)
                .into_iter()
                .map(|(lo, hi)| SkylineSegTree::build_over(&ds, lo, hi, leaf_size))
                .collect();
            let tree = if right_to_left {
                let last = pieces.pop().expect("at least one piece");
                pieces.into_iter().rev().fold(last, |acc, prev| SkylineSegTree::join(&ds, prev, acc))
            } else {
                let mut pieces = pieces.into_iter();
                let first = pieces.next().expect("at least one piece");
                pieces.fold(first, |acc, next| SkylineSegTree::join(&ds, acc, next))
            };
            prop_assert_eq!(tree.coverage(), Window::new(0, n - 1));
            let linear = LinearScorer::new(vec![0.5, 0.2, 0.3]);
            let cosine = CosineScorer::new(vec![1.0, -0.6, 0.4]);
            for (k, a, b) in probes {
                let w = Window::new(a.min(b), a.max(b));
                prop_assert_eq!(tree.top_k(&ds, &linear, k, w), scan_top_k(&ds, &linear, k, w));
                prop_assert_eq!(tree.top_k(&ds, &cosine, k, w), scan_top_k(&ds, &cosine, k, w));
            }
        }

        /// One search over adjacent parts — each tree built over its own
        /// chunk of rows, one-record chunks included, often more parts than
        /// memo slots so a probe evicts its own earlier parts' slots — with
        /// ids shifted so early parts get negative offsets, answers like a
        /// scan over the concatenation, through one reused scratch.
        #[test]
        fn one_search_over_adjacent_parts_answers_like_a_scan(
            rows in prop::collection::vec(prop::collection::vec(0u32..10, 3), 1..260),
            cuts in prop::collection::vec(1u32..260, 12..40),
            singles in 0u32..20,
            leaf_size in 1usize..10,
            base_frac in 0u32..100,
            probes in prop::collection::vec((1usize..7, 0u32..260, 0u32..260), 6..16),
        ) {
            let (n, ds) = (rows.len() as Time, rows3(&rows));
            let pieces = adjacent(n, cuts, singles);
            let chunks: Vec<Dataset> =
                pieces.iter().map(|&(lo, hi)| rows3(&rows[lo as usize..=hi as usize])).collect();
            let trees: Vec<SkylineSegTree> =
                chunks.iter().map(|c| SkylineSegTree::with_leaf_size(c, leaf_size)).collect();
            // The caller's id 0 is global record `base`.
            let base = n * base_frac / 100;
            let offset = |i: usize| i64::from(pieces[i].0) - i64::from(base);
            let part = |i: usize| Part { tree: &trees[i], rows: (&chunks[i]).into(), offset: offset(i) };
            let (linear, cosine) =
                (LinearScorer::new(vec![0.5, 0.2, 0.3]), CosineScorer::new(vec![1.0, -0.6, 0.4]));
            let (mut scratch, mut out) = (OracleScratch::new(), TopKResult::empty());
            for (k, a, b) in probes {
                let (a, b) = (a % (n - base), b % (n - base));
                let w = Window::new(a.min(b), a.max(b));
                let scan = |scorer: &dyn OracleScorer| {
                    let mut r = scan_top_k(&ds, scorer, k, Window::new(a.min(b) + base, a.max(b) + base));
                    r.items.iter_mut().for_each(|(id, _)| *id -= base);
                    r
                };
                top_k_over(trees.len(), part, &linear, k, w, f64::NEG_INFINITY, &mut scratch, &mut out);
                prop_assert_eq!(&out, &scan(&linear));
                top_k_over(trees.len(), part, &cosine, k, w, f64::NEG_INFINITY, &mut scratch, &mut out);
                prop_assert_eq!(&out, &scan(&cosine));
            }
        }

        /// A search floored at a record's score checks its durability like
        /// the full search: over adjacent parts of tie-heavy rows, under a
        /// linear scorer with a zero weight, a cosine scorer and a scorer
        /// with no fingerprint, with floors drawn from the window's records
        /// plus −∞, +∞ and NaN —
        ///
        /// * `out` is what the floor contract says: the records scoring at
        ///   least the floor when fewer than `k` do, else the full answer
        ///   bit for bit — so the verdict is the full search's;
        /// * no part opens more nodes than under the full search.
        #[test]
        fn a_floored_search_checks_durability_like_the_full_search(
            rows in prop::collection::vec(prop::collection::vec(0u32..4, 3), 1..260),
            cuts in prop::collection::vec(1u32..260, 0..12),
            singles in 0u32..10,
            leaf_size in 1usize..10,
            probes in prop::collection::vec((1usize..7, 0u32..260, 0u32..260, 0u32..400), 6..16),
        ) {
            let (n, ds) = (rows.len() as Time, rows3(&rows));
            let pieces = adjacent(n, cuts, singles);
            let chunks: Vec<Dataset> =
                pieces.iter().map(|&(lo, hi)| rows3(&rows[lo as usize..=hi as usize])).collect();
            let trees: Vec<SkylineSegTree> =
                chunks.iter().map(|c| SkylineSegTree::with_leaf_size(c, leaf_size)).collect();
            let part = |i: usize| Part { tree: &trees[i], rows: (&chunks[i]).into(), offset: i64::from(pieces[i].0) };
            let opened = || trees.iter().map(|t| t.counters().nodes_opened()).collect::<Vec<_>>();
            let (linear, cosine) =
                (LinearScorer::new(vec![1.0, 0.0, 0.5]), CosineScorer::new(vec![1.0, -0.6, 0.4]));
            let opaque = Opaque(LinearScorer::new(vec![0.0, 2.0, 1.0]));
            prop_assert_eq!(opaque.fingerprint(), None);
            let scorers: [&dyn OracleScorer; 3] = [&linear, &cosine, &opaque];
            let (mut scratch, mut full, mut floored) =
                (OracleScratch::new(), TopKResult::empty(), TopKResult::empty());
            for (k, a, b, pick) in probes {
                let w = Window::new((a % n).min(b % n), (a % n).max(b % n));
                let len = w.end() - w.start() + 1;
                for scorer in scorers {
                    let floor = match pick.checked_sub(len) {
                        None => scorer.score(ds.row(w.start() + pick)),
                        Some(0) => f64::NEG_INFINITY,
                        Some(1) => f64::INFINITY,
                        Some(_) => f64::NAN,
                    };
                    let before = opened();
                    top_k_over(trees.len(), part, scorer, k, w, f64::NEG_INFINITY, &mut scratch, &mut full);
                    let between = opened();
                    top_k_over(trees.len(), part, scorer, k, w, floor, &mut scratch, &mut floored);
                    let after = opened();
                    let at_floor = w.iter().filter(|&t| scorer.score(ds.row(t)) >= floor).count();
                    if at_floor < k && !floor.is_nan() {
                        let mut above = scan_top_k(&ds, scorer, at_floor.max(1), w);
                        above.items.retain(|&(_, s)| s >= floor);
                        above.kth_score = f64::NEG_INFINITY;
                        prop_assert_eq!(bits(&floored), bits(&above), "w={} k={} floor={}", w, k, floor);
                    } else {
                        prop_assert_eq!(bits(&floored), bits(&full), "w={} k={} floor={}", w, k, floor);
                    }
                    prop_assert_eq!(floored.admits_score(floor), full.admits_score(floor));
                    for p in 0..trees.len() {
                        let (with_floor, without) = (after[p] - between[p], between[p] - before[p]);
                        prop_assert!(with_floor <= without, "part {}: {} > {} nodes", p, with_floor, without);
                    }
                }
            }
        }

        /// A search given only the rows of the leaves a window touches
        /// answers exactly like one given every row: straddled leaves are
        /// bounded by their own skylines, and nothing outside them is read.
        #[test]
        fn a_search_reads_only_the_leaves_its_window_touches(
            rows in prop::collection::vec(prop::collection::vec(0u32..10, 3), 1..260),
            leaf_size in 1usize..10,
            probes in prop::collection::vec((1usize..7, 0u32..260, 0u32..260), 6..16),
        ) {
            let (n, ds) = (rows.len() as Time, rows3(&rows));
            let tree = SkylineSegTree::with_leaf_size(&ds, leaf_size);
            let (linear, cosine) =
                (LinearScorer::new(vec![0.5, 0.2, 0.3]), CosineScorer::new(vec![1.0, -0.6, 0.4]));
            for (k, a, b) in probes {
                let w = Window::new((a % n).min(b % n), (a % n).max(b % n));
                let span = tree.leaf_span(w).expect("w lies in the tree");
                prop_assert!(span.contains_window(w));
                let slack = 2 * (leaf_size as Time - 1);
                prop_assert!(span.end() - span.start() <= w.end() - w.start() + slack, "{:?} ⊄ leaves of {:?}", span, w);
                let leaves = rows3(&rows[span.start() as usize..=span.end() as usize]);
                let part = Part { tree: &tree, rows: TreeRows { rows: &leaves, first: span.start() }, offset: 0 };
                let (mut scratch, mut out) = (OracleScratch::new(), TopKResult::empty());
                top_k_over(1, |_| part, &linear, k, w, f64::NEG_INFINITY, &mut scratch, &mut out);
                prop_assert_eq!(&out, &tree.top_k(&ds, &linear, k, w));
                top_k_over(1, |_| part, &cosine, k, w, f64::NEG_INFINITY, &mut scratch, &mut out);
                prop_assert_eq!(&out, &tree.top_k(&ds, &cosine, k, w));
            }
        }
    }

    #[test]
    fn join_fuses_single_leaves_up_to_the_bound_and_stacks_the_rest() {
        let ds = Dataset::from_rows(1, (0..12).map(|i| [i as f64]));
        let single = |t: Time| SkylineSegTree::build_over(&ds, t, t, 8);
        assert_eq!(fuse_bound(8), 4);
        let pair = |t: Time| SkylineSegTree::join(&ds, single(t), single(t + 1));
        let four = SkylineSegTree::join(&ds, pair(0), pair(2));
        assert_eq!(four.nodes.len(), 1, "1 + 1 and 2 + 2 records fuse into one leaf");
        let eight = SkylineSegTree::join(&ds, four, SkylineSegTree::join(&ds, pair(4), pair(6)));
        assert_eq!(eight.nodes.len(), 3, "4 + 4 exceeds the bound: a root over two leaves");
        // A multi-node operand is never fused, however small the other is.
        let nine = SkylineSegTree::join(&ds, eight, single(8));
        assert_eq!((nine.nodes.len(), nine.coverage()), (5, Window::new(0, 8)));
        let root = &nine.nodes[ROOT as usize];
        assert_eq!((root.left, root.right), (1, 4), "operands keep their order behind the root");
        assert_eq!(nine.nodes[1].left, 2, "child slots moved with their nodes");
    }

    #[test]
    #[should_panic(expected = "adjacent ranges")]
    fn join_rejects_a_gap() {
        let ds = Dataset::from_rows(1, [[1.0], [2.0], [3.0]]);
        let tree = |t: Time| SkylineSegTree::build_over(&ds, t, t, 4);
        SkylineSegTree::join(&ds, tree(0), tree(2));
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let ds = Dataset::from_rows(1, [[1.0], [2.0], [3.0], [4.0]]);
        let tree = SkylineSegTree::with_leaf_size(&ds, 1);
        let scorer = SingleAttributeScorer::new(0);
        tree.top_k(&ds, &scorer, 1, Window::new(0, 3));
        tree.top_k(&ds, &scorer, 1, Window::new(0, 3));
        assert_eq!(tree.counters().queries(), 2);
        assert!(tree.counters().nodes_opened() > 0);
        tree.counters().reset();
        assert_eq!(tree.counters().queries(), 0);
    }

    /// Node 0's bound of a two-node `tree` under `fingerprint`, through a
    /// fresh binding.
    fn lookup(
        memo: &mut BoundMemo,
        tree: u64,
        fingerprint: Option<u64>,
        compute: impl FnOnce() -> f64,
    ) -> f64 {
        let binding = memo.bind(tree, 2, fingerprint);
        memo.get_or_compute(binding, 0, compute)
    }

    #[test]
    fn memo_bypasses_scorers_without_a_fingerprint() {
        let mut memo = BoundMemo::default();
        let mut calls = 0;
        for _ in 0..2 {
            let computed = lookup(&mut memo, 1, None, || {
                calls += 1;
                5.0
            });
            assert_eq!(computed, 5.0);
        }
        assert_eq!(calls, 2, "nothing to key on: every lookup computes");
        assert!(memo.slots.iter().all(|s| s.tree == 0), "and no slot is bound");
    }

    #[test]
    fn memo_evicts_the_least_recently_probed_pair() {
        let mut memo = BoundMemo::default();
        for tree in 1..=MEMO_SLOTS as u64 {
            lookup(&mut memo, tree, Some(9), || tree as f64);
        }
        // Touch tree 1 so tree 2 is the oldest, then bring in a newcomer.
        assert_eq!(lookup(&mut memo, 1, Some(9), || f64::NAN), 1.0);
        lookup(&mut memo, 99, Some(9), || 99.0);
        assert_eq!(lookup(&mut memo, 1, Some(9), || f64::NAN), 1.0, "kept");
        assert_eq!(lookup(&mut memo, 3, Some(9), || f64::NAN), 3.0, "kept");
        // Tree 2 lost its slot: its bound is computed again, never read
        // from whatever now occupies that slot.
        assert_eq!(lookup(&mut memo, 2, Some(9), || -2.0), -2.0);
        // The same tree under another scorer is another pair.
        assert_eq!(lookup(&mut memo, 1, Some(10), || 7.0), 7.0);
        assert_eq!(lookup(&mut memo, 1, Some(9), || f64::NAN), 1.0);
    }

    #[test]
    fn memo_survives_stamp_wrap_around() {
        let mut memo = BoundMemo::default();
        for tree in 1..=MEMO_SLOTS as u64 {
            lookup(&mut memo, tree, Some(9), || tree as f64);
        }
        assert_eq!((memo.slots[0].tree, memo.slots[0].stamp), (1, 1));
        // Exhaust the counter: the next rebind reuses slot 0 (the oldest)
        // and is handed stamp 1 again — the stamp slot 0's stale entry
        // still carries unless the wrap wiped it.
        memo.last_stamp = u32::MAX;
        assert_eq!(lookup(&mut memo, 77, Some(9), || 77.0), 77.0);
        assert_eq!((memo.slots[0].tree, memo.slots[0].stamp), (77, 1));
        // Everything bound before the wrap is forgotten, not misread.
        assert_eq!(lookup(&mut memo, 5, Some(9), || -5.0), -5.0);
        assert_eq!(lookup(&mut memo, 77, Some(9), || f64::NAN), 77.0);
    }

    #[test]
    fn rebuilt_and_joined_trees_get_fresh_ids() {
        let ds = Dataset::from_rows(1, [[1.0], [2.0], [3.0]]);
        let a = SkylineSegTree::build_over(&ds, 0, 1, 2);
        let b = SkylineSegTree::build_over(&ds, 0, 1, 2);
        let c = SkylineSegTree::build_over(&ds, 2, 2, 2);
        let (a_id, b_id, c_id) = (a.id, b.id, c.id);
        let joined = SkylineSegTree::join(&ds, a, c);
        let ids = [a_id, b_id, c_id, joined.id];
        assert!(ids
            .iter()
            .all(|&id| id != 0 && ids.iter().filter(|&&other| other == id).count() == 1));
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let ds = Dataset::from_rows(1, [[1.0]]);
        let tree = SkylineSegTree::build(&ds);
        tree.top_k(&ds, &SingleAttributeScorer::new(0), 0, Window::new(0, 0));
    }
}
