//! The probe kernel's two invisibility guarantees.
//!
//! [`OracleScratch`] memoizes node bounds across probes, the best-first
//! search leaves hopeless children off its frontier, and `finalize` selects
//! before it sorts. None of that may be observable:
//!
//! * one scratch reused across any interleaving of trees, scorers and `k`
//!   answers every probe bit-identically to a fresh scratch, with the same
//!   `nodes_opened` / `records_scanned`;
//! * the search opens and scans exactly what it did before any of it
//!   existed — the counts below were recorded at the commit preceding the
//!   memo and the pruning, over inputs that depend on nothing but this file.

use durable_topk::{Algorithm, DurableQuery, QueryStats};
use durable_topk_index::{
    top_k_over, AppendableTopKIndex, NodeSummary, OracleScorer, OracleScratch, Part, QueryCounters,
    SkylineSegTree, TopKResult, TreeRows,
};
use durable_topk_temporal::{CosineScorer, Dataset, LinearScorer, Scorer, Time, Window};
use durable_topk_tests::flat;
use proptest::prelude::*;

/// A scorer with no structural fingerprint: the memo must step aside.
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

/// `(id, score bits)` — equality on this is bit-identity, `-0.0` included.
fn bits(r: &TopKResult) -> (Vec<(u32, u64)>, u64) {
    (r.items.iter().map(|&(id, s)| (id, s.to_bits())).collect(), r.kth_score.to_bits())
}

/// What one probe target exposes to the comparison.
enum Target<'a> {
    Tree(&'a SkylineSegTree, &'a Dataset),
    Forest(&'a AppendableTopKIndex, &'a Dataset),
}

impl Target<'_> {
    fn probe<S: OracleScorer + ?Sized>(
        &self,
        scorer: &S,
        k: usize,
        w: Window,
        scratch: &mut OracleScratch,
        out: &mut TopKResult,
    ) {
        match self {
            Target::Tree(tree, ds) => tree.top_k_with(ds, scorer, k, w, scratch, out),
            Target::Forest(forest, ds) => forest.top_k_with(ds, scorer, k, w, scratch, out),
        }
    }

    /// `(nodes_opened, records_scanned)` so far; a forest's trees come and
    /// go, so only single trees report.
    fn work(&self) -> Option<(u64, u64)> {
        match self {
            Target::Tree(tree, _) => {
                Some((tree.counters().nodes_opened(), tree.counters().records_scanned()))
            }
            Target::Forest(..) => None,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two sealed trees, twenty small ones (so more trees than the memo has
    /// slots share the scratch) and a forest that keeps appending and
    /// joining, probed in random order under two linear scorers, a cosine
    /// scorer and an opaque one.
    #[test]
    fn reused_scratch_answers_like_a_fresh_one(
        rows in prop::collection::vec(prop::collection::vec(0u32..12, 3), 200..320),
        ops in prop::collection::vec(
            (0usize..6, 0usize..4, 1usize..9, 0u32..320, 0u32..320, 0usize..4),
            60..140,
        ),
    ) {
        let row = |r: &Vec<u32>| r.iter().map(|&v| v as f64).collect::<Vec<f64>>();
        let ds_a = Dataset::from_rows(3, rows[..120].iter().map(row));
        let ds_b = Dataset::from_rows(3, rows[60..200].iter().map(row));
        let tree_a = SkylineSegTree::with_leaf_size(&ds_a, 4);
        let tree_b = SkylineSegTree::with_leaf_size(&ds_b, 8);
        // Separately built trees over staggered 10-record blocks: every
        // one is its own memo identity, and 20 of them outnumber the
        // memo's 16 slots.
        let small: Vec<SkylineSegTree> =
            (0..20).map(|i| SkylineSegTree::build_over(&ds_a, i * 5, i * 5 + 9, 2)).collect();
        let mut grown = Dataset::from_rows(3, rows[..20].iter().map(row));
        let mut forest = AppendableTopKIndex::build(&grown, 2);
        for r in &rows[20..100] {
            grown.push(&row(r));
            forest.append(&grown);
        }
        let mut next_row = 100;

        let linear_a = LinearScorer::new(vec![0.7, 0.2, 0.1]);
        let linear_b = LinearScorer::new(vec![0.1, 0.1, 0.8]);
        let cosine = CosineScorer::new(vec![1.0, -0.5, 0.3]);
        let opaque = Opaque(LinearScorer::new(vec![0.3, 0.3, 0.4]));
        prop_assert_eq!(opaque.fingerprint(), None);

        let mut reused = OracleScratch::new();
        let (mut got, mut want) = (TopKResult::empty(), TopKResult::empty());
        for (step, &(target, scorer, k, a, b, appends)) in ops.iter().enumerate() {
            for _ in 0..appends {
                if next_row < rows.len() {
                    grown.push(&row(&rows[next_row]));
                    forest.append(&grown);
                    next_row += 1;
                }
            }
            let target = match target {
                0 => Target::Tree(&tree_a, &ds_a),
                1 => Target::Tree(&tree_b, &ds_b),
                2 | 3 => Target::Tree(&small[(a as usize + step) % small.len()], &ds_a),
                _ => Target::Forest(&forest, &grown),
            };
            let w = Window::new(a.min(b), a.max(b));
            let run = |scratch: &mut OracleScratch, out: &mut TopKResult| {
                let before = target.work();
                match scorer {
                    0 => target.probe(&linear_a, k, w, scratch, out),
                    1 => target.probe(&linear_b, k, w, scratch, out),
                    2 => target.probe(&cosine, k, w, scratch, out),
                    _ => target.probe(&opaque, k, w, scratch, out),
                }
                before.zip(target.work()).map(|(b, a)| (a.0 - b.0, a.1 - b.1))
            };
            let work_reused = run(&mut reused, &mut got);
            let work_fresh = run(&mut OracleScratch::new(), &mut want);
            prop_assert_eq!(bits(&got), bits(&want), "step {} w={} k={}", step, w, k);
            prop_assert_eq!(work_reused, work_fresh, "step {}: the memo changed the search", step);
        }
    }
}

/// Deterministic 3-attribute rows with plenty of score ties.
fn pinned_dataset(n: u32) -> Dataset {
    Dataset::from_rows(
        3,
        (0..n).map(|i| [((i * 37) % 101) as f64, ((i * 73) % 97) as f64, ((i * 11) % 13) as f64]),
    )
}

#[test]
fn search_work_is_what_it_was_before_memo_and_pruning() {
    let ds = pinned_dataset(6_000);
    let tree = SkylineSegTree::with_leaf_size(&ds, 16);
    let mut scratch = OracleScratch::new();
    let mut out = TopKResult::empty();
    let mut returned = 0usize;
    for i in 0..400u32 {
        // Every 8 probes share a preference and slide their window back by
        // one (T-Hop's pattern); then the preference changes.
        let u = (i / 8) as f64;
        let scorer = LinearScorer::new(vec![1.0 + u % 5.0, 2.0 + u % 3.0, 0.5 + u % 7.0]);
        let end: Time = 5_999 - (i * 13) % 4_000 - i % 8;
        let k = 1 + (i as usize / 8) % 12;
        tree.top_k_with(&ds, &scorer, k, Window::lookback(end, 600), &mut scratch, &mut out);
        returned += out.items.len();
    }
    let cosine = CosineScorer::new(vec![0.2, 1.0, -0.4]);
    for i in 0..100u32 {
        let end: Time = 5_999 - (i * 31) % 5_000;
        tree.top_k_with(&ds, &cosine, 5, Window::lookback(end, 900), &mut scratch, &mut out);
        returned += out.items.len();
    }
    let c = tree.counters();
    assert_eq!(
        (c.queries(), c.nodes_opened(), c.records_scanned(), returned),
        (500, 23_485, 117_878, 3_051),
        "(queries, nodes_opened, records_scanned, returned items)"
    );
}

#[test]
fn algorithm_counts_are_what_they_were_before_memo_and_pruning() {
    let engine = flat(&pinned_dataset(4_000), Some(8));
    let scorer = LinearScorer::new(vec![0.5, 0.3, 0.2]);
    let q = DurableQuery { k: 4, tau: 300, interval: Window::new(500, 3_999) };
    let counts = |s: &QueryStats| {
        assert!(s.fallback.is_none());
        assert_eq!((s.cold_page_hits, s.cache_hits, s.cache_misses), (0, 0, 0));
        (s.durability_checks, s.refill_queries, s.candidates, s.blocked_skips)
    };
    let mut records = None;
    let got = Algorithm::ALL.map(|alg| {
        let r = engine.query(alg, &scorer, &q);
        assert_eq!(records.get_or_insert_with(|| r.records.clone()), &r.records, "{alg}");
        (alg, counts(&r.stats))
    });
    let expected = [
        (Algorithm::TBase, (0, 50, 3_500, 0)),
        (Algorithm::THop, (111, 0, 111, 0)),
        (Algorithm::SBase, (0, 0, 3_800, 3_451)),
        // Strict dominance (better in every attribute) keeps 240 more
        // candidates on these tie-heavy rows than footnote-4 dominance
        // did: (51, 0, 542, 491) before.
        (Algorithm::SBand, (51, 0, 782, 731)),
        (Algorithm::SHop, (51, 114, 300, 249)),
        (Algorithm::SHopTop1, (51, 177, 300, 249)),
    ];
    assert_eq!(got, expected, "(durability_checks, refill_queries, candidates, blocked_skips)");
    assert_eq!(records.map(|r| r.len()), Some(49));
}

/// Integer rows in `0..4` (so many nodes share a bound and many records a
/// score) split into three adjacent trees of uneven size and leaf width,
/// searched as one window through `top_k_over` at several `k` and floors.
/// The counts pin the traversal itself: a faster search must open the
/// same nodes and scan the same records, ties and floors included.
#[test]
fn search_work_under_ties_parts_and_floors_is_pinned() {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        ((state >> 33) % 4) as f64
    };
    let sizes = [700u32, 1_100, 900];
    let leaves = [8usize, 16, 5];
    let data: Vec<Dataset> = sizes
        .iter()
        .map(|&n| Dataset::from_rows(3, (0..n).map(|_| [next(), next(), next()])))
        .collect();
    let trees: Vec<SkylineSegTree> = data
        .iter()
        .zip(leaves)
        .map(|(ds, leaf)| SkylineSegTree::with_leaf_size(ds, leaf))
        .collect();
    let offsets = [0i64, 700, 1_800];
    let part = |i: usize| Part { tree: &trees[i], rows: (&data[i]).into(), offset: offsets[i] };
    let row_of = |id: u32| {
        let i = offsets.iter().rposition(|&o| i64::from(id) >= o).unwrap();
        data[i].row((i64::from(id) - offsets[i]) as u32)
    };

    // Skyline bounds are exact; the cosine scorer's box bounds are loose,
    // so only it notices a search that opens a child out of turn.
    let (even, skewed, zero_weight) = (
        LinearScorer::new(vec![1.0, 1.0, 1.0]),
        LinearScorer::new(vec![2.0, 0.0, 1.0]),
        LinearScorer::new(vec![0.5, 0.25, 0.0]),
    );
    let cosine = CosineScorer::new(vec![1.0, -0.5, 0.25]);
    let scorers: [&dyn OracleScorer; 4] = [&even, &skewed, &zero_weight, &cosine];
    let mut scratch = OracleScratch::new();
    let mut out = TopKResult::empty();
    let mut returned = 0usize;
    for i in 0..120u32 {
        let scorer = scorers[i as usize % scorers.len()];
        let k = [1, 5, 20][(i / 3) as usize % 3];
        // Windows of 40..1 400 records ending anywhere: some inside one
        // tree, some across two, some across all three.
        let end: Time = 2_699 - (i * 211) % 2_500;
        let w = Window::lookback(end, 40 + (i * 97) % 1_360);
        let own = scorer.score(row_of(end));
        for floor in [f64::NEG_INFINITY, f64::NAN, own] {
            top_k_over(3, part, scorer, k, w, floor, &mut scratch, &mut out);
            returned += out.items.len();
        }
    }
    let sum = |f: fn(&QueryCounters) -> u64| trees.iter().map(|t| f(t.counters())).sum::<u64>();
    assert_eq!(
        (
            sum(QueryCounters::queries),
            sum(QueryCounters::nodes_opened),
            sum(QueryCounters::records_scanned),
            returned
        ),
        (564, 43_353, 106_122, 10_956),
        "(queries, nodes_opened, records_scanned, returned items)"
    );
}
