//! Sealed-shard result cache exactness: cache-on ≡ cache-off.
//!
//! The result cache memoizes full-range answers of immutable sealed tails,
//! keyed on `(shard start, algorithm, scorer fingerprint, k, τ)`.
//! Correctness rests on two invariants: a cached answer must be
//! **bit-identical** to a recomputation, and no entry may answer for
//! another shard or another scorer. These tests drive the edges (opaque
//! scorers, a starved budget, forged weights, the serve counters);
//! the model in `durable_topk_tests::model` runs cache-on engines, paged
//! ones too, against brute force at every prefix.

use durable_topk::{
    Algorithm, Backpressure, DurableQuery, EngineConfig, LinearScorer, Scorer, ScorerSpec,
    ServeEngine, ServeRequest, Window,
};
use durable_topk_index::{NodeSummary, OracleScorer, TreeRows};
use durable_topk_temporal::Dataset;
use durable_topk_tests::model::{check, Op, Setup, EVERY_DOOR};

/// A deterministic dataset for the unit-style tests.
fn fixed_dataset(n: usize) -> Dataset {
    Dataset::from_rows(
        2,
        (0..n).map(|i| {
            let x = ((i * 37) % 23) as f64;
            [x, 23.0 - x]
        }),
    )
}

/// A scorer with no structural fingerprint: scores exactly like the wrapped
/// linear scorer but reports `None`, so the cache must bypass it entirely.
#[derive(Debug)]
struct OpaqueScorer(LinearScorer);

impl Scorer for OpaqueScorer {
    fn score(&self, attrs: &[f64]) -> f64 {
        self.0.score(attrs)
    }

    fn is_monotone(&self) -> bool {
        self.0.is_monotone()
    }
}

impl OracleScorer for OpaqueScorer {
    fn node_bound(&self, rows: TreeRows<'_>, node: &NodeSummary) -> f64 {
        self.0.node_bound(rows, node)
    }
    // fingerprint() deliberately left at the default `None`.
}

/// Opaque scorers (no structural fingerprint) bypass the cache entirely:
/// no hits, no misses, and answers identical to the fingerprinted scorer
/// they wrap.
#[test]
fn opaque_scorers_bypass_the_cache() {
    let ds = fixed_dataset(96);
    let linear = LinearScorer::new(vec![0.7, 0.3]);
    let opaque = OpaqueScorer(linear.clone());
    assert_eq!(opaque.fingerprint(), None);

    let mut engine =
        EngineConfig::new(2, 16, 8).result_cache(1 << 20).build().expect("cached config");
    for id in 0..ds.len() as u32 {
        engine.append(ds.row(id));
    }

    let q = DurableQuery { k: 2, tau: 6, interval: Window::new(0, ds.len() as u32 - 1) };
    let want = engine.query(Algorithm::SHop, &linear, &q);
    let baseline = engine.result_cache().expect("cache").stats();
    for _ in 0..3 {
        let got = engine.query(Algorithm::SHop, &opaque, &q);
        assert_eq!(got.records, want.records);
    }
    let after = engine.result_cache().expect("cache").stats();
    assert_eq!(after.hits, baseline.hits, "bypass must not count hits");
    assert_eq!(after.misses, baseline.misses, "bypass must not count misses");
}

/// A starved byte budget evicts old entries instead of growing without
/// bound — and evictions never compromise exactness.
#[test]
fn byte_budget_evicts_under_pressure_without_losing_exactness() {
    let ds = fixed_dataset(128);
    let scorer = LinearScorer::new(vec![0.5, 0.5]);
    let budget = 8 * 1024;
    let mut plain = EngineConfig::new(2, 16, 12).build().expect("plain config");
    let mut tiny =
        EngineConfig::new(2, 16, 12).result_cache(budget).build().expect("tiny cache config");
    for id in 0..ds.len() as u32 {
        plain.append(ds.row(id));
        tiny.append(ds.row(id));
    }

    // A wide parameter sweep mints far more distinct cache keys than the
    // budget can hold resident.
    for round in 0..3 {
        for k in 1..6usize {
            for tau in 1..12u32 {
                let q = DurableQuery { k, tau, interval: Window::new(0, ds.len() as u32 - 1) };
                for alg in [Algorithm::TBase, Algorithm::THop, Algorithm::SHop] {
                    let want = plain.query(alg, &scorer, &q);
                    let got = tiny.query(alg, &scorer, &q);
                    assert_eq!(
                        got.records, want.records,
                        "eviction broke exactness (round={round} alg={alg} q={q:?})"
                    );
                }
            }
        }
    }
    let stats = tiny.result_cache().expect("cache").stats();
    assert!(stats.evictions > 0, "the sweep must overflow the budget ({stats:?})");
    assert!(
        stats.resident_bytes <= budget as u64,
        "resident bytes must respect the budget ({stats:?})"
    );
}

/// The serve layer surfaces cache counters: per-request stats flow back
/// through the response handle, and `ServeStats` aggregates the engine's
/// live cache totals.
#[test]
fn serve_stats_surface_cache_counters() {
    let ds = fixed_dataset(96);
    let mut engine =
        EngineConfig::new(2, 16, 8).result_cache(1 << 20).build().expect("live engine");
    for id in 0..ds.len() as u32 {
        engine.append(ds.row(id));
    }
    let serving = ServeEngine::new(engine, 16, Backpressure::Block);

    let req = ServeRequest {
        alg: Algorithm::THop,
        query: DurableQuery { k: 2, tau: 5, interval: Window::new(0, ds.len() as u32 - 1) },
        scorer: ScorerSpec::Uniform,
    };
    let mut responses = Vec::new();
    for _ in 0..3 {
        let handle = serving.submit(req.clone()).expect("submit");
        responses.push(handle.wait().expect("response"));
    }
    let stats = serving.stats();
    serving.shutdown();

    assert!(responses.windows(2).all(|w| w[0].records == w[1].records));
    assert!(stats.cache_misses > 0, "first request must populate ({stats:?})");
    assert!(stats.cache_hits > 0, "repeats must hit ({stats:?})");
    assert!(stats.cache_bytes > 0, "populated cache must report resident bytes ({stats:?})");
    // Per-request stats carry the split too: across the three identical
    // requests both counters must show up.
    let per_request_hits: u64 = responses.iter().map(|r| r.stats.cache_hits).sum();
    let per_request_misses: u64 = responses.iter().map(|r| r.stats.cache_misses).sum();
    assert!(per_request_hits > 0, "response stats must report hits");
    assert!(per_request_misses > 0, "response stats must report misses");
}

/// Order-sensitive FNV-1a over 64-bit words: family tag 1 (linear), then
/// each weight's bits — an unkeyed scorer print, which anyone can solve.
fn fnv_linear(weights: &[f64]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = (0xcbf2_9ce4_8422_2325u64 ^ 1).wrapping_mul(PRIME);
    for w in weights {
        h = (h ^ w.to_bits()).wrapping_mul(PRIME);
    }
    h
}

/// A client cannot choose its weights to alias another client's scorer.
/// Under an unkeyed FNV-1a print it could: multiplying by the odd prime is
/// invertible mod 2⁶⁴, so the second weight's bits solve from the first.
/// Both scorers, served one after the other through a result-cached
/// engine, get exactly their uncached answers — which differ.
#[test]
fn a_solved_weight_vector_does_not_alias_another_scorer() {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    // The prime's inverse mod 2⁶⁴ by Newton's iteration: each step
    // doubles the correct low bits, from 3 (an odd number is its own
    // inverse mod 8).
    let inverse =
        (0..5).fold(PRIME, |x, _| x.wrapping_mul(2u64.wrapping_sub(PRIME.wrapping_mul(x))));
    assert_eq!(PRIME.wrapping_mul(inverse), 1);
    let victim = [0.6, 0.4];
    let target = fnv_linear(&victim);
    // The state after the tag, before the first weight.
    let h0 = fnv_linear(&[]);
    let forged = (1..10_000)
        .map(|i| f64::from(i) / 1_000.0)
        .find_map(|w0: f64| {
            let h1 = (h0 ^ w0.to_bits()).wrapping_mul(PRIME);
            let w1 = f64::from_bits(target.wrapping_mul(inverse) ^ h1);
            (w1.is_finite() && w1 >= 0.0).then_some([w0, w1])
        })
        .expect("a first weight whose solved second weight is a valid weight");
    assert_eq!(fnv_linear(&forged), target, "the forged vector aliases under FNV-1a");

    let ds = fixed_dataset(400);
    let plain = EngineConfig::new(2, 1, 50).build_from(&ds, 4).expect("build");
    let cached =
        EngineConfig::new(2, 1, 50).result_cache(1 << 20).build_from(&ds, 4).expect("build");
    let q = DurableQuery { k: 3, tau: 20, interval: Window::new(0, 399) };
    let mut answers = Vec::new();
    for weights in [victim, forged, victim, forged] {
        let scorer = LinearScorer::new(weights.to_vec());
        let want = plain.query(Algorithm::THop, &scorer, &q).records;
        let got = cached.query(Algorithm::THop, &scorer, &q).records;
        assert_eq!(got, want, "weights {weights:?}");
        answers.push(want);
    }
    assert_ne!(answers[0], answers[1], "the two scorers answer differently");
}

/// Cache-on engines, roomy or evicting, paged or not, behind every door,
/// answer like brute force with the expected fallback at every prefix.
#[test]
fn cached_engine_matches_uncached_at_every_prefix() {
    let cached = |s: &mut Setup, _: &mut [Op]| {
        s.cache.get_or_insert(1 << 20);
    };
    let exercised = ["cache hits across two seals and a spill", "cache evictions"];
    check("cached_engine_matches_uncached", 16, &EVERY_DOOR, cached, &exercised);
}
