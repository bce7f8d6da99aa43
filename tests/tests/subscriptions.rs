//! Standing-query subscriptions vs the full-recompute oracle.
//!
//! The acceptance gate for the subscription layer: a subscription
//! registered at an arbitrary point of the stream must hold, at **every**
//! later prefix, exactly the records a full `try_query` recompute over
//! its interval yields — bit-identical, with zero unexpected fallbacks —
//! while the stream crosses seal boundaries and the storage tier spills
//! sealed chunks to disk. The incremental path (bounded per-arrival
//! probes, skyband-gated fast-path skips, seal-boundary verifications)
//! must be *observationally absent*: only its counters may show it ran.

use durable_topk::{
    Algorithm, Backpressure, DurableQuery, EngineConfig, PagedStorage, ScorerSpec, ServeEngine,
    ServeRequest, SubscriptionId, Window,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;

/// One randomized standing query, registered mid-stream.
#[derive(Debug, Clone)]
struct SubSpec {
    k: usize,
    tau_raw: u32,
    start_raw: u32,
    /// Which prefix length triggers registration.
    register_at: usize,
    /// 0: a linear scorer; 1: the non-monotone cosine scorer (gate must
    /// stand down, results must still match); 2: a linear scorer ignoring
    /// attribute 1, under which a skyband dominator may tie (the gate must
    /// still never skip a durable arrival).
    scorer: usize,
    /// Tail-follow (`end = u32::MAX`) instead of a fixed interval.
    tail: bool,
}

fn sub_strategy() -> impl Strategy<Value = SubSpec> {
    (1usize..=4, 0u32..10_000, 0u32..10_000, 0usize..96, 0usize..3, prop::bool::ANY).prop_map(
        |(k, tau_raw, start_raw, register_at, scorer, tail)| SubSpec {
            k,
            tau_raw,
            start_raw,
            register_at,
            scorer,
            tail,
        },
    )
}

fn rows_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0u32..8, 2), 48..96).prop_map(|rows| {
        rows.into_iter().map(|r| r.into_iter().map(|v| v as f64).collect()).collect()
    })
}

const MAX_TAU: u32 = 24;
const SPAN: usize = 16;

/// Materializes a spec against the stream length it registers at.
fn materialize(spec: &SubSpec, n_total: usize) -> ServeRequest {
    let start = spec.start_raw % (n_total as u32);
    let end = if spec.tail { u32::MAX } else { start.saturating_add(1 + spec.tau_raw % 64) };
    ServeRequest {
        alg: Algorithm::THop,
        query: DurableQuery {
            k: spec.k,
            tau: 1 + spec.tau_raw % MAX_TAU,
            interval: Window::new(start, end),
        },
        scorer: match spec.scorer {
            0 => ScorerSpec::Linear(vec![0.6, 0.4]),
            1 => ScorerSpec::Cosine(vec![0.7, 0.3]),
            _ => ScorerSpec::Linear(vec![1.0, 0.0]),
        },
    }
}

/// The full-recompute oracle for one subscription at prefix length `len`.
fn recompute(
    serving: &ServeEngine,
    req: &ServeRequest,
    len: usize,
) -> Result<Option<Vec<u32>>, TestCaseError> {
    let q = &req.query;
    if len == 0 || (q.interval.start() as usize) >= len {
        return Ok(Some(Vec::new()));
    }
    let full = DurableQuery {
        k: q.k,
        tau: q.tau,
        interval: Window::new(q.interval.start(), q.interval.end().min((len - 1) as u32)),
    };
    let engine = serving.engine();
    let scorer: Box<dyn durable_topk::OracleScorer + Sync> = match &req.scorer {
        ScorerSpec::Cosine(u) => Box::new(durable_topk::CosineScorer::new(u.clone())),
        ScorerSpec::Linear(u) => Box::new(durable_topk::LinearScorer::new(u.clone())),
        other => return Err(TestCaseError::fail(format!("unexpected scorer {other:?}"))),
    };
    let result = engine.try_query(req.alg, scorer.as_ref(), &full);
    let result = match result {
        Ok(r) => r,
        Err(e) => return Err(TestCaseError::fail(format!("recompute failed: {e}"))),
    };
    prop_assert_eq!(result.stats.fallback, None, "recompute must not fall back");
    Ok(Some(result.records))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Subscriptions registered mid-stream hold exactly the full-recompute
    /// answer at every prefix, across ≥ 2 seal boundaries and ≥ 1 paged
    /// spill, with no divergence flagged and no fallback anywhere.
    #[test]
    fn standing_results_match_recompute_at_every_prefix(
        rows in rows_strategy(),
        subs in prop::collection::vec(sub_strategy(), 1..=4),
    ) {
        let n = rows.len();
        let storage = PagedStorage::with_temp_file(1).expect("temp spill file");
        let engine = EngineConfig::new(2, SPAN, MAX_TAU)
            .leaf_size(8)
            .skyband_bound(4)
            .storage(Arc::new(storage))
            .build()
            .expect("live config");
        let serving = ServeEngine::new(engine, 16, Backpressure::Block);

        let mut registered: Vec<(SubscriptionId, ServeRequest)> = Vec::new();
        for (id, row) in rows.iter().enumerate() {
            // Register every subscription whose time has come — *before*
            // this append, so the arrival itself already flows through
            // the incremental path.
            for spec in subs.iter().filter(|s| s.register_at % n == id) {
                let req = materialize(spec, id.max(1));
                let sid = match serving.subscribe_verified(req.clone()) {
                    Ok(sid) => sid,
                    Err(e) => return Err(TestCaseError::fail(format!("register: {e}"))),
                };
                registered.push((sid, req));
            }
            serving.append(row).map_err(|e| TestCaseError::fail(format!("append: {e}")))?;
            // `append` returned with every subscription current: compare
            // against the oracle at this exact prefix.
            for (sid, req) in &registered {
                let snap = serving.poll_subscription(*sid).expect("registered");
                prop_assert!(!snap.diverged, "prefix {}: diverged req={:?}", id + 1, req);
                let expected = recompute(&serving, req, id + 1)?.expect("non-empty prefix");
                prop_assert_eq!(
                    &snap.records, &expected,
                    "prefix {}: incremental != recompute, req={:?}", id + 1, req
                );
            }
        }

        // The run actually exercised what it claims: seal crossings and
        // cold storage underneath the incremental path.
        let engine = serving.engine();
        prop_assert!(engine.sealed_shards() >= 2, "must cross at least two seal boundaries");
        prop_assert!(
            engine.storage().stats().spilled_chunks >= 1,
            "must spill at least one sealed chunk"
        );
        drop(engine);
        serving.shutdown();
    }
}

/// A standing query whose scorer ignores attribute 1, over integer rows
/// where ties are everywhere: the skyband gate counts only dominators
/// better in every attribute, so it never skips an arrival that a
/// dominator merely ties, and the standing answer stays the recompute's.
#[test]
fn a_zero_weight_subscription_on_tied_integers_misses_nothing() {
    let rows: Vec<[f64; 2]> = (0u64..400)
        .map(|i| {
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            [(h % 8) as f64, ((h / 8) % 8) as f64]
        })
        .collect();
    let engine = EngineConfig::new(2, 64, MAX_TAU).skyband_bound(4).build().expect("live config");
    let serving = ServeEngine::new(engine, 16, Backpressure::Block);
    let req = ServeRequest {
        alg: Algorithm::THop,
        query: DurableQuery { k: 2, tau: 20, interval: Window::new(0, u32::MAX) },
        scorer: ScorerSpec::Linear(vec![1.0, 0.0]),
    };
    serving.append(&rows[0]).expect("append");
    let sid = serving.subscribe_verified(req.clone()).expect("register");
    for row in &rows[1..] {
        serving.append(row).expect("append");
    }
    let snap = serving.poll_subscription(sid).expect("registered");
    assert!(!snap.diverged);
    let scorer = durable_topk::LinearScorer::new(vec![1.0, 0.0]);
    let full = DurableQuery { interval: Window::new(0, 399), ..req.query };
    let expected = serving.engine().try_query(Algorithm::THop, &scorer, &full).expect("query");
    assert_eq!(snap.records, expected.records);
    assert!(snap.fast_path_skips > 0, "the gate still skips arrivals a strict dominator beats");
    serving.shutdown();
}
