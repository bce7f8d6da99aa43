//! Standing-query subscriptions against the model in
//! `durable_topk_tests::model`: a subscription registered at any point of
//! the stream holds, after every later step, exactly the brute-force
//! answer over its interval, while the stream crosses seals and the
//! storage tier spills. The incremental path (bounded per-arrival probes,
//! skyband-gated fast-path skips, seal-boundary verifications) must be
//! observationally absent: only its counters may show it ran.

use durable_topk::Algorithm;
use durable_topk_index::DEFAULT_LEAF_SIZE;
use durable_topk_tests::model::{check, check_ops, Ask, DoorKind, Front, Op, Pref, Setup};

/// Plain and verified, tail and fixed-interval subscriptions on a serving
/// engine, paged or not, polled and drained after every step.
#[test]
fn standing_results_match_recompute_at_every_prefix() {
    let exercised = [
        "standing answers across two seals and a spill",
        "fast-path skips",
        "a delta drained",
        "an unsubscribe",
    ];
    check("standing_results_match_recompute", 16, &[Front::Serve], |_, _| {}, &exercised);
}

/// A standing query whose scorer ignores attribute 1, over integer rows
/// where ties are everywhere: the skyband gate counts only dominators
/// better in every attribute, so it never skips an arrival that a
/// dominator merely ties, and still skips the ones a strict dominator
/// beats.
#[test]
fn a_zero_weight_subscription_on_tied_integers_misses_nothing() {
    let mut ops: Vec<Op> = (0u64..400)
        .map(|i| {
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            Op::Append([(h % 8) as f64, ((h / 8) % 8) as f64])
        })
        .collect();
    // τ 20, from the start on.
    let ask = Ask { alg: Algorithm::THop, pref: Pref::ZeroWeight, k: 2, tau: 19, at: 0, len: 0 };
    ops.insert(1, Op::Subscribe { ask, tail: true, verified: true });
    let setup = Setup {
        span: 64,
        max_tau: 24,
        leaf: DEFAULT_LEAF_SIZE,
        k_max: 4,
        paged: false,
        cache: None,
        door: DoorKind::Serve,
    };
    check_ops(&setup, &ops, &["fast-path skips"]);
}
