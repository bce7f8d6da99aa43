//! Concurrency-invariant checker integration: the ranked lock tracking of
//! `durable_topk_check` exercised through the public serving surface.
//!
//! Two properties gate the checker tentpole:
//!
//! 1. **Inversions are caught, with a witness** — an intentionally
//!    inverted acquisition (subscription registry before the engine, the
//!    reverse of the workspace hierarchy) panics in debug builds, and the
//!    report quotes the witness path: both threads and both held-stack
//!    snapshots that close the cycle.
//! 2. **The real system is inversion-free under perturbation** — a mixed
//!    ingest + serve + subscribe + cache workload driven with seeded
//!    yield injection at every tracked acquisition completes deadlock-free
//!    with zero fallbacks, across several seeds (each seed walks the
//!    schedule through a different interleaving).

use durable_topk::check::{self, LockClass, TrackedMutex};
use durable_topk::{
    Algorithm, Backpressure, DurableQuery, EngineConfig, ScorerSpec, ServeEngine, ServeRequest,
    Window,
};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

fn row(i: usize) -> [f64; 2] {
    [((i * 37) % 101) as f64, ((i * 73) % 97) as f64]
}

/// The workspace hierarchy says engine (rank 10) before registry
/// (rank 20). Acquiring them inverted must panic — and the report must
/// name both threads of the witness cycle, so the diagnosis never
/// requires reproducing the deadlock itself.
#[test]
#[cfg_attr(not(debug_assertions), ignore = "lock tracking is debug-only")]
fn inverted_registry_engine_acquisition_is_caught_with_a_witness() {
    let engine = Arc::new(TrackedMutex::new(LockClass::Engine, ()));
    let registry = Arc::new(TrackedMutex::new(LockClass::SubscriptionRegistry, ()));

    // Establish the legal direction on a named thread, so the inversion
    // report below has a recorded witness to quote. Named threads of their
    // own, so each acquisition order is tied to one thread.
    {
        let engine = Arc::clone(&engine);
        let registry = Arc::clone(&registry);
        #[allow(clippy::disallowed_methods)]
        std::thread::Builder::new()
            .name("legal-order".into())
            .spawn(move || {
                let e = engine.lock();
                let r = registry.lock();
                drop(r);
                drop(e);
            })
            .expect("spawn")
            .join()
            .expect("the legal direction must not panic");
    }

    // Now invert it: registry first, engine second.
    #[allow(clippy::disallowed_methods)]
    let payload = std::thread::Builder::new()
        .name("inverter".into())
        .spawn(move || {
            let _r = registry.lock();
            let _e = engine.lock();
        })
        .expect("spawn")
        .join()
        .expect_err("the inverted acquisition must panic");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .expect("panic payload is a message");
    assert!(msg.contains("lock-order inversion"), "got: {msg}");
    assert!(msg.contains("Engine"), "names the blocked class: {msg}");
    assert!(msg.contains("SubscriptionRegistry"), "names the held class: {msg}");
    assert!(msg.contains("inverter"), "names this thread: {msg}");
    // The lock-order graph is process-wide: the witness is whichever
    // thread of this binary established engine -> registry first — the
    // legal-order thread above, or the stress test's serving path when it
    // gets there sooner.
    let witnesses =
        ["legal-order", "seeded_yield_stress_completes_deadlock_free_without_fallbacks"];
    assert!(
        witnesses.iter().any(|w| msg.contains(&format!("first established by thread \"{w}\""))),
        "quotes the witness thread: {msg}"
    );
}

/// Schedule-perturbation stress: ingest racing queued queries and a
/// standing subscription over a result-cached engine, with seeded yields
/// injected before every tracked acquisition. Any latent ordering bug
/// that needs a particular interleaving gets many chances to fire; the
/// run must stay deadlock-free, exact in shape, and fallback-free.
#[test]
fn seeded_yield_stress_completes_deadlock_free_without_fallbacks() {
    const SPAN: usize = 64;
    const MAX_TAU: u32 = 32;
    const BASE: usize = 128;
    const TOTAL: usize = 512;

    for seed in [0x9e37u64, 42, 7] {
        check::set_yield_seed(seed);
        let mut engine =
            EngineConfig::new(2, SPAN, MAX_TAU).result_cache(1 << 18).build().expect("config");
        for i in 0..BASE {
            engine.append(&row(i));
        }
        let serve = ServeEngine::new(engine, 16, Backpressure::Block);
        let standing = |interval| ServeRequest {
            alg: Algorithm::THop,
            query: DurableQuery { k: 2, tau: 16, interval },
            scorer: ScorerSpec::Linear(vec![0.3, 0.7]),
        };
        let sub = serve
            .subscribe_verified(standing(Window::new(0, u32::MAX)))
            .expect("valid standing query");
        let appended = AtomicU32::new(BASE as u32);
        let fallbacks = AtomicU32::new(0);

        std::thread::scope(|scope| {
            for c in 0..2usize {
                let serve = serve.clone();
                let appended = &appended;
                let fallbacks = &fallbacks;
                scope.spawn(move || {
                    for r in 0..40usize {
                        let i = c * 1_000 + r;
                        let upto = appended.load(Ordering::Acquire);
                        let b = (i as u32).wrapping_mul(7919) % upto;
                        let a = b.saturating_sub((i as u32).wrapping_mul(311) % upto);
                        let req = ServeRequest {
                            alg: if i % 2 == 0 { Algorithm::THop } else { Algorithm::SHop },
                            query: DurableQuery {
                                k: 1 + i % 3,
                                tau: 1 + (i as u32).wrapping_mul(17) % MAX_TAU,
                                interval: Window::new(a, b),
                            },
                            scorer: ScorerSpec::Linear(vec![0.6, 0.4]),
                        };
                        let handle = serve.submit(req).expect("accepted");
                        let response = handle.wait().expect("served");
                        if response.stats.fallback.is_some() {
                            fallbacks.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
            // Two appenders racing the clients and each other across
            // several seal boundaries, so refreshes land out of order.
            for a in 0..2usize {
                let serve = serve.clone();
                let appended = &appended;
                scope.spawn(move || {
                    for i in (BASE + a..TOTAL).step_by(2) {
                        let id = serve.append(&row(i)).expect("arity matches");
                        appended.fetch_max(id + 1, Ordering::Release);
                    }
                });
            }
        });
        // Both appenders joined: the standing answer is a recompute's.
        let snap = serve.poll_subscription(sub).expect("registered");
        let recompute = serve.execute(&standing(Window::new(0, TOTAL as u32 - 1)));
        assert!(!snap.diverged, "seed {seed}");
        assert_eq!(Ok(snap.records), recompute.map(|(records, _)| records), "seed {seed}");

        // Repeat one sealed-range query: with the stream stopped, no shard
        // is sealed in between, so the second run must replay memoized
        // per-shard answers.
        let cached_req = ServeRequest {
            alg: Algorithm::THop,
            query: DurableQuery { k: 2, tau: 16, interval: Window::new(0, BASE as u32 - 1) },
            scorer: ScorerSpec::Linear(vec![0.5, 0.5]),
        };
        for _ in 0..2 {
            let response =
                serve.submit(cached_req.clone()).expect("accepted").wait().expect("served");
            assert!(response.stats.fallback.is_none(), "seed {seed}");
        }
        let stats = serve.stats();
        serve.shutdown();

        assert_eq!(fallbacks.load(Ordering::Relaxed), 0, "fallbacks=0 required (seed {seed})");
        assert_eq!(stats.failed, 0, "seed {seed}");
        assert_eq!(stats.subscriptions, 1, "seed {seed}");
        assert!(stats.refreshes + stats.fast_path_skips > 0, "the subscription ran (seed {seed})");
        assert!(stats.cache_hits > 0, "the repeated sealed query must hit (seed {seed})");
        assert!(serve.engine().sealed_shards() >= (TOTAL - BASE) / SPAN, "seed {seed}");
    }
    check::set_yield_seed(0);

    let report = check::report();
    if report.enabled {
        assert!(report.tracked_acquisitions > 0, "tracking must have observed the stress");
        assert!(report.max_held_depth >= 2, "nested engine->registry holds occurred");
    }
}
