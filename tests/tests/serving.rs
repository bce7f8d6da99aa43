//! Serving-layer integration: the request queue over the worker pool.
//!
//! Three properties gate the serving tentpole:
//!
//! 1. **Exactness under concurrency** — a mixed workload replayed through
//!    the queue while appends race across several seal boundaries agrees
//!    record-for-record with a flat engine rebuilt over the final
//!    dataset. Durability windows only look backwards, so any request
//!    whose interval ends before the published ingestion watermark has a
//!    timing-independent answer.
//! 2. **No panic reachable from request input** — bad `τ`/`k`/intervals
//!    and even a deliberately panicking scorer fail exactly one
//!    completion handle; the worker, the queue, and subsequent requests
//!    keep serving.
//! 3. **Structural guarantees** — shutdown drains every accepted
//!    request, and arbitrarily many served requests spawn zero threads
//!    beyond the persistent pool's.

use durable_topk::{
    Algorithm, Backpressure, Dataset, DurableQuery, EngineConfig, LinearScorer, OracleScorer,
    Scorer, ScorerSpec, ServeEngine, ServeError, ServeRequest, Window, WorkerPool,
};
use durable_topk_index::{NodeSummary, TreeRows};
use durable_topk_tests::flat;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn row(i: usize) -> [f64; 2] {
    [((i * 37) % 101) as f64, ((i * 73) % 97) as f64]
}

fn dataset(n: usize) -> Dataset {
    Dataset::from_rows(2, (0..n).map(row))
}

/// Appends racing queued queries across several seal boundaries: every
/// served answer must match a flat engine over the final dataset.
#[test]
fn ingest_while_serving_stays_exact() {
    const BASE: usize = 200;
    const TOTAL: usize = 2_200;
    const SPAN: usize = 256;
    const MAX_TAU: u32 = 64;
    let mut engine = EngineConfig::new(2, SPAN, MAX_TAU).build().expect("config");
    for i in 0..BASE {
        engine.append(&row(i));
    }
    let serve = ServeEngine::new(engine, 64, Backpressure::Block);
    let algs = [Algorithm::THop, Algorithm::SHop, Algorithm::TBase, Algorithm::SBand];
    // Published ingestion watermark: queries only touch records below it.
    let appended = AtomicU32::new(BASE as u32);

    let collected = std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for c in 0..3usize {
            let serve = serve.clone();
            let appended = &appended;
            clients.push(scope.spawn(move || {
                let mut collected = Vec::new();
                for r in 0..120usize {
                    let i = c * 1_000 + r;
                    let upto = appended.load(Ordering::Acquire);
                    let b = (i as u32).wrapping_mul(7919) % upto;
                    let a = b.saturating_sub((i as u32).wrapping_mul(311) % upto);
                    let req = ServeRequest {
                        alg: algs[i % algs.len()],
                        query: DurableQuery {
                            k: 1 + i % 4,
                            tau: 1 + (i as u32).wrapping_mul(17) % MAX_TAU,
                            interval: Window::new(a, b),
                        },
                        scorer: ScorerSpec::Linear(vec![0.6, 0.4]),
                    };
                    let handle = serve.submit(req.clone()).expect("accepted");
                    let response = handle.wait().expect("served");
                    collected.push((req, response.records));
                }
                collected
            }));
        }
        // The ingestion side: drive the engine across many seal
        // boundaries while the clients hammer the queue.
        for i in BASE..TOTAL {
            serve.append(&row(i)).expect("arity matches");
            appended.store(i as u32 + 1, Ordering::Release);
        }
        clients.into_iter().flat_map(|c| c.join().expect("client thread")).collect::<Vec<_>>()
    });
    serve.shutdown();
    assert!(
        serve.engine().sealed_shards() >= (TOTAL - BASE) / SPAN,
        "the stream must have crossed several seal boundaries"
    );

    // Reference: a flat engine over the final dataset. Look-back windows
    // make every collected answer timing-independent.
    let flat = flat(&dataset(TOTAL), Some(4));
    let scorer = LinearScorer::new(vec![0.6, 0.4]);
    assert_eq!(collected.len(), 360);
    for (req, records) in collected {
        let expected = flat.query(req.alg, &scorer, &req.query);
        assert_eq!(records, expected.records, "req={req:?}");
    }
}

/// Regression: the appender must never deadlock against busy workers.
///
/// The hazard: `ServeEngine::append` holds the engine write lock while
/// every pool worker is parked on the engine **read** lock behind it, so
/// anything the append waited on the pool for (a seal job, once) would
/// wedge the process permanently. Sealing happens on the appending
/// thread, so nothing under the write lock depends on a worker.
#[test]
fn append_backpressure_never_deadlocks_against_busy_workers() {
    const SPAN: usize = 32;
    const MAX_TAU: u32 = 16;
    let mut engine = EngineConfig::new(2, SPAN, MAX_TAU).build().expect("config");
    for i in 0..64 {
        engine.append(&row(i));
    }
    let serve = ServeEngine::new(engine, 32, Backpressure::Block);
    let appended = AtomicU32::new(64);

    std::thread::scope(|scope| {
        let client = {
            let serve = serve.clone();
            let appended = &appended;
            scope.spawn(move || {
                // Keep every pool worker saturated with queued requests so
                // seal tokens always queue behind serve tokens.
                for i in 0..400u32 {
                    let upto = appended.load(Ordering::Acquire);
                    let handle = serve
                        .submit(ServeRequest {
                            alg: Algorithm::THop,
                            query: DurableQuery {
                                k: 1 + (i as usize) % 3,
                                tau: 1 + i % MAX_TAU,
                                interval: Window::new(i.wrapping_mul(13) % upto, upto - 1),
                            },
                            scorer: ScorerSpec::Uniform,
                        })
                        .expect("accepted");
                    assert!(handle.wait().is_ok(), "request {i}");
                }
            })
        };
        // Cross ~90 seal boundaries while the client hammers the queue.
        for i in 64..3_000usize {
            serve.append(&row(i)).expect("arity matches");
            appended.store(i as u32 + 1, Ordering::Release);
        }
        client.join().expect("client thread");
    });
    serve.shutdown();
    let engine = serve.engine();
    assert_eq!(engine.len(), 3_000);
    assert!(engine.sealed_shards() >= (3_000 - SPAN) / SPAN);
}

/// Releases the held pool workers when dropped, so a failing assertion
/// cannot leave them parked and wedge the rest of the binary.
struct ReleaseOnDrop(Arc<Barrier>);

impl Drop for ReleaseOnDrop {
    fn drop(&mut self) {
        self.0.wait();
    }
}

/// The capacity bound counts requests no worker has started: with every
/// pool worker held, a capacity-1 queue is full after one request, so
/// `Reject` sheds the next and `Block` parks its submitter until a worker
/// takes the first one.
#[test]
fn a_full_queue_rejects_or_blocks_until_a_worker_takes_a_request() {
    let build = || EngineConfig::new(2, 25, 10).build_from(&dataset(50), 2).expect("build");
    let (reject, block) = (
        ServeEngine::new(build(), 1, Backpressure::Reject),
        ServeEngine::new(build(), 1, Backpressure::Block),
    );
    let req = || ServeRequest {
        alg: Algorithm::TBase,
        query: DurableQuery { k: 1, tau: 10, interval: Window::new(0, 49) },
        scorer: ScorerSpec::Uniform,
    };
    let pool = WorkerPool::global();
    let barrier = Arc::new(Barrier::new(pool.threads() + 1));
    let (started_tx, started) = mpsc::channel();
    for _ in 0..pool.threads() {
        let (barrier, started_tx) = (Arc::clone(&barrier), started_tx.clone());
        pool.submit(move |_ctx| {
            let _ = started_tx.send(());
            barrier.wait();
        });
    }
    let release = ReleaseOnDrop(barrier);
    for _ in 0..pool.threads() {
        started.recv_timeout(Duration::from_secs(60)).expect("every worker is held");
    }

    let accepted = reject.submit(req()).expect("an empty queue accepts");
    assert_eq!(reject.stats().depth, 1, "no worker can take the request");
    assert_eq!(reject.submit(req()).map(|_| ()), Err(ServeError::QueueFull));

    let first = block.submit(req()).expect("an empty queue accepts");
    let (done_tx, done) = mpsc::channel();
    let handles = std::thread::scope(|scope| {
        let submitter = scope.spawn(|| {
            let handle = block.submit(req());
            let _ = done_tx.send(());
            handle
        });
        assert_eq!(
            done.recv_timeout(Duration::from_millis(200)),
            Err(RecvTimeoutError::Timeout),
            "the second submitter waits while the queue is full"
        );
        drop(release);
        done.recv_timeout(Duration::from_secs(60)).expect("a freed slot admits the submitter");
        [accepted, first, submitter.join().expect("submitter").expect("accepted")]
    });
    for handle in handles {
        assert!(handle.wait().is_ok());
    }
    for serve in [&reject, &block] {
        serve.shutdown();
        let stats = serve.stats();
        assert_eq!(stats.completed, stats.enqueued);
        assert_eq!(stats.max_depth, 1);
    }
    assert_eq!(reject.stats().rejected, 1);
    assert_eq!(block.stats().enqueued, 2);
}

/// Shutdown must serve (not discard) every request accepted before it.
#[test]
fn shutdown_drains_in_flight_requests() {
    let engine = EngineConfig::new(2, 800, 60).build_from(&dataset(800), 4).expect("build");
    let serve = ServeEngine::new(engine, 128, Backpressure::Block);
    let handles: Vec<_> = (0..96)
        .map(|i| {
            serve
                .submit(ServeRequest {
                    alg: [Algorithm::THop, Algorithm::SHop][i % 2],
                    query: DurableQuery {
                        k: 1 + i % 3,
                        tau: 1 + (i as u32) % 60,
                        interval: Window::new(0, 799),
                    },
                    scorer: ScorerSpec::Uniform,
                })
                .expect("accepted")
        })
        .collect();
    serve.shutdown();
    // After the drain, every handle resolves without blocking.
    for handle in handles {
        let outcome = handle.try_take().expect("shutdown drained every accepted request");
        assert!(outcome.is_ok());
    }
    let stats = serve.stats();
    assert_eq!(stats.completed, 96);
    assert_eq!(stats.depth, 0);
    assert_eq!(
        serve
            .submit(ServeRequest {
                alg: Algorithm::THop,
                query: DurableQuery { k: 1, tau: 10, interval: Window::new(0, 799) },
                scorer: ScorerSpec::Uniform,
            })
            .map(|_| ()),
        Err(ServeError::ShuttingDown)
    );
}

/// A scorer that panics once its trigger fires — fault injection for the
/// worker-pool panic audit.
#[derive(Debug)]
struct ExplodingScorer;

impl Scorer for ExplodingScorer {
    fn score(&self, attrs: &[f64]) -> f64 {
        if attrs[0] >= 0.0 {
            panic!("scorer exploded mid-request");
        }
        attrs[0]
    }

    fn is_monotone(&self) -> bool {
        true
    }
}

impl OracleScorer for ExplodingScorer {
    fn node_bound(&self, _rows: TreeRows<'_>, _node: &NodeSummary) -> f64 {
        f64::INFINITY
    }
}

/// The satellite audit: a panicking request fails only its own completion
/// handle; the pool replaces nothing and subsequent requests are served
/// by the same persistent workers.
#[test]
fn panicking_scorer_fails_one_handle_and_the_pool_recovers() {
    let engine = EngineConfig::new(2, 500, 40).build_from(&dataset(500), 3).expect("build");
    let serve = ServeEngine::new(engine, 32, Backpressure::Block);
    let query = DurableQuery { k: 2, tau: 30, interval: Window::new(0, 499) };
    // Warm the pool, then freeze the spawn counter.
    let warm = serve
        .submit(ServeRequest { alg: Algorithm::THop, query, scorer: ScorerSpec::Uniform })
        .expect("accepted")
        .wait()
        .expect("served");
    let spawned_before = WorkerPool::threads_spawned();

    for round in 0..4 {
        let boom = serve
            .submit(ServeRequest {
                alg: Algorithm::THop,
                query,
                scorer: ScorerSpec::Custom(Arc::new(ExplodingScorer)),
            })
            .expect("accepted");
        match boom.wait() {
            Err(ServeError::Panicked(msg)) => {
                assert!(msg.contains("scorer exploded"), "round={round} msg={msg}")
            }
            other => panic!("round={round}: expected a panic error, got {other:?}"),
        }
        // The very next request is served correctly by the same workers.
        let ok = serve
            .submit(ServeRequest { alg: Algorithm::THop, query, scorer: ScorerSpec::Uniform })
            .expect("accepted")
            .wait()
            .expect("served after a panic");
        assert_eq!(ok.records, warm.records, "round={round}");
    }
    assert_eq!(
        WorkerPool::threads_spawned(),
        spawned_before,
        "recovery must reuse persistent workers, never spawn replacements"
    );
    assert_eq!(serve.stats().failed, 4);
    serve.shutdown();
}

/// The serving acceptance guard: an entire replayed workload spawns no
/// threads beyond the persistent pool's.
#[test]
fn serving_spawns_no_threads() {
    let engine = EngineConfig::new(2, 600, 50).build_from(&dataset(600), 4).expect("build");
    let serve = ServeEngine::new(engine, 64, Backpressure::Block);
    let request = |i: usize| ServeRequest {
        alg: [Algorithm::THop, Algorithm::SHop, Algorithm::TBase][i % 3],
        query: DurableQuery {
            k: 1 + i % 4,
            tau: 1 + (i as u32) % 50,
            interval: Window::new((i as u32 * 13) % 600, 599),
        },
        scorer: ScorerSpec::Uniform,
    };
    // Warm-up: the global pool and the serve path.
    serve.submit(request(0)).expect("accepted").wait().expect("served");
    let before = WorkerPool::threads_spawned();
    let handles: Vec<_> = (0..200).map(|i| serve.submit(request(i)).expect("accepted")).collect();
    for (i, handle) in handles.into_iter().enumerate() {
        assert!(handle.wait().is_ok(), "request {i}");
    }
    serve.shutdown();
    assert_eq!(
        WorkerPool::threads_spawned(),
        before,
        "the serving path must reuse persistent pool workers, never spawn"
    );
}

/// Zero parameters, an interval past the history and a mismatched scorer
/// are responses, not aborts — reachable straight through the public
/// serving API — and τ beyond `max_tau` is no error at all.
#[test]
fn bad_request_input_never_panics_the_server() {
    let engine = EngineConfig::new(2, 300, 20).build_from(&dataset(300), 3).expect("build");
    let serve = ServeEngine::new(engine, 16, Backpressure::Block);
    let wide = DurableQuery { k: 1, tau: 2_000, interval: Window::new(0, 299) };
    let req = ServeRequest { alg: Algorithm::THop, query: wide, scorer: ScorerSpec::Uniform };
    let flat = flat(&dataset(300), None).query(Algorithm::THop, &LinearScorer::uniform(2), &wide);
    let served = serve.submit(req).expect("accepted").wait().expect("any τ");
    assert_eq!(served.records, flat.records);
    let cases: Vec<(ServeRequest, &str)> = vec![
        (
            ServeRequest {
                alg: Algorithm::SHop,
                query: DurableQuery { k: 0, tau: 5, interval: Window::new(0, 299) },
                scorer: ScorerSpec::Uniform,
            },
            "k must be positive",
        ),
        (
            ServeRequest {
                alg: Algorithm::SBase,
                query: DurableQuery { k: 1, tau: 0, interval: Window::new(0, 299) },
                scorer: ScorerSpec::Uniform,
            },
            "tau must be positive",
        ),
        (
            ServeRequest {
                alg: Algorithm::TBase,
                query: DurableQuery { k: 1, tau: 5, interval: Window::new(900, 999) },
                scorer: ScorerSpec::Uniform,
            },
            "starts past",
        ),
        (
            ServeRequest {
                alg: Algorithm::THop,
                query: DurableQuery { k: 1, tau: 5, interval: Window::new(0, 299) },
                scorer: ScorerSpec::Linear(vec![1.0]),
            },
            "arity mismatch",
        ),
    ];
    for (req, expected) in cases {
        let outcome = serve.submit(req.clone()).expect("accepted").wait();
        match outcome {
            Err(ServeError::Query(e)) => {
                assert!(e.to_string().contains(expected), "req={req:?}: {e}")
            }
            other => panic!("req={req:?}: expected a query error, got {other:?}"),
        }
    }
    // Still serving.
    let ok = serve
        .submit(ServeRequest {
            alg: Algorithm::THop,
            query: DurableQuery { k: 1, tau: 5, interval: Window::new(0, 299) },
            scorer: ScorerSpec::Uniform,
        })
        .expect("accepted")
        .wait();
    assert!(ok.is_ok());
    serve.shutdown();
}
