//! Scatter-gather cluster vs the single-node oracle.
//!
//! The acceptance gate for the network layer: a [`Coordinator`] over a
//! cluster of nodes — three static slices plus one live tail, with one
//! member reached through a real loopback TCP round-trip — must answer
//! every `DurTop(k, I, τ)` **bit-identically** to one in-process
//! [`ShardedEngine`] over the same timeline, at every ingestion prefix,
//! for every algorithm, with zero fallbacks anywhere. The partitioning,
//! the left-context overlap, the wire codec and the merge must all be
//! *observationally absent*.

use durable_topk::{
    Algorithm, Backpressure, DurableQuery, EngineConfig, LinearScorer, QueryError, ScorerError,
    ScorerSpec, ServeEngine, ServeError, ServeRequest, ShardedEngine, SingleAttributeScorer,
    Window,
};
use durable_topk_net::{
    Coordinator, LocalNode, NetError, Node, NodeIdentity, NodeServer, NodeServerOptions,
    RemoteNode, RemoteOptions,
};
use durable_topk_temporal::Dataset;
use durable_topk_tests::{flat, rows_strategy};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::net::TcpListener;
use std::sync::Arc;

/// Shard span for every engine in the cluster and the reference: small
/// enough that both the static slices and the live tail cross several
/// seal boundaries.
const SPAN: usize = 8;
/// Skyband bound; queries keep `k ≤ K_MAX` so S-Band stays
/// native on every head.
const K_MAX: usize = 4;

/// A serving engine hosting the global slice `[lo, hi]` of `ds`, with
/// `max_tau` records of left context below `lo` (clamped at the timeline
/// start) — the overlap that keeps every durability window exact.
fn slice_node(ds: &Dataset, lo: u32, hi: u32, max_tau: u32) -> (ServeEngine, NodeIdentity) {
    let ext_lo = lo.saturating_sub(max_tau);
    let mut engine = EngineConfig::new(ds.dim(), SPAN, max_tau)
        .skyband_bound(K_MAX)
        .build()
        .expect("slice config");
    for id in ext_lo..=hi {
        engine.append(ds.row(id));
    }
    (ServeEngine::new(engine, 16, Backpressure::Block), NodeIdentity { base: ext_lo, owned_lo: lo })
}

/// The scorer `execute_request` materializes for `spec` — the reference
/// engine must score exactly the same way.
fn materialize(spec: &ScorerSpec, dim: usize) -> LinearScorer {
    match spec {
        ScorerSpec::Uniform => LinearScorer::uniform(dim),
        ScorerSpec::Linear(w) => LinearScorer::new(w.clone()),
        _ => unreachable!("test only uses uniform/linear specs"),
    }
}

/// One cluster query checked against the reference engine: identical
/// records, no fallback on either side.
fn check_query(
    cluster: &Coordinator,
    reference: &ShardedEngine,
    alg: Algorithm,
    spec: &ScorerSpec,
    q: &DurableQuery,
    context: &str,
) -> Result<(), TestCaseError> {
    let req = ServeRequest { alg, query: *q, scorer: spec.clone() };
    let response = match cluster.query(&req) {
        Ok(r) => r,
        Err(e) => return Err(TestCaseError::fail(format!("{context}: cluster query: {e}"))),
    };
    let scorer = materialize(spec, reference.dim());
    let want = reference.query(alg, &scorer, q);
    prop_assert_eq!(
        &response.records,
        &want.records,
        "{}: cluster diverged (alg={} q={:?})",
        context,
        alg,
        q
    );
    prop_assert_eq!(
        response.stats.fallback,
        None,
        "{}: cluster fell back (alg={} q={:?})",
        context,
        alg,
        q
    );
    prop_assert_eq!(
        want.stats.fallback,
        None,
        "{}: reference fell back (alg={} q={:?})",
        context,
        alg,
        q
    );
    Ok(())
}

/// A preference vector its scorer family cannot take is request data like
/// any other: a cluster answers it with a typed error — in process and
/// through a frame a `NodeServer` decoded — and keeps serving.
#[test]
fn invalid_scorer_specs_are_typed_errors_across_the_cluster() {
    let ds = Dataset::from_rows(2, (0..48).map(|i| [(i % 7) as f64, (i % 5) as f64]));
    let (serve, id) = slice_node(&ds, 0, 47, 4);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = NodeServer::spawn(listener, serve.clone(), id, NodeServerOptions::default())
        .expect("spawn server");
    let remote: Arc<dyn Node> =
        Arc::new(RemoteNode::connect(server.addr().to_string(), RemoteOptions::default()));
    let local: Arc<dyn Node> = Arc::new(LocalNode::new(serve.clone(), id));

    let request = |scorer| ServeRequest {
        alg: Algorithm::SHop,
        query: DurableQuery { k: 2, tau: 3, interval: Window::new(0, 47) },
        scorer,
    };
    let bad = request(ScorerSpec::Linear(vec![-1.0, f64::NAN]));
    let expected = QueryError::InvalidScorer(ScorerError::InvalidWeight);
    for (node, what) in [(local, "local"), (remote, "remote")] {
        let cluster = Coordinator::new(vec![node]).expect("one-node cluster");
        match cluster.query(&bad) {
            Err(NetError::Serve(ServeError::Query(e))) => assert_eq!(e, expected, "{what}"),
            other => panic!("{what}: expected a typed scorer error, got {other:?}"),
        }
        let ok = cluster.query(&request(ScorerSpec::Linear(vec![0.5, 0.5])));
        assert!(ok.is_ok(), "{what}: the node must keep serving, got {ok:?}");
    }
    assert_eq!((server.served(), server.failed()), (1, 1), "one frame each way over TCP");

    drop(server);
    serve.shutdown();
}

/// A panicking request through in-process members fails like it does
/// through the serve queue or a `NodeServer` — a typed `Panicked` error
/// carrying the message, not an unwind into the coordinator's caller — and
/// the cluster answers the next request exactly.
#[test]
fn a_panicking_request_fails_alone_across_local_nodes() {
    let ds = Dataset::from_rows(2, (0..48).map(|i| [(i % 7) as f64, (i % 5) as f64]));
    let (serve0, id0) = slice_node(&ds, 0, 23, 4);
    let (serve1, id1) = slice_node(&ds, 24, 47, 4);
    let cluster = Coordinator::new(vec![
        Arc::new(LocalNode::new(serve0.clone(), id0)) as Arc<dyn Node>,
        Arc::new(LocalNode::new(serve1.clone(), id1)),
    ])
    .expect("two-node cluster");

    // The interval straddles both nodes, so both fan-out jobs panic: the
    // scorer reads attribute 7 of 2-attribute records. Only an opaque
    // `Custom` spec can carry it, so it never crosses the wire.
    let query = DurableQuery { k: 2, tau: 3, interval: Window::new(10, 40) };
    let scorer = ScorerSpec::Custom(Arc::new(SingleAttributeScorer::new(7)));
    let boom = ServeRequest { alg: Algorithm::THop, query, scorer };
    match cluster.query(&boom) {
        Err(NetError::Serve(ServeError::Panicked(msg))) => {
            assert!(msg.contains("index out of bounds"), "msg={msg}")
        }
        other => panic!("expected a typed panic error, got {other:?}"),
    }

    let ok = cluster
        .query(&ServeRequest { scorer: ScorerSpec::Uniform, ..boom })
        .expect("the cluster must keep serving");
    let flat = flat(&ds, None);
    assert_eq!(ok.records, flat.query(Algorithm::THop, &LinearScorer::uniform(2), &query).records);

    serve0.shutdown();
    serve1.shutdown();
}

/// Two serving engines tiling the global records `0..=95`.
fn two_slices() -> [(ServeEngine, NodeIdentity); 2] {
    let ds = Dataset::from_rows(2, (0..96).map(|i| [(i % 7) as f64, (i % 5) as f64]));
    [(0, 47), (48, 95)].map(|(lo, hi)| slice_node(&ds, lo, hi, 4))
}

/// Sends five good queries straddling both halves of `two_slices`' cluster
/// and one bad query to each half; `cluster_stats` must then read
/// `(completed, failed) = (5, 1)` for each node.
fn assert_each_node_counts_five_good_one_bad(cluster: &Coordinator) {
    let request = |scorer, lo, hi| ServeRequest {
        alg: Algorithm::THop,
        query: DurableQuery { k: 2, tau: 3, interval: Window::new(lo, hi) },
        scorer,
    };
    for _ in 0..5 {
        cluster.query(&request(ScorerSpec::Uniform, 0, 95)).expect("good query");
    }
    for (lo, hi) in [(0, 47), (48, 95)] {
        let bad = cluster.query(&request(ScorerSpec::Linear(vec![-1.0, 1.0]), lo, hi));
        assert!(matches!(bad, Err(NetError::Serve(ServeError::Query(_)))), "got {bad:?}");
    }
    let stats = cluster.cluster_stats();
    assert_eq!(stats.len(), 2);
    for stats in stats {
        let stats = stats.expect("stats");
        assert_eq!((stats.completed, stats.failed), (5, 1));
        assert_eq!(stats.enqueued, stats.completed + stats.failed);
    }
}

/// The stats RPC end to end: `Coordinator::cluster_stats` →
/// `RemoteNode::stats` → the `NodeServer`'s `StatsRequest` arm, which
/// reports the engine's counters — including the traffic its connection
/// threads served through `ServeEngine::execute`, bypassing the queue.
#[test]
fn cluster_stats_reports_each_nodes_connection_traffic() {
    let nodes = two_slices().map(|(serve, id)| {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let server = NodeServer::spawn(listener, serve.clone(), id, NodeServerOptions::default())
            .expect("spawn server");
        (serve, server)
    });
    let members = nodes
        .iter()
        .map(|(_, server)| {
            let addr = server.addr().to_string();
            Arc::new(RemoteNode::connect(addr, RemoteOptions::default())) as Arc<dyn Node>
        })
        .collect();
    assert_each_node_counts_five_good_one_bad(
        &Coordinator::new(members).expect("two-node cluster"),
    );
    for (serve, server) in nodes {
        assert_eq!((server.served(), server.failed()), (5, 1));
        drop(server);
        serve.shutdown();
    }
}

/// In-process members count their traffic too: `ServeEngine::execute`
/// books what it serves into the engine's counters.
#[test]
fn cluster_stats_reports_each_local_nodes_traffic() {
    let nodes = two_slices();
    let members = nodes
        .iter()
        .map(|(serve, id)| Arc::new(LocalNode::new(serve.clone(), *id)) as Arc<dyn Node>)
        .collect();
    assert_each_node_counts_five_good_one_bad(
        &Coordinator::new(members).expect("two-node cluster"),
    );
    for (serve, _) in nodes {
        serve.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Four nodes tile the timeline — three static, one ingesting live,
    /// the second reached over loopback TCP — and the coordinator's
    /// answer matches the single-engine answer for every algorithm at
    /// every prefix of the live tail, plus a randomized sub-interval
    /// sweep at the final prefix.
    #[test]
    fn multi_node_matches_single_node_at_every_prefix(
        rows in rows_strategy(64..112),
        max_tau in 1u32..8,
        seed in 0u32..10_000,
    ) {
        let ds = Dataset::from_rows(2, rows);
        let n = ds.len() as u32;
        // Static slices cover the first three quarters; the last quarter
        // streams into the live node one record at a time.
        let (b1, b2, b3) = (n / 4, n / 2, 3 * n / 4);

        let (serve0, id0) = slice_node(&ds, 0, b1 - 1, max_tau);
        let (serve1, id1) = slice_node(&ds, b1, b2 - 1, max_tau);
        let (serve2, id2) = slice_node(&ds, b2, b3 - 1, max_tau);
        // The live node starts with its left context plus the first owned
        // record (the coordinator requires every member to own something).
        let (serve3, id3) = slice_node(&ds, b3, b3, max_tau);

        // Node 1 joins through a real TCP round-trip: a loopback server
        // over a clone of its serving engine, dialed by a RemoteNode.
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| TestCaseError::fail(format!("bind: {e}")))?;
        let server =
            NodeServer::spawn(listener, serve1.clone(), id1, NodeServerOptions::default())
                .map_err(|e| TestCaseError::fail(format!("spawn server: {e}")))?;
        let remote1 = RemoteNode::connect(server.addr().to_string(), RemoteOptions::default());

        let nodes: Vec<Arc<dyn Node>> = vec![
            Arc::new(LocalNode::new(serve0.clone(), id0)),
            Arc::new(remote1),
            Arc::new(LocalNode::new(serve2.clone(), id2)),
            Arc::new(LocalNode::new(serve3.clone(), id3)),
        ];
        let cluster = match Coordinator::new(nodes) {
            Ok(c) => c,
            Err(e) => return Err(TestCaseError::fail(format!("build cluster: {e}"))),
        };
        prop_assert_eq!(cluster.cluster_max_tau(), max_tau, "context must back the full τ range");

        // The single-engine oracle over the same prefix of the timeline.
        let mut reference = EngineConfig::new(2, SPAN, max_tau)
            .skyband_bound(K_MAX)
            .build()
            .expect("reference config");
        for id in 0..=b3 {
            reference.append(ds.row(id));
        }

        // Walk the live tail: append to the live node and the reference in
        // lockstep, refresh the routing table, and compare every algorithm
        // over the full prefix.
        for upto in b3..n {
            if upto > b3 {
                serve3
                    .append(ds.row(upto))
                    .map_err(|e| TestCaseError::fail(format!("append: {e}")))?;
                reference.append(ds.row(upto));
                if let Err(e) = cluster.refresh_ranges() {
                    return Err(TestCaseError::fail(format!("refresh: {e}")));
                }
            }
            prop_assert_eq!(cluster.total_len(), upto as usize + 1, "routing table must track growth");
            let step = (upto - b3) as usize;
            let spec = if step % 2 == 0 {
                ScorerSpec::Linear(vec![0.6, 0.4])
            } else {
                ScorerSpec::Uniform
            };
            let k = 1 + (step + seed as usize) % K_MAX;
            let tau = 1 + (seed + upto) % max_tau;
            let q = DurableQuery { k, tau, interval: Window::new(0, upto) };
            for alg in Algorithm::ALL {
                check_query(&cluster, &reference, alg, &spec, &q, "prefix walk")?;
            }
        }

        // Randomized sub-intervals at the final prefix: pieces that hit
        // one node, several nodes, and cross every boundary.
        let spec = ScorerSpec::Linear(vec![0.55, 0.45]);
        for i in 0..48u32 {
            let b = (seed.wrapping_mul(31).wrapping_add(i.wrapping_mul(7919))) % n;
            let a = b.saturating_sub(1 + i.wrapping_mul(104_729) % n);
            let q = DurableQuery {
                k: 1 + i as usize % K_MAX,
                tau: 1 + (seed + i) % max_tau,
                interval: Window::new(a, b),
            };
            for alg in Algorithm::ALL {
                check_query(&cluster, &reference, alg, &spec, &q, "interval sweep")?;
            }
        }

        // The run must have exercised what it claims: several seals on
        // both sides of the comparison, and real frames over the wire.
        prop_assert!(
            reference.sealed_shards() >= 2,
            "reference must cross at least two seal boundaries"
        );
        prop_assert!(
            serve3.engine().sealed_shards() >= 2,
            "the live node must cross at least two seal boundaries"
        );
        prop_assert!(server.served() > 0, "node 1 must have answered over TCP");
        prop_assert_eq!(server.failed(), 0, "no TCP query may fail");
        let stats = cluster.stats();
        prop_assert_eq!(stats.nodes.len(), 4);
        for node in &stats.nodes {
            prop_assert!(node.requests > 0, "every node must be routed to ({})", node.label);
            prop_assert_eq!(node.errors, 0, "no node may report errors ({})", &node.label);
        }

        drop(server);
        for serve in [serve0, serve1, serve2, serve3] {
            serve.shutdown();
        }
    }
}
