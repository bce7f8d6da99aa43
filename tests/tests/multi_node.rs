//! Scatter-gather cluster exactness, failure paths and stats.
//!
//! A cluster answers every `DurTop(k, I, τ)` exactly at every ingestion
//! prefix: the model in `durable_topk_tests::model`, run on a coordinator.
//! A [`Coordinator`] answers bad requests with typed errors — in process
//! and across a loopback `NodeServer` — keeps serving after a panicking
//! request, and reports each node's traffic.

use durable_topk::{
    Algorithm, Backpressure, DurableQuery, EngineConfig, LinearScorer, QueryError, ScorerError,
    ScorerSpec, ServeEngine, ServeError, ServeRequest, SingleAttributeScorer, Window,
};
use durable_topk_net::{
    Coordinator, LocalNode, NetError, Node, NodeIdentity, NodeServer, NodeServerOptions,
    RemoteNode, RemoteOptions,
};
use durable_topk_temporal::Dataset;
use durable_topk_tests::flat;
use durable_topk_tests::model::{check, Front};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shard span of every slice engine.
const SPAN: usize = 8;
/// Skyband bound of every slice engine.
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

/// Shutdown closes the sockets of live connections instead of waiting
/// out their handlers' blocking reads: a server whose `read_timeout` is
/// ten seconds stops at once while a connected `RemoteNode` outlives it.
#[test]
fn shutdown_does_not_wait_for_idle_connections() {
    let [(serve, id), _] = two_slices();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let opts = NodeServerOptions { read_timeout: Duration::from_secs(10), ..Default::default() };
    let mut server = NodeServer::spawn(listener, serve.clone(), id, opts).expect("spawn server");
    let remote = RemoteNode::connect(server.addr().to_string(), RemoteOptions::default());
    remote.stats().expect("the first RPC connects");
    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
    drop(remote);
    serve.shutdown();
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

/// A coordinator over a random tiling of one to four slice nodes, one
/// over TCP and the last one live, answers like brute force at every
/// prefix; its `τ` bound, length and per-node traffic are checked too.
#[test]
fn multi_node_matches_single_node_at_every_prefix() {
    let exercised = ["a multi-node cluster, its live node sealed twice"];
    check("multi_node_matches_single_node", 16, &[Front::Cluster], |_, _| {}, &exercised);
}
