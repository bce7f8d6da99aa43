//! Per-layer probes of the traced run. Layers are measured from outside
//! only: by timing calls into public functions (each under a span) and by
//! reading public stats structs. Iteration counts are fixed, so every
//! count a probe reports repeats exactly for one seed.

use crate::gen::{Data, Rng, DIM};
use crate::metrics::Layers;
use crate::stats::{median, quantile_of};
use crate::trace::{durations_of, self_times, self_times_of, Tracer};
use crate::workloads::{Bench, Cluster, Path, ALGS, SUBSCRIPTIONS};
use durable_topk::{
    execute_request, Backpressure, DurableQuery, EngineConfig, QueryContext, ScorerSpec,
    ServeEngine, ServeRequest, ShardedEngine, TopKResult, Window, WorkerPool,
};
use durable_topk_index::{
    AppendableTopKIndex, IncrementalSkybandIndex, OracleScratch, SkybandCandidates, SkylineSegTree,
    DEFAULT_LEAF_SIZE,
};
use durable_topk_net::{decode_message, encode_message, Message, Node};
use durable_topk_store::{read_chunk, write_chunk, BufferPool};
use durable_topk_temporal::{Dataset, LinearScorer, Scorer};
use std::hint::black_box;
use std::path::Path as FsPath;
use std::time::Instant;

const MIB: f64 = (1u64 << 20) as f64;

fn p50(samples: &[u64]) -> f64 {
    quantile_of(samples, 0.5)
}

/// Runs `f` under a span and returns its result.
fn spanned<T>(t: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> T {
    t.enter(name, u64::MAX);
    let out = f();
    t.exit();
    out
}

/// Duration of the most recently closed span.
fn last_ns(t: &Tracer) -> u64 {
    t.spans.last().map_or(0, |s| s.end_ns - s.start_ns)
}

/// `temporal`, `index.*`: scoring, the skyline segment tree, the
/// appendable forest and the incremental skyband, each alone over one
/// block of generated records as long as one of the workload's shards
/// (owned span plus `max_tau` of left context), probed with `k = 10` over
/// `τ`-long windows — what one of an algorithm's probes does inside a shard.
pub fn index_layers(bench: &Bench, quick: bool, t: &mut Tracer, l: &mut Layers) {
    let tau = bench.sizes.max_tau;
    let (lo, hi) = engines(bench)[0].engine().shard_ranges()[0];
    let block = hi - lo + 1 + tau;
    let probes = if quick { 200 } else { 2_000 };
    let ds = bench.data.dataset(0, u64::from(block));
    let mut rng = Rng::new(0xB10C, u64::from(block));
    let scorer = LinearScorer::new(rng.weights());
    let window = tau.min(block - 1);

    let passes = 20u64;
    spanned(t, "temporal.score", || {
        for _ in 0..passes {
            let sum: f64 = (0..block).map(|i| scorer.score(black_box(ds.row(i)))).sum();
            black_box(sum);
        }
    });
    l.set("temporal.score_ns", last_ns(t) as f64 / (passes * u64::from(block)) as f64);

    let mut builds = Vec::new();
    let mut tree = None;
    for _ in 0..3 {
        tree = Some(spanned(t, "index.segtree.build", || {
            SkylineSegTree::build_over(&ds, 0, block - 1, DEFAULT_LEAF_SIZE)
        }));
        builds.push(last_ns(t) as f64 / 1e6);
    }
    l.set("index.segtree.build_ms", median(&mut builds));
    let tree = tree.expect("built three times");

    let (mut scratch, mut out) = (OracleScratch::new(), TopKResult::empty());
    let windows: Vec<Window> = (0..probes)
        .map(|_| Window::lookback(window + rng.below(u64::from(block - window)) as u32, window))
        .collect();
    tree.counters().reset();
    spanned(t, "index.segtree.topk", || {
        for &w in &windows {
            tree.top_k_with(&ds, &scorer, 10, w, &mut scratch, &mut out);
        }
    });
    l.set("index.segtree.topk_us", last_ns(t) as f64 / 1e3 / probes as f64);
    let c = tree.counters();
    l.set("index.segtree.nodes_opened_per_probe", c.nodes_opened() as f64 / probes as f64);
    l.set("index.segtree.records_scanned_per_probe", c.records_scanned() as f64 / probes as f64);

    // One record short of the block: the binary counter then holds its
    // largest number of trees, the forest's worst case for a query.
    let mut forest = AppendableTopKIndex::new(DEFAULT_LEAF_SIZE);
    let mut grown = Dataset::with_capacity(DIM, block as usize);
    spanned(t, "index.forest.append", || {
        for i in 0..block - 1 {
            grown.push(ds.row(i));
            forest.append(&grown);
        }
    });
    l.set("index.forest.append_ns", last_ns(t) as f64 / f64::from(block - 1));
    l.set("index.forest.tree_count", forest.tree_count() as f64);
    spanned(t, "index.forest.topk", || {
        for &w in &windows {
            forest.top_k_with(&grown, &scorer, 10, w, &mut scratch, &mut out);
        }
    });
    l.set("index.forest.topk_us", last_ns(t) as f64 / 1e3 / probes as f64);

    let mut skyband = IncrementalSkybandIndex::new(10);
    let mut grown = Dataset::with_capacity(DIM, block as usize);
    spanned(t, "index.skyband.push", || {
        for i in 0..block {
            grown.push(ds.row(i));
            skyband.push(&grown);
        }
    });
    l.set("index.skyband.push_ns", last_ns(t) as f64 / f64::from(block));
    skyband.sync(std::iter::once(Window::new(0, block - 1)));
    spanned(t, "index.skyband.candidates", || {
        for &w in &windows {
            black_box(skyband.candidates(Window::new(w.start(), block - 1), window, 10));
        }
    });
    l.set("index.skyband.candidates_us", last_ns(t) as f64 / 1e3 / probes as f64);
}

/// `store.*`: one 8192×3 record chunk written through, and read back
/// cold from, a buffer pool.
pub fn store_layers(
    data: &Data,
    out: &FsPath,
    t: &mut Tracer,
    l: &mut Layers,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("store probe: {e}");
    let file = out.join(format!("probe_chunk_{}.db", std::process::id()));
    let chunk = data.dataset(0, 8_192);
    let result = (|| {
        let mut pool = BufferPool::create(&file, 64)?;
        let (mut writes, mut reads) = (Vec::new(), Vec::new());
        let mut pages = 0;
        for rep in 0..5 {
            pages = spanned(t, "store.chunk.write", || write_chunk(&mut pool, rep * 64, &chunk))?;
            writes.push(last_ns(t) as f64 / 1e3);
        }
        pool.flush()?;
        pool.reset_stats();
        for rep in 0..5 {
            pool.clear_cache()?;
            let back = spanned(t, "store.chunk.read", || read_chunk(&mut pool, rep * 64))?;
            reads.push(last_ns(t) as f64 / 1e3);
            if back.raw_attrs() != chunk.raw_attrs() {
                return Err(std::io::Error::other("chunk did not read back bit-identically"));
            }
        }
        debug_assert!(pages <= 64);
        l.set("store.chunk.write_us", median(&mut writes));
        l.set("store.chunk.read_us", median(&mut reads));
        l.set("store.pager.page_reads", pool.stats().reads as f64 / 5.0);
        Ok(())
    })();
    let _ = std::fs::remove_file(&file);
    result.map_err(io)
}

/// The engines behind the workload's path (one, or one per node).
fn engines(bench: &Bench) -> Vec<&ServeEngine> {
    match &bench.path {
        Path::Serve(serve) => vec![serve],
        Path::Cluster(c) => c.serves.iter().collect(),
    }
}

/// The node owning all of `req`'s interval and the request in that node's
/// local coordinates; `None` when the interval straddles two nodes. On the
/// serve path the engine is the one node and coordinates are global.
fn localize(bench: &Bench, req: &ServeRequest) -> Option<(usize, ServeRequest)> {
    let Path::Cluster(c) = &bench.path else { return Some((0, req.clone())) };
    let (start, end) = (req.query.interval.start(), req.query.interval.end());
    let (node, &(ext_lo, _, _)) =
        c.layout.iter().enumerate().find(|(_, &(_, lo, hi))| lo <= start && end <= hi)?;
    let query = DurableQuery { interval: Window::new(start - ext_lo, end - ext_lo), ..req.query };
    Some((node, ServeRequest { query, ..req.clone() }))
}

/// `core.oracle`, `core.execute`, `core.serve.queue_overhead`, `core.pool`,
/// `core.storage`: direct calls into the workload's own engine(s), on the
/// calling thread. `executed_probes` is the traced run's count of oracle
/// probes per request that really ran (not replayed from the result cache).
pub fn core_layers(
    bench: &Bench,
    quick: bool,
    executed_probes: f64,
    t: &mut Tracer,
    l: &mut Layers,
) {
    let serves = engines(bench);
    let mut rng = Rng::new(0xC04E, 1);

    // The workload's own first requests, each in the coordinates of the
    // engine that owns its interval (two-node straddlers are left out).
    let requests = if quick { 30 } else { 150 };
    let mut stream = bench.stream(0);
    let own: Vec<(usize, ServeRequest)> =
        (0..requests).filter_map(|_| localize(bench, &stream.next())).collect();

    // One oracle probe: the top-k over a τ look-back window the algorithms
    // issue by the hundred per request, with the requests' own k, τ and
    // preference, ending somewhere inside the request's interval.
    let probes = if quick { 200 } else { 2_000 };
    let mut probe_ns = 0;
    let (mut ctx, mut out) = (QueryContext::new(), TopKResult::empty());
    for (node, req) in own.iter().cycle().take(probes) {
        let ScorerSpec::Linear(weights) = &req.scorer else { continue };
        let scorer = LinearScorer::new(weights.clone());
        let engine = serves[*node].engine();
        let at = req.query.interval.start() + rng.below(req.query.interval.len() as u64) as u32;
        let window = Window::lookback(at, req.query.tau);
        spanned(t, "core.oracle.probe", || {
            engine.top_k_into(&scorer, req.query.k, window, &mut ctx, &mut out)
        });
        probe_ns += last_ns(t);
    }
    let probe_us = probe_ns as f64 / 1e3 / probes as f64;
    l.set("core.oracle.probe_us", probe_us);

    // The same requests executed with each algorithm on this thread (no
    // queue), then once more through the queue.
    let mut per_alg: [Vec<u64>; 3] = Default::default();
    let (mut direct, mut queued) = (Vec::new(), Vec::new());
    for (node, req) in &own {
        let engine = serves[*node].engine();
        for (a, alg) in ALGS.into_iter().enumerate() {
            let as_alg = ServeRequest { alg, ..req.clone() };
            let _ = spanned(t, "core.execute", || execute_request(&engine, &as_alg));
            per_alg[a].push(last_ns(t));
            if alg == req.alg {
                direct.push(last_ns(t));
            }
        }
        drop(engine);
        if let Some(serve) = bench.serve() {
            let _ = spanned(t, "core.serve.roundtrip", || {
                serve.submit(req.clone()).and_then(|handle| handle.wait())
            });
            queued.push(last_ns(t));
        }
    }
    for (name, samples) in
        ["core.execute.thop_p50_ms", "core.execute.sband_p50_ms", "core.execute.shop_p50_ms"]
            .into_iter()
            .zip(&per_alg)
    {
        l.set(name, p50(samples) / 1e6);
    }
    let all: Vec<u64> = per_alg.concat();
    if !all.is_empty() {
        // In-shard probes are what the algorithms issue; the whole-engine
        // probe above also pays the cross-shard merge, so the share is taken
        // with the segment tree's own figure.
        let in_shard_us = l.get("index.segtree.topk_us");
        l.set("core.probe_share", executed_probes * in_shard_us / (p50(&all) / 1e3));
    }
    if !queued.is_empty() {
        l.set("core.serve.queue_overhead_us", (p50(&queued) - p50(&direct)) / 1e3);
    }

    let pool = WorkerPool::global();
    l.set("core.pool.threads", pool.threads() as f64);
    let mut noop = Vec::new();
    for _ in 0..probes {
        spanned(t, "core.pool.noop_jobs", || pool.run_jobs(8, 8, |_, _| ()));
        noop.push(last_ns(t));
    }
    l.set("core.pool.noop_jobs_us", p50(&noop) / 1e3);

    // Storage: the newest chunk is resident on every backend; older ones
    // are spilled on the paged backend and fault pages back in.
    let (mut resident, mut spilled, mut shards) = (0usize, 0usize, 0usize);
    for serve in &serves {
        let engine = serve.engine();
        resident += engine.storage().resident_bytes();
        spilled += engine.storage().stats().spilled_chunks;
        shards += engine.shard_count();
    }
    l.set("core.storage.resident_mb", resident as f64 / MIB);
    l.set("core.storage.spilled_chunks", spilled as f64);
    l.set("core.sharded.shards", shards as f64);
    let engine = serves[0].engine();
    let storage = engine.storage();
    let chunks = storage.stats().chunks;
    if chunks > 0 {
        let mut warm = Vec::new();
        for _ in 0..200 {
            black_box(spanned(t, "core.storage.fetch_warm", || storage.fetch(chunks - 1)));
            warm.push(last_ns(t));
        }
        l.set("core.storage.fetch_warm_us", p50(&warm) / 1e3);
    }
    if storage.stats().spilled_chunks > 1 {
        let mut cold = Vec::new();
        for i in 0..60 {
            // Rotating over the spilled chunks defeats the pin that keeps
            // the most recently faulted chunk's pages warm.
            let id = i % (chunks - 1);
            black_box(spanned(t, "core.storage.fetch_cold", || storage.fetch(id)));
            cold.push(last_ns(t));
        }
        l.set("core.storage.fetch_cold_us", p50(&cold) / 1e3);
    }
}

/// `core.subscribe.append_overhead_ns`: append p50 on a fresh live engine
/// with the workload's subscriptions registered, minus without any.
pub fn subscribe_overhead(bench: &Bench, quick: bool, t: &mut Tracer, l: &mut Layers) {
    let appends = if quick { 3_000 } else { 30_000 };
    let span = bench.sizes.n as usize / bench.sizes.shards;
    let mut p50s = [0.0; 2];
    for (slot, subs) in [0, SUBSCRIPTIONS].into_iter().enumerate() {
        let engine: ShardedEngine = EngineConfig::new(DIM, span, bench.sizes.max_tau)
            .skyband_bound(bench.sizes.k_max)
            .build()
            .expect("the ingest workload's own configuration");
        let serve = ServeEngine::new(engine, 8, Backpressure::Block);
        for (_, req) in bench.subs.iter().take(subs) {
            let from_start = ServeRequest {
                query: DurableQuery { interval: Window::new(0, u32::MAX), ..req.query },
                ..req.clone()
            };
            serve.subscribe(from_start).expect("valid standing query");
        }
        let mut lat = Vec::with_capacity(appends);
        t.enter("core.subscribe.append_run", subs as u64);
        for i in 0..appends as u64 {
            let row = bench.data.row(i);
            let started = Instant::now();
            serve.append(&row).expect("arity matches");
            lat.push(started.elapsed().as_nanos() as u64);
        }
        t.exit();
        serve.subscription_sync();
        serve.quiesce();
        serve.shutdown();
        p50s[slot] = p50(&lat);
    }
    l.set("core.subscribe.append_overhead_ns", p50s[1] - p50s[0]);
}

/// `net.*`: the wire codec on a real request/response pair, one RPC over
/// the harness's own connections, and the coordinator's cost over the
/// slowest member RPC.
pub fn net_layers(bench: &Bench, c: &Cluster, quick: bool, t: &mut Tracer, l: &mut Layers) {
    let mut stream = bench.stream(0);
    let req = stream.next();
    let reps = if quick { 2_000 } else { 20_000 };
    let codec = |t: &mut Tracer, msg: &Message, enc: &'static str, dec: &'static str| {
        let bytes = encode_message(msg).expect("benchmark messages are encodable");
        spanned(t, enc, || {
            for _ in 0..reps {
                black_box(encode_message(black_box(msg)).map(|b| b.len()).unwrap_or(0));
            }
        });
        let enc_ns = last_ns(t) as f64 / reps as f64;
        spanned(t, dec, || {
            for _ in 0..reps {
                black_box(decode_message(black_box(&bytes)).map(|(_, used)| used).unwrap_or(0));
            }
        });
        (enc_ns, last_ns(t) as f64 / reps as f64, bytes.len())
    };
    let (enc, dec, _) =
        codec(t, &Message::Query(req.clone()), "net.wire.encode_req", "net.wire.decode_req");
    l.set("net.wire.encode_req_ns", enc);
    l.set("net.wire.decode_req_ns", dec);
    if let Ok(resp) = c.coordinator.query(&req) {
        let (enc, dec, bytes) =
            codec(t, &Message::QueryOk(resp), "net.wire.encode_resp", "net.wire.decode_resp");
        l.set("net.wire.encode_resp_us", enc / 1e3);
        l.set("net.wire.decode_resp_us", dec / 1e3);
        l.set("net.wire.resp_bytes", bytes as f64);
    }

    // The same requests once through the coordinator and once as direct
    // RPCs to the owning node(s), in alternating order: whichever goes
    // second finds the chunk's pages pinned, and alternating spreads that
    // advantage over both sides.
    let requests = if quick { 80 } else { 800 };
    let (mut one, mut two) = (Vec::new(), Vec::new());
    let mut straddlers = 0u64;
    for i in 0..requests {
        let req = stream.next();
        let pieces: Vec<(usize, ServeRequest)> = match localize(bench, &req) {
            Some(piece) => vec![piece],
            None => {
                straddlers += 1;
                c.layout
                    .iter()
                    .enumerate()
                    .filter_map(|(node, &(ext_lo, lo, hi))| {
                        let piece = req.query.interval.intersect(Window::new(lo, hi))?;
                        let interval = Window::new(piece.start() - ext_lo, piece.end() - ext_lo);
                        let query = DurableQuery { interval, ..req.query };
                        Some((node, ServeRequest { query, ..req.clone() }))
                    })
                    .collect()
            }
        };
        // Alternate within each kind of request: straddlers sit at fixed
        // stream positions, so alternating on `i` would give each kind one
        // order only.
        let seen = if pieces.len() == 1 { one.len() } else { two.len() };
        let mut coordinator_ns = 0;
        let mut slowest_rpc_ns = 0;
        for turn in 0..2 {
            if (turn == 0) == (seen % 2 == 0) {
                let _ = spanned(t, "net.coordinator.probe", || c.coordinator.query(&req));
                coordinator_ns = last_ns(t);
            } else {
                for (node, local) in &pieces {
                    let rpc = t.enter("net.remote.rpc", i);
                    let answer = c.remotes[*node].query(local);
                    t.exit();
                    let end = t.spans[rpc as usize].end_ns;
                    slowest_rpc_ns = slowest_rpc_ns.max(end - t.spans[rpc as usize].start_ns);
                    if let Ok(answer) = answer {
                        let service = answer.service.as_nanos() as u64;
                        t.child_ending_at(rpc, "net.node.service", end, service);
                    }
                }
            }
        }
        let over = coordinator_ns as f64 - slowest_rpc_ns as f64;
        if pieces.len() == 1 { &mut one } else { &mut two }.push(over);
    }
    let selfs = self_times(&t.spans);
    l.set("net.remote.rpc_p50_us", p50(&durations_of(&t.spans, "net.remote.rpc")) / 1e3);
    l.set("net.remote.node_service_p50_us", p50(&durations_of(&t.spans, "net.node.service")) / 1e3);
    l.set(
        "net.remote.transport_p50_us",
        p50(&self_times_of(&t.spans, &selfs, "net.remote.rpc")) / 1e3,
    );
    // Means, not medians: each difference is large and of either sign
    // (one side ran cold, the other warm); only their average cancels.
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    l.set("net.coordinator.overhead_1node_us", mean(&one) / 1e3);
    l.set("net.coordinator.overhead_2node_us", mean(&two) / 1e3);
    l.set("net.coordinator.two_node_frac", straddlers as f64 / requests as f64);
    let member_retries: u64 = c.coordinator.stats().nodes.iter().map(|n| n.net_retries).sum();
    let own_retries: u64 = c.remotes.iter().map(|r| r.net_retries()).sum();
    l.set("net.remote.retries", (member_retries + own_retries) as f64);
    l.set("net.server.served", c.servers.iter().map(|s| s.served()).sum::<u64>() as f64);
    l.set("net.server.failed", c.servers.iter().map(|s| s.failed()).sum::<u64>() as f64);
}
