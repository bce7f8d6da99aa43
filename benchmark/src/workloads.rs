//! The four workloads: how each builds its engine or cluster, what
//! requests it generates, the closed-loop client (and, for `ingest_mixed`,
//! the appender beside it), and the post-run correctness gate.
//!
//! The program under test receives only generated inputs — no workload
//! name, no seed.

use crate::check::Checker;
use crate::gen::{mix, Data, Digest, Rng, DIM};
use crate::trace::Tracer;
use durable_topk::{
    execute_request, Algorithm, Backpressure, DurableQuery, EngineConfig, PagedStorage, QueryStats,
    RecordId, ScorerSpec, ServeEngine, ServeRequest, ServeResponse, SubscriptionId, Window,
};
use durable_topk_net::{
    Coordinator, Node, NodeIdentity, NodeServer, NodeServerOptions, RemoteNode, RemoteOptions,
};
use std::net::TcpListener;
use std::path::{Path as FsPath, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The paper's three fast algorithms, served round-robin.
pub const ALGS: [Algorithm; 3] = [Algorithm::THop, Algorithm::SBand, Algorithm::SHop];

/// `ingest_mixed`: one query per this many appends, whatever the speeds.
pub const QUERY_EVERY: u64 = 100;
/// `ingest_mixed`: queries the appender may run ahead of the client, so
/// neither side's speed changes the read:write mix.
const APPEND_LEAD: u64 = 4;
/// Standing subscriptions registered by `ingest_mixed`.
pub const SUBSCRIPTIONS: usize = 8;
/// Saved panels of `panel_repeat`.
const PANELS: usize = 64;
/// Serve-queue capacity; closed-loop clients never fill it.
const QUEUE_CAPACITY: usize = 64;
/// Buffer-pool frames per `cluster_paged` node: two chunks' worth, so a
/// lookup on any chunk but the last two touched reads pages.
const CACHE_PAGES: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Adhoc,
    Panel,
    Ingest,
    Cluster,
}

pub const KINDS: [Kind; 4] = [Kind::Adhoc, Kind::Panel, Kind::Ingest, Kind::Cluster];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Adhoc => "adhoc_uncached",
            Kind::Panel => "panel_repeat",
            Kind::Ingest => "ingest_mixed",
            Kind::Cluster => "cluster_paged",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        KINDS.into_iter().find(|k| k.name() == name)
    }

    /// Client threads of the untraced run (the traced run always uses one).
    pub fn clients(self) -> usize {
        if self == Kind::Ingest {
            1
        } else {
            2
        }
    }
}

/// Input sizes of one workload (`--quick` divides them by ten or so).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Records on the timeline once set-up is done.
    pub n: u32,
    pub max_tau: u32,
    /// `|I|` of generated requests (panels use whole shards instead).
    pub window: u32,
    /// `build_from` shard count (per node for the cluster).
    pub shards: usize,
    pub k_max: usize,
}

impl Sizes {
    pub fn of(kind: Kind, quick: bool) -> Sizes {
        let n: u32 = if quick { 20_000 } else { 200_000 };
        match kind {
            // Paper Table III defaults: τ = 10 %·n, |I| = 50 %·n.
            Kind::Adhoc | Kind::Panel => {
                Sizes { n, max_tau: n / 10, window: n / 2, shards: 13, k_max: 20 }
            }
            // Twelve whole shards of base data; appends seal one more every
            // `n / shards` records.
            Kind::Ingest => {
                let span: u32 = if quick { 1024 } else { 4096 };
                Sizes {
                    n: 12 * span,
                    max_tau: span / 4,
                    window: span * 5 / 2,
                    shards: 12,
                    k_max: 10,
                }
            }
            // Small recent-history lookups: τ = 1 %·n, |I| = 2 %·n.
            Kind::Cluster => Sizes { n, max_tau: n / 100, window: n / 50, shards: 12, k_max: 5 },
        }
    }
}

/// A deterministic request stream: request `j` is a function of
/// `(seed, tag, j)` only.
pub struct Stream {
    kind: Kind,
    sizes: Sizes,
    rng: Rng,
    j: u64,
    panels: Arc<Vec<ServeRequest>>,
    /// Warm-up streams of `ingest_mixed` end every interval at the current
    /// end of the timeline instead of at the paced watermark.
    warm: bool,
}

impl Stream {
    /// Index of the next request.
    pub fn pos(&self) -> u64 {
        self.j
    }

    pub fn next(&mut self) -> ServeRequest {
        let (j, s) = (self.j, self.sizes);
        self.j += 1;
        let alg = ALGS[(j % 3) as usize];
        let (k, tau, start) = match self.kind {
            Kind::Panel => {
                return self.panels[self.rng.below(self.panels.len() as u64) as usize].clone()
            }
            Kind::Adhoc => (
                [5, 10, 20][self.rng.below(3) as usize],
                s.max_tau,
                self.rng.below(u64::from(s.n - s.window) + 1) as u32,
            ),
            Kind::Ingest => {
                let tau = s.max_tau / 10 + self.rng.below(u64::from(s.max_tau * 9 / 10) + 1) as u32;
                let end = if self.warm { s.n - 1 } else { ingest_watermark(&s, j) };
                ([5, 10][self.rng.below(2) as usize], tau, end + 1 - s.window)
            }
            Kind::Cluster => {
                // Every 4th lookup straddles the node boundary, so the
                // two-node scatter + merge path runs.
                let start = if j % 4 == 3 {
                    s.n / 2 - 1 - self.rng.below(u64::from(s.window) - 1) as u32
                } else {
                    self.rng.below(u64::from(s.n - s.window) + 1) as u32
                };
                (5, s.max_tau, start)
            }
        };
        ServeRequest {
            alg,
            query: DurableQuery { k, tau, interval: Window::new(start, start + s.window - 1) },
            scorer: ScorerSpec::Linear(self.rng.weights()),
        }
    }
}

/// Last record visible to `ingest_mixed` query `j`: the client issues it
/// once `QUERY_EVERY·(j+1)` records have been appended, and asks about the
/// window ending exactly there — so the request does not depend on how far
/// the appender really got.
fn ingest_watermark(s: &Sizes, j: u64) -> u32 {
    s.n + (QUERY_EVERY * (j + 1)) as u32 - 1
}

/// Two `NodeServer`s on loopback, each over half the timeline on paged
/// storage, behind a `Coordinator` over two `RemoteNode`s.
pub struct Cluster {
    pub coordinator: Coordinator,
    /// The harness's own connections, for timing one RPC directly.
    pub remotes: Vec<RemoteNode>,
    pub serves: Vec<ServeEngine>,
    pub servers: Vec<NodeServer>,
    /// Per node: global id of local record 0, and the owned range.
    pub layout: Vec<(u32, u32, u32)>,
    files: Vec<PathBuf>,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for server in &mut self.servers {
            server.shutdown();
        }
        for file in &self.files {
            let _ = std::fs::remove_file(file);
        }
    }
}

/// The end-to-end path requests travel.
pub enum Path {
    /// `ServeEngine::submit` + `ResponseHandle::wait`.
    Serve(ServeEngine),
    /// `Coordinator::query` over TCP.
    Cluster(Box<Cluster>),
}

/// One set-up workload.
pub struct Bench {
    pub kind: Kind,
    pub sizes: Sizes,
    pub data: Data,
    pub path: Path,
    panels: Arc<Vec<ServeRequest>>,
    pub subs: Vec<(SubscriptionId, ServeRequest)>,
    /// `panel_repeat`: service time of each panel's first (cache-filling)
    /// execution during warm-up.
    pub miss_service_ns: Vec<u64>,
    seed: u64,
}

impl Drop for Bench {
    fn drop(&mut self) {
        if let Path::Serve(serve) = &self.path {
            serve.shutdown();
            serve.quiesce();
        }
    }
}

fn serve_over(engine: durable_topk::ShardedEngine) -> ServeEngine {
    ServeEngine::new(engine, QUEUE_CAPACITY, Backpressure::Block)
}

impl Bench {
    /// Builds the workload's engine or cluster and warms it up; everything
    /// here is what `setup_s` times (the caller generates no data first —
    /// rows are computed on the fly, which costs a few ns each).
    pub fn setup(kind: Kind, seed: u64, quick: bool, out: &FsPath) -> Result<Bench, String> {
        let sizes = Sizes::of(kind, quick);
        let data = Data::new(seed);
        let build = |e: durable_topk::BuildError| format!("engine build: {e}");
        let mut rng = Rng::new(seed, 0x5E7);
        let mut subs = Vec::new();
        let mut panels = Vec::new();
        let path = match kind {
            Kind::Adhoc | Kind::Panel => {
                let mut cfg = EngineConfig::new(DIM, sizes.n as usize, sizes.max_tau)
                    .skyband_bound(sizes.k_max);
                if kind == Kind::Panel {
                    cfg = cfg.result_cache(64 << 20);
                }
                let ds = data.dataset(0, u64::from(sizes.n));
                let serve = serve_over(cfg.build_from(&ds, sizes.shards).map_err(build)?);
                if kind == Kind::Panel {
                    // Intervals are unions of whole sealed shards, the only
                    // pieces the result cache memoizes.
                    let ranges = serve.engine().shard_ranges();
                    for p in 0..PANELS {
                        let a = rng.below(ranges.len() as u64) as usize;
                        let b = a + rng.below((ranges.len() - a) as u64) as usize;
                        panels.push(ServeRequest {
                            alg: ALGS[p % 3],
                            query: DurableQuery {
                                k: [5, 10, 20][rng.below(3) as usize],
                                tau: sizes.n / [100, 20, 10][rng.below(3) as usize],
                                interval: Window::new(ranges[a].0, ranges[b].1),
                            },
                            scorer: ScorerSpec::Linear(rng.weights()),
                        });
                    }
                }
                Path::Serve(serve)
            }
            Kind::Ingest => {
                let span = sizes.n as usize / sizes.shards;
                let ds = data.dataset(0, u64::from(sizes.n));
                let engine = EngineConfig::new(DIM, span, sizes.max_tau)
                    .skyband_bound(sizes.k_max)
                    .build_from(&ds, sizes.shards)
                    .map_err(build)?;
                let serve = serve_over(engine);
                for s in 0..SUBSCRIPTIONS {
                    // Open-ended: every future arrival is inside the interval.
                    let req = ServeRequest {
                        alg: ALGS[s % 3],
                        query: DurableQuery {
                            k: [5, 10][s % 2],
                            tau: sizes.max_tau / 2 + rng.below(u64::from(sizes.max_tau / 2)) as u32,
                            interval: Window::new(sizes.n, u32::MAX),
                        },
                        scorer: ScorerSpec::Linear(rng.weights()),
                    };
                    let id = serve.subscribe_verified(req.clone()).map_err(|e| e.to_string())?;
                    subs.push((id, req));
                }
                Path::Serve(serve)
            }
            Kind::Cluster => Path::Cluster(Box::new(cluster(&data, &sizes, out)?)),
        };
        let mut bench = Bench {
            kind,
            sizes,
            data,
            path,
            panels: Arc::new(panels),
            subs,
            miss_service_ns: Vec::new(),
            seed,
        };
        bench.warm_up(quick)?;
        Ok(bench)
    }

    /// Untimed traffic before the first timed op: fills the result cache
    /// (`panel_repeat`), faults code and scratch buffers in everywhere.
    fn warm_up(&mut self, quick: bool) -> Result<(), String> {
        let scale = if quick { 10 } else { 1 };
        if self.kind == Kind::Panel {
            for req in self.panels.clone().iter() {
                let resp = self.call(req)?;
                self.miss_service_ns.push(resp.service.as_nanos() as u64);
            }
        }
        let requests = match self.kind {
            Kind::Adhoc => 200,
            Kind::Panel => 2_000,
            Kind::Ingest => 100,
            Kind::Cluster => 500,
        } / scale;
        let mut stream = self.stream(u64::MAX);
        stream.warm = true;
        for _ in 0..requests {
            self.call(&stream.next())?;
        }
        Ok(())
    }

    /// The request stream of client `client`.
    pub fn stream(&self, client: u64) -> Stream {
        Stream {
            kind: self.kind,
            sizes: self.sizes,
            rng: Rng::new(self.seed, 0xC11E47 ^ client),
            j: 0,
            panels: Arc::clone(&self.panels),
            warm: false,
        }
    }

    /// One request over the workload's end-to-end path.
    pub fn call(&self, req: &ServeRequest) -> Result<ServeResponse, String> {
        match &self.path {
            Path::Serve(serve) => serve
                .submit(req.clone())
                .and_then(|handle| handle.wait())
                .map_err(|e| format!("serve: {e}")),
            Path::Cluster(c) => c.coordinator.query(req).map_err(|e| format!("cluster: {e}")),
        }
    }

    pub fn serve(&self) -> Option<&ServeEngine> {
        match &self.path {
            Path::Serve(serve) => Some(serve),
            Path::Cluster(_) => None,
        }
    }

    /// Records on the timeline right now.
    pub fn len(&self) -> u64 {
        match &self.path {
            Path::Serve(serve) => serve.engine().len() as u64,
            Path::Cluster(_) => u64::from(self.sizes.n),
        }
    }

    /// Digest of everything generated from the seed: the base records and
    /// the first thousand requests of two client streams.
    pub fn inputs_digest(&self) -> String {
        let mut d = Digest::new();
        for i in 0..u64::from(self.sizes.n) {
            self.data.row(i).iter().for_each(|x| d.push(x.to_bits()));
        }
        for client in 0..2 {
            let mut stream = self.stream(client);
            for _ in 0..1_000 {
                digest_request(&mut d, &stream.next());
            }
        }
        self.subs.iter().for_each(|(_, req)| digest_request(&mut d, req));
        d.hex()
    }
}

fn digest_request(d: &mut Digest, req: &ServeRequest) {
    d.push(ALGS.iter().position(|a| *a == req.alg).map_or(u64::MAX, |p| p as u64));
    d.push(req.query.k as u64);
    d.push(u64::from(req.query.tau));
    d.push(u64::from(req.query.interval.start()));
    d.push(u64::from(req.query.interval.end()));
    if let ScorerSpec::Linear(w) = &req.scorer {
        w.iter().for_each(|x| d.push(x.to_bits()));
    }
}

fn cluster(data: &Data, sizes: &Sizes, out: &FsPath) -> Result<Cluster, String> {
    let io = |e: std::io::Error| format!("cluster set-up: {e}");
    let half = sizes.n / 2;
    let mut nodes: Vec<Arc<dyn Node>> = Vec::new();
    let (mut remotes, mut serves, mut servers) = (Vec::new(), Vec::new(), Vec::new());
    let (mut layout, mut files) = (Vec::new(), Vec::new());
    for (node, (lo, hi)) in [(0, half - 1), (half, sizes.n - 1)].into_iter().enumerate() {
        // `max_tau` records of left context keep every durability window
        // that ends inside the owned slice exact.
        let ext_lo = lo.saturating_sub(sizes.max_tau);
        let file = out.join(format!("pages_{}_{node}.db", std::process::id()));
        let storage = PagedStorage::create(&file, CACHE_PAGES, 1).map_err(io)?;
        files.push(file);
        let ds = data.dataset(u64::from(ext_lo), u64::from(hi) + 1);
        let engine = EngineConfig::new(DIM, ds.len(), sizes.max_tau)
            .skyband_bound(sizes.k_max)
            .storage(Arc::new(storage))
            .build_from(&ds, sizes.shards)
            .map_err(|e| format!("node build: {e}"))?;
        let serve = serve_over(engine);
        let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
        let server = NodeServer::spawn(
            listener,
            serve.clone(),
            NodeIdentity { base: ext_lo, owned_lo: lo },
            NodeServerOptions::default(),
        )
        .map_err(io)?;
        let addr = server.addr().to_string();
        nodes.push(Arc::new(RemoteNode::connect(addr.clone(), RemoteOptions::default())));
        remotes.push(RemoteNode::connect(addr, RemoteOptions::default()));
        serves.push(serve);
        servers.push(server);
        layout.push((ext_lo, lo, hi));
    }
    let coordinator = Coordinator::new(nodes).map_err(|e| format!("coordinator: {e}"))?;
    Ok(Cluster { coordinator, remotes, serves, servers, layout, files })
}

/// What a traced run keeps about every request.
pub struct Detail {
    pub lat_ns: u64,
    /// Whether spans were recorded around this request.
    pub traced: bool,
    pub queued_ns: u64,
    pub service_ns: u64,
    pub stats: QueryStats,
    pub results: u64,
}

/// A request retained for the correctness gate, with the answer it got.
pub struct Kept {
    pub pos: u64,
    pub req: ServeRequest,
    pub records: Vec<RecordId>,
}

/// Everything one client observed.
#[derive(Default)]
pub struct ClientLog {
    /// Client-observed latencies in issue order.
    pub lat_ns: Vec<u64>,
    pub failed: u64,
    pub first_error: Option<String>,
    pub kept: Vec<Kept>,
    /// Per-request detail, recorded by traced runs only.
    pub details: Vec<Detail>,
    /// `ingest_mixed`: most background seals seen in flight at a request.
    pub pending_seals_max: usize,
}

impl ClientLog {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }
}

/// Shared pacing state of `ingest_mixed`: the appender publishes how many
/// records it appended, the client how many queries it finished.
#[derive(Default)]
pub struct Gate {
    pub appended: AtomicU64,
    queries_done: AtomicU64,
    stop: AtomicBool,
    pub append_failures: AtomicU64,
}

/// Answers retained per client for the correctness gate, at most.
const KEEP_CAP: usize = 40;

/// When the timed phase ends and what it retains.
pub struct Phase {
    pub deadline: Instant,
    /// Requests every client completes even if that takes it past the
    /// deadline. Digests and exact counts are taken inside this prefix only,
    /// so they cover the same requests whatever the machine's speed.
    pub prefix: u64,
    /// Retain every `keep_every`-th request of the prefix (by stream
    /// position, up to [`KEEP_CAP`]) for the correctness gate.
    pub keep_every: u64,
}

/// The closed loop of one client: next request only after the previous
/// answer is in hand. With a tracer, a request records a `request` span and
/// the stages the response reports about itself as its children — every
/// other request only (chosen by hash), so traced and untraced requests
/// interleave on the same engine state and their p50s differ by what
/// recording spans costs.
pub fn client_loop(
    bench: &Bench,
    stream: &mut Stream,
    phase: &Phase,
    gate: Option<&Gate>,
    mut tracer: Option<&mut Tracer>,
    log: &mut ClientLog,
) {
    let mut done = 0u64;
    while done < phase.prefix || Instant::now() < phase.deadline {
        let pos = stream.pos();
        if let Some(gate) = gate {
            // Paced by the published watermark: query `pos` needs
            // `QUERY_EVERY·(pos+1)` appends to have landed.
            while gate.appended.load(Ordering::Acquire) < QUERY_EVERY * (pos + 1) {
                std::thread::yield_now();
            }
        }
        let req = stream.next();
        let mut spans = tracer.as_deref_mut().filter(|_| mix(pos) & 1 == 0);
        let root = spans.as_mut().map(|t| t.enter("request", pos));
        let started = Instant::now();
        let outcome = match (&bench.path, spans.as_mut()) {
            (Path::Cluster(c), Some(t)) => {
                t.enter("net.coordinator.query", pos);
                let outcome = c.coordinator.query(&req).map_err(|e| format!("cluster: {e}"));
                t.exit();
                outcome
            }
            _ => bench.call(&req),
        };
        let lat_ns = started.elapsed().as_nanos() as u64;
        if let Some(t) = spans.as_mut() {
            t.exit();
        }
        log.lat_ns.push(lat_ns);
        done += 1;
        match outcome {
            Err(e) => log.fail(format!("request {pos}: {e}")),
            Ok(resp) => {
                if let Some(reason) = resp.stats.fallback {
                    log.fail(format!("request {pos}: fell back ({reason})"));
                }
                let (queued_ns, service_ns) =
                    (resp.queued.as_nanos() as u64, resp.service.as_nanos() as u64);
                if let (Some(t), Some(root), Path::Serve(_)) = (spans.as_mut(), root, &bench.path) {
                    let end = t.spans[root as usize].end_ns;
                    t.child_ending_at(root, "core.serve.service", end, service_ns);
                    let service_start = t.spans.last().map_or(end, |s| s.start_ns);
                    t.child_ending_at(root, "core.serve.queued", service_start, queued_ns);
                }
                if tracer.is_some() {
                    log.details.push(Detail {
                        lat_ns,
                        traced: root.is_some(),
                        queued_ns,
                        service_ns,
                        stats: resp.stats,
                        results: resp.records.len() as u64,
                    });
                }
                if pos < phase.prefix
                    && pos.is_multiple_of(phase.keep_every)
                    && log.kept.len() < KEEP_CAP
                {
                    log.kept.push(Kept { pos, req, records: resp.records });
                }
            }
        }
        if let (Some(gate), Some(serve)) = (gate, bench.serve()) {
            log.pending_seals_max = log.pending_seals_max.max(serve.engine().pending_seals());
            gate.queries_done.store(pos + 1, Ordering::Release);
        }
    }
    if let Some(gate) = gate {
        gate.stop.store(true, Ordering::Release);
    }
}

/// The appender of `ingest_mixed`: pushes generated records through
/// `ServeEngine::append` until the client stops it, never more than
/// `APPEND_LEAD` queries' worth ahead. Returns the time it spent appending
/// (not waiting); per-append latencies go to `lat_ns` when given.
pub fn appender(
    bench: &Bench,
    gate: &Gate,
    mut lat_ns: Option<&mut Vec<u32>>,
) -> std::time::Duration {
    let serve = bench.serve().expect("ingest_mixed runs on a serve engine");
    let base = u64::from(bench.sizes.n);
    let mut i = gate.appended.load(Ordering::Acquire);
    let mut busy = std::time::Duration::ZERO;
    let mut burst = Instant::now();
    while !gate.stop.load(Ordering::Acquire) {
        if i >= (gate.queries_done.load(Ordering::Acquire) + APPEND_LEAD) * QUERY_EVERY {
            busy += burst.elapsed();
            std::thread::yield_now();
            burst = Instant::now();
            continue;
        }
        let row = bench.data.row(base + i);
        let started = lat_ns.is_some().then(Instant::now);
        if serve.append(&row).is_err() {
            gate.append_failures.fetch_add(1, Ordering::Relaxed);
        }
        if let (Some(lat), Some(started)) = (lat_ns.as_mut(), started) {
            lat.push(started.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
        }
        i += 1;
        gate.appended.store(i, Ordering::Release);
    }
    busy + burst.elapsed()
}

/// Outcome of the correctness gate.
pub struct Verdict {
    pub checked: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub answers_digest: String,
}

/// The correctness gate, run outside every timed phase: each retained
/// answer is checked against brute force on sampled records and against
/// the other two algorithms over the same path; `ingest_mixed` also
/// compares every subscription snapshot with a recompute on the quiesced
/// engine.
pub fn verify(bench: &Bench, logs: &[ClientLog]) -> Verdict {
    let checker = Checker::new(&bench.data, bench.len());
    let mut rng = Rng::new(bench.seed, 0xC4EC);
    let mut digest = Digest::new();
    let mut v = Verdict { checked: 0, failed: 0, first_error: None, answers_digest: String::new() };
    let fail = |v: &mut Verdict, why: String| {
        v.failed += 1;
        v.first_error.get_or_insert(why);
    };
    for kept in logs.iter().flat_map(|log| &log.kept) {
        v.checked += 1;
        digest.push(kept.pos);
        digest.push(kept.records.len() as u64);
        kept.records.iter().for_each(|&id| digest.push(u64::from(id)));
        if let Err(why) = checker.check(&kept.req.scorer, &kept.req.query, &kept.records, &mut rng)
        {
            fail(&mut v, format!("request {}: {why}", kept.pos));
        }
        for alg in ALGS.into_iter().filter(|a| *a != kept.req.alg) {
            let other = ServeRequest { alg, ..kept.req.clone() };
            match bench.call(&other) {
                Ok(resp) if resp.records == kept.records && resp.stats.fallback.is_none() => {}
                Ok(_) => fail(
                    &mut v,
                    format!("request {}: {alg} disagrees with {}", kept.pos, kept.req.alg),
                ),
                Err(e) => fail(&mut v, format!("request {} as {alg}: {e}", kept.pos)),
            }
        }
    }
    if let Some(serve) = bench.serve() {
        serve.quiesce();
        serve.subscription_sync();
        for (id, req) in &bench.subs {
            let want = execute_request(&serve.engine(), req).map(|(records, _)| records);
            match (serve.poll_subscription(*id), want) {
                (Some(snap), Ok(want)) if snap.records == want && !snap.diverged => {}
                _ => fail(&mut v, format!("subscription {id:?} differs from a recompute")),
            }
        }
    }
    v.answers_digest = digest.hex();
    v
}
