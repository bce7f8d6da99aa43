//! `durable-topk` — command-line durable top-k queries over CSV data.
//!
//! ```text
//! durable-topk generate ind --n 100000 --dim 2 --out data.csv
//! durable-topk stats data.csv
//! durable-topk topk data.csv --k 5 --window 1000:2000 --weights 0.7,0.3
//! durable-topk query data.csv --k 10 --tau 5000 --interval 50000:99999 \
//!               --weights 0.7,0.3 --alg shop --durations
//! ```

mod args;

use args::{
    parse_algorithms, parse_nodes, parse_query_algorithms, parse_range_in, parse_result_cache,
    parse_serve, parse_serve_node, parse_spill_after, parse_threads, parse_weights, Args,
    ServeMode, USAGE,
};
use durable_topk::{
    percentile, Algorithm, Backpressure, DurableQuery, EngineConfig, FallbackReason, LinearScorer,
    PagedStorage, QueryStats, ScorerSpec, ServeEngine, ServeError, ServeRequest, ServeResponse,
    ShardedEngine, SubscriptionId, Window, WorkerPool,
};
use durable_topk_net::{
    Coordinator, NetError, Node, NodeIdentity, NodeServer, NodeServerOptions, RemoteNode,
    RemoteOptions,
};
use durable_topk_temporal::{read_csv_file, write_csv_file, Dataset, DatasetStats};
use durable_topk_workloads as workloads;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    let result = match tokens.first().map(String::as_str) {
        None | Some("help" | "--help") => {
            println!("{USAGE}");
            Ok(())
        }
        Some(_) => Args::parse(tokens).and_then(|args| match args.mode.command() {
            "generate" => generate(&args),
            "stats" => stats(&args),
            "topk" => topk(&args),
            "query" => query(&args),
            "serve" => serve(&args),
            // `Args::parse` admits only the table's commands.
            _ => serve_node(&args),
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Reads the input file; a file without records is a load error.
fn load(args: &Args) -> Result<Dataset, String> {
    let path = &args.positional;
    let imp = read_csv_file(path).map_err(|e| format!("{path}: {e}"))?;
    if let Some(cols) = &imp.columns {
        eprintln!(
            "loaded {} records x {} attributes ({})",
            imp.dataset.len(),
            imp.dataset.dim(),
            cols.join(", ")
        );
    } else {
        eprintln!("loaded {} records x {} attributes", imp.dataset.len(), imp.dataset.dim());
    }
    Ok(imp.dataset)
}

/// Renders a query's fallback state as a summary-line suffix.
fn fallback_note(stats: &QueryStats) -> String {
    match stats.fallback {
        None => String::new(),
        Some(reason) => format!(" (fallback: {reason})"),
    }
}

/// Renders a query's fallback state as a sweep-table cell.
fn fallback_cell(stats: &QueryStats) -> &'static str {
    match stats.fallback {
        None => "no",
        Some(FallbackReason::MissingSkybandIndex) => "missing-index",
        Some(FallbackReason::SkybandBoundExceeded) => "k-bound",
        Some(FallbackReason::NonMonotoneScorer) => "non-monotone",
    }
}

/// Shard span of a live engine: a few durability windows per shard keeps
/// sealing amortized while bounding per-shard index size.
fn live_span(tau: u32) -> usize {
    (tau as usize * 4).clamp(1_024, 262_144)
}

/// Translates the CLI's engine flags into one [`EngineConfig`], the one
/// build of every engine: the live modes (`--stream` replay, `serve`,
/// `serve-node`) and the one-shard engine.
fn engine_config(
    dim: usize,
    span: usize,
    tau: u32,
    skyband: Option<usize>,
    spill_after: Option<usize>,
    result_cache: Option<usize>,
) -> Result<EngineConfig, String> {
    let mut cfg = EngineConfig::new(dim, span, tau);
    if let Some(k_max) = skyband {
        cfg = cfg.skyband_bound(k_max);
    }
    if let Some(n) = spill_after {
        let paged =
            PagedStorage::with_temp_file(n).map_err(|e| format!("--spill-after {n}: {e}"))?;
        cfg = cfg.storage(std::sync::Arc::new(paged));
    }
    if let Some(bytes) = result_cache {
        cfg = cfg.result_cache(bytes);
    }
    Ok(cfg)
}

/// The offline engine (`query`, `topk`, the `serve --nodes` reference):
/// one shard over all of `ds`, whose skyband durations are exact over the
/// whole history; `max_tau` bounds only the look-back of appended records.
fn one_shard(ds: &Dataset, max_tau: u32, skyband: Option<usize>) -> Result<ShardedEngine, String> {
    engine_config(ds.dim(), ds.len(), max_tau, skyband, None, None)?
        .build_from(ds, 1)
        .map_err(|e| e.to_string())
}

/// `--weights`, arity-checked against the data; `None` means uniform.
fn weights_for(args: &Args, dim: usize) -> Result<Option<Vec<f64>>, String> {
    let Some(w) = args.get("weights") else { return Ok(None) };
    let weights = parse_weights(w)?;
    if weights.len() != dim {
        return Err(format!(
            "--weights has {} entries but the data has {dim} attributes",
            weights.len()
        ));
    }
    Ok(Some(weights))
}

fn scorer_for(args: &Args, dim: usize) -> Result<LinearScorer, String> {
    Ok(weights_for(args, dim)?.map_or_else(|| LinearScorer::uniform(dim), LinearScorer::new))
}

fn generate(args: &Args) -> Result<(), String> {
    let family = &args.positional;
    let n: usize = args.parse_or("n", 100_000)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let out = args.require("out")?;
    let (ds, header): (Dataset, Option<Vec<&str>>) = match family.as_str() {
        "ind" => {
            let dim: usize = args.parse_or("dim", 2)?;
            (workloads::ind(n, dim, seed), None)
        }
        "anti" => (workloads::anti(n, seed), None),
        "nba" => (workloads::nba_like(n, seed), Some(workloads::NBA_ATTRIBUTES.to_vec())),
        "network" => (workloads::network_like(n, seed), None),
        other => return Err(format!("unknown family {other:?}")),
    };
    write_csv_file(out, &ds, header.as_deref()).map_err(|e| format!("{out}: {e}"))?;
    eprintln!("wrote {} records x {} attributes to {out}", ds.len(), ds.dim());
    Ok(())
}

fn stats(args: &Args) -> Result<(), String> {
    let ds = load(args)?;
    print!("{}", DatasetStats::compute(&ds));
    Ok(())
}

fn topk(args: &Args) -> Result<(), String> {
    let ds = load(args)?;
    let k: usize = args.positive("k", 10)?;
    let (a, b) = parse_range_in("window", args.require("window")?, ds.len())?;
    let scorer = scorer_for(args, ds.dim())?;
    let result = one_shard(&ds, 1, None)?.top_k(&scorer, k, Window::new(a, b));
    println!("top-{k} of [{a}, {b}] (ties of the k-th score included):");
    for (id, score) in result.items {
        println!("  t={id}  score={score:.6}  attrs={:?}", ds.row(id));
    }
    Ok(())
}

fn query(args: &Args) -> Result<(), String> {
    let ds = load(args)?;
    let n = ds.len() as u32;
    let k: usize = args.positive("k", 10)?;
    let tau: u32 = args.positive("tau", (n / 10).max(1))?;
    let interval = match args.get("interval") {
        Some(r) => {
            let (a, b) = parse_range_in("interval", r, ds.len())?;
            Window::new(a, b.min(n - 1))
        }
        None => Window::new(0, n - 1),
    };
    let algs = parse_query_algorithms(args)?;
    let scorer = scorer_for(args, ds.dim())?;
    let limit: usize = args.parse_or("limit", 50)?;
    let q = DurableQuery { k, tau, interval };
    if args.has("stream") {
        return stream_replay(args, &ds, algs[0], &scorer, &q, limit);
    }
    let threads = parse_threads(args)?;
    let lookahead = args.has("lookahead");

    // Look-ahead queries run on an engine over the reversed history.
    let skyband = algs.contains(&Algorithm::SBand).then_some(k);
    let engine = if lookahead {
        one_shard(&ds.reversed(), tau, skyband)
    } else {
        one_shard(&ds, tau, skyband)
    }?;

    if algs.len() > 1 {
        return sweep(&engine, &algs, &scorer, &q, threads);
    }
    let alg = algs[0];
    let started = std::time::Instant::now();
    let result = if lookahead {
        engine.query_lookahead(alg, &scorer, &q)
    } else {
        engine.query(alg, &scorer, &q)
    };
    let elapsed = started.elapsed();

    println!(
        "{} durable records (k={k}, tau={tau}, I={interval}, {}) in {:.2?} — {} top-k queries{}",
        result.records.len(),
        if lookahead { "look-ahead" } else { "look-back" },
        elapsed,
        result.stats.topk_queries(),
        fallback_note(&result.stats),
    );
    for &id in result.records.iter().take(limit) {
        let score = durable_topk::Scorer::score(&scorer, ds.row(id));
        if args.has("durations") {
            let (dur, _) = engine.max_duration(&scorer, if lookahead { n - 1 - id } else { id }, k);
            println!("  t={id}  score={score:.6}  max-duration={dur}  attrs={:?}", ds.row(id));
        } else {
            println!("  t={id}  score={score:.6}  attrs={:?}", ds.row(id));
        }
    }
    if result.records.len() > limit {
        println!("  … {} more (raise --limit)", result.records.len() - limit);
    }
    Ok(())
}

/// Replays the dataset record by record into a live [`ShardedEngine`]
/// (`--stream`), interleaving appends with progress queries and finishing
/// with the full query — the ingestion-time view of the same answer the
/// offline path computes at rest.
fn stream_replay(
    args: &Args,
    ds: &Dataset,
    alg: Algorithm,
    scorer: &LinearScorer,
    q: &DurableQuery,
    limit: usize,
) -> Result<(), String> {
    let n = ds.len();
    let every: usize = args.positive("every", (n / 10).max(1))?;
    let (spill_after, cache) = (parse_spill_after(args)?, parse_result_cache(args)?);
    let skyband = (alg == Algorithm::SBand).then_some(q.k);
    let mut engine = engine_config(ds.dim(), live_span(q.tau), q.tau, skyband, spill_after, cache)?
        .build()
        .map_err(|e| e.to_string())?;

    let started = std::time::Instant::now();
    for id in 0..n as u32 {
        engine.append(ds.row(id));
        let ingested = id as usize + 1;
        if ingested % every == 0 && ingested < n && (q.interval.start() as usize) < ingested {
            let prefix = DurableQuery {
                k: q.k,
                tau: q.tau,
                interval: Window::new(q.interval.start(), q.interval.end().min(id)),
            };
            let r = engine.query(alg, scorer, &prefix);
            println!(
                "  t={ingested:>9}: {:>6} durable so far ({} sealed shards, {} top-k queries)",
                r.records.len(),
                engine.sealed_shards(),
                r.stats.topk_queries(),
            );
        }
    }
    let ingest = started.elapsed();
    println!(
        "ingested {n} records in {ingest:.2?} ({:.0} appends/s) across {} shards",
        n as f64 / ingest.as_secs_f64().max(1e-9),
        engine.shard_count(),
    );

    let started = std::time::Instant::now();
    let result = engine.query(alg, scorer, q);
    let elapsed = started.elapsed();
    if spill_after.is_some() {
        let st = engine.storage().stats();
        println!(
            "storage: {} sealed chunks ({} resident, {} spilled), {} cold fetches, \
             {} cold page reads",
            st.chunks, st.resident_chunks, st.spilled_chunks, st.cold_fetches, st.cold_page_reads,
        );
    }
    if let Some(cache) = engine.result_cache() {
        let cs = cache.stats();
        println!(
            "result cache: cache-hits={} cache-misses={} cache-evictions={} cache-bytes={} \
             entries={}",
            cs.hits, cs.misses, cs.evictions, cs.resident_bytes, cs.entries,
        );
    }
    println!(
        "{} durable records (k={}, tau={}, I={}, {alg}) in {elapsed:.2?} — {} top-k queries{}",
        result.records.len(),
        q.k,
        q.tau,
        q.interval,
        result.stats.topk_queries(),
        fallback_note(&result.stats),
    );
    for &id in result.records.iter().take(limit) {
        println!(
            "  t={id}  score={:.6}  attrs={:?}",
            durable_topk::Scorer::score(scorer, ds.row(id)),
            ds.row(id)
        );
    }
    if result.records.len() > limit {
        println!("  … {} more (raise --limit)", result.records.len() - limit);
    }
    Ok(())
}

/// The mode-specific ends of the summary.
struct Report {
    /// Everything after "N verified, " on the first line.
    counts: String,
    /// Appended to the latency line.
    latency: String,
    /// Further lines, printed as they are.
    lines: Vec<String>,
}

/// What the replay's clients talk to — everything in which the two `serve`
/// modes differ: the in-process serve queue with its live appender and
/// subscriptions ([`QueueTarget`]) or a coordinator over remote nodes
/// ([`ClusterTarget`]).
trait ReplayTarget: Sync {
    /// Records safely queryable right now: queries only look backwards, so
    /// any interval ending before this watermark gets the same answer no
    /// matter how far ingestion has advanced.
    fn watermark(&self) -> u32;

    /// Sends one request and waits for its answer; `Ok(None)` when a full
    /// queue shed it.
    fn request(&self, req: &ServeRequest) -> Result<Option<ServeResponse>, String>;

    /// The main thread's part while the clients run.
    fn drive(&self) -> Result<(), String> {
        Ok(())
    }

    /// Runs once every client is done: brings the target to rest so
    /// [`reference`](ReplayTarget::reference) is stable, and checks
    /// whatever else the mode promised.
    fn settle(&self) -> Result<(), String> {
        Ok(())
    }

    /// The answer `req` must have received, from the mode's reference.
    fn reference(&self, req: &ServeRequest) -> Result<Vec<u32>, String>;

    /// The mode-specific parts of the summary.
    fn report(&self, rejected: usize, fallbacks: usize) -> Report;
}

/// The deterministic sweep both modes replay.
struct Sweep {
    k: usize,
    tau: u32,
    algs: Vec<Algorithm>,
    spec: ScorerSpec,
    clients: usize,
    requests: usize,
}

/// Replays a mixed workload (`serve`): resolves the arguments, then drives
/// the same client storm at the serve queue of a live in-process engine
/// or, with `--nodes`, at a scatter-gather coordinator.
fn serve(args: &Args) -> Result<(), String> {
    let nodes = parse_nodes(args)?;
    let ds = load(args)?;
    let k: usize = args.positive("k", 10)?;
    let tau: u32 = args.positive("tau", ((ds.len() as u32) / 10).max(1))?;
    let algs = parse_algorithms(args.get_or("alg", "all"))?;
    let mode = parse_serve(args)?;
    let scorer = scorer_for(args, ds.dim())?;
    let spec = weights_for(args, ds.dim())?.map_or(ScorerSpec::Uniform, ScorerSpec::Linear);
    let sweep = Sweep { k, tau, algs, spec, clients: mode.clients, requests: mode.requests };
    match nodes {
        Some(nodes) => replay(&sweep, &ClusterTarget::connect(&nodes, &ds, scorer, &sweep)?),
        None => replay(&sweep, &QueueTarget::start(args, &ds, scorer, &sweep, mode)?),
    }
}

/// The client storm, its verification and its summary — once, for both
/// modes: client threads send requests with parameters varied
/// deterministically around `--k`/`--tau`, a sample of the answers is
/// re-checked against the target's reference, and the summary prints
/// throughput and latency percentiles.
fn replay(sweep: &Sweep, target: &impl ReplayTarget) -> Result<(), String> {
    let per_client = sweep.requests.div_ceil(sweep.clients);
    let started = Instant::now();
    type Sample = (ServeRequest, Vec<u32>);
    let (mut latencies, samples, rejected, fallbacks) = std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for c in 0..sweep.clients {
            clients.push(scope.spawn(move || {
                let mut latencies = Vec::with_capacity(per_client);
                let mut samples: Vec<Sample> = Vec::new();
                let mut rejected = 0usize;
                let mut fallbacks = 0usize;
                // The last client takes the remainder so exactly
                // --requests are issued overall.
                for i in (c * per_client)..((c + 1) * per_client).min(sweep.requests) {
                    let upto = target.watermark();
                    // Deterministic parameter sweep around --k/--tau, with
                    // the interval always inside the published watermark.
                    let b = (i as u32).wrapping_mul(7919) % upto;
                    let a = b.saturating_sub(1 + (i as u32).wrapping_mul(104_729) % upto);
                    let req = ServeRequest {
                        alg: sweep.algs[i % sweep.algs.len()],
                        query: DurableQuery {
                            k: 1 + i % sweep.k,
                            tau: 1 + (i as u32).wrapping_mul(31) % sweep.tau,
                            interval: Window::new(a, b),
                        },
                        scorer: sweep.spec.clone(),
                    };
                    match target.request(&req).map_err(|e| format!("request {i} {e}"))? {
                        Some(response) => {
                            latencies.push(response.queued + response.service);
                            fallbacks += usize::from(response.stats.is_fallback());
                            if i % 50 == 0 {
                                samples.push((req, response.records));
                            }
                        }
                        None => rejected += 1,
                    }
                }
                Ok::<_, String>((latencies, samples, rejected, fallbacks))
            }));
        }
        target.drive()?;
        let mut latencies = Vec::new();
        let mut samples = Vec::new();
        let mut rejected = 0usize;
        let mut fallbacks = 0usize;
        for client in clients {
            let (lat, smp, rej, fbk) = client.join().map_err(|_| "client thread panicked")??;
            latencies.extend(lat);
            samples.extend(smp);
            rejected += rej;
            fallbacks += fbk;
        }
        Ok::<_, String>((latencies, samples, rejected, fallbacks))
    })?;
    let elapsed = started.elapsed();

    // Exactness spot-check: served answers must match the reference record
    // for record — neither the ingestion race nor the partitioning shows.
    target.settle()?;
    for (req, records) in &samples {
        let direct = target.reference(req)?;
        if &direct != records {
            return Err(format!(
                "served answer diverged from the reference for {req:?}: {} vs {} records",
                records.len(),
                direct.len()
            ));
        }
    }

    latencies.sort_unstable();
    let report = target.report(rejected, fallbacks);
    // `fallbacks=` is machine-checked by the CI serve smokes: with a
    // skyband bound covering the sweep, any nonzero count means an index
    // went missing somewhere on the ingestion timeline or on some node.
    println!(
        "served {} requests in {elapsed:.2?} ({:.0} req/s) — {} verified, {}",
        latencies.len(),
        latencies.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        samples.len(),
        report.counts,
    );
    println!(
        "latency p50={:.2?} p99={:.2?} max={:.2?}{}",
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
        latencies.last().copied().unwrap_or_default(),
        report.latency,
    );
    for line in report.lines {
        println!("{line}");
    }
    Ok(())
}

/// Single-process `serve`: the bounded request queue over a live engine
/// whose tail is appended while the clients run (exercising shard seals
/// under load), plus `--subscribe` standing queries kept
/// current by those appends.
struct QueueTarget<'a> {
    serving: ServeEngine,
    ds: &'a Dataset,
    /// Records appended before the clients start; the rest arrive live.
    base: usize,
    appended: AtomicU32,
    scorer: LinearScorer,
    subs: Vec<(SubscriptionId, ServeRequest)>,
    queue_cap: usize,
}

impl<'a> QueueTarget<'a> {
    fn start(
        args: &Args,
        ds: &'a Dataset,
        scorer: LinearScorer,
        sweep: &Sweep,
        mode: ServeMode,
    ) -> Result<Self, String> {
        let n = ds.len();
        let (k, tau) = (sweep.k, sweep.tau);
        // Withhold the tail for live ingestion; keep at least one record in
        // the base so the queue has something to serve from the first request.
        let ingest = mode.ingest.unwrap_or(n / 10).min(n - 1);
        let base = n - ingest;
        let skyband = sweep.algs.contains(&Algorithm::SBand).then_some(k);
        let mut engine = engine_config(
            ds.dim(),
            live_span(tau),
            tau,
            skyband,
            parse_spill_after(args)?,
            parse_result_cache(args)?,
        )?
        .build()
        .map_err(|e| e.to_string())?;
        for id in 0..base {
            engine.append(ds.row(id as u32));
        }
        let backpressure = if mode.reject { Backpressure::Reject } else { Backpressure::Block };
        let serving = ServeEngine::new(engine, mode.queue_cap, backpressure);
        eprintln!(
            "serving {} base records, ingesting {ingest} live; {} clients x {} requests, \
             queue capacity {} ({})",
            base,
            mode.clients,
            mode.requests,
            mode.queue_cap,
            if mode.reject { "reject when full" } else { "block when full" },
        );

        // Standing queries: registered before the storm, kept current by the
        // live appends, verified against full recomputes at every shard seal
        // and re-checked against the settled engine at the end.
        let mut subs = Vec::new();
        for s in 0..mode.subscribe {
            let req = ServeRequest {
                alg: Algorithm::THop,
                query: DurableQuery {
                    k: 1 + s % k,
                    tau: 1 + (s as u32).wrapping_mul(13) % tau,
                    interval: Window::new((s as u32).wrapping_mul(97) % (base as u32), u32::MAX),
                },
                scorer: sweep.spec.clone(),
            };
            let id = serving
                .subscribe_verified(req.clone())
                .map_err(|e| format!("subscription {s} rejected: {e}"))?;
            subs.push((id, req));
        }
        if mode.subscribe > 0 {
            eprintln!("registered {} standing subscriptions", mode.subscribe);
        }
        let appended = AtomicU32::new(base as u32);
        Ok(Self { serving, ds, base, appended, scorer, subs, queue_cap: mode.queue_cap })
    }
}

impl ReplayTarget for QueueTarget<'_> {
    fn watermark(&self) -> u32 {
        self.appended.load(Ordering::Acquire)
    }

    fn request(&self, req: &ServeRequest) -> Result<Option<ServeResponse>, String> {
        match self.serving.submit(req.clone()) {
            Ok(handle) => handle.wait().map(Some).map_err(|e| format!("failed: {e}")),
            Err(ServeError::QueueFull) => Ok(None),
            Err(e) => Err(format!("not accepted: {e}")),
        }
    }

    /// The ingestion side: append the withheld tail while the clients
    /// hammer the queue.
    fn drive(&self) -> Result<(), String> {
        for id in self.base..self.ds.len() {
            self.serving
                .append(self.ds.row(id as u32))
                .map_err(|e| format!("append {id} failed: {e}"))?;
            self.appended.store(id as u32 + 1, Ordering::Release);
        }
        Ok(())
    }

    fn settle(&self) -> Result<(), String> {
        self.serving.shutdown();
        // Every standing subscription must now hold exactly what a full
        // recompute over its interval yields — no drift allowed.
        for (sid, req) in &self.subs {
            let snap = self
                .serving
                .poll_subscription(*sid)
                .ok_or("registered subscription disappeared")?;
            if snap.diverged {
                return Err(format!("subscription {sid:?} diverged from its seal verification"));
            }
            let last = (self.ds.len() - 1) as u32;
            let full = DurableQuery {
                interval: Window::new(req.query.interval.start(), last),
                ..req.query
            };
            let direct = self.reference(&ServeRequest { query: full, ..req.clone() })?;
            if snap.records != direct {
                return Err(format!(
                    "subscription {sid:?} diverged from recompute: {} vs {} records",
                    snap.records.len(),
                    direct.len()
                ));
            }
        }
        Ok(())
    }

    /// A direct query against the (by now settled) engine.
    fn reference(&self, req: &ServeRequest) -> Result<Vec<u32>, String> {
        let direct = self.serving.engine().try_query(req.alg, &self.scorer, &req.query);
        direct.map(|r| r.records).map_err(|e| format!("verification query failed: {e}"))
    }

    fn report(&self, rejected: usize, fallbacks: usize) -> Report {
        let stats = self.serving.stats();
        let per_request =
            |total: Duration| total.checked_div(stats.completed.max(1) as u32).unwrap_or_default();
        // `cache-hits=` is grepped nonzero by the CI smoke when the result
        // cache is on: the deterministic sweep revisits sealed shards.
        let counts = format!(
            "{rejected} rejected, fallbacks={fallbacks}, cold-page-hits={}, cache-hits={} \
             cache-misses={} cache-evictions={} cache-bytes={}, subs={} refreshes={} \
             fast-path-skips={} full-recomputes={}",
            stats.cold_page_hits,
            stats.cache_hits,
            stats.cache_misses,
            stats.cache_evictions,
            stats.cache_bytes,
            stats.subscriptions,
            stats.refreshes,
            stats.fast_path_skips,
            stats.full_recomputes,
        );
        let latency = format!(
            "; queue high-water {} of {}; refresh high-water {}; avg queued {:.2?}, \
             avg service {:.2?}",
            stats.max_depth,
            self.queue_cap,
            stats.max_refresh_inflight,
            per_request(stats.total_queued),
            per_request(stats.total_service),
        );
        // Lock-tracking stats: nothing in release builds (tracking off),
        // the checker's acquisition count and deepest nesting in debug runs.
        let check = durable_topk::check::report();
        let lock_check = check.enabled.then(|| {
            format!(
                "lock-check: tracked-acquisitions={} max-held-depth={}",
                check.tracked_acquisitions, check.max_held_depth
            )
        });
        // Resident bytes by structure (sealed + head skyband); the CI smoke
        // greps `skyband=` nonzero.
        let mib = |bytes: usize| bytes as f64 / (1 << 20) as f64;
        let usage = self.serving.engine().memory_usage();
        let memory = format!(
            "memory: records={:.2}MiB trees={:.2}MiB skyband={:.2}+{:.2}MiB cache={:.2}MiB",
            mib(usage.records),
            mib(usage.trees),
            mib(usage.skyband_sealed),
            mib(usage.skyband_head),
            mib(usage.result_cache),
        );
        Report { counts, latency, lines: [memory].into_iter().chain(lock_check).collect() }
    }
}

/// `serve --nodes`: a query-only storm through the scatter-gather
/// coordinator, answered by remote nodes instead of an in-process queue,
/// re-checked against a local one-shard engine over the same file.
struct ClusterTarget {
    coordinator: Coordinator,
    reference: ShardedEngine,
    scorer: LinearScorer,
}

impl ClusterTarget {
    fn connect(
        nodes: &[String],
        ds: &Dataset,
        scorer: LinearScorer,
        sweep: &Sweep,
    ) -> Result<Self, String> {
        let coordinator = connect_cluster(nodes)?;
        let (n, total) = (ds.len(), coordinator.total_len());
        if total != n {
            return Err(format!(
                "cluster covers {total} records but the file holds {n}; \
                 every node must serve a slice of the same file"
            ));
        }
        let (tau, cluster_tau) = (sweep.tau, coordinator.cluster_max_tau());
        if tau > cluster_tau {
            return Err(format!(
                "--tau {tau} exceeds the cluster's exactness bound {cluster_tau} \
                 (restart the nodes with a larger --tau)"
            ));
        }
        eprintln!(
            "cluster of {} nodes covering {total} records (max tau {cluster_tau}); \
             {} clients x {} requests",
            nodes.len(),
            sweep.clients,
            sweep.requests,
        );
        // The reference answers come from a local one-shard engine over
        // the same file — the cluster must agree with it bit for bit.
        let skyband = sweep.algs.contains(&Algorithm::SBand).then_some(sweep.k);
        let reference = one_shard(ds, tau, skyband)?;
        Ok(Self { coordinator, reference, scorer })
    }
}

impl ReplayTarget for ClusterTarget {
    fn watermark(&self) -> u32 {
        self.reference.len() as u32
    }

    fn request(&self, req: &ServeRequest) -> Result<Option<ServeResponse>, String> {
        self.coordinator.query(req).map(Some).map_err(|e| format!("failed: {e}"))
    }

    fn reference(&self, req: &ServeRequest) -> Result<Vec<u32>, String> {
        Ok(self.reference.query(req.alg, &self.scorer, &req.query).records)
    }

    fn report(&self, _rejected: usize, fallbacks: usize) -> Report {
        let stats = self.coordinator.stats();
        let retries: u64 = stats.nodes.iter().map(|node| node.net_retries).sum();
        // The per-node `requests=` counts are machine-checked by the CI
        // multi-node smoke.
        let lines = stats.nodes.iter().enumerate().map(|(i, node)| {
            format!(
                "node[{i}] {} requests={} errors={} net-retries={} p50={:.2?} p99={:.2?}",
                node.label, node.requests, node.errors, node.net_retries, node.p50, node.p99,
            )
        });
        Report {
            counts: format!(
                "fallbacks={fallbacks}, nodes={} net-retries={retries}",
                stats.nodes.len()
            ),
            latency: String::new(),
            lines: lines.collect(),
        }
    }
}

/// Hosts one contiguous slice of the file behind the TCP wire protocol
/// (`serve-node`): builds a sharded engine over rows `[A − tau, B]` (the
/// extra `tau` rows are the left context that keeps every owned
/// durability window exact), then serves query/stats/ranges frames until
/// killed.
fn serve_node(args: &Args) -> Result<(), String> {
    let mode = parse_serve_node(args)?;
    let ds = load(args)?;
    let n = ds.len() as u32;
    let (lo, hi) = mode.range;
    if hi >= n {
        return Err(format!("--range end {hi} is past the last record {}", n - 1));
    }
    let k: usize = args.positive("k", 10)?;
    let tau: u32 = args.positive("tau", (n / 10).max(1))?;
    let ext_lo = lo.saturating_sub(tau);
    let slice = Dataset::from_rows(ds.dim(), (ext_lo..=hi).map(|id| ds.row(id).to_vec()));
    let span = live_span(tau);
    let engine = engine_config(ds.dim(), span, tau, Some(k), None, None)?
        .build_from(&slice, (slice.len() / span).max(1))
        .map_err(|e| e.to_string())?;
    let serving = ServeEngine::new(engine, 256, Backpressure::Block);
    let listener = std::net::TcpListener::bind(&mode.listen)
        .map_err(|e| format!("--listen {}: {e}", mode.listen))?;
    let identity = NodeIdentity { base: ext_lo, owned_lo: lo };
    let server = NodeServer::spawn(listener, serving, identity, NodeServerOptions::default())
        .map_err(|e| format!("node server: {e}"))?;
    // Stderr so the readiness line is visible immediately even when stdout
    // is piped (block-buffered) by a harness.
    eprintln!(
        "node listening on {} — owns [{lo}, {hi}], context from {ext_lo}, tau {tau}, k bound {k}",
        server.addr()
    );
    loop {
        std::thread::park();
    }
}

/// Builds the coordinator over `--nodes`, retrying while the node
/// processes finish starting up; only transport errors retry.
fn connect_cluster(nodes: &[String]) -> Result<Coordinator, String> {
    let members: Vec<std::sync::Arc<dyn Node>> = nodes
        .iter()
        .map(|addr| {
            std::sync::Arc::new(RemoteNode::connect(addr.clone(), RemoteOptions::default()))
                as std::sync::Arc<dyn Node>
        })
        .collect();
    let mut attempt = 0u32;
    loop {
        match Coordinator::new(members.clone()) {
            Ok(c) => return Ok(c),
            Err(e @ (NetError::Io { .. } | NetError::Wire(_))) if attempt < 40 => {
                attempt += 1;
                if attempt == 1 {
                    eprintln!("waiting for nodes to come up ({e})");
                }
                std::thread::sleep(Duration::from_millis(250));
            }
            Err(e) => return Err(format!("cluster: {e}")),
        }
    }
}

/// Runs the same query under every algorithm in parallel on the worker pool
/// and prints a comparison table (`--alg all`).
fn sweep(
    engine: &ShardedEngine,
    algs: &[Algorithm],
    scorer: &LinearScorer,
    q: &DurableQuery,
    threads: usize,
) -> Result<(), String> {
    let pool = WorkerPool::global();
    let threads = if threads == 0 { pool.threads() } else { threads }.min(algs.len());
    let started = std::time::Instant::now();
    let results = pool.run_jobs(algs.len(), threads, |i, _ctx| engine.query(algs[i], scorer, q));
    let elapsed = started.elapsed();
    println!(
        "{} durable records (k={}, tau={}, I={}) — {} algorithms on {} threads in {:.2?}",
        results.first().map_or(0, |r| r.records.len()),
        q.k,
        q.tau,
        q.interval,
        algs.len(),
        threads,
        elapsed,
    );
    println!(
        "{:<8} {:>14} {:>12} {:>12} {:>13}",
        "alg", "topk-queries", "checks", "candidates", "fallback"
    );
    for (alg, r) in algs.iter().zip(&results) {
        println!(
            "{:<8} {:>14} {:>12} {:>12} {:>13}",
            alg.to_string(),
            r.stats.topk_queries(),
            r.stats.durability_checks,
            r.stats.candidates,
            fallback_cell(&r.stats),
        );
        if r.records != results[0].records {
            return Err(format!("answer mismatch: {alg} disagrees with {}", algs[0]));
        }
    }
    Ok(())
}
