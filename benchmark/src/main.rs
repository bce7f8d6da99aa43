//! `dtk-bench`: one run of one workload.
//!
//! ```text
//! dtk-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out <dir>]
//! ```
//!
//! With `--trace 0` the run sets the workload up (three times, reporting
//! the median), drives it closed-loop for `--seconds`, checks answers, and
//! prints the end-to-end metrics. With `--trace 1` it uses one client,
//! records spans around its own calls into the program, probes each layer
//! directly, and prints the per-layer metrics. Either way the last stdout
//! line is one JSON object `{correct, attempted, failed, metrics}` and the
//! full record (provenance, digests, sample counts) lands in `--out`.

mod check;
mod gen;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use metrics::{Layers, END_TO_END, PER_LAYER};
use stats::{median, quantile_of, sliced_quantile, supported_tail};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{
    appender, client_loop, verify, Bench, ClientLog, Gate, Kind, Phase, Stream, KINDS,
};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kind: Kind::Adhoc,
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = matches!(value.as_str(), "1" | "true"),
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let names: Vec<&str> = KINDS.iter().map(|k| k.name()).collect();
    args.kind = workload.ok_or_else(|| format!("--workload is one of {}", names.join(", ")))?;
    if !(args.seconds > 0.0 && args.seconds <= 3_600.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// What the timed phase measured besides the client logs.
struct PhaseOutcome {
    wall: Duration,
    /// `ingest_mixed`: records appended and the time the appender spent
    /// appending (not waiting for the client).
    appended: u64,
    append_busy: Duration,
}

/// Runs the timed phase: every client closed-loop on its own thread, the
/// appender beside them for `ingest_mixed`.
fn run_phase(
    bench: &Bench,
    phase: &Phase,
    streams: &mut [Stream],
    logs: &mut [ClientLog],
    gate: &Gate,
    mut tracer: Option<&mut Tracer>,
    append_lat: Option<&mut Vec<u32>>,
) -> PhaseOutcome {
    let paced = (bench.kind == Kind::Ingest).then_some(gate);
    let started = Instant::now();
    let mut append_busy = Duration::ZERO;
    std::thread::scope(|scope| {
        let feeder = paced.map(|gate| scope.spawn(move || appender(bench, gate, append_lat)));
        let clients: Vec<_> = streams
            .iter_mut()
            .zip(logs.iter_mut())
            .map(|(stream, log)| {
                let tracer = tracer.take();
                scope.spawn(move || client_loop(bench, stream, phase, paced, tracer, log))
            })
            .collect();
        for client in clients {
            client.join().expect("client thread panicked");
        }
        if let Some(feeder) = feeder {
            append_busy = feeder.join().expect("appender thread panicked");
        }
    });
    PhaseOutcome {
        wall: started.elapsed(),
        appended: gate.appended.load(Ordering::Acquire),
        append_busy,
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|l| l.strip_prefix("model name").map(|r| r.trim_start_matches([' ', '\t', ':'])))
        .unwrap_or("unknown")
        .to_string()
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: non-finite values (an unmeasured ratio) read `0`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// One run's results, ready to print.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra provenance fields, already JSON-encoded.
    extra: Vec<(&'static str, String)>,
}

impl Report {
    fn metrics_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The contract line: exactly `correct`, `attempted`, `failed`, `metrics`.
    fn contract_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    /// The full record written to `--out`.
    fn record(&self, args: &Args) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"workload\": {}, \"trace\": {}, \"seed\": {}, \"seconds\": {}, \"quick\": {}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"error_rate\": {}, \
             \"git_rev\": {}, \"rustc\": {}, \"nproc\": {}, \"cpu_model\": {}",
            json_str(args.kind.name()),
            u8::from(args.trace),
            args.seed,
            json_num(args.seconds),
            args.quick,
            self.correct,
            self.attempted,
            self.failed,
            json_num(self.failed as f64 / self.attempted.max(1) as f64),
            json_str(&std::env::var("BENCH_GIT_REV").unwrap_or_else(|_| "unknown".into())),
            json_str(&std::env::var("BENCH_RUSTC").unwrap_or_else(|_| "unknown".into())),
            std::thread::available_parallelism().map_or(0, |p| p.get()),
            json_str(&cpu_model()),
        );
        for (key, value) in &self.extra {
            let _ = write!(s, ", {}: {value}", json_str(key));
        }
        let _ = write!(s, ", \"metrics\": {}}}", self.metrics_json());
        s
    }

    fn write(&self, args: &Args) -> Result<(), String> {
        let stem = format!("{}.trace{}", args.kind.name(), u8::from(args.trace));
        let io = |e: std::io::Error| format!("writing results: {e}");
        std::fs::write(args.out.join(format!("{stem}.json")), self.record(args) + "\n")
            .map_err(io)?;
        let mut tsv = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(tsv, "{}\t{name}\t{}\t{unit}", args.kind.name(), json_num(*value));
        }
        std::fs::write(args.out.join(format!("{stem}.tsv")), tsv).map_err(io)
    }
}

/// The correctness gate retains every 25th request of the prefix (every
/// 10th in a `--quick` run, whose prefix is a tenth as long).
fn keep_every(quick: bool) -> u64 {
    if quick {
        10
    } else {
        25
    }
}

fn fresh_logs(bench: &Bench, clients: usize) -> (Vec<Stream>, Vec<ClientLog>) {
    (
        (0..clients as u64).map(|c| bench.stream(c)).collect(),
        (0..clients).map(|_| ClientLog::default()).collect(),
    )
}

/// Folds the logs' and the gate's failures with the correctness gate's.
fn tally(
    logs: &[ClientLog],
    gate: &Gate,
    verdict: &workloads::Verdict,
) -> (u64, u64, Option<String>) {
    let requests: u64 = logs.iter().map(|l| l.lat_ns.len() as u64).sum();
    let appends = gate.appended.load(Ordering::Acquire);
    let failed = logs.iter().map(|l| l.failed).sum::<u64>()
        + gate.append_failures.load(Ordering::Relaxed)
        + verdict.failed;
    let why =
        logs.iter().find_map(|l| l.first_error.clone()).or_else(|| verdict.first_error.clone());
    (requests + appends, failed, why)
}

/// The untraced run: end-to-end metrics.
fn run_untraced(args: &Args) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        // One engine alive at a time, so set-up repeats do not add up in
        // the peak resident set.
        drop(bench.take());
        let started = Instant::now();
        bench = Some(Bench::setup(args.kind, args.seed, args.quick, &args.out)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let bench = bench.expect("set up at least once");
    let (mut streams, mut logs) = fresh_logs(&bench, args.kind.clients());
    let gate = Gate::default();
    let phase = Phase {
        deadline: Instant::now() + Duration::from_secs_f64(args.seconds),
        // Half of what the slowest workload completes in a full run.
        prefix: if args.quick { 100 } else { 1_000 },
        keep_every: keep_every(args.quick),
    };
    let outcome = run_phase(&bench, &phase, &mut streams, &mut logs, &gate, None, None);
    // Read before the correctness gate materializes its own copy of the data.
    let rss = peak_rss_mb();
    let inputs_digest = bench.inputs_digest();
    let verdict = verify(&bench, &logs);
    let (attempted, failed, why) = tally(&logs, &gate, &verdict);
    if let Some(why) = &why {
        eprintln!("dtk-bench: first failure: {why}");
    }

    let series: Vec<&[u64]> = logs.iter().map(|l| l.lat_ns.as_slice()).collect();
    let all: Vec<u64> = series.concat();
    let good = all.len() as u64 - logs.iter().map(|l| l.failed).sum::<u64>().min(all.len() as u64);
    let values = [
        median(&mut setups.clone()),
        good as f64 / outcome.wall.as_secs_f64(),
        quantile_of(&all, 0.5) / 1e6,
        sliced_quantile(&series, 0.99) / 1e6,
        rss,
    ];
    let metrics = END_TO_END.iter().zip(values).map(|((n, u), v)| (*n, v, *u)).collect();
    let setup_list: Vec<String> = setups.iter().map(|s| json_num(*s)).collect();
    Ok(Report {
        correct: failed == 0 && verdict.checked > 0,
        attempted,
        failed,
        metrics,
        extra: vec![
            ("clients", args.kind.clients().to_string()),
            ("requests", all.len().to_string()),
            ("appends", outcome.appended.to_string()),
            ("checked_requests", verdict.checked.to_string()),
            ("timed_wall_s", json_num(outcome.wall.as_secs_f64())),
            ("setup_samples_s", format!("[{}]", setup_list.join(", "))),
            ("tail_supported", json_num(supported_tail(all.len()))),
            ("inputs_digest", json_str(&inputs_digest)),
            ("answers_digest", json_str(&verdict.answers_digest)),
        ],
    })
}

/// Requests of the traced phase whose counts the per-layer metrics report
/// exactly (the phase always completes at least this many).
fn counted_requests(kind: Kind, quick: bool) -> usize {
    let full = match kind {
        Kind::Adhoc | Kind::Ingest => 300,
        Kind::Panel => 3_000,
        Kind::Cluster => 1_500,
    };
    if quick {
        full / 10
    } else {
        full
    }
}

/// The traced run: one client, spans, direct layer probes.
fn run_traced(args: &Args) -> Result<Report, String> {
    let epoch = Instant::now();
    let bench = Bench::setup(args.kind, args.seed, args.quick, &args.out)?;
    let setup_s = epoch.elapsed().as_secs_f64();
    let mut l = Layers::default();
    l.set("harness.setup_s", setup_s);
    let (mut streams, mut logs) = fresh_logs(&bench, 1);
    let gate = Gate::default();
    let counted = counted_requests(args.kind, args.quick);

    let phase = Phase {
        // The rest of `--seconds` goes to the fixed-count layer probes.
        deadline: Instant::now() + Duration::from_secs_f64(args.seconds * 0.6),
        prefix: counted as u64,
        keep_every: keep_every(args.quick),
    };
    let mut tracer = Tracer::new(epoch);
    let mut append_lat = Vec::new();
    let outcome = run_phase(
        &bench,
        &phase,
        &mut streams,
        &mut logs,
        &gate,
        Some(&mut tracer),
        Some(&mut append_lat),
    );
    let rss = peak_rss_mb();
    let log = &logs[0];
    let lat_where = |traced: bool| -> Vec<u64> {
        log.details.iter().filter(|d| d.traced == traced).map(|d| d.lat_ns).collect()
    };
    let (plain, traced) = (lat_where(false), lat_where(true));
    let (plain_p50, traced_p50) = (quantile_of(&plain, 0.5), quantile_of(&traced, 0.5));
    l.set("trace.untraced_p50_us", plain_p50 / 1e3);
    l.set("trace.traced_p50_us", traced_p50 / 1e3);
    l.set("trace.traced_p99_us", quantile_of(&traced, 0.99) / 1e3);
    l.set("trace.overhead_frac", traced_p50 / plain_p50 - 1.0);
    l.set("trace.requests", traced.len() as f64);

    // Exact counts over the fixed request prefix of the traced phase.
    let details = &log.details[..counted.min(log.details.len())];
    let per_req = |f: &dyn Fn(&workloads::Detail) -> u64| {
        details.iter().map(f).sum::<u64>() as f64 / details.len().max(1) as f64
    };
    l.set("core.query.probes_per_req", per_req(&|d| d.stats.topk_queries()));
    // A cache hit replays the stats of the execution it memoized; only
    // requests that hit nothing really ran their probes.
    let executed_probes =
        per_req(&|d| if d.stats.cache_hits == 0 { d.stats.topk_queries() } else { 0 });
    l.set("core.query.candidates_per_req", per_req(&|d| d.stats.candidates));
    l.set("core.query.blocked_skips_per_req", per_req(&|d| d.stats.blocked_skips));
    l.set("core.query.results_per_req", per_req(&|d| d.results));
    l.set("core.storage.cold_page_reads_per_req", per_req(&|d| d.stats.cold_page_hits));
    let fallbacks = log.details.iter().filter(|d| d.stats.fallback.is_some()).count();
    l.set("core.query.fallbacks", fallbacks as f64);

    let column =
        |f: &dyn Fn(&workloads::Detail) -> u64| -> Vec<u64> { log.details.iter().map(f).collect() };
    let selfs = trace::self_times(&tracer.spans);
    if let Some(serve) = bench.serve() {
        l.set("core.serve.queued_p50_us", quantile_of(&column(&|d| d.queued_ns), 0.5) / 1e3);
        l.set("core.serve.service_p50_us", quantile_of(&column(&|d| d.service_ns), 0.5) / 1e3);
        // Self time of the request span: latency not covered by the queued
        // and service stages the response reports — submit, worker wake-up,
        // response slot hand-back.
        let handoff = trace::self_times_of(&tracer.spans, &selfs, "request");
        l.set("core.serve.handoff_p50_us", quantile_of(&handoff, 0.5) / 1e3);
        let stats = serve.stats();
        l.set("core.serve.max_depth", stats.max_depth as f64);
        l.set("core.serve.rejected", stats.rejected as f64);
        let lookups = stats.cache_hits + stats.cache_misses;
        l.set("core.result_cache.lookups", lookups as f64);
        l.set("core.result_cache.hit_ratio", stats.cache_hits as f64 / lookups as f64);
        l.set("core.result_cache.evictions", stats.cache_evictions as f64);
        l.set("core.result_cache.resident_mb", stats.cache_bytes as f64 / (1u64 << 20) as f64);
        let hits: Vec<u64> = log
            .details
            .iter()
            .filter(|d| d.stats.cache_hits > 0 && d.stats.cache_misses == 0)
            .map(|d| d.service_ns)
            .collect();
        l.set("core.result_cache.hit_service_us", quantile_of(&hits, 0.5) / 1e3);
        l.set("core.result_cache.miss_service_us", quantile_of(&bench.miss_service_ns, 0.5) / 1e3);
    } else {
        let queries = trace::durations_of(&tracer.spans, "net.coordinator.query");
        l.set("net.coordinator.query_p50_us", quantile_of(&queries, 0.5) / 1e3);
    }

    if args.kind == Kind::Ingest {
        let serve = bench.serve().expect("ingest_mixed runs on a serve engine");
        let sorted = stats::sorted(&append_lat.iter().map(|&ns| u64::from(ns)).collect::<Vec<_>>());
        l.set(
            "core.sharded.append_kps",
            outcome.appended as f64 / 1e3 / outcome.append_busy.as_secs_f64(),
        );
        l.set("core.sharded.append_p50_ns", stats::quantile(&sorted, 0.5) as f64);
        l.set("core.sharded.append_p99_us", stats::quantile(&sorted, 0.99) as f64 / 1e3);
        l.set("core.sharded.append_p999_us", stats::quantile(&sorted, 0.999) as f64 / 1e3);
        l.set("core.sharded.append_max_us", sorted.last().copied().unwrap_or(0) as f64 / 1e3);
        // The append that fills the head hands it off for sealing: appends
        // number k·span, counted from the (whole-shard) base.
        let span = u64::from(bench.sizes.n) / bench.sizes.shards as u64;
        let boundary: Vec<u64> = (0..append_lat.len() as u64)
            .filter(|i| (i + 1) % span == 0)
            .map(|i| u64::from(append_lat[i as usize]))
            .collect();
        l.set("core.sharded.seal_boundary_append_us", quantile_of(&boundary, 0.5) / 1e3);
        l.set("core.sharded.pending_seals_max", log.pending_seals_max as f64);
        l.set("core.sharded.seals", (outcome.appended / span) as f64);
        l.set("harness.appends", outcome.appended as f64);
        tracer.enter("core.sharded.quiesce", u64::MAX);
        serve.quiesce();
        let quiesce = tracer.exit();
        let q = &tracer.spans[quiesce as usize];
        l.set("core.sharded.quiesce_ms", (q.end_ns - q.start_ns) as f64 / 1e6);
        serve.subscription_sync();
        let stats = serve.stats();
        l.set("core.subscribe.refreshes", stats.refreshes as f64);
        l.set("core.subscribe.fast_path_skips", stats.fast_path_skips as f64);
        l.set("core.subscribe.full_recomputes", stats.full_recomputes as f64);
        l.set(
            "core.subscribe.fast_path_ratio",
            stats.fast_path_skips as f64 / (stats.fast_path_skips + stats.refreshes) as f64,
        );
        layers::subscribe_overhead(&bench, args.quick, &mut tracer, &mut l);
    }

    layers::index_layers(&bench, args.quick, &mut tracer, &mut l);
    layers::store_layers(&bench.data, &args.out, &mut tracer, &mut l)?;
    layers::core_layers(&bench, args.quick, executed_probes, &mut tracer, &mut l);
    if let workloads::Path::Cluster(c) = &bench.path {
        layers::net_layers(&bench, c, args.quick, &mut tracer, &mut l);
    }

    let inputs_digest = bench.inputs_digest();
    let verdict = verify(&bench, &logs);
    let (attempted, failed, why) = tally(&logs, &gate, &verdict);
    if let Some(why) = &why {
        eprintln!("dtk-bench: first failure: {why}");
    }
    l.set("harness.checked_requests", verdict.checked as f64);
    l.set("harness.error_rate", failed as f64 / attempted.max(1) as f64);
    l.set("harness.peak_rss_mb", rss);
    l.set("trace.spans", tracer.spans.len() as f64);
    let trace_file = args.out.join(format!("trace_{}.jsonl", args.kind.name()));
    trace::write_jsonl(&trace_file, &tracer.spans).map_err(|e| format!("writing trace: {e}"))?;

    Ok(Report {
        correct: failed == 0 && verdict.checked > 0,
        attempted,
        failed,
        metrics: PER_LAYER.iter().map(|(n, u)| (*n, l.get(n), *u)).collect(),
        extra: vec![
            ("clients", "1".to_string()),
            ("requests", log.lat_ns.len().to_string()),
            ("counted_requests", details.len().to_string()),
            ("checked_requests", verdict.checked.to_string()),
            ("inputs_digest", json_str(&inputs_digest)),
            ("answers_digest", json_str(&verdict.answers_digest)),
        ],
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dtk-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))
        .and_then(|()| if args.trace { run_traced(&args) } else { run_untraced(&args) })
        .and_then(|report| report.write(&args).map(|()| report));
    match run {
        Ok(report) => {
            println!("{}", report.contract_line());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("dtk-bench: {e}");
            ExitCode::from(2)
        }
    }
}
