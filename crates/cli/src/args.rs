//! Minimal argument parsing (std-only).

use durable_topk::Algorithm;
use std::collections::HashMap;

/// Parsed command line: a subcommand, positional arguments, and `--flag
/// value` / `--flag` options.
#[derive(Debug, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// Remaining positional arguments.
    pub positional: Vec<String>,
    /// `--key value` options (last occurrence wins).
    pub options: HashMap<String, String>,
    /// Bare `--key` switches.
    pub switches: Vec<String>,
}

impl Args {
    /// Parses `std::env::args`-style input (program name excluded).
    ///
    /// A flag is a switch when the next token is absent or itself a flag.
    pub fn parse<I: IntoIterator<Item = String>>(input: I) -> Args {
        let tokens: Vec<String> = input.into_iter().collect();
        let mut args = Args::default();
        let mut i = 0;
        while i < tokens.len() {
            let tok = &tokens[i];
            if let Some(key) = tok.strip_prefix("--") {
                let next_is_value = i + 1 < tokens.len() && !tokens[i + 1].starts_with("--");
                if next_is_value {
                    args.options.insert(key.to_string(), tokens[i + 1].clone());
                    i += 2;
                } else {
                    args.switches.push(key.to_string());
                    i += 1;
                }
            } else {
                if args.command.is_empty() {
                    args.command = tok.clone();
                } else {
                    args.positional.push(tok.clone());
                }
                i += 1;
            }
        }
        args
    }

    /// A required option, or an error message naming it.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// An optional option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.options.get(key).map(String::as_str).unwrap_or(default)
    }

    /// Parses an option as `T`, with a default.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse::<T>().map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    /// Whether a bare switch was given.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }
}

/// Parses `a:b` into an inclusive range.
pub fn parse_range(s: &str) -> Result<(u32, u32), String> {
    let (a, b) =
        s.split_once(':').ok_or_else(|| format!("range {s:?} must look like start:end"))?;
    let a: u32 = a.parse().map_err(|_| format!("bad range start {a:?}"))?;
    let b: u32 = b.parse().map_err(|_| format!("bad range end {b:?}"))?;
    if a > b {
        return Err(format!("inverted range {s:?}"));
    }
    Ok((a, b))
}

/// Parses `--{flag} a:b` for a file of `n` records: `a` must name one of
/// them (callers clamp `b`), or the clamped window would be inverted.
pub fn parse_range_in(flag: &str, s: &str, n: usize) -> Result<(u32, u32), String> {
    let (a, b) = parse_range(s)?;
    if a as usize >= n {
        return Err(format!("--{flag} starts at {a} but the file has {n} records"));
    }
    Ok((a, b))
}

/// Parses `w1,w2,…` into a weight vector.
pub fn parse_weights(s: &str) -> Result<Vec<f64>, String> {
    s.split(',').map(|w| w.trim().parse::<f64>().map_err(|_| format!("bad weight {w:?}"))).collect()
}

/// Parses an `--alg` value: one algorithm name, or `all` for a batch sweep
/// over every variant.
pub fn parse_algorithms(s: &str) -> Result<Vec<Algorithm>, String> {
    match s {
        "all" => Ok(Algorithm::ALL.to_vec()),
        "tbase" => Ok(vec![Algorithm::TBase]),
        "thop" => Ok(vec![Algorithm::THop]),
        "sbase" => Ok(vec![Algorithm::SBase]),
        "sband" => Ok(vec![Algorithm::SBand]),
        "shop" => Ok(vec![Algorithm::SHop]),
        other => {
            Err(format!("unknown algorithm {other:?} (expected tbase|thop|sbase|sband|shop|all)"))
        }
    }
}

/// Options of the `--stream` replay mode: ingest the file record by
/// record into a live sharded engine, interleaving appends and queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamMode {
    /// Run a progress query every this many appends (`--every`; `None`
    /// defaults to a tenth of the dataset).
    pub every: Option<usize>,
}

/// Parses and validates the `--stream` replay flags.
///
/// Mirrors the `--threads` validation style: plain error strings naming
/// the offending flag combination.
pub fn parse_stream(args: &Args, algs: &[Algorithm]) -> Result<Option<StreamMode>, String> {
    if !args.has("stream") {
        if args.options.contains_key("every") || args.switches.iter().any(|s| s == "every") {
            return Err("--every requires --stream".to_string());
        }
        return Ok(None);
    }
    if algs.len() > 1 {
        return Err("--stream cannot be combined with --alg all".to_string());
    }
    if args.has("lookahead") {
        return Err("--stream cannot be combined with --lookahead".to_string());
    }
    if args.has("durations") {
        return Err("--stream cannot be combined with --durations".to_string());
    }
    if args.options.contains_key("threads") || args.switches.iter().any(|s| s == "threads") {
        // Replay queries fan out through the global worker pool; a per-run
        // worker cap is not honored, so reject it instead of ignoring it.
        return Err("--stream cannot be combined with --threads".to_string());
    }
    let every = match args.options.get("every") {
        None => None,
        Some(v) => {
            let every: usize = v.parse().map_err(|_| format!("--every: cannot parse {v:?}"))?;
            if every == 0 {
                return Err("--every must be at least 1".to_string());
            }
            Some(every)
        }
    };
    Ok(Some(StreamMode { every }))
}

/// Options of the `serve` replay mode: drive a workload through the
/// bounded request queue with several client threads while the tail of
/// the file is ingested live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeMode {
    /// Concurrent client threads submitting requests (`--clients`).
    pub clients: usize,
    /// Total requests replayed across all clients (`--requests`).
    pub requests: usize,
    /// Bounded queue capacity (`--queue-cap`).
    pub queue_cap: usize,
    /// Shed load when the queue is full (`--reject`) instead of blocking.
    pub reject: bool,
    /// Records withheld from the initial build and appended live while
    /// the clients run (`--ingest`; `None` defaults to a tenth of the
    /// file).
    pub ingest: Option<usize>,
    /// Standing subscriptions registered before the client storm and kept
    /// current incrementally from the live appends (`--subscribe`,
    /// default 0).
    pub subscribe: usize,
}

/// Parses and validates the `serve` subcommand flags.
pub fn parse_serve(args: &Args) -> Result<ServeMode, String> {
    for conflicting in ["stream", "every", "lookahead", "durations", "threads"] {
        if args.options.contains_key(conflicting) || args.has(conflicting) {
            return Err(format!("serve cannot be combined with --{conflicting}"));
        }
    }
    let clients: usize = args.parse_or("clients", 4)?;
    if clients == 0 || clients > MAX_THREADS {
        return Err(format!("--clients must be between 1 and {MAX_THREADS}, got {clients}"));
    }
    let requests: usize = args.parse_or("requests", 400)?;
    if requests == 0 {
        return Err("--requests must be at least 1".to_string());
    }
    let queue_cap: usize = args.parse_or("queue-cap", 256)?;
    if queue_cap == 0 {
        return Err("--queue-cap must be at least 1".to_string());
    }
    let ingest = match args.options.get("ingest") {
        None => None,
        Some(v) => Some(v.parse::<usize>().map_err(|_| format!("--ingest: cannot parse {v:?}"))?),
    };
    let subscribe: usize = args.parse_or("subscribe", 0)?;
    if subscribe > 10_000 {
        return Err(format!("--subscribe must be at most 10000, got {subscribe}"));
    }
    Ok(ServeMode { clients, requests, queue_cap, reject: args.has("reject"), ingest, subscribe })
}

/// Parses `--nodes host:port,host:port,…` into the coordinator's member
/// list (`None` when the flag is absent — single-process serving).
pub fn parse_nodes(args: &Args) -> Result<Option<Vec<String>>, String> {
    if args.switches.iter().any(|s| s == "nodes") {
        return Err("--nodes needs a value: a comma-separated host:port list".to_string());
    }
    let Some(v) = args.options.get("nodes") else { return Ok(None) };
    let nodes: Vec<String> =
        v.split(',').map(|a| a.trim().to_string()).filter(|a| !a.is_empty()).collect();
    if nodes.is_empty() {
        return Err("--nodes lists no addresses".to_string());
    }
    Ok(Some(nodes))
}

/// Options of the `serve-node` subcommand: host one contiguous slice of
/// the global timeline behind the TCP wire protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeNodeMode {
    /// The listen address (`--listen host:port`; port 0 picks a free one).
    pub listen: String,
    /// The owned slice of the global timeline (`--range A:B`, inclusive).
    pub range: (u32, u32),
}

/// Parses and validates the `serve-node` subcommand flags.
pub fn parse_serve_node(args: &Args) -> Result<ServeNodeMode, String> {
    parse_spill_after(args)?;
    for conflicting in [
        "stream",
        "every",
        "lookahead",
        "durations",
        "threads",
        "clients",
        "requests",
        "ingest",
        "subscribe",
        "nodes",
        "spill-after",
    ] {
        if args.options.contains_key(conflicting) || args.has(conflicting) {
            return Err(format!("serve-node cannot be combined with --{conflicting}"));
        }
    }
    let listen = args.require("listen")?.to_string();
    let range = parse_range(args.require("range")?)?;
    Ok(ServeNodeMode { listen, range })
}

/// Parses `--spill-after N`: spill the live engine's sealed chunks to a
/// temp-file pager, keeping the newest `N` resident. `None` (no flag)
/// keeps every chunk in memory. The removed `--storage` flag is rejected
/// rather than ignored.
pub fn parse_spill_after(args: &Args) -> Result<Option<usize>, String> {
    if args.options.contains_key("storage") || args.has("storage") {
        return Err("--storage is gone: sealed chunks stay in memory unless \
                    --spill-after N spills them to a temp-file pager"
            .to_string());
    }
    let Some(v) = args.options.get("spill-after") else { return Ok(None) };
    let n: usize = v.parse().map_err(|_| format!("--spill-after: cannot parse {v:?}"))?;
    if n == 0 {
        return Err("--spill-after must be at least 1".to_string());
    }
    Ok(Some(n))
}

/// Byte budget of the sealed-shard result cache when `--result-cache` is
/// not given (32 MiB).
pub const DEFAULT_RESULT_CACHE_BYTES: usize = 32 * 1024 * 1024;

/// Parses `--result-cache <bytes>|off`: the byte budget of the sealed-shard
/// result cache the live modes (`--stream` replay and `serve`) put in front
/// of their sealed tails. `None` means the cache is disabled.
pub fn parse_result_cache(args: &Args) -> Result<Option<usize>, String> {
    if args.switches.iter().any(|s| s == "result-cache") {
        return Err("--result-cache needs a value: a byte budget or off".to_string());
    }
    match args.options.get("result-cache").map(String::as_str) {
        None => Ok(Some(DEFAULT_RESULT_CACHE_BYTES)),
        Some("off") => Ok(None),
        Some(v) => {
            let bytes: usize = v.parse().map_err(|_| {
                format!("--result-cache: cannot parse {v:?} (expected a byte budget or off)")
            })?;
            if bytes == 0 {
                return Err("--result-cache must be at least 1 byte (use off to disable)".into());
            }
            Ok(Some(bytes))
        }
    }
}

/// Largest worker count the CLI accepts (a typo guard, not a scheduler).
pub const MAX_THREADS: usize = 1024;

/// Parses `--threads`: `0` (the default) means "use available parallelism".
pub fn parse_threads(args: &Args) -> Result<usize, String> {
    let threads: usize = args.parse_or("threads", 0)?;
    if threads > MAX_THREADS {
        return Err(format!("--threads must be at most {MAX_THREADS}, got {threads}"));
    }
    Ok(threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn command_options_and_switches() {
        let a = parse("query data.csv --k 5 --durations --tau 100");
        assert_eq!(a.command, "query");
        assert_eq!(a.positional, vec!["data.csv"]);
        assert_eq!(a.require("k").expect("k"), "5");
        assert_eq!(a.parse_or::<u32>("tau", 1).expect("tau"), 100);
        assert!(a.has("durations"));
        assert!(!a.has("missing"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("stats file.csv");
        assert_eq!(a.get_or("alg", "thop"), "thop");
        assert_eq!(a.parse_or::<usize>("k", 10).expect("default"), 10);
        assert!(a.require("k").is_err());
    }

    #[test]
    fn ranges_and_weights() {
        assert_eq!(parse_range("3:9").expect("range"), (3, 9));
        assert!(parse_range("9:3").is_err());
        assert!(parse_range("nope").is_err());
        assert_eq!(parse_range_in("interval", "99:600", 100).expect("starts inside"), (99, 600));
        let err = parse_range_in("interval", "500:600", 100).expect_err("starts past the end");
        assert_eq!(err, "--interval starts at 500 but the file has 100 records");
        assert_eq!(parse_weights("0.5, 0.25,0.25").expect("weights"), vec![0.5, 0.25, 0.25]);
        assert!(parse_weights("1,x").is_err());
    }

    #[test]
    fn algorithm_names_resolve() {
        assert_eq!(parse_algorithms("thop").expect("thop"), vec![Algorithm::THop]);
        assert_eq!(parse_algorithms("shop").expect("shop"), vec![Algorithm::SHop]);
        assert_eq!(parse_algorithms("all").expect("all"), Algorithm::ALL.to_vec());
        let err = parse_algorithms("fancy").expect_err("unknown must fail");
        assert!(
            err.contains("fancy") && err.ends_with("(expected tbase|thop|sbase|sband|shop|all)")
        );
    }

    #[test]
    fn threads_validation() {
        assert_eq!(parse_threads(&parse("query f.csv")).expect("default"), 0);
        assert_eq!(parse_threads(&parse("query f.csv --threads 8")).expect("8"), 8);
        assert!(parse_threads(&parse("query f.csv --threads 9999")).is_err());
        assert!(parse_threads(&parse("query f.csv --threads -3")).is_err());
        assert!(parse_threads(&parse("query f.csv --threads many")).is_err());
    }

    #[test]
    fn serve_validation() {
        let m = parse_serve(&parse("serve f.csv")).expect("defaults");
        assert_eq!(
            m,
            ServeMode {
                clients: 4,
                requests: 400,
                queue_cap: 256,
                reject: false,
                ingest: None,
                subscribe: 0
            }
        );
        let m = parse_serve(&parse(
            "serve f.csv --clients 8 --requests 1000 --queue-cap 32 --reject --ingest 500 \
             --subscribe 6",
        ))
        .expect("explicit");
        assert_eq!(
            m,
            ServeMode {
                clients: 8,
                requests: 1000,
                queue_cap: 32,
                reject: true,
                ingest: Some(500),
                subscribe: 6
            }
        );
        assert!(parse_serve(&parse("serve f.csv --clients 0")).is_err());
        assert!(parse_serve(&parse("serve f.csv --requests 0")).is_err());
        assert!(parse_serve(&parse("serve f.csv --queue-cap 0")).is_err());
        assert!(parse_serve(&parse("serve f.csv --ingest lots")).is_err());
        assert!(parse_serve(&parse("serve f.csv --subscribe many")).is_err());
        assert!(parse_serve(&parse("serve f.csv --subscribe 20000")).is_err());
        let err = parse_serve(&parse("serve f.csv --threads 4")).expect_err("threads conflicts");
        assert!(err.contains("--threads"), "err={err}");
        let err = parse_serve(&parse("serve f.csv --stream")).expect_err("stream conflicts");
        assert!(err.contains("--stream"), "err={err}");
    }

    #[test]
    fn nodes_validation() {
        assert_eq!(parse_nodes(&parse("serve f.csv")).expect("absent"), None);
        assert_eq!(
            parse_nodes(&parse("serve f.csv --nodes 127.0.0.1:7471")).expect("one"),
            Some(vec!["127.0.0.1:7471".to_string()])
        );
        assert_eq!(
            parse_nodes(&parse("serve f.csv --nodes a:1,b:2,c:3")).expect("three"),
            Some(vec!["a:1".to_string(), "b:2".to_string(), "c:3".to_string()])
        );
        let err = parse_nodes(&parse("serve f.csv --nodes")).expect_err("missing value");
        assert!(err.contains("host:port"), "err={err}");
        assert!(parse_nodes(&parse("serve f.csv --nodes ,,")).is_err());
    }

    #[test]
    fn serve_node_validation() {
        let m = parse_serve_node(&parse("serve-node f.csv --listen 0.0.0.0:7471 --range 0:4999"))
            .expect("valid");
        assert_eq!(m, ServeNodeMode { listen: "0.0.0.0:7471".to_string(), range: (0, 4999) });
        let err =
            parse_serve_node(&parse("serve-node f.csv --range 0:10")).expect_err("needs listen");
        assert!(err.contains("--listen"), "err={err}");
        let err =
            parse_serve_node(&parse("serve-node f.csv --listen a:1")).expect_err("needs range");
        assert!(err.contains("--range"), "err={err}");
        assert!(parse_serve_node(&parse("serve-node f.csv --listen a:1 --range 9:3")).is_err());
        let err = parse_serve_node(&parse("serve-node f.csv --listen a:1 --range 0:9 --clients 4"))
            .expect_err("clients conflicts");
        assert!(err.contains("--clients"), "err={err}");
        let err = parse_serve_node(&parse("serve-node f.csv --listen a:1 --range 0:9 --stream"))
            .expect_err("stream conflicts");
        assert!(err.contains("--stream"), "err={err}");
    }

    #[test]
    fn storage_validation() {
        assert_eq!(parse_spill_after(&parse("serve f.csv")).expect("default"), None);
        assert_eq!(parse_spill_after(&parse("serve f.csv --spill-after 2")).expect("2"), Some(2));
        assert!(parse_spill_after(&parse("serve f.csv --spill-after 0")).is_err());
        assert!(parse_spill_after(&parse("serve f.csv --spill-after lots")).is_err());
        for removed in
            ["--storage paged", "--storage memory", "--storage", "--storage paged --spill-after 2"]
        {
            let err = parse_spill_after(&parse(&format!("serve f.csv {removed}")))
                .expect_err("--storage is rejected");
            assert!(err.contains("--storage") && err.contains("--spill-after"), "err={err}");
        }
    }

    #[test]
    fn result_cache_validation() {
        assert_eq!(
            parse_result_cache(&parse("serve f.csv")).expect("default"),
            Some(DEFAULT_RESULT_CACHE_BYTES)
        );
        assert_eq!(
            parse_result_cache(&parse("serve f.csv --result-cache 4194304")).expect("bytes"),
            Some(4_194_304)
        );
        assert_eq!(
            parse_result_cache(&parse("serve f.csv --result-cache off")).expect("off"),
            None
        );
        let err = parse_result_cache(&parse("serve f.csv --result-cache 0"))
            .expect_err("zero budget must fail");
        assert!(err.contains("off"), "err={err}");
        let err = parse_result_cache(&parse("serve f.csv --result-cache lots"))
            .expect_err("non-numeric must fail");
        assert!(err.contains("lots"), "err={err}");
        let err = parse_result_cache(&parse("serve f.csv --result-cache"))
            .expect_err("missing value must fail");
        assert!(err.contains("byte budget"), "err={err}");
    }

    #[test]
    fn stream_validation() {
        let one = [Algorithm::THop];
        let all = Algorithm::ALL;
        assert_eq!(parse_stream(&parse("query f.csv"), &one).expect("off"), None);
        assert_eq!(
            parse_stream(&parse("query f.csv --stream"), &one).expect("on"),
            Some(StreamMode { every: None })
        );
        assert_eq!(
            parse_stream(&parse("query f.csv --stream --every 500"), &one).expect("every"),
            Some(StreamMode { every: Some(500) })
        );
        let err = parse_stream(&parse("query f.csv --stream"), &all).expect_err("alg all");
        assert!(err.contains("--alg all"), "err={err}");
        let err = parse_stream(&parse("query f.csv --stream --lookahead"), &one)
            .expect_err("lookahead conflicts");
        assert!(err.contains("--lookahead"), "err={err}");
        let err = parse_stream(&parse("query f.csv --stream --durations"), &one)
            .expect_err("durations conflicts");
        assert!(err.contains("--durations"), "err={err}");
        let err = parse_stream(&parse("query f.csv --stream --threads 4"), &one)
            .expect_err("threads conflicts");
        assert!(err.contains("--threads"), "err={err}");
        assert!(parse_stream(&parse("query f.csv --stream --every 0"), &one).is_err());
        assert!(parse_stream(&parse("query f.csv --stream --every lots"), &one).is_err());
        let err = parse_stream(&parse("query f.csv --every 5"), &one).expect_err("orphan every");
        assert!(err.contains("requires --stream"), "err={err}");
    }
}
