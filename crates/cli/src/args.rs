//! Argument parsing (std-only): one table lists every mode of the CLI
//! with the flags it takes, and a command line is checked against it.

use durable_topk::Algorithm;
use std::collections::HashMap;

pub const USAGE: &str = "\
durable-topk — durable top-k queries over instant-stamped CSV data

USAGE (each command takes only the flags on its lines):
  durable-topk generate ind --n N [--dim D] [--seed S] --out FILE
  durable-topk generate <anti|nba|network> --n N [--seed S] --out FILE
  durable-topk stats    FILE
  durable-topk topk     FILE --k K --window A:B [--weights W1,W2,..]
  durable-topk query    FILE --k K --tau T [--interval A:B] [--weights ..]
                             [--alg tbase|thop|sbase|sband|shop|all]
                             [--threads N] [--lookahead] [--durations] [--limit N]
  durable-topk query    FILE --stream [--every M] --k K --tau T [--interval A:B]
                             [--weights ..] [--alg ..] [--limit N]
                             [--spill-after N] [--result-cache BYTES|off]
  durable-topk serve    FILE --k K --tau T [--weights ..] [--alg ..]
                             [--clients C] [--requests R] [--queue-cap Q]
                             [--reject] [--ingest M] [--subscribe S]
                             [--spill-after N] [--result-cache BYTES|off]
  durable-topk serve    FILE --nodes HOST:PORT,HOST:PORT,.. --k K --tau T
                             [--weights ..] [--alg ..] [--clients C] [--requests R]
  durable-topk serve-node FILE --listen HOST:PORT --range A:B [--k K] [--tau T]

Records are rows in arrival order; an optional header row names columns and
an optional leading `t` column holds wall-clock stamps. Weights default to
uniform. `query` defaults to --alg thop over the whole history; --alg all
sweeps every algorithm in parallel on the worker pool (--threads 0 = use all
cores). --stream replays the file into a live sharded engine, interleaving
appends with a progress query every M arrivals (default: a tenth of the
file) under one algorithm. `serve` replays a mixed workload through the
bounded request queue on the persistent worker pool: C client threads submit
R requests total (parameters varied around --k/--tau, algorithms cycled)
while the last M records (default: a tenth of the file) are ingested live;
--reject sheds load when the queue is full instead of blocking, and a sample
of the served answers is re-checked against the engine before the summary
prints throughput and p50/p99 latency. --subscribe registers S standing
queries before the client storm; the live appends keep their materialized
answer sets current incrementally and each is verified against a full
recompute at the end. The live modes (--stream and serve) keep every sealed
chunk in memory; --spill-after N spills chunks beyond the newest N to
pager-backed pages in a temporary file, reloading them transparently — and
bit-identically — at query time. --result-cache puts a byte-budgeted
memoization cache in front of the sealed shards of the live modes: repeated
full-range probes of an immutable tail replay their answer without touching
storage (default 33554432 bytes = 32 MiB; `off` disables it). `serve-node`
hosts one contiguous slice [A, B] of the file behind the binary wire
protocol on --listen (loading tau extra records of left context so every
durability window it owns is exact); `serve --nodes` drives a query-only
client storm through the scatter-gather coordinator over those nodes instead
of an in-process queue, spot-checks sampled answers against a local
reference engine, and prints per-node request counts and latency
percentiles. Every node and the coordinator must agree on --k/--tau.";

/// One mode of the CLI and every flag it takes. Every mode also takes one
/// positional argument: the input file, or `generate`'s family.
#[derive(Debug, PartialEq, Eq)]
pub struct Mode {
    /// The command, then what selects this mode among the command's
    /// modes: `--flag` when that flag is given, `a|b|…` when the
    /// positional is one of those words, nothing for the mode that
    /// applies otherwise (listed after its command's other modes).
    pub name: &'static str,
    /// The flags that take a value, separated by spaces.
    pub values: &'static str,
    /// The flags that take none, separated by spaces.
    pub switches: &'static str,
}

/// Every mode of the CLI. No flag is a switch in one mode and takes a
/// value in another, so a command line splits into flags and positionals
/// before its mode is known.
pub const MODES: &[Mode] = &[
    Mode { name: "generate ind", values: "n dim seed out", switches: "" },
    Mode { name: "generate anti|nba|network", values: "n seed out", switches: "" },
    Mode { name: "stats", values: "", switches: "" },
    Mode { name: "topk", values: "k window weights", switches: "" },
    Mode {
        name: "query --stream",
        values: "k tau interval weights alg limit every spill-after result-cache",
        switches: "stream",
    },
    Mode {
        name: "query",
        values: "k tau interval weights alg threads limit",
        switches: "lookahead durations",
    },
    Mode {
        name: "serve --nodes",
        values: "k tau weights alg clients requests nodes",
        switches: "",
    },
    Mode {
        name: "serve",
        values: "k tau weights alg clients requests queue-cap ingest subscribe \
                 spill-after result-cache",
        switches: "reject",
    },
    Mode { name: "serve-node", values: "listen range k tau", switches: "" },
];

/// Whether some mode takes `flag` with a value.
fn takes_value(flag: &str) -> bool {
    MODES.iter().any(|m| m.values.split_whitespace().any(|f| f == flag))
}

impl Mode {
    /// The command this mode belongs to.
    pub fn command(&self) -> &'static str {
        self.name.split_once(' ').map_or(self.name, |(command, _)| command)
    }

    /// What selects this mode among its command's (empty: the default).
    fn selector(&self) -> &'static str {
        self.name.split_once(' ').map_or("", |(_, selector)| selector)
    }

    /// Every flag this mode takes.
    fn flags(&self) -> impl Iterator<Item = &'static str> {
        self.values.split_whitespace().chain(self.switches.split_whitespace())
    }

    fn takes(&self, flag: &str) -> bool {
        self.flags().any(|f| f == flag)
    }

    /// The error for a flag this mode does not take: it names the modes
    /// that take the flag or, when none does, every flag this mode takes.
    fn rejects(&self, flag: &str) -> String {
        let takers: Vec<&str> = MODES.iter().filter(|m| m.takes(flag)).map(|m| m.name).collect();
        let own: Vec<String> = self.flags().map(|f| format!("--{f}")).collect();
        let hint = match (takers.is_empty(), own.is_empty()) {
            (false, _) => format!("taken by {}", takers.join(", ")),
            (true, false) => format!("it takes {}", own.join(" ")),
            (true, true) => "it takes no flags".to_string(),
        };
        format!("{} does not take --{flag} ({hint})", self.name)
    }
}

/// A command line checked against its mode's table.
#[derive(Debug)]
pub struct Args {
    /// The mode the command line selected.
    pub mode: &'static Mode,
    /// The positional argument: the input file, or `generate`'s family.
    pub positional: String,
    /// The flags given, each with its value (`None` for a switch); the
    /// last occurrence wins.
    flags: HashMap<String, Option<String>>,
}

impl Args {
    /// Parses `std::env::args`-style input (program name excluded): the
    /// command, then its one positional and its flags in any order.
    pub fn parse<I: IntoIterator<Item = String>>(input: I) -> Result<Args, String> {
        let mut tokens = input.into_iter().peekable();
        let command = tokens.next().unwrap_or_default();
        let modes = || MODES.iter().filter(|m| m.command() == command);
        if modes().next().is_none() {
            return Err(format!("unknown command {command:?}\n\n{USAGE}"));
        }
        let (mut flags, mut positionals) = (Vec::new(), Vec::new());
        while let Some(token) = tokens.next() {
            let Some(name) = token.strip_prefix("--") else {
                positionals.push(token);
                continue;
            };
            // A name no mode lists takes no value: it is rejected below.
            let value = if takes_value(name) {
                let value = tokens.next_if(|v| !v.starts_with("--"));
                Some(value.ok_or_else(|| format!("--{name} needs a value"))?)
            } else {
                None
            };
            flags.push((name.to_string(), value));
        }
        let selected = |m: &&Mode| match m.selector() {
            "" => true,
            selector => match selector.strip_prefix("--") {
                Some(flag) => flags.iter().any(|(name, _)| name == flag),
                None => positionals.first().is_some_and(|p| selector.split('|').any(|w| w == p)),
            },
        };
        let Some(mode) = modes().find(selected) else {
            // Only `generate` has no default mode: its family selects one.
            let words: Vec<&str> = modes().map(Mode::selector).collect();
            return Err(match positionals.first() {
                None => format!("{command} needs a family: {}", words.join("|")),
                Some(word) => format!("unknown family {word:?} (expected {})", words.join("|")),
            });
        };
        if let Some((name, _)) = flags.iter().find(|(name, _)| !mode.takes(name)) {
            return Err(mode.rejects(name));
        }
        let mut positionals = positionals.into_iter();
        let positional = positionals.next().ok_or("missing input file")?;
        if let Some(extra) = positionals.next() {
            return Err(format!("unexpected argument {extra:?} ({} takes one)", mode.name));
        }
        Ok(Args { mode, positional, flags: flags.into_iter().collect() })
    }

    /// A flag's value, if given.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key)?.as_deref()
    }

    /// A required option, or an error message naming it.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing required option --{key}"))
    }

    /// An optional option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Parses an option as `T`, with a default.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse::<T>().map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    /// Parses `--key` as a positive integer; the engine asserts positivity,
    /// so catch it here with a proper error instead of a panic.
    pub fn positive<T>(&self, key: &str, default: T) -> Result<T, String>
    where
        T: std::str::FromStr + PartialOrd + Default,
    {
        let v: T = self.parse_or(key, default)?;
        if v <= T::default() {
            return Err(format!("--{key} must be at least 1"));
        }
        Ok(v)
    }

    /// Whether a flag was given.
    pub fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
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

/// Parses `query`'s `--alg` (default `thop`). `all` is a batch sweep of
/// look-back answers, so `--stream` and `--lookahead` take one algorithm.
pub fn parse_query_algorithms(args: &Args) -> Result<Vec<Algorithm>, String> {
    let algs = parse_algorithms(args.get_or("alg", "thop"))?;
    if algs.len() > 1 && (args.has("stream") || args.has("lookahead")) {
        return Err("--alg all is a batch look-back sweep; --stream and --lookahead \
                    run one algorithm"
            .to_string());
    }
    Ok(algs)
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
    let ingest = match args.get("ingest") {
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
    let Some(v) = args.get("nodes") else { return Ok(None) };
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
    let listen = args.require("listen")?.to_string();
    let range = parse_range(args.require("range")?)?;
    Ok(ServeNodeMode { listen, range })
}

/// Parses `--spill-after N`: spill the live engine's sealed chunks to a
/// temp-file pager, keeping the newest `N` resident. `None` (no flag)
/// keeps every chunk in memory.
pub fn parse_spill_after(args: &Args) -> Result<Option<usize>, String> {
    let Some(v) = args.get("spill-after") else { return Ok(None) };
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
    match args.get("result-cache") {
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

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn parse(line: &str) -> Args {
        Args::parse(words(line)).unwrap_or_else(|e| panic!("{line}: {e}"))
    }

    /// The error for a command line the table rejects.
    fn reject(line: &str) -> String {
        Args::parse(words(line)).expect_err(line)
    }

    #[test]
    fn command_options_and_switches() {
        let a = parse("query data.csv --k 5 --durations --tau 100");
        assert_eq!(a.mode.name, "query");
        assert_eq!(a.positional, "data.csv");
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

    /// A command line (its mode selected) for every mode.
    fn base_line(mode: &Mode) -> String {
        let (command, selector) = (mode.command(), mode.selector());
        match selector.strip_prefix("--") {
            Some(flag) if takes_value(flag) => format!("{command} f.csv {selector} v"),
            Some(_) => format!("{command} f.csv {selector}"),
            None if selector.is_empty() => format!("{command} f.csv"),
            None => format!("{command} {}", selector.split('|').next().expect("a word")),
        }
    }

    /// Every mode against every flag of every table plus an unknown one: a
    /// flag is accepted if and only if the mode lists it (or selects a
    /// sibling mode), and each rejection names the flag. Then what the
    /// split into flags and positionals must get right, and the usage.
    #[test]
    fn each_mode_takes_exactly_its_tables_flags() {
        let mut every: Vec<&str> = MODES.iter().flat_map(Mode::flags).collect();
        every.sort_unstable();
        every.dedup();
        for flag in &every {
            let switch = MODES.iter().any(|m| m.switches.split_whitespace().any(|f| f == *flag));
            assert!(switch != takes_value(flag), "--{flag} is both a switch and a value flag");
        }
        for mode in MODES {
            let base = base_line(mode);
            assert_eq!(parse(&base).mode, mode, "{base}");
            for flag in every.iter().copied().chain(["no-such-flag"]) {
                let line = format!("{base} --{flag}{}", if takes_value(flag) { " 1" } else { "" });
                let sibling = MODES
                    .iter()
                    .find(|m| m.command() == mode.command() && m.selector() == format!("--{flag}"));
                match Args::parse(words(&line)) {
                    Ok(args) => {
                        assert!(mode.takes(flag) || sibling.is_some(), "{line} was accepted");
                        assert_eq!(args.mode, sibling.unwrap_or(mode), "{line}");
                        assert_eq!(args.positional, parse(&base).positional, "{line}");
                    }
                    Err(err) => {
                        assert!(!mode.takes(flag) && sibling.is_none(), "{line}: {err}");
                        assert!(err.contains(&format!("--{flag} ")), "{line}: {err}");
                    }
                }
            }
            // A value flag at the end of the line or right before another
            // flag has no value; a second positional is an error.
            for flag in mode.values.split_whitespace() {
                assert_eq!(reject(&format!("{base} --{flag}")), format!("--{flag} needs a value"));
                let before = format!("{base} --{flag} --k 3");
                assert_eq!(reject(&before), format!("--{flag} needs a value"));
            }
            let err = reject(&format!("{base} extra"));
            assert!(err.starts_with("unexpected argument \"extra\""), "{base}: {err}");
        }
        // A switch never swallows the input file.
        let a = parse("query --lookahead f.csv --k 3 --tau 50");
        assert_eq!((a.positional.as_str(), a.has("lookahead")), ("f.csv", true));
        let a = parse("query --stream f.csv");
        assert_eq!((a.mode.name, a.positional.as_str()), ("query --stream", "f.csv"));
        // The usage names every flag of every table and no other.
        let mut in_usage: Vec<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|w| w.strip_prefix("--"))
            .collect();
        in_usage.sort_unstable();
        in_usage.dedup();
        assert_eq!(in_usage, every);
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
        let err = reject("serve f.csv --threads 4");
        assert!(err.starts_with("serve does not take --threads"), "err={err}");
        let err = reject("serve f.csv --stream");
        assert!(err.starts_with("serve does not take --stream"), "err={err}");
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
        assert_eq!(reject("serve f.csv --nodes"), "--nodes needs a value");
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
        let err = reject("serve-node f.csv --listen a:1 --range 0:9 --clients 4");
        assert!(err.starts_with("serve-node does not take --clients"), "err={err}");
        let err = reject("serve-node f.csv --listen a:1 --range 0:9 --stream");
        assert!(err.starts_with("serve-node does not take --stream"), "err={err}");
    }

    #[test]
    fn storage_validation() {
        assert_eq!(parse_spill_after(&parse("serve f.csv")).expect("default"), None);
        assert_eq!(parse_spill_after(&parse("serve f.csv --spill-after 2")).expect("2"), Some(2));
        assert!(parse_spill_after(&parse("serve f.csv --spill-after 0")).is_err());
        assert!(parse_spill_after(&parse("serve f.csv --spill-after lots")).is_err());
        // The removed `--storage` is an unknown flag; the error lists what
        // serve takes, `--spill-after` among it.
        for removed in
            ["--storage paged", "--storage memory", "--storage", "--storage paged --spill-after 2"]
        {
            let err = reject(&format!("serve f.csv {removed}"));
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
        assert_eq!(reject("serve f.csv --result-cache"), "--result-cache needs a value");
    }

    #[test]
    fn stream_validation() {
        assert!(!parse("query f.csv").has("stream"));
        let on = parse("query f.csv --stream");
        assert_eq!(on.mode.name, "query --stream");
        assert_eq!(on.positive::<usize>("every", 7).expect("default"), 7);
        let every = parse("query f.csv --stream --every 500");
        assert_eq!(every.positive::<usize>("every", 7).expect("every"), 500);
        let err =
            parse_query_algorithms(&parse("query f.csv --stream --alg all")).expect_err("alg all");
        assert!(err.contains("--alg all"), "err={err}");
        let err = reject("query f.csv --stream --lookahead");
        assert!(err.starts_with("query --stream does not take --lookahead"), "err={err}");
        let err = reject("query f.csv --stream --durations");
        assert!(err.starts_with("query --stream does not take --durations"), "err={err}");
        let err = reject("query f.csv --stream --threads 4");
        assert!(err.starts_with("query --stream does not take --threads"), "err={err}");
        assert!(parse("query f.csv --stream --every 0").positive::<usize>("every", 7).is_err());
        assert!(parse("query f.csv --stream --every lots").positive::<usize>("every", 7).is_err());
        let err = reject("query f.csv --every 5");
        assert_eq!(err, "query does not take --every (taken by query --stream)");
    }
}
