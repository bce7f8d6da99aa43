//! `bench-pair <rev-a> <rev-b> [--workload W[,W..]] [--pairs N] [--seed
//! S[,S..]] [--seconds T] [--trace 0|1] [--label L]`: the repo's benchmark
//! over two revisions, in alternating fresh-process pairs.
//!
//! Each revision is exported with `git archive` into
//! `target/bench-pair/<commit>` and builds `dtk-bench` into its own target
//! directory there; the repository's `benchmark/` and git state are left
//! alone. `WORKTREE` names the tracked files as they are now (`git stash
//! create`; a new file counts once staged). Odd pairs run `a` first, even
//! pairs `b`; each run is one `benchmark/run.sh --workload …` process. Per
//! workload × seed × metric it reports each side's median [q1, q3], `b ÷ a`,
//! and in how many pairs `b` was better (by `BENCHMARK.json`'s direction).
//! It fails if a run is not `correct` or has failed operations, or if
//! `inputs_digest` or `answers_digest` differ within a workload and seed,
//! and it lists the `core.query.*` counts that differ. The revisions, the
//! host (`nproc`, CPU model), every run's record and the summary go to
//! `BENCH_<label>.json` at the repository root.

use crate::json::{self, Value};
use crate::workspace_root;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const FLAGS: [&str; 6] = ["workload", "pairs", "seed", "seconds", "trace", "label"];
const SIDES: [&str; 2] = ["a", "b"];

/// One run: workload, seed, pair, side (0 = a), and `dtk-bench`'s record
/// parsed and as written.
type Run = (String, u64, usize, usize, Value, String);

pub(crate) fn main(args: &[String]) -> ExitCode {
    let result = run(args);
    if let Err(e) = &result {
        eprintln!(
            "bench-pair: {e}\nusage: bench-pair <rev-a> <rev-b> [--{}]",
            FLAGS.join(" ..] [--")
        );
    }
    ExitCode::from(u8::from(result != Ok(true)))
}

/// Positional arguments and `--flag value` pairs.
type Split<'a> = (Vec<&'a str>, Vec<(&'a str, &'a str)>);

/// Splits `args`; each flag must be one of `FLAGS`.
fn split_args(args: &[String]) -> Result<Split<'_>, String> {
    let (mut revs, mut flags, mut it) = (Vec::new(), Vec::new(), args.iter());
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--") {
            Some(f) if FLAGS.contains(&f) => {
                flags.push((f, it.next().ok_or("a flag needs a value")?.as_str()))
            }
            Some(f) => return Err(format!("unknown flag --{f}")),
            None => revs.push(arg.as_str()),
        }
    }
    if revs.len() != 2 {
        return Err("two revisions are needed".into());
    }
    Ok((revs, flags))
}

/// Stdout of `cmd`, or an error naming it.
fn output(cmd: &mut Command) -> Result<String, String> {
    let out = cmd.output().map_err(|e| format!("{cmd:?}: {e}"))?;
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        return Err(format!("{cmd:?} exited with {}: {}", out.status, err.trim()));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit a revision names.
fn resolve(root: &Path, rev: &str) -> Result<String, String> {
    let git = |args: &[&str]| output(Command::new("git").arg("-C").arg(root).args(args));
    if rev == "WORKTREE" {
        let stash = git(&["stash", "create"])?;
        return if stash.is_empty() { git(&["rev-parse", "HEAD"]) } else { Ok(stash) };
    }
    git(&["rev-parse", "--verify", &format!("{rev}^{{commit}}")])
}

/// Exports `commit` (once) and builds its benchmark. Returns the checkout.
fn prepare(root: &Path, commit: &str) -> Result<PathBuf, String> {
    let dir = root.join("target/bench-pair").join(commit);
    let done = dir.join(".bench-pair-exported");
    if !done.exists() {
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut git = Command::new("git");
        git.arg("-C").arg(root).args(["archive", commit]).stdout(Stdio::piped());
        let mut archive = git.spawn().map_err(|e| format!("git archive: {e}"))?;
        let tar = archive.stdout.take().map_or(Stdio::null(), Stdio::from);
        output(Command::new("tar").arg("-x").arg("-C").arg(&dir).stdin(tar))?;
        if !archive.wait().is_ok_and(|s| s.success()) {
            return Err(format!("git archive {commit} failed"));
        }
        fs::write(&done, commit).map_err(|e| format!("{}: {e}", done.display()))?;
    }
    eprintln!("bench-pair: building {}", dir.display());
    let mut cargo = Command::new("cargo");
    cargo.args(["build", "--release", "--offline", "--quiet", "--manifest-path"]);
    cargo.arg(dir.join("benchmark/Cargo.toml"));
    output(cargo.env("CARGO_TARGET_DIR", dir.join("benchmark/target")))?;
    Ok(dir)
}

/// One fresh-process run in checkout `dir`: the record it wrote. `args`
/// follow `--workload W` on `run.sh`'s command line.
fn bench_once(dir: &Path, workload: &str, trace: f64, args: &str) -> Result<String, String> {
    let record = dir.join(format!("benchmark/out/{workload}.trace{trace}.json"));
    let _ = fs::remove_file(&record);
    let mut bash = Command::new("bash");
    bash.arg(dir.join("benchmark/run.sh")).args(["--workload", workload]).args(args.split(' '));
    let status = output(bash.env("CARGO_TARGET_DIR", dir.join("benchmark/target")));
    // A run with wrong answers still writes its record, which says so.
    fs::read_to_string(&record)
        .map_err(|e| status.err().unwrap_or_else(|| format!("{}: {e}", record.display())))
}

fn run(args: &[String]) -> Result<bool, String> {
    let (revs, flags) = split_args(args)?;
    let flag = |f: &str, default: &'static str| {
        flags.iter().rev().find(|x| x.0 == f).map_or(default, |x| x.1)
    };
    let num = |f: &str, default| flag(f, default).parse::<f64>().map_err(|_| format!("bad --{f}"));
    let (pairs, seconds, trace) =
        (num("pairs", "10")? as usize, num("seconds", "20")?, num("trace", "0")?);
    let seeds: Vec<&str> = flag("seed", "1").split(',').collect();
    if pairs == 0
        || seconds <= 0.0
        || !(trace == 0.0 || trace == 1.0)
        || seeds.iter().any(|s| s.parse::<u64>().is_err())
    {
        return Err("--pairs and --seconds must be positive, --trace 0 or 1, seeds integers".into());
    }
    let root = workspace_root();
    let spec = json::parse(&fs::read_to_string(root.join("BENCHMARK.json")).unwrap_or_default());
    let spec = spec.unwrap_or(Value::Null);
    let all: Vec<&str> =
        spec.get("workloads").items().iter().map(|w| w.get("name").str()).collect();
    let workloads: Vec<&str> =
        flags.iter().find(|x| x.0 == "workload").map_or(all, |x| x.1.split(',').collect());
    let commits = [resolve(&root, revs[0])?, resolve(&root, revs[1])?];
    let dirs = [prepare(&root, &commits[0])?, prepare(&root, &commits[1])?];

    let mut runs: Vec<Run> = Vec::new();
    for pair in 1..=pairs {
        for (w, seed) in workloads.iter().flat_map(|w| seeds.iter().map(move |s| (*w, *s))) {
            for side in if pair % 2 == 1 { [0, 1] } else { [1, 0] } {
                eprintln!("bench-pair: pair {pair}/{pairs} {w} seed {seed} {}", SIDES[side]);
                let args = format!("--seed {seed} --seconds {seconds} --trace {trace}");
                let text = bench_once(&dirs[side], w, trace, &args)?;
                let record = json::parse(&text)?;
                runs.push((w.into(), seed.parse().unwrap_or(0), pair, side, record, text));
            }
        }
    }

    let higher: Vec<(&str, bool)> = ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|group| spec.get(group).items())
        .map(|m| (m.get("name").str(), m.get("better").str() == "higher"))
        .collect();
    let (summary, table, ok) = summarize(&runs, &higher);
    println!("{table}");

    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo.lines().find_map(|l| l.strip_prefix("model name")).unwrap_or("unknown");
    let cpu = cpu.trim_start_matches([' ', '\t', ':']);
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let label = flag("label", "").to_string();
    let label = if label.is_empty() { commits[1][..7].to_string() } else { label };
    let mut report = format!(
        "{{\n  \"label\": {label:?},\n  \"rev_a\": {{\"arg\": {:?}, \"commit\": {:?}}},\n  \
         \"rev_b\": {{\"arg\": {:?}, \"commit\": {:?}}},\n  \"host\": {{\"nproc\": {nproc}, \
         \"cpu_model\": {cpu:?}}},\n  \"settings\": {{\"pairs\": {pairs}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"order\": \"odd pairs run a first\"}},\n  \"checks_passed\": {ok},\n  \
         \"summary\": [\n    {}\n  ],\n  \"runs\": [",
        revs[0],
        commits[0],
        revs[1],
        commits[1],
        summary.join(",\n    "),
    );
    for (i, r) in runs.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let side = SIDES[r.3];
        let _ = write!(
            report,
            "{sep}\n    {{\"pair\": {}, \"side\": \"{side}\", \"record\": {}}}",
            r.2,
            r.5.trim()
        );
    }
    let path = root.join(format!("BENCH_{label}.json"));
    fs::write(&path, report + "\n  ]\n}\n").map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("bench-pair: wrote {}", path.display());
    Ok(ok)
}

/// `[median, q1, q3]`, interpolating between order statistics.
fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut s: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
    s.sort_by(f64::total_cmp);
    [0.5, 0.25, 0.75].map(|p| {
        let pos = p * s.len().saturating_sub(1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        s.get(lo).zip(s.get(hi)).map_or(f64::NAN, |(a, b)| a + (b - a) * (pos - lo as f64))
    })
}

/// The summary rows (JSON), the printed table, and whether every
/// correctness and digest check held.
fn summarize(runs: &[Run], higher: &[(&str, bool)]) -> (Vec<String>, String, bool) {
    let (mut ok, mut rows, mut notes) = (true, Vec::new(), String::new());
    let mut table = String::from(
        "| workload | seed | metric | a | b | b ÷ a | b better in | |b−a| > IQR(a) |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for first in runs.iter().filter(|r| r.2 == 1 && r.3 == 0) {
        let (w, seed) = (&first.0, first.1);
        let cell: Vec<&Run> = runs.iter().filter(|r| &r.0 == w && r.1 == seed).collect();
        let bad =
            |r: &&&Run| r.4.get("correct") != &Value::Bool(true) || r.4.get("failed").num() != 0.0;
        for r in cell.iter().filter(bad) {
            ok = false;
            let _ =
                writeln!(notes, "FAIL: {w} seed {seed} pair {} {}: not correct", r.2, SIDES[r.3]);
        }
        for digest in ["inputs_digest", "answers_digest"] {
            if cell.iter().any(|r| r.4.get(digest) != first.4.get(digest)) {
                ok = false;
                let _ = writeln!(notes, "FAIL: {w} seed {seed}: {digest} differs between runs");
            }
        }
        for (name, m) in first.4.get("metrics").members() {
            let value = |r: &&Run| r.4.get("metrics").get(name).get("value").num();
            let side = |s| -> Vec<f64> { cell.iter().filter(|r| r.3 == s).map(value).collect() };
            let (a, b) = (side(0), side(1));
            let up = higher.iter().find(|h| h.0 == name).map(|h| h.1);
            let wins = a
                .iter()
                .zip(&b)
                .filter(|(va, vb)| up.is_some_and(|up| (vb > va) == up && vb != va));
            let wins =
                if up.is_some() { format!("{}/{}", wins.count(), a.len()) } else { "–".into() };
            let (qa, qb) = (quartiles(&a), quartiles(&b));
            let resolved = (qb[0] - qa[0]).abs() > qa[2] - qa[1];
            if name.starts_with("core.query.") && a != b {
                let _ = writeln!(notes, "note: {w} seed {seed}: {name} differs: a {a:?}, b {b:?}");
            }
            let cells = [qa[0], qa[1], qa[2], qb[0], qb[1], qb[2], qb[0] / qa[0]];
            let [ma, q1a, q3a, mb, q1b, q3b, ratio] = cells.map(fmt);
            let _ = writeln!(
                table,
                "| `{w}` | {seed} | `{name}` | {ma} [{q1a}, {q3a}] | {mb} [{q1b}, {q3b}] | {ratio} | {wins} | {} |",
                if resolved { "yes" } else { "no" }
            );
            let json = |x: f64| if x.is_finite() { x.to_string() } else { "null".into() };
            let [ma, q1a, q3a, mb, q1b, q3b, ratio] = cells.map(json);
            rows.push(format!(
                "{{\"workload\": {w:?}, \"seed\": {seed}, \"metric\": {name:?}, \"unit\": {:?}, \
                 \"a\": [{ma}, {q1a}, {q3a}], \"b\": [{mb}, {q1b}, {q3b}], \"ratio\": {ratio}, \
                 \"b_better_in\": {wins:?}, \"gain_exceeds_a_iqr\": {resolved}}}",
                m.get("unit").str()
            ));
        }
    }
    (rows, table + &notes, ok)
}

/// Four significant digits, enough for a table cell.
fn fmt(x: f64) -> String {
    let digits =
        if x.is_normal() { (3 - x.abs().log10().floor() as i32).max(0) as usize } else { 0 };
    format!("{x:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(pair: usize, side: usize, qps: f64, digest: &str) -> Run {
        let record = format!(
            r#"{{"correct": true, "failed": 0, "inputs_digest": "i", "answers_digest": "{digest}",
                "metrics": {{"throughput_qps": {{"value": {qps}, "unit": "req/s"}}}}}}"#
        );
        ("w".into(), 1, pair, side, json::parse(&record).expect("a valid record"), record)
    }

    #[test]
    fn wins_follow_the_metric_direction_and_digests_are_checked() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), [3.0, 2.0, 4.0]);
        let mut runs = vec![sample(1, 0, 100.0, "x"), sample(1, 1, 120.0, "x")];
        runs.extend([sample(2, 1, 90.0, "x"), sample(2, 0, 95.0, "x")]);
        for up in [true, false] {
            let (rows, table, ok) = summarize(&runs, &[("throughput_qps", up)]);
            let cells = "| 97.50 [96.25, 98.75] | 105.0 [97.50, 112.5] | 1.077 | 1/2 | yes |";
            assert!(ok && table.contains(cells), "{table}");
            let row = json::parse(&rows[0]).expect("a JSON row");
            assert_eq!(
                (row.get("b_better_in").str(), row.get("a").items()[2].num()),
                ("1/2", 98.75)
            );
        }
        runs[3].4 = sample(2, 0, 95.0, "y").4;
        let (_, table, ok) = summarize(&runs, &[]);
        assert!(
            !ok && table.contains("answers_digest differs") && table.contains("| – |"),
            "{table}"
        );
        assert_eq!([2590.83, 0.67234, 27.534, 0.0].map(fmt), ["2591", "0.6723", "27.53", "0"]);
    }

    #[test]
    fn arguments_split_into_revisions_and_known_flags() {
        let args: Vec<String> =
            "a05f11e --pairs 4 HEAD --seed 1,7".split(' ').map(String::from).collect();
        let (revs, flags) = split_args(&args).expect("valid arguments");
        assert_eq!((revs, flags), (vec!["a05f11e", "HEAD"], vec![("pairs", "4"), ("seed", "1,7")]));
        assert!(split_args(&args[..3]).is_err(), "two revisions");
        assert!(split_args(&["a".into(), "b".into(), "--pair".into(), "4".into()]).is_err());
        assert!(run(&["a".into(), "b".into(), "--trace".into(), "2".into()]).is_err());
    }
}
