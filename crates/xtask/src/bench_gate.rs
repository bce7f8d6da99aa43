//! `bench-gate [--record]`: the benchmark's exact counts, gated.
//!
//! Reads the traced seed-1 records `benchmark/out/<w>.trace1.json` for
//! every workload of `BENCHMARK.json` — left by `benchmark/run.sh --quick`,
//! then, for `cluster_paged`, overwritten by a full-size run
//! (`benchmark/run.sh --workload cluster_paged --seed 1 --seconds 2
//! --trace 1`), the only one that faults spilled pages back in — and
//! compares them with `BENCH_gate.json` at the repository root:
//! `inputs_digest`, `answers_digest` and every `core.query.*` count
//! (fallbacks included) must match exactly, and
//! `core.storage.cold_page_reads_per_req` within 0.5 %. A full-size
//! record also carries `quick: false`, compared exactly like a digest, so
//! a quick record cannot stand in for it (a quick record leaves the flag
//! out). These repeat per seed whatever the machine; timed cells are not
//! gated. `--record` writes the file from the records instead. A change
//! that moves a count on purpose records the file anew and says so.
//! Nothing under `benchmark/` is written.

use crate::json::{self, Value};
use crate::workspace_root;
use std::fmt::Write as _;
use std::fs;
use std::process::ExitCode;

/// The file the counts are recorded in, at the repository root.
const GATE: &str = "BENCH_gate.json";
/// Counts compared within a relative tolerance, and the tolerance.
const NEAR: [(&str, f64); 1] = [("core.storage.cold_page_reads_per_req", 0.005)];

pub(crate) fn main(args: &[String]) -> ExitCode {
    let result = match args {
        [] => check(),
        [flag] if flag == "--record" => record(),
        _ => Err("usage: bench-gate [--record]".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench-gate: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The gated entries of one workload's traced quick record: name and value,
/// digests as strings.
fn gated(workload: &str) -> Result<Vec<(String, Value)>, String> {
    let path = workspace_root().join(format!("benchmark/out/{workload}.trace1.json"));
    let text = fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e} (run `benchmark/run.sh --quick` first)", path.display()))?;
    let record = json::parse(&text)?;
    if record.get("seed").num() != 1.0 {
        return Err(format!("{}: not a run with seed 1", path.display()));
    }
    let mut out: Vec<(String, Value)> = ["inputs_digest", "answers_digest"]
        .iter()
        .map(|d| (d.to_string(), record.get(d).clone()))
        .collect();
    if record.get("quick") != &Value::Bool(true) {
        out.push(("quick".to_string(), record.get("quick").clone()));
    }
    for (name, metric) in record.get("metrics").members() {
        if name.starts_with("core.query.") || NEAR.iter().any(|n| n.0 == name) {
            out.push((name.clone(), metric.get("value").clone()));
        }
    }
    Ok(out)
}

/// The workloads `BENCHMARK.json` declares.
fn workloads() -> Result<Vec<String>, String> {
    let spec = fs::read_to_string(workspace_root().join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec = json::parse(&spec)?;
    Ok(spec.get("workloads").items().iter().map(|w| w.get("name").str().to_string()).collect())
}

fn record() -> Result<(), String> {
    let mut out = String::from(
        "{\n  \"source\": \"benchmark/run.sh --quick, seed 1, traced; cluster_paged from \
         benchmark/run.sh --workload cluster_paged --seed 1 --seconds 2 --trace 1\"",
    );
    for w in workloads()? {
        let _ = write!(out, ",\n  {w:?}: {{");
        for (i, (name, value)) in gated(&w)?.iter().enumerate() {
            let value = match value {
                Value::Str(s) => format!("{s:?}"),
                Value::Bool(b) => b.to_string(),
                Value::Num(x) if x.is_finite() => x.to_string(),
                _ => "null".into(),
            };
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {name:?}: {value}");
        }
        out.push_str("\n  }");
    }
    let path = workspace_root().join(GATE);
    fs::write(&path, out + "\n}\n").map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("bench-gate: wrote {}", path.display());
    Ok(())
}

fn check() -> Result<(), String> {
    let path = workspace_root().join(GATE);
    let gate = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let gate = json::parse(&gate)?;
    let mut failures = Vec::new();
    for w in workloads()? {
        let got = gated(&w)?;
        failures.extend(compare(&w, gate.get(&w), &got));
    }
    if failures.is_empty() {
        eprintln!("bench-gate: every gated count matches {GATE}");
        return Ok(());
    }
    Err(failures.join("\n"))
}

/// Every gated entry of `got` that does not match `want`, the workload's
/// object in the gate file, and every entry of `want` missing from `got`.
fn compare(workload: &str, want: &Value, got: &[(String, Value)]) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, expected) in want.members() {
        let found = got.iter().find(|g| &g.0 == name).map_or(&Value::Null, |g| &g.1);
        let tolerance = NEAR.iter().find(|n| n.0 == name).map_or(0.0, |n| n.1);
        let holds = match (expected, found) {
            (Value::Num(a), Value::Num(b)) => (a - b).abs() <= tolerance * a.abs(),
            _ => expected == found,
        };
        if !holds {
            failures.push(format!("{workload}: {name} is {found:?}, {GATE} says {expected:?}"));
        }
    }
    for (name, _) in got.iter().filter(|g| !want.members().iter().any(|m| m.0 == g.0)) {
        failures.push(format!("{workload}: {name} is not in {GATE}"));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_exactly_and_cold_reads_within_half_a_percent() {
        let want = json::parse(
            r#"{"answers_digest": "ab", "core.query.probes_per_req": 195.3,
                "core.storage.cold_page_reads_per_req": 200}"#,
        )
        .expect("valid JSON");
        let got = |digest: &str, probes: f64, cold: f64| {
            vec![
                ("answers_digest".to_string(), Value::Str(digest.into())),
                ("core.query.probes_per_req".to_string(), Value::Num(probes)),
                ("core.storage.cold_page_reads_per_req".to_string(), Value::Num(cold)),
            ]
        };
        assert!(compare("w", &want, &got("ab", 195.3, 200.9)).is_empty());
        assert_eq!(compare("w", &want, &got("ab", 195.3, 201.1)).len(), 1);
        assert_eq!(compare("w", &want, &got("ab", 195.30001, 200.0)).len(), 1);
        assert_eq!(compare("w", &want, &got("ac", 195.3, 200.0)).len(), 1);
        let mut extra = got("ab", 195.3, 200.0);
        extra.push(("core.query.fallbacks".into(), Value::Num(0.0)));
        let failures = compare("w", &want, &extra);
        assert_eq!(failures, ["w: core.query.fallbacks is not in BENCH_gate.json"]);
    }
}
