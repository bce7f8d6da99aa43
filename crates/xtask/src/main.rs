//! Workspace automation. The one subcommand, `lint`, is a repo-specific
//! static-analysis pass over `crates/*/src` — plain line rules, no parser,
//! no dependencies — enforcing the concurrency conventions that
//! `durable_topk_check` enforces dynamically:
//!
//! * no raw `std::sync::{Mutex, RwLock}` outside `crates/check` (everything
//!   else must use the tracked, ranked wrappers);
//! * no `thread::spawn` outside `crates/core/src/pool.rs` (the worker pool
//!   owns every thread; the query path never spawns);
//! * no `.unwrap()` / `.expect(` in non-test `crates/core` / `crates/store`
//!   code (typed errors, or a safety comment plus an explicit
//!   `// lint: allow(expect)` marker);
//! * no `panic!` / `unreachable!` reachable from the query path (the crates
//!   a query traverses: temporal, geom, index, store, core) without a
//!   `// lint: allow(panic)` marker documenting why it is unreachable or
//!   part of a documented-panic API;
//! * every `LockClass` variant has an explicit rank (no wildcard arm in
//!   `LockClass::rank`);
//! * no `#[deprecated]` item (a shim is deleted by the PR that supersedes
//!   it, not parked; this rule takes no allow marker).
//!
//! A finding is suppressed by putting `lint: allow(<rule>)` in a comment on
//! the same line or anywhere in the contiguous comment block directly
//! above (so the safety justification can wrap). Test code — everything
//! from the first `#[cfg(test)]` line to the end of the file, per the
//! repo's tests-at-the-bottom convention — is exempt from all line rules.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One rule violation: file, 1-based line, rule id, and the offending text.
struct Finding {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    text: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.rule, self.text.trim())
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        other => {
            eprintln!("usage: cargo run -p xtask -- lint");
            if let Some(cmd) = other {
                eprintln!("unknown subcommand: {cmd}");
            }
            ExitCode::FAILURE
        }
    }
}

/// Workspace root, derived from this crate's manifest dir (crates/xtask).
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(Path::parent).map(Path::to_path_buf).unwrap_or(manifest)
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files);
    files.sort();

    let mut findings = Vec::new();
    for file in &files {
        let Ok(source) = fs::read_to_string(file) else {
            findings.push(Finding {
                file: file.clone(),
                line: 0,
                rule: "io",
                text: "unreadable source file".into(),
            });
            continue;
        };
        let rel = file.strip_prefix(&root).unwrap_or(file);
        scan_file(rel, &source, &mut findings);
    }
    findings.extend(check_rank_completeness(&root));

    if findings.is_empty() {
        println!("xtask lint: clean ({} files scanned)", files.len());
        ExitCode::SUCCESS
    } else {
        for finding in &findings {
            println!("{finding}");
        }
        println!("xtask lint: {} finding(s) in {} files scanned", findings.len(), files.len());
        ExitCode::FAILURE
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            // Only crate sources: crates/<name>/src/** (skips target/,
            // fixtures, and anything else a crate dir may grow).
            let under_src = path.components().any(|c| c.as_os_str() == "src");
            let is_crate_root = path.parent().map(|p| p.ends_with("crates")).unwrap_or(false);
            if under_src || is_crate_root || path.ends_with("src") {
                collect_rs_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs")
            && path.components().any(|c| c.as_os_str() == "src")
        {
            out.push(path);
        }
    }
}

/// Rules that apply to a file, keyed off its workspace-relative path.
struct FileRules {
    raw_locks: bool,
    spawn: bool,
    unwrap_expect: bool,
    panics: bool,
}

fn rules_for(rel: &Path) -> FileRules {
    let path = rel.to_string_lossy().replace('\\', "/");
    let in_crate = |name: &str| path.starts_with(&format!("crates/{name}/"));
    FileRules {
        // The checker itself wraps the raw primitives; xtask scans sources.
        raw_locks: !in_crate("check") && !in_crate("xtask"),
        // The worker pool owns every thread in the workspace. The linter
        // itself names the pattern in string literals.
        spawn: path != "crates/core/src/pool.rs" && !in_crate("xtask"),
        unwrap_expect: in_crate("core") || in_crate("store") || in_crate("net"),
        // Crates a query traverses; panics there would escape to callers
        // (the pool isolates job panics, but the invariant is no-panic).
        // The net crate decodes hostile bytes, so it holds the same bar.
        panics: in_crate("temporal")
            || in_crate("geom")
            || in_crate("index")
            || in_crate("store")
            || in_crate("core")
            || in_crate("net"),
    }
}

fn scan_file(rel: &Path, source: &str, findings: &mut Vec<Finding>) {
    let rules = rules_for(rel);
    // Allow markers seen in the contiguous comment block above the current
    // code line (cleared by the next code line), so safety comments can
    // wrap across lines.
    let mut block: Vec<&str> = Vec::new();
    for (idx, line) in source.lines().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("#[cfg(test)]") {
            // Repo convention: the test module sits at the bottom of the
            // file; everything below is exempt.
            break;
        }
        if trimmed.starts_with("//") {
            block.push(line);
            continue;
        }
        let allowed = |rule: &str| {
            has_allow_marker(line, rule) || block.iter().any(|l| has_allow_marker(l, rule))
        };
        let lineno = idx + 1;
        let mut hit = |rule: &'static str| {
            findings.push(Finding {
                file: rel.to_path_buf(),
                line: lineno,
                rule,
                text: line.to_string(),
            })
        };
        if rules.raw_locks
            && (contains_word(line, "Mutex") || contains_word(line, "RwLock"))
            && !allowed("lock")
        {
            hit("raw-lock");
        }
        if rules.spawn
            && (line.contains("thread::spawn") || line.contains("thread::Builder"))
            && !allowed("spawn")
        {
            hit("spawn");
        }
        if rules.unwrap_expect {
            if line.contains(".unwrap()") && !allowed("unwrap") {
                hit("unwrap");
            }
            if line.contains(".expect(") && !allowed("expect") {
                hit("expect");
            }
        }
        if rules.panics
            && (line.contains("panic!(") || line.contains("unreachable!("))
            && !allowed("panic")
        {
            hit("panic");
        }
        if trimmed.starts_with("#[deprecated") {
            hit("deprecated");
        }
        block.clear();
    }
}

/// `lint: allow(<rule>)` inside a comment on the given line.
fn has_allow_marker(line: &str, rule: &str) -> bool {
    let Some(comment) = line.find("//").map(|i| &line[i..]) else { return false };
    let Some(start) = comment.find("lint: allow(") else { return false };
    let args = &comment[start + "lint: allow(".len()..];
    let Some(end) = args.find(')') else { return false };
    args[..end].split(',').any(|r| r.trim() == rule)
}

/// `Mutex` must match as its own identifier start (so `TrackedMutex` does
/// not), but `MutexGuard` should still match — raw guard types are as raw
/// as the lock.
fn contains_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(word) {
        let at = from + pos;
        let boundary_before =
            at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
        if boundary_before {
            return true;
        }
        from = at + word.len();
    }
    false
}

/// Rule 5: every `LockClass` variant carries an explicit rank — no
/// wildcard arm hiding an unranked class.
fn check_rank_completeness(root: &Path) -> Vec<Finding> {
    let rel = PathBuf::from("crates/check/src/lib.rs");
    let path = root.join(&rel);
    let Ok(source) = fs::read_to_string(&path) else {
        return vec![Finding {
            file: rel,
            line: 0,
            rule: "rank",
            text: "cannot read the LockClass declaration".into(),
        }];
    };

    let mut variants: Vec<(usize, String)> = Vec::new();
    let mut in_enum = false;
    let mut rank_body = Vec::new();
    let mut in_rank = false;
    let mut depth = 0i32;
    for (idx, line) in source.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.starts_with("pub enum LockClass") {
            in_enum = true;
            continue;
        }
        if in_enum {
            if trimmed == "}" {
                in_enum = false;
                continue;
            }
            if let Some(name) = trimmed.strip_suffix(',') {
                if !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                    variants.push((idx + 1, name.to_string()));
                }
            }
            continue;
        }
        if trimmed.contains("fn rank(self)") {
            in_rank = true;
            depth = 0;
        }
        if in_rank {
            depth += line.matches('{').count() as i32 - line.matches('}').count() as i32;
            rank_body.push((idx + 1, line.to_string()));
            if depth <= 0 && line.contains('}') {
                in_rank = false;
            }
        }
    }

    let mut findings = Vec::new();
    if variants.is_empty() || rank_body.is_empty() {
        findings.push(Finding {
            file: rel.clone(),
            line: 0,
            rule: "rank",
            text: "LockClass enum or rank() not found — update the xtask parser".into(),
        });
        return findings;
    }
    for (line, variant) in &variants {
        let arm = format!("LockClass::{variant} =>");
        if !rank_body.iter().any(|(_, l)| l.contains(&arm)) {
            findings.push(Finding {
                file: rel.clone(),
                line: *line,
                rule: "rank",
                text: format!("LockClass::{variant} has no explicit rank arm"),
            });
        }
    }
    for (line, text) in &rank_body {
        if text.trim_start().starts_with("_ =>") {
            findings.push(Finding {
                file: rel.clone(),
                line: *line,
                rule: "rank",
                text: "wildcard arm in LockClass::rank hides unranked classes".into(),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_marker_matches_rule_names() {
        assert!(has_allow_marker(
            "let x = y.expect(\"ok\"); // lint: allow(expect) — safe",
            "expect"
        ));
        assert!(has_allow_marker("// lint: allow(panic, expect)", "panic"));
        assert!(!has_allow_marker("let x = y.expect(\"ok\");", "expect"));
        assert!(!has_allow_marker("// lint: allow(panic)", "expect"));
        assert!(!has_allow_marker("lint: allow(expect) outside a comment", "expect"));
    }

    #[test]
    fn word_boundaries_spare_the_tracked_wrappers() {
        assert!(contains_word("use std::sync::Mutex;", "Mutex"));
        assert!(contains_word("state: Mutex<QueueState>,", "Mutex"));
        assert!(contains_word("fn f(g: MutexGuard<'_, T>)", "Mutex"));
        assert!(!contains_word("state: TrackedMutex<QueueState>,", "Mutex"));
        assert!(!contains_word("TrackedRwLock::new", "RwLock"));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\n";
        let mut findings = Vec::new();
        scan_file(Path::new("crates/core/src/foo.rs"), src, &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn deprecated_items_are_findings_no_marker_excuses() {
        let src = "// lint: allow(deprecated)\n#[deprecated(note = \"use new\")]\nfn old() {}\n";
        let mut findings = Vec::new();
        scan_file(Path::new("crates/temporal/src/foo.rs"), src, &mut findings);
        assert_eq!(
            findings.iter().map(|f| (f.line, f.rule)).collect::<Vec<_>>(),
            [(2, "deprecated")]
        );
    }

    #[test]
    fn allow_markers_span_comment_blocks() {
        let src = "// lint: allow(expect) — justification that wraps\n\
                   // across a second comment line.\n\
                   a.expect(\"covered\");\n\
                   b.expect(\"uncovered\");\n";
        let mut findings = Vec::new();
        scan_file(Path::new("crates/core/src/foo.rs"), src, &mut findings);
        assert_eq!(findings.len(), 1, "the block covers only the next code line");
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn rank_rule_finds_the_real_declaration() {
        let findings = check_rank_completeness(&workspace_root());
        assert!(
            findings.is_empty(),
            "rank completeness should hold in-tree: {:?}",
            findings.iter().map(|f| f.to_string()).collect::<Vec<_>>()
        );
    }
}
