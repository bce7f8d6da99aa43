//! Workspace automation. Two subcommands: `bench-pair` runs the repo's
//! benchmark over two revisions in alternating pairs (see `bench_pair.rs`),
//! and `bench-gate` checks a benchmark run's exact counts against
//! `BENCH_gate.json` (see `bench_gate.rs`). The workspace's lock, spawn and
//! panic conventions are clippy lints (`clippy.toml` and the crate roots),
//! not a pass of their own.

mod bench_gate;
mod bench_pair;
mod json;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("bench-pair") => bench_pair::main(&args[1..]),
        Some("bench-gate") => bench_gate::main(&args[1..]),
        other => {
            eprintln!(
                "usage: cargo run -p xtask -- bench-pair <rev-a> <rev-b> [options] \
                 | bench-gate [--record]"
            );
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
