#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh [--quick] [--seed N] [--seconds S] [--out DIR]
#       Builds offline, runs every workload untraced in a fresh process each
#       (end-to-end metrics), then every workload traced (per-layer metrics),
#       prints one table and writes DIR/results.json. --quick is a
#       seconds-long smoke of the same code path.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1 [--quick]
#       One run of one workload — the form BENCHMARK.json's command is
#       invoked in. The last stdout line is the result object.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
workloads=(adhoc_uncached panel_repeat ingest_mixed cluster_paged)

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/dtk-bench"

# Provenance the binary cannot see for itself (a driver checkout is not a
# git repository; "unknown" is recorded there).
BENCH_GIT_REV="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export BENCH_GIT_REV BENCH_RUSTC

for arg in "$@"; do
    if [[ "$arg" == "--workload" ]]; then
        exec "$bin" --out "$here/out" "$@"
    fi
done

seed=1 seconds=20 out="$here/out" quick=()
while (($#)); do
    case "$1" in
        --quick) quick=(--quick); seconds=2; shift ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
mkdir -p "$out"
rm -f "$out"/*.trace[01].json "$out"/*.trace[01].tsv

status=0
for trace in 0 1; do
    for w in "${workloads[@]}"; do
        echo "run.sh: $w trace=$trace" >&2
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
            --out "$out" "${quick[@]}" >/dev/null || status=1
    done
done

{
    printf 'workload\tmetric\tvalue\tunit\n'
    for w in "${workloads[@]}"; do cat "$out/$w.trace0.tsv"; done
    # A layer a workload does not run reads 0; leave those rows out.
    for w in "${workloads[@]}"; do awk -F'\t' '$3 != 0' "$out/$w.trace1.tsv"; done
} | awk -F'\t' '{ printf "%-15s %-42s %18s  %s\n", $1, $2, $3, $4 }'

{
    printf '{"runs": [\n'
    first=1
    for trace in 0 1; do
        for w in "${workloads[@]}"; do
            ((first)) || printf ',\n'
            first=0
            tr -d '\n' <"$out/$w.trace$trace.json"
        done
    done
    printf '\n]}\n'
} >"$out/results.json"
echo "run.sh: wrote $out/results.json" >&2
exit "$status"
