#!/usr/bin/env bash
# Runs two complete sets of the same commit and seed and fails if they
# disagree: any end-to-end metric by more than its bound in BENCHMARK.json,
# any digest, or any exact per-request count.
#
#   benchmark/check_repeat.sh [--quick] [--seed N]
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
a="$here/out/repeat_a" b="$here/out/repeat_b"
"$here/run.sh" --out "$a" "$@" >/dev/null
"$here/run.sh" --out "$b" "$@" >/dev/null

# name<TAB>bound for every end-to-end metric.
bounds="$(sed -n 's/.*"name": "\([^"]*\)".*"bound": \([0-9.]*\).*/\1\t\2/p' "$here/../BENCHMARK.json")"

status=0
fail() { echo "check_repeat: FAIL $*"; status=1; }

while IFS=$'\t' read -r workload metric value unit; do
    other="$(awk -F'\t' -v m="$metric" '$2 == m {print $3}' "$b/$workload.trace0.tsv")"
    bound="$(awk -F'\t' -v m="$metric" '$1 == m {print $2}' <<<"$bounds")"
    verdict="$(awk -v x="$value" -v y="$other" -v b="$bound" 'BEGIN {
        d = (x > y ? x - y : y - x) / x
        printf "%s %.1f%%", (d > b ? "FAIL" : "ok"), 100 * d }')"
    echo "$workload $metric: $value vs $other $unit (${verdict#* }, bound $bound)"
    [[ "$verdict" == ok* ]] || fail "$workload $metric differs by ${verdict#* }"
done < <(cat "$a"/*.trace0.tsv)

for f in "$a"/*.json; do
    name="$(basename "$f")"
    [[ "$name" == results.json ]] && continue
    for key in inputs_digest answers_digest; do
        x="$(grep -o "\"$key\": \"[0-9a-f]*\"" "$f")"
        y="$(grep -o "\"$key\": \"[0-9a-f]*\"" "$b/$name")"
        [[ -n "$x" && "$x" == "$y" ]] || fail "$name $key: $x vs $y"
    done
    grep -q '"correct": true' "$f" && grep -q '"correct": true' "$b/$name" || fail "$name not correct"
done

for f in "$a"/*.trace1.tsv; do
    x="$(grep -P '\tcore\.query\.' "$f")"
    y="$(grep -P '\tcore\.query\.' "$b/$(basename "$f")")"
    [[ "$x" == "$y" ]] || fail "$(basename "$f") core.query.* counts differ"
done

((status)) || echo "check_repeat: two sets agree (digests and core.query.* identical, every end-to-end metric within its bound)"
exit "$status"
