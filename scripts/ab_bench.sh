#!/usr/bin/env bash
# A/B end-to-end benchmark: alternate runs of the parent and the change.
#
# Usage (from any directory):
#
#     scripts/ab_bench.sh PARENT_REF WORKLOAD PAIRS [SEED]
#
# A is PARENT_REF, exported with `git archive` into a fresh directory
# under $TMPDIR (the repository's .git is never touched); B is the
# working tree as it stands, uncommitted edits included.  Each of the
# PAIRS pairs runs `benchmarks/e2e/run.py --trace 0` once per side, in
# a fresh process, and who goes first swaps every pair so neither side
# always runs on a warmer machine.  SEED defaults to 1; the measured
# window is `run_seconds` from BENCHMARK.json.
#
# Records are appended to A.jsonl and B.jsonl in the current directory,
# so one call per workload builds up the full set that
# `benchmarks/e2e/compare.py A.jsonl B.jsonl` needs; the script runs it
# last and returns its exit status (2 while some workload has no runs
# yet).  Before that it prints this call's pairs on op_p50_norm: how
# many the change won, both medians and the parent's quartile spread.
set -euo pipefail

if [ "$#" -lt 3 ] || [ "$#" -gt 4 ]; then
    echo "usage: $0 PARENT_REF WORKLOAD PAIRS [SEED]" >&2
    exit 2
fi
parent_ref=$1
workload=$2
pairs=$3
seed=${4:-1}

repo=$(cd "$(dirname "$0")/.." && pwd)
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$repo/BENCHMARK.json")
parent=$(mktemp -d "${TMPDIR:-/tmp}/ab_bench.XXXXXX")
trap 'rm -rf "$parent"' EXIT
git -C "$repo" archive "$parent_ref" | tar -x -C "$parent"

out=$(pwd)

run_side() {  # run_side A|B
    local root=$repo
    [ "$1" = A ] && root=$parent
    echo "== pair $pair/$pairs: $1 ($workload, seed $seed)" >&2
    (cd "$root" && python3 benchmarks/e2e/run.py --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 \
        --json "$out/$1.jsonl" >/dev/null)
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run_side A
        run_side B
    else
        run_side B
        run_side A
    fi
done

python3 - "$out/A.jsonl" "$out/B.jsonl" "$workload" "$pairs" <<'EOF'
import json
import statistics
import sys

a_path, b_path, workload, pairs = sys.argv[1:5]


def last_runs(path):
    with open(path) as fh:
        runs = [json.loads(line) for line in fh if line.strip()]
    runs = [r for r in runs if r["workload"] == workload]
    return [r["e2e"]["op_p50_norm"] for r in runs[-int(pairs):]]


a, b = last_runs(a_path), last_runs(b_path)
wins = sum(vb < va for va, vb in zip(a, b))
q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (a[0],) * 3
print(
    f"{workload} op_p50_norm: change wins {wins}/{len(a)} pairs; median "
    f"A {statistics.median(a):.4g} B {statistics.median(b):.4g} "
    f"(A quartile spread {q3 - q1:.3g})"
)
EOF

cd "$repo"
python3 benchmarks/e2e/compare.py "$out/A.jsonl" "$out/B.jsonl"
