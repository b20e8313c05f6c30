#!/usr/bin/env bash
# The standard gate: ruff -> mypy (strict allowlist) -> invariant linter
# -> tier-1 pytest -> the pure and numpy dispatch legs -> the parallel
# bench smoke.  Correctness checks live in the tier-1 tests and speed in
# the end-to-end benchmark (benchmarks/e2e/run.py), so no other bench
# script runs here.  Every leg runs even when an earlier one fails, so
# one invocation reports everything; the exit status is non-zero if any
# leg failed.  ruff/mypy are optional dev dependencies (`pip install
# -e .[dev]`) — when absent the leg is reported as skipped, and the
# always-available legs (the repro.analysis linter + pytest) still gate.
set -uo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src

fail=0

# -- ruff: style, import order, blanket excepts ------------------------
if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests || fail=1
elif python -c "import ruff" >/dev/null 2>&1; then
    echo "== ruff (module) =="
    python -m ruff check src tests || fail=1
else
    echo "== ruff: skipped (not installed; pip install -e .[dev]) =="
fi

# -- mypy: strict over the serving/kernel core allowlist ---------------
# (the per-module strictness lives in pyproject.toml [tool.mypy])
if python -c "import mypy" >/dev/null 2>&1; then
    echo "== mypy (strict allowlist) =="
    python -m mypy \
        src/repro/routing/shard_codec.py \
        src/repro/routing/serving.py \
        src/repro/routing/faults.py \
        src/repro/graph/csr.py \
        src/repro/api/registry.py || fail=1
else
    echo "== mypy: skipped (not installed; pip install -e .[dev]) =="
fi

# -- the invariant linter (always available: stdlib only) --------------
echo "== repro.analysis =="
python -m repro.analysis src/repro || fail=1

# -- tier-1 tests ------------------------------------------------------
echo "== pytest =="
python -m pytest -x -q || fail=1

# -- pure dispatch: the shortest-path suites with the CSR kernel off, the
# routing suites through the Python pack decoder (under auto, hosts with
# a compiler decode with the C scanner only), and every scheme's stretch
# bound on the dijkstra_py rows a pure build computes --------------------
echo "== pytest (REPRO_KERNEL=pure) =="
REPRO_KERNEL=pure python -m pytest -q tests/graph/test_metric.py \
    tests/graph/test_shortest_paths.py tests/graph/test_core.py \
    tests/structures tests/routing tests/schemes/test_all_schemes.py \
    || fail=1

# -- numpy dispatch: the hop-column reference through whole builds -----
# (under auto, hosts with a compiler only ever run the C column)
echo "== pytest (REPRO_KERNEL=numpy) =="
REPRO_KERNEL=numpy python -m pytest -q tests/graph/test_metric.py \
    tests/routing/test_ball_routing.py tests/core tests/schemes || fail=1

# -- parallel smoke: pool on, bit-identity asserted at every point -----
echo "== bench_parallel (smoke, REPRO_PARALLEL=2) =="
REPRO_PARALLEL=2 REPRO_BENCH_SMOKE=1 python benchmarks/bench_parallel.py \
    || fail=1

exit "$fail"
