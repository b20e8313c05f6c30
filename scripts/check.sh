#!/usr/bin/env bash
# The standard gate: ruff -> mypy (strict allowlist) -> invariant linter
# -> tier-1 pytest.  Every leg runs even when an earlier one fails, so
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

# -- pure dispatch: the shortest-path suites with the CSR kernel off ---
echo "== pytest (REPRO_KERNEL=pure) =="
REPRO_KERNEL=pure python -m pytest -q tests/graph/test_metric.py \
    tests/graph/test_shortest_paths.py tests/graph/test_core.py \
    tests/structures || fail=1

# -- kernel smoke: batched kernel balls equal the pure ones ------------
echo "== bench_kernel (smoke) =="
REPRO_BENCH_SMOKE=1 python benchmarks/bench_kernel.py || fail=1

# -- cluster smoke: fleet vs single-process, kill-a-worker -------------
echo "== bench_cluster (smoke) =="
REPRO_BENCH_SMOKE=1 python benchmarks/bench_cluster.py || fail=1

# -- serving smoke: packs cold vs the JSON blob, warm throughput -------
echo "== bench_serving (smoke) =="
REPRO_BENCH_SMOKE=1 python benchmarks/bench_serving.py || fail=1

# -- chaos smoke: replicas=2 under seeded faults, routes unchanged -----
echo "== bench_faults (smoke) =="
REPRO_BENCH_SMOKE=1 python benchmarks/bench_faults.py || fail=1

# -- parallel smoke: pool on, bit-identity asserted at every point -----
echo "== bench_parallel (smoke, REPRO_PARALLEL=2) =="
REPRO_PARALLEL=2 REPRO_BENCH_SMOKE=1 python benchmarks/bench_parallel.py \
    || fail=1

# -- native gate: C tier forced on, bit-identity asserted ---------------
# bench_native self-skips with a named reason when no C compiler is
# present, so this leg is a no-op on compiler-less hosts.
echo "== bench_native (smoke, REPRO_KERNEL=native) =="
REPRO_KERNEL=native REPRO_BENCH_SMOKE=1 python benchmarks/bench_native.py \
    || fail=1

exit "$fail"
