#!/usr/bin/env bash
# The standard gate: ruff -> mypy (strict allowlist) -> invariant linter
# -> tier-1 pytest -> ten cluster chaos runs -> the pure and numpy
# dispatch legs -> a leg with
# scipy unimportable -> the C kernels under ASan/UBSan -> the parallel
# bench smoke.  Correctness checks live
# in the tier-1 tests and speed in the end-to-end benchmark
# (benchmarks/e2e/run.py), so no other bench script runs here.  Every leg runs even when an earlier one fails, so
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

# -- repeated chaos: workers drive routes on their own threads and fail
# over between themselves, so the kill-a-worker run and the per-scheme
# parity run go ten times (a shell loop: pytest-repeat is not a
# dependency) ------------------------------------------------------------
echo "== pytest (cluster chaos x10) =="
for run in $(seq 1 10); do
    python -m pytest -q -p no:cacheprovider tests/cluster/test_cluster.py \
        -k "test_kill_a_worker_mid_batch or test_cluster_routes_and_counters_match_single_process" \
        || { echo "cluster chaos run $run failed"; fail=1; }
done

# -- pure dispatch: the shortest-path suites with the CSR kernel off, the
# routing suites through the Python pack decoder (under auto, hosts with
# a compiler decode with the C scanner only), the Lemma 7/8 walks and
# techniques on pure hop columns, and every scheme's stretch bound on the
# dijkstra_py rows a pure build computes ---------------------------------
echo "== pytest (REPRO_KERNEL=pure) =="
REPRO_KERNEL=pure python -m pytest -q tests/graph/test_metric.py \
    tests/graph/test_shortest_paths.py tests/graph/test_core.py \
    tests/structures tests/routing tests/core \
    tests/schemes/test_all_schemes.py tests/baselines/test_hierarchy.py \
    || fail=1

# -- numpy dispatch: the hop-column reference and the numpy threshold
# scan through whole builds (under auto, hosts with a compiler only ever
# run the C column and the C scan), the global trees those columns give
# against the DFS tree-routing reference, and the one build path: a
# scheme built with no substrate compiles to the bytes of a shared-cache
# build
echo "== pytest (REPRO_KERNEL=numpy) =="
REPRO_KERNEL=numpy python -m pytest -q tests/graph/test_metric.py \
    tests/graph/test_trees.py tests/routing/test_ball_routing.py \
    tests/routing/test_tree_routing.py tests/core tests/schemes \
    tests/structures tests/baselines/test_hierarchy.py \
    tests/api/test_substrate.py || fail=1

# -- no scipy: rows, cluster scans and trees come from the repository's
# own kernels, so the graph suites, every scheme's build and the serving
# differentials pass with scipy unimportable (a stub package first on
# PYTHONPATH raises ImportError); tests that use scipy as an outside
# reference skip
echo "== pytest (scipy unimportable) =="
no_scipy=$(mktemp -d)
mkdir "$no_scipy/scipy"
echo 'raise ModuleNotFoundError("scipy is blocked", name="scipy")' \
    > "$no_scipy/scipy/__init__.py"
PYTHONPATH="$no_scipy:src" python -m pytest -q -p no:cacheprovider \
    tests/graph tests/schemes/test_all_schemes.py \
    tests/routing/test_serving.py || fail=1
rm -rf "$no_scipy"

# -- sanitizers: the C kernels built with ASan + UBSan into a private
# cache, at the path the loader looks for, and the suites that drive them
# run with both runtimes preloaded; any report fails the leg -----------
san_cc=$(command -v gcc || true)
asan_rt=$([ -n "$san_cc" ] && gcc -print-file-name=libasan.so || true)
ubsan_rt=$([ -n "$san_cc" ] && gcc -print-file-name=libubsan.so || true)
if [ -n "$san_cc" ] && [ -f "$asan_rt" ] && [ -f "$ubsan_rt" ]; then
    echo "== pytest (native kernels under ASan/UBSan) =="
    san_cache=$(mktemp -d)
    san_lib=$(REPRO_NATIVE_CACHE=$san_cache python -c \
        'from repro import native; print(native.kernel_library_path())')
    if gcc -fsanitize=address,undefined -fno-omit-frame-pointer -g -O1 \
            -std=c99 -shared -fPIC -o "$san_lib" \
            src/repro/native/_kernels.c; then
        sanitized() {
            REPRO_NATIVE_CACHE=$san_cache \
            LD_PRELOAD="$asan_rt $ubsan_rt" ASAN_OPTIONS=detect_leaks=0 \
            UBSAN_OPTIONS=halt_on_error=1 "$@"
        }
        # the process must map the sanitized library, not a plain build
        sanitized python -c '
import sys
from repro import native
native.load_kernels()
path = native.kernel_library_path()
mapped = path in open("/proc/self/maps").read()
if not mapped or b"__asan_" not in open(path, "rb").read():
    sys.exit(f"loaded kernel library {path} is not ASan-instrumented")
' || fail=1
        # --capture=sys keeps fd 2 on the terminal: a sanitizer report
        # aborts the process before pytest could replay captured output
        sanitized python -m pytest -q -p no:cacheprovider --capture=sys \
            tests/native \
            tests/graph/test_csr.py tests/routing/test_fuzz_codecs.py \
            tests/structures/test_bunches.py \
            tests/baselines/test_hierarchy.py || fail=1
    else
        echo "sanitized kernel build failed"
        fail=1
    fi
    rm -rf "$san_cache"
else
    echo "== sanitizers: skipped (gcc with libasan/libubsan not found) =="
fi

# -- parallel smoke: pool on, bit-identity asserted at every point -----
echo "== bench_parallel (smoke, REPRO_PARALLEL=2) =="
REPRO_PARALLEL=2 REPRO_BENCH_SMOKE=1 python benchmarks/bench_parallel.py \
    || fail=1

exit "$fail"
