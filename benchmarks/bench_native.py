"""Native kernel tier benchmark: C delta-stepping + C pack decode.

The tentpole claims of the native tier, measured as engine-vs-engine
races with bit-identical results:

1. **Weighted all-balls** — the full ``all_balls`` pipeline on the
   canonical weighted workload (``n ~ 2000``, ``m ~ 4n``,
   ``ell ~ sqrt(n log n)``) under ``REPRO_KERNEL=native`` (the whole
   delta-stepping batch engine in C) vs ``REPRO_KERNEL=numpy`` (the
   vectorised bucket pipeline).  Gate: >= 2x, identical balls and radii.
2. **Cold pack decode** — every payload of a *real* ``thm11`` packed
   shard deployment decoded through the native scanner
   (:func:`~repro.routing.shard_codec.decode_node_table_fast`) vs the
   pure decoder.  Gate: >= 1.5x, identical tables.

Results land in the ``native`` key of ``BENCH_kernel.json`` (full runs
only; ``REPRO_BENCH_SMOKE=1`` shrinks sizes and skips the write), along
with :func:`repro.native.native_status` — so the recorded numbers state
which compiler and library produced them.  When the native tier cannot
load (no compiler, no cached library), the benches skip with the
recorded reason instead of failing: the differential suite, not this
bench, owns fallback correctness.  Runs under pytest or standalone
(``python benchmarks/bench_native.py``).
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import time
from contextlib import contextmanager

import pytest

from repro import native
from repro.api import build
from repro.graph import shortest_paths as sp
from repro.graph.generators import erdos_renyi, with_random_weights
from repro.graph.shortest_paths import all_balls
from repro.routing.shard_codec import (
    decode_node_table,
    decode_node_table_fast,
    iter_pack_entries,
)

from conftest import SMOKE, merge_bench_results, smoke_scale

SECTION = "Native kernel tier: C delta-stepping + C pack decode"

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_kernel.json"
)

SCHEME = "thm11"

_RESULTS: dict = {}


@contextmanager
def _kernel_mode(mode: str):
    """Force one resolved kernel mode, restoring the caller's afterwards."""
    prev = os.environ.get("REPRO_KERNEL")
    os.environ["REPRO_KERNEL"] = mode
    sp.reset_kernel_choice()
    try:
        yield
    finally:
        if prev is None:
            os.environ.pop("REPRO_KERNEL", None)
        else:
            os.environ["REPRO_KERNEL"] = prev
        sp.reset_kernel_choice()


def _native_reason() -> str:
    """Skip reason when the native tier is unavailable ('' when loaded)."""
    if native.try_kernels() is not None:
        return ""
    return f"native tier unavailable: {native.fallback_reason()}"


def _best_of(fn, runs: int = 3) -> float:
    """Best wall time of ``runs`` calls (in-process engine races)."""
    best = None
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def run_delta(n: int) -> dict:
    """Weighted all-balls: native batch engine vs numpy bucket pipeline."""
    g = with_random_weights(erdos_renyi(n, 8.0 / (n - 1), seed=7), seed=99)
    ell = max(1, int(math.ceil(math.sqrt(n * math.log2(n)))))
    times, results = {}, {}
    for mode in ("numpy", "native"):
        with _kernel_mode(mode):
            # Warm outside the timed region: CSR mirrors, scratch
            # buffers and (native) the compiled-library load.
            all_balls(g, 1)
            results[mode] = all_balls(g, ell, with_radii=True)
            times[mode] = _best_of(
                lambda: all_balls(g, ell, with_radii=True)
            )
    balls_eq = results["native"][0] == results["numpy"][0]
    radii_eq = results["native"][1] == results["numpy"][1]
    assert balls_eq and radii_eq, (
        "native all_balls diverges from the numpy engine"
    )
    out = {
        "n": n,
        "m": g.m,
        "ell": ell,
        "numpy_s": round(times["numpy"], 4),
        "native_s": round(times["native"], 4),
        "speedup": (
            round(times["numpy"] / times["native"], 2)
            if times["native"] > 0
            else None
        ),
        "identical": bool(balls_eq and radii_eq),
    }
    _RESULTS.setdefault("native", {})["delta_all_balls"] = out
    return out


def _pack_payloads(shard_dir: str) -> list:
    """Every encoded payload of a packed deployment, as bytes."""
    payloads = []
    for root, _, files in os.walk(shard_dir):
        for fname in sorted(files):
            if not fname.endswith(".pack"):
                continue
            with open(os.path.join(root, fname), "rb") as fh:
                buf = fh.read()
            for _, off, length in iter_pack_entries(buf):
                payloads.append(buf[off : off + length])
    return payloads


def run_decode(n: int) -> dict:
    """Cold pack decode: native scanner vs pure decoder, real scheme."""
    g = with_random_weights(erdos_renyi(n, 7.0 / (n - 1), seed=71), seed=72)
    session = build(SCHEME, g, seed=7)
    workdir = tempfile.mkdtemp(prefix="repro-native-bench-")
    try:
        shard_dir = os.path.join(workdir, "shards")
        session.save(shard_dir)
        payloads = _pack_payloads(shard_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert payloads, "packed deployment produced no payloads"

    pure = [decode_node_table(p) for p in payloads]
    t_pure = _best_of(lambda: [decode_node_table(p) for p in payloads])
    with _kernel_mode("native"):
        fast = [decode_node_table_fast(p) for p in payloads]
        t_native = _best_of(
            lambda: [decode_node_table_fast(p) for p in payloads]
        )
    assert fast == pure, "native pack decode diverges from the pure decoder"
    out = {
        "scheme": SCHEME,
        "n": n,
        "payloads": len(payloads),
        "bytes": sum(len(p) for p in payloads),
        "pure_s": round(t_pure, 4),
        "native_s": round(t_native, 4),
        "speedup": (
            round(t_pure / t_native, 2) if t_native > 0 else None
        ),
        "identical": True,
    }
    _RESULTS.setdefault("native", {})["pack_decode"] = out
    return out


def _flush(smoke: bool) -> None:
    if smoke or not _RESULTS:
        return
    section = _RESULTS.setdefault("native", {})
    section["status"] = native.native_status()
    section["workload"] = (
        "delta: all_balls(with_radii) on erdos_renyi(n, 8/(n-1), seed=7) "
        "+ random weights, ell = ceil(sqrt(n log2 n)), REPRO_KERNEL="
        "native vs numpy, best of 3; decode: every payload of a packed "
        f"{SCHEME} deployment, decode_node_table_fast (native scanner) "
        "vs decode_node_table (pure), best of 3"
    )
    merge_bench_results(RESULT_PATH, {"native": section})


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_native_delta_speedup(report, bench_scale):
    reason = _native_reason()
    if reason:
        pytest.skip(reason)
    n = bench_scale(2000, 200)
    out = run_delta(n)
    report.section(SECTION)
    report.line(
        f"all_balls weighted n={out['n']} m={out['m']} ell={out['ell']}: "
        f"numpy {out['numpy_s']*1000:.0f} ms -> native "
        f"{out['native_s']*1000:.0f} ms ({out['speedup']}x, identical)"
    )
    if not SMOKE:
        assert out["speedup"] >= 2.0, out


def test_native_decode_speedup(report, bench_scale):
    reason = _native_reason()
    if reason:
        pytest.skip(reason)
    n = bench_scale(600, 120)
    out = run_decode(n)
    report.section(SECTION)
    report.line(
        f"pack decode {out['scheme']} n={out['n']} "
        f"({out['payloads']} payloads, {out['bytes']} bytes): pure "
        f"{out['pure_s']*1000:.0f} ms -> native "
        f"{out['native_s']*1000:.0f} ms ({out['speedup']}x, identical)"
    )
    if not SMOKE:
        assert out["speedup"] >= 1.5, out
    _flush(SMOKE)


# ----------------------------------------------------------------------
# standalone entry point
# ----------------------------------------------------------------------
def main() -> None:
    reason = _native_reason()
    if reason:
        # Named self-skip: a compiler-less host is a supported
        # configuration, not a benchmark failure.
        print(f"SKIP bench_native: {reason}")
        return
    delta = run_delta(smoke_scale(2000, 200))
    print(
        f"all_balls[weighted] n={delta['n']} ell={delta['ell']}: numpy "
        f"{delta['numpy_s']:.3f}s -> native {delta['native_s']:.3f}s "
        f"=> {delta['speedup']}x (identical)"
    )
    decode = run_decode(smoke_scale(600, 120))
    print(
        f"pack_decode[{decode['scheme']}] n={decode['n']} "
        f"payloads={decode['payloads']}: pure {decode['pure_s']:.3f}s -> "
        f"native {decode['native_s']:.3f}s => {decode['speedup']}x "
        f"(identical)"
    )
    _flush(SMOKE)
    if not SMOKE:
        assert delta["speedup"] >= 2.0, delta
        assert decode["speedup"] >= 1.5, decode


if __name__ == "__main__":
    main()
