"""Parallel preprocessing benchmark: multiprocess all-balls scaling.

The tentpole claim of the shared-memory parallel tier
(:mod:`repro.graph.parallel`), measured:

* **Scaling curve** — weighted ``all_balls`` (the dominant
  preprocessing step) serial vs ``REPRO_PARALLEL`` workers at
  ``n = 2000 -> 10^5`` on ``random_sparse(n, 4n)`` graphs, with the
  parallel result asserted **bit-identical** to serial at every point
  (the tier's contract: wall-clock changes, bytes never do).
* **Gate** — at the largest size the parallel run is ``>= 1.7x`` faster
  with ``>= 2`` workers.  On hardware without ``>= 2`` cores real
  parallelism is physically impossible, so the gate auto-relaxes to a
  parity floor (the two workers timesharing one core must stay within
  3x of serial — the shm/IPC tax, not a speedup).  The record is
  stamped with ``host_stamp()`` (``cores`` from the CPU affinity mask,
  the resolved ``kernel`` and the ``REPRO_PARALLEL`` setting the run
  started with) so readers can tell the regimes apart.
* **10^6 smoke** — behind ``REPRO_BENCH_HUGE=1`` (tens of minutes of
  wall-clock and tens of GB of RAM): the ROADMAP's combined target end
  to end — the all-balls probe, then a **full Table-1 scheme build**
  (``thm11`` through :func:`repro.api.build`) and a packed shard write
  at ``n = 10^6``, under the resolved kernel (native preferred) and the
  parallel worker pool.  Phase times, table-space stats and shard bytes
  are recorded; no serial baseline (it would double a run this size)
  and hence no gate.

The ball size is ``ell = min(64, ceil(sqrt(n log2 n)))`` — the cap
keeps the spliced result arrays (``n * ell`` vertex ids) bounded so the
curve measures search work, not result pickling; the cap is recorded in
the JSON rather than silently applied.

Results land in ``BENCH_kernel.json`` under ``parallel`` (full runs
only; ``REPRO_BENCH_SMOKE=1`` shrinks sizes and skips the write).  Runs
under pytest (``pytest benchmarks/bench_parallel.py``) or standalone
(``python benchmarks/bench_parallel.py``).
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from repro.graph import parallel
from repro.graph.csr import csr_graph
from repro.graph.generators import random_sparse, with_random_weights

from conftest import (
    SMOKE,
    available_cores,
    host_stamp,
    merge_bench_results,
    smoke_scale,
)

SECTION = "Parallel preprocessing: multiprocess all-balls scaling"

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_kernel.json"
)

HUGE = os.environ.get("REPRO_BENCH_HUGE", "").strip().lower() in (
    "1", "true", "yes", "on",
)

SIZES_FULL = [2000, 20000, 100_000]
SIZES_SMOKE = [300, 600]
ELL_CAP = 64


def _workers() -> int:
    """>= 2 always (the tier's contract is bit-identity, so racing two
    workers on one core is valid — just not faster), capped at 8."""
    return min(8, max(2, available_cores()))


def _ell(n: int) -> int:
    return min(ELL_CAP, max(8, int(math.ceil(math.sqrt(n * math.log2(n))))))


def _set_parallel(value: str) -> None:
    os.environ["REPRO_PARALLEL"] = value
    parallel.reset_parallel_choice()


def _build_csr(n: int, seed: int = 97):
    g = with_random_weights(random_sparse(n, 4 * n, seed=seed), seed=seed + 1)
    return csr_graph(g)


def run_point(n: int, workers: int) -> dict:
    csr = _build_csr(n)
    ell = _ell(n)

    _set_parallel("off")
    t0 = time.perf_counter()
    sb, sv, sr = csr.all_balls(ell, tol=0.0, with_radii=True, as_arrays=True)
    serial_s = time.perf_counter() - t0

    _set_parallel(str(workers))
    t0 = time.perf_counter()
    pb, pv, pr = csr.all_balls(ell, tol=0.0, with_radii=True, as_arrays=True)
    parallel_s = time.perf_counter() - t0
    _set_parallel("off")
    # below the work floor the "parallel" leg ran serially
    pooled = csr._parallel is not None

    assert np.array_equal(pb, sb), f"bounds diverge at n={n}"
    assert np.array_equal(pv, sv), f"ball vertices diverge at n={n}"
    assert np.array_equal(pr, sr), f"radii diverge at n={n}"
    return {
        "n": n,
        "m": csr.m,
        "ell": ell,
        "workers": workers,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup": (
            round(serial_s / parallel_s, 2) if parallel_s > 0 else None
        ),
        "pooled": pooled,
        "bit_identical": True,
    }


HUGE_SCHEME = "thm11"


def run_huge(workers: int, n: int = 1_000_000) -> dict:
    """Full Table-1 build + shard write at n = 10^6 (REPRO_BENCH_HUGE=1).

    The ROADMAP's combined target, end to end on one machine: the
    all-balls probe (the historical huge smoke, kept as a comparable
    phase timing), then a complete ``thm11`` scheme build through
    :func:`repro.api.build` and a packed shard write — all under the
    session's resolved kernel (native preferred) and ``workers``
    parallel workers.  Build-phase times, table-space stats and shard
    bytes are recorded; no serial baseline (it would double a run this
    size) and hence no gate.
    """
    import shutil
    import tempfile

    from repro.api import build
    from repro.graph import shortest_paths as sp

    g = with_random_weights(random_sparse(n, 4 * n, seed=97), seed=98)
    csr = csr_graph(g)
    ell = 16  # build-time probe, not the curve's workload
    _set_parallel(str(workers))
    t0 = time.perf_counter()
    bounds, verts, _ = csr.all_balls(ell, tol=0.0, as_arrays=True)
    probe_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    session = build(HUGE_SCHEME, g, seed=7)
    build_s = time.perf_counter() - t0

    workdir = tempfile.mkdtemp(prefix="repro-huge-bench-")
    try:
        shard_dir = os.path.join(workdir, "shards")
        t0 = time.perf_counter()
        session.save(shard_dir)
        shard_s = time.perf_counter() - t0
        shard_bytes = sum(
            os.path.getsize(os.path.join(root, f))
            for root, _, files in os.walk(shard_dir)
            for f in files
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _set_parallel("off")

    stats = session.stats()
    return {
        "n": n,
        "m": csr.m,
        "scheme": HUGE_SCHEME,
        "workers": workers,
        "kernel": sp.kernel_mode(),
        "probe_ell": ell,
        "probe_s": round(probe_s, 2),
        "probe_ball_entries": int(verts.size),
        "build_s": round(build_s, 2),
        "substrate_s": round(session.substrate_seconds, 2),
        "shard_write_s": round(shard_s, 2),
        "shard_bytes": shard_bytes,
        "avg_table_words": round(stats.avg_table_words, 1),
        "max_table_words": stats.max_table_words,
        "note": (
            "full Table-1 build + packed shard write; parallel-only, "
            "no serial baseline, no gate"
        ),
    }


def run_curve(sizes) -> dict:
    # stamped before run_point switches REPRO_PARALLEL per leg
    stamp = host_stamp()
    workers = _workers()
    curve = []
    # Smoke sizes sit far below the pool's work floor: lower it so the
    # smoke still checks the pool's output against the serial sweep.
    floor = parallel._MIN_PARALLEL_WORK
    if SMOKE:
        parallel._MIN_PARALLEL_WORK = 0
    try:
        for n in sizes:
            curve.append(run_point(n, workers))
    finally:
        parallel._MIN_PARALLEL_WORK = floor
    assert all(r["pooled"] for r in curve) or not SMOKE, curve
    out = {
        **stamp,
        "workers": workers,
        "gate": (
            ">= 1.7x at largest n"
            if stamp["cores"] >= 2
            else "parity floor (single core: parallel_s <= 3x serial_s)"
        ),
        "ell_cap": ELL_CAP,
        "curve": curve,
        "workload": (
            "random_sparse(n, 4n, seed=97) with uniform [1,10] weights; "
            "weighted all_balls(ell, tol=0, with_radii=True), "
            "delta engine; ell = min(64, ceil(sqrt(n log2 n)))"
        ),
    }
    if HUGE:
        out["huge"] = run_huge(workers)
    return out


def _assert_gate(out: dict) -> None:
    largest = out["curve"][-1]
    assert largest["bit_identical"], largest
    if out["cores"] >= 2:
        assert largest["speedup"] >= 1.7, largest
    else:
        # One core: no speedup is possible; bound the distribution tax.
        assert largest["parallel_s"] <= 3.0 * largest["serial_s"], largest


def _report_lines(out: dict) -> list:
    lines = [
        f"{out['workers']} workers on {out['cores']} core(s); "
        f"gate: {out['gate']}"
    ]
    for r in out["curve"]:
        lines.append(
            f"all_balls weighted n={r['n']} m={r['m']} ell={r['ell']}: "
            f"serial {r['serial_s']:.2f}s -> parallel "
            f"{r['parallel_s']:.2f}s ({r['speedup']}x, bit-identical"
            f"{'' if r['pooled'] else ', below the pool floor: serial'})"
        )
    if "huge" in out:
        h = out["huge"]
        lines.append(
            f"huge {h['scheme']} n={h['n']} m={h['m']} "
            f"[kernel={h['kernel']}, {h['workers']} workers]: ball probe "
            f"{h['probe_s']:.1f}s, build {h['build_s']:.1f}s "
            f"(substrate {h['substrate_s']:.1f}s), shard write "
            f"{h['shard_write_s']:.1f}s ({h['shard_bytes']} bytes, "
            f"avg {h['avg_table_words']:.1f} table words)"
        )
    return lines


# ----------------------------------------------------------------------
# pytest / standalone entry points
# ----------------------------------------------------------------------
def test_parallel_scaling(report):
    out = run_curve(smoke_scale(SIZES_FULL, SIZES_SMOKE))
    report.section(SECTION)
    for line in _report_lines(out):
        report.line(line)
    # bit-identity holds at every scale (it is determinism, not speed);
    # the speedup gate and the JSON write are full-run only
    assert all(r["bit_identical"] for r in out["curve"]), out
    if not SMOKE:
        _assert_gate(out)
        merge_bench_results(RESULT_PATH, {"parallel": out})


def main() -> None:
    out = run_curve(smoke_scale(SIZES_FULL, SIZES_SMOKE))
    for line in _report_lines(out):
        print(line)
    if not SMOKE:
        _assert_gate(out)
        merge_bench_results(RESULT_PATH, {"parallel": out})
        print(f"merged into {os.path.normpath(RESULT_PATH)}")


if __name__ == "__main__":
    main()
