"""End-to-end benchmark: build -> pack -> serve, five workloads.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --seed 1 --seconds 15 [--workload NAME]
        [--trace 0|1] [--json OUT] [--smoke]

``--seconds`` is the measured window, ``run_seconds`` in
``BENCHMARK.json`` for a full run.  Prints ``workload metric value unit`` for every metric, then, as the
last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones (its first half runs untraced, so it
also prints the end-to-end lines and the tracing overhead).  Without
``--workload`` every workload runs, each in a fresh subprocess.
``--json OUT`` appends one JSON record per workload run (metrics,
sample counts, hardware stamp and, when traced, the spans); feed two
such files to ``compare.py``.  Exits non-zero when any output check
fails.  See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: build outputs and scratch space, inside the checkout
BUILD_DIR = os.path.join(ROOT, ".bench_build")


def load_bench() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric names and units this run reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def git_sha() -> str:
    """The checkout's commit; ``unknown`` when the checkout is not a
    repository (git may not look above it) or git is missing."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES":
                 os.path.dirname(ROOT)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp(native_load_s: float) -> Dict[str, Any]:
    """Hardware and environment the numbers were measured on."""
    from repro import native
    from repro.graph.shortest_paths import kernel_mode

    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "mem_gib": round(pages / 2**30),
        "python": platform.python_version(),
        "kernel": kernel_mode(),
        "native_fallback": native.fallback_reason(),
        "native_load_s": native_load_s,
        "repro_parallel": os.environ.get("REPRO_PARALLEL", ""),
        "sha": git_sha(),
    }


def pin_cpu(workload: str) -> Optional[int]:
    """Run a one-process workload on one CPU, the last this process may
    use; returns it, or ``None`` when the workload keeps every CPU.

    The recording host's two vCPUs ran the same code at speeds up to
    1.7x apart, so a run took its set-up times from whichever one the
    scheduler chose.  Pinned, every run of a workload sees the same CPU
    (the last, as the first takes more interrupts).  ``serve-cluster``
    keeps every CPU for its two worker processes, and so does a build
    with a ``REPRO_PARALLEL`` pool.
    """
    from repro.graph.parallel import parallel_workers

    if workload == "serve-cluster" or parallel_workers():
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_one(args: argparse.Namespace) -> int:
    """Run one workload in this process and print its results."""
    import e2e_workloads as wl
    from repro.graph.shortest_paths import kernel_mode

    # load (or compile) the native kernels before anything is timed
    t0 = perf_counter()
    kernel_mode()
    env = stamp(perf_counter() - t0)
    env["pinned_cpu"] = pin_cpu(args.workload)
    print("stamp " + json.dumps(env, sort_keys=True), flush=True)

    tmp = tempfile.mkdtemp(prefix="e2e-")  # under $TMPDIR, see main()
    try:
        out = wl.RUNNERS[args.workload](
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.smoke, tmp,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    units = {
        m["name"]: m["unit"]
        for m in args.bench["end_to_end"] + args.bench["per_layer"]
    }
    undeclared = sorted(set(out.e2e).union(out.layer) - set(units))
    if undeclared:
        raise ValueError(f"metrics not in BENCHMARK.json: {undeclared}")
    # every end-to-end metric must be measured.  A traced run reports
    # every per-layer metric, 0 for a layer this workload does not
    # exercise; an untraced one the wall-clock figures it measured.
    e2e = {m["name"]: out.e2e[m["name"]] for m in args.bench["end_to_end"]}
    layer = dict(out.layer)
    if args.trace:
        layer = {
            m["name"]: out.layer.get(m["name"], 0.0)
            for m in args.bench["per_layer"]
        }
    for name, value in list(e2e.items()) + list(layer.items()):
        print(f"{args.workload} {name} {value!r} {units[name]}")
    print(f"# {args.workload} samples: " + ", ".join(
        f"{k}={v}" for k, v in sorted(out.samples.items())
    ))
    for error in out.errors:
        print(f"# {args.workload} FAILED {error}", file=sys.stderr)

    reported = layer if args.trace else e2e
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in reported.items()
        },
    }
    if args.json:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "stamp": env,
            "correct": result["correct"],
            "attempted": out.attempted,
            "failed": out.failed,
            "errors": out.errors,
            "samples": out.samples,
            "e2e": e2e,
            "layer": layer,
            "spans": out.tracer.record() if out.tracer else None,
        }
        with open(args.json, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh interpreter (its own kernel
    resolution and peak RSS); one summary line at the end."""
    summary: Dict[str, Any] = {
        "correct": True, "attempted": 0, "failed": 0, "metrics": {},
    }
    status = 0
    for workload in args.workloads:
        cmd = [
            sys.executable, os.path.abspath(__file__),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
        ]
        if args.json:
            cmd += ["--json", args.json]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1]) if lines else None
        except ValueError:
            result = None
        if proc.returncode != 0 or result is None:
            status = 1
            summary["correct"] = False
        if result is None:
            print(f"# {workload} produced no result", file=sys.stderr)
            continue
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary), flush=True)
    return status


def parse_args(
    argv: Optional[List[str]], workloads: List[str]
) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, required=True,
        help="measured window (run_seconds in BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="append one record per workload")
    parser.add_argument(
        "--smoke", action="store_true", help="toy sizes, for the tests"
    )
    args = parser.parse_args(argv)
    args.workloads = workloads
    args.bench = load_bench()
    if args.json:
        args.json = os.path.abspath(args.json)
    return args


def main(argv: Optional[List[str]] = None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no repro package under {SRC}", file=sys.stderr)
        return 2
    # the library comes from this checkout, for this process and the
    # setup subprocesses it starts; native builds stay inside it too
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    os.environ.setdefault(
        "REPRO_NATIVE_CACHE", os.path.join(BUILD_DIR, "native")
    )
    # the C compiler's and tempfile's scratch, too
    os.environ["TMPDIR"] = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    from e2e_workloads import RUNNERS

    args = parse_args(argv, list(RUNNERS))
    # a terminated run still unwinds: the fleet stops, scratch goes
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if args.workload is None:
        return run_all(args)
    try:
        return run_one(args)
    except Exception:  # noqa: BLE001 — report, exit non-zero, no result
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
