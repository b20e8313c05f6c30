"""Compare two sets of end-to-end benchmark runs, workload by workload.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

``A`` (the parent) and ``B`` (the change) are files ``run.py --json``
appended untraced records to; each holds any number of runs.  For every
workload and end-to-end metric it prints both sets' median and
quartiles, the change of the median, and a verdict against the metric's
bound in ``BENCHMARK.json``:

* ``ok`` — the median moved by no more than the bound,
* ``regressed`` — the median got worse by more than the bound,
* ``improved`` — the median got better by more than the bound,
* ``unresolved`` — either set's quartile spread exceeds the bound, so
  the sets cannot tell a change from noise (unless every B run beats
  every A run, which reads ``improved``).

A ``failed_ratio`` row per workload regresses when B fails a larger
share of its operations than A.  Runs are comparable only on the same
hardware and environment: differing stamps (cores, kernel,
``REPRO_PARALLEL``...) are refused.  Exits 1 on any regression, 2 on
input it refuses, 0 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
#: stamp fields that must agree; the commit SHA and load time may differ
STAMP_KEYS = (
    "cores", "cpu_count", "machine", "mem_gib", "python", "kernel",
    "repro_parallel",
)


class RefusedError(ValueError):
    """Input the comparison refuses (mismatched stamps, missing runs)."""


def load_runs(path: str) -> List[Dict[str, Any]]:
    with open(path) as fh:
        runs = [json.loads(line) for line in fh if line.strip()]
    runs = [r for r in runs if not r["trace"] and not r["smoke"]]
    if not runs:
        raise RefusedError(f"{path}: no untraced full-size runs")
    return runs


def check_stamps(runs: List[Dict[str, Any]]) -> None:
    seen: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
    for run in runs:
        key = tuple(run["stamp"].get(k) for k in STAMP_KEYS)
        seen.setdefault(key, run["stamp"])
    if len(seen) > 1:
        stamps = list(seen.values())
        differ = [
            k for k in STAMP_KEYS
            if len({json.dumps(s.get(k)) for s in stamps}) > 1
        ]
        raise RefusedError(
            "runs come from different hardware or environments "
            f"(stamps differ in {', '.join(differ)})"
        )


def summary(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    q1, median, q3 = summary(values)
    if median == 0:
        return 0.0 if q1 == q3 else math.inf
    return (q3 - q1) / abs(median)


def verdict(
    a: List[float], b: List[float], bound: float, lower_is_better: bool
) -> Tuple[float, str]:
    """``(change, verdict)``; ``change`` > 0 means B's median is worse."""
    sign = 1.0 if lower_is_better else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    if med_a == 0:
        change = 0.0 if med_b == 0 else sign * math.copysign(math.inf, med_b)
    else:
        change = sign * (med_b - med_a) / abs(med_a)
    if max(spread(a), spread(b)) > bound:
        every_b_better = all(sign * (y - x) < 0 for x in a for y in b)
        return change, "improved" if every_b_better else "unresolved"
    if change > bound:
        return change, "regressed"
    if change < -bound:
        return change, "improved"
    return change, "ok"


def compare(
    a_runs: List[Dict[str, Any]], b_runs: List[Dict[str, Any]],
    bench: Dict[str, Any],
) -> Tuple[List[List[str]], bool]:
    """Rows to print, and whether anything regressed."""
    check_stamps(a_runs + b_runs)
    rows = []
    regressed = False
    for workload in (w["name"] for w in bench["workloads"]):
        a = [r for r in a_runs if r["workload"] == workload]
        b = [r for r in b_runs if r["workload"] == workload]
        if not a or not b:
            raise RefusedError(
                f"{workload}: {len(a)} runs in A, {len(b)} in B"
            )
        for metric in bench["end_to_end"]:
            name = metric["name"]
            va = [r["e2e"][name] for r in a]
            vb = [r["e2e"][name] for r in b]
            change, word = verdict(
                va, vb, metric["bound"], metric["better"] == "lower"
            )
            regressed = regressed or word == "regressed"
            rows.append([
                workload, name, fmt(va), fmt(vb),
                f"{change * 100:+.1f}% worse" if change >= 0
                else f"{-change * 100:.1f}% better",
                word,
            ])
        fa = failed_ratio(a)
        fb = failed_ratio(b)
        word = "regressed" if fb > fa else "ok"
        regressed = regressed or word == "regressed"
        rows.append([
            workload, "failed_ratio", f"{fa:.3g}", f"{fb:.3g}", "", word,
        ])
    return rows, regressed


def failed_ratio(runs: List[Dict[str, Any]]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / max(1, attempted)


def fmt(values: List[float]) -> str:
    q1, median, q3 = summary(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: compare.py A.jsonl B.jsonl", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    try:
        rows, regressed = compare(
            load_runs(argv[0]), load_runs(argv[1]), bench
        )
    except RefusedError as exc:
        print(f"compare.py: refusing: {exc}", file=sys.stderr)
        return 2
    header = ["workload", "metric", "A median [q1, q3]",
              "B median [q1, q3]", "change", "verdict"]
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(6)]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
