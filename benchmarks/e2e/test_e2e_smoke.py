"""Smoke tests for the end-to-end benchmark (toy sizes, a few seconds).

They run ``run.py`` as the benchmark harness does, in subprocesses, and
check its output against ``BENCHMARK.json``: every workload prints every
metric under its declared name and unit, the output checks ran, a traced
run records a span for every layer the per-layer metrics read, and some
workload measures each per-layer metric.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import compare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
E2E = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}

#: spans the per-layer metrics are computed from
LAYER_SPANS = {
    "api.build", "graph.ensure_core", "routing.write_shards",
    "routing.compile_tables", "routing.scheme_stats", "substrate.balls",
    "substrate.ball_ports", "substrate.coloring", "substrate.hitting",
    "substrate.trees", "substrate.landmarks", "substrate.bunches",
    "simulator.route", "serving.step", "serving.label",
    "serving.local_edge", "serving.node_miss", "serving.node_hit",
    "cluster.route_batch",
}


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "e2e", "run.py"),
         "--seed", "1", "--seconds", "0.3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_every_workload_prints_every_metric_and_traces_every_layer(
    tmp_path,
):
    runs = tmp_path / "runs.jsonl"
    proc = run_bench("--smoke", "--trace", "1", "--json", str(runs))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] in WORKLOADS:
            printed[(parts[0], parts[1])] = parts[3]
            float(parts[2])
    for workload in WORKLOADS:
        for name, unit in {**E2E, **LAYER}.items():
            assert printed.get((workload, name)) == unit, (workload, name)

    summary = json.loads(lines[-1])
    assert summary["correct"] is True and summary["failed"] == 0
    records = [json.loads(line) for line in runs.read_text().splitlines()]
    assert [r["workload"] for r in records] == WORKLOADS
    spans = set()
    for record in records:
        assert record["correct"] and record["failed"] == 0, record["errors"]
        # builds check 500 routes through their packs; serving checks
        # every route of every round
        assert record["attempted"] > 100, record["workload"]
        assert set(record["e2e"]) == set(E2E)
        assert set(record["layer"]) == set(LAYER)
        # every layer but the cluster runs in every workload, so no
        # time reads 0
        untimed = [
            name for name, value in record["layer"].items()
            if LAYER[name] in ("s", "ms", "us") and not value
        ]
        assert not untimed, (record["workload"], untimed)
        spans.update(record["spans"]["totals"])
    assert LAYER_SPANS <= spans
    measured = {
        name for r in records for name, value in r["layer"].items() if value
    }
    assert measured == set(LAYER)


def test_untraced_result_line_reports_the_end_to_end_metrics():
    proc = run_bench("--smoke", "--workload", "build-lazy", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == E2E
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_result_when_the_library_is_absent(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run_bench(
        "--workload", WORKLOADS[0], "--trace", "0", cwd=str(tmp_path)
    )
    assert proc.returncode != 0
    assert not any(
        line.startswith("{") for line in proc.stdout.splitlines()
    )


def _record(workload, value, **stamp):
    base = {"cores": 2, "cpu_count": 2, "machine": "x86_64",
            "mem_gib": 8, "python": "3.11", "kernel": "native",
            "repro_parallel": "", "sha": "x"}
    base.update(stamp)
    return {
        "workload": workload, "trace": 0, "smoke": False, "stamp": base,
        "attempted": 10, "failed": 0,
        "e2e": {name: value for name in E2E},
    }


def _verdicts(a_values, b_values):
    a = [_record(w, v) for w in WORKLOADS for v in a_values]
    b = [_record(w, v) for w in WORKLOADS for v in b_values]
    rows, regressed = compare.compare(a, b, BENCH)
    return {row[5] for row in rows if row[1] == "op_p50_norm"}, regressed


def test_compare_verdicts_and_refusals():
    assert _verdicts([100, 101, 102], [101, 100, 102]) == ({"ok"}, False)
    assert _verdicts([100, 101, 102], [150, 151, 152]) == (
        {"regressed"}, True
    )
    assert _verdicts([100, 101, 102], [50, 51, 52])[0] == {"improved"}
    assert _verdicts([100, 150, 200], [100, 151, 199])[0] == {"unresolved"}

    a = [_record(w, 1.0) for w in WORKLOADS]
    b = [_record(w, 1.0, cores=8) for w in WORKLOADS]
    try:
        compare.compare(a, b, BENCH)
    except compare.RefusedError as exc:
        assert "cores" in str(exc)
    else:
        raise AssertionError("differing stamps were compared")
