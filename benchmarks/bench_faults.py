"""Fault-tolerance benchmark: throughput under faults.

Routed hops/second through a ``replicas=2`` :class:`ShardStore` behind
a seeded :class:`FaultInjector` at increasing fault rates (0%, 1%, 5%
across all four fault kinds), recorded in ``BENCH_kernel.json`` under
``serving_faults``.  Every route must still complete — the store fails
over, retries transients and quarantines bad copies — so the scenario
records how gracefully throughput degrades, plus the failover/retry
counters that did the surviving.

``REPRO_BENCH_SMOKE=1`` shrinks n and skips the JSON write.  Runs under
pytest or standalone (``python benchmarks/bench_faults.py``).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

from repro.api import build
from repro.eval.workloads import sample_pairs
from repro.graph.generators import erdos_renyi, with_random_weights
from repro.routing.faults import FaultInjector
from repro.routing.serving import LocalRouter, ShardStore, write_shards
from repro.routing.simulator import route

from conftest import SMOKE, merge_bench_results, smoke_scale

SECTION = "Fault tolerance: throughput under faults"

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_kernel.json"
)

SCHEME = "thm11"

#: injected-fault probability per fault kind, per scenario
FAULT_RATES = (0.0, 0.01, 0.05)


def run_fault_rates(
    n: int, *, pairs: int = 150, group_size: int = 32
) -> dict:
    """Routed throughput through replicas=2 at increasing fault rates."""
    workdir = tempfile.mkdtemp(prefix="repro-faults-route-")
    try:
        g = with_random_weights(
            erdos_renyi(n, 7.0 / (n - 1), seed=71), seed=72
        )
        session = build(SCHEME, g, seed=7)
        path = os.path.join(workdir, "replicated")
        write_shards(
            session.scheme, path,
            spec_name=session.spec_name, params=session.params,
            seed=session.seed, group_size=group_size, replicas=2,
        )
        sample = sample_pairs(n, pairs, seed=73)
        baseline = {
            (s, t): route(session.scheme, s, t).path for s, t in sample
        }

        scenarios = []
        for rate in FAULT_RATES:
            injector = FaultInjector(
                seed=int(rate * 1000) + 5,
                rates={kind: rate for kind in (
                    "missing", "truncate", "bitflip", "transient"
                )},
            )
            store = ShardStore(path, io=injector)
            router = LocalRouter(store)
            t0 = time.perf_counter()
            hops = 0
            for s, t in sample:
                result = route(router, s, t)
                assert result.path == baseline[(s, t)], (
                    f"route {s}->{t} diverged under fault rate {rate}"
                )
                hops += result.hops
            seconds = time.perf_counter() - t0
            health = store.health()
            store.close()
            scenarios.append({
                "rate": rate,
                "hops_per_sec": round(hops / seconds, 0),
                "injected": injector.fault_counts(),
                "retries": health["retries"],
                "failovers": health["failovers"],
                "checksum_failures": health["checksum_failures"],
                "status": health["status"],
            })
        return {
            "n": n,
            "pairs": pairs,
            "group_size": group_size,
            "replicas": 2,
            "scheme": SCHEME,
            "scenarios": scenarios,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _report_lines(faults: dict) -> list:
    lines = []
    for sc in faults["scenarios"]:
        injected = sum(sc["injected"].values())
        lines.append(
            f"fault rate {sc['rate'] * 100:.0f}% "
            f"(n={faults['n']}, replicas=2): "
            f"{sc['hops_per_sec']:.0f} hops/s, {injected} faults "
            f"injected, {sc['failovers']} failovers, "
            f"{sc['retries']} retries — every route identical to "
            f"fault-free"
        )
    return lines


def _assert_gates(faults: dict) -> None:
    # the zero-fault scenario must be clean, and the faulted ones must
    # have actually survived observed faults
    clean = faults["scenarios"][0]
    assert clean["failovers"] == 0 and clean["retries"] == 0, clean
    assert faults["scenarios"][-1]["status"] == "degraded", faults


def test_faults(benchmark, report, bench_scale):
    faults = benchmark.pedantic(
        lambda: run_fault_rates(
            bench_scale(1000, 150), pairs=smoke_scale(150, 40)
        ),
        rounds=1, iterations=1,
    )
    report.section(SECTION)
    for line in _report_lines(faults):
        report.line(line)
    # Route-equality under faults is asserted inside run_fault_rates at
    # every scale; the scenario gates only mean something full-size.
    if not SMOKE:
        _assert_gates(faults)
        merge_bench_results(
            RESULT_PATH, {"serving_faults": {"fault_rates": faults}}
        )


def main() -> None:
    faults = run_fault_rates(
        smoke_scale(1000, 150), pairs=smoke_scale(150, 40)
    )
    for line in _report_lines(faults):
        print(line)
    if not SMOKE:
        _assert_gates(faults)
        merge_bench_results(
            RESULT_PATH, {"serving_faults": {"fault_rates": faults}}
        )
        print(f"merged into {os.path.normpath(RESULT_PATH)}")


if __name__ == "__main__":
    main()
