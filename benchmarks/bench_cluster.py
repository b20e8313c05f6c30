"""Cluster-serving benchmark: multi-worker fleets vs the single-process
serving stack.

The ``repro.cluster`` subsystem exists for exactly two promises,
measured here on tz2 at the canonical n=1000 workload:

1. **Aggregate routed throughput** — hops/second through a 1-worker and
   a 4-worker fleet (replica-aware placement, batched FORWARD frames,
   per-worker drive sets) versus the warm single-process
   ``LocalRouter`` loop over the same packed shard directory.  Every
   cluster route is asserted hop-identical (same path, same float
   length) to the single-process result at every scale, so the
   throughput numbers compare *identical* work.

   Gate (full runs): **per-worker efficiency at 4 workers >= 0.5** —
   the 4-worker aggregate keeps at least half the 1-worker fleet's
   throughput — asserted when the host grants the fleet at least
   ``workers`` CPU cores.  On smaller hosts real parallelism is
   physically impossible (this box may expose a single core), so the
   gate degrades to the serialized floor ``>= 0.2`` — the whole fleet
   timesharing one core must not pay more than a 5x distribution tax —
   and the skipped gate is reported rather than silently passed.

2. **Routes survive a worker kill** — a fresh 4-worker / 2-replica
   fleet is SIGKILLed mid-batch; every route must still complete
   hop-identical to the fault-free reference via replica failover, and
   the client's per-worker RPC ledger must reconcile exactly against
   the surviving workers' own request counters.  This is asserted at
   every scale (it is determinism, not speed).

Results land in ``BENCH_kernel.json`` under ``cluster`` (full runs
only); ``REPRO_BENCH_SMOKE=1`` shrinks n and skips the write.  Runs
under pytest or standalone (``python benchmarks/bench_cluster.py``).
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time

from repro.api import build
from repro.cluster import start_cluster
from repro.eval.workloads import sample_pairs
from repro.graph.generators import erdos_renyi, with_random_weights
from repro.routing.serving import LocalRouter, open_store, write_shards
from repro.routing.simulator import route as sim_route

from conftest import SMOKE, available_cores, merge_bench_results, smoke_scale

SECTION = "Cluster serving: worker fleets vs single-process"

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_kernel.json"
)

SCHEME = "tz2"
WORKERS = 4
GROUP_SIZE = 16
REPS = 3


def _best_hps(route_all, hops: int) -> float:
    """Best-of-``REPS`` aggregate hops/second for one warm engine."""
    best = None
    for _ in range(REPS):
        t0 = time.perf_counter()
        route_all()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return hops / best


def _assert_identical(got, reference) -> None:
    assert len(got) == len(reference)
    for res, ref in zip(got, reference):
        assert res.path == ref.path, (res.path, ref.path)
        assert res.length == ref.length  # bit-identical float replay
        assert res.delivered


def run_cluster(n: int, *, pairs: int = 400) -> dict:
    g = with_random_weights(
        erdos_renyi(n, 7.0 / (n - 1), seed=71), seed=72
    )
    session = build(SCHEME, g, seed=7)
    workload = sample_pairs(n, pairs, seed=73)
    workdir = tempfile.mkdtemp(prefix="repro-cluster-")
    try:
        # one replicated dir for the multi-worker fleets, one plain dir
        # for the 1-worker leg (replicas=2 needs >= 2 distinct workers)
        shard_r2 = os.path.join(workdir, "r2")
        shard_r1 = os.path.join(workdir, "r1")
        for path, replicas in ((shard_r2, 2), (shard_r1, 1)):
            write_shards(
                session.scheme, path,
                spec_name=session.spec_name, params=session.params,
                seed=session.seed, group_size=GROUP_SIZE,
                replicas=replicas,
            )

        # --- single-process baseline: warm LocalRouter --------------
        store = open_store(shard_r2)
        single = LocalRouter(store)
        reference = [sim_route(single, s, t) for s, t in workload]
        hops = sum(r.hops for r in reference)
        single_hps = _best_hps(
            lambda: [sim_route(single, s, t) for s, t in workload], hops
        )
        store.close()

        # --- cluster legs: identical routes, aggregate hops/s -------
        fleet_hps = {}
        wire = {}
        for shard_dir, workers in ((shard_r1, 1), (shard_r2, WORKERS)):
            with start_cluster(shard_dir, workers=workers) as handle:
                with handle.router() as router:
                    batch = lambda: router.route_batch(  # noqa: E731
                        list(workload), batch_size=pairs
                    )
                    _assert_identical(batch(), reference)  # warm + check
                    fleet_hps[workers] = _best_hps(batch, hops)
                    stats = router.cluster_stats()
                    assert stats["failovers"] == 0
                    wire[workers] = {
                        "rpcs": stats["rpcs"],
                        "payload_bytes_sent": (
                            stats["wire"]["payload_bytes_sent"]
                        ),
                        "payload_bytes_received": (
                            stats["wire"]["payload_bytes_received"]
                        ),
                    }

        # --- chaos: SIGKILL one worker mid-batch --------------------
        survived, ledger_ok, failovers = _run_kill_scenario(
            shard_r2, workload, reference
        )

        cores = available_cores()
        return {
            "n": n,
            "scheme": SCHEME,
            "pairs": pairs,
            "hops": hops,
            "workers": WORKERS,
            "group_size": GROUP_SIZE,
            "cores": cores,
            "single_hops_per_sec": round(single_hps, 0),
            "cluster_1w_hops_per_sec": round(fleet_hps[1], 0),
            "cluster_4w_hops_per_sec": round(fleet_hps[WORKERS], 0),
            "per_worker_efficiency": round(
                fleet_hps[WORKERS] / fleet_hps[1], 3
            ),
            "efficiency_vs_single": round(
                fleet_hps[WORKERS] / single_hps, 3
            ),
            "rpcs_1w": wire[1]["rpcs"],
            "rpcs_4w": wire[WORKERS]["rpcs"],
            "wire_bytes_4w": (
                wire[WORKERS]["payload_bytes_sent"]
                + wire[WORKERS]["payload_bytes_received"]
            ),
            "routes_survive_worker_kill": survived,
            "ledger_reconciled_after_kill": ledger_ok,
            "failovers_after_kill": failovers,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_kill_scenario(shard_dir, workload, reference):
    """SIGKILL worker 1 mid-batch; routes must complete identically and
    the client/worker RPC ledgers must reconcile for survivors."""
    victim = 1
    with start_cluster(shard_dir, workers=WORKERS) as handle:
        with handle.router() as router:
            killed = []

            def chaos(index, result):
                if not killed and index >= len(workload) // 4:
                    handle.kill_worker(victim)
                    killed.append(victim)

            got = router.route_batch(
                list(workload), on_route_done=chaos, batch_size=8
            )
            _assert_identical(got, reference)
            stats = router.cluster_stats()
            ledger_ok = all(
                status is None
                or sum(status["requests"].values())
                == router.rpcs_by_worker.get(w, 0)
                for w, status in stats["per_worker"].items()
            )
            return (
                victim in router.dead_workers and len(got) == len(
                    reference
                ),
                ledger_ok,
                stats["failovers"],
            )


def _report_lines(out: dict) -> list:
    eff_note = (
        "gate: >= 0.5"
        if out["cores"] >= out["workers"]
        else f"serialized floor 0.2 — only {out['cores']} core(s)"
    )
    return [
        f"throughput n={out['n']} ({out['scheme']}, {out['pairs']} "
        f"routes, {out['hops']} hops): single-process "
        f"{out['single_hops_per_sec']:.0f} hops/s, 1-worker fleet "
        f"{out['cluster_1w_hops_per_sec']:.0f}, {out['workers']}-worker "
        f"fleet {out['cluster_4w_hops_per_sec']:.0f} "
        f"({out['rpcs_4w']} RPCs, {out['wire_bytes_4w']}B payload)",
        f"per-worker efficiency at {out['workers']} workers: "
        f"{out['per_worker_efficiency']:.2f} ({eff_note}); "
        f"vs single-process: {out['efficiency_vs_single']:.2f}",
        f"worker kill mid-batch: routes survived="
        f"{out['routes_survive_worker_kill']}, ledgers reconciled="
        f"{out['ledger_reconciled_after_kill']}, "
        f"{out['failovers_after_kill']} failovers",
    ]


def _assert_gates(out: dict) -> None:
    # determinism gates — these hold at any scale and any host
    assert out["routes_survive_worker_kill"] is True, out
    assert out["ledger_reconciled_after_kill"] is True, out
    assert out["failovers_after_kill"] >= 1, out
    # throughput gate — only meaningful when the fleet can actually
    # run in parallel; on smaller hosts the serialized floor applies
    if out["cores"] >= out["workers"]:
        assert out["per_worker_efficiency"] >= 0.5, out
    else:
        assert out["per_worker_efficiency"] >= 0.2, out


def test_cluster(benchmark, report, bench_scale):
    out = benchmark.pedantic(
        lambda: run_cluster(
            bench_scale(1000, 150), pairs=bench_scale(400, 40)
        ),
        rounds=1, iterations=1,
    )
    report.section(SECTION)
    for line in _report_lines(out):
        report.line(line)
    # the kill/ledger gates are structural and hold at smoke scale too;
    # the throughput gate and the JSON write are full-run only
    assert out["routes_survive_worker_kill"] is True, out
    assert out["ledger_reconciled_after_kill"] is True, out
    if not SMOKE:
        _assert_gates(out)
        merge_bench_results(RESULT_PATH, {"cluster": out})


def main() -> None:
    out = run_cluster(
        smoke_scale(1000, 150), pairs=smoke_scale(400, 40)
    )
    for line in _report_lines(out):
        print(line)
    if not SMOKE:
        _assert_gates(out)
        merge_bench_results(RESULT_PATH, {"cluster": out})
        print(f"merged into {os.path.normpath(RESULT_PATH)}")


if __name__ == "__main__":
    sys.exit(main())
