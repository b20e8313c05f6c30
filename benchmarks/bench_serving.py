"""Serving-path benchmark: cold single-shard loads vs a full decode.

The sharded deployment layout exists for exactly two numbers, measured
here on Theorem 11 at the canonical n=1000 workload:

1. **Cold start** — latency to serve the *first* request at one vertex:
   open the shard store (manifest) and load that vertex's binary shard,
   versus decoding every shard of the same packs (whole-scheme
   loading).  Gate: >= 10x lower, at every scale.  This is the number
   that decides whether a fleet of small nodes can cold-start lazily or
   must each swallow the full scheme.
2. **Routed throughput** — hops/second through the fixed-port simulator
   on the warm shard engine versus the monolithic in-memory scheme
   (both make identical step decisions; the serving tests assert it).
   The shard engine pays one dict hop per table access — this records
   how much.

The **packed** scenario (``serving_packed``, also standalone via
``python benchmarks/bench_serving.py --packed``) measures the packs at
scale, in two halves:

* **storage layer at n = 10^5** — synthetic thm11-shaped records (a
  real build is an O(n^2) APSP away at this size; the store never looks
  past the codec, so record *shape* is all that matters here): write
  time, on-disk file count and cold random-vertex lookup latency, fresh
  store per round,
* **routing layer at buildable scale** — a real thm11 session saved as
  packs: identical routes hop for hop to the in-memory scheme, and warm
  packed throughput within ~10% of in-memory routing (gate).

Results land in ``BENCH_kernel.json`` under ``serving`` and
``serving_packed`` (full runs only), each stamped with the cores,
``REPRO_KERNEL`` mode and ``REPRO_PARALLEL`` setting it ran with;
``REPRO_BENCH_SMOKE=1`` shrinks n and skips the write.  Runs under
pytest or standalone.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import sys
import tempfile
import time

from repro.api import build
from repro.eval.workloads import sample_pairs
from repro.graph.generators import erdos_renyi, with_random_weights
from repro.routing.serving import (
    LocalRouter,
    ShardStore,
    open_store,
    write_shard_records,
)
from repro.routing.simulator import route
from repro.routing.tables import NodeTable

from conftest import SMOKE, host_stamp, merge_bench_results, smoke_scale

SECTION = "Serving: cold shard loads vs full decode, routed throughput"

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_kernel.json"
)

SCHEME = "thm11"


def _median_seconds(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_serving(n: int, *, pairs: int = 200, reps: int = 15) -> dict:
    g = with_random_weights(
        erdos_renyi(n, 7.0 / (n - 1), seed=71), seed=72
    )
    session = build(SCHEME, g, seed=7)
    workdir = tempfile.mkdtemp(prefix="repro-serving-")
    try:
        shard_path = os.path.join(workdir, "session.shards")
        session.save(shard_path)
        manifest = ShardStore(shard_path).manifest

        # --- cold start: one vertex served, nothing else parsed -------
        probe = [v % n for v in (0, n // 3, n // 2, 2 * n // 3, n - 1)]

        def cold_shard():
            store = ShardStore(shard_path)
            for v in probe:
                store.node(v)

        def full_decode():
            store = ShardStore(shard_path)
            list(store.iter_nodes())
            store.close()

        shard_s = _median_seconds(cold_shard, reps) / len(probe)
        full_s = _median_seconds(full_decode, max(3, reps // 3))

        # --- routed throughput: warm engines, identical decisions -----
        sample = sample_pairs(n, pairs, seed=73)
        router = LocalRouter(ShardStore(shard_path))

        def hops_per_sec(engine):
            for s, t in sample:  # warm pass: shard loads + caches
                route(engine, s, t)
            t0 = time.perf_counter()
            hops = 0
            for s, t in sample:
                hops += route(engine, s, t).hops
            return hops / (time.perf_counter() - t0)

        memory_hps = hops_per_sec(session.scheme)
        shard_hps = hops_per_sec(router)
        served = router.store.stats()

        return {
            **host_stamp(),
            "n": n,
            "scheme": SCHEME,
            "pairs": pairs,
            "shard_bytes_total": manifest["bytes"]["total"],
            "shard_bytes_max": manifest["bytes"]["max_shard"],
            "cold_full_decode_ms": round(full_s * 1e3, 3),
            "cold_shard_load_ms": round(shard_s * 1e3, 3),
            "cold_vs_full_decode": round(full_s / shard_s, 1),
            "memory_hops_per_sec": round(memory_hps, 0),
            "shard_hops_per_sec": round(shard_hps, 0),
            "shard_loads_for_workload": served["loads"],
            "shard_bytes_for_workload": served["bytes_read"],
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _report_lines(out: dict) -> list:
    return [
        f"cold start n={out['n']} ({out['scheme']}): one shard "
        f"{out['cold_shard_load_ms']:.2f} ms vs full decode "
        f"{out['cold_full_decode_ms']:.1f} ms => "
        f"{out['cold_vs_full_decode']}x ({out['shard_bytes_max']}B max "
        f"shard of {out['shard_bytes_total']}B)",
        f"throughput: in-memory {out['memory_hops_per_sec']:.0f} hops/s, "
        f"shards {out['shard_hops_per_sec']:.0f} hops/s "
        f"({out['shard_loads_for_workload']} shards / "
        f"{out['shard_bytes_for_workload']}B touched by "
        f"{out['pairs']} routes)",
    ]


# ----------------------------------------------------------------------
# packs at scale: file counts, cold lookups, routed throughput
# ----------------------------------------------------------------------
def _synthetic_records(n: int, seed: int = 29):
    """Generate thm11-*shaped* records for the storage-layer half.

    Preprocessing a real scheme at n = 10^5 means an O(n^2) APSP — not a
    storage benchmark.  The store layer never interprets table contents
    (it decodes whatever the codec wrote), so synthetic records with
    thm11's categories and ~n^{1/3}-scaled entry counts measure exactly
    what serving at that size costs on disk.  The routing-layer half of
    the scenario uses a *real* scheme at buildable scale.
    """
    rng = random.Random(seed)
    q = max(2, round(n ** (1.0 / 3.0)))
    for v in range(n):
        degree = rng.randrange(4, 10)
        neighbors = tuple(
            (rng.randrange(n), round(rng.uniform(1.0, 8.0), 6))
            for _ in range(degree)
        )
        ball = {
            rng.randrange(n): rng.randrange(degree) for _ in range(q)
        }
        ctree = {
            rng.randrange(n): (
                rng.randrange(n), rng.randrange(n), rng.randrange(degree),
                -1, 0, 0,
            )
            for _ in range(6)
        }
        seqs = {
            rng.randrange(n): tuple(
                rng.randrange(n) for _ in range(rng.randrange(2, 6))
            )
            for _ in range(q // 2)
        }
        yield NodeTable(
            owner=v,
            neighbors=neighbors,
            label=(v, rng.randrange(n), rng.randrange(q), rng.randrange(n)),
            categories={"ball": ball, "ctree": ctree, "t2:seq": seqs},
        )


def _count_files(root: str) -> int:
    return sum(len(files) for _, _, files in os.walk(root))


_IDENTITY = {
    "spec": SCHEME, "scheme": "Stretch5PlusScheme",
    "name": "synthetic thm11-shaped", "seed": 0,
    "params": {}, "routing_params": {"eps": 0.6, "q": None},
}


def run_serving_packed(
    n_store: int, n_route: int, *, pairs: int = 200, reps: int = 5
) -> dict:
    workdir = tempfile.mkdtemp(prefix="repro-serving-packed-")
    try:
        # --- storage layer: synthetic records at n_store --------------
        packed_dir = os.path.join(workdir, "packed")
        t0 = time.perf_counter()
        manifest = write_shard_records(
            _synthetic_records(n_store), packed_dir, identity=_IDENTITY,
        )
        packed_write_s = time.perf_counter() - t0
        packed_files = _count_files(packed_dir)

        rng = random.Random(31)
        # 128 cold-vertex probes: every probe is a first touch of that
        # vertex in a fresh store, which amortizes its ~25 group
        # mappings across them — the layout's serving pattern (one node
        # serves many vertices per group).
        probes = [rng.randrange(n_store) for _ in range(128)]
        # spot-check: the store decodes exactly the records written
        written = {v: None for v in probes[:8]}
        for record in _synthetic_records(n_store):
            if record.owner in written:
                written[record.owner] = record
        cold = ShardStore(packed_dir)
        for v, record in written.items():
            assert cold.node(v) == record, v
        cold.close()

        def lookups():
            store = ShardStore(packed_dir)  # nothing resident, cold maps
            for v in probes:
                store.node(v)
            store.close()

        packed_s = _median_seconds(lookups, reps) / len(probes)

        # --- routing layer: real thm11 at n_route ---------------------
        g = with_random_weights(
            erdos_renyi(n_route, 7.0 / (n_route - 1), seed=71), seed=72
        )
        session = build(SCHEME, g, seed=7)
        route_packed = os.path.join(workdir, "route.packed")
        session.save(route_packed)
        sample = sample_pairs(n_route, pairs, seed=73)
        router_packed = LocalRouter(open_store(route_packed))

        def hops_per_sec(engine):
            t0 = time.perf_counter()
            hops = 0
            for s, t in sample:
                hops += route(engine, s, t).hops
            return hops / (time.perf_counter() - t0)

        for s, t in sample[:50]:  # identical decisions to in-memory
            r1, r2 = route(session.scheme, s, t), route(router_packed, s, t)
            assert r1.path == r2.path, (s, t)
        engines = {"memory": session.scheme, "packed": router_packed}
        best = {k: 0.0 for k in engines}
        for engine in engines.values():  # warm pass: shard loads+caches
            for s, t in sample:
                route(engine, s, t)
        # Interleaved best-of rounds: one measurement is ~10 ms of
        # routing, where scheduler jitter can swing 30%; the max over
        # alternating rounds compares the engines, not the noise.
        for _ in range(5):
            for k, engine in engines.items():
                best[k] = max(best[k], hops_per_sec(engine))
        # Wire-header cost of ONE workload pass: the counters above
        # accumulated over the equality check, the warm pass and every
        # measurement round, so snapshot a dedicated delta instead.
        header_before = router_packed.header_stats()["header_bytes"]
        for s, t in sample:
            route(router_packed, s, t)
        header_bytes_workload = (
            router_packed.header_stats()["header_bytes"] - header_before
        )

        return {
            **host_stamp(),
            "n_store": n_store,
            "n_route": n_route,
            "scheme": SCHEME,
            "group_size": manifest["group_size"],
            "store_bytes_total": manifest["bytes"]["total"],
            "packed_files": packed_files,
            "packed_write_s": round(packed_write_s, 3),
            "cold_lookup_packed_ms": round(packed_s * 1e3, 4),
            "memory_hops_per_sec": round(best["memory"], 0),
            "packed_hops_per_sec": round(best["packed"], 0),
            "groups_mapped_for_workload": (
                router_packed.store.stats()["groups_mapped"]
            ),
            "header_bytes_for_workload": header_bytes_workload,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _packed_report_lines(out: dict) -> list:
    return [
        f"packed store n={out['n_store']}: {out['packed_files']} files "
        f"(write {out['packed_write_s']:.1f}s; "
        f"{out['store_bytes_total']}B payload)",
        f"cold random-vertex lookup: {out['cold_lookup_packed_ms']:.3f} ms",
        f"warm throughput n={out['n_route']}: in-memory "
        f"{out['memory_hops_per_sec']:.0f} hops/s, packed "
        f"{out['packed_hops_per_sec']:.0f} "
        f"({out['groups_mapped_for_workload']} groups mapped, "
        f"{out['header_bytes_for_workload']}B wire headers)",
    ]


def _assert_cold_gate(out: dict) -> None:
    # The acceptance bar of the sharded layout: serving one vertex cold
    # beats decoding the whole scheme by >= 10x.  The ratio grows with
    # n and already clears the bar at smoke scale, so it gates there too.
    assert out["cold_vs_full_decode"] >= 10.0, out


def _assert_packed_gates(out: dict) -> None:
    # the acceptance gate of the packed layout (full size only)
    assert (
        out["packed_hops_per_sec"] >= 0.9 * out["memory_hops_per_sec"]
    ), out


def test_serving(benchmark, report, bench_scale):
    n = bench_scale(1000, 150)
    out = benchmark.pedantic(
        lambda: run_serving(n, pairs=smoke_scale(200, 60)),
        rounds=1, iterations=1,
    )
    report.section(SECTION)
    for line in _report_lines(out):
        report.line(line)
    _assert_cold_gate(out)
    if not SMOKE:
        merge_bench_results(RESULT_PATH, {"serving": out})


def test_serving_packed(benchmark, report, bench_scale):
    out = benchmark.pedantic(
        lambda: run_serving_packed(
            bench_scale(100_000, 5000),
            bench_scale(1000, 150),
            pairs=smoke_scale(200, 60),
        ),
        rounds=1, iterations=1,
    )
    report.section(SECTION)
    for line in _packed_report_lines(out):
        report.line(line)
    # The record and route-equality checks run at every scale inside
    # run_serving_packed; the throughput gate only means something at
    # full size.
    if not SMOKE:
        _assert_packed_gates(out)
        merge_bench_results(RESULT_PATH, {"serving_packed": out})


def run_packed_main() -> None:
    out = run_serving_packed(
        smoke_scale(100_000, 5000),
        smoke_scale(1000, 150),
        pairs=smoke_scale(200, 60),
    )
    for line in _packed_report_lines(out):
        print(line)
    if not SMOKE:
        _assert_packed_gates(out)
        merge_bench_results(RESULT_PATH, {"serving_packed": out})
        print(f"merged into {os.path.normpath(RESULT_PATH)}")


def main() -> None:
    if "--packed" in sys.argv[1:]:
        run_packed_main()
        return
    n = smoke_scale(1000, 150)
    out = run_serving(n, pairs=smoke_scale(200, 60))
    for line in _report_lines(out):
        print(line)
    _assert_cold_gate(out)
    if not SMOKE:
        merge_bench_results(RESULT_PATH, {"serving": out})
        print(f"merged into {os.path.normpath(RESULT_PATH)}")
    run_packed_main()


if __name__ == "__main__":
    main()
