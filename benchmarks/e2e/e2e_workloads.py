"""The five workloads of the end-to-end benchmark (see README.md).

Each workload is a closed loop with one client: the next operation
starts when the previous one returned.  Each runner in ``RUNNERS``
measures for a window of ``seconds``; a traced run spends the first
half untraced, for the end-to-end numbers and the tracing overhead, and
the second half with the ``e2e_trace`` shims on, for the per-layer
numbers.  Every operation's output is checked outside the timed region.
A fixed reference loop is timed between operations, and the end-to-end
operation and set-up times are reported relative to it (see
:func:`ref_loop` and :func:`host_seconds`).

Two pieces are shared by every workload, so each one exercises every
layer but the cluster: :func:`build_and_pack` (a build rep, and the
serving workloads' setup) and :func:`serve_round` (a build rep's output
check, a ``serve-local`` round, and the ``serve-cluster`` reference).

Run as a script, this module is the serving workloads' setup subprocess:
``python e2e_workloads.py prepare '<json spec>'`` builds a scheme and
writes its packs, so the serving process itself never builds.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api import Substrate, build
from repro.cluster import start_cluster
from repro.eval.workloads import sample_pairs
from repro.graph.generators import random_sparse, with_random_weights
from repro.graph.metric import MetricView
from repro.routing.serving import (
    LocalRouter,
    open_store,
    replica_root,
    write_shards,
)
from repro.routing.simulator import route

from e2e_trace import (
    TracedEngine,
    TracedStore,
    Tracer,
    shim_scheme,
    shim_substrate,
)

#: workload -> (full size, smoke size).  ``pairs`` is how many pairs a
#: serving round routes (a build rep's check round, for build-*);
#: ``space_reps`` is how many untraced reps every build run makes at
#: least, and the size and stretch metrics average exactly those, so
#: they repeat at a given seed.  Builds stay below MetricView's
#: dense/lazy switch at n=2048, past which thm11 thrashes its row LRU
#: (n=2100 builds in minutes); build-lazy forces that path.  One input
#: costs up to 20% more or less than the next (quartiles of its build
#: time), so a run's median spreads from seed to seed by about that
#: over the square root of its reps: every build is sized for 20 reps
#: or more a run.  The n=2000 build runs once per serving run, for its
#: packs.
SIZES: Dict[str, Tuple[Dict[str, int], Dict[str, int]]] = {
    "build-weighted": (
        {"n": 350, "m": 1400, "pairs": 200, "space_reps": 5},
        {"n": 100, "m": 400, "pairs": 100, "space_reps": 1},
    ),
    "build-unweighted": (
        {"n": 200, "m": 800, "pairs": 200, "space_reps": 5},
        {"n": 100, "m": 400, "pairs": 100, "space_reps": 1},
    ),
    "build-lazy": (
        {"n": 60, "m": 240, "pairs": 200, "space_reps": 10},
        {"n": 40, "m": 160, "pairs": 100, "space_reps": 1},
    ),
    "serve-local": (
        {"n": 2000, "m": 8000, "pairs": 2000},
        {"n": 120, "m": 480, "pairs": 100},
    ),
    # batch cost depends on the pair mix (how often a route crosses to
    # the other worker), so the fleet cycles 30 distinct batches
    "serve-cluster": (
        {"n": 2000, "m": 8000, "pairs": 3000},
        {"n": 120, "m": 480, "pairs": 200},
    ),
}
#: build workload -> (scheme, weighted graph, forced lazy metric)
BUILDS = {
    "build-weighted": ("thm11", True, False),
    "build-unweighted": ("thm10", False, False),
    "build-lazy": ("thm11", True, True),
}
#: vertices per pack group of the serving workloads: the library's
#: default (4096) would put all 2000 vertices in one group, owned by one
#: worker, so the fleet's second worker would never route
SERVE_GROUP_SIZE = 64
CLUSTER_WORKERS = 2
CLUSTER_BATCH = 100
#: fleet starts timed for ``setup_s``; all but the last are stopped
CLUSTER_STARTS = 10
#: untimed batches that load the fleet's shards before measuring
CLUSTER_WARM_BATCHES = 10
#: iterations of the reference loop, and the share of each operation's
#: time spent timing it after the operation
REF_LOOP_N = 50_000
REF_SHARE = 0.1
#: the reference loop's time on the recording host in its calm phases;
#: ``setup_s`` is in seconds at that speed (see :func:`host_seconds`)
REF_LOOP_CALM_S = 0.003

#: span name -> per-layer metric (span total per build)
BUILD_SPAN_TOTALS = {
    "graph.ensure_core": "graph.metric_s",
    "api.build": "api.build_s",
    "routing.write_shards": "routing.write_shards_s",
    "routing.compile_tables": "routing.compile_tables_s",
    "routing.scheme_stats": "routing.scheme_stats_s",
}
#: per-layer metric -> spans whose self time it sums (per build)
BUILD_SPAN_SELF = {
    "schemes.self_s": ("api.build",),
    "routing.pack_write_self_s": ("routing.write_shards",),
    "substrate.balls_s": ("substrate.balls",),
    "substrate.ball_ports_s": ("substrate.ball_ports",),
    # thm11 colors the balls; only thm10 also builds a hitting set
    "substrate.coloring_hitting_s": (
        "substrate.coloring", "substrate.hitting",
    ),
    "substrate.trees_s": ("substrate.trees",),
    "substrate.landmarks_s": ("substrate.landmarks",),
    "substrate.bunches_s": ("substrate.bunches",),
}
#: store and header counters a traced serving round sums
SERVE_COUNTERS = (
    "hits", "loads", "bytes_read", "header_bytes", "headers_encoded",
)


# ----------------------------------------------------------------------
# Seeded inputs: the library receives only these graphs and pairs
# ----------------------------------------------------------------------
def derived_seed(seed: int, rep: int, use: int) -> int:
    """The seed of input ``use`` (graph, weights, pairs, scheme) of the
    ``rep``-th build of run ``seed``."""
    return 10 * (1000 * seed + rep) + use


def make_graph(
    n: int, m: int, seed: int, weighted: bool, rep: int = 0
) -> Any:
    """The ``rep``-th input graph of run ``seed``."""
    g = random_sparse(n, m, seed=derived_seed(seed, rep, 1))
    if weighted:
        g = with_random_weights(g, seed=derived_seed(seed, rep, 2))
    return g


def make_pairs(
    n: int, count: int, seed: int, rep: int = 0
) -> List[Tuple[int, int]]:
    return sample_pairs(n, count, seed=derived_seed(seed, rep, 3))


def scheme_seed(seed: int, rep: int = 0) -> int:
    """The scheme's own seed.  It changes with the rep, like the graph:
    sampled-vertex counts follow the random stream alone, whatever the
    graph, so one seed for every rep of a run would make build time and
    table size vary by run rather than by rep."""
    return derived_seed(seed, rep, 4)


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------
class Outcome:
    """What one workload run measured and checked."""

    def __init__(self, traced: bool) -> None:
        self.tracer = Tracer() if traced else None
        self.attempted = 0
        self.failed = 0
        #: the first few failure reasons
        self.errors: List[str] = []
        #: metric name -> value; names and units are BENCHMARK.json's
        self.e2e: Dict[str, float] = {}
        self.layer: Dict[str, float] = {}
        #: sample counts behind the medians and percentiles
        self.samples: Dict[str, int] = {}

    def record(self, problem: Optional[str]) -> None:
        """One checked operation; ``problem`` says why it failed."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(problem)

    def check_route(
        self, result: Any, error: Optional[str], d: float,
        bound: Tuple[float, float],
    ) -> Optional[float]:
        """Record a route: delivered, and within ``alpha * d + beta``.
        Returns its stretch when it completed."""
        stretch = None
        if error is None:
            alpha, beta = bound
            stretch = result.length / d
            if not result.delivered:
                error = f"{result.source}->{result.target}: not delivered"
            elif result.length > alpha * d + beta + 1e-9 * max(1.0, d):
                error = (
                    f"{result.source}->{result.target}: length "
                    f"{result.length} breaks ({alpha}, {beta}) at {d}"
                )
        self.record(error)
        return stretch

    def set_space(self, layouts: List[Tuple[Dict[str, Any], int]]) -> None:
        """Size metrics, averaged over ``(manifest, on-disk bytes)`` of
        every layout they describe."""
        self.e2e["table_words_avg"] = statistics.fmean(
            m["words"]["total_table_words"] / m["n"] for m, _ in layouts
        )
        self.e2e["pack_bytes"] = statistics.fmean(b for _, b in layouts)

    def set_timings(
        self, calls: Dict[bool, List[Any]], refs: Dict[bool, List[Any]],
        per_op: int = 1,
    ) -> None:
        """``op_p50_norm`` from the untraced phase's operation latencies
        (one list per closed-loop call) and reference loops (as
        :func:`closed_loop` recorded them), their wall-clock figures
        and, in a traced run, the tracing overhead."""
        plain = [took for lats in calls[False] for took in lats]
        ref_times = [took for after in refs[False] for took in after]
        self.e2e["op_p50_norm"] = statistics.median(
            normalized(calls[False], refs[False])
        )
        self.layer["e2e.op_p50_ms"] = statistics.median(plain) * 1e3
        self.layer["e2e.ops_per_s"] = len(plain) * per_op / sum(plain)
        self.layer["host.ref_loop_ms"] = statistics.median(ref_times) * 1e3
        self.samples["ops"] = len(plain)
        self.samples["ref_loops"] = len(ref_times)
        if self.tracer is not None:
            traced = normalized(calls[True], refs[True])
            self.layer["trace.op_p50_norm_overhead"] = (
                statistics.median(traced) - self.e2e["op_p50_norm"]
            )
            self.samples["traced_ops"] = len(traced)

    def set_setup(self, setups: List[Tuple[float, float]]) -> None:
        """``setup_s`` from ``(seconds, reference-loop seconds next to
        it)`` per set-up, and the wall-clock median."""
        self.e2e["setup_s"] = statistics.median(
            host_seconds(took, ref) for took, ref in setups
        )
        self.layer["host.setup_wall_s"] = statistics.median(
            took for took, _ in setups
        )
        self.samples["setups"] = len(setups)

    def set_build_layers(self, builds: List[Dict[str, float]]) -> None:
        """Per-build layer times from the spans, and the medians of
        :func:`build_counters` over the traced ``builds``."""
        tracer = self.tracer
        for span, metric in BUILD_SPAN_TOTALS.items():
            self.layer[metric] = tracer.total(span) / len(builds)
        for metric, spans in BUILD_SPAN_SELF.items():
            self.layer[metric] = sum(
                tracer.self_time(span) for span in spans
            ) / len(builds)
        for metric in builds[0]:
            self.layer[metric] = statistics.median(b[metric] for b in builds)
        self.samples["traced_builds"] = len(builds)

    def set_serving_layers(
        self, plain: List["Round"], traced: List["Round"]
    ) -> None:
        """Serving-layer metrics: times per call from the traced rounds'
        spans and counters, latency tails from the untraced rounds."""
        tracer = self.tracer
        sums = dict.fromkeys(SERVE_COUNTERS, 0)
        for rnd in traced:
            for key in SERVE_COUNTERS:
                sums[key] += rnd.counters[key]
        routes = tracer.count("simulator.route")

        def mean_us(span: str, self_only: bool = False) -> float:
            seconds = (
                tracer.self_time(span) if self_only else tracer.total(span)
            )
            return ratio(seconds, tracer.count(span)) * 1e6

        cold = [x for rnd in plain for x in rnd.cold]
        warm = [x for rnd in plain for x in rnd.warm]
        self.layer.update({
            "serving.open_store_ms": statistics.median(
                rnd.open_s for rnd in plain
            ) * 1e3,
            "serving.node_miss_us": mean_us("serving.node_miss"),
            "serving.node_hit_us": mean_us("serving.node_hit"),
            "serving.hit_ratio": ratio(
                sums["hits"], sums["hits"] + sums["loads"]
            ),
            "serving.bytes_read_per_route": ratio(sums["bytes_read"], routes),
            "serving.step_us": mean_us("serving.step", self_only=True),
            "serving.steps_per_route": ratio(
                tracer.count("serving.step"), routes
            ),
            "serving.header_bytes_per_hop": ratio(
                sums["header_bytes"], sums["headers_encoded"]
            ),
            "serving.cold_routes_per_s": statistics.median(
                len(rnd.cold) / sum(rnd.cold) for rnd in plain
            ),
            "serving.cold_route_p99_us": percentile(cold, 0.99) * 1e6,
            "serving.route_p99_us": percentile(warm, 0.99) * 1e6,
            "simulator.self_us": mean_us("simulator.route", True),
        })
        self.samples["tail_routes"] = len(warm)


def phases(seconds: float, traced: bool) -> List[Tuple[bool, float]]:
    """``(traced, window)`` per measured phase."""
    if traced:
        return [(False, seconds / 2), (True, seconds / 2)]
    return [(False, seconds)]


def ref_loop() -> float:
    """Seconds one run of a fixed pure-Python loop takes.

    The recording host's shared vCPUs ran the same code up to 2x slower,
    in swings lasting from a second to tens of minutes, and this loop
    slowed with the workloads, if by somewhat less.  So an operation's
    time over the loop's time next to it (``op_p50_norm``) repeats from
    run to run far better than its wall-clock time.  It exercises none
    of the library, so a change to the library moves only the
    operation's side of the ratio.
    """
    t0 = perf_counter()
    sum(i * i for i in range(REF_LOOP_N))
    return perf_counter() - t0


def host_seconds(took: float, ref: float) -> float:
    """``took`` seconds, measured while the reference loop took ``ref``,
    in seconds at the recording host's calm speed: set-up times are a
    few milliseconds, and they drifted with the host as far as operation
    times did."""
    return took * REF_LOOP_CALM_S / ref


def closed_loop(
    window: float, op: Callable[[], None], refs: List[List[float]],
    min_count: int = 1,
) -> None:
    """Run ``op`` back to back, at least ``min_count`` times, starting
    another call while it would end (judged by the last call) no more
    than half a call past ``window`` seconds, so runs average the
    window's length.  ``refs`` gets one list of reference-loop times
    before the first call and one after each call: the loop runs at
    least once and for about ``REF_SHARE`` of the call's time."""
    refs.append([ref_loop()])
    start = perf_counter()
    last = 0.0
    count = 0
    while (
        count < min_count
        or perf_counter() - start + last / 2 <= window
    ):
        t0 = perf_counter()
        op()
        last = perf_counter() - t0
        count += 1
        after = [ref_loop()]
        while sum(after) < REF_SHARE * last:
            after.append(ref_loop())
        refs.append(after)


def normalized(
    calls: List[Any], refs: List[List[float]]
) -> List[float]:
    """Every latency of closed-loop call ``i`` over the median of the
    reference-loop times right before and after it (``refs[i]`` and
    ``refs[i + 1]``), so a swing of the host's speed moves both."""
    return [
        took / statistics.median(refs[i] + refs[i + 1])
        for i, lats in enumerate(calls) for took in lats
    ]


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_route(
    engine: Any, s: int, t: int
) -> Tuple[float, Any, Optional[str]]:
    """``(seconds, result, error)``; a raising route is a failed
    operation of the workload, not a crash of the benchmark."""
    t0 = perf_counter()
    try:
        result = route(engine, s, t)
    except Exception as exc:  # noqa: BLE001 — counted as a failed route
        took = perf_counter() - t0
        return took, None, f"{s}->{t}: {type(exc).__name__}: {exc}"
    return perf_counter() - t0, result, None


def pack_bytes(path: str, replicas: int) -> int:
    """On-disk bytes of one copy of a packed layout."""
    root = path if replicas == 1 else replica_root(path, 0)
    groups = os.path.join(root, "groups")
    return sum(
        os.path.getsize(os.path.join(groups, name))
        for name in os.listdir(groups)
    )


# ----------------------------------------------------------------------
# The two shared pieces: build -> pack, and one serving round
# ----------------------------------------------------------------------
@dataclass
class Built:
    """One ``build_and_pack``: the session, its substrate, the written
    layout's manifest and the two timed steps."""

    session: Any
    substrate: Any
    manifest: Dict[str, Any]
    build_s: float
    write_s: float


def build_and_pack(
    scheme: str, g: Any, seed: int, out_dir: str,
    tracer: Optional[Tracer] = None, lazy: bool = False, **pack: Any,
) -> Built:
    """``repro.api.build`` on a fresh ``Substrate``, then
    ``write_shards(packed=True)``; with a tracer, spans on every layer."""
    t0 = perf_counter()
    substrate = Substrate(
        g, metric=MetricView(g, mode="lazy") if lazy else None
    )
    if tracer is not None:
        tracer.new_request()
        shim_substrate(tracer, substrate)
        tracer.begin("api.build")
    try:
        session = build(scheme, g, seed=seed, substrate=substrate)
    finally:
        if tracer is not None:
            tracer.end()
    t1 = perf_counter()
    if tracer is not None:
        shim_scheme(tracer, session.scheme)
        tracer.begin("routing.write_shards")
    try:
        manifest = write_shards(
            session.scheme, out_dir, spec_name=session.spec_name,
            params=session.params, seed=session.seed, packed=True, **pack,
        )
    finally:
        if tracer is not None:
            tracer.end()
    return Built(session, substrate, manifest, t1 - t0, perf_counter() - t1)


def build_counters(built: Built) -> Dict[str, float]:
    """The per-build counters the per-layer metrics report."""
    trees = built.substrate.stats().get("trees", {})
    hits = trees.get("hits", 0)
    return {
        "graph.rows_computed": built.substrate.built_metric.rows_computed,
        "substrate.trees_hit_ratio": ratio(
            hits, hits + trees.get("misses", 0)
        ),
        "schemes.table_words_max": built.manifest["words"][
            "max_table_words"
        ],
        "routing.pack_files": built.manifest["files"]["groups"],
    }


@dataclass
class Round:
    """One :func:`serve_round`: store open time, both passes' route
    latencies, the store and header counters and, when kept, the last
    pass's results and stretches."""

    open_s: float = 0.0
    # compact, so a run's peak RSS does not grow with its rounds
    cold: array = field(default_factory=lambda: array("d"))
    warm: array = field(default_factory=lambda: array("d"))
    results: List[Any] = field(default_factory=list)
    stretch: List[float] = field(default_factory=list)
    counters: Dict[str, Any] = field(default_factory=dict)


def serve_round(
    path: str, served: List[Tuple[Tuple[int, int], float]],
    bound: Tuple[float, float], out: Outcome,
    tracer: Optional[Tracer] = None, keep: bool = False,
) -> Round:
    """Open a fresh store on the packs at ``path`` and route every
    ``((s, t), exact distance)`` twice through a ``LocalRouter``: a
    cold pass, which maps, verifies and decodes each shard it visits,
    then a warm pass, which finds them resident.  Every route is
    checked; with a tracer, spans on the store and the engine.
    ``keep`` keeps the warm pass's results and stretches."""
    rnd = Round()
    t0 = perf_counter()
    store = open_store(path)
    try:
        router = LocalRouter(
            store if tracer is None else TracedStore(store, tracer)
        )
        rnd.open_s = perf_counter() - t0
        engine = router if tracer is None else TracedEngine(router, tracer)
        for times in (rnd.cold, rnd.warm):
            for (s, t), d in served:
                if tracer is not None:
                    tracer.new_request()
                    tracer.begin("simulator.route")
                try:
                    took, result, error = timed_route(engine, s, t)
                finally:
                    if tracer is not None:
                        tracer.end()
                times.append(took)
                stretch = out.check_route(result, error, d, bound)
                if keep and times is rnd.warm:
                    rnd.results.append(result)
                    if stretch is not None:
                        rnd.stretch.append(stretch)
        rnd.counters = {**store.stats(), **router.header_stats()}
    finally:
        store.close()
    return rnd


# ----------------------------------------------------------------------
# build-*: repro.api.build -> write_shards(packed=True), rep after rep
# ----------------------------------------------------------------------
def run_build(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool,
    tmp: str,
) -> Outcome:
    scheme, weighted, lazy = BUILDS[name]
    size = SIZES[name][1 if smoke else 0]
    out = Outcome(traced)

    # first-build imports and kernel set-up, paid before any timing
    build_and_pack(
        scheme, make_graph(40, 120, seed, weighted), scheme_seed(seed),
        os.path.join(tmp, "warm-up"), lazy=lazy,
    )

    setup: List[Tuple[float, float]] = []
    reps: Dict[bool, List[float]] = {False: [], True: []}
    refs: Dict[bool, List[List[float]]] = {False: [], True: []}
    rounds: Dict[bool, List[Round]] = {False: [], True: []}
    layouts: List[Tuple[Dict[str, Any], int]] = []
    routed: List[float] = []
    counters: List[Dict[str, float]] = []

    def one_rep(trace_on: bool) -> None:
        # every rep builds its own input graph, so one run averages
        # over several; a fresh graph object also means no CSR or
        # substrate cache carries over from the previous rep
        rep = len(reps[False]) + len(reps[True]) + 1
        # set-up is generating the input graph, next to the reference
        # loops closed_loop just ran.  The previous rep's cyclic garbage
        # is collected first, untimed, so that a collection of it does
        # not land inside the generation.
        gc.collect()
        t0 = perf_counter()
        g = make_graph(size["n"], size["m"], seed, weighted, rep)
        if not trace_on:
            setup.append((
                perf_counter() - t0, statistics.median(refs[False][-1])
            ))
        rep_dir = os.path.join(tmp, f"rep{rep}")
        tracer = out.tracer if trace_on else None
        built = build_and_pack(
            scheme, g, scheme_seed(seed, rep), rep_dir, tracer, lazy
        )
        reps[trace_on].append(built.build_s + built.write_s)
        out.record(None)  # the build itself, checked through its routes
        if tracer is not None:
            counters.append(build_counters(built))

        # the rep's output check: one serving round on what it wrote
        metric = built.session.metric
        served = [
            ((s, t), metric.d(s, t))
            for s, t in make_pairs(size["n"], size["pairs"], seed, rep)
        ]
        space_rep = rep <= size["space_reps"]
        rnd = serve_round(
            rep_dir, served, built.session.stretch_bound(), out, tracer,
            keep=space_rep,
        )
        rounds[trace_on].append(rnd)
        if space_rep:
            routed.extend(rnd.stretch)
            layouts.append((built.manifest, pack_bytes(rep_dir, 1)))
        shutil.rmtree(rep_dir)

    for trace_on, window in phases(seconds, traced):
        closed_loop(
            window, lambda: one_rep(trace_on), refs[trace_on],
            min_count=1 if trace_on else size["space_reps"],
        )

    out.set_timings({k: [[x] for x in v] for k, v in reps.items()}, refs)
    out.set_space(layouts)
    out.set_setup(setup)
    out.e2e["peak_rss_mb"] = peak_rss_mb()
    out.e2e["stretch_avg"] = statistics.fmean(routed)
    out.samples["stretch_routes"] = len(routed)
    if out.tracer is not None:
        out.set_build_layers(counters)
        out.set_serving_layers(rounds[False], rounds[True])
    return out


# ----------------------------------------------------------------------
# serve-*: packs built by a setup subprocess, served from this process
# ----------------------------------------------------------------------
def prepare(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Build thm11 and write its checksummed packs, plus the served
    pairs' exact distances (runs in the setup subprocess)."""
    tracer = Tracer() if spec["trace"] else None
    g = make_graph(spec["n"], spec["m"], spec["seed"], True)
    built = build_and_pack(
        "thm11", g, scheme_seed(spec["seed"]), spec["out"], tracer,
        group_size=SERVE_GROUP_SIZE, replicas=spec["replicas"],
    )
    pairs = make_pairs(spec["n"], spec["pairs"], spec["seed"])
    return {
        "manifest": built.manifest,
        "pairs": pairs,
        "dist": [built.session.metric.d(s, t) for s, t in pairs],
        "bound": list(built.session.stretch_bound()),
        "spans": tracer.totals if tracer else None,
        "counters": build_counters(built),
    }


def run_prepare(
    name: str, seed: int, smoke: bool, tmp: str, replicas: int,
    out: Outcome,
) -> Dict[str, Any]:
    """Run :func:`prepare` in a fresh interpreter, so this process's
    peak RSS measures serving alone; its build's spans join ``out``'s
    tracer."""
    packs = os.path.join(tmp, "packs")
    spec = dict(SIZES[name][1 if smoke else 0], seed=seed,
                replicas=replicas, out=packs, trace=out.tracer is not None)
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "prepare",
         json.dumps(spec)],
        check=True, timeout=600,
    )
    with open(os.path.join(packs, "prepared.json")) as fh:
        prepared = json.load(fh)
    prepared["path"] = packs
    prepared["served"] = [
        (tuple(p), d) for p, d in zip(prepared["pairs"], prepared["dist"])
    ]
    prepared["bound"] = tuple(prepared["bound"])
    if out.tracer is not None:
        out.tracer.merge(prepared["spans"])
        out.set_build_layers([prepared["counters"]])
    return prepared


def run_serve_local(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool,
    tmp: str,
) -> Outcome:
    out = Outcome(traced)
    prep = run_prepare(name, seed, smoke, tmp, 1, out)
    rounds: Dict[bool, List[Round]] = {False: [], True: []}
    refs: Dict[bool, List[List[float]]] = {False: [], True: []}

    def one_round(trace_on: bool) -> None:
        # a fresh store per round: the cold pass maps, verifies and
        # decodes every shard it visits, the warm pass reuses them
        rounds[trace_on].append(serve_round(
            prep["path"], prep["served"], prep["bound"], out,
            out.tracer if trace_on else None,
            keep=not (trace_on or rounds[False]),
        ))

    for trace_on, window in phases(seconds, traced):
        closed_loop(window, lambda: one_round(trace_on), refs[trace_on])
    out.e2e["peak_rss_mb"] = peak_rss_mb()  # before the summaries below

    plain = rounds[False]
    out.set_timings(
        {k: [rnd.warm for rnd in rnds] for k, rnds in rounds.items()}, refs
    )
    # a serving process's set-up is opening the store; closed_loop ran
    # the reference loops of refs[i] right before round i
    out.set_setup([
        (rnd.open_s, statistics.median(ref))
        for rnd, ref in zip(plain, refs[False])
    ])
    out.e2e["stretch_avg"] = statistics.fmean(plain[0].stretch)
    out.set_space([(prep["manifest"], pack_bytes(prep["path"], 1))])
    out.samples["rounds"] = len(plain)
    if out.tracer is not None:
        out.set_serving_layers(plain, rounds[True])
    return out


def run_serve_cluster(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool,
    tmp: str,
) -> Outcome:
    out = Outcome(traced)
    prep = run_prepare(name, seed, smoke, tmp, 2, out)
    served, bound = prep["served"], prep["bound"]

    # the single-process reference every cluster route must match
    local = serve_round(prep["path"], served, bound, out, keep=True)
    reference = local.results
    if out.tracer is not None:
        traced_local = serve_round(
            prep["path"], served, bound, out, out.tracer
        )
        out.set_serving_layers([local], [traced_local])

    batches = [
        (i, [p for p, _ in served[i:i + CLUSTER_BATCH]])
        for i in range(0, len(served), CLUSTER_BATCH)
    ]
    lat: Dict[bool, List[float]] = {False: [], True: []}
    refs: Dict[bool, List[List[float]]] = {False: [], True: []}
    cursor = [0]

    def one_batch(router: Any) -> float:
        """Route the next batch; check it; return its latency."""
        first, batch = batches[cursor[0] % len(batches)]
        cursor[0] += 1
        problem = "short reply"
        t0 = perf_counter()
        try:
            results = router.route_batch(batch)
        except Exception as exc:  # noqa: BLE001 — a failed batch
            results = []
            problem = f"{type(exc).__name__}: {exc}"
        took = perf_counter() - t0
        if len(results) != len(batch):
            for _ in batch:
                out.record(f"batch at {first}: {problem}")
            return took
        for k, result in enumerate(results):
            ref = reference[first + k]
            error = None
            if ref is None or (result.path, result.length) != (
                ref.path, ref.length
            ):
                error = (
                    f"{result.source}->{result.target}: "
                    f"cluster route differs from LocalRouter"
                )
            out.check_route(result, error, served[first + k][1], bound)
        return took

    # a fleet's set-up is starting it: timed a few times, each after
    # three reference loops; the last start serves the batches
    starts: List[Tuple[float, float]] = []
    for _ in range(CLUSTER_STARTS):
        ref = statistics.median(ref_loop() for _ in range(3))
        t0 = perf_counter()
        handle = start_cluster(prep["path"], workers=CLUSTER_WORKERS)
        starts.append((perf_counter() - t0, ref))
        if len(starts) < CLUSTER_STARTS:
            handle.stop()
    try:
        for trace_on, window in phases(seconds, traced):
            with handle.router() as router:
                if not trace_on:
                    for _ in range(CLUSTER_WARM_BATCHES):
                        one_batch(router)
                tracer = out.tracer if trace_on else None

                def timed_batch() -> None:
                    if tracer is not None:
                        tracer.new_request()
                        tracer.begin("cluster.route_batch")
                    try:
                        lat[trace_on].append(one_batch(router))
                    finally:
                        if tracer is not None:
                            tracer.end()

                closed_loop(window, timed_batch, refs[trace_on])
                for problem, count in (
                    ("rpc errors", router.rpc_errors),
                    ("failovers", router.failovers),
                    ("dead workers", len(router.dead_workers)),
                ):
                    if count:
                        out.record(f"{count} {problem}")
                if trace_on:
                    # read before cluster_stats(), whose STATUS calls
                    # are RPCs too
                    traced_rpcs = router.rpcs
                    traced_wire = (
                        router.payload_bytes_sent
                        + router.payload_bytes_received
                    )
                    stats = router.cluster_stats()
    finally:
        handle.stop()

    plain = lat[False]
    out.set_timings(
        {k: [[x] for x in v] for k, v in lat.items()}, refs,
        per_op=CLUSTER_BATCH,
    )
    out.set_setup(starts)
    out.e2e["peak_rss_mb"] = peak_rss_mb()
    out.e2e["stretch_avg"] = statistics.fmean(local.stretch)
    out.set_space([(prep["manifest"], pack_bytes(prep["path"], 2))])
    if out.tracer is not None:
        traced_batches = len(lat[True])
        by_worker = list(stats["rpcs_by_worker"].values())
        rpc = stats["latency"]
        batch_p50_ms = statistics.median(lat[True]) * 1e3
        out.layer.update({
            "cluster.rpcs_per_batch": ratio(traced_rpcs, traced_batches),
            "cluster.wire_bytes_per_route": ratio(
                traced_wire, traced_batches * CLUSTER_BATCH
            ),
            "cluster.worker_rpc_imbalance": ratio(
                max(by_worker), statistics.fmean(by_worker)
            ),
            "cluster.rpc_p50_share": ratio(rpc["p50_ms"], batch_p50_ms),
            "cluster.rpc_tail_ratio": ratio(rpc["p99_ms"], rpc["p50_ms"]),
            "cluster.batch_tail_ratio": ratio(
                percentile(plain, 0.95), statistics.median(plain)
            ),
        })
    return out


#: workload -> ``runner(name, seed, seconds, traced, smoke, tmp)``
RUNNERS: Dict[str, Callable[..., Outcome]] = {
    "build-weighted": run_build,
    "build-unweighted": run_build,
    "build-lazy": run_build,
    "serve-local": run_serve_local,
    "serve-cluster": run_serve_cluster,
}


def _prepare_main(argv: List[str]) -> int:
    if len(argv) != 2 or argv[0] != "prepare":
        print("usage: e2e_workloads.py prepare '<json spec>'",
              file=sys.stderr)
        return 2
    spec = json.loads(argv[1])
    prepared = prepare(spec)
    with open(os.path.join(spec["out"], "prepared.json"), "w") as fh:
        json.dump(prepared, fh)
    return 0


if __name__ == "__main__":
    sys.exit(_prepare_main(sys.argv[1:]))
