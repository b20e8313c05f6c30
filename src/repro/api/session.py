"""Routing sessions: a built scheme with a stable serve/persist surface.

A :class:`RoutingSession` wraps one built scheme on one graph and exposes
what a deployment (or a benchmark harness) actually needs:

* ``route(s, t)`` — trace one message through the fixed-port simulator,
* ``measure(pairs)`` — stretch statistics against the exact metric,
* ``stats()`` — per-vertex table/label word accounting,
* ``validate()`` — the structural release checklist,
* ``save(path)`` / :func:`load` — persistence as checksummed packs.

A session persists in one shape: ``save(path)`` compiles every vertex's
table, label and port-ordered links into a binary shard, packs the
shards into ``O(n / group_size)`` checksummed, mmap-able group files
plus a small manifest (:func:`repro.routing.serving.write_shards`);
``replicas=R`` writes every group R times.  ``load`` on the directory
reads only the manifest and returns a session backed by a
:class:`~repro.routing.serving.LocalRouter`, which loads just the shards
a route visits and makes byte-identical step decisions to the built
scheme (``serve_stats()`` reports loads, bytes, and the wire-header
bytes the routes sent).  The graph and port numbering are reassembled
from the shards' neighbour lists on first use, so a loaded session can
still ``measure`` and ``validate``.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Iterable, Optional, Tuple

from ..eval.harness import _normalize_bound
from ..eval.validation import ValidationResult, validate_scheme
from ..eval.workloads import sample_pairs
from ..graph.core import Graph
from ..graph.metric import MetricView
from ..routing.ports import PortAssignment
from ..routing.simulator import (
    RouteResult,
    StretchReport,
    measure_stretch,
    route,
)
from ..routing.model import SchemeStats
from .registry import get_spec

__all__ = ["RoutingSession", "load"]


class RoutingSession:
    """One built (or loaded) scheme, ready to serve.

    Build through :func:`repro.api.build`; restore through :func:`load`.
    """

    def __init__(
        self,
        scheme: Any,
        *,
        spec_name: str,
        params: Optional[Dict[str, Any]] = None,
        seed: int = 0,
        substrate: Optional[Any] = None,
        metric: Optional[MetricView] = None,
        build_seconds: float = 0.0,
        substrate_seconds: float = 0.0,
        loaded: bool = False,
    ) -> None:
        self.scheme = scheme
        self.spec_name = spec_name
        self.params = dict(params or {})
        self.seed = seed
        self.substrate = substrate
        self._metric = metric
        #: scheme-specific construction time (excludes shared substrates)
        self.build_seconds = build_seconds
        #: time spent materializing the shared metric + ports
        self.substrate_seconds = substrate_seconds
        #: True when restored from disk (no preprocessing ran)
        self.loaded = loaded

    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        return self.scheme.graph

    @property
    def name(self) -> str:
        return self.scheme.name

    @property
    def metric(self) -> MetricView:
        """The exact metric for measurement (built lazily on a loaded
        session — routing itself never needs it)."""
        if self._metric is None:
            if self.substrate is not None:
                self._metric = self.substrate.metric
            elif getattr(self.scheme, "metric", None) is not None:
                self._metric = self.scheme.metric
            else:
                self._metric = MetricView(self.graph)
        return self._metric

    def stretch_bound(self) -> Tuple[float, float]:
        """The scheme's advertised ``(alpha, beta)`` guarantee."""
        return _normalize_bound(self.scheme.stretch_bound())

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def route(self, source: int, target: int,
              max_hops: Optional[int] = None) -> RouteResult:
        """Route one message through the fixed-port simulator.

        An engine that routes *itself* — e.g. a
        :class:`~repro.cluster.router.ClusterRouter`, whose hop loop
        runs worker-side across processes — is delegated to directly;
        it returns the same :class:`RouteResult` shape (the cluster
        parity tests pin it hop-for-hop against the simulator loop).
        """
        own = getattr(self.scheme, "route", None)
        if callable(own):
            return own(source, target, max_hops=max_hops)
        return route(self.scheme, source, target, max_hops=max_hops)

    def measure(
        self,
        pairs: Optional[Iterable[Tuple[int, int]]] = None,
        *,
        count: int = 200,
        seed: Optional[int] = None,
    ) -> StretchReport:
        """Stretch statistics over ``pairs`` (or a seeded sample of
        ``count >= 1`` pairs)."""
        if pairs is None:
            if count < 1:
                raise ValueError(
                    f"measure needs count >= 1 sampled pairs, got {count}"
                )
            pairs = sample_pairs(
                self.graph.n, count,
                seed=self.seed + 1 if seed is None else seed,
            )
        alpha, _ = self.stretch_bound()
        return measure_stretch(
            self.scheme, self.metric, pairs, multiplicative_slack=alpha
        )

    def stats(self) -> SchemeStats:
        """Table/label space accounting of the built scheme."""
        return self.scheme.stats()

    def validate(self, *, sample: int = 200,
                 seed: Optional[int] = None) -> ValidationResult:
        """Run the structural release checklist."""
        return validate_scheme(
            self.scheme, self.metric, sample=sample,
            seed=self.seed if seed is None else seed,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str, *, replicas: int = 1) -> str:
        """Persist the session as checksummed packs; returns ``path``.

        ``path`` becomes a directory of group pack files plus
        ``manifest.json`` — the shape where each node can be handed only
        its own table; ``replicas=R >= 2`` writes every group to R
        replica roots, and loading the directory serves through
        checksum-driven failover
        (:class:`~repro.routing.serving.ShardStore`).
        """
        from ..routing.serving import write_shards

        write_shards(
            self.scheme,
            path,
            spec_name=self.spec_name,
            params=self.params,
            seed=self.seed,
            replicas=replicas,
        )
        return path

    @classmethod
    def from_shards(
        cls, path: str, *, max_resident: Optional[int] = None
    ) -> "RoutingSession":
        """Open a pack directory (what :meth:`save` writes) for serving.

        Nothing but the manifest is read up front; each shard loads on
        the first route that visits its vertex.  A directory of a
        retired layout raises
        :class:`~repro.routing.serving.RetiredLayoutError`.
        ``max_resident`` bounds the decoded-shard LRU (the serving
        node's memory budget).
        """
        from ..routing.serving import LocalRouter, open_store

        store = open_store(path, max_resident=max_resident)
        router = LocalRouter(store)
        return cls(
            router,
            spec_name=router.spec_name,
            params=store.manifest.get("params") or {},
            seed=int(store.manifest.get("seed", 0)),
            loaded=True,
        )

    def serve_stats(self) -> Optional[Dict[str, Any]]:
        """Shard-serving counters (loads, hits, bytes read) or ``None``.

        Includes the engine's wire-header accounting (headers encoded,
        total/max header bytes) when the scheme is a serving engine.
        For a cluster-backed session this is the router's
        ``cluster_stats()`` — per-worker store/header counters summed
        across the live fleet plus RPC, wire-byte and latency
        accounting.  ``None`` means the session is whole-object
        in-memory — there is no lazy loading to account for.
        """
        cluster_stats = getattr(self.scheme, "cluster_stats", None)
        if callable(cluster_stats):
            return cluster_stats()
        store = getattr(self.scheme, "store", None)
        if store is None:
            return None
        stats = store.stats()
        header_stats = getattr(self.scheme, "header_stats", None)
        if header_stats is not None:
            stats.update(header_stats())
        return stats

    def health(self) -> Optional[Dict[str, Any]]:
        """Serving-health summary, or ``None`` for in-memory sessions.

        ``{"status": "ok" | "degraded", ...counters}`` — degraded means
        the store retried, failed over, detected a checksum mismatch or
        currently quarantines a replica; routes still complete (that is
        the point of the fault-tolerance layer), but an operator should
        look at the counters and consider ``repair()``.  Cluster-backed
        sessions report the router's fleet-wide ``health()`` (dead
        workers, quarantined copies, per-worker store health).
        """
        store = getattr(self.scheme, "store", None)
        if store is not None:
            return store.health()
        own = getattr(self.scheme, "health", None)
        if callable(own):
            return own()
        return None

    @classmethod
    def connect(
        cls, spec: Any, **kwargs: Any
    ) -> "RoutingSession":
        """A session over an already-running serving cluster.

        ``spec`` is a reconnect spec dict (:meth:`ClusterHandle.spec`)
        or the path of a ``cluster.json`` the ``repro cluster serve``
        CLI wrote; extra keyword arguments reach the
        :class:`~repro.cluster.router.ClusterRouter` (``timeout_s``...).

        A connected session routes (``route`` / ``serve_stats`` /
        ``health`` / ``describe``) but holds no graph or metric — the
        data lives in the workers' shards — so ``measure`` and
        ``validate`` are unavailable; run those against the
        single-process session over the same shard directory (the
        cluster serves hop-identical routes, which the parity tests
        assert).
        """
        from ..cluster import connect_cluster, load_cluster_spec

        if isinstance(spec, str):
            spec = load_cluster_spec(spec)
        router = connect_cluster(spec, **kwargs)
        return cls(
            router,
            spec_name=router.spec_name or "?",
            params={},
            seed=0,
            loaded=True,
        )

    def describe(self) -> str:
        """One human-readable summary line."""
        placement = getattr(self.scheme, "placement", None)
        if placement is not None:
            return (
                f"{self.name} [{self.spec_name}] — cluster of "
                f"{placement.workers} workers x{placement.replicas} "
                f"replicas serving {self.scheme.n} vertices"
            )
        if self.serve_stats() is not None:
            return (
                f"{self.name} [{self.spec_name}] — serving "
                f"{self.scheme.n} vertices from shards at "
                f"{self.scheme.store.path}"
            )
        return (
            f"{self.name} [{self.spec_name}] on {self.graph!r} — built in "
            f"{self.build_seconds:.2f}s "
            f"(+{self.substrate_seconds:.2f}s substrate)"
        )


def load(path: str) -> RoutingSession:
    """Load the pack directory :meth:`RoutingSession.save` wrote.

    The directory opens lazily (:meth:`RoutingSession.from_shards`).  A
    directory without a shard manifest raises :class:`ValueError`; a
    regular file (a JSON session blob of an earlier release) raises
    :class:`~repro.routing.serving.RetiredLayoutError` naming the
    rebuild command; a missing path raises :class:`FileNotFoundError`.
    """
    from ..routing.serving import RetiredLayoutError, is_shard_dir

    if is_shard_dir(path):
        return RoutingSession.from_shards(path)
    if os.path.isdir(path):
        raise ValueError(
            f"{path!r} is a directory without a shard manifest — "
            f"not a saved session"
        )
    if os.path.isfile(path):
        raise RetiredLayoutError(
            f"{path!r} is a file: JSON session blobs are no longer read, "
            f"sessions persist only as checksummed packs.  Rebuild it "
            f"with `python -m repro shard --scheme <spec> --out <dir>` "
            f"(from Python: session.save(<dir>))"
        )
    raise FileNotFoundError(f"no saved session at {path!r}")


def build_session(
    name: str,
    graph: Graph,
    *,
    seed: int = 0,
    substrate: Optional[Any] = None,
    cache: Optional[Any] = None,
    ports: Optional[PortAssignment] = None,
    metric: Optional[MetricView] = None,
    preset: Optional[str] = None,
    **params: Any,
) -> RoutingSession:
    """Implementation behind :func:`repro.api.build` (see its docstring).

    ``preset`` names a workload-aware parameter preset of the spec (e.g.
    a graph family like ``"grid"``); explicit ``params`` still win.
    """
    from .substrate import Substrate

    spec = get_spec(name)
    spec.check_graph(graph)
    resolved = spec.resolve_params(params, preset=preset)
    if substrate is None:
        if cache is not None:
            if metric is not None or ports is not None:
                raise ValueError(
                    "pass either cache= or explicit metric=/ports= — a "
                    "cache hands out its own substrate artifacts, so the "
                    "explicit ones would be silently ignored"
                )
            substrate = cache.substrate(graph)
        else:
            substrate = Substrate(graph, metric=metric, ports=ports)
    elif metric is not None or ports is not None:
        raise ValueError(
            "pass either substrate= or explicit metric=/ports=, not both"
        )
    t0 = time.perf_counter()
    substrate.ensure_core()
    substrate_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    scheme = spec.factory(
        graph, seed=seed, substrate=substrate, **resolved
    )
    build_seconds = time.perf_counter() - t0
    return RoutingSession(
        scheme,
        spec_name=name,
        params=resolved,
        seed=seed,
        substrate=substrate,
        build_seconds=build_seconds,
        substrate_seconds=substrate_seconds,
    )
