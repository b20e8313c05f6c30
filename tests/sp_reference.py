"""Test-side shortest-path references: pure-Python heap Dijkstras.

The library runs every row, ball and cluster scan on the CSR kernel
(numpy or native); these are the references the differential suites
hold it to, bit for bit:

* :func:`dijkstra_py` — a full single-source row and its parents;
* :func:`truncated_dijkstra_py` and :func:`_ball_radius_py` — one
  vicinity ``B(u, ell)`` in ``(dist, id)`` order and its radius;
* :func:`threshold_dijkstra_py` — one threshold scan (a cluster);
* :func:`subgraph_dijkstra_py` — the induced-subgraph Dijkstra the
  cluster trees were once built with (the library now derives a cluster
  tree's parents from its threshold scan,
  :func:`repro.graph.trees.cluster_parents`);
* :func:`threshold_reference` — the full-row definition of a threshold
  scan.

:func:`patch_references` swaps them in for the kernel behind
``MetricView._compute_rows``, ``MetricView.iter_bounded_rows`` and
``shortest_paths.all_balls``, so a whole structure built under it (the
``"pure"`` path of the differential suites) computes every distance row,
cluster scan and ball sweep in Python; hop columns still come from the
kernel, over those rows.  :func:`kernel_dispatch` runs a ``with`` block
on one engine (``"pure"`` included), and the ``reference_engine``
fixture runs a whole test on the references.
"""

from __future__ import annotations

import contextlib
import heapq
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.graph import metric as metric_module
from repro.graph import shortest_paths
from repro.graph.core import Graph, GraphError
from repro.graph.metric import MetricView

_INF = float("inf")


def dijkstra_py(
    g: Graph, source: int
) -> Tuple[List[float], List[Optional[int]]]:
    """Single-source Dijkstra: the forward row and smallest-id parents."""
    dist = [_INF] * g.n
    parent: List[Optional[int]] = [None] * g.n
    dist[source] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, source)]
    done = [False] * g.n
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in g.neighbor_items(u):
            nd = d + w
            if nd < dist[v] or (nd == dist[v] and parent[v] is not None and u < parent[v]):
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, parent


def truncated_dijkstra_py(
    g: Graph, source: int, ell: int
) -> Tuple[List[int], Dict[int, float]]:
    """The ``ell`` closest vertices of ``source`` in ``(dist, id)`` order."""
    if ell <= 0:
        return [], {}
    ball: List[int] = []
    dist: Dict[int, float] = {}
    best: Dict[int, float] = {source: 0.0}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap and len(ball) < ell:
        d, u = heapq.heappop(heap)
        if u in dist:
            continue
        if d > best.get(u, _INF):
            continue
        dist[u] = d
        ball.append(u)
        for v, w in g.neighbor_items(u):
            nd = d + w
            if v not in dist and nd < best.get(v, _INF):
                best[v] = nd
                heapq.heappush(heap, (nd, v))
    return ball, dist


def _ball_radius_py(
    g: Graph, ball: List[int], dist: Dict[int, float], tol: float
) -> float:
    """Radius ``r_u(ell)`` of a :func:`truncated_dijkstra_py` ball.

    The boundary level is complete iff no vertex outside the ball lies
    within ``tol`` of the boundary distance; outside vertices at smaller
    distance cannot exist because balls are ``(dist, id)`` prefixes, so it
    suffices to scan the neighbours of ball members.
    """
    if not ball:
        raise ValueError("empty ball has no radius")
    dmax = dist[ball[-1]]
    complete = True
    for u in ball:
        du = dist[u]
        for v, w in g.neighbor_items(u):
            if v in dist:
                continue
            if du + w <= dmax + tol:
                complete = False
                break
        if not complete:
            break
    if complete:
        return dmax
    inner = [d for d in dist.values() if d < dmax - tol]
    return max(inner) if inner else 0.0


def threshold_dijkstra_py(
    g: Graph, source: int, thresholds: Sequence[float]
) -> Dict[int, float]:
    """Threshold scan: ``{v: d(source, v)}`` below ``thresholds[v]``.

    A Dijkstra that drops every relaxation into ``v`` at or beyond
    ``thresholds[v]``.  For ``thresholds = d(·, S)`` it settles exactly
    the cluster of ``source``, at the distances :func:`dijkstra_py`
    gives.
    """
    g._check_vertex(source)
    dist: Dict[int, float] = {source: 0.0}
    settled: Dict[int, float] = {}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled[u] = d
        for v, w in g.neighbor_items(u):
            nd = d + w
            if nd < thresholds[v] and nd < dist.get(v, _INF):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return {v: d for v, d in settled.items() if d < thresholds[v]}


def subgraph_dijkstra_py(
    g: Graph, root: int, members: Sequence[int]
) -> Tuple[Dict[int, float], Dict[int, int]]:
    """Dijkstra on the subgraph induced by ``members``.

    Returns ``(dist, parent)`` maps over the reachable members
    (``parent[root] == root``); parent ties go to the smallest
    predecessor id.
    """
    member_set = set(members)
    if root not in member_set:
        raise ValueError(f"root {root} not among members")
    dist: Dict[int, float] = {root: 0.0}
    parent: Dict[int, int] = {root: root}
    settled: set = set()
    heap: List[Tuple[float, int]] = [(0.0, root)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        if d > dist.get(u, _INF):
            continue
        settled.add(u)
        for v, w in g.neighbor_items(u):
            if v not in member_set:
                continue
            nd = d + w
            dv = dist.get(v, _INF)
            if nd < dv:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
            elif nd == dv and v not in settled and u < parent[v]:
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, parent


def threshold_reference(
    g: Graph, source: int, thresholds: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``{v : row(source)[v] < thresholds[v]}`` and its distances, read
    off the full forward ``dijkstra_py`` row."""
    row = np.asarray(dijkstra_py(g, source)[0], dtype=np.float64)
    verts = np.flatnonzero(row < thresholds)
    return verts, row[verts]


def distance_to_set(g: Graph, members: Sequence[int]) -> np.ndarray:
    """``d(v, S)`` from the members' forward ``dijkstra_py`` rows (the
    orientation :meth:`MetricView.columns` uses); ``inf`` for empty S."""
    out = np.full(g.n, _INF)
    for a in members:
        np.minimum(out, np.asarray(dijkstra_py(g, a)[0]), out=out)
    return out


# ----------------------------------------------------------------------
# The reference engine, patched over the library's three dispatch points
# ----------------------------------------------------------------------
def _check_sources(view: MetricView, sources: Sequence[int]) -> None:
    for s in sources:
        if not 0 <= s < view.n:
            raise GraphError(f"vertex {s} out of range [0, {view.n})")


def _reference_compute_rows(
    self: MetricView, sources: Sequence[int]
) -> np.ndarray:
    """``MetricView._compute_rows`` on :func:`dijkstra_py` rows, with the
    view's row count and tolerance scale kept as the library keeps them."""
    sources = list(sources)
    _check_sources(self, sources)
    out = np.empty((len(sources), self.n), dtype=np.float64)
    for i, s in enumerate(sources):
        out[i] = dijkstra_py(self.graph, s)[0]
    self.rows_computed += len(sources)
    finite = out[np.isfinite(out)]
    if finite.size:
        self._scale_seen = max(self._scale_seen, float(finite.max()))
    return out


def _reference_iter_bounded_rows(
    self: MetricView, thresholds, sources: Optional[Sequence[int]] = None
) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
    """``MetricView.iter_bounded_rows`` on :func:`threshold_dijkstra_py`."""
    sources = [int(u) for u in (range(self.n) if sources is None else sources)]
    _check_sources(self, sources)
    thr = np.ascontiguousarray(thresholds, dtype=np.float64).tolist()
    self.bounded_rows_computed += len(sources)
    for u in sources:
        found = threshold_dijkstra_py(self.graph, u, thr)
        verts = sorted(found)
        yield u, np.array(verts, dtype=np.int64), np.array(
            [found[v] for v in verts], dtype=np.float64
        )


def reference_all_balls(
    g: Graph,
    ell: int,
    *,
    tol: float = 0.0,
    with_radii: bool = False,
    engine: Optional[str] = None,
) -> Tuple[List[List[int]], Optional[List[float]]]:
    """``shortest_paths.all_balls`` from per-source
    :func:`truncated_dijkstra_py` balls (``engine`` is ignored)."""
    balls: List[List[int]] = []
    radii: Optional[List[float]] = [] if with_radii else None
    for u in g.vertices():
        ball, dist = truncated_dijkstra_py(g, u, min(ell, g.n))
        balls.append(ball)
        if radii is not None:
            radii.append(_ball_radius_py(g, ball, dist, tol) if ball else 0.0)
    return balls, radii


def patch_references(mp: pytest.MonkeyPatch) -> None:
    """Route rows, threshold scans and ball sweeps to the references."""
    mp.setattr(MetricView, "_compute_rows", _reference_compute_rows)
    mp.setattr(MetricView, "iter_bounded_rows", _reference_iter_bounded_rows)
    # metric.py binds all_balls by name at import
    mp.setattr(shortest_paths, "all_balls", reference_all_balls)
    mp.setattr(metric_module, "all_balls", reference_all_balls)


@contextlib.contextmanager
def kernel_dispatch(mode: str) -> Iterator[None]:
    """The ``with`` block runs on one engine: ``"native"`` or ``"numpy"``
    (``REPRO_KERNEL``), or ``"pure"`` — the references, with hop columns
    on whatever engine the run resolves."""
    with pytest.MonkeyPatch.context() as mp:
        if mode == "pure":
            patch_references(mp)
        else:
            mp.setenv("REPRO_KERNEL", mode)
        shortest_paths.reset_kernel_choice()
        try:
            yield
        finally:
            shortest_paths.reset_kernel_choice()


@pytest.fixture
def reference_engine(monkeypatch: pytest.MonkeyPatch) -> None:
    """The whole test runs on the references (:func:`patch_references`)."""
    patch_references(monkeypatch)
