"""Shortest-path algorithms: Dijkstra, truncated (ball) Dijkstra, all balls.

Tie-breaking discipline
-----------------------
Vertex vicinities ``B(u, ell)`` (the ``ell`` closest vertices of ``u``) must
be defined with respect to a *consistent total order*; the paper breaks
distance ties "by lexicographical order of vertex names" (Section 2).  We use
the total order ``x <_u y  iff  (d(u,x), x) < (d(u,y), y)``.  Property 1 —
``v in B(u, ell)`` and ``w`` on a shortest ``u``–``v`` path implies
``v in B(w, ell)`` — holds for this order for *every* shortest path, which is
what makes ball routing (Lemma 2) loop-free.  Every all-balls computation
in the repository goes through :func:`all_balls` (single balls through
:meth:`repro.graph.metric.MetricView.ball`), and both honour this order;
:func:`truncated_dijkstra_py` is the per-source pure reference.

Kernel dispatch
---------------
``REPRO_KERNEL`` selects one of three engines, all producing *identical*
results — same distances, same ``(dist, id)`` ball order — which the
differential suites assert:

* ``pure`` (aliases ``py``/``python``): the pure-Python reference
  implementations, also exported under ``*_py`` names;
* ``numpy`` (aliases ``np``/``kernel``): the flat-array CSR kernel
  (:mod:`repro.graph.csr`) with its numpy delta-stepping batch engine;
* ``native``: the numpy kernel with the compiled inner loops from
  :mod:`repro.native` — *forced*, so a host without a compiler and
  without a cached library raises the typed
  :class:`repro.native.NativeUnavailableError`;
* ``auto`` (or unset): prefers ``native`` when the library loads and
  otherwise falls back to ``numpy`` recording why
  (:func:`repro.native.fallback_reason`) — or to ``pure`` when numpy
  itself is missing.

Any other value raises :class:`KernelConfigError` rather than silently
running a different engine than the caller asked for.

The choice is resolved **once per process** on first use
(:func:`kernel_mode` caches it), so mutating the environment mid-run cannot
silently mix engines inside one structure build; tests that need to flip
the switch call :func:`reset_kernel_choice` after changing the environment
variable.
"""

from __future__ import annotations

import heapq
import os
from typing import Dict, List, Optional, Sequence, Tuple

from .core import Graph

__all__ = [
    "all_balls",
    "bounded_distance",
    "dijkstra_py",
    "truncated_dijkstra_py",
    "bounded_distance_py",
    "threshold_dijkstra_py",
    "use_kernel",
    "kernel_mode",
    "reset_kernel_choice",
    "KernelConfigError",
]

_INF = float("inf")

#: cached kernel mode; None = not yet resolved (see kernel_mode).
_KERNEL_MODE: Optional[str] = None

_PURE_NAMES = ("pure", "py", "python")
_NUMPY_NAMES = ("numpy", "np", "kernel")
_AUTO_NAMES = ("", "auto")


class KernelConfigError(ValueError):
    """``REPRO_KERNEL`` named an engine the dispatch does not know."""


def kernel_mode() -> str:
    """The active engine: ``"pure"``, ``"numpy"`` or ``"native"``.

    Resolved once per process and cached: every dispatch in a run sees the
    same choice, so a mid-run mutation of ``REPRO_KERNEL`` cannot mix
    engines within one structure build.
    """
    global _KERNEL_MODE
    if _KERNEL_MODE is None:
        _KERNEL_MODE = _resolve_kernel_mode()
    return _KERNEL_MODE


def use_kernel() -> bool:
    """Whether the CSR kernel is active (i.e. the mode is not ``pure``)."""
    return kernel_mode() != "pure"


def reset_kernel_choice() -> None:
    """Drop the cached :func:`kernel_mode` resolution (test-only hook).

    The next dispatch re-reads ``REPRO_KERNEL`` from the environment.
    """
    global _KERNEL_MODE
    _KERNEL_MODE = None


def _resolve_kernel_mode() -> str:
    raw = os.environ.get("REPRO_KERNEL", "").strip().lower()
    if raw in _PURE_NAMES:
        return "pure"
    if raw != "native" and raw not in _NUMPY_NAMES + _AUTO_NAMES:
        raise KernelConfigError(
            f"REPRO_KERNEL={raw!r} is not a known engine; expected "
            "pure (py/python), numpy (np/kernel), native, or auto"
        )
    try:
        from . import csr  # noqa: F401
    except ImportError:
        if raw == "native":
            raise KernelConfigError(
                "REPRO_KERNEL=native requires numpy, which failed to import"
            )
        return "pure"
    if raw == "native":
        # Forced: surface the typed NativeUnavailableError/NativeBuildError
        # instead of silently running the numpy engine.
        from ..native import load_kernels

        load_kernels()
        return "native"
    if raw in _AUTO_NAMES:
        from ..native import try_kernels

        if try_kernels() is not None:
            return "native"
        return "numpy"
    return "numpy"


def _kernel(g: Graph):
    """The cached CSR kernel for ``g``, or ``None`` for the pure path."""
    if g.n == 0 or not use_kernel():
        return None
    from .csr import csr_graph

    return csr_graph(g)


def dijkstra_py(
    g: Graph, source: int
) -> Tuple[List[float], List[Optional[int]]]:
    """Pure-Python single-source Dijkstra (differential-test reference)."""
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
    """Pure-Python truncated Dijkstra (differential-test reference)."""
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


def all_balls(
    g: Graph,
    ell: int,
    *,
    tol: float = 0.0,
    with_radii: bool = False,
    engine: Optional[str] = None,
) -> Tuple[List[List[int]], Optional[List[float]]]:
    """``B(u, ell)`` for every vertex, batched (kernel-dispatched).

    Returns ``(balls, radii)`` with ``radii`` ``None`` unless requested.
    The one batched ball sweep of the repository.  The kernel path runs
    :meth:`repro.graph.csr.CSRGraph.all_balls`; ``engine`` picks its
    implementation:

    * ``None`` (auto) — ``"bfs"`` on unit weights, ``"delta"`` otherwise;
    * ``"delta"`` — bucketed delta-stepping (numpy, or the compiled loop
      of :mod:`repro.native` when ``REPRO_KERNEL`` resolves to native);
    * ``"bfs"`` — vectorized level BFS (unit weights only).

    The kernel raises ``ValueError`` for any other name.  The pure path
    loops :func:`truncated_dijkstra_py` and ignores ``engine``.  Ball
    contents, order and radii are identical on every path.
    """
    if g.n == 0 or ell <= 0:
        # Same degenerate result on every path (the kernel short-circuits
        # identically before its radius computation).
        return (
            [[] for _ in range(g.n)],
            [0.0] * g.n if with_radii else None,
        )
    kernel = _kernel(g)
    if kernel is not None:
        return kernel.all_balls(
            ell, tol=tol, with_radii=with_radii, engine=engine
        )
    balls: List[List[int]] = []
    radii: Optional[List[float]] = [] if with_radii else None
    for u in g.vertices():
        ball, dist = truncated_dijkstra_py(g, u, min(ell, g.n))
        balls.append(ball)
        if with_radii:
            radii.append(_ball_radius_py(g, ball, dist, tol))
    return balls, radii


def _ball_radius_py(
    g: Graph, ball: List[int], dist: Dict[int, float], tol: float
) -> float:
    """Radius ``r_u(ell)`` for a pure-path ball (reference implementation).

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


def bounded_distance(
    g: Graph, source: int, target: int, limit: float
) -> float:
    """``d(source, target)`` when at most ``limit``; ``inf`` otherwise.

    Uses the CSR kernel only when a *current* CSR mirror is already cached
    on ``g`` — never builds one, because the hot caller (the greedy
    spanner) queries a graph it is still mutating, where a per-call
    O(n + m) rebuild would dwarf the query.  Static graphs get the kernel
    by building it once via :func:`repro.graph.csr.csr_graph`.
    """
    g._check_vertex(source)
    g._check_vertex(target)
    if use_kernel() and g.n > 0:
        from .csr import cached_csr_graph

        kernel = cached_csr_graph(g)
        if kernel is not None:
            return kernel.bounded_distance(source, target, limit)
    return bounded_distance_py(g, source, target, limit)


def bounded_distance_py(
    g: Graph, source: int, target: int, limit: float
) -> float:
    """Pure-Python bounded-radius Dijkstra (differential-test reference)."""
    dist = {source: 0.0}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    seen: set = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in seen:
            continue
        seen.add(u)
        if u == target:
            return d
        if d > limit:
            return _INF
        for v, w in g.neighbor_items(u):
            nd = d + w
            if nd <= limit and nd < dist.get(v, _INF):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return _INF


def threshold_dijkstra_py(
    g: Graph, source: int, thresholds: Sequence[float]
) -> Dict[int, float]:
    """Pure threshold scan: ``{v: d(source, v)}`` below ``thresholds[v]``.

    A Dijkstra that drops every relaxation into ``v`` at or beyond
    ``thresholds[v]`` (the pure engine of
    :meth:`repro.graph.metric.MetricView.iter_bounded_rows`).  For
    ``thresholds = d(·, S)`` it settles exactly the cluster of
    ``source``, at the distances :func:`dijkstra_py` gives.
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
