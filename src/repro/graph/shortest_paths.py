"""Shortest-path dispatch: the batched ball sweep and a bounded Dijkstra.

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
:meth:`repro.graph.metric.MetricView.ball`), and both honour this order.

Kernel dispatch
---------------
Every row, ball and cluster scan runs on the flat-array CSR kernel
(:mod:`repro.graph.csr`).  ``REPRO_KERNEL`` selects how its inner loops
run; both engines produce *identical* results — same distances, same
``(dist, id)`` ball order — which the differential suites assert against
pure-Python reference Dijkstras kept with the tests:

* ``numpy``: the numpy delta-stepping batch engine and hop columns;
* ``native``: the same kernel with the compiled inner loops from
  :mod:`repro.native` — *forced*, so a host without a compiler and
  without a cached library raises the typed
  :class:`repro.native.NativeUnavailableError`;
* ``auto`` (or unset): prefers ``native`` when the library loads and
  otherwise falls back to ``numpy`` recording why
  (:func:`repro.native.fallback_reason`).

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
from typing import List, Optional, Tuple

from .core import Graph
from .csr import csr_graph

__all__ = [
    "all_balls",
    "bounded_distance",
    "kernel_mode",
    "reset_kernel_choice",
    "KernelConfigError",
]

_INF = float("inf")

#: cached kernel mode; None = not yet resolved (see kernel_mode).
_KERNEL_MODE: Optional[str] = None


class KernelConfigError(ValueError):
    """``REPRO_KERNEL`` named an engine the dispatch does not know."""


def kernel_mode() -> str:
    """The active engine: ``"numpy"`` or ``"native"``.

    Resolved once per process and cached: every dispatch in a run sees the
    same choice, so a mid-run mutation of ``REPRO_KERNEL`` cannot mix
    engines within one structure build.
    """
    global _KERNEL_MODE
    if _KERNEL_MODE is None:
        _KERNEL_MODE = _resolve_kernel_mode()
    return _KERNEL_MODE


def reset_kernel_choice() -> None:
    """Drop the cached :func:`kernel_mode` resolution (test-only hook).

    The next dispatch re-reads ``REPRO_KERNEL`` from the environment.
    """
    global _KERNEL_MODE
    _KERNEL_MODE = None


def _resolve_kernel_mode() -> str:
    raw = os.environ.get("REPRO_KERNEL", "").strip().lower()
    if raw == "numpy":
        return "numpy"
    if raw == "native":
        # Forced: surface the typed NativeUnavailableError/NativeBuildError
        # instead of silently running the numpy engine.
        from ..native import load_kernels

        load_kernels()
        return "native"
    if raw in ("", "auto"):
        from ..native import try_kernels

        return "native" if try_kernels() is not None else "numpy"
    raise KernelConfigError(
        f"REPRO_KERNEL={raw!r} is not a known engine; expected "
        "auto, native or numpy"
    )


def all_balls(
    g: Graph,
    ell: int,
    *,
    tol: float = 0.0,
    with_radii: bool = False,
    engine: Optional[str] = None,
) -> Tuple[List[List[int]], Optional[List[float]]]:
    """``B(u, ell)`` for every vertex, batched on the CSR kernel.

    Returns ``(balls, radii)`` with ``radii`` ``None`` unless requested.
    The one batched ball sweep of the repository: it runs
    :meth:`repro.graph.csr.CSRGraph.all_balls`, and ``engine`` picks its
    implementation:

    * ``None`` (auto) — ``"bfs"`` on unit weights, ``"delta"`` otherwise;
    * ``"delta"`` — bucketed delta-stepping (numpy, or the compiled loop
      of :mod:`repro.native` when ``REPRO_KERNEL`` resolves to native);
    * ``"bfs"`` — vectorized level BFS (unit weights only).

    The kernel raises ``ValueError`` for any other name.  Ball contents,
    order and radii are identical on every engine.
    """
    return csr_graph(g).all_balls(
        ell, tol=tol, with_radii=with_radii, engine=engine
    )


def bounded_distance(
    g: Graph, source: int, target: int, limit: float
) -> float:
    """``d(source, target)`` when at most ``limit``; ``inf`` otherwise.

    A heap Dijkstra over the graph's own adjacency dicts that never
    relaxes past ``limit``.  It builds no CSR mirror: the greedy spanner
    queries a graph it is still growing, where an ``O(n + m)`` rebuild
    per query would dwarf the query.
    """
    g._check_vertex(source)
    g._check_vertex(target)
    adj = g._adj
    pop, push = heapq.heappop, heapq.heappush
    dist = {source: 0.0}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue  # superseded: u was pushed again closer
        if u == target:
            return d
        for v, w in adj[u].items():
            nd = d + w
            if nd <= limit and nd < dist.get(v, _INF):
                dist[v] = nd
                push(heap, (nd, v))
    return _INF
