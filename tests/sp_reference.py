"""Test-side references for cluster scans and cluster trees.

:func:`subgraph_dijkstra_py` is the induced-subgraph Dijkstra the cluster
trees were once built with; the library now derives a cluster tree's
parents from its threshold scan
(:func:`repro.graph.trees.cluster_parents`), and these tests hold it to
this reference.  :func:`threshold_reference` is the full-row definition
of a threshold scan.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.graph.core import Graph
from repro.graph.shortest_paths import dijkstra_py

_INF = float("inf")


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
