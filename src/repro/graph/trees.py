"""Rooted trees extracted from shortest-path computations.

Tree routing (Lemma 3) and the cluster trees ``T_{C_A(w)}`` of Section 4 all
operate on rooted trees whose vertex set may be a sparse subset of the graph.
A cluster tree is a ``child -> parent`` map (:func:`cluster_parents`), which
:func:`repro.routing.tree_routing.tree_routings` takes as it is, beside the
hop columns of full-graph trees.  :class:`RootedTree` validates such a map
and normalizes it into id-sorted children lists, a root-first order and
subtree sizes, for the interval-routing baseline
(:class:`repro.routing.interval_routing.IntervalTreeRouting`).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Set

from .core import Graph

__all__ = ["RootedTree", "cluster_parents"]


def cluster_parents(
    g: Graph,
    root: int,
    members: Sequence[int],
    dists: Sequence[float],
) -> Dict[int, int]:
    """Shortest-path-tree parents of a cluster, from its own scan.

    ``members`` and ``dists`` (``d(root, v)``) are one threshold scan's
    output (:meth:`repro.graph.metric.MetricView.iter_bounded_rows`).
    Replays the induced-subgraph Dijkstra from ``root`` over the tight
    edges (``dists[u] + w(u, v) == dists[v]``) with no row read: the
    parent of ``v`` is the smallest-id tight predecessor settled before
    ``v``, in that Dijkstra's ``(dist, id)`` pop order.  The order
    matters where float addition absorbs a weight (``du + w == du``)
    and tight edges join equal distances.  A member never reached (a set
    not shortest-path closed toward ``root``), or a missing root, raises
    :class:`ValueError`.
    """
    dist_of = dict(zip(members, dists))
    if dist_of.get(root) != 0.0:
        raise ValueError(f"root {root} not among members at distance 0")
    parents = {root: root}
    settled: Set[int] = set()
    heap = [(0.0, root)]
    adj = g._adj  # the hot loop: no per-vertex list copies
    while heap:
        du, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        for v, w in adj[u].items():
            dv = dist_of.get(v)
            if dv is not None and du + w == dv and v not in settled:
                p = parents.get(v)
                if p is None or u < p:
                    parents[v] = u
                    heapq.heappush(heap, (dv, v))
    if len(settled) != len(dist_of):
        v = min(set(dist_of) - settled)
        raise ValueError(
            f"member set not shortest-path closed toward {root}: no "
            f"member precedes {v} at distance {dist_of[v]}"
        )
    return parents


class RootedTree:
    """A rooted tree over (a subset of) graph vertices.

    Parameters
    ----------
    parent:
        ``child -> parent`` map; the root maps to itself.
    """

    def __init__(self, parent: Dict[int, int]) -> None:
        roots = [v for v, p in parent.items() if v == p]
        if len(roots) != 1:
            raise ValueError(
                f"parent map must contain exactly one root, found {roots}"
            )
        root = self.root = roots[0]
        self.parent = parent = dict(parent)
        # Appending in id order leaves every child list sorted.
        children: Dict[int, List[int]] = {v: [] for v in parent}
        for v in sorted(parent):
            p = parent[v]
            if v != p:
                kids = children.get(p)
                if kids is None:
                    raise ValueError(f"parent {p} of {v} is not a tree vertex")
                kids.append(v)
        self.children = children
        order = [root]
        for v in order:  # breadth-first: the list grows as it is read
            order.extend(children[v])
        if len(order) != len(parent):
            raise ValueError("parent map contains a cycle or unreachable vertex")
        self._order = order
        size = dict.fromkeys(order, 1)
        for v in order[:0:-1]:
            size[parent[v]] += size[v]
        self.size = size

    # ------------------------------------------------------------------
    @property
    def vertices(self) -> List[int]:
        """Tree vertices in root-first (topological) order."""
        return list(self._order)

    def __len__(self) -> int:
        return len(self.parent)

    def __contains__(self, v: int) -> bool:
        return v in self.parent
