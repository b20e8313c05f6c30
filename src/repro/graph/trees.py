"""Rooted trees extracted from shortest-path computations.

Tree routing (Lemma 3) and the cluster trees ``T_{C_A(w)}`` of Section 4 all
operate on rooted trees whose vertex set may be a sparse subset of the graph.
:class:`RootedTree` normalizes a ``child -> parent`` map into children lists,
subtree sizes and depths with deterministic ordering, ready for the
heavy-path decomposition performed by
:mod:`repro.routing.tree_routing`.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Set

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
        ``child -> parent`` map; the root maps to itself.  Edge weights may
        be provided for weighted path-length computations.
    weight:
        Optional ``child -> weight-of-edge-to-parent`` map.
    """

    def __init__(
        self,
        parent: Dict[int, int],
        weight: Optional[Dict[int, float]] = None,
    ) -> None:
        roots = [v for v, p in parent.items() if v == p]
        if len(roots) != 1:
            raise ValueError(
                f"parent map must contain exactly one root, found {roots}"
            )
        self.root = roots[0]
        self.parent = dict(parent)
        self.weight = dict(weight) if weight is not None else None
        self.children: Dict[int, List[int]] = {v: [] for v in parent}
        for v, p in parent.items():
            if v != self.root:
                if p not in self.children:
                    raise ValueError(f"parent {p} of {v} is not a tree vertex")
                self.children[p].append(v)
        for kids in self.children.values():
            kids.sort()
        self._order = self._topo_order()
        if len(self._order) != len(parent):
            raise ValueError("parent map contains a cycle or unreachable vertex")
        self.size = self._subtree_sizes()
        self.depth = self._depths()

    # ------------------------------------------------------------------
    @property
    def vertices(self) -> List[int]:
        """Tree vertices in root-first (topological) order."""
        return list(self._order)

    def __len__(self) -> int:
        return len(self.parent)

    def __contains__(self, v: int) -> bool:
        return v in self.parent

    def heavy_child(self, v: int) -> Optional[int]:
        """The child with the largest subtree (ties to smallest id)."""
        kids = self.children[v]
        if not kids:
            return None
        return max(kids, key=lambda c: (self.size[c], -c))

    def path_to_root(self, v: int) -> List[int]:
        """Vertices from ``v`` up to (and including) the root."""
        path = [v]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
        return path

    def tree_path(self, u: int, v: int) -> List[int]:
        """The unique ``u``–``v`` path in the tree."""
        up = self.path_to_root(u)
        vp = self.path_to_root(v)
        up_set = {x: i for i, x in enumerate(up)}
        for j, x in enumerate(vp):
            if x in up_set:
                return up[: up_set[x] + 1] + vp[:j][::-1]
        raise RuntimeError("tree paths to root do not meet; corrupt tree")

    def tree_distance(self, u: int, v: int) -> float:
        """Weighted length of the tree path (hops when unweighted)."""
        path = self.tree_path(u, v)
        if self.weight is None:
            return float(len(path) - 1)
        total = 0.0
        for a, b in zip(path, path[1:]):
            child = a if self.parent.get(a) == b else b
            total += self.weight[child]
        return total

    # ------------------------------------------------------------------
    def _topo_order(self) -> List[int]:
        order = [self.root]
        i = 0
        while i < len(order):
            order.extend(self.children[order[i]])
            i += 1
        return order

    def _subtree_sizes(self) -> Dict[int, int]:
        size = {v: 1 for v in self.parent}
        for v in reversed(self._order):
            if v != self.root:
                size[self.parent[v]] += size[v]
        return size

    def _depths(self) -> Dict[int, int]:
        depth = {self.root: 0}
        for v in self._order:
            if v != self.root:
                depth[v] = depth[self.parent[v]] + 1
        return depth
