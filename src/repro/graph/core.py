"""Undirected graph representation used throughout the reproduction.

The paper works with undirected graphs ``G = (V, E)`` that are either
unweighted or carry positive real edge weights.  This module provides a small,
dependency-free ``Graph`` class with:

* integer vertex ids ``0 .. n-1`` (compact routing labels are built on them),
* adjacency lists with deterministic neighbour order (insertion order),
* O(1) edge/weight lookup,
* validation helpers and conversion to/from ``networkx`` and ``scipy``
  CSR matrices (used by the shortest-path substrate).

Vertices are dense integers on purpose: the fixed-port routing model
(:mod:`repro.routing.ports`) assigns port numbers per vertex, and dense ids
keep every table a plain list/dict of machine words, which makes the space
accounting in :mod:`repro.routing.model` meaningful.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Tuple

__all__ = ["Graph", "GraphError"]


class GraphError(ValueError):
    """Raised on structurally invalid graph operations."""


def _edge_weight(u: int, v: int, weight: float) -> float:
    """``weight`` as a float; :class:`GraphError` unless it is finite
    and positive (NaN and infinity would poison every distance row)."""
    if not math.isfinite(weight):
        raise GraphError(
            f"edge ({u},{v}) must have finite weight, got {weight}"
        )
    if weight <= 0:
        raise GraphError(
            f"edge ({u},{v}) must have positive weight, got {weight}"
        )
    return float(weight)


class Graph:
    """A simple undirected graph with positive edge weights.

    Parameters
    ----------
    n:
        Number of vertices.  Vertices are ``0 .. n-1``.

    Notes
    -----
    Self loops and parallel edges are rejected: neither occurs in the
    paper's model and both would break the fixed-port assumptions.
    """

    __slots__ = ("_n", "_adj", "_m", "_version", "_csr_cache")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        self._n = n
        # _adj[u] maps neighbour -> weight; dicts preserve insertion order,
        # which gives us a deterministic neighbour ordering for ports.
        self._adj: List[Dict[int, float]] = [dict() for _ in range(n)]
        self._m = 0
        # Mutation counter; lets derived structures (the CSR kernel) detect
        # staleness without holding a reference that outlives the edges.
        self._version = 0
        # (version, CSRGraph) pair maintained by repro.graph.csr.csr_graph.
        self._csr_cache = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[Tuple[int, int]] | Iterable[Tuple[int, int, float]],
        default_weight: float = 1.0,
    ) -> "Graph":
        """Build a graph from an edge iterable.

        Each edge is ``(u, v)`` or ``(u, v, weight)``.  Duplicate edges
        raise; use :meth:`add_or_update_edge` for idempotent building.
        """
        g = cls(n)
        for edge in edges:
            if len(edge) == 2:
                u, v = edge  # type: ignore[misc]
                w = default_weight
            else:
                u, v, w = edge  # type: ignore[misc]
            g.add_edge(u, v, w)
        return g

    @classmethod
    def from_networkx(cls, nxg) -> "Graph":
        """Convert an undirected networkx graph with contiguous int nodes.

        Node labels are re-indexed to ``0..n-1`` in sorted order; edge
        attribute ``weight`` is honoured when present.
        """
        nodes = sorted(nxg.nodes())
        index = {v: i for i, v in enumerate(nodes)}
        g = cls(len(nodes))
        for u, v, data in nxg.edges(data=True):
            if u == v:
                continue
            g.add_edge(index[u], index[v], float(data.get("weight", 1.0)))
        return g

    def copy(self) -> "Graph":
        """Return a deep copy of this graph.

        The copy replicates each adjacency dict directly so per-vertex
        neighbour *insertion order* is preserved exactly.  (Re-adding edges
        in ``u < v`` scan order would silently permute the deterministic
        port numbering :mod:`repro.routing.ports` derives from it.)
        """
        g = Graph(self._n)
        g._adj = [dict(adj) for adj in self._adj]
        g._m = self._m
        return g

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add undirected edge ``{u, v}`` with a positive weight."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError(f"self loop at vertex {u} is not allowed")
        weight = _edge_weight(u, v, weight)
        if v in self._adj[u]:
            raise GraphError(f"duplicate edge ({u},{v})")
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        self._m += 1
        self._version += 1

    def add_or_update_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add edge ``{u, v}`` or update its weight if already present."""
        if self.has_edge(u, v):
            weight = _edge_weight(u, v, weight)
            self._adj[u][v] = weight
            self._adj[v][u] = weight
            self._version += 1
        else:
            self.add_edge(u, v, weight)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def m(self) -> int:
        """Number of (undirected) edges."""
        return self._m

    def vertices(self) -> range:
        """Iterate vertex ids ``0..n-1``."""
        return range(self._n)

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield each undirected edge once as ``(u, v, weight)`` with u < v."""
        for u in range(self._n):
            for v, w in self._adj[u].items():
                if u < v:
                    yield (u, v, w)

    def neighbors(self, u: int) -> List[int]:
        """Neighbours of ``u`` in deterministic (insertion) order."""
        self._check_vertex(u)
        return list(self._adj[u].keys())

    def neighbor_items(self, u: int) -> List[Tuple[int, float]]:
        """``(neighbour, weight)`` pairs of ``u`` in deterministic order."""
        self._check_vertex(u)
        return list(self._adj[u].items())

    def degree(self, u: int) -> int:
        """Degree of vertex ``u``."""
        self._check_vertex(u)
        return len(self._adj[u])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``{u, v}`` exists."""
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def weight(self, u: int, v: int) -> float:
        """Weight of edge ``{u, v}``; raises if absent."""
        self._check_vertex(u)
        if v not in self._adj[u]:
            raise GraphError(f"edge ({u},{v}) does not exist")
        return self._adj[u][v]

    def is_unweighted(self, tol: float = 0.0) -> bool:
        """True when every edge weight equals 1 (within ``tol``)."""
        return all(abs(w - 1.0) <= tol for _, _, w in self.edges())

    def min_weight(self) -> float:
        """Smallest edge weight; raises on edgeless graphs."""
        if self._m == 0:
            raise GraphError("graph has no edges")
        return min(w for _, _, w in self.edges())

    def max_weight(self) -> float:
        """Largest edge weight; raises on edgeless graphs."""
        if self._m == 0:
            raise GraphError("graph has no edges")
        return max(w for _, _, w in self.edges())

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def connected_components(self) -> List[List[int]]:
        """Connected components as sorted vertex lists."""
        seen = [False] * self._n
        components: List[List[int]] = []
        for start in range(self._n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            component = []
            while stack:
                u = stack.pop()
                component.append(u)
                for v in self._adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
            components.append(sorted(component))
        return components

    def is_connected(self) -> bool:
        """True when the graph has a single connected component."""
        if self._n == 0:
            return True
        return len(self.connected_components()) == 1

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def to_csr(self):
        """Return a ``scipy.sparse.csr_matrix`` adjacency (weights as data)."""
        import numpy as np
        from scipy.sparse import csr_matrix

        rows, cols, data = [], [], []
        for u in range(self._n):
            for v, w in self._adj[u].items():
                rows.append(u)
                cols.append(v)
                data.append(w)
        return csr_matrix(
            (np.asarray(data, dtype=float), (rows, cols)),
            shape=(self._n, self._n),
        )

    def to_networkx(self):
        """Return the equivalent ``networkx.Graph``."""
        import networkx as nx

        nxg = nx.Graph()
        nxg.add_nodes_from(range(self._n))
        for u, v, w in self.edges():
            nxg.add_edge(u, v, weight=w)
        return nxg

    @classmethod
    def from_adjacency(
        cls, adjacency: List[List[Tuple[int, float]]]
    ) -> "Graph":
        """Build a graph from per-vertex ``(neighbour, weight)`` lists.

        Each vertex's neighbours are inserted in list order, so the
        deterministic default port numbering :mod:`repro.routing.ports`
        derives from insertion order is reproduced exactly (validates
        symmetry).
        """
        g = cls(len(adjacency))
        m2 = 0
        for u, items in enumerate(adjacency):
            for v, w in items:
                v = int(v)
                g._check_vertex(v)
                if u == v:
                    raise GraphError(f"self loop at vertex {u} is not allowed")
                w = _edge_weight(u, v, w)
                if v in g._adj[u]:
                    raise GraphError(
                        f"duplicate adjacency entry ({u},{v})"
                    )
                g._adj[u][v] = w
                m2 += 1
        for u, adj in enumerate(g._adj):
            for v, w in adj.items():
                if g._adj[v].get(u) != w:
                    raise GraphError(
                        f"asymmetric adjacency between {u} and {v}"
                    )
        if m2 % 2:
            raise GraphError("adjacency lists encode an odd half-edge count")
        g._m = m2 // 2
        return g

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        kind = "unweighted" if self._m and self.is_unweighted() else "weighted"
        return f"Graph(n={self._n}, m={self._m}, {kind})"

    # ------------------------------------------------------------------
    # Internal
    # ------------------------------------------------------------------
    def _check_vertex(self, u: int) -> None:
        if not isinstance(u, (int,)) or isinstance(u, bool):
            raise GraphError(f"vertex id must be an int, got {u!r}")
        if not 0 <= u < self._n:
            raise GraphError(f"vertex {u} out of range [0, {self._n})")
