"""Graph spanners — the paper's sibling primitive (Section 1, [5, 9]).

The paper frames routing schemes against the spanner/distance-oracle
tradeoff: a ``(2k-1)``-spanner with ``O(n^{1+1/k})`` edges exists and is
tight under the girth conjecture.  Two classic constructions:

* :func:`greedy_spanner` — Althöfer et al. [5]: scan edges by increasing
  weight; keep an edge iff the spanner built so far cannot connect its
  endpoints within ``(2k-1)`` times its weight.  Deterministic, meets the
  ``O(n^{1+1/k})`` bound.
* :func:`baswana_sen_spanner` — Baswana & Sen [9]: randomized clustering,
  ``k-1`` rounds of cluster sampling with probability ``n^{-1/k}``
  followed by a vertex-cluster joining phase.  Expected size
  ``O(k n^{1+1/k})``, linear time (up to our Python constants).

Both return subgraphs of the input; the ``(2k-1)``-stretch property is
asserted by the property tests in ``tests/baselines/test_spanners.py``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..graph.core import Graph
from ..graph.shortest_paths import bounded_distance

__all__ = ["greedy_spanner", "baswana_sen_spanner", "spanner_stretch_ok"]


def greedy_spanner(g: Graph, k: int) -> Graph:
    """The Althöfer et al. greedy ``(2k-1)``-spanner.

    Size is ``O(n^{1+1/k})``: the spanner has girth above ``2k``, so the
    Bondy–Simonovits bound applies.
    """
    if k < 1:
        raise ValueError(f"spanner parameter k must be >= 1, got {k}")
    spanner = Graph(g.n)
    stretch = 2 * k - 1
    # The spanner grows between queries; bounded_distance searches its
    # adjacency dicts directly (a CSR rebuild per query would dominate).
    for u, v, w in sorted(g.edges(), key=lambda e: (e[2], e[0], e[1])):
        if bounded_distance(spanner, u, v, stretch * w) > stretch * w:
            spanner.add_edge(u, v, w)
    return spanner


def baswana_sen_spanner(g: Graph, k: int, seed: int = 0) -> Graph:
    """The Baswana–Sen randomized ``(2k-1)``-spanner.

    ``k-1`` clustering rounds: unsampled clustered vertices either join an
    adjacent sampled cluster through their lightest edge (also keeping one
    lightest edge to every *strictly closer* adjacent cluster) or, when no
    adjacent cluster was sampled, keep one lightest edge to every adjacent
    cluster and leave the clustering.  A final vertex-cluster phase joins
    every remaining vertex to every adjacent final cluster.
    """
    if k < 1:
        raise ValueError(f"spanner parameter k must be >= 1, got {k}")
    rng = random.Random(seed)
    n = g.n
    spanner = Graph(n)
    p = n ** (-1.0 / k) if n > 1 else 0.0

    def add(u: int, v: int, w: float) -> None:
        if not spanner.has_edge(u, v):
            spanner.add_edge(u, v, w)

    # cluster[v] = center id, or None once v left the clustering
    cluster: List[Optional[int]] = list(range(n))
    # Residual edge set: edges not yet resolved (both endpoints clustered,
    # different clusters).
    edges = {(u, v): w for u, v, w in g.edges()}

    for _ in range(k - 1):
        centers = {c for c in cluster if c is not None}
        sampled = {c for c in centers if rng.random() < p}
        new_cluster: List[Optional[int]] = [None] * n
        for v in range(n):
            if cluster[v] is None:
                continue
            if cluster[v] in sampled:
                new_cluster[v] = cluster[v]
                continue
            # Group v's residual edges by the neighbour's cluster, keeping
            # the lightest edge per cluster.
            best: Dict[int, Tuple[float, int]] = {}
            for u, w in g.neighbor_items(v):
                c = cluster[u]
                if c is None or c == cluster[v]:
                    continue
                if (u, v) not in edges and (v, u) not in edges:
                    continue
                if c not in best or (w, u) < best[c]:
                    best[c] = (w, u)
            sampled_adjacent = [
                (w, u, c) for c, (w, u) in best.items() if c in sampled
            ]
            if sampled_adjacent:
                w0, u0, c0 = min(sampled_adjacent)
                add(v, u0, w0)
                new_cluster[v] = c0
                for c, (w, u) in best.items():
                    if (w, u, c) < (w0, u0, c0) and c not in sampled:
                        add(v, u, w)
                        _discard_cluster_edges(edges, g, v, cluster, c)
                _discard_cluster_edges(edges, g, v, cluster, c0)
            else:
                for c, (w, u) in best.items():
                    add(v, u, w)
                    _discard_cluster_edges(edges, g, v, cluster, c)
                new_cluster[v] = None
        cluster = new_cluster

    # Phase 2: vertex-cluster joining on the final clustering.
    for v in range(n):
        best: Dict[int, Tuple[float, int]] = {}
        for u, w in g.neighbor_items(v):
            c = cluster[u]
            if c is None or c == cluster[v]:
                continue
            if c not in best or (w, u) < best[c]:
                best[c] = (w, u)
        for c, (w, u) in best.items():
            add(v, u, w)
    return spanner


def _discard_cluster_edges(
    edges: Dict[Tuple[int, int], float],
    g: Graph,
    v: int,
    cluster: List[Optional[int]],
    c: int,
) -> None:
    """Remove all residual edges between ``v`` and cluster ``c``."""
    for u, _ in g.neighbor_items(v):
        if cluster[u] == c:
            edges.pop((u, v), None)
            edges.pop((v, u), None)


def spanner_stretch_ok(g: Graph, spanner: Graph, stretch: float) -> bool:
    """Verify ``d_spanner(u, v) <= stretch * w`` for every edge ``(u,v)``.

    Checking edges suffices: shortest paths decompose into edges, so edge
    stretch bounds path stretch.
    """
    for u, v, w in g.edges():
        if bounded_distance(spanner, u, v, stretch * w) > stretch * w + 1e-9:
            return False
    return True
