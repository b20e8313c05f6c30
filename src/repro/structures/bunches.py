"""Bunches, clusters, pivots and cluster trees (Section 2, after [22]).

For a landmark set ``A ⊆ V``:

* ``p_A(v)`` — the closest landmark of ``v`` (ties to the smaller id),
* ``B_A(v) = {w : d(v,w) < d(v,A)}`` — the *bunch* of ``v``,
* ``C_A(w) = {v : d(w,v) < d(v,A)}`` — the *cluster* of ``w``
  (``w ∈ B_A(v)`` iff ``v ∈ C_A(w)``).

Clusters are shortest-path closed toward their owner, so each nonempty
cluster carries a shortest-path tree ``T_{C_A(w)}`` rooted at ``w``; those
trees are the local-delivery workhorse of Theorems 10, 11, 13, 15 and 16.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..graph.metric import MetricView
from ..graph.trees import RootedTree, cluster_parents

__all__ = ["BunchStructure"]


class BunchStructure:
    """All pivots, bunches and clusters for one landmark set ``A``."""

    def __init__(self, metric: MetricView, landmarks: Sequence[int]) -> None:
        self.metric = metric
        self.landmarks = sorted(set(landmarks))
        if not self.landmarks:
            raise ValueError("landmark set must be nonempty")
        n = metric.n
        sub = metric.columns(self.landmarks)  # (n, |A|)
        # p_A(v): closest landmark, ties to the smaller landmark id; the
        # landmark columns are sorted by id, so argmin's first-hit rule is
        # exactly the lexicographic tie break.
        arg = np.argmin(sub, axis=1)
        self._pivot = [self.landmarks[int(arg[v])] for v in range(n)]
        self._d_to_a = sub[np.arange(n), arg]

        self._bunches: List[List[int]] = [[] for _ in range(n)]
        self._clusters: Dict[int, List[int]] = {}
        self._cluster_dists: Dict[int, List[float]] = {}
        # One threshold scan with d(·, A): the search from w never
        # leaves C_A(w) (clusters are shortest-path closed), so it settles
        # exactly the cluster with its distances — the cluster trees are
        # derived from those, not from rows.
        for w, verts, dists in metric.iter_bounded_rows(self._d_to_a):
            members = verts.tolist()
            if members:
                self._clusters[w] = members
                self._cluster_dists[w] = dists.tolist()
            for v in members:
                self._bunches[v].append(w)
        self._trees: Dict[int, RootedTree] = {}

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.metric.n

    def pivot(self, v: int) -> int:
        """The paper's ``p_A(v)``."""
        return self._pivot[v]

    def distance_to_landmarks(self, v: int) -> float:
        """``d(v, A) = d(v, p_A(v))``."""
        return float(self._d_to_a[v])

    def bunch(self, v: int) -> List[int]:
        """``B_A(v)`` sorted by vertex id."""
        return self._bunches[v]

    def cluster(self, w: int) -> List[int]:
        """``C_A(w)`` sorted by vertex id (empty for ``w ∈ A``)."""
        return self._clusters.get(w, [])

    def cluster_distances(self, w: int) -> List[float]:
        """``d(w, v)`` for each ``v`` of :meth:`cluster` (same order).

        The values the bounded cluster scan already computed — the same
        canonical forward distances :meth:`MetricView.d` returns — kept
        so intersection loops need not re-read ``w``'s distance row.
        """
        return self._cluster_dists.get(w, [])

    def in_cluster(self, w: int, v: int) -> bool:
        """Whether ``v ∈ C_A(w)``."""
        return self.metric.d(w, v) < float(self._d_to_a[v])

    def max_cluster_size(self) -> int:
        """Largest cluster (the Lemma 4 bound's subject)."""
        return max((len(c) for c in self._clusters.values()), default=0)

    def max_bunch_size(self) -> int:
        """Largest bunch."""
        return max((len(b) for b in self._bunches), default=0)

    def cluster_tree(self, w: int) -> RootedTree:
        """Shortest-path tree rooted at ``w`` spanning ``C_A(w)`` (cached).

        Clusters are shortest-path closed toward ``w``: for ``v ∈ C_A(w)``
        and ``x`` on a shortest ``w``–``v`` path,
        ``d(x, A) >= d(v, A) - d(v, x) > d(v, w) - d(v, x) = d(x, w)``,
        so ``x ∈ C_A(w)`` and the tree is well defined.  Its parents come
        from the scan's own distances (:func:`cluster_parents`).
        """
        if w not in self._trees:
            members = self.cluster(w)
            if not members:
                raise ValueError(f"cluster of {w} is empty (w is a landmark)")
            parent = cluster_parents(
                self.metric.graph, w, members, self.cluster_distances(w)
            )
            self._trees[w] = RootedTree(parent)
        return self._trees[w]

    def validate(self) -> None:
        """Check the structure against the metric (used by tests).

        * each cluster and its distances are exactly ``{v : d(w, v) <
          d(v, A)}`` and ``d(w, v)`` on ``w``'s row (:meth:`MetricView.d`),
        * the bunches are the clusters transposed, sorted by id.
        """
        bunches: List[List[int]] = [[] for _ in range(self.n)]
        for w in range(self.n):
            row = self.metric.row(w)
            expect = np.flatnonzero(row < self._d_to_a).tolist()
            if self.cluster(w) != expect:
                raise AssertionError(f"cluster of {w} is not C_A({w})")
            if self.cluster_distances(w) != row[expect].tolist():
                raise AssertionError(f"cluster distances of {w} drifted")
            for v in expect:
                bunches[v].append(w)
        if bunches != self._bunches:
            raise AssertionError("bunch/cluster transposition broken")
