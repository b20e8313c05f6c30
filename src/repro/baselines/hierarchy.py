"""The sampled landmark hierarchy of Thorup–Zwick compact routing.

``V = A_0 ⊇ A_1 ⊇ ... ⊇ A_{k-1}``, ``A_k = ∅``.  ``A_1`` is drawn with
Lemma 4 (cluster-bounded sampling) so level-0 clusters have ``O(n^{1/k})``
vertices; each deeper level subsamples the previous one with probability
``n^{-1/k}``.  The chain is resampled until ``A_{k-1}`` is nonempty.

Pivots use the standard *collapse rule*: scanning levels downward,
``p_i(v) = p_{i+1}(v)`` whenever ``d(v, A_i) = d(v, A_{i+1})``.  This
guarantees ``v ∈ C(p_i(v))`` for every level (each effective pivot is
strictly closer than the next level, hence inside the strict cluster
inequality), which the routing labels rely on.

Every vertex ``w`` lives at level ``level_of(w) = max {i : w ∈ A_i}`` and
owns the cluster ``C(w) = {v : d(v, w) < d(v, A_{level_of(w)+1})}`` (with
``d(·, A_k) = ∞``).  Bunches are the transposes: ``w ∈ B(v)`` iff
``v ∈ C(w)``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

import numpy as np

from ..graph.metric import MetricView
from ..graph.trees import RootedTree, cluster_parents
from ..structures.sampling import sample_cluster_bounded

__all__ = ["SampledHierarchy"]

_INF = float("inf")


class SampledHierarchy:
    """Thorup–Zwick ``k``-level landmark hierarchy with pivots and clusters."""

    def __init__(
        self,
        metric: MetricView,
        k: int,
        *,
        seed: int = 0,
        use_lemma4_level1: bool = True,
        max_tries: int = 64,
    ) -> None:
        if k < 2:
            raise ValueError(f"hierarchy needs k >= 2 levels, got {k}")
        self.metric = metric
        self.k = k
        n = metric.n
        p = n ** (-1.0 / k) if n > 1 else 0.5

        levels: Optional[List[List[int]]] = None
        for attempt in range(max_tries):
            rng = random.Random(seed + 104729 * attempt)
            candidate: List[List[int]] = [list(range(n))]
            if use_lemma4_level1:
                a1 = sample_cluster_bounded(
                    metric, n ** (1.0 - 1.0 / k), seed=seed + attempt
                )
            else:
                a1 = [v for v in range(n) if rng.random() < p]
            candidate.append(sorted(a1))
            for _ in range(2, k):
                prev = candidate[-1]
                candidate.append(sorted(w for w in prev if rng.random() < p))
            if candidate[k - 1]:
                levels = candidate
                break
        if levels is None:
            # Tiny graphs: the whp guarantee does not kick in, so force a
            # nonempty chain by promoting one vertex per empty level.  All
            # invariants (subset chain, pivots, clusters) are preserved.
            rng = random.Random(seed)
            levels = [list(range(n))]
            for i in range(1, k):
                prev = levels[-1]
                sampled = sorted(w for w in prev if rng.random() < p)
                if not sampled:
                    sampled = [rng.choice(prev)]
                levels.append(sampled)
        self._levels = levels

        # d(v, A_i) arrays; A_k = empty -> inf.  Level columns come from
        # the metric's row-oriented API: O(|A_i| * n) memory per level
        # (A_0 = V still costs O(n) rows, but they stream through the
        # row blocks instead of pinning a matrix).
        self._level_dist: List[np.ndarray] = []
        self._level_pivot: List[np.ndarray] = []
        for i in range(k):
            members = levels[i]
            if len(members) == n:
                # A_0 = V: d(v, A_0) = 0 with pivot v (weights are
                # positive), no distance columns needed.
                self._level_dist.append(np.zeros(n))
                self._level_pivot.append(np.arange(n, dtype=np.int64))
                continue
            sub = metric.columns(members)
            arg = np.argmin(sub, axis=1)
            self._level_dist.append(sub[np.arange(n), arg])
            self._level_pivot.append(
                np.asarray(members, dtype=np.int64)[arg]
            )
        self._level_dist.append(np.full(n, _INF))

        # Collapse rule, top-down.
        for i in range(k - 2, -1, -1):
            same = self._level_dist[i] == self._level_dist[i + 1]
            self._level_pivot[i] = np.where(
                same, self._level_pivot[i + 1], self._level_pivot[i]
            )

        # level_of(w): deepest level containing w.
        self._level_of = np.zeros(n, dtype=np.int64)
        for i in range(1, k):
            self._level_of[levels[i]] = i

        # Clusters: one threshold scan per owner level i with
        # d(·, A_{i+1}) settles exactly each owner's cluster (top-level
        # owners get inf and sweep their component); the distances give
        # the cluster trees.
        clusters: Dict[int, List[int]] = {}
        self._cluster_dists: Dict[int, List[float]] = {}
        for i in range(k):
            owners = np.flatnonzero(self._level_of == i).tolist()
            scan = metric.iter_bounded_rows(self._level_dist[i + 1], owners)
            for w, verts, dists in scan:
                if verts.size:
                    clusters[w] = verts.tolist()
                    self._cluster_dists[w] = dists.tolist()
        self._clusters = dict(sorted(clusters.items()))
        self._bunches: List[List[int]] = [[] for _ in range(n)]
        for w, members in self._clusters.items():
            for v in members:
                self._bunches[v].append(w)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.metric.n

    def level(self, i: int) -> List[int]:
        """``A_i`` (empty for ``i >= k``)."""
        return self._levels[i] if i < self.k else []

    def level_of(self, w: int) -> int:
        """The deepest level containing ``w``."""
        return int(self._level_of[w])

    def pivot(self, i: int, v: int) -> int:
        """``p_i(v)`` after the collapse rule."""
        return int(self._level_pivot[i][v])

    def pivot_distance(self, i: int, v: int) -> float:
        """``d(v, A_i)``."""
        return float(self._level_dist[i][v])

    def cluster(self, w: int) -> List[int]:
        """``C(w)`` sorted by vertex id (may be empty)."""
        return self._clusters.get(w, [])

    def clusters(self):
        """``(w, C(w))`` pairs for every *nonempty* cluster, ``w`` ascending."""
        return self._clusters.items()

    def cluster_tree(self, w: int) -> RootedTree:
        """Shortest-path tree rooted at ``w`` spanning ``C(w)`` (never
        empty: ``w`` is not in ``A_{level_of(w)+1}``), from the cluster
        scan's distances (:func:`cluster_parents`, no row read)."""
        return RootedTree(
            cluster_parents(
                self.metric.graph, w, self._clusters[w],
                self._cluster_dists[w],
            )
        )

    def bunch(self, v: int) -> List[int]:
        """``B(v)`` sorted by vertex id."""
        return self._bunches[v]

    def in_cluster(self, w: int, v: int) -> bool:
        """Whether ``v ∈ C(w)``."""
        next_dist = self._level_dist[self.level_of(w) + 1]
        return bool(self.metric.d(w, v) < next_dist[v])

    def max_bunch_size(self) -> int:
        return max((len(b) for b in self._bunches), default=0)

    def validate(self) -> None:
        """Check the invariants routing relies on (used by tests).

        * monotone levels,
        * ``v ∈ C(p_i(v))`` for every ``v`` and ``i`` (collapse rule),
        * bunch/cluster transposition.
        """
        for i in range(1, self.k):
            if not set(self._levels[i]) <= set(self._levels[i - 1]):
                raise AssertionError(f"A_{i} is not a subset of A_{i-1}")
        for v in range(self.n):
            for i in range(self.k):
                p = self.pivot(i, v)
                if not self.in_cluster(p, v):
                    raise AssertionError(
                        f"vertex {v} outside C(p_{i}(v)={p}); collapse broken"
                    )
        for v in range(self.n):
            for w in self._bunches[v]:
                if v not in self._clusters.get(w, []):
                    raise AssertionError("bunch/cluster transposition broken")
