"""Vertex vicinities ``B(u, ell)`` (Section 2 of the paper).

``B(u, ell)`` is the set of the ``ell`` closest vertices of ``u``, breaking
distance ties by vertex id (the paper's lexicographic rule).  With this tie
breaking, **Property 1** holds for every shortest path: if
``v in B(u, ell)`` and ``w`` lies on a shortest ``u``–``v`` path then
``v in B(w, ell)``.  Proof sketch: ``x <_w v`` implies
``d(u,x) <= d(u,w) + d(w,x) <= d(u,v)`` with ties resolving the same way,
hence ``x <_u v``; so ``v``'s rank at ``w`` is at most its rank at ``u``.
Property 1 is what makes hop-by-hop ball routing (Lemma 2) correct, and it
is re-checked by the property tests in ``tests/structures``.

:class:`BallFamily` materializes the balls of every vertex for one fixed
``ell``, together with the radii ``r_u(ell)``.
"""

from __future__ import annotations

from typing import FrozenSet, List

from ..graph.metric import MetricView

__all__ = ["BallFamily", "ball_size_parameter"]


def ball_size_parameter(n: int, q: float, alpha: float) -> int:
    """The paper's ``q̃ = alpha * q * log n`` ball-size parameter, clamped.

    ``alpha`` is the "large enough constant" of the paper; at reproduction
    scale it is an explicit knob.  The value is clamped to ``[1, n]``.
    """
    import math

    if n <= 0:
        return 0
    log_n = max(math.log2(n), 1.0)
    return max(1, min(n, int(math.ceil(alpha * q * log_n))))


class BallFamily:
    """All balls ``B(u, ell)`` of a graph for one size parameter ``ell``.

    Construction goes through :meth:`MetricView.all_balls` — in either
    metric mode one call to the batched sweep
    :func:`repro.graph.shortest_paths.all_balls` (the delta-stepping
    candidate queue on weighted graphs, the vectorized level BFS on unit
    weights), which never reads distance rows.  The balls agree exactly
    with the owning metric's own ``ball``/``row`` view, which is what
    Property 1 and the routing structures rely on.
    """

    def __init__(self, metric: MetricView, ell: int) -> None:
        if ell < 1:
            raise ValueError(f"ball size must be >= 1, got {ell}")
        self.metric = metric
        self.ell = min(ell, metric.n)
        balls, radii = metric.all_balls(self.ell, with_radii=True)
        self._balls: List[List[int]] = balls
        self._radii: List[float] = radii
        self._sets: List[FrozenSet[int]] = [frozenset(b) for b in balls]

    @property
    def n(self) -> int:
        return self.metric.n

    def ball(self, u: int) -> List[int]:
        """``B(u, ell)`` in increasing ``(distance, id)`` order."""
        return self._balls[u]

    def balls(self) -> List[List[int]]:
        """All balls, indexed by vertex (shared list — do not mutate)."""
        return self._balls

    def ball_set(self, u: int) -> FrozenSet[int]:
        """``B(u, ell)`` as a set for O(1) membership."""
        return self._sets[u]

    def contains(self, u: int, v: int) -> bool:
        """Whether ``v in B(u, ell)``."""
        return v in self._sets[u]

    def radius(self, u: int) -> float:
        """The paper's ``r_u(ell)``: the largest radius fully inside the ball."""
        return self._radii[u]

    def boundary_edge(self, u: int, v: int) -> tuple[int, int]:
        """The paper's ``(y, z)``: an edge on a shortest ``u``–``v`` path with
        ``y in B(u, ell)`` and ``z not in B(u, ell)``.

        Requires ``v not in B(u, ell)``.  Walks the deterministic shortest
        path from ``u`` until it exits the ball; Property 1 guarantees the
        prefix stays meaningful and the walk is at most ``n`` steps.
        """
        if self.contains(u, v):
            raise ValueError(f"{v} is inside B({u}); no boundary edge")
        prev = u
        cur = u
        while self.contains(u, cur):
            prev = cur
            cur = self.metric.next_hop(cur, v)
        return prev, cur
