"""Theorem 11: (5+eps)-stretch routing for weighted graphs.

Space ``Õ(n^{1/3} log D / eps)`` per vertex — the paper's headline result,
breaking the ``sqrt(n)`` barrier for stretch below 7 and almost matching
the 5-stretch ``Õ(n^{4/3})``-space distance oracle of Thorup–Zwick.

Construction (``q = n^{1/3}``):

* balls ``B(u, q̃)`` with first-edge ports,
* Lemma 4 landmark set ``A`` (size ``Õ(n^{2/3})``, clusters ``O(n^{1/3})``)
  with cluster trees ``T_{C_A(w)}`` (records at members, member labels at
  the owner),
* a Lemma 6 coloring with ``q`` colors inducing ``U``, an arbitrary
  balanced partition ``W`` of ``A``, and **Technique 2** (Lemma 8) routing
  from ``U_i`` into ``W_i``,
* per color, one ball representative.

Routing ``u -> v``:

1. ``v ∈ B(u, q̃)`` → ball routing (exact);
2. ``v ∈ C_A(u)`` → own cluster tree (exact);
3. otherwise hop to the ball representative ``w`` with
   ``c(w) = α(p_A(v))``, ride Lemma 8 from ``w`` to the landmark
   ``p_A(v)``, forward over the first edge ``(p_A(v), z)`` from ``v``'s
   label, and finish on the cluster tree ``T_{C_A(z)}`` (``v ∈ C_A(z)``,
   and ``z`` stores ``v``'s tree label).

Length: ``d(u,w) + (1+eps/3) d(w, p_A(v)) + d(p_A(v), v)``; with
``d(u,w) <= d(u,v)`` (``v`` outside the ball), ``d(v,p_A(v)) <= d(u,v)``
(``v`` outside ``C_A(u)``) and the triangle inequality this is at most
``(5 + eps) d(u,v)``.

The label of ``v`` is ``(v, p_A(v), α(p_A(v)), z)`` — 4 words, matching
the paper's ``O(log n)``-bit labels.
"""

from __future__ import annotations

from typing import Any, Optional

from ..core.technique2 import Technique2, balanced_parts
from ..graph.core import Graph
from ..graph.metric import MetricView
from ..routing.model import Deliver, Forward, RouteAction
from ..routing.ports import PortAssignment
from ..routing.tree_routing import tree_step
from ..structures.coloring import color_classes, color_reps
from .base import SchemeBase

__all__ = ["Stretch5PlusScheme"]


class Stretch5PlusScheme(SchemeBase):
    """Theorem 11: labeled (5+eps)-stretch, ``Õ(n^{1/3} log D/eps)`` tables."""

    name = "Thm 11 (5+eps)"

    def stretch_bound(self) -> float:
        return 5.0 + self.eps

    def __init__(
        self,
        graph: Graph,
        eps: float = 0.6,
        *,
        alpha: float = 1.0,
        q: Optional[int] = None,
        seed: int = 0,
        ports: Optional[PortAssignment] = None,
        metric: Optional[MetricView] = None,
        substrate: Optional[Any] = None,
    ) -> None:
        super().__init__(
            graph, ports=ports, metric=metric, substrate=substrate
        )
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.eps = eps
        n = graph.n
        self.q = q if q is not None else max(1, round(n ** (1.0 / 3.0)))

        self.family = self._build_balls(self.q, alpha)
        ball_ports = self._substrate.ball_tables(self.family.ell)

        self.landmarks = self._substrate.landmark_sample(n / self.q, seed)
        if not self.landmarks:
            self.landmarks = [0]
        self.bunches = self._substrate.bunch_structure(self.landmarks)

        self.colors = self._substrate.coloring(self.family.ell, self.q, seed)
        classes = color_classes(self.colors, self.q)

        # Arbitrary balanced partition W of the landmark set A.
        target_parts, self._target_class = balanced_parts(
            self.landmarks, self.q
        )

        self.technique = Technique2(
            self.metric,
            self.family,
            self.ports,
            classes,
            target_parts,
            eps / 3.0,
            validate_hitting=False,  # guaranteed by find_coloring
        )

        # One target-ordered sweep does every per-target job while the
        # target's row and hop column are in hand: the ball ports of its
        # holders, its label edge z and the Lemma 8 walks toward it.
        # Installation below keeps the table order.
        for v, _, col in self.metric.target_sweep():
            ball_ports.fill_target(v, col)
            p = self.bunches.pivot(v)
            z = None if p == v else self.metric.next_hop(p, v)
            self._labels[v] = (v, p, self._target_class[p], z)
            self.technique.walk_target(v, col)

        self._install_ball_ports(self.family, ball_ports)
        self._install_cluster_trees(self.bunches)
        for table in self._tables:
            self.technique.install(table)

        for u, table in enumerate(self._tables):
            table.put_many("colorrep", color_reps(
                self.family.ball(u), self.colors, self.q
            ))

    # ------------------------------------------------------------------
    def shard_categories(self) -> frozenset:
        """Ball ports, cluster trees + owner labels, reps, Lemma 8."""
        return frozenset(
            {"ball", "ctree", "clabel", "colorrep", self.technique.cat_seq}
        )

    def routing_params(self) -> dict:
        return {"eps": self.eps, "q": self.q}

    def _restore_routing(self, params: dict) -> None:
        self.eps = params["eps"]
        self.q = params.get("q")
        self.technique = Technique2.stepper(self.ports)

    # ------------------------------------------------------------------
    def step(self, u: int, header: Any, dest_label: Any) -> RouteAction:
        v, v_pivot, v_part, v_z = dest_label
        if u == v:
            return Deliver()
        table = self.table_of(u)

        if header is None:
            ball_port = table.get("ball", v)
            if ball_port is not None:
                return Forward(ball_port, ("ball",))
            own_label = table.get("clabel", v)
            if own_label is not None:
                # v is in u's own cluster: exact delivery on T_{C_A(u)}.
                return self._tree_forward(table, u, ("ctree", u, own_label), v)
            rep = table.get("colorrep", v_part)
            if rep == u:
                return self._start_t2(table, u, v_pivot, v, v_z)
            return Forward(table.get("ball", rep), ("torep", rep))

        tag = header[0]
        if tag == "ball":
            return Forward(table.get("ball", v), header)
        if tag == "torep":
            rep = header[1]
            if u == rep:
                return self._start_t2(table, u, v_pivot, v, v_z)
            return Forward(table.get("ball", rep), header)
        if tag == "t2":
            port, t2h = self.technique.step(table, u, header[1], v_pivot)
            if port is not None:
                return Forward(port, ("t2", t2h))
            # Arrived at the landmark p_A(v): cross the first label edge.
            return Forward(self.ports.port_to(u, v_z), ("atz",))
        if tag == "atz":
            tlabel = table.get("clabel", v)
            if tlabel is None:
                raise RuntimeError(
                    f"{u} stores no cluster label for {v}; v not in C_A(z)"
                )
            return self._tree_forward(table, u, ("ctree", u, tlabel), v)
        if tag == "ctree":
            return self._tree_forward(table, u, header, v)
        raise ValueError(f"unknown header tag {tag!r}")

    # ------------------------------------------------------------------
    def _start_t2(self, table, u: int, pivot: int, v: int, v_z) -> RouteAction:
        if u == pivot:
            # Already at the landmark; jump straight to the label edge.
            if v_z is None:
                raise RuntimeError(f"label of {v} lacks the pivot edge")
            return Forward(self.ports.port_to(u, v_z), ("atz",))
        t2h = self.technique.start(table, u, pivot)
        port, t2h = self.technique.step(table, u, t2h, pivot)
        return Forward(port, ("t2", t2h))

    def _tree_forward(self, table, u: int, header, v: int) -> RouteAction:
        root, tlabel = header[1], header[2]
        record = table.get("ctree", root)
        if record is None:
            raise RuntimeError(f"{u} lacks a cluster-tree record for {root}")
        port = tree_step(record, tlabel)
        if port is None:
            if u != v:
                raise RuntimeError(f"tree delivery at {u} but target is {v}")
            return Deliver()
        return Forward(port, header)
