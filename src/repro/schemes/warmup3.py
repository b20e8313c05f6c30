"""The (3+eps)-stretch warm-up scheme (Section 4, first application).

Construction (``q = sqrt(n)``):

* every vertex stores its ball ``B(u, q̃)`` (first-edge ports),
* a Lemma 6 coloring with ``q`` colors over the balls induces the balanced
  partition ``U`` of color classes, each of size ``Õ(sqrt n)``,
* Technique 1 (Lemma 7) is built over ``U`` with ``eps/2``,
* every vertex remembers, per color, one ball member of that color.

Routing ``u -> v``: deliver from the ball when ``v ∈ B(u, q̃)``; otherwise
hop to the ball-local representative ``w`` with ``c(w) = c(v)`` (at most
``d(u, v)``away, since ``v`` is outside the ball) and route ``w -> v``
inside the color class via Lemma 7.  Total:
``d(u,w) + (1+eps/2) d(w,v) <= (3+eps) d(u,v)``.

The label of ``v`` is ``(v, c(v))`` — 2 words.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional

from ..core.technique1 import Technique1
from ..graph.core import Graph
from ..graph.metric import MetricView
from ..routing.model import Deliver, Forward, RouteAction, SizedTable
from ..routing.ports import PortAssignment
from ..structures.coloring import color_classes, color_reps
from .base import SchemeBase

__all__ = ["Warmup3Scheme"]


class Warmup3Scheme(SchemeBase):
    """Labeled (3+eps)-stretch scheme with ``Õ(sqrt(n)/eps)`` tables."""

    name = "warm-up 3+eps (Sec. 4)"
    #: multiplicative stretch guarantee (additive 0)
    def stretch_bound(self) -> float:
        return 3.0 + self.eps

    def __init__(
        self,
        graph: Graph,
        eps: float = 0.5,
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
        self.q = q if q is not None else max(1, round(math.sqrt(n)))

        self.family = self._build_balls(self.q, alpha)
        self._install_ball_ports(self.family)

        self.colors = self._coloring(seed)
        classes = color_classes(self.colors, self.q)

        self.technique = Technique1(
            self.metric,
            self.family,
            self.ports,
            classes,
            eps / 2.0,
            hitting=self._substrate.hitting_set(self.family.ell),
            tree_factory=self._substrate.tree_routing,
            seed=seed,
        )
        for table in self._tables:
            self.technique.install(table)
            self._install_consts(table)

        # Per-color ball representative (Lemma 6 guarantees existence).
        for u, table in enumerate(self._tables):
            table.put_many("colorrep", color_reps(
                self.family.ball(u), self.colors, self.q
            ))

        for v in graph.vertices():
            self._labels[v] = self._label(v)

    # Hooks the name-independent variant overrides -----------------------
    def _coloring(self, seed: int) -> List[int]:
        """The Lemma 6 coloring of the balls."""
        return self._substrate.coloring(self.family.ell, self.q, seed)

    def _install_consts(self, table: SizedTable) -> None:
        """Per-vertex constants beyond the technique's (none here)."""

    def _label(self, v: int) -> Any:
        """``v``'s label: ``(v, c(v))``."""
        return (v, self.colors[v])

    @staticmethod
    def _name(label: Any) -> int:
        """The target ``v`` named by ``label``."""
        return label[0]

    def _color_of(self, table: SizedTable, label: Any) -> int:
        """``c(v)``, which the label carries."""
        return label[1]

    # ------------------------------------------------------------------
    def shard_categories(self) -> frozenset:
        """Categories ``step`` reads: ball ports, color reps, Lemma 7."""
        return frozenset(
            {"ball", "colorrep",
             self.technique.cat_seq, self.technique.cat_htree}
        )

    def routing_params(self) -> dict:
        return {"eps": self.eps, "q": self.q}

    def _restore_routing(self, params: dict) -> None:
        self.eps = params["eps"]
        self.q = params.get("q")
        self.technique = Technique1.stepper(self.ports)

    # ------------------------------------------------------------------
    def step(self, u: int, header: Any, dest_label: Any) -> RouteAction:
        v = self._name(dest_label)
        if u == v:
            return Deliver()
        table = self.table_of(u)
        if header is None:
            ball_port = table.get("ball", v)
            if ball_port is not None:
                return Forward(ball_port, ("ball",))
            rep = table.get("colorrep", self._color_of(table, dest_label))
            if rep == u:
                t1h = self.technique.start(table, u, v)
                port, t1h = self.technique.step(table, u, t1h, v)
                return Forward(port, ("t1", t1h))
            return Forward(table.get("ball", rep), ("torep", rep))
        tag = header[0]
        if tag == "ball":
            return Forward(table.get("ball", v), header)
        if tag == "torep":
            rep = header[1]
            if u == rep:
                t1h = self.technique.start(table, u, v)
                port, t1h = self.technique.step(table, u, t1h, v)
                return Forward(port, ("t1", t1h))
            return Forward(table.get("ball", rep), header)
        if tag == "t1":
            port, t1h = self.technique.step(table, u, header[1], v)
            if port is None:
                return Deliver()
            return Forward(port, ("t1", t1h))
        raise ValueError(f"unknown header tag {tag!r}")
