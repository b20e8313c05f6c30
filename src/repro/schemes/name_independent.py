"""Name-independent (3+eps)-stretch routing (Section 4 remark).

The paper notes that Technique 1 plus the hash-based coloring of Abraham et
al. yields a *name-independent* scheme: the sender knows only the
destination's name ``v`` (no preprocessing-assigned label).  Everything the
warm-up scheme read from the label is recomputed locally:

* the color ``c(v) = hash(v; seed) mod q`` is a seeded hash of the name —
  every vertex stores the (single-word) seed and evaluates it locally,
* the Lemma 7 sequence and any tree label for ``v`` are stored at the
  *routing-side* vertices (the color class of ``v``), never at the sender.

Tables stay ``Õ(sqrt(n)/eps)``; the label is literally the vertex name.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from ..core.technique1 import Technique1
from ..graph.core import Graph
from ..graph.metric import MetricView
from ..routing.model import Deliver, Forward, RouteAction
from ..routing.ports import PortAssignment
from ..structures.coloring import color_classes, hash_color
from .base import SchemeBase

__all__ = ["NameIndependent3Eps"]


class NameIndependent3Eps(SchemeBase):
    """Name-independent (3+eps)-stretch scheme with ``Õ(sqrt n/eps)`` tables."""

    name = "name-independent 3+eps"

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

        self.hash_seed, self.colors = self._substrate.hash_coloring(
            self.family.ell, self.q, seed
        )
        classes = color_classes(self.colors, self.q)

        self.technique = Technique1(
            self.metric, self.family, self.ports, classes, eps / 2.0,
            hitting=self._substrate.hitting_set(self.family.ell),
            tree_factory=self._global_tree_routing,
            seed=seed,
        )
        for table in self._tables:
            self.technique.install(table)
            # The hash seed and color count are O(1) global constants each
            # vertex carries so it can evaluate c(name) locally.
            table.put("const", "hash_seed", self.hash_seed)
            table.put("const", "q", self.q)

        for u in graph.vertices():
            table = self._tables[u]
            needed = set(range(self.q))
            for w in self.family.ball(u):
                c = self.colors[w]
                if c in needed:
                    table.put("colorrep", c, w)
                    needed.discard(c)
            if needed:
                raise RuntimeError(
                    f"B({u}) misses colors {sorted(needed)} despite Lemma 6"
                )

        for v in graph.vertices():
            self._labels[v] = v  # the name itself — nothing else

    # ------------------------------------------------------------------
    def shard_categories(self) -> frozenset:
        """As the warm-up, plus the ``const`` hash-seed words."""
        return frozenset(
            {"ball", "colorrep", "const",
             self.technique.cat_seq, self.technique.cat_htree}
        )

    def routing_params(self) -> dict:
        return {"eps": self.eps, "q": self.q}

    def _restore_routing(self, params: dict) -> None:
        self.eps = params["eps"]
        self.q = params.get("q")
        # The hash seed and color count travel inside the tables (category
        # "const"), exactly as a deployed node would carry them.
        self.technique = Technique1.stepper(self.ports)

    # ------------------------------------------------------------------
    def step(self, u: int, header: Any, dest_label: Any) -> RouteAction:
        v = dest_label
        if u == v:
            return Deliver()
        table = self.table_of(u)
        if header is None:
            ball_port = table.get("ball", v)
            if ball_port is not None:
                return Forward(ball_port, ("ball",))
            v_color = hash_color(
                v, table.get("const", "q"), table.get("const", "hash_seed")
            )
            rep = table.get("colorrep", v_color)
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
