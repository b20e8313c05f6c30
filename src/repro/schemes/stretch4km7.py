"""Theorem 16: (4k-7+eps)-stretch routing for weighted graphs.

Improves the Thorup–Zwick (4k-5) scheme by two stretch units at the same
``Õ(n^{1/k})`` table size (times ``log D / eps``).  The idea: the expensive
TZ case is ``i = k-1`` (delivery through the topmost pivot); Theorem 16
replaces it by Lemma 8 — instead of paying ``2 d(u, p_{k-1}(v))`` the
message rides a ``(1+eps')``-stretch path to the *level-(k-2)* pivot, whose
tree then delivers.

Construction = the full TZ (4k-5) structure (hierarchy, cluster trees,
own-cluster labels) plus:

* balls ``B(u, q̃)`` (``q = n^{1/k}``) with first-edge ports,
* a Lemma 6 coloring with ``q`` colors inducing ``U``,
* an arbitrary balanced partition ``W`` of ``A_{k-2}`` into ``q`` parts,
* Technique 2 from ``U_i`` into ``W_i``,
* a per-color ball representative at every vertex.

The label is the TZ label plus ``α(p_{k-2}(v))`` — the index of the part
holding ``v``'s level-(k-2) pivot.

Routing ``u -> v``: ball hit → exact; own cluster → exact; smallest
``i <= k-2`` with ``u ∈ C(p_i(v))`` → TZ tree (``<= (4k-9) d``); otherwise
color representative → Lemma 8 to ``p_{k-2}(v)`` → tree
(``<= (4k-7+eps) d``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.technique2 import Technique2
from ..graph.core import Graph
from ..graph.metric import MetricView
from ..routing.model import Deliver, Forward, RouteAction
from ..routing.ports import PortAssignment
from ..routing.tree_routing import TreeRouting, tree_step
from ..structures.coloring import color_classes
from .base import SchemeBase

__all__ = ["Stretch4kMinus7Scheme"]


class Stretch4kMinus7Scheme(SchemeBase):
    """Theorem 16: labeled (4k-7+eps)-stretch, ``Õ(n^{1/k} log D/eps)`` tables."""

    def stretch_bound(self) -> float:
        return 4.0 * self.k - 7.0 + self.eps

    def __init__(
        self,
        graph: Graph,
        k: int = 4,
        eps: float = 1.0,
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
        if k < 3:
            raise ValueError(f"Theorem 16 needs k >= 3, got {k}")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.k = k
        self.eps = eps
        self.name = f"Thm 16 4k-7+eps (k={k})"
        n = graph.n
        self.q = q if q is not None else max(1, round(n ** (1.0 / k)))

        self.hierarchy = self._substrate.hierarchy(k, seed)

        # --- TZ (4k-5) substrate -------------------------------------
        self._trees: Dict[int, TreeRouting] = {}
        for w in graph.vertices():
            members = self.hierarchy.cluster(w)
            if not members:
                continue
            tree = self._substrate.tree_routing(
                w, members, lambda w=w: self.hierarchy.cluster_tree(w)
            )
            self._trees[w] = tree
            for v in members:
                self._tables[v].put("tztree", w, tree.record_of(v))
        level1 = set(self.hierarchy.level(1))
        for u in graph.vertices():
            if u in level1 or u not in self._trees:
                continue
            tree = self._trees[u]
            for v in self.hierarchy.cluster(u):
                self._tables[u].put("c0label", v, tree.label_of(v))

        # --- Theorem 16 additions ------------------------------------
        self.family = self._build_balls(self.q, alpha)
        self._install_ball_ports(self.family)

        self.colors = self._substrate.coloring(self.family.ell, self.q, seed)
        classes = color_classes(self.colors, self.q)

        ak2 = self.hierarchy.level(k - 2)
        self._target_class: Dict[int, int] = {}
        target_parts: List[List[int]] = [[] for _ in range(self.q)]
        per_part = -(-len(ak2) // self.q)  # ceil
        for i, w in enumerate(ak2):
            part = min(i // per_part, self.q - 1)
            target_parts[part].append(w)
            self._target_class[w] = part

        # eps' such that the total comes out at (4k-7+eps): the Lemma 8 leg
        # is at most (2k-3) d long, so eps' = eps / (2k-3).
        self.technique = Technique2(
            self.metric,
            self.family,
            self.ports,
            classes,
            target_parts,
            eps / (2.0 * k - 3.0),
            validate_hitting=False,
        )
        for table in self._tables:
            self.technique.install(table)

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
            entries = []
            for i in range(self.k):
                p = self.hierarchy.pivot(i, v)
                entries.append((p, self._trees[p].label_of(v)))
            pk2 = self.hierarchy.pivot(k - 2, v)
            self._labels[v] = (v, tuple(entries), self._target_class[pk2])

    # ------------------------------------------------------------------
    def shard_categories(self) -> frozenset:
        """TZ trees + own-cluster labels, ball ports, reps, Lemma 8."""
        return frozenset(
            {"ball", "tztree", "c0label", "colorrep",
             self.technique.cat_seq}
        )

    def routing_params(self) -> dict:
        return {"k": self.k, "eps": self.eps, "q": self.q}

    def _restore_routing(self, params: dict) -> None:
        self.k = params["k"]
        self.eps = params["eps"]
        self.q = params.get("q")
        self.name = f"Thm 16 4k-7+eps (k={self.k})"
        self.technique = Technique2.stepper(self.ports)

    # ------------------------------------------------------------------
    def step(self, u: int, header: Any, dest_label: Any) -> RouteAction:
        v, entries, v_part = dest_label
        if u == v:
            return Deliver()
        table = self.table_of(u)

        if header is None:
            ball_port = table.get("ball", v)
            if ball_port is not None:
                return Forward(ball_port, ("ball",))
            own = table.get("c0label", v)
            if own is not None:
                return self._tree_forward(table, u, ("tree", u, own), v)
            for i in range(self.k - 1):
                p, tlabel = entries[i]
                if table.has("tztree", p):
                    return self._tree_forward(table, u, ("tree", p, tlabel), v)
            # i = k-1 case: color representative + Lemma 8 to p_{k-2}(v).
            rep = table.get("colorrep", v_part)
            pk2 = entries[self.k - 2][0]
            if rep == u:
                return self._start_t2(table, u, pk2, entries, v)
            return Forward(table.get("ball", rep), ("torep", rep))

        tag = header[0]
        if tag == "ball":
            return Forward(table.get("ball", v), header)
        if tag == "torep":
            rep = header[1]
            pk2 = entries[self.k - 2][0]
            if u == rep:
                return self._start_t2(table, u, pk2, entries, v)
            return Forward(table.get("ball", rep), header)
        if tag == "t2":
            pk2, tlabel = entries[self.k - 2]
            port, t2h = self.technique.step(table, u, header[1], pk2)
            if port is not None:
                return Forward(port, ("t2", t2h))
            # Arrived at p_{k-2}(v): deliver on its cluster tree.
            return self._tree_forward(table, u, ("tree", pk2, tlabel), v)
        if tag == "tree":
            return self._tree_forward(table, u, header, v)
        raise ValueError(f"unknown header tag {tag!r}")

    # ------------------------------------------------------------------
    def _start_t2(self, table, u: int, pk2: int, entries, v: int) -> RouteAction:
        if u == pk2:
            tlabel = entries[self.k - 2][1]
            return self._tree_forward(table, u, ("tree", pk2, tlabel), v)
        t2h = self.technique.start(table, u, pk2)
        port, t2h = self.technique.step(table, u, t2h, pk2)
        return Forward(port, ("t2", t2h))

    def _tree_forward(self, table, u: int, header, v: int) -> RouteAction:
        root, tlabel = header[1], header[2]
        record = table.get("tztree", root)
        if record is None:
            raise RuntimeError(f"{u} lacks a tztree record for {root}")
        port = tree_step(record, tlabel)
        if port is None:
            if u != v:
                raise RuntimeError(f"tree delivery at {u} but target is {v}")
            return Deliver()
        return Forward(port, header)
