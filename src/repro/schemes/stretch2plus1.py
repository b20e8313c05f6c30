"""Theorem 10: (2+eps, 1)-stretch routing for unweighted graphs.

Space ``Õ(n^{2/3}/eps)`` per vertex — almost matching the Pătraşcu–Roditty
``(2,1)`` distance oracle with ``Õ(n^{5/3})`` *total* space.

Construction (``q = n^{1/3}``):

* balls ``B(u, q̃)`` with first-edge ports,
* Lemma 4 landmark set ``A`` (size ``Õ(n^{2/3})``, clusters ``O(n^{1/3})``),
* per-cluster shortest-path trees ``T_{C_A(w)}`` — members keep a tree
  record, the owner ``w`` keeps each member's tree label,
* global shortest-path trees ``T(w)`` for every landmark ``w ∈ A`` — every
  vertex keeps a record for each,
* an intersection table at ``u``: for each ``v`` with
  ``B(u, q̃) ∩ B_A(v) ≠ ∅``, the best common vertex
  ``w = argmin d(u,w') + d(w',v)``,
* a Lemma 6 coloring with ``q`` colors and Technique 1 over its classes
  (sizes ``Õ(n^{2/3})``), plus a per-color ball representative with its
  distance.

Routing ``u -> v`` (paper's case analysis):

1. intersection stored for ``v``: ball-route to ``w``, finish on the
   cluster tree ``T_{C_A(w)}`` (exact shortest path — the paper proves
   ``w`` lies on one),
2. otherwise compare ``d(v, p_A(v))`` (from ``v``'s label) with
   ``d(u, w)`` to the color representative ``w``:
   ``d(v,p_A(v)) <= d(u,w)`` → ride the global tree ``T(p_A(v))``
   (length ``<= 2d+1``); else hop to ``w`` and use Lemma 7 inside the
   color class (length ``<= (2+eps) d``).

The label of ``v`` is ``(v, c(v), p_A(v), d(v, p_A(v)), tree-label)``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.technique1 import Technique1
from ..graph.core import Graph
from ..graph.metric import MetricView
from ..routing.model import Deliver, Forward, RouteAction
from ..routing.ports import PortAssignment
from ..routing.tree_routing import TreeRouting, tree_step
from ..structures.coloring import color_classes, color_reps
from .base import SchemeBase

__all__ = ["Stretch2Plus1Scheme"]


class Stretch2Plus1Scheme(SchemeBase):
    """Theorem 10: labeled (2+eps, 1)-stretch, ``Õ(n^{2/3}/eps)`` tables."""

    name = "Thm 10 (2+eps,1)"

    def stretch_bound(self) -> tuple[float, float]:
        """``(alpha, beta)`` of the guaranteed ``alpha*d + beta`` bound."""
        return (2.0 + self.eps, 1.0)

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
        if not graph.is_unweighted():
            raise ValueError("Theorem 10 is stated for unweighted graphs")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.eps = eps
        n = graph.n
        self.q = q if q is not None else max(1, round(n ** (1.0 / 3.0)))

        self.family = self._build_balls(self.q, alpha)
        ball_ports = self._substrate.ball_tables(self.family.ell)

        # Lemma 4: |C_A(w)| <= 4 n / s with s = n/q  ->  clusters O(q^1·...)
        self.landmarks = self._substrate.landmark_sample(n / self.q, seed)
        if not self.landmarks:
            self.landmarks = [0]
        self.bunches = self._substrate.bunch_structure(self.landmarks)
        # eps-independent, memoized on the substrate; the sweep's colour
        # entries read it.
        self.colors = self._substrate.coloring(self.family.ell, self.q, seed)

        # Technique 1 over the color classes.  The hitting set and the
        # global hub trees are eps-independent, memoized on the substrate;
        # the trees are built at install, after the sweep.
        self.technique = Technique1(
            self.metric, self.family, self.ports,
            color_classes(self.colors, self.q), eps / 2.0,
            hitting=self._substrate.hitting_set(self.family.ell),
            tree_factory=self._substrate.tree_routing,
            seed=seed,
        )

        # One sweep over the distance rows, class by class, so that each
        # class's Lemma 7 walks run right after it while its rows and hop
        # columns are cached.  With u's row and hop column in hand: the
        # ball ports toward u, and u's own intersection and
        # color-representative entries, which both read d(u, w) for
        # w in B(u).  Installation below keeps the vertex order.
        xsect: List[Dict[int, int]] = [{} for _ in range(n)]
        reps: List[Dict[int, tuple]] = [{} for _ in range(n)]
        for u, row, col in self.technique.sweep():
            ball_ports.fill_target(u, col)
            ball = self.family.ball(u)
            d_ball = row[ball].tolist()
            # Intersection table: best common vertex of B(u, q̃) and B_A(v).
            best: Dict[int, tuple[float, int]] = {}
            for w, through in zip(ball, d_ball):
                for v, d_wv in zip(
                    self.bunches.cluster(w),
                    self.bunches.cluster_distances(w),
                ):
                    cand = (through + d_wv, w)
                    if v not in best or cand < best[v]:
                        best[v] = cand
            xsect[u] = {v: w for v, (_, w) in best.items()}
            reps[u] = {
                c: (w, int(round(row[w])))
                for c, w in color_reps(ball, self.colors, self.q).items()
            }

        self._install_ball_ports(self.family, ball_ports)
        # Cluster trees: records at members, member labels at the owner.
        self._install_cluster_trees(self.bunches)

        # Global landmark trees: every vertex stores a record per landmark.
        landmark_trees: Dict[int, TreeRouting] = dict(zip(
            self.landmarks, self._substrate.tree_routing(self.landmarks)
        ))
        for v, table in enumerate(self._tables):
            table.put_many("atree", {
                w: tree.record_of(v) for w, tree in landmark_trees.items()
            })

        for table, entries in zip(self._tables, xsect):
            table.put_many("xsect", entries)

        for table in self._tables:
            self.technique.install(table)

        # Per-color ball representative with its distance.
        for table, entries in zip(self._tables, reps):
            table.put_many("colorrep", entries)

        for v in graph.vertices():
            p = self.bunches.pivot(v)
            self._labels[v] = (
                v,
                self.colors[v],
                p,
                int(round(self.bunches.distance_to_landmarks(v))),
                landmark_trees[p].label_of(v),
            )

    # ------------------------------------------------------------------
    def shard_categories(self) -> frozenset:
        """Ball ports, intersections, both tree families, Lemma 7 state."""
        return frozenset(
            {"ball", "xsect", "ctree", "clabel", "atree", "colorrep",
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
        v, v_color, v_pivot, v_pivot_dist, v_pivot_tlabel = dest_label
        if u == v:
            return Deliver()
        table = self.table_of(u)

        if header is None:
            ball_port = table.get("ball", v)
            if ball_port is not None:
                return Forward(ball_port, ("ball",))
            w = table.get("xsect", v)
            if w is not None:
                if w == u:
                    return self._enter_cluster_tree(table, u, w, v)
                return Forward(table.get("ball", w), ("tox", w))
            rep, rep_dist = table.get("colorrep", v_color)
            if v_pivot_dist <= rep_dist:
                header = ("atree", v_pivot, v_pivot_tlabel)
                return self._tree_forward(table, "atree", u, header, v)
            if rep == u:
                t1h = self.technique.start(table, u, v)
                port, t1h = self.technique.step(table, u, t1h, v)
                return Forward(port, ("t1", t1h))
            return Forward(table.get("ball", rep), ("torep", rep))

        tag = header[0]
        if tag == "ball":
            return Forward(table.get("ball", v), header)
        if tag == "tox":
            w = header[1]
            if u == w:
                return self._enter_cluster_tree(table, u, w, v)
            return Forward(table.get("ball", w), header)
        if tag == "ctree":
            return self._tree_forward(table, "ctree", u, header, v)
        if tag == "atree":
            return self._tree_forward(table, "atree", u, header, v)
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

    # ------------------------------------------------------------------
    def _enter_cluster_tree(self, table, u: int, w: int, v: int) -> RouteAction:
        """At the intersection vertex ``w``: fetch ``v``'s cluster-tree label."""
        tlabel = table.get("clabel", v)
        if tlabel is None:
            raise RuntimeError(
                f"{u} stores no cluster label for {v}; intersection broken"
            )
        header = ("ctree", w, tlabel)
        return self._tree_forward(table, "ctree", u, header, v)

    def _tree_forward(self, table, category: str, u: int, header, v: int) -> RouteAction:
        root, tlabel = header[1], header[2]
        record = table.get(category, root)
        if record is None:
            raise RuntimeError(f"{u} lacks a {category} record for {root}")
        port = tree_step(record, tlabel)
        if port is None:
            if u != v:
                raise RuntimeError(f"tree delivery at {u} but target is {v}")
            return Deliver()
        return Forward(port, header)
