"""The Thorup–Zwick (4k-5)-stretch compact routing scheme (SPAA'01, [21]).

The baseline the paper improves on, and the substrate of Theorem 16.  With
``k=2`` it is the classic 3-stretch / ``Õ(sqrt n)``-table scheme and with
``k=3`` the 7-stretch / ``Õ(n^{1/3})``-table scheme of Table 1.

Construction:

* a sampled hierarchy ``V = A_0 ⊇ A_1 ⊇ .. ⊇ A_{k-1}``, ``A_k = ∅``;
  ``A_1`` is drawn with Lemma 4 so every level-0 cluster has ``O(n^{1/k})``
  vertices (this is the −2 of ``4k-3 → 4k-5``), deeper levels subsample
  with probability ``n^{-1/k}``,
* pivots ``p_i(v)`` = closest vertex of ``A_i``, with the standard collapse
  rule ``p_i(v) = p_{i+1}(v)`` when ``d(v, A_i) = d(v, A_{i+1})`` so that
  ``v ∈ C(p_i(v))`` always holds,
* bunches ``B(v) = ∪_i {w ∈ A_i \\ A_{i+1} : d(v,w) < d(v, A_{i+1})}``;
  every ``v`` keeps a tree-routing record of ``T(w)`` for each
  ``w ∈ B(v)`` (equivalently: for every cluster containing ``v``),
* every ``u ∉ A_1`` keeps the tree labels of its own cluster's members.

The label of ``v`` lists ``(p_i(v), tree-label of v in T(p_i(v)))`` for
``i = 0..k-1``.  Routing: deliver inside the own cluster when possible,
otherwise ride ``T(p_i(v))`` for the smallest ``i`` whose tree contains the
current vertex.  Stretch ``4k-5``.
"""

from __future__ import annotations

from typing import Any, Optional


from ..graph.core import Graph
from ..graph.metric import MetricView
from ..routing.model import Deliver, Forward, RouteAction
from ..routing.ports import PortAssignment
from ..routing.tree_routing import tree_step
from .hierarchy import SampledHierarchy
from ..schemes.base import SchemeBase

__all__ = ["ThorupZwickScheme"]


class ThorupZwickScheme(SchemeBase):
    """The (4k-5)-stretch labeled routing scheme of Thorup and Zwick."""

    def stretch_bound(self) -> float:
        return 4.0 * self.k - 5.0 if self.k >= 2 else 1.0

    def __init__(
        self,
        graph: Graph,
        k: int = 3,
        *,
        seed: int = 0,
        ports: Optional[PortAssignment] = None,
        metric: Optional[MetricView] = None,
        hierarchy: Optional[SampledHierarchy] = None,
        substrate: Optional[Any] = None,
    ) -> None:
        super().__init__(
            graph, ports=ports, metric=metric, substrate=substrate
        )
        if k < 2:
            raise ValueError(f"Thorup-Zwick needs k >= 2, got {k}")
        self.k = k
        self.name = f"TZ 4k-5 (k={k})"
        self.hierarchy = (
            hierarchy
            if hierarchy is not None
            else self._substrate.hierarchy(k, seed)
        )

        # Trees T(w) over clusters; labels also go into destination
        # labels.  The own-cluster labels at u ∉ A_1 are the 4k-5
        # refinement.
        for v, entries in enumerate(self._install_tz_trees(self.hierarchy, k)):
            self._labels[v] = (v, entries)

    # ------------------------------------------------------------------
    def shard_categories(self) -> frozenset:
        """Pivot-tree records plus own-cluster member labels."""
        return frozenset({"tztree", "c0label"})

    def routing_params(self) -> dict:
        return {"k": self.k}

    def _restore_routing(self, params: dict) -> None:
        self.k = params["k"]
        self.name = f"TZ 4k-5 (k={self.k})"

    # ------------------------------------------------------------------
    def step(self, u: int, header: Any, dest_label: Any) -> RouteAction:
        v, entries = dest_label
        if u == v:
            return Deliver()
        table = self.table_of(u)
        if header is None:
            own = table.get("c0label", v)
            if own is not None:
                header = ("tree", u, own)
            else:
                for p, tlabel in entries:
                    if table.has("tztree", p):
                        header = ("tree", p, tlabel)
                        break
                else:
                    raise RuntimeError(
                        f"no pivot tree of {v} contains {u}; "
                        "hierarchy invariant broken"
                    )
        root, tlabel = header[1], header[2]
        record = table.get("tztree", root)
        if record is None:
            raise RuntimeError(f"{u} lacks a record for tree {root}")
        port = tree_step(record, tlabel)
        if port is None:
            if u != v:
                raise RuntimeError(f"tree delivery at {u} but target is {v}")
            return Deliver()
        return Forward(port, header)
