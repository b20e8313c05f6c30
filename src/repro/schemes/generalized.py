"""Theorems 13 and 15: the generalized (3 ∓ 2/l + eps, 2)-stretch schemes.

These interpolate between the paper's small-stretch results and the
Pătraşcu–Thorup–Roditty distance oracles.  For an integer ``l > 1``:

* **Theorem 13** (minus): stretch ``(3 - 2/l + eps, 2)`` with
  ``Õ(l n^{l/(2l-1)}/eps)`` tables (``l=2`` → ``(2+eps,2)``@``n^{2/3}``,
  ``l=3`` → ``(2 1/3+eps,2)``@``n^{3/5}``),
* **Theorem 15** (plus): stretch ``(3 + 2/l + eps, 2)`` with
  ``Õ(l n^{l/(2l+1)}/eps)`` tables (``l=2`` → ``(4+eps,2)``@``n^{2/5}``).

Shared machinery (``q = n^{1/(2l∓1)}``, levels ``i = 0..l``):

* nested balls ``B_i(u) = B(u, q̃^i)`` with radii ``a_i = r_u(q̃^i)``,
* Lemma 4 landmark sets ``L_i`` with ``|C_{L_i}(w)| = O(q^i)``; per-level
  cluster trees (records at members, member labels at owners),
* per-level intersection tables: the best common vertex of
  ``B_i(u)`` and ``B_{L_{l-i}}(v)`` (exact delivery when nonempty — the
  Theorem 10 argument applies per level),
* per-instance Lemma 6 colorings of ``B_i`` with ``q^i`` colors, balanced
  partitions of the paired ``L_j``, and one Technique 2 instance each,
* per-instance color representatives.

Routing without an intersection picks the instance ``j`` minimizing
``a_j + b_{pair(j)}`` (``b_i = d(v, p_{L_i}(v)) - 1``, from the label);
Lemma 12/14 bound that minimum by ``(1 ∓ 1/l) d``, which yields the stated
stretch after the ``(2+eps')``-weighted detour through the representative
and the landmark.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..core.technique2 import Technique2, balanced_parts
from ..graph.core import Graph
from ..graph.metric import MetricView
from ..routing.model import Deliver, Forward, RouteAction
from ..routing.ports import PortAssignment
from ..routing.tree_routing import tree_step
from ..structures.balls import BallFamily, ball_size_parameter
from ..structures.coloring import color_classes, color_reps
from .base import SchemeBase

if TYPE_CHECKING:
    from ..structures.bunches import BunchStructure

__all__ = ["GeneralMinusScheme", "GeneralPlusScheme"]


class _GeneralizedScheme(SchemeBase):
    """Common construction of Theorems 13 (sign=-1) and 15 (sign=+1)."""

    #: -1 for Theorem 13, +1 for Theorem 15
    sign: int = -1

    def __init__(
        self,
        graph: Graph,
        ell: int = 2,
        eps: float = 1.0,
        *,
        alpha: float = 0.5,
        q: Optional[float] = None,
        seed: int = 0,
        ports: Optional[PortAssignment] = None,
        metric: Optional[MetricView] = None,
        substrate: Optional[Any] = None,
    ) -> None:
        super().__init__(
            graph, ports=ports, metric=metric, substrate=substrate
        )
        if not graph.is_unweighted():
            raise ValueError("Theorems 13/15 are stated for unweighted graphs")
        if ell < 2:
            raise ValueError(f"the generalization needs l >= 2, got {ell}")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.ell = ell
        self.eps = eps
        n = graph.n
        denom = 2 * ell + self.sign
        self.q = q if q is not None else max(1.5, n ** (1.0 / denom))

        # Instance index sets (paper's i ranges) and target pairing.
        self._init_instances()

        # --- nested balls ---------------------------------------------
        self.families: List[BallFamily] = []
        sizes = []
        for i in range(ell + 1):
            size = ball_size_parameter(n, self.q ** i, alpha)
            if sizes:
                size = max(size, sizes[-1])  # enforce nesting
            sizes.append(size)
            self.families.append(self._substrate.ball_family(size))
        self.family = self.families[ell]
        self._install_ball_ports(self.family)
        for u in graph.vertices():
            for i in range(ell + 1):
                self._tables[u].put(
                    "radius", i, int(round(self.families[i].radius(u)))
                )

        # --- landmark sets L_i with clusters O(q^i) ---------------------
        self.landmark_sets: List[List[int]] = []
        self.bunches: List[BunchStructure] = []
        for i in range(ell + 1):
            s = max(1.0, n / (self.q ** i))
            li = self._substrate.landmark_sample(s, seed + 31 * i)
            if not li:
                li = [0]
            self.landmark_sets.append(li)
            self.bunches.append(self._substrate.bunch_structure(li))

        # Cluster trees per level, from each level's cluster scan.
        for i, bunches in enumerate(self.bunches):
            self._install_cluster_trees(bunches, suffix=str(i))

        # Intersection tables: best w in B_i(u) ∩ B_{L_{l-i}}(v), per i.
        for u in graph.vertices():
            table = self._tables[u]
            for i in range(ell + 1):
                bunches = self.bunches[ell - i]
                best: Dict[int, Tuple[float, int]] = {}
                for w in self.families[i].ball(u):
                    through = self.metric.d(u, w)
                    for v, d_wv in zip(
                        bunches.cluster(w), bunches.cluster_distances(w)
                    ):
                        cand = (through + d_wv, w)
                        if v not in best or cand < best[v]:
                            best[v] = cand
                for v, (_, w) in best.items():
                    table.put(f"xsect{i}", v, w)

        # Colorings, balanced target partitions and Technique 2 instances.
        self.colorings: Dict[int, List[int]] = {}
        self.techniques: Dict[int, Technique2] = {}
        self._target_class: Dict[int, Dict[int, int]] = {}
        for i in self.instances:
            colors_count = max(1, int(round(self.q ** i)))
            coloring = self._substrate.coloring(
                self.families[i].ell, colors_count, seed + 97 * i
            )
            self.colorings[i] = coloring
            classes = color_classes(coloring, colors_count)

            k = self._pair(i)
            parts, self._target_class[k] = balanced_parts(
                self.landmark_sets[k], colors_count
            )

            technique = Technique2(
                self.metric,
                self.families[i],
                self.ports,
                classes,
                parts,
                eps / (4.0 if self.sign > 0 else 3.0),
                prefix=f"t2.{i}:",
                validate_hitting=False,
            )
            self.techniques[i] = technique
            for table in self._tables:
                technique.install(table)

            for u, table in enumerate(self._tables):
                table.put_many(f"rep{i}", color_reps(
                    self.families[i].ball(u), coloring, colors_count
                ))

        # Labels: per target level k, the pivot, its part, its distance and
        # the first edge toward v.
        for v in graph.vertices():
            per_level = {}
            for k in self.target_levels:
                p = self.bunches[k].pivot(v)
                d = int(round(self.bunches[k].distance_to_landmarks(v)))
                z = None if p == v else self.metric.next_hop(p, v)
                per_level[k] = (p, self._target_class[k].get(p, 0), d, z)
            self._labels[v] = (v, per_level)

    # ------------------------------------------------------------------
    def _init_instances(self) -> None:
        """Instance index sets (paper's ``i`` ranges) and target pairing."""
        ell = self.ell
        if self.sign < 0:
            self.instances = list(range(ell))       # i in {0..l-1}
            self._pair = lambda i: ell - i - 1      # targets L_{l-i-1}
        else:
            self.instances = list(range(1, ell + 1))  # i in {1..l}
            self._pair = lambda i: ell - i + 1        # targets L_{l-i+1}
        self.target_levels = sorted({self._pair(i) for i in self.instances})

    # ------------------------------------------------------------------
    def stretch_bound(self) -> Tuple[float, float]:
        """``(alpha, beta)`` of the guaranteed ``alpha*d + beta`` bound."""
        return (3.0 + self.sign * 2.0 / self.ell + self.eps, 2.0)

    # ------------------------------------------------------------------
    def shard_categories(self) -> frozenset:
        """Per-level trees/intersections/reps plus the shared ball state."""
        cats = {"ball", "radius"}
        for i in range(self.ell + 1):
            cats.update({f"ctree{i}", f"clabel{i}", f"xsect{i}"})
        for i in self.instances:
            cats.add(f"rep{i}")
            cats.add(self.techniques[i].cat_seq)
        return frozenset(cats)

    def routing_params(self) -> dict:
        return {"ell": self.ell, "eps": self.eps}

    def _restore_routing(self, params: dict) -> None:
        self.ell = params["ell"]
        self.eps = params["eps"]
        self._init_instances()
        self.techniques = {
            i: Technique2.stepper(self.ports, prefix=f"t2.{i}:")
            for i in self.instances
        }

    # ------------------------------------------------------------------
    def step(self, u: int, header: Any, dest_label: Any) -> RouteAction:
        v, per_level = dest_label
        if u == v:
            return Deliver()
        table = self.table_of(u)

        if header is None:
            ball_port = table.get("ball", v)
            if ball_port is not None:
                return Forward(ball_port, ("ball",))
            for i in range(self.ell + 1):
                w = table.get(f"xsect{i}", v)
                if w is not None:
                    lvl = self.ell - i
                    if w == u:
                        return self._enter_cluster_tree(table, u, lvl, w, v)
                    return Forward(table.get("ball", w), ("tox", lvl, w))
            j = self._choose_instance(table, per_level)
            k = self._pair(j)
            p, part, _, _ = per_level[k]
            rep = table.get(f"rep{j}", part)
            if rep == u:
                return self._start_t2(table, u, j, k, per_level, v)
            return Forward(table.get("ball", rep), ("torep", j, rep))

        tag = header[0]
        if tag == "ball":
            return Forward(table.get("ball", v), header)
        if tag == "tox":
            lvl, w = header[1], header[2]
            if u == w:
                return self._enter_cluster_tree(table, u, lvl, w, v)
            return Forward(table.get("ball", w), header)
        if tag == "torep":
            j, rep = header[1], header[2]
            if u == rep:
                return self._start_t2(table, u, j, self._pair(j), per_level, v)
            return Forward(table.get("ball", rep), header)
        if tag == "t2":
            j = header[1]
            k = self._pair(j)
            p = per_level[k][0]
            port, t2h = self.techniques[j].step(table, u, header[2], p)
            if port is not None:
                return Forward(port, ("t2", j, t2h))
            z = per_level[k][3]
            return Forward(self.ports.port_to(u, z), ("atz", k))
        if tag == "atz":
            k = header[1]
            return self._enter_cluster_tree(table, u, k, u, v)
        if tag == "ctree":
            return self._tree_forward(table, u, header, v)
        raise ValueError(f"unknown header tag {tag!r}")

    # ------------------------------------------------------------------
    def _choose_instance(self, table, per_level) -> int:
        """``argmin_j a_j + b_{pair(j)}``, ties to the highest index."""
        best_j = None
        best_val = None
        for j in self.instances:
            a_j = table.get("radius", j)
            k = self._pair(j)
            d_k = per_level[k][2]
            b_k = 0 if d_k == 0 else d_k - 1
            val = a_j + b_k
            if best_val is None or val <= best_val:
                best_val = val
                best_j = j
        return best_j

    def _start_t2(self, table, u: int, j: int, k: int, per_level, v: int) -> RouteAction:
        p, _, _, z = per_level[k]
        if u == p:
            if z is None:
                raise RuntimeError(f"label of {v} lacks the level-{k} edge")
            return Forward(self.ports.port_to(u, z), ("atz", k))
        t2h = self.techniques[j].start(table, u, p)
        port, t2h = self.techniques[j].step(table, u, t2h, p)
        return Forward(port, ("t2", j, t2h))

    def _enter_cluster_tree(self, table, u: int, lvl: int, root: int, v: int) -> RouteAction:
        tlabel = table.get(f"clabel{lvl}", v)
        if tlabel is None:
            raise RuntimeError(
                f"{u} stores no level-{lvl} cluster label for {v}"
            )
        return self._tree_forward(table, u, ("ctree", lvl, root, tlabel), v)

    def _tree_forward(self, table, u: int, header, v: int) -> RouteAction:
        lvl, root, tlabel = header[1], header[2], header[3]
        record = table.get(f"ctree{lvl}", root)
        if record is None:
            raise RuntimeError(f"{u} lacks a ctree{lvl} record for {root}")
        port = tree_step(record, tlabel)
        if port is None:
            if u != v:
                raise RuntimeError(f"tree delivery at {u} but target is {v}")
            return Deliver()
        return Forward(port, header)


class GeneralMinusScheme(_GeneralizedScheme):
    """Theorem 13: (3 - 2/l + eps, 2)-stretch, ``Õ(l n^{l/(2l-1)}/eps)``."""

    sign = -1

    def __init__(self, graph: Graph, ell: int = 2, eps: float = 1.0, **kwargs) -> None:
        super().__init__(graph, ell, eps, **kwargs)
        self.name = f"Thm 13 (3-2/{ell}+eps,2)"


class GeneralPlusScheme(_GeneralizedScheme):
    """Theorem 15: (3 + 2/l + eps, 2)-stretch, ``Õ(l n^{l/(2l+1)}/eps)``."""

    sign = +1

    def __init__(self, graph: Graph, ell: int = 2, eps: float = 1.0, **kwargs) -> None:
        super().__init__(graph, ell, eps, **kwargs)
        self.name = f"Thm 15 (3+2/{ell}+eps,2)"
