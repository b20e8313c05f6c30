"""Routing Technique 1 (Lemma 7): (1+eps) routing inside partition classes.

Given a partition ``U = {U_1..U_q}`` of ``V`` into classes of size
``Õ(n/q)``, this technique routes between any two vertices of the *same*
class on a ``(1+eps)``-stretch path.  Per vertex it stores

* the ball first-edge ports (installed by the caller, category ``"ball"``),
* a tree-routing record for the global shortest-path tree ``T(h)`` of every
  hitting-set vertex ``h ∈ H`` (``H`` hits every ball; Lemma 5),
* for every same-class destination ``v``: the Lemma 7 waypoint sequence and,
  when it ends at a hub ``h ∈ H``, the label of ``v`` in ``T(h)``.

The header carries the remaining waypoints (≤ ``2b+2`` words) plus at most
one tree label, matching the paper's ``O((1/eps) log n + log^2 n/loglog n)``
bits.

This class is a *sub-scheme*: a parent :class:`CompactRoutingScheme` owns
the per-vertex :class:`SizedTable`; the technique installs its categories
into them and exposes ``start``/``step`` primitives that read only the local
table, keeping the distributed discipline intact.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple,
)

import numpy as np

from ..graph.metric import MetricView
from ..routing.model import SizedTable
from ..routing.ports import PortAssignment
from ..routing.tree_routing import TreeRouting, full_tree_routings, tree_step
from ..structures.balls import BallFamily
from ..structures.hitting_set import greedy_hitting_set, random_hitting_set
from .sequences import lemma7_waypoints

__all__ = ["Technique1", "eps_to_b_lemma7"]


def eps_to_b_lemma7(eps: float) -> int:
    """The paper's ``b = ceil(2 / eps)``."""
    import math

    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return max(1, math.ceil(2.0 / eps))


class Technique1:
    """Preprocessed Lemma 7 structure over one partition.

    Parameters
    ----------
    metric, family, ports:
        Shared substrates (balls must be the family the caller installed
        ball-routing ports for, category ``"ball"``).
    partition:
        The classes ``U_1..U_q`` (lists of vertex ids covering ``V``).
    eps:
        Target stretch is ``1 + eps``.
    hitting:
        Optional pre-computed hitting set of all balls; computed greedily
        when omitted.  Schemes pass the memoized set
        (``Substrate.hitting_set``) — it is eps-independent, so
        parameter sweeps reuse it.
    tree_factory:
        Optional ``roots -> trees``: the full-graph trees of all hubs,
        in order, in one call (:meth:`finish` makes it).  Defaults to
        :func:`~repro.routing.tree_routing.full_tree_routings` on this
        instance's metric.  Schemes pass their substrate's
        ``tree_routing``, so the ~|H| trees (the other
        eps-independent half of this technique's state) are shared
        across schemes and sweeps.
    prefix:
        Category prefix inside the shared tables (several technique
        instances may coexist, e.g. in the generalized schemes).

    Construction reads no distance row.  A caller with per-target work
    of its own runs it inside :meth:`sweep`, which visits every vertex
    class by class and builds each class's sequences right after it;
    :meth:`install` first builds the hub trees and whatever classes no
    sweep has visited (:meth:`finish`).

    The class-level defaults below back the step-only shells built by
    :meth:`stepper`: ``start``/``step`` read none of the preprocessing
    state, so restored instances simply inherit these placeholders and a
    new ``__init__`` attribute needs no matching stepper edit.
    """

    metric: Optional[MetricView] = None
    family: Optional[BallFamily] = None
    eps: Optional[float] = None
    b: Optional[int] = None
    hitting: Sequence[int] = ()
    _hitting_set: frozenset = frozenset()
    _trees: Optional[Dict[int, TreeRouting]] = None
    _class_of: Optional[List[int]] = None
    _sequences: Sequence[dict] = ()

    def __init__(
        self,
        metric: MetricView,
        family: BallFamily,
        ports: PortAssignment,
        partition: Sequence[Sequence[int]],
        eps: float,
        *,
        hitting: Optional[Sequence[int]] = None,
        tree_factory: Optional[
            Callable[[Sequence[int]], Sequence[TreeRouting]]
        ] = None,
        prefix: str = "t1:",
        seed: int = 0,
        use_greedy_hitting: bool = True,
    ) -> None:
        self.metric = metric
        self.family = family
        self.ports = ports
        self.eps = eps
        self.b = eps_to_b_lemma7(eps)
        self.prefix = prefix
        self.cat_seq = f"{prefix}seq"
        self.cat_htree = f"{prefix}htree"

        if hitting is None:
            balls = family.balls()
            if use_greedy_hitting:
                hitting = greedy_hitting_set(balls)
            else:
                hitting = random_hitting_set(balls, metric.n, seed=seed)
        self.hitting = sorted(hitting)
        # Frozen once; the Lemma 7 walk runs per (u, v) pair and must
        # not rebuild an O(|H|) set every call.
        self._hitting_set = frozenset(self.hitting)
        self._tree_factory = tree_factory or (
            lambda roots: full_tree_routings(metric, ports, roots)
        )

        # class index of each vertex (for diagnostics / validation)
        self._class_of: List[int] = [-1] * metric.n
        for idx, cls in enumerate(partition):
            for v in cls:
                if self._class_of[v] != -1:
                    raise ValueError(f"vertex {v} appears in two classes")
                self._class_of[v] = idx
        if any(c == -1 for c in self._class_of):
            missing = self._class_of.index(-1)
            raise ValueError(f"partition does not cover vertex {missing}")

        # sequences[u][v] = (waypoints, hub_or_None) as built, then
        # (waypoints, tree_label_or_None) once finish() has the hub
        # trees.  The keys go in first, in (class, u, v) order, so no
        # dict's insertion order depends on the order the pairs are
        # built in.
        self._sequences: List[Dict[int, Tuple[Tuple[int, ...], Any]]] = [
            {} for _ in range(metric.n)
        ]
        for cls in partition:
            for u in cls:
                for v in cls:
                    if u != v:
                        self._sequences[u][v] = ((), None)
        self._classes: List[List[int]] = [list(cls) for cls in partition]
        #: indices of the classes whose sequences are still to build
        self._pending: Set[int] = {
            i for i, cls in enumerate(self._classes) if len(cls) > 1
        }
        # hub -> tree routing over T(hub); filled by finish(), after the
        # caller's sweep, so that no hub row is read before it
        self._trees: Dict[int, TreeRouting] = {}
        self._finished = False

    def sweep(self) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Visit every vertex class by class, as
        :meth:`MetricView.target_sweep` does, and build each class's
        Lemma 7 sequences right after its last member.

        Yields ``(u, row(u), hop_column(u))`` for the members of one
        class, gathering the class's ``d(u, v)`` block from the rows;
        then every sequence between two members walks toward its target
        ``v`` while ``v``'s row and column are still cached.  A caller
        does its own per-target work in the loop body, so one sweep
        serves both (thm10).
        """
        for idx in range(len(self._classes)):
            yield from self._sweep_class(idx)

    def _sweep_class(
        self, idx: int
    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        cls = self._classes[idx]
        members = np.asarray(cls, dtype=np.int64)
        dist = np.empty((len(cls), len(cls)))
        for i, (u, row, col) in enumerate(self.metric.target_sweep(cls)):
            dist[i] = row[members]
            yield u, row, col
        if idx in self._pending:
            self._build_class(cls, dist)
            self._pending.discard(idx)

    def finish(self) -> None:
        """Build the hub trees, then the sequences of every class no
        caller's :meth:`sweep` has visited, with a sweep of their own;
        a sequence ending at a hub ``h`` then gets its target's label in
        ``T(h)``.  Runs once."""
        if self._finished:
            return
        self._trees = dict(zip(self.hitting, self._tree_factory(self.hitting)))
        for idx in sorted(self._pending):
            for _ in self._sweep_class(idx):
                pass
        for seqs in self._sequences:
            for v, (waypoints, hub) in seqs.items():
                if hub is not None:
                    seqs[v] = (waypoints, self._trees[hub].label_of(v))
        self._finished = True

    def _build_class(self, cls: Sequence[int], dist: np.ndarray) -> None:
        """Every Lemma 7 sequence between two members of ``cls``.

        ``dist[i, j]`` is ``d(cls[i], cls[j])``, read from ``cls[i]``'s
        row (the forward orientation every structure shares) by the
        sweep that just visited the class.  A sequence ``u -> v`` walks
        toward ``v`` along ``v``'s hop column, so the walks go target by
        target, in reverse sweep order: each column is converted to a
        list once and serves every source of the class.  A class that
        fits the row cache computes no row here; a larger one pays its
        size minus ``cache_rows`` again.  A sequence ending at a hub keeps
        the hub until :meth:`finish` has built the trees.
        """
        metric = self.metric
        b = self.b
        family = self.family
        hitting = self._hitting_set
        index = {v: j for j, v in enumerate(cls)}
        for v, _, col in metric.target_sweep(cls[::-1]):
            hops = col.tolist()
            for u, d_uv in zip(cls, dist[:, index[v]].tolist()):
                if u != v:
                    self._sequences[u][v] = lemma7_waypoints(
                        metric, family, hitting, u, v, b, d_uv, hops
                    )

    # ------------------------------------------------------------------
    @classmethod
    def stepper(cls, ports: PortAssignment, *, prefix: str = "t1:") -> "Technique1":
        """A step-only instance for restored (deserialized) schemes.

        ``start``/``step`` read nothing but the local table, the header and
        ``ports`` — the distributed discipline — so a scheme rebuilt from
        persisted tables only needs this shell, not the preprocessing state
        (metric, hitting set, sequences) that produced the tables; those
        attributes fall through to the class-level placeholders.
        """
        self = object.__new__(cls)
        self.ports = ports
        self.prefix = prefix
        self.cat_seq = f"{prefix}seq"
        self.cat_htree = f"{prefix}htree"
        return self

    def class_of(self, v: int) -> int:
        """Partition-class index of ``v``."""
        return self._class_of[v]

    def install(self, table: SizedTable) -> None:
        """Install this vertex's Lemma 7 state into its sized table."""
        self.finish()
        u = table.owner
        table.put_many(self.cat_htree, {
            h: tree.record_of(u) for h, tree in self._trees.items()
        })
        # the lone member of a class has no sequence: no empty category
        if self._sequences[u]:
            table.put_many(self.cat_seq, self._sequences[u])

    # ------------------------------------------------------------------
    # Distributed primitives (read only the local table + header)
    # ------------------------------------------------------------------
    def start(self, table: SizedTable, u: int, v: int) -> tuple:
        """Build the initial technique header at source ``u`` for ``v``."""
        entry = table.get(self.cat_seq, v)
        if entry is None:
            detail = (
                ""
                if self._class_of is None
                else f" (classes {self._class_of[u]} vs {self._class_of[v]})"
            )
            raise ValueError(
                f"{u} stores no Lemma 7 sequence for {v}{detail}"
            )
        waypoints, tlabel = entry
        return ("seq", 0, waypoints, tlabel)

    def step(
        self, table: SizedTable, u: int, header: tuple, v: int
    ) -> Tuple[Optional[int], tuple]:
        """One local decision at ``u``; returns ``(port, header)``.

        ``port is None`` means the message is at ``v``.
        """
        if u == v:
            return None, header
        if header[0] == "tree":
            _, hub, tlabel = header
            record = table.get(self.cat_htree, hub)
            if record is None:
                raise RuntimeError(f"{u} lacks a record for hub tree {hub}")
            port = tree_step(record, tlabel)
            if port is None:
                raise RuntimeError(
                    f"tree phase claims delivery at {u} but target is {v}"
                )
            return port, header
        _, idx, waypoints, tlabel = header
        while idx < len(waypoints) and waypoints[idx] == u:
            idx += 1
        if idx == len(waypoints):
            # Waypoints exhausted away from v: u is the hub (Lemma 7
            # invariant); continue on u's global tree toward v.
            if tlabel is None:
                raise RuntimeError(
                    f"sequence for {v} exhausted at {u} without a tree label"
                )
            header = ("tree", u, tlabel)
            record = table.get(self.cat_htree, u)
            if record is None:
                raise RuntimeError(f"exhausted at non-hub vertex {u}")
            port = tree_step(record, tlabel)
            if port is None:
                raise RuntimeError(
                    f"tree phase claims delivery at {u} but target is {v}"
                )
            return port, header
        target = waypoints[idx]
        port = table.get("ball", target)
        if port is None:
            # The waypoint must then be a direct neighbour (boundary edge).
            port = self.ports.port_to(u, target)
        return port, ("seq", idx, waypoints, tlabel)
