"""Routing Technique 2 (Lemma 8): (1+eps) routing from ``U_i`` to ``W_i``.

Given a partition ``W = {W_1..W_q}`` of a target set ``W ⊆ V`` and a
partition ``U = {U_1..U_q}`` of ``V`` whose classes hit every ball
``B(u, q̃)`` (Lemma 6 guarantees this for coloring classes), route from any
vertex of ``U_i`` to any vertex of ``W_i`` on a ``(1+eps)``-stretch path.

Every vertex of ``U_i`` stores one Lemma 8 sequence per target in ``W_i``
(``O((1/eps) log D)`` words each).  A sequence either leads all the way to
the target ``w`` or ends at a *relay* — a ball-local member of the same
class ``U_i`` — which swaps in its own stored sequence for ``w``.  Claim 9
of the paper shows each relay hop strictly decreases the distance to ``w``
(by at least ``alpha_i (1 - 1/b)``), so the relay chain terminates and the
total detour telescopes to a ``(1 + 2/(b-1)) <= (1+eps)`` factor.

Like :class:`~repro.core.technique1.Technique1` this is a sub-scheme: it
installs its category into caller-owned tables and exposes local
``start``/``step`` primitives.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.metric import MetricView
from ..routing.model import SizedTable
from ..routing.ports import PortAssignment
from ..structures.balls import BallFamily
from .sequences import lemma8_waypoints

__all__ = ["Technique2", "balanced_parts", "eps_to_b_lemma8"]


def balanced_parts(
    targets: Sequence[int], q: int
) -> Tuple[List[List[int]], Dict[int, int]]:
    """``targets`` cut, in order, into ``q`` parts of ``ceil(|targets| / q)``
    (the last ones may be short or empty), and each target's part."""
    per_part = -(-len(targets) // q)
    part_of = {w: min(i // per_part, q - 1) for i, w in enumerate(targets)}
    parts: List[List[int]] = [[] for _ in range(q)]
    for w, part in part_of.items():
        parts[part].append(w)
    return parts, part_of


def eps_to_b_lemma8(eps: float) -> int:
    """The paper's ``b = ceil(2/eps) + 1`` (stretch ``1 + 2/(b-1)``)."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return max(2, math.ceil(2.0 / eps) + 1)


class Technique2:
    """Preprocessed Lemma 8 structure over paired partitions ``U``, ``W``.

    Parameters
    ----------
    metric, family, ports:
        Shared substrates; ball first-edge ports must be installed by the
        caller under category ``"ball"``.
    source_partition:
        ``U_1..U_q`` — classes covering ``V``.
    target_partition:
        ``W_1..W_q`` — classes of the target set ``W`` (same count ``q``);
        ``W_i`` is reachable from sources in ``U_i``.
    eps:
        Target stretch ``1 + eps``.
    validate_hitting:
        Verify that every class intersects every ball (the Lemma 6
        precondition).  Disable only when the caller already guarantees it.

    The sequences toward each target are built by :meth:`walk_target`,
    which a caller sweeping targets (:meth:`MetricView.target_sweep`)
    calls while the target is in hand; :meth:`install` first walks
    toward whatever targets are left, in one sweep of its own.

    The class-level defaults below back the step-only shells built by
    :meth:`stepper` (see :class:`~repro.core.technique1.Technique1`).
    """

    metric: Optional[MetricView] = None
    family: Optional[BallFamily] = None
    eps: Optional[float] = None
    b: Optional[int] = None
    lam: Optional[float] = None
    _class_of: Optional[List[int]] = None
    _target_class_of: Optional[Dict[int, int]] = None
    _relay_cache: Optional[Dict[Tuple[int, int], Optional[int]]] = None
    _sequences: Sequence[dict] = ()
    _pending: Optional[Dict[int, int]] = None

    def __init__(
        self,
        metric: MetricView,
        family: BallFamily,
        ports: PortAssignment,
        source_partition: Sequence[Sequence[int]],
        target_partition: Sequence[Sequence[int]],
        eps: float,
        *,
        prefix: str = "t2:",
        validate_hitting: bool = True,
    ) -> None:
        if len(source_partition) != len(target_partition):
            raise ValueError(
                f"partition size mismatch: {len(source_partition)} source "
                f"classes vs {len(target_partition)} target classes"
            )
        self.metric = metric
        self.family = family
        self.ports = ports
        self.eps = eps
        self.b = eps_to_b_lemma8(eps)
        self.prefix = prefix
        self.cat_seq = f"{prefix}seq"
        # Edgeless (single-vertex) graphs have no sequences to normalize.
        self.lam = metric.tight_min_weight() if metric.graph.m > 0 else 1.0

        self._class_of: List[int] = [-1] * metric.n
        for idx, cls in enumerate(source_partition):
            for v in cls:
                if self._class_of[v] != -1:
                    raise ValueError(f"vertex {v} appears in two source classes")
                self._class_of[v] = idx
        if any(c == -1 for c in self._class_of):
            missing = self._class_of.index(-1)
            raise ValueError(f"source partition does not cover vertex {missing}")

        self._target_class_of: Dict[int, int] = {}
        for idx, cls in enumerate(target_partition):
            for w in cls:
                if w in self._target_class_of:
                    raise ValueError(f"target {w} appears in two target classes")
                self._target_class_of[w] = idx

        if validate_hitting:
            self._validate_ball_hitting(len(source_partition))

        # Nearest same-class relay in each ball, per class: relay[i][x].
        # (Computed lazily per class while building sequences.)
        self._relay_cache: Dict[Tuple[int, int], Optional[int]] = {}

        # sequences[u][w] = waypoints tuple.  The keys go in first, in
        # (class, w_cls, u_cls) order, so no dict's insertion order
        # depends on the order the targets are walked in.
        self._sequences: List[Dict[int, Tuple[int, ...]]] = [
            {} for _ in range(metric.n)
        ]
        self._sources: List[Sequence[int]] = list(source_partition)
        for u_cls, w_cls in zip(source_partition, target_partition):
            for w in w_cls:
                for u in u_cls:
                    if u != w:
                        self._sequences[u][w] = ()
        #: targets whose walks are still to run, by class index
        self._pending: Dict[int, int] = dict(self._target_class_of)

    def walk_target(self, w: int, col: Optional[np.ndarray] = None) -> None:
        """Build every sequence toward ``w`` (no-op for a non-target or
        one already walked).  All of them walk ``w``'s one hop column
        (``col``, which a sweeping caller already holds; read here when
        omitted), converted to a list once."""
        i = self._pending.pop(w, None)
        if i is None:
            return
        if col is None:
            col = self.metric.hop_column(w)
        hops = col.tolist()
        relay = functools.partial(self._relay_in_ball, i)
        for u in self._sources[i]:
            if u != w:
                self._sequences[u][w] = lemma8_waypoints(
                    self.metric, self.family, relay, u, w, self.b, self.lam,
                    hops,
                )[0]

    def finish(self) -> None:
        """Walk toward the targets no caller's sweep has handed in yet."""
        if self._pending:
            for w, _, col in self.metric.target_sweep(sorted(self._pending)):
                self.walk_target(w, col)

    # ------------------------------------------------------------------
    @classmethod
    def stepper(cls, ports: PortAssignment, *, prefix: str = "t2:") -> "Technique2":
        """A step-only instance for restored (deserialized) schemes.

        The ``start``/``step`` primitives consult only the local table and
        ``ports``; the preprocessing state (metric, sequences, relays)
        lives in the persisted tables, so this shell is all a rebuilt
        scheme needs — everything else falls through to the class-level
        placeholders.
        """
        self = object.__new__(cls)
        self.ports = ports
        self.prefix = prefix
        self.cat_seq = f"{prefix}seq"
        return self

    def _validate_ball_hitting(self, q: int) -> None:
        for x, ball in enumerate(self.family.balls()):
            present = {self._class_of[y] for y in ball}
            if len(present) < q:
                missing = sorted(set(range(q)) - present)
                raise ValueError(
                    f"B({x}) misses source classes {missing}; Lemma 8 "
                    f"requires every class to hit every ball (Lemma 6)"
                )

    def _relay_in_ball(self, class_index: int, x: int) -> Optional[int]:
        """Nearest member of class ``class_index`` in ``B(x)`` (cached)."""
        key = (class_index, x)
        if key not in self._relay_cache:
            relay = next(
                (
                    y
                    for y in self.family.ball(x)
                    if self._class_of[y] == class_index
                ),
                None,
            )
            self._relay_cache[key] = relay
        return self._relay_cache[key]

    def class_of(self, v: int) -> int:
        """Source-class index of ``v``."""
        return self._class_of[v]

    def target_class_of(self, w: int) -> int:
        """Target-class index of ``w`` (raises for non-targets)."""
        return self._target_class_of[w]

    def install(self, table: SizedTable) -> None:
        """Install this vertex's Lemma 8 sequences into its sized table."""
        self.finish()
        for w, waypoints in self._sequences[table.owner].items():
            table.put(self.cat_seq, w, waypoints)

    # ------------------------------------------------------------------
    # Distributed primitives
    # ------------------------------------------------------------------
    def start(self, table: SizedTable, u: int, w: int) -> tuple:
        """Initial technique header at a source ``u ∈ U_i`` for ``w ∈ W_i``."""
        waypoints = table.get(self.cat_seq, w)
        if waypoints is None:
            detail = (
                ""
                if self._class_of is None
                else f" (source class {self._class_of[u]})"
            )
            raise ValueError(
                f"{u} stores no Lemma 8 sequence for {w}{detail}"
            )
        return (0, waypoints)

    def step(
        self, table: SizedTable, u: int, header: tuple, w: int
    ) -> Tuple[Optional[int], tuple]:
        """One local decision at ``u``; ``(None, header)`` means arrived.

        When the waypoints run out away from ``w``, the current vertex is a
        relay of the source class (Lemma 8 invariant) and swaps in its own
        stored sequence for ``w``.
        """
        if u == w:
            return None, header
        idx, waypoints = header
        while idx < len(waypoints) and waypoints[idx] == u:
            idx += 1
        if idx == len(waypoints):
            waypoints = table.get(self.cat_seq, w)
            if waypoints is None:
                raise RuntimeError(
                    f"relay chain reached {u}, which stores no sequence "
                    f"for {w}; Lemma 8 invariant broken"
                )
            idx = 0
            while idx < len(waypoints) and waypoints[idx] == u:
                idx += 1
            if idx == len(waypoints):
                raise RuntimeError(f"empty relay sequence at {u} for {w}")
        target = waypoints[idx]
        port = table.get("ball", target)
        if port is None:
            port = self.ports.port_to(u, target)
        return port, (idx, waypoints)
