"""Ball routing (Lemma 2): shortest-path routing inside vicinities.

Every vertex ``u`` stores, for each ``v in B(u, ell)``, the port of the
first edge on a shortest path to ``v``.  When a message for
``v in B(u, ell)`` is at ``u``, it is forwarded along that port; by
Property 1 the next vertex ``w`` also has ``v in B(w, ell)``, so the walk
follows a shortest path all the way (edge weights are positive, so distance
to ``v`` strictly decreases and no loop is possible).

The class below computes the first-edge ports; schemes install them into
their per-vertex :class:`~repro.routing.model.SizedTable` under a category
(conventionally ``"ball"``) so the space accounting sees them (2 words per
ball member: key + port).
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

import numpy as np

from ..graph.metric import MetricView
from ..structures.balls import BallFamily
from .model import CompactRoutingScheme, Deliver, Forward, RouteAction, SizedTable
from .ports import PortAssignment

__all__ = ["BallRoutingTables", "BallRoutingScheme"]


class BallRoutingTables:
    """First-edge ports for every ball of a :class:`BallFamily`.

    The ports live in one flat array, ball by ball in ball order (each
    owner left out).  The ports toward ``v`` of all its holders
    ``{u : v in B(u)}`` come from ``v``'s one hop column, as one
    vectorized port lookup (:meth:`PortAssignment.ports_to`) scattered
    into that array.  A scheme running its own target sweep
    (:meth:`MetricView.target_sweep`) hands each column to
    :meth:`fill_target`; the first read fills whatever targets are
    left in one sweep of its own (:meth:`finish`).
    """

    def __init__(
        self,
        metric: MetricView,
        family: BallFamily,
        ports: PortAssignment,
    ) -> None:
        self.family = family
        self._metric = metric
        self._ports = ports
        n = metric.n
        balls = family.balls()
        sizes = np.fromiter(map(len, balls), dtype=np.int64, count=n)
        members = np.fromiter(
            itertools.chain.from_iterable(balls), dtype=np.int32,
            count=int(sizes.sum()),
        )
        owners = np.repeat(np.arange(n, dtype=np.int32), sizes)
        keep = members != owners
        self._members = members[keep]
        self._owners = owners[keep]
        self._bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self._owners, minlength=n), out=self._bounds[1:]
        )
        # Slots grouped by target: the holders of v are _by_target[a:b]
        # with a, b = _target_bounds[v], _target_bounds[v + 1].
        self._by_target = np.argsort(self._members, kind="stable")
        self._target_bounds = np.searchsorted(
            self._members[self._by_target], np.arange(n + 1)
        )
        self._port = np.full(self._members.size, -1, dtype=np.int32)
        #: targets whose holders still wait for their ports
        self._pending = np.diff(self._target_bounds) > 0
        self._left = int(self._pending.sum())

    def fill_target(self, v: int, col: np.ndarray) -> None:
        """Fill every holder's port toward ``v`` from ``hop_column(v)``."""
        if not self._pending[v]:
            return
        slots = self._by_target[
            self._target_bounds[v] : self._target_bounds[v + 1]
        ]
        sources = self._owners[slots]
        hops = col[sources]
        if (hops < 0).any():
            # next_hop raises the metric's own diagnostic for this pair
            self._metric.next_hop(int(sources[np.argmin(hops)]), v)
        self._port[slots] = self._ports.ports_to(sources, hops)
        self._pending[v] = False
        self._left -= 1

    def finish(self) -> None:
        """Fill the targets no caller's sweep has handed in yet."""
        if self._left:
            todo = np.flatnonzero(self._pending).tolist()
            for v, _, col in self._metric.target_sweep(todo):
                self.fill_target(v, col)

    def _entries(self, u: int) -> Dict[int, int]:
        self.finish()
        lo, hi = self._bounds[u], self._bounds[u + 1]
        return dict(
            zip(self._members[lo:hi].tolist(), self._port[lo:hi].tolist())
        )

    def port_for(self, u: int, v: int) -> Optional[int]:
        """Port of ``u``'s first edge toward ``v``; ``None`` if outside ball."""
        if v == u:
            return None
        return self._entries(u).get(v)

    def install(self, table: SizedTable, category: str = "ball") -> None:
        """Copy vertex ``table.owner``'s ball ports into its sized table."""
        table.put_many(category, self._entries(table.owner))


class BallRoutingScheme(CompactRoutingScheme):
    """Standalone Lemma-2 scheme (shortest-path routing within balls).

    Only valid for targets inside the source's ball; used directly by tests
    and as the building block of every scheme in :mod:`repro.schemes`.
    The label of a vertex is its id; there is no header.
    """

    name = "ball-routing (Lemma 2)"

    def __init__(
        self,
        metric: MetricView,
        family: BallFamily,
        ports: PortAssignment,
    ) -> None:
        super().__init__(metric.graph, ports)
        self.family = family
        tables = BallRoutingTables(metric, family, ports)
        self._tables: list[SizedTable] = []
        for u in self.graph.vertices():
            table = SizedTable(u)
            tables.install(table)
            self._tables.append(table)

    def label_of(self, v: int) -> int:
        return v

    def table_of(self, v: int) -> SizedTable:
        return self._tables[v]

    def step(self, u: int, header, dest_label: int) -> RouteAction:
        if u == dest_label:
            return Deliver()
        port = self.table_of(u).get("ball", dest_label)
        if port is None:
            raise ValueError(
                f"target {dest_label} outside B({u}); Lemma 2 does not apply"
            )
        return Forward(port, None)
