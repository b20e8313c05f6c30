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

from typing import Dict, Optional

from ..graph.metric import MetricView
from ..structures.balls import BallFamily
from .model import CompactRoutingScheme, Deliver, Forward, RouteAction, SizedTable
from .ports import PortAssignment

__all__ = ["BallRoutingTables", "BallRoutingScheme"]


class BallRoutingTables:
    """First-edge ports for every ball of a :class:`BallFamily`."""

    def __init__(
        self,
        metric: MetricView,
        family: BallFamily,
        ports: PortAssignment,
    ) -> None:
        self.family = family
        # Keys go in ball order first; the ports are then filled target by
        # target, so each target's hop column is built once (one distance
        # row) and no dict's insertion order depends on the fill order.
        self._port: list[Dict[int, int]] = []
        holders: list[list[int]] = [[] for _ in range(metric.n)]
        for u in range(metric.n):
            entry: Dict[int, int] = {}
            for v in family.ball(u):
                if v != u:
                    entry[v] = -1
                    holders[v].append(u)
            self._port.append(entry)
        for v, sources in enumerate(holders):
            for u in sources:
                self._port[u][v] = ports.port_to(u, metric.next_hop(u, v))

    def port_for(self, u: int, v: int) -> Optional[int]:
        """Port of ``u``'s first edge toward ``v``; ``None`` if outside ball."""
        if v == u:
            return None
        return self._port[u].get(v)

    def install(self, table: SizedTable, category: str = "ball") -> None:
        """Copy vertex ``table.owner``'s ball ports into its sized table."""
        for v, port in self._port[table.owner].items():
            table.put(category, v, port)


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
