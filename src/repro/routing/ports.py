"""The fixed-port model (Fraigniaud & Gavoille).

In the fixed-port model every vertex ``u`` numbers its incident links with
ports ``0 .. deg(u)-1`` *before* the routing scheme is constructed; the
scheme must work with whatever numbering it is handed (it may not choose a
convenient one).  A routing decision outputs a port number, not a neighbour
id.

:class:`PortAssignment` materializes such a numbering.  The default is the
graph's deterministic adjacency order; a ``seed`` produces a shuffled
(adversarial-ish) numbering used in tests to check that no scheme silently
relies on a friendly port order.

The standard model additionally allows a vertex to translate a *neighbour id*
into the port leading to it (paper, footnote 2); :meth:`PortAssignment.port_to`
provides exactly that operation and nothing more.
"""

from __future__ import annotations

import random
from typing import Dict, List

from ..graph.core import Graph

__all__ = ["PortAssignment"]


class PortAssignment:
    """Port numbering of every vertex's incident links."""

    def __init__(
        self,
        g: Graph,
        seed: int | None = None,
        *,
        order: List[List[int]] | None = None,
    ) -> None:
        self.graph = g
        self._ports: List[List[int]] = []
        if order is not None:
            # Adopt an explicit numbering (the shard-backed serving path),
            # validating it is a permutation of each vertex's neighbours
            # so a persisted numbering can never silently drift from the
            # graph it is applied to.
            if len(order) != g.n:
                raise ValueError(
                    f"port order covers {len(order)} vertices, "
                    f"graph has {g.n}"
                )
            for u in g.vertices():
                ports = [int(v) for v in order[u]]
                if sorted(ports) != sorted(g.neighbors(u)):
                    raise ValueError(
                        f"port order of vertex {u} is not a permutation "
                        f"of its neighbours"
                    )
                self._ports.append(ports)
        else:
            rng = random.Random(seed) if seed is not None else None
            for u in g.vertices():
                neighbours = g.neighbors(u)
                if rng is not None:
                    rng.shuffle(neighbours)
                self._ports.append(neighbours)
        self._port_of: List[Dict[int, int]] = [
            {v: p for p, v in enumerate(ports)} for ports in self._ports
        ]

    @classmethod
    def from_order(cls, g: Graph, order: List[List[int]]) -> "PortAssignment":
        """Adopt an explicit numbering: ``order[u]`` lists ``u``'s
        neighbour ids in port order (validated)."""
        return cls(g, order=order)

    def degree(self, u: int) -> int:
        """Number of ports at ``u``."""
        return len(self._ports[u])

    def neighbor(self, u: int, port: int) -> int:
        """The vertex at the other end of ``u``'s link ``port``."""
        ports = self._ports[u]
        if not 0 <= port < len(ports):
            raise ValueError(f"vertex {u} has no port {port}")
        return ports[port]

    def port_to(self, u: int, v: int) -> int:
        """The port of ``u`` leading to its neighbour ``v``.

        This is the neighbour-id-to-link translation the standard model
        assumes (paper, footnote 2).  Raises when ``v`` is not adjacent.
        """
        try:
            return self._port_of[u][v]
        except KeyError:
            raise ValueError(f"{v} is not a neighbour of {u}") from None
