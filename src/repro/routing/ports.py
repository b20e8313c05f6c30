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
from typing import Dict, List, Optional, Tuple

import numpy as np

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
        self._link_index: Optional[Tuple[np.ndarray, np.ndarray]] = None

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

    def ports_to(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """:meth:`port_to` for parallel arrays of links ``us[i] -> vs[i]``.

        One vectorized lookup in a sorted ``u * n + v`` index over every
        link, built on first use; raises like :meth:`port_to` when some
        ``vs[i]`` is not a neighbour of ``us[i]``.
        """
        n = self.graph.n
        if self._link_index is None:
            degrees = np.fromiter(
                (len(p) for p in self._ports), dtype=np.int64, count=n
            )
            total = int(degrees.sum())
            heads = np.fromiter(
                (v for p in self._ports for v in p), dtype=np.int64,
                count=total,
            )
            tails = np.repeat(np.arange(n, dtype=np.int64), degrees)
            starts = np.repeat(np.cumsum(degrees) - degrees, degrees)
            keys = tails * n + heads
            order = np.argsort(keys)
            port = np.arange(total, dtype=np.int64) - starts
            self._link_index = (keys[order], port[order])
        keys, port = self._link_index
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        want = us * n + vs
        pos = np.searchsorted(keys, want)
        found = (vs >= 0) & (vs < n) & (pos < keys.size)
        found[found] = keys[pos[found]] == want[found]
        if not found.all():
            i = int(np.argmin(found))
            raise ValueError(f"{vs[i]} is not a neighbour of {us[i]}")
        return port[pos]
