"""The compile layer: a built scheme as per-vertex :class:`NodeTable` records.

A compact routing scheme's deployment unit is *one vertex's* state — the
paper's whole point is that each node stores ``o(n)`` words and forwards
using only that plus the packet header.  The in-memory scheme objects in
this repository, however, are monolithic: tables, labels, ports and the
graph live in one process.  This module compiles a built scheme into the
deployment shape:

* :class:`NodeTable` — everything vertex ``v`` ships with: its routing
  table (category -> key -> value, exactly the :class:`SizedTable`
  contents), its label, and its incident links in port order (neighbour
  id + edge weight), which is the fixed-port model's local knowledge,
* :meth:`repro.schemes.base.SchemeBase.compile_tables` — the per-scheme
  hook producing one record per vertex; each scheme declares the table
  categories its ``step`` function reads (:meth:`shard_categories`) and
  compilation cross-checks the built tables against that manifest, so a
  category added to preprocessing but unknown to the decision function
  (or vice versa) fails at compile time, not at serve time.

Word accounting is preserved exactly: ``NodeTable.table_words()`` equals
``SizedTable.total_words()`` of the source table, and summing over a
compiled scheme reproduces :class:`~repro.routing.model.SchemeStats` —
the reconciliation the shard tests assert for every registered scheme.
:mod:`repro.routing.shard_codec` packs these records into versioned
binary shards; :mod:`repro.routing.serving` loads and routes on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .model import CompactRoutingScheme, SizedTable, entries_words, words_of

__all__ = ["NodeTable", "compile_node_table", "compile_tables"]


@dataclass
class NodeTable:
    """One vertex's complete routing state — the unit a deployed node holds.

    ``neighbors`` lists the incident links in *port order*: entry ``p`` is
    ``(neighbour id, edge weight)`` of port ``p``.  That is exactly the
    local knowledge the fixed-port model grants a node (footnote 2 of the
    paper: a vertex may translate a neighbour id into the port leading to
    it), so a :class:`NodeTable` suffices to execute every ``step`` and to
    move the message across the returned port without any global state.
    """

    owner: int
    #: incident links in port order: ``neighbors[p] == (vertex, weight)``
    neighbors: Tuple[Tuple[int, float], ...]
    label: Any
    #: category -> key -> value, the :class:`SizedTable` contents
    categories: Dict[str, Dict[Any, Any]]
    _port_of: Optional[Dict[int, int]] = field(
        default=None, repr=False, compare=False
    )

    # -- fixed-port local knowledge ------------------------------------
    def degree(self) -> int:
        return len(self.neighbors)

    def neighbor(self, port: int) -> int:
        """The vertex at the other end of link ``port``."""
        if not 0 <= port < len(self.neighbors):
            raise ValueError(f"vertex {self.owner} has no port {port}")
        return self.neighbors[port][0]

    def edge(self, port: int) -> Tuple[int, float]:
        """``(neighbour, weight)`` of link ``port``."""
        if not 0 <= port < len(self.neighbors):
            raise ValueError(f"vertex {self.owner} has no port {port}")
        return self.neighbors[port]

    def port_to(self, v: int) -> int:
        """The port leading to neighbour ``v`` (footnote-2 translation)."""
        if self._port_of is None:
            self._port_of = {
                nb: p for p, (nb, _) in enumerate(self.neighbors)
            }
        try:
            return self._port_of[v]
        except KeyError:
            raise ValueError(
                f"{v} is not a neighbour of {self.owner}"
            ) from None

    # -- table views ----------------------------------------------------
    def sized_table(self) -> SizedTable:
        """The record's table as a :class:`SizedTable` (same accounting)."""
        table = SizedTable(self.owner)
        for cat, entries in self.categories.items():
            for key, value in entries.items():
                table.put(cat, key, value)
        return table

    # -- word accounting ------------------------------------------------
    def table_words(self) -> int:
        """Word count of the table contents (= ``SizedTable.total_words``)."""
        return sum(map(entries_words, self.categories.values()))

    def label_words(self) -> int:
        return words_of(self.label)


def compile_node_table(scheme: CompactRoutingScheme, v: int) -> NodeTable:
    """Compile vertex ``v``'s state out of a built (in-memory) scheme."""
    g = scheme.graph
    neighbors = tuple(
        (nb, g.weight(v, nb))
        for nb in (
            scheme.ports.neighbor(v, p)
            for p in range(scheme.ports.degree(v))
        )
    )
    table = scheme.table_of(v)
    categories = {
        cat: dict(table.category(cat)) for cat in table.categories()
    }
    return NodeTable(
        owner=v,
        neighbors=neighbors,
        label=scheme.label_of(v),
        categories=categories,
    )


def compile_tables(
    scheme: CompactRoutingScheme,
    *,
    allowed_categories: Optional[frozenset] = None,
) -> List[NodeTable]:
    """Compile every vertex of ``scheme`` into :class:`NodeTable` records.

    ``allowed_categories`` is the scheme's declared step-time manifest
    (see ``SchemeBase.shard_categories``); any built category outside it
    means the routing tables and the decision function have drifted apart
    and compilation refuses to ship the shard.
    """
    records = []
    for v in scheme.graph.vertices():
        record = compile_node_table(scheme, v)
        if allowed_categories is not None:
            unknown = set(record.categories) - allowed_categories
            if unknown:
                raise ValueError(
                    f"table of vertex {v} holds categories "
                    f"{sorted(unknown)} that {scheme.name!r} never "
                    f"declared in shard_categories(); step() could not "
                    f"read them — refusing to compile drifting state"
                )
        records.append(record)
    return records
