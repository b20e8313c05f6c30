"""Core abstractions of a labeled compact routing scheme.

A labeled compact routing scheme consists of

* a **routing table** per vertex (local memory, the quantity the paper's
  ``Õ(n^{1/3} log D)``-style bounds measure),
* a **label** per vertex (handed to anyone who wants to send to it),
* a **header** carried by the message (size bounded by the scheme),
* a local **decision function**: given the current vertex's table, the
  header and the destination label, output either *deliver* or a port plus
  the (possibly rewritten) header.

:class:`CompactRoutingScheme` captures this contract.  The decision function
receives only the current vertex id; implementations must restrict
themselves to ``self.table_of(u)``, the header, the destination label and
the neighbour-id-to-port translation — the simulator and tests rely on this
discipline (Python cannot physically sandbox it, but all schemes in this
repository are written against :class:`SizedTable` lookups only).

Space accounting
----------------
:class:`SizedTable` stores entries grouped by *category* (e.g. ``"ball"``,
``"tree-records"``, ``"sequences"``) and measures them in machine **words**
(ints/floats = 1 word, containers = sum of their items).  Word counts are
what the benchmarks report next to the paper's asymptotic bounds.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping

from ..graph.core import Graph
from .ports import PortAssignment

__all__ = [
    "words_of",
    "entries_words",
    "SizedTable",
    "Deliver",
    "Forward",
    "RouteAction",
    "CompactRoutingScheme",
    "SchemeStats",
    "aggregate_scheme_stats",
]


def words_of(value: Any) -> int:
    """Approximate storage cost of a value in machine words.

    Scalars cost one word; containers cost the sum of their contents;
    ``None`` and booleans cost nothing extra (they encode a flag inside an
    existing word in a real implementation).

    The exact types headers and tables hold (tuples of ints, strs and
    floats) are tested with ``type(value) is ...`` first and a tuple's
    leaves are counted inline; subclasses (``IntEnum``, ``np.float64``),
    lists, sets, dicts and ``.words()`` objects take the ``isinstance``
    chain below.
    """
    t = type(value)
    if t is tuple:
        words = 0
        for item in value:
            it = type(item)
            if it is int or it is str or it is float:
                words += 1
            elif item is not None and it is not bool:
                words += words_of(item)
        return words
    if t is int or t is str or t is float:
        return 1
    if value is None or isinstance(value, bool):
        return 0
    if isinstance(value, (int, float, str)):
        return 1
    if isinstance(value, (tuple, list, set, frozenset)):
        return sum(map(words_of, value))
    if isinstance(value, dict):
        return entries_words(value)
    if hasattr(value, "words"):
        return int(value.words())
    raise TypeError(f"cannot size value of type {type(value)!r}")


_INT_ONLY = {int}


def entries_words(entries: Mapping[Any, Any]) -> int:
    """Words of a mapping's keys plus its values (the dict rule of
    :func:`words_of`): a table category, or a dict inside a value.

    A mapping of exact ints to exact ints, the commonest category, costs
    two words an entry after one C-level pass over the types.
    """
    if {*map(type, entries), *map(type, entries.values())} <= _INT_ONLY:
        return 2 * len(entries)
    return sum(map(words_of, entries)) + sum(map(words_of, entries.values()))


#: what ``get``/``has`` read for a missing category: one shared empty
#: dict, never handed out, so never written
_NO_ENTRIES: Dict[Any, Any] = {}


class SizedTable:
    """A per-vertex routing table with word-accurate accounting by category."""

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self._data: Dict[str, Dict[Any, Any]] = {}

    def put(self, category: str, key: Any, value: Any) -> None:
        """Store ``value`` under ``key`` in ``category`` (overwrites)."""
        self._data.setdefault(category, {})[key] = value

    def put_many(self, category: str, entries: Mapping[Any, Any]) -> None:
        """:meth:`put` every item of ``entries``, in its order."""
        self._data.setdefault(category, {}).update(entries)

    def get(self, category: str, key: Any, default: Any = None) -> Any:
        """Look up ``key`` in ``category``."""
        return self._data.get(category, _NO_ENTRIES).get(key, default)

    def has(self, category: str, key: Any) -> bool:
        """Membership test for ``key`` in ``category``."""
        return key in self._data.get(category, _NO_ENTRIES)

    def category(self, category: str) -> Dict[Any, Any]:
        """The raw ``key -> value`` mapping of a category (may be empty)."""
        return self._data.get(category, {})

    def categories(self) -> List[str]:
        """All category names present in this table."""
        return list(self._data.keys())

    def words_by_category(self) -> Dict[str, int]:
        """Word count of every category (keys + values)."""
        return {
            cat: entries_words(entries) for cat, entries in self._data.items()
        }

    def total_words(self) -> int:
        """Total stored words across all categories."""
        return sum(self.words_by_category().values())


@dataclass(frozen=True)
class Deliver:
    """The message has arrived at its destination."""


@dataclass(frozen=True)
class Forward:
    """Forward the message on ``port`` with (possibly new) ``header``."""

    port: int
    header: Any


RouteAction = Deliver | Forward


@dataclass
class SchemeStats:
    """Space statistics of a built scheme."""

    name: str
    n: int
    max_table_words: int
    avg_table_words: float
    total_table_words: int
    max_label_words: int
    avg_label_words: float
    table_breakdown_max: Dict[str, int] = field(default_factory=dict)

    def row(self) -> str:
        """One paper-style text row."""
        return (
            f"{self.name:<28} n={self.n:<6} "
            f"table max={self.max_table_words:<8} avg={self.avg_table_words:<10.1f} "
            f"label max={self.max_label_words}"
        )


class CompactRoutingScheme(ABC):
    """Contract every routing scheme in this repository implements."""

    #: human-readable scheme name (used in benchmark tables)
    name: str = "abstract"

    def __init__(self, graph: Graph, ports: PortAssignment) -> None:
        self.graph = graph
        self.ports = ports

    # -- preprocessing products ---------------------------------------
    @abstractmethod
    def label_of(self, v: int) -> Any:
        """The (small) label of ``v`` that senders must know."""

    @abstractmethod
    def table_of(self, v: int) -> SizedTable:
        """The routing table stored at ``v``."""

    # -- distributed decision function --------------------------------
    @abstractmethod
    def step(self, u: int, header: Any, dest_label: Any) -> RouteAction:
        """Local routing decision at ``u``.

        ``header`` is ``None`` on the first call (at the source); the scheme
        initializes it then.  Implementations may consult only
        ``self.table_of(u)``, the arguments, and
        ``self.ports.port_to(u, neighbour_id)``.
        """

    # -- statistics -----------------------------------------------------
    def stats(self) -> SchemeStats:
        """Aggregate table/label sizes over all vertices."""
        return aggregate_scheme_stats(
            self.name,
            self.graph.n,
            (self.table_of(v) for v in self.graph.vertices()),
            (self.label_of(v) for v in self.graph.vertices()),
        )


def aggregate_scheme_stats(
    name: str,
    n: int,
    tables: Iterable[SizedTable],
    labels: Iterable[Any],
) -> SchemeStats:
    """One word-accounting aggregation for every table source.

    Both the in-memory schemes and the shard-serving engine report
    through this function, so the accounting formula (word counts,
    per-category maxima, averages) has a single definition — two
    implementations here would be exactly the drift the shard
    reconciliation checks exist to catch.
    """
    table_words = []
    breakdown_max: Dict[str, int] = {}
    for table in tables:
        by_category = table.words_by_category()
        table_words.append(sum(by_category.values()))
        for cat, w in by_category.items():
            breakdown_max[cat] = max(breakdown_max.get(cat, 0), w)
    label_words = [words_of(label) for label in labels]
    denom = max(n, 1)
    return SchemeStats(
        name=name,
        n=n,
        max_table_words=max(table_words, default=0),
        avg_table_words=sum(table_words) / denom,
        total_table_words=sum(table_words),
        max_label_words=max(label_words, default=0),
        avg_label_words=sum(label_words) / denom,
        table_breakdown_max=breakdown_max,
    )
