"""Benchmark-side spans: timing shims around calls into each layer.

Nothing here edits the library.  Spans are recorded from outside, by
replacing methods on the *instances* the benchmark hands to the library
(a ``Substrate``, a built scheme) and by proxies passed where the
library accepts an object (a shard store given to ``LocalRouter``, an
engine given to ``simulator.route``).  Every span has a name, start,
end, parent and the request (build rep, route, batch) it belongs to;
spans stay in memory and are written with the run's ``--json`` record.
A setup subprocess's per-name sums are merged in with :meth:`merge`.

A span's *self time* is its duration minus the time its child spans
cover, so nested layers are never counted twice.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: spans kept verbatim per run; beyond it only the per-name aggregates
#: grow (a serving run makes millions of store lookups)
MAX_KEPT_SPANS = 20000


class Tracer:
    """Nested ``perf_counter`` spans with per-name count/total/self sums."""

    def __init__(self) -> None:
        #: open spans: [name, start, child_seconds, span_id]
        self._stack: List[List[Any]] = []
        self._next_id = 0
        #: the request id new spans are tagged with
        self.request = 0
        #: name -> [count, total_seconds, self_seconds]
        self.totals: Dict[str, List[float]] = {}
        #: (id, parent id or -1, request, name, start, end)
        self.spans: List[Tuple[int, int, int, str, float, float]] = []

    def new_request(self) -> None:
        """Tag the spans that follow with a fresh request id."""
        self.request += 1

    def begin(self, name: str = "") -> None:
        self._stack.append([name, perf_counter(), 0.0, self._next_id])
        self._next_id += 1

    def end(self, name: Optional[str] = None) -> None:
        """Close the innermost span (``name`` renames it)."""
        stop = perf_counter()
        label, start, children, span_id = self._stack.pop()
        if name is not None:
            label = name
        duration = stop - start
        entry = self.totals.get(label)
        if entry is None:
            entry = self.totals[label] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - children
        parent = -1
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append(
                (span_id, parent, self.request, label, start, stop)
            )

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def shim(self, obj: Any, attr: str, name: str) -> None:
        """Time every call of ``obj.attr`` (an instance-level override)."""
        setattr(obj, attr, self.wrap(getattr(obj, attr), name))

    def merge(self, totals: Dict[str, List[float]]) -> None:
        """Add another tracer's per-name ``[count, total, self]`` sums."""
        for name, sums in totals.items():
            entry = self.totals.setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(sums):
                entry[i] += value

    def count(self, name: str) -> int:
        entry = self.totals.get(name)
        return int(entry[0]) if entry else 0

    def total(self, name: str) -> float:
        entry = self.totals.get(name)
        return entry[1] if entry else 0.0

    def self_time(self, name: str) -> float:
        entry = self.totals.get(name)
        return entry[2] if entry else 0.0

    def record(self) -> Dict[str, Any]:
        """JSON-able dump: aggregates plus the kept spans."""
        return {
            "totals": {
                name: {"count": int(c), "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.totals.items())
            },
            "spans": [
                {
                    "id": i, "parent": p, "request": r, "name": n,
                    "start": a, "end": b,
                }
                for i, p, r, n, a, b in self.spans
            ],
            "spans_dropped": max(0, self._next_id - len(self.spans)),
        }


#: Substrate builders thm10/thm11 use and the layer span each records
SUBSTRATE_SHIMS = (
    ("ball_family", "substrate.balls"),
    ("ball_tables", "substrate.ball_ports"),
    ("coloring", "substrate.coloring"),
    ("hitting_set", "substrate.hitting"),
    ("landmark_sample", "substrate.landmarks"),
    ("bunch_structure", "substrate.bunches"),
    ("tree_routing", "substrate.trees"),
)


def shim_substrate(tracer: Tracer, substrate: Any) -> None:
    """Spans on every memoized builder of one ``Substrate`` instance.

    The builders call each other through ``self``, so a nested build
    (``ball_tables`` needing ``ball_family``) becomes a child span.
    """
    tracer.shim(substrate, "ensure_core", "graph.ensure_core")
    for attr, name in SUBSTRATE_SHIMS:
        tracer.shim(substrate, attr, name)


def shim_scheme(tracer: Tracer, scheme: Any) -> None:
    """Spans on the compile and accounting calls ``write_shards`` makes."""
    tracer.shim(scheme, "compile_tables", "routing.compile_tables")
    tracer.shim(scheme, "stats", "routing.scheme_stats")


class TracedStore:
    """A shard store proxy for ``LocalRouter(store)``.

    Times every ``node(v)`` lookup and names the span by what the
    store's public ``loads`` counter says happened: a miss decodes a
    shard, a hit returns the resident record.
    """

    def __init__(self, store: Any, tracer: Tracer) -> None:
        self._store = store
        self._tracer = tracer

    def node(self, v: int) -> Any:
        store = self._store
        loads = store.loads
        self._tracer.begin()
        try:
            return store.node(v)
        finally:
            self._tracer.end(
                "serving.node_miss" if store.loads != loads
                else "serving.node_hit"
            )

    def __getattr__(self, name: str) -> Any:
        return getattr(self._store, name)


class TracedEngine:
    """An engine proxy for ``simulator.route``: spans on the three
    engine calls, so the route span's self time is the simulator loop."""

    def __init__(self, engine: Any, tracer: Tracer) -> None:
        self.n = engine.n
        self.step = tracer.wrap(engine.step, "serving.step")
        self.label_of = tracer.wrap(engine.label_of, "serving.label")
        self.local_edge = tracer.wrap(
            engine.local_edge, "serving.local_edge"
        )
