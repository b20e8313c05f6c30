"""Shared preprocessing substrates for multi-scheme builds.

The paper's experiments are comparative: Table 1 builds five schemes over
the *same* graph.  Every scheme starts from the same substrates — the
exact metric, the fixed-port numbering, vicinity balls ``B(u, q̃)`` with
their Lemma 2 first-edge ports, Lemma 4 landmark samples, bunch/cluster
structures and TZ hierarchies — and, before this module, each scheme
rebuilt all of them from scratch.

:class:`Substrate` is a per-graph handle with memoized builders for each
artifact; :class:`SubstrateCache` hands out one handle per graph.
:class:`repro.schemes.base.SchemeBase` accepts a handle via its
``substrate=`` keyword and routes every substrate request through it, so
``N`` schemes on one graph pay for each distinct artifact once.

Sharing is sound because every artifact is a deterministic pure function
of ``(graph, parameters, seed)`` — a cache hit returns exactly the object
a cold build would have produced (the substrate tests assert this), and
all artifacts are treated as immutable after construction.

Generation stamps
-----------------
Each handle carries a process-unique ``generation``; the metric and port
assignment it builds are stamped with it (``substrate_stamp``).  Tests
and benchmarks use the stamps to *prove* that a comparative run reused
one substrate instead of silently rebuilding per scheme.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..graph.core import Graph
from ..graph.metric import MetricView
from ..routing.ball_routing import BallRoutingTables
from ..routing.ports import PortAssignment
from ..routing.tree_routing import TreeRouting
from ..structures.balls import BallFamily

__all__ = ["Substrate", "SubstrateCache"]

#: process-wide generation counter for substrate stamps
_GENERATIONS = itertools.count(1)


class Substrate:
    """Memoized substrate builders for one graph.

    Parameters
    ----------
    graph:
        The graph every built artifact belongs to.
    metric, ports:
        Optional pre-built artifacts to adopt (e.g. a metric with its own
        ``cache_rows`` or a shuffled adversarial port numbering); built on
        first use otherwise.
    ports_seed:
        Seed for the port numbering when ``ports`` is not given
        (``None`` = deterministic adjacency order).
    """

    def __init__(
        self,
        graph: Graph,
        *,
        metric: Optional[MetricView] = None,
        ports: Optional[PortAssignment] = None,
        ports_seed: Optional[int] = None,
    ) -> None:
        self.graph = graph
        self.generation = next(_GENERATIONS)
        self._ports_seed = ports_seed
        self._metric = metric
        self._ports = ports
        if metric is not None:
            self._stamp(metric)
        if ports is not None:
            self._stamp(ports)
        self._families: Dict[int, BallFamily] = {}
        self._ball_tables: Dict[int, BallRoutingTables] = {}
        self._colorings: Dict[Tuple[str, int, int, int], object] = {}
        self._hitting: Dict[int, List[int]] = {}
        self._landmarks: Dict[Tuple[float, int], List[int]] = {}
        self._bunches: Dict[Tuple[int, ...], object] = {}
        self._hierarchies: Dict[Tuple[int, int], object] = {}
        self._trees: Dict[
            Tuple[int, Optional[Tuple[int, ...]]], TreeRouting
        ] = {}
        #: per-artifact build seconds and hit counts, for the harness
        self.build_seconds: Dict[str, float] = {}
        self.hits: Dict[str, int] = {}
        self.misses: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def _stamp(self, artifact: object) -> None:
        # An adopted artifact may carry another handle's stamp already —
        # overwriting it would forge provenance (the stamps exist to
        # prove *which* substrate built an artifact), so first stamp wins.
        if getattr(artifact, "substrate_stamp", None) is None:
            artifact.substrate_stamp = self.generation  # type: ignore[attr-defined]

    def _account(self, kind: str, hit: bool, seconds: float = 0.0) -> None:
        bucket = self.hits if hit else self.misses
        bucket[kind] = bucket.get(kind, 0) + 1
        if not hit:
            self.build_seconds[kind] = (
                self.build_seconds.get(kind, 0.0) + seconds
            )

    # ------------------------------------------------------------------
    @property
    def built_metric(self) -> Optional[MetricView]:
        """The metric if already built (no build, no accounting)."""
        return self._metric

    @property
    def built_ports(self) -> Optional[PortAssignment]:
        """The port assignment if already built (no build, no accounting)."""
        return self._ports

    def _get_metric(self) -> MetricView:
        """Internal access: builds if missing, never counts as a hit.

        The hit counters measure *cross-scheme* reuse; a builder on this
        handle touching its own metric is not reuse and must not inflate
        the persisted stats.
        """
        if self._metric is None:
            t0 = time.perf_counter()
            self._metric = MetricView(self.graph)
            self._account("metric", False, time.perf_counter() - t0)
            self._stamp(self._metric)
        return self._metric

    def _get_ports(self) -> PortAssignment:
        """Internal access counterpart of :meth:`_get_metric`."""
        if self._ports is None:
            t0 = time.perf_counter()
            self._ports = PortAssignment(self.graph, seed=self._ports_seed)
            self._account("ports", False, time.perf_counter() - t0)
            self._stamp(self._ports)
        return self._ports

    @property
    def metric(self) -> MetricView:
        """The shared exact-distance oracle (built on first use)."""
        hit = self._metric is not None
        metric = self._get_metric()
        if hit:
            self._account("metric", True)
        return metric

    @property
    def ports(self) -> PortAssignment:
        """The shared fixed-port numbering (built on first use)."""
        hit = self._ports is not None
        ports = self._get_ports()
        if hit:
            self._account("ports", True)
        return ports

    def ensure_core(self) -> "Substrate":
        """Force the metric and ports to exist (the facade times this).

        Accounts exactly like a property access — a warm handle records
        a hit per artifact — so with :class:`SchemeBase` adopting the
        built artifacts stamp-only, the persisted hit counts equal the
        number of *subsequent* facade builds that reused the substrate.
        """
        for kind, built in (("metric", self._metric), ("ports", self._ports)):
            if built is not None:
                self._account(kind, True)
        self._get_metric()
        self._get_ports()
        return self

    # ------------------------------------------------------------------
    def ball_family(self, ell: int) -> BallFamily:
        """``B(u, ell)`` for every vertex, one build per distinct ``ell``."""
        ell = max(1, min(int(ell), self.graph.n))
        family = self._families.get(ell)
        if family is None:
            metric = self._get_metric()
            t0 = time.perf_counter()
            family = BallFamily(metric, ell)
            self._families[ell] = family
            self._account("balls", False, time.perf_counter() - t0)
        else:
            self._account("balls", True)
        return family

    def owns_family(self, family: BallFamily) -> bool:
        """Whether ``family`` came out of this handle (memoization is only
        valid against the handle's own artifacts)."""
        return self._families.get(family.ell) is family

    def ball_tables(self, ell: int) -> BallRoutingTables:
        """Lemma 2 first-edge ports for the ``ell``-ball family.

        Built unfilled: a scheme fills them inside its own target sweep
        (:meth:`BallRoutingTables.fill_target`), and every reader
        finishes them first, so a memoized handle is never read half
        filled.
        """
        ell = max(1, min(int(ell), self.graph.n))
        tables = self._ball_tables.get(ell)
        if tables is None:
            # Resolve dependencies outside the timed region so a nested
            # family build is not double-counted into "ball_ports".
            metric = self._get_metric()
            family = self.ball_family(ell)
            ports = self._get_ports()
            t0 = time.perf_counter()
            tables = BallRoutingTables(metric, family, ports)
            self._ball_tables[ell] = tables
            self._account("ball_ports", False, time.perf_counter() - t0)
        else:
            self._account("ball_ports", True)
        return tables

    def coloring(self, ell: int, q: int, seed: int) -> List[int]:
        """Lemma 6 coloring of the ``ell``-ball family with ``q`` colors.

        Memoized on ``(ell, q, seed)`` — the coloring is a deterministic
        function of the balls and the seed, and PR 4 profiling showed the
        repair/verify loop (not cluster trees) dominates thm10's marginal
        build, so a multi-scheme run or an eps-resweep pays for it once.
        """
        ell = max(1, min(int(ell), self.graph.n))
        key = ("lemma6", ell, int(q), int(seed))
        colors = self._colorings.get(key)
        if colors is None:
            from ..structures.coloring import find_coloring

            family = self.ball_family(ell)
            t0 = time.perf_counter()
            colors = find_coloring(
                family.balls(), self.graph.n, q, seed=seed
            )
            self._colorings[key] = colors
            self._account("coloring", False, time.perf_counter() - t0)
        else:
            self._account("coloring", True)
        return list(colors)

    def hash_coloring(
        self, ell: int, q: int, seed: int
    ) -> Tuple[int, List[int]]:
        """Name-independent Lemma 6 hash coloring (memoized like
        :meth:`coloring`); returns ``(hash_seed, colors)``."""
        ell = max(1, min(int(ell), self.graph.n))
        key = ("hash", ell, int(q), int(seed))
        entry = self._colorings.get(key)
        if entry is None:
            from ..structures.coloring import find_hash_coloring

            family = self.ball_family(ell)
            t0 = time.perf_counter()
            entry = find_hash_coloring(
                family.balls(), self.graph.n, q, seed=seed
            )
            self._colorings[key] = entry
            self._account("coloring", False, time.perf_counter() - t0)
        else:
            self._account("coloring", True)
        hash_seed, colors = entry
        return hash_seed, list(colors)

    def hitting_set(self, ell: int) -> List[int]:
        """Greedy Lemma 5 hitting set of the ``ell``-ball family.

        The eps-*independent* half of Technique 1's state: the hitting
        set (and the global trees rooted at it, shared through
        :meth:`tree_routing`) depend only on the balls, so an eps-sweep
        of a Technique 1 scheme rebuilds neither.
        """
        ell = max(1, min(int(ell), self.graph.n))
        hitting = self._hitting.get(ell)
        if hitting is None:
            from ..structures.hitting_set import greedy_hitting_set

            family = self.ball_family(ell)
            t0 = time.perf_counter()
            hitting = greedy_hitting_set(family.balls())
            self._hitting[ell] = hitting
            self._account("hitting", False, time.perf_counter() - t0)
        else:
            self._account("hitting", True)
        return list(hitting)

    def landmark_sample(self, s: float, seed: int) -> List[int]:
        """Lemma 4 cluster-bounded sample (memoized on ``(s, seed)``)."""
        key = (round(float(s), 9), int(seed))
        sample = self._landmarks.get(key)
        if sample is None:
            from ..structures.sampling import sample_cluster_bounded

            t0 = time.perf_counter()
            sample = sample_cluster_bounded(self._get_metric(), s, seed=seed)
            self._landmarks[key] = sample
            self._account("landmarks", False, time.perf_counter() - t0)
        else:
            self._account("landmarks", True)
        return list(sample)

    def bunch_structure(self, landmarks: Sequence[int]):
        """Pivots/bunches/clusters for one landmark set (memoized)."""
        key = tuple(sorted(set(int(v) for v in landmarks)))
        bunches = self._bunches.get(key)
        if bunches is None:
            from ..structures.bunches import BunchStructure

            t0 = time.perf_counter()
            bunches = BunchStructure(self._get_metric(), key)
            self._bunches[key] = bunches
            self._account("bunches", False, time.perf_counter() - t0)
        else:
            self._account("bunches", True)
        return bunches

    def tree_routing(
        self,
        root: int,
        members: Optional[Iterable[int]],
        build_tree: Callable[[], object],
    ) -> TreeRouting:
        """Heavy-path tree routing for one (cluster or landmark) tree.

        Memoized on ``(root, member set)``; ``members=None`` keys the
        full-graph SPT at ``root``.  Every caller's tree is the
        deterministic shortest-path tree of that key (restricted to the
        member set, computed against this handle's metric with its fixed
        tie-breaking), so the heavy-path intervals, records and labels
        are identical no matter which scheme asks first — cluster trees
        are the dominant per-scheme rebuild the ROADMAP follow-up (a)
        calls out (thm10's marginal build is mostly this).
        """
        key = (
            int(root),
            None if members is None else tuple(sorted(members)),
        )
        tree = self._trees.get(key)
        if tree is None:
            ports = self._get_ports()
            t0 = time.perf_counter()
            tree = TreeRouting(build_tree(), ports)
            self._trees[key] = tree
            self._account("trees", False, time.perf_counter() - t0)
        else:
            self._account("trees", True)
        return tree

    def hierarchy(self, k: int, seed: int):
        """TZ ``k``-level sampled hierarchy (memoized on ``(k, seed)``)."""
        key = (int(k), int(seed))
        hierarchy = self._hierarchies.get(key)
        if hierarchy is None:
            from ..baselines.hierarchy import SampledHierarchy

            t0 = time.perf_counter()
            hierarchy = SampledHierarchy(self._get_metric(), k, seed=seed)
            self._hierarchies[key] = hierarchy
            self._account("hierarchy", False, time.perf_counter() - t0)
        else:
            self._account("hierarchy", True)
        return hierarchy

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-artifact hit/miss counts and cold-build seconds."""
        kinds = (
            set(self.hits) | set(self.misses) | set(self.build_seconds)
        )
        return {
            kind: {
                "hits": self.hits.get(kind, 0),
                "misses": self.misses.get(kind, 0),
                "build_seconds": round(self.build_seconds.get(kind, 0.0), 6),
            }
            for kind in sorted(kinds)
        }

    def __repr__(self) -> str:
        built = []
        if self._metric is not None:
            built.append("metric")
        if self._ports is not None:
            built.append("ports")
        if self._families:
            built.append(f"balls×{len(self._families)}")
        return (
            f"Substrate(gen={self.generation}, {self.graph!r}, "
            f"built=[{', '.join(built)}])"
        )


class SubstrateCache:
    """One :class:`Substrate` handle per graph.

    Keyed on graph *identity and version*: mutating a graph (adding an
    edge) retires its old handle, so stale substrates can never leak into
    a build.  The cache holds strong references — scope it to a
    comparative run, not to a process.
    """

    def __init__(self, *, ports_seed: Optional[int] = None) -> None:
        self._ports_seed = ports_seed
        self._entries: Dict[int, Tuple[int, Graph, Substrate]] = {}

    def substrate(self, graph: Graph) -> Substrate:
        """The handle for ``graph`` (created on first request)."""
        version = getattr(graph, "_version", 0)
        entry = self._entries.get(id(graph))
        # The stored graph reference also keeps the id stable.
        if entry is not None and entry[0] == version and entry[1] is graph:
            return entry[2]
        handle = Substrate(graph, ports_seed=self._ports_seed)
        self._entries[id(graph)] = (version, graph, handle)
        return handle

    def __len__(self) -> int:
        return len(self._entries)
