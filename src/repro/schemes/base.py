"""Shared plumbing for the paper's routing schemes.

Every scheme in this package follows the same life cycle:

1. build the shared substrates (exact metric, fixed ports, vicinity balls,
   ball first-edge ports),
2. build its specific structures (colorings, landmark sets, cluster trees,
   technique instances) and *install* everything into one
   :class:`SizedTable` per vertex,
3. expose labels and the local ``step`` decision function.

:class:`SchemeBase` implements the shared parts.  The ``alpha`` knob is the
paper's "large enough constant" in ``q̃ = alpha * q * log n``; see
DESIGN.md §4 for how it is calibrated at reproduction scale.

Substrate injection
-------------------
Comparative runs (Table 1, the CLI, the benchmarks) build several schemes
on the *same* graph.  Passing a :class:`repro.api.Substrate` handle makes
every substrate request — metric, ports, ball families, ball-routing
ports, Lemma 4 landmark samples, bunch structures, TZ hierarchies — go
through the handle's memoized builders, so identical artifacts are
computed once per graph instead of once per scheme.  Without a handle
each helper falls back to a cold local build; results are bit-identical
either way (every shared artifact is a deterministic function of the
graph and the seed).

Restore (serving)
----------------
A built scheme's routing state is tables + labels, persisted as
checksummed per-vertex packs (:mod:`repro.routing.serving`); the
decision function is code plus a few scalars.
:meth:`SchemeBase.restore_serving` reconstructs a step-only scheme over
the stored shards without re-running preprocessing: subclasses report
the scalars via :meth:`routing_params` and rebuild their step-time
helpers (technique steppers) in :meth:`_restore_routing`.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
)

from ..graph.core import Graph
from ..graph.metric import MetricView
from ..routing.ball_routing import BallRoutingTables
from ..routing.model import CompactRoutingScheme, SizedTable
from ..routing.ports import PortAssignment
from ..routing.tables import NodeTable, compile_tables
from ..routing.tree_routing import TreeRouting
from ..structures.balls import BallFamily, ball_size_parameter

__all__ = ["SchemeBase"]


class SchemeBase(CompactRoutingScheme):
    """Common substrate construction for all schemes."""

    def __init__(
        self,
        graph: Graph,
        *,
        ports: Optional[PortAssignment] = None,
        metric: Optional[MetricView] = None,
        substrate: Optional[Any] = None,
    ) -> None:
        if graph.n == 0:
            raise ValueError("routing schemes need a nonempty graph")
        if substrate is not None and substrate.graph is not graph:
            raise ValueError(
                "substrate was built for a different graph object"
            )
        self._substrate = substrate
        if substrate is not None:
            # Prefer the already-built artifacts: the facade's
            # ensure_core() does the hit/miss accounting, so adopting
            # here must not count the same request twice.
            if ports is None:
                ports = substrate.built_ports
                if ports is None:
                    ports = substrate.ports
            if metric is None:
                metric = substrate.built_metric
                if metric is None:
                    metric = substrate.metric
        ports = ports if ports is not None else PortAssignment(graph)
        super().__init__(graph, ports)
        self.metric = metric if metric is not None else MetricView(graph)
        if not self.metric.is_connected():
            raise ValueError("routing schemes require a connected graph")
        self._tables: List[SizedTable] = [
            SizedTable(u) for u in graph.vertices()
        ]
        self._labels: Dict[int, Any] = {}

    # ------------------------------------------------------------------
    def _substrate_applies(self) -> bool:
        """Substrate memoization is only sound against its own artifacts.

        Peeks at the handle's built artifacts — a scheme constructed with
        its *own* metric or ports must fall back to cold builds without
        tricking the handle into materializing artifacts nobody uses.
        """
        return (
            self._substrate is not None
            and self.metric is self._substrate.built_metric
            and self.ports is self._substrate.built_ports
        )

    def _build_balls(self, q: float, alpha: float) -> BallFamily:
        """Build the ball family ``B(u, q̃)`` with ``q̃ = alpha*q*log n``."""
        return self._ball_family_of_size(
            ball_size_parameter(self.graph.n, q, alpha)
        )

    def _ball_family_of_size(self, ell: int) -> BallFamily:
        """The family for an explicit ball size (memoized on a substrate)."""
        if self._substrate_applies():
            return self._substrate.ball_family(ell)
        return BallFamily(self.metric, ell)

    def _ball_port_tables(self, family: BallFamily) -> BallRoutingTables:
        """Lemma 2 first-edge ports of ``family`` (memoized per graph),
        for a target sweep to fill (:meth:`BallRoutingTables.fill_target`)
        or the first read to finish."""
        if self._substrate_applies() and self._substrate.owns_family(family):
            return self._substrate.ball_tables(family.ell)
        return BallRoutingTables(self.metric, family, self.ports)

    def _install_ball_ports(
        self,
        family: BallFamily,
        tables: Optional[BallRoutingTables] = None,
    ) -> BallRoutingTables:
        """Install Lemma 2 first-edge ports (category ``"ball"``)."""
        if tables is None:
            tables = self._ball_port_tables(family)
        for table in self._tables:
            tables.install(table)
        return tables

    def _find_coloring(
        self, family: BallFamily, q: int, seed: int
    ) -> List[int]:
        """Lemma 6 coloring over ``family``'s balls (memoized per graph)."""
        if self._substrate_applies() and self._substrate.owns_family(family):
            return self._substrate.coloring(family.ell, q, seed)
        from ..structures.coloring import find_coloring

        return find_coloring(family.balls(), self.graph.n, q, seed=seed)

    def _find_hash_coloring(
        self, family: BallFamily, q: int, seed: int
    ):
        """Name-independent hash coloring (memoized per graph)."""
        if self._substrate_applies() and self._substrate.owns_family(family):
            return self._substrate.hash_coloring(family.ell, q, seed)
        from ..structures.coloring import find_hash_coloring

        return find_hash_coloring(family.balls(), self.graph.n, q, seed=seed)

    def _ball_hitting_set(self, family: BallFamily) -> List[int]:
        """Greedy hitting set of ``family``'s balls (memoized per graph).

        Part of Technique 1's eps-independent state: the hitting set
        depends only on the balls, so parameter sweeps reuse it.
        """
        if self._substrate_applies() and self._substrate.owns_family(family):
            return self._substrate.hitting_set(family.ell)
        from ..structures.hitting_set import greedy_hitting_set

        return greedy_hitting_set(family.balls())

    def _global_tree_routing(self, root: int) -> TreeRouting:
        """Heavy-path routing over the full-graph SPT at ``root``.

        Memoized on the substrate under ``(root, None)`` — the same key
        landmark trees use, so Technique 1 hub trees, thm10's global
        landmark trees and parameter resweeps all share one build.
        ``_global_tree`` keeps the explicit disconnected-graph
        diagnostic even though ``__init__`` already rejects such graphs.
        """
        from ..core.technique1 import _global_tree

        return self._tree_routing(
            root, None, lambda: _global_tree(self.metric, root)
        )

    def _sample_landmarks(self, s: float, seed: int) -> List[int]:
        """Lemma 4 cluster-bounded landmark sample (memoized per graph)."""
        if self._substrate_applies():
            return self._substrate.landmark_sample(s, seed)
        from ..structures.sampling import sample_cluster_bounded

        return sample_cluster_bounded(self.metric, s, seed=seed)

    def _bunch_structure(self, landmarks: Sequence[int]):
        """Pivots/bunches/clusters for one landmark set (memoized)."""
        if self._substrate_applies():
            return self._substrate.bunch_structure(landmarks)
        from ..structures.bunches import BunchStructure

        return BunchStructure(self.metric, landmarks)

    def _sampled_hierarchy(self, k: int, seed: int):
        """TZ ``k``-level landmark hierarchy (memoized per graph)."""
        if self._substrate_applies():
            return self._substrate.hierarchy(k, seed)
        from ..baselines.hierarchy import SampledHierarchy

        return SampledHierarchy(self.metric, k, seed=seed)

    def _tree_routing(
        self,
        root: int,
        members: Optional[Iterable[int]],
        build_tree: Callable[[], Any],
    ) -> TreeRouting:
        """A :class:`TreeRouting` for the tree ``build_tree`` produces.

        Memoized on the substrate by ``(root, member set)`` —
        ``members=None`` means the full-graph SPT rooted at ``root``.
        Every caller's tree is a deterministic function of that key (a
        shortest-path tree restricted to the member set, with the shared
        metric's tie-breaking), so two schemes on one substrate that
        route over the same cluster or landmark tree build its heavy-path
        intervals once.  Cold builds without a substrate are unchanged.
        """
        if self._substrate_applies():
            return self._substrate.tree_routing(root, members, build_tree)
        return TreeRouting(build_tree(), self.ports)

    # ------------------------------------------------------------------
    def table_of(self, v: int) -> SizedTable:
        return self._tables[v]

    def label_of(self, v: int) -> Any:
        return self._labels[v]

    # ------------------------------------------------------------------
    # Persistence hooks
    # ------------------------------------------------------------------
    def routing_params(self) -> Dict[str, Any]:
        """JSON-able scalars the ``step`` function needs besides tables.

        Subclasses extend this with whatever :meth:`_restore_routing` reads
        back (``eps``, ``k``, ``ell`` ...).  Everything else a deployment
        needs already lives in the persisted tables and labels.
        """
        return {}

    def _restore_routing(self, params: Dict[str, Any]) -> None:
        """Rebuild step-time helpers from :meth:`routing_params` output."""

    # ------------------------------------------------------------------
    # Compile + serving hooks (sharded deployment)
    # ------------------------------------------------------------------
    def shard_categories(self) -> Optional[FrozenSet[str]]:
        """Table categories this scheme's ``step`` function may read.

        Each scheme declares its step-time manifest; compilation
        (:meth:`compile_tables`) rejects built tables holding categories
        outside it, catching preprocessing/decision-function drift before
        a shard ships.  ``None`` disables the check (no declaration).
        """
        return None

    def compile_tables(self) -> List[NodeTable]:
        """Compile this built scheme into per-vertex :class:`NodeTable`\\ s.

        The deployment shape: one record per vertex holding its table,
        label and port-ordered incident links — everything that vertex
        needs to execute ``step`` and move a message, and nothing else.
        Word accounting is preserved exactly (see
        :mod:`repro.routing.tables`).
        """
        return compile_tables(
            self, allowed_categories=self.shard_categories()
        )

    @classmethod
    def restore_serving(
        cls,
        *,
        ports: Any,
        tables: Any,
        labels: Any,
        params: Optional[Dict[str, Any]] = None,
        name: Optional[str] = None,
    ) -> "SchemeBase":
        """Reconstruct a *step-only* scheme over externally stored state.

        No graph and no full table list exist: ``tables``/``labels`` are
        indexable views (``obj[v]``) and ``ports`` needs only
        ``port_to(u, v)`` — exactly the surface the step functions and
        technique steppers touch.  The serving engine
        (:class:`repro.routing.serving.LocalRouter`) passes views that
        resolve each access from vertex ``u``'s shard alone, which is
        what makes the local-knowledge invariant testable: the scheme
        object physically has nothing but the current shard to read.
        """
        scheme = object.__new__(cls)
        scheme.graph = None
        scheme.ports = ports
        scheme._substrate = None
        scheme.metric = None
        scheme._tables = tables
        scheme._labels = labels
        if name is not None:
            scheme.name = name
        scheme._restore_routing(dict(params or {}))
        return scheme
