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
README "Workload-aware presets" for how it is calibrated at reproduction
scale.

Substrates
----------
Every build goes through one :class:`repro.api.Substrate` handle: ball
families, ball-routing ports, Lemma 6 colorings, hitting sets, Lemma 4
landmark samples, bunch structures, TZ hierarchies and tree routings all
come from its memoized builders (``self.substrate``).  Comparative runs
(Table 1, the CLI, the benchmarks) pass one handle to several schemes on
the *same* graph, so each artifact is computed once per graph instead of
once per scheme.  A scheme built without a handle, or with its own
metric or ports, memoizes on a private handle over those artifacts.
Results are bit-identical either way: every artifact is a deterministic
function of the graph, the metric, the ports and the seed.

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
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Tuple,
)

from ..graph.core import Graph
from ..graph.metric import MetricView
from ..routing.ball_routing import BallRoutingTables
from ..routing.model import CompactRoutingScheme, SizedTable
from ..routing.ports import PortAssignment
from ..routing.tables import NodeTable, compile_tables
from ..routing.tree_routing import TreeRouting
from ..structures.balls import BallFamily, ball_size_parameter

if TYPE_CHECKING:
    from ..api.substrate import Substrate
    from ..baselines.hierarchy import SampledHierarchy

__all__ = ["SchemeBase"]


class SchemeBase(CompactRoutingScheme):
    """Common substrate construction for all schemes."""

    def __init__(
        self,
        graph: Graph,
        *,
        ports: Optional[PortAssignment] = None,
        metric: Optional[MetricView] = None,
        substrate: Optional[Substrate] = None,
    ) -> None:
        # imported here: repro.api imports the schemes
        from ..api.substrate import Substrate

        if graph.n == 0:
            raise ValueError("routing schemes need a nonempty graph")
        if substrate is not None:
            if substrate.graph is not graph:
                raise ValueError(
                    "substrate was built for a different graph object"
                )
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
            # Memoization is only sound against the handle's own
            # artifacts: with the caller's own metric or ports, memoize
            # on a private handle, so this one builds nothing against
            # artifacts the scheme does not use.
            if (
                metric is not substrate.built_metric
                or ports is not substrate.built_ports
            ):
                substrate = None
        if substrate is None:
            substrate = Substrate(
                graph,
                metric=metric if metric is not None else MetricView(graph),
                ports=ports if ports is not None else PortAssignment(graph),
            )
        self._substrate: Optional[Substrate] = substrate
        super().__init__(graph, substrate.built_ports)
        self.metric = substrate.built_metric
        if not self.metric.is_connected():
            raise ValueError("routing schemes require a connected graph")
        self._tables: List[SizedTable] = [
            SizedTable(u) for u in graph.vertices()
        ]
        self._labels: Dict[int, Any] = {}

    # ------------------------------------------------------------------
    @property
    def substrate(self) -> Optional[Substrate]:
        """The handle every substrate request of this build goes
        through: the caller's, or a private one (``None`` on a
        step-only scheme from :meth:`restore_serving`)."""
        return self._substrate

    def _build_balls(self, q: float, alpha: float) -> BallFamily:
        """Build the ball family ``B(u, q̃)`` with ``q̃ = alpha*q*log n``."""
        return self._substrate.ball_family(
            ball_size_parameter(self.graph.n, q, alpha)
        )

    def _install_ball_ports(
        self,
        family: BallFamily,
        tables: Optional[BallRoutingTables] = None,
    ) -> BallRoutingTables:
        """Install Lemma 2 first-edge ports (category ``"ball"``)."""
        if tables is None:
            tables = self._substrate.ball_tables(family.ell)
        for table in self._tables:
            tables.install(table)
        return tables

    def _cluster_trees(self, clusters: Any) -> Dict[int, TreeRouting]:
        """Tree routing over each nonempty ``clusters.cluster(w)`` (of a
        :class:`BunchStructure` or a TZ hierarchy), from its cluster
        scan's distances, memoized on the substrate: one batch per
        cluster structure."""
        roots = [w for w in range(self.graph.n) if clusters.cluster(w)]
        return dict(zip(roots, self._substrate.tree_routing(roots, clusters)))

    def _install_cluster_trees(self, clusters: Any, suffix: str = "") -> None:
        """Records of each cluster tree at its members (``ctree{suffix}``),
        the members' labels at its root (``clabel{suffix}``)."""
        for w, tree in self._cluster_trees(clusters).items():
            for v in clusters.cluster(w):
                self._tables[v].put(f"ctree{suffix}", w, tree.record_of(v))
                self._tables[w].put(f"clabel{suffix}", v, tree.label_of(v))

    def _install_tz_trees(
        self, hierarchy: SampledHierarchy, k: int
    ) -> List[Tuple[Tuple[int, Any], ...]]:
        """The Thorup–Zwick trees ``T(w)``: records at the members, and
        every ``u ∉ A_1`` keeps its own cluster's member labels.  Returns
        each ``v``'s ``(p_i(v), label of v in T(p_i(v)))`` for ``i < k``."""
        trees = self._cluster_trees(hierarchy)
        for w, tree in trees.items():
            for v in hierarchy.cluster(w):
                self._tables[v].put("tztree", w, tree.record_of(v))
        level1 = set(hierarchy.level(1))
        for u, tree in trees.items():
            if u not in level1:
                for v in hierarchy.cluster(u):
                    self._tables[u].put("c0label", v, tree.label_of(v))
        return [
            tuple((p, trees[p].label_of(v)) for p in (
                hierarchy.pivot(i, v) for i in range(k)
            ))
            for v in range(self.graph.n)
        ]

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
