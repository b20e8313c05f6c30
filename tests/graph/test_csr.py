"""Differential tests: CSR kernel vs pure Python (scipy as an outside check).

The CSR kernel must be a *drop-in* replacement for the pure-Python
shortest-path substrate: identical distances, identical ball memberships
and — crucially for the paper's Section 2 total order — identical
``(dist, id)`` ball *order*.  These tests pin that equivalence on random
weighted and unweighted graphs for both batched ball engines (the
delta-stepping sweep and the unit-weight BFS sweep), serial and under the
multiprocess tier.

``MetricView`` rows are the *forward* single-source rows: they equal an
all-pairs reference computed in the test (forward ``dijkstra_py`` rows,
or scipy's ``directed=False`` matrix) exactly.  Structures built on the
view are compared between the kernel's bounded engine and
``REPRO_KERNEL=pure``, which filters full rows.
"""

import math

import numpy as np
import pytest

from repro.graph import parallel
from repro.graph.core import Graph
from repro.graph.csr import CSRGraph, cached_csr_graph, csr_graph
from repro.graph.generators import (
    erdos_renyi,
    grid,
    random_geometric,
    with_random_weights,
)
from repro.graph.metric import MetricView
from repro.graph.shortest_paths import (
    _ball_radius_py,
    all_balls,
    bounded_distance,
    bounded_distance_py,
    dijkstra_py,
    reset_kernel_choice,
    truncated_dijkstra_py,
    use_kernel,
)
from repro.graph.trees import cluster_parents
from repro.structures.bunches import BunchStructure
from sp_reference import (
    distance_to_set,
    subgraph_dijkstra_py,
    threshold_reference,
)


def _graphs():
    """Random weighted and unweighted graphs of a few shapes."""
    gs = []
    for seed in (1, 5):
        g = erdos_renyi(50, 0.12, seed=seed)
        gs.append(("er-unweighted", g))
        gs.append(("er-weighted", with_random_weights(g, seed=seed + 50)))
    gs.append(("grid", grid(6, 7)))
    gs.append(("geometric-weighted", random_geometric(60, 0.25, seed=3)))
    gs.append(("sparse-disconnected", erdos_renyi(60, 0.03, seed=11)))
    return gs


GRAPHS = _graphs()


def _pure(build):
    """``build()`` under ``REPRO_KERNEL=pure``: every distance row from
    ``dijkstra_py``, every bounded scan a filtered full row."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_KERNEL", "pure")
        reset_kernel_choice()
        out = build()
    reset_kernel_choice()
    return out


def _pure_balls(g, ell, tol):
    """Balls and radii from :func:`all_balls` on the pure dispatch path."""
    return _pure(lambda: all_balls(g, ell, tol=tol, with_radii=True))


def _apsp(g):
    """The test-side all-pairs reference: forward ``dijkstra_py`` rows."""
    return np.array([dijkstra_py(g, u)[0] for u in range(g.n)], dtype=float)


@pytest.fixture(params=GRAPHS, ids=[name for name, _ in GRAPHS])
def graph(request):
    return request.param[1]


class TestKernelAvailability:
    def test_kernel_active_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert use_kernel()

    def test_env_override_forces_pure(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "pure")
        reset_kernel_choice()
        assert not use_kernel()
        g = erdos_renyi(20, 0.2, seed=1)
        # the row dispatch still returns correct results on the pure path
        assert MetricView(g).row(0).tolist() == dijkstra_py(g, 0)[0]

    def test_choice_cached_until_reset(self, monkeypatch):
        """A mid-run env mutation must NOT flip the resolved dispatch
        (satellite: no mixed kernel/pure results within one build)."""
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert use_kernel()
        monkeypatch.setenv("REPRO_KERNEL", "pure")
        assert use_kernel()  # still the cached kernel choice
        reset_kernel_choice()
        assert not use_kernel()  # the hook re-reads the environment

    def test_csr_cache_invalidated_by_mutation(self):
        g = erdos_renyi(20, 0.2, seed=2)
        k1 = csr_graph(g)
        assert csr_graph(g) is k1
        assert cached_csr_graph(g) is k1
        u, v = next((u, v) for u in range(20) for v in range(20)
                    if u != v and not g.has_edge(u, v))
        g.add_edge(u, v, 1.0)
        assert cached_csr_graph(g) is None
        k2 = csr_graph(g)
        assert k2 is not k1
        assert k2.m == k1.m + 1


class TestDijkstraAgreement:
    """The kernel's rows (the all-``inf`` threshold scan) and trees (hop
    columns) against the pure ``dijkstra_py`` reference."""

    def test_distances_and_parents_identical(self, graph):
        kernel = csr_graph(graph)
        m = MetricView(graph)
        sources = list(range(0, graph.n, 7))
        for source, row in zip(sources, kernel.rows(sources)):
            dist_py, parent_py = dijkstra_py(graph, source)
            assert row.tolist() == dist_py  # bitwise, not approx
            expect = {v: p for v, p in enumerate(parent_py) if p is not None}
            expect[source] = source
            assert m.spt_parents(source) == expect

    def test_dispatch_matches_pure(self, graph):
        rows = MetricView(graph).rows([0])
        assert np.array_equal(
            _pure(lambda: MetricView(graph).rows([0])), rows
        )


class TestTruncatedAgreement:
    """The kernel's batched balls are the pure per-source balls."""

    @pytest.mark.parametrize("ell", [1, 2, 7, 23, 1000])
    def test_ball_and_order_identical(self, graph, ell):
        kernel = csr_graph(graph)
        balls, _ = kernel.all_balls(ell)
        for source in range(0, graph.n, 9):
            ball_py, dist_py = truncated_dijkstra_py(graph, source, ell)
            assert balls[source] == ball_py  # same members, same order
            dist_k = kernel.rows([source])[0]
            assert {v: dist_k[v] for v in ball_py} == dist_py

    def test_dispatch_matches_pure(self, graph):
        balls, _ = all_balls(graph, 9)
        assert balls[0] == truncated_dijkstra_py(graph, 0, 9)[0]


class TestAllBallsAgreement:
    """Every all_balls path returns the pure reference exactly."""

    @pytest.mark.parametrize("ell", [1, 4, 13, 40])
    def test_all_paths_identical(self, graph, ell):
        tol = 1e-9
        ref = _pure_balls(graph, ell, tol)
        kernel = csr_graph(graph)
        engines = [None, "delta"]
        if kernel.is_unweighted():
            engines.append("bfs")
        for engine in engines:
            got = kernel.all_balls(
                ell, tol=tol, with_radii=True, engine=engine
            )
            assert got == ref, engine
        assert all_balls(graph, ell, tol=tol, with_radii=True) == ref

    def test_zero_ell_same_on_every_path(self, graph, monkeypatch):
        n = graph.n
        expect = ([[] for _ in range(n)], [0.0] * n)
        assert all_balls(graph, 0, with_radii=True) == expect
        monkeypatch.setenv("REPRO_KERNEL", "pure")
        reset_kernel_choice()
        assert all_balls(graph, 0, with_radii=True) == expect
        monkeypatch.delenv("REPRO_KERNEL")
        reset_kernel_choice()
        assert MetricView(graph).all_balls(0) == expect

    def test_bfs_path_forced(self):
        g = erdos_renyi(300, 0.02, seed=8)  # unit weights -> BFS sweep
        kernel = csr_graph(g)
        assert kernel.is_unweighted()
        ell = 20
        ref_balls = []
        ref_radii = []
        for u in g.vertices():
            ball, dist = truncated_dijkstra_py(g, u, ell)
            ref_balls.append(ball)
            ref_radii.append(_ball_radius_py(g, ball, dist, 1e-9))
        got, radii = kernel.all_balls(ell, tol=1e-9, with_radii=True)
        assert got == ref_balls
        assert radii == ref_radii


def _pivots(metric, sources):
    """``(p_A(v), d(v, A))`` for every vertex, from :class:`BunchStructure`
    — the one implementation of the paper's nearest-source rule."""
    bs = BunchStructure(metric, sources)
    return (
        [bs.pivot(v) for v in range(metric.n)],
        [bs.distance_to_landmarks(v) for v in range(metric.n)],
    )


class TestMultiSourceAgreement:
    """``p_A(v)``: kernel and pure dispatch agree, duplicates are inert."""

    def test_identical(self, graph, monkeypatch):
        sources = [0, graph.n // 3, graph.n - 1]
        kernel = _pivots(MetricView(graph), sources)
        monkeypatch.setenv("REPRO_KERNEL", "pure")
        reset_kernel_choice()
        assert _pivots(MetricView(graph), sources) == kernel

    def test_duplicate_sources(self, graph):
        """Deduplication: repeated sources change nothing (satellite)."""
        m = MetricView(graph)
        sources = [0, graph.n // 2, graph.n // 2, 0, 0]
        assert _pivots(m, sources) == _pivots(m, [0, graph.n // 2])


class TestBoundedDistanceAgreement:
    @pytest.mark.parametrize("limit", [0.5, 2.0, 7.5, float("inf")])
    def test_identical(self, graph, limit):
        kernel = csr_graph(graph)
        for s, t in [(0, graph.n - 1), (1, graph.n // 2), (3, 3)]:
            assert kernel.bounded_distance(
                s, t, limit
            ) == bounded_distance_py(graph, s, t, limit)

    def test_dispatch_uses_cached_kernel_only(self):
        g = erdos_renyi(30, 0.15, seed=4)
        assert cached_csr_graph(g) is None
        # no cached kernel -> pure path, still correct
        assert bounded_distance(g, 0, 5, 100.0) == bounded_distance_py(
            g, 0, 5, 100.0
        )
        csr_graph(g)
        assert bounded_distance(g, 0, 5, 100.0) == bounded_distance_py(
            g, 0, 5, 100.0
        )


class TestSubgraphDijkstra:
    """Cluster-tree parents (``cluster_parents`` over a threshold scan's
    members and distances) equal the induced-subgraph Dijkstra reference
    (``tests/sp_reference.py``)."""

    def test_closed_set_matches_global_distances(self):
        g = with_random_weights(erdos_renyi(40, 0.15, seed=6), seed=7)
        dist_py, _ = dijkstra_py(g, 0)
        # A shortest-path-closed set toward 0: the 12 closest vertices.
        members, _ = truncated_dijkstra_py(g, 0, 12)
        dist, parent = subgraph_dijkstra_py(g, 0, members)
        for v in members:
            assert dist[v] == dist_py[v]
            assert parent[v] in members
        members = sorted(members)
        assert cluster_parents(
            g, 0, members, [dist_py[v] for v in members]
        ) == parent

    def test_kernel_matches_pure_reference(self, graph):
        import random as _random

        rng = _random.Random(graph.n)
        landmarks = rng.sample(range(graph.n), max(1, graph.n // 8))
        thr = distance_to_set(graph, landmarks)
        m = MetricView(graph)
        clusters = 0
        for w, verts, dists in m.iter_bounded_rows(thr):
            if not verts.size:
                continue
            clusters += 1
            dist, parent = subgraph_dijkstra_py(graph, w, verts.tolist())
            assert cluster_parents(
                graph, w, verts.tolist(), dists.tolist()
            ) == parent
            assert [dist[v] for v in verts.tolist()] == dists.tolist()
        assert clusters > 0

    def test_absorbed_ties_match_reference(self):
        """Weights from {1e20, 1, 2}: past the first heavy edge float
        addition absorbs the light ones, so tight edges join vertices at
        equal distance and the parent depends on the settle order."""
        import random as _random

        absorbed = 0
        for seed in range(6):
            rng = _random.Random(seed)
            base = erdos_renyi(30, 0.15, seed=seed)
            g = Graph.from_edges(
                base.n,
                [
                    (u, v, rng.choice((1e20, 1.0, 2.0)))
                    for u, v, _ in base.edges()
                ],
            )
            thr = np.full(g.n, np.inf)
            for w, verts, dists in MetricView(g).iter_bounded_rows(thr):
                members = verts.tolist()
                dist, parent = subgraph_dijkstra_py(g, w, members)
                got = cluster_parents(g, w, members, dists.tolist())
                assert got == parent
                absorbed += sum(
                    1 for v, p in got.items()
                    if v != p and dist[v] == dist[p]
                )
        assert absorbed > 0

    def test_root_not_member_raises(self):
        g = grid(3, 3)
        with pytest.raises(ValueError):
            cluster_parents(g, 0, [1, 2], [1.0, 2.0])
        with pytest.raises(ValueError):
            subgraph_dijkstra_py(g, 0, [1, 2])

    def test_distance_closed_set_accepted_on_both_paths(self, monkeypatch):
        """Diamond: 3's smallest-id tight predecessor (1) is outside the
        member set, but {0,2,3} realizes all its shortest paths
        internally, so its tree is {3: 2}; the whole-graph scan (inf
        thresholds) ties 3 to 1 under both dispatch paths."""
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert cluster_parents(g, 0, [0, 2, 3], [0.0, 1.0, 2.0]) == {
            0: 0, 2: 0, 3: 2,
        }

        def whole():
            _, verts, dists = next(
                MetricView(g).iter_bounded_rows(np.full(4, np.inf), [0])
            )
            return cluster_parents(g, 0, verts.tolist(), dists.tolist())

        expect = {0: 0, 1: 0, 2: 0, 3: 1}
        assert whole() == expect
        monkeypatch.setenv("REPRO_KERNEL", "pure")
        reset_kernel_choice()
        assert whole() == expect


class TestMetricModesAgree:
    """MetricView agrees with the test-side all-pairs reference."""

    @pytest.mark.parametrize("kernel", [True, False])
    def test_lazy_matches_dense_unweighted(self, kernel, monkeypatch):
        if not kernel:
            monkeypatch.setenv("REPRO_KERNEL", "pure")
            reset_kernel_choice()
        g = erdos_renyi(40, 0.12, seed=13)
        ref = _apsp(g)
        m = MetricView(g)
        for u in range(g.n):
            assert np.array_equal(m.row(u), ref[u])
        for ell in (1, 6, 17):
            balls, _ = _pure_balls(g, ell, m.tol)
            for u in range(0, g.n, 5):
                assert m.ball(u, ell) == balls[u]
        assert m.all_balls(9) == _pure_balls(g, 9, m.tol)

    def test_lazy_matches_dense_weighted_approx(self):
        g = with_random_weights(erdos_renyi(40, 0.12, seed=14), seed=15)
        ref = _apsp(g)
        m = MetricView(g)
        for u in range(0, g.n, 3):
            assert np.allclose(m.row(u), ref[u])
        balls, _ = _pure_balls(g, 11, m.tol)
        for u in range(0, g.n, 7):
            assert m.ball(u, 11) == balls[u]

    def test_lazy_scalar_facts(self):
        g = erdos_renyi(35, 0.15, seed=16)
        ref = _apsp(g)
        m = MetricView(g)
        off_diag = ref[~np.eye(g.n, dtype=bool)]
        assert m.is_connected() == bool(np.isfinite(ref).all())
        assert m.diameter() == ref.max()
        assert m.min_pairwise_distance() == off_diag.min()
        assert m.normalized_diameter() == ref.max() / off_diag.min()

    def test_lazy_columns_and_counts(self):
        g = erdos_renyi(30, 0.2, seed=17)
        ref = _apsp(g)
        m = MetricView(g)
        members = [2, 11, 23]
        assert np.array_equal(m.columns(members), ref[members].T)
        thr = ref[members].min(axis=0)
        assert np.array_equal(
            m.count_rows_below(thr), (ref < thr[None, :]).sum(axis=1)
        )

    def test_lazy_row_cache_evicts(self):
        g = erdos_renyi(30, 0.2, seed=20)
        lazy = MetricView(g, cache_rows=4)
        for u in range(g.n):
            lazy.row(u)
        assert len(lazy._row_cache) <= 4


class TestLazyStructuresIntegration:
    """Structures agree: the kernel's bounded engine vs pure full rows."""

    def test_bunch_structure_lazy_equals_dense(self):
        g = erdos_renyi(40, 0.15, seed=23)

        def bunches():
            bs = BunchStructure(MetricView(g), [3, 17, 31])
            keys = (bs.pivot, bs.bunch, bs.cluster)
            return [[key(v) for key in keys] for v in range(g.n)]

        assert bunches() == _pure(bunches)

    def test_hierarchy_and_oracle_lazy_equals_dense(self):
        from repro.baselines.hierarchy import SampledHierarchy
        from repro.baselines.tz_oracle import TZOracle

        g = erdos_renyi(45, 0.15, seed=24)

        def oracle():
            m = MetricView(g)
            h = SampledHierarchy(m, 2, seed=5)
            h.validate()
            o = TZOracle(g, k=2, seed=5, metric=m, hierarchy=h)
            pairs = [(u, v) for u in range(0, 45, 3) for v in range(1, 45, 5)]
            return (
                h.level(1),
                [(h.bunch(v), h.pivot(1, v)) for v in range(g.n)],
                [o.query(u, v) for u, v in pairs],
            )

        assert oracle() == _pure(oracle)

    def test_cluster_sampling_lazy_equals_dense(self):
        from repro.structures.sampling import (
            cluster_sizes,
            sample_cluster_bounded,
        )

        g = erdos_renyi(40, 0.15, seed=25)

        def sampled():
            m = MetricView(g)
            sizes = cluster_sizes(m, [1, 8, 22, 39]).tolist()
            return sizes, sample_cluster_bounded(m, 6.0, seed=3)

        assert sampled() == _pure(sampled)

    def test_restricted_spt_lazy_and_kernel(self):
        g = with_random_weights(erdos_renyi(40, 0.15, seed=26), seed=27)
        m = MetricView(g)
        # (dist, id)-prefix => shortest-path closed
        members = sorted(m.ball(0, 12))
        parents = cluster_parents(g, 0, members, m.row(0)[members].tolist())
        assert parents[0] == 0
        member_set = set(members)
        for v, p in parents.items():
            assert p in member_set
            if v != 0:
                assert m.d(0, v) == pytest.approx(m.d(0, p) + g.weight(p, v))

    def test_restricted_spt_rejects_non_closed(self):
        from repro.graph.generators import path as path_graph

        g = path_graph(5)
        with pytest.raises(ValueError):
            cluster_parents(g, 0, [0, 4], MetricView(g).row(0)[[0, 4]])


def _duplicate_weight_graph(n=50, p=0.12, seed=9, wseed=17):
    """Random graph whose weights repeat from a small inexact set.

    Duplicate inexact weights (0.1, 0.25, ...) manufacture exact real
    distance ties whose float sums depend on accumulation order — the
    regime where one-ulp divergence between dispatch paths would show.
    """
    import random as _random

    base = erdos_renyi(n, p, seed=seed)
    rng = _random.Random(wseed)
    g = Graph(n)
    for u, v, _ in base.edges():
        g.add_edge(u, v, rng.choice([0.1, 0.2, 0.25, 0.3, 0.7]))
    return g


DELTA_GRAPHS = GRAPHS + [("tie-heavy", _duplicate_weight_graph())]


class TestDeltaEngine:
    """The batched weighted delta-stepping engine vs every other path.

    Distances, ball membership, ball (dist, id) order and radii must be
    bitwise identical to the pure reference — including graphs with
    duplicate edge weights (exact ties) and disconnected graphs.
    """

    @pytest.mark.parametrize(
        "graph_case", DELTA_GRAPHS, ids=[name for name, _ in DELTA_GRAPHS]
    )
    @pytest.mark.parametrize("ell", [1, 5, 17, 1000])
    def test_balls_and_radii_match_pure(self, graph_case, ell):
        _, g = graph_case
        tol = 1e-9
        ell_eff = min(ell, g.n)
        ref_balls, ref_radii = [], []
        for u in g.vertices():
            ball, dist = truncated_dijkstra_py(g, u, ell_eff)
            ref_balls.append(ball)
            ref_radii.append(_ball_radius_py(g, ball, dist, tol))
        kernel = csr_graph(g)
        balls, radii = kernel.all_balls(
            ell_eff, tol=tol, with_radii=True, engine="delta"
        )
        assert balls == ref_balls
        assert radii == ref_radii

    def test_engines_agree_on_weighted_graph(self):
        g = with_random_weights(erdos_renyi(150, 0.05, seed=21), seed=22)
        kernel = csr_graph(g)
        ref = _pure_balls(g, 25, 1e-9)
        for engine in (None, "delta"):
            assert (
                kernel.all_balls(
                    25, tol=1e-9, with_radii=True, engine=engine
                )
                == ref
            )

    def test_auto_picks_delta_for_weighted(self):
        g = with_random_weights(erdos_renyi(60, 0.1, seed=23), seed=24)
        kernel = csr_graph(g)
        assert kernel.all_balls(9) == kernel.all_balls(9, engine="delta")

    def test_unknown_engine_rejected(self):
        kernel = csr_graph(erdos_renyi(10, 0.3, seed=1))
        with pytest.raises(ValueError):
            kernel.all_balls(3, engine="warp")

    @pytest.mark.parametrize("engine", ["scipy", "flat"])
    def test_retired_engines_rejected(self, engine):
        kernel = csr_graph(erdos_renyi(10, 0.3, seed=1))
        with pytest.raises(ValueError):
            kernel.all_balls(3, engine=engine)

    def test_bfs_engine_requires_unit_weights(self):
        g = with_random_weights(erdos_renyi(20, 0.2, seed=2), seed=3)
        with pytest.raises(ValueError):
            csr_graph(g).all_balls(3, engine="bfs")

    @pytest.mark.parametrize(
        "graph_case", DELTA_GRAPHS, ids=[name for name, _ in DELTA_GRAPHS]
    )
    def test_bounded_rows_match_reference(self, graph_case):
        import random as _random

        _, g = graph_case
        kernel = csr_graph(g)
        rng = _random.Random(5)
        thr = distance_to_set(g, rng.sample(range(g.n), 3))
        for s, verts, dists in kernel.bounded_rows(range(g.n), thr):
            ref_v, ref_d = threshold_reference(g, s, thr)
            assert np.array_equal(verts, ref_v)
            assert np.array_equal(dists, ref_d)

    def test_bounded_rows_infinite_limit_sweeps_component(self):
        g = with_random_weights(
            erdos_renyi(40, 0.05, seed=25, connected=False), seed=26
        )
        kernel = csr_graph(g)
        thr = np.full(g.n, np.inf)
        for s, verts, dists in kernel.bounded_rows([0, g.n - 1], thr):
            row = np.asarray(dijkstra_py(g, s)[0])
            ref_v = np.flatnonzero(np.isfinite(row))
            assert np.array_equal(verts, ref_v)
            assert np.array_equal(dists, row[ref_v])

    def test_bounded_rows_rejects_wrong_length_thresholds(self):
        kernel = csr_graph(erdos_renyi(10, 0.3, seed=1))
        with pytest.raises(ValueError):
            list(kernel.bounded_rows([0], np.full(9, np.inf)))


def _small_int_weight_graph(n=60, p=0.1, seed=12):
    """Weights from {1, 2, 3}: exact, and many equal-length paths."""
    import random as _random

    rng = _random.Random(seed)
    base = erdos_renyi(n, p, seed=seed)
    return Graph.from_edges(
        n, [(u, v, float(rng.choice((1, 2, 3)))) for u, v, _ in base.edges()]
    )


THRESHOLD_GRAPHS = DELTA_GRAPHS + [("small-int", _small_int_weight_graph())]


def _scan_modes():
    """The dispatch modes a threshold scan runs under on this host."""
    from repro import native

    modes = ["numpy", "pure"]
    if native.try_kernels() is not None:
        modes.insert(0, "native")
    return modes


class TestThresholdScan:
    """The threshold scan (``MetricView.iter_bounded_rows``) settles
    exactly ``{v : row(w)[v] < thr[v]}`` for ``thr = d(·, A)``, with
    bit-identical members and distances on native, numpy and pure."""

    @pytest.mark.parametrize(
        "graph_case", THRESHOLD_GRAPHS,
        ids=[name for name, _ in THRESHOLD_GRAPHS],
    )
    @pytest.mark.parametrize("landmarks", [0, 1, 3, 9])
    def test_modes_agree_with_full_rows(
        self, graph_case, landmarks, monkeypatch
    ):
        import random as _random

        _, g = graph_case
        rng = _random.Random(landmarks)
        thr = distance_to_set(g, rng.sample(range(g.n), landmarks))
        scans = {}
        for mode in _scan_modes():
            monkeypatch.setenv("REPRO_KERNEL", mode)
            reset_kernel_choice()
            scans[mode] = [
                (w, v.tolist(), d.tobytes())
                for w, v, d in MetricView(g).iter_bounded_rows(thr)
            ]
        for mode, scan in scans.items():
            assert scan == scans["pure"], mode
        for w, verts, dists in scans["pure"]:
            ref_v, ref_d = threshold_reference(g, w, thr)
            assert verts == ref_v.tolist()
            assert dists == ref_d.tobytes()

    def test_source_subset_and_counts(self):
        g = with_random_weights(erdos_renyi(50, 0.1, seed=8), seed=9)
        thr = distance_to_set(g, [4, 30])
        m = MetricView(g)
        full = {w: v.tolist() for w, v, _ in m.iter_bounded_rows(thr)}
        sub = [7, 4, 41]
        got = [(w, v.tolist()) for w, v, _ in m.iter_bounded_rows(thr, sub)]
        assert got == [(w, full[w]) for w in sub]
        assert full[4] == []  # a landmark owns an empty cluster
        assert m.count_rows_below(thr).tolist() == [
            len(full[w]) for w in range(g.n)
        ]


class TestTieHeavyModeAgreement:
    """The acceptance regression: MetricView rows are bit-identical to the
    forward reference at exact weighted ties, with kernel and pure
    dispatch agreeing (the canonical forward-row orientation)."""

    @pytest.fixture(scope="class")
    def tie_graph(self):
        return _duplicate_weight_graph(n=60, p=0.12, seed=9, wseed=23)

    def test_ties_are_real_and_orientation_sensitive(self, tie_graph):
        # The forward all-pairs matrix genuinely is ulp-asymmetric here;
        # without one canonical orientation the paths would diverge.
        m = MetricView(tie_graph)
        raw = np.vstack([m.row(u) for u in range(tie_graph.n)])
        assert (raw != raw.T).sum() > 0

    def test_lazy_equals_dense_bitwise(self, tie_graph):
        ref = _apsp(tie_graph)
        m = MetricView(tie_graph)
        for u in range(tie_graph.n):
            assert np.array_equal(m.row(u), ref[u])
        assert m.all_balls(11) == _pure_balls(tie_graph, 11, m.tol)

    def test_kernel_equals_pure_bitwise(self, tie_graph, monkeypatch):
        kernel_rows = [
            MetricView(tie_graph).row(u).copy()
            for u in range(tie_graph.n)
        ]
        kernel_balls, _ = MetricView(tie_graph).all_balls(11)
        monkeypatch.setenv("REPRO_KERNEL", "pure")
        reset_kernel_choice()
        pure = MetricView(tie_graph)
        for u in range(tie_graph.n):
            assert np.array_equal(pure.row(u), kernel_rows[u])
        pure_balls, _ = pure.all_balls(11)
        assert pure_balls == kernel_balls


def _integer_weight_graph(n=60, p=0.1, seed=21, wseed=22):
    """Random graph with weights in {1, 2, 3}: exact, tie-heavy sums."""
    import random as _random

    rng = _random.Random(wseed)
    return Graph.from_edges(
        n,
        [
            (u, v, float(rng.randint(1, 3)))
            for u, v, _ in erdos_renyi(n, p, seed=seed).edges()
        ],
    )


DIRECTED_GRAPHS = [
    ("unit", erdos_renyi(60, 0.1, seed=31)),
    ("integer", _integer_weight_graph()),
    ("float", with_random_weights(erdos_renyi(60, 0.1, seed=33), seed=34)),
    ("float-ties", _duplicate_weight_graph(n=60, p=0.1, seed=35, wseed=36)),
]


class TestScipyDirectedRows:
    """scipy as an outside reference: the kernel's rows (both edge
    directions stored) equal scipy's ``directed=False`` rows bit for
    bit."""

    @pytest.fixture(autouse=True)
    def _scipy(self):
        pytest.importorskip("scipy")

    @pytest.mark.parametrize(
        "g", [g for _, g in DIRECTED_GRAPHS],
        ids=[name for name, _ in DIRECTED_GRAPHS],
    )
    def test_rows_equal_undirected_bitwise(self, g):
        from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

        kernel = csr_graph(g)
        sources = list(range(g.n))
        ref = scipy_dijkstra(g.to_csr(), directed=False, indices=sources)
        assert np.array_equal(kernel.rows(sources), ref)
        assert np.array_equal(kernel.rows([7]), ref[[7]])

    @pytest.mark.parametrize(
        "g", [g for _, g in DIRECTED_GRAPHS],
        ids=[name for name, _ in DIRECTED_GRAPHS],
    )
    def test_dense_matrix_equals_undirected_bitwise(self, g):
        from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

        ref = scipy_dijkstra(g.to_csr(), directed=False)
        m = MetricView(g)
        for u in range(g.n):
            assert np.array_equal(m.row(u), ref[u])


class TestCSRStructure:
    def test_insertion_order_preserved(self):
        g = Graph(4)
        g.add_edge(2, 3)
        g.add_edge(2, 0)
        g.add_edge(2, 1)
        k = CSRGraph.from_graph(g)
        lo, hi = k.indptr[2], k.indptr[3]
        assert k.indices[lo:hi].tolist() == [3, 0, 1]

    def test_empty_graph(self):
        k = CSRGraph.from_graph(Graph(0))
        assert k.n == 0 and k.m == 0
        balls, radii = k.all_balls(3, with_radii=True)
        assert balls == [] and radii == []


# ----------------------------------------------------------------------
# One differential test for the one batched ball sweep
# ----------------------------------------------------------------------
def _choice_weight_graph(weights, n=150, p=0.03, seed=41, connected=True):
    """Random graph whose weights repeat from ``weights``: exact real
    distance ties, whose float sums may depend on accumulation order."""
    import random as _random

    rng = _random.Random(seed + 1)
    base = erdos_renyi(n, p, seed=seed, connected=connected)
    return Graph.from_edges(
        n, [(u, v, rng.choice(weights)) for u, v, _ in base.edges()]
    )


BALL_CASES = [
    ("unit", erdos_renyi(150, 0.03, seed=41)),
    ("w123", _choice_weight_graph([1.0, 2.0, 3.0])),
    ("tenths", _choice_weight_graph([0.1, 0.2, 0.3])),
    ("floats", _choice_weight_graph([0.7, 1.1, 1.8])),
    ("split-unit", erdos_renyi(150, 0.012, seed=43, connected=False)),
    (
        "split-tenths",
        _choice_weight_graph([0.1, 0.2, 0.3], p=0.012, seed=43,
                             connected=False),
    ),
]


def _engine_params():
    for name, g in BALL_CASES:
        engines = [None, "delta"]
        if csr_graph(g).is_unweighted():
            engines.append("bfs")
        for engine in engines:
            for tier in ("serial", "parallel"):
                yield pytest.param(
                    name, g, engine, tier,
                    id=f"{name}-{engine or 'auto'}-{tier}",
                )


@pytest.mark.parametrize("name, g, engine, tier", list(_engine_params()))
def test_ball_engines_match_pure(name, g, engine, tier, monkeypatch):
    """Every engine, serial or over ``REPRO_PARALLEL=2``, returns the pure
    balls and radii exactly — on tie-heavy weights, on disconnected
    graphs and with ``ell`` beyond ``n``."""
    assert g.is_connected() == (not name.startswith("split"))
    kernel = csr_graph(g)
    eng = None
    if tier == "parallel":
        monkeypatch.setenv("REPRO_PARALLEL", "2")
        monkeypatch.setattr(parallel, "_MIN_PARALLEL_SOURCES", 1)
        monkeypatch.setattr(parallel, "_MIN_PARALLEL_WORK", 0)
        parallel.reset_parallel_choice()
        eng = parallel.engine_for(kernel, g.n)
        assert eng is not None
    try:
        for ell in (1, 7, 400):
            got = kernel.all_balls(
                ell, tol=1e-9, with_radii=True, engine=engine
            )
            assert got == _pure_balls(g, ell, 1e-9), ell
    finally:
        if eng is not None:
            # The graphs are module-level: drop their shared segments now
            # rather than at interpreter exit.
            eng.close()


@pytest.mark.parametrize("held", ["dense", "lazy"])
@pytest.mark.parametrize(
    "g", [g for _, g in BALL_CASES], ids=[name for name, _ in BALL_CASES]
)
def test_metric_all_balls_match_pure(g, held):
    """``MetricView.all_balls`` is the pure sweep at the view's tol, and
    agrees with the row-based :meth:`MetricView.ball`, whether the row
    LRU holds every row (``dense``) or evicts after two (``lazy``)."""
    m = MetricView(g, cache_rows=g.n if held == "dense" else 2)
    for ell in (1, 7, 400):
        balls, radii = m.all_balls(ell)
        assert (balls, radii) == _pure_balls(g, ell, m.tol)
        for u in range(0, g.n, 13):
            assert balls[u] == m.ball(u, ell)
            assert radii[u] == m.ball_radius(u, balls[u])
