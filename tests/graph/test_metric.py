"""MetricView: exact distances, shortest-path structure, balls, radii."""

import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import all_specs, get_spec
from repro.graph.core import Graph, GraphError
from repro.graph.generators import (
    erdos_renyi,
    grid,
    random_sparse,
    with_random_weights,
)
from repro.graph.csr import csr_graph
from repro.graph.metric import MetricView
from repro.graph.shortest_paths import (
    dijkstra_py,
    reset_kernel_choice,
    use_kernel,
)
from repro.graph.trees import cluster_parents
from repro.routing.shard_codec import encode_node_table


def _apsp(g):
    """The test-side all-pairs reference: forward ``dijkstra_py`` rows."""
    return np.array([dijkstra_py(g, u)[0] for u in range(g.n)], dtype=float)


def _view(g, held, small=2):
    """A row LRU that holds every row (``"dense"``) or ``small`` rows."""
    return MetricView(g, cache_rows=g.n if held == "dense" else small)


class TestDistances:
    @pytest.mark.parametrize("kernel", [True, False])
    def test_matches_networkx(self, kernel, monkeypatch):
        if not kernel:
            monkeypatch.setenv("REPRO_KERNEL", "pure")
            reset_kernel_choice()
        g = with_random_weights(erdos_renyi(30, 0.15, seed=1), seed=2)
        m = MetricView(g)
        ref = dict(nx.all_pairs_dijkstra_path_length(g.to_networkx()))
        for u in g.vertices():
            for v in g.vertices():
                assert m.d(u, v) == pytest.approx(ref[u][v])

    def test_matrix_symmetric(self):
        # d(u, v) and d(v, u) sum one path in opposite orders: not bitwise
        g = with_random_weights(erdos_renyi(40, 0.1, seed=3), seed=4)
        full = MetricView(g).rows(range(g.n))
        assert np.allclose(full, full.T, rtol=0, atol=1e-12)

    def test_kernel_and_python_agree(self, monkeypatch):
        g = with_random_weights(erdos_renyi(25, 0.2, seed=5), seed=6)
        kernel_rows = MetricView(g).rows(range(g.n))
        monkeypatch.setenv("REPRO_KERNEL", "pure")
        reset_kernel_choice()
        # one least float64 fixpoint: bitwise, not approx
        assert np.array_equal(kernel_rows, MetricView(g).rows(range(g.n)))

    def test_removed_modes_rejected(self):
        for mode in ("dense", "auto"):
            with pytest.raises(ValueError, match="dense mode was removed"):
                MetricView(grid(2, 2), mode=mode)

    @pytest.mark.parametrize("held", ["dense", "lazy"])
    def test_out_of_range_ids_raise(self, held):
        # Negative ids must not wrap around to another vertex's answer.
        m = _view(erdos_renyi(20, 0.3, seed=1), held)
        for u, v in ((0, -1), (-1, 0), (0, 20), (20, 0), (-21, 3)):
            with pytest.raises(GraphError, match="out of range"):
                m.d(u, v)
            with pytest.raises(GraphError, match="out of range"):
                m.next_hop(u, v)
        for u in (-1, 20):
            with pytest.raises(GraphError, match="out of range"):
                m.row(u)
        assert m.d(0, 19) == m.row(0)[19]

    def test_disconnected_detected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        m = MetricView(g)
        assert not m.is_connected()
        assert m.d(0, 2) == math.inf


class TestLazyTolScale:
    """The tol scale is a running max over computed rows, always within a
    factor of two of the whole-scan (true-diameter) scale."""

    @pytest.mark.parametrize("seed", [1, 5, 9, 13])
    def test_lazy_tol_within_2x_of_dense(self, seed):
        g = with_random_weights(
            erdos_renyi(60, 0.08, seed=seed), seed=seed + 100
        )
        dense = 1e-9 * _apsp(g).max()  # the whole-scan scale
        # Any eccentricity is >= diam/2, so the seeded scale sits in
        # [dense/2, dense] — never above, never more than 2x below.
        assert dense / 2.0 <= MetricView(g).tol <= dense

    def test_lazy_tol_tracks_rows_then_freezes(self):
        g = with_random_weights(erdos_renyi(50, 0.1, seed=3), seed=4)
        # Rows computed before the first read feed the running maximum:
        # after a full sweep the scales coincide exactly.
        lazy = MetricView(g)
        for u in range(g.n):
            lazy.row(u)
        assert lazy.tol == 1e-9 * _apsp(g).max()
        # Once read, the tolerance is frozen — later rows cannot shift
        # strict-band decisions mid-build.
        fresh = MetricView(g)
        first = fresh.tol
        for u in range(g.n):
            fresh.row(u)
        assert fresh.tol == first


class TestDiameter:
    def test_grid_diameter(self):
        m = MetricView(grid(4, 5))
        assert m.diameter() == 3 + 4

    def test_normalized_diameter_unweighted(self):
        m = MetricView(grid(4, 5))
        assert m.normalized_diameter() == 7.0

    def test_normalized_diameter_weighted(self):
        g = Graph.from_edges(3, [(0, 1, 2.0), (1, 2, 3.0)])
        m = MetricView(g)
        assert m.normalized_diameter() == pytest.approx(5.0 / 2.0)

    def test_single_vertex(self):
        m = MetricView(Graph(1))
        assert m.normalized_diameter() == 1.0


class TestShortestPathStructure:
    def test_next_hop_is_tight(self):
        g = with_random_weights(erdos_renyi(40, 0.1, seed=7), seed=8)
        m = MetricView(g)
        for u in range(0, 40, 5):
            for v in range(1, 40, 7):
                if u == v:
                    continue
                x = m.next_hop(u, v)
                assert g.has_edge(u, x)
                assert g.weight(u, x) + m.d(x, v) == pytest.approx(m.d(u, v))

    def test_next_hop_matches_reference(self):
        # Vertex n-1 is isolated, so some targets are unreachable.  Integer
        # weights make every tie exact; weights from {0.1, 0.2, 0.3} make
        # real ties that float sums break by an ulp either way, so the
        # reference evaluates the rule's own float expression on the
        # target's row: tight within tol, then the least (d(v, x), x).
        base = erdos_renyi(39, 0.12, seed=40)
        for weights in ((1.0, 2.0, 3.0), (0.1, 0.2, 0.3)):
            rng = random.Random(41)
            g = Graph.from_edges(
                40,
                [(u, v, rng.choice(weights)) for u, v, _ in base.edges()],
            )
            dist = dict(nx.all_pairs_dijkstra_path_length(g.to_networkx()))

            def reference(u, v, tol):
                dv = dist[v]
                return min(
                    (dv[x], x)
                    for x, w in g.neighbor_items(u)
                    if abs((w + dv[x]) - dv[u]) <= tol
                )[1]

            for m in (
                _view(g, "dense"),
                MetricView(g),
                _view(g, "lazy"),
            ):
                for u in range(g.n):
                    for v in range(g.n):
                        if u == v:
                            with pytest.raises(ValueError):
                                m.next_hop(u, v)
                        elif v not in dist[u]:
                            with pytest.raises(
                                ValueError, match="unreachable"
                            ):
                                m.next_hop(u, v)
                        else:
                            assert m.next_hop(u, v) == reference(
                                u, v, m.tol
                            ), (weights, m._cache_rows, u, v)

    @pytest.mark.parametrize("held", ["dense", "lazy"])
    def test_next_hop_without_tight_edge_raises(self, held):
        m = _view(grid(3, 3), held)
        m._tol = -1.0  # no edge can be tight: an inconsistent metric
        with pytest.raises(RuntimeError, match="no tight edge"):
            m.next_hop(0, 8)

    def test_shortest_path_is_shortest(self):
        g = with_random_weights(erdos_renyi(40, 0.1, seed=11), seed=12)
        m = MetricView(g)
        for u, v in [(0, 39), (5, 20), (13, 2)]:
            p = m.shortest_path(u, v)
            assert p[0] == u and p[-1] == v
            total = sum(g.weight(a, b) for a, b in zip(p, p[1:]))
            assert total == pytest.approx(m.d(u, v))

    def test_next_hop_self_raises(self):
        m = MetricView(grid(3, 3))
        with pytest.raises(ValueError):
            m.next_hop(2, 2)

    def test_on_shortest_path(self):
        m = MetricView(grid(1, 5))  # path graph 0-1-2-3-4
        assert m.on_shortest_path(0, 2, 4)
        assert not m.on_shortest_path(0, 4, 2)

    def test_tight_min_weight(self):
        g = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 10.0)])
        m = MetricView(g)
        # the (0,2) edge of weight 10 is slack (d(0,2)=3), so it is ignored
        assert m.tight_min_weight() == 1.0


def _scanned_scalars(m):
    """The full-scan definitions: the least tight edge weight and the
    least off-diagonal distance, over every distance row."""
    tight, off_diag = math.inf, math.inf
    slack = 0
    for u in range(m.n):
        row = m.row(u)
        for v, w in m.graph.neighbor_items(u):
            if abs(w - row[v]) <= m.tol:
                tight = min(tight, w)
            else:
                slack += 1
        others = np.delete(row, u)
        off_diag = min(off_diag, float(others[np.isfinite(others)].min()))
    return tight, off_diag, slack


class TestEdgeScalars:
    """``tight_min_weight`` and ``min_pairwise_distance`` read the lightest
    edge in O(m); they equal the old all-rows scans."""

    @pytest.mark.parametrize("held", ["dense", "lazy"])
    @pytest.mark.parametrize(
        "name, g",
        [
            ("weighted", with_random_weights(
                random_sparse(70, 210, seed=3), seed=4)),
            ("unit", random_sparse(70, 210, seed=5)),
            # weights over three decades: most heavy edges are slack
            ("slack-heavy", with_random_weights(
                erdos_renyi(60, 0.2, seed=6), seed=7, low=1.0,
                high=1000.0)),
        ],
        ids=lambda p: p if isinstance(p, str) else "",
    )
    def test_equal_to_full_scans(self, name, g, held):
        m = _view(g, held)
        tight, off_diag, slack = _scanned_scalars(m)
        assert m.tight_min_weight() == tight
        assert m.min_pairwise_distance() == off_diag
        if name == "slack-heavy":
            assert slack > g.m  # both directions of over half the edges
        assert m.diameter_bound() >= m.diameter()

    def test_no_edges(self):
        m = MetricView(Graph(3))
        with pytest.raises(ValueError, match="no shortest-path edges"):
            m.tight_min_weight()
        assert m.min_pairwise_distance() == 1.0


class TestTargetSweep:
    @pytest.mark.parametrize("held", ["dense", "lazy"])
    def test_yields_rows_and_hop_columns(self, held):
        g = with_random_weights(erdos_renyi(50, 0.1, seed=21), seed=22)
        m = _view(g, held, small=8)
        ref, hop = _apsp(g), csr_graph(g)._hop_column_numpy
        seen = []
        for v, row, col in m.target_sweep():
            seen.append(v)
            assert np.array_equal(row, ref[v])
            assert np.array_equal(col, hop(ref[v], v, m.tol))
        assert seen == list(range(g.n))
        targets = [7, 3, 41]
        assert [v for v, _, _ in m.target_sweep(targets)] == targets
        with pytest.raises(GraphError, match="out of range"):
            list(m.target_sweep([0, 50]))

    def test_lazy_rows_once_in_chunks(self, monkeypatch):
        g = with_random_weights(erdos_renyi(50, 0.1, seed=23), seed=24)
        m = MetricView(g, cache_rows=8)
        calls = []
        compute = m._compute_rows

        def spy(sources):
            calls.append(len(list(sources)))
            return compute(sources)

        monkeypatch.setattr(m, "_compute_rows", spy)
        _ = m.tol  # row(0), cached
        for v, row, _ in m.target_sweep():
            # the target's per-target reads are cache hits
            before = m.rows_computed
            assert m.row(v) is row
            if v:
                m.next_hop(0, v)
            assert m.rows_computed == before
        assert m.rows_computed == g.n
        assert max(calls[1:]) <= 8
        assert len(calls) == 1 + math.ceil(g.n / 8)


class TestSPTParents:
    def test_parents_consistent_with_distances(self):
        g = with_random_weights(erdos_renyi(40, 0.1, seed=13), seed=14)
        m = MetricView(g)
        parents = m.spt_parents(6)
        assert parents[6] == 6
        for v, p in parents.items():
            if v != 6:
                assert m.d(6, v) == pytest.approx(m.d(6, p) + g.weight(p, v))

    @pytest.mark.parametrize("kernel", ["kernel", "pure"])
    @pytest.mark.parametrize("kind", ["weighted", "tie-heavy"])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_parent_is_next_hop(self, kind, kernel, seed):
        # Trees and shortest_path walks share one first-hop rule.
        with pytest.MonkeyPatch.context() as mp:
            if kernel == "pure":
                mp.setenv("REPRO_KERNEL", "pure")
            reset_kernel_choice()
            g = erdos_renyi(40, 0.1, seed=seed)
            if kind == "weighted":
                g = with_random_weights(g, seed=seed + 1)
            m = MetricView(g)
            for r in range(0, g.n, 3):
                parents = m.spt_parents(r)
                assert parents[r] == r and len(parents) == g.n
                for u in range(g.n):
                    if u != r:
                        assert parents[u] == m.next_hop(u, r)
        reset_kernel_choice()

    def test_restricted_rejects_non_closed(self):
        g = grid(1, 5)  # path 0-1-2-3-4
        with pytest.raises(ValueError):  # 4's parent 3 missing
            cluster_parents(g, 0, [0, 4], MetricView(g).row(0)[[0, 4]])


class TestBalls:
    def test_ball_order_and_prefix(self):
        g = erdos_renyi(40, 0.12, seed=15)
        m = MetricView(g)
        ball = m.ball(3, 12)
        assert ball[0] == 3
        keys = [(m.d(3, v), v) for v in ball]
        assert keys == sorted(keys)
        # prefix property
        assert m.ball(3, 7) == ball[:7]

    def test_ball_radius_unweighted(self):
        m = MetricView(grid(1, 7))  # path; vertex 3 is the middle
        ball = m.ball(3, 3)  # {3, 2, 4}
        assert set(ball) == {3, 2, 4}
        assert m.ball_radius(3, ball) == 1.0
        ball5 = m.ball(3, 4)  # {3,2,4,1} — distance-2 level only partial
        assert m.ball_radius(3, ball5) == 1.0

    def test_ball_radius_full_level(self):
        m = MetricView(grid(1, 7))
        ball = m.ball(3, 5)  # {3,2,4,1,5}: both distance-2 vertices present
        assert m.ball_radius(3, ball) == 2.0

    def test_whole_graph_ball(self):
        g = erdos_renyi(20, 0.2, seed=16)
        m = MetricView(g)
        assert len(m.ball(0, 100)) == 20


class TestNextHopRowsInBuilds:
    """Scheme builds through the per-target hop columns."""

    @pytest.mark.parametrize(
        "spec, weighted",
        [
            (spec, weighted)
            for spec in all_specs()
            for weighted in ((False, True) if spec.weighted_capable
                             else (False,))
        ],
        ids=lambda p: getattr(p, "name", "weighted" if p else "unit"),
    )
    def test_lazy_and_dense_builds_give_same_bytes(self, spec, weighted):
        # LRU eviction never changes output: a 2-row cache builds the
        # same tables and labels as one that holds all n rows.
        n = 110
        g = erdos_renyi(n, 0.07, seed=61)
        if weighted:
            g = with_random_weights(g, seed=62)

        def build(cache_rows):
            scheme = spec.factory(
                g, metric=MetricView(g, cache_rows=cache_rows),
                **spec.defaults()
            )
            blobs = [encode_node_table(r) for r in scheme.compile_tables()]
            labels = [scheme.label_of(v) for v in range(n)]
            return blobs, labels

        assert build(2) == build(n)

    def test_lazy_thm11_row_count(self):
        # A count, not a time: repeats exactly.  Hop columns need only
        # the target's row (per-source hop rows took 2158 here).
        g = with_random_weights(erdos_renyi(120, 0.05, seed=7), seed=8)
        spec = get_spec("thm11")
        m = MetricView(g)
        spec.factory(g, metric=m, **spec.defaults())
        if use_kernel():
            assert m.rows_computed <= 133
        else:
            # The pure dispatch computes every row it reads in Python,
            # the bounded cluster scans included.
            assert m.rows_computed <= 382

    def test_lazy_thm10_row_count(self):
        # The intersection loops read the cluster scan's own distances
        # (BunchStructure.cluster_distances), not row(w) per ball holding
        # w (8223 rows here).  The 19 global trees read their roots'
        # rows (for the hop columns).
        g = erdos_renyi(120, 0.05, seed=7)
        spec = get_spec("thm10")
        m = MetricView(g)
        spec.factory(g, metric=m, **spec.defaults())
        if use_kernel():
            assert m.rows_computed <= 259
        else:
            assert m.rows_computed <= 491

    def test_lazy_thm11_rows_at_2000(self):
        # One target sweep plus the landmark sample's rows: about one
        # row per vertex (11 873 with one row per consumer and the two
        # full scans).
        if not use_kernel():
            pytest.skip("pure dispatch: thousands of Python Dijkstra rows")
        n = 2000
        g = with_random_weights(random_sparse(n, 4 * n, seed=5), seed=6)
        spec = get_spec("thm11")
        m = MetricView(g)
        spec.factory(g, metric=m, seed=1, **spec.defaults())
        assert m.rows_computed <= 2 * n
