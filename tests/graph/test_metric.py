"""MetricView: exact distances, shortest-path structure, balls, radii."""

import math
import random

import networkx as nx
import numpy as np
import pytest

from repro.api import all_specs, get_spec
from repro.graph.core import Graph
from repro.graph.generators import erdos_renyi, grid, with_random_weights
from repro.graph import csr, metric
from repro.graph.metric import MetricView
from repro.graph.shortest_paths import use_kernel
from repro.routing.shard_codec import encode_node_table


class TestDistances:
    @pytest.mark.parametrize("use_scipy", [True, False])
    def test_matches_networkx(self, use_scipy, monkeypatch):
        if not use_scipy:
            monkeypatch.setattr(csr, "_HAVE_SCIPY", False)
        g = with_random_weights(erdos_renyi(30, 0.15, seed=1), seed=2)
        m = MetricView(g)
        ref = dict(nx.all_pairs_dijkstra_path_length(g.to_networkx()))
        for u in g.vertices():
            for v in g.vertices():
                assert m.d(u, v) == pytest.approx(ref[u][v])

    def test_matrix_symmetric(self):
        g = with_random_weights(erdos_renyi(40, 0.1, seed=3), seed=4)
        m = MetricView(g)
        assert np.array_equal(m.matrix, m.matrix.T)

    def test_scipy_and_python_agree(self, monkeypatch):
        g = with_random_weights(erdos_renyi(25, 0.2, seed=5), seed=6)
        m1 = MetricView(g)
        monkeypatch.setattr(csr, "_HAVE_SCIPY", False)
        m2 = MetricView(g)
        assert np.allclose(m1.matrix, m2.matrix)

    def test_disconnected_detected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        m = MetricView(g)
        assert not m.is_connected()
        assert m.d(0, 2) == math.inf


class TestLazyTolScale:
    """Satellite: the lazy tol scale is a running max over computed rows,
    always within a factor of two of the dense (true-diameter) scale."""

    @pytest.mark.parametrize("seed", [1, 5, 9, 13])
    def test_lazy_tol_within_2x_of_dense(self, seed):
        g = with_random_weights(
            erdos_renyi(60, 0.08, seed=seed), seed=seed + 100
        )
        dense = MetricView(g, mode="dense")
        lazy = MetricView(g, mode="lazy")
        # Any eccentricity is >= diam/2, so the seeded lazy scale sits in
        # [dense/2, dense] — never above, never more than 2x below.
        assert dense.tol / 2.0 <= lazy.tol <= dense.tol

    def test_lazy_tol_tracks_rows_then_freezes(self):
        g = with_random_weights(erdos_renyi(50, 0.1, seed=3), seed=4)
        dense = MetricView(g, mode="dense")
        # Rows computed before the first read feed the running maximum:
        # after a full sweep the scales coincide exactly.
        lazy = MetricView(g, mode="lazy")
        for u in range(g.n):
            lazy.row(u)
        assert lazy.tol == dense.tol
        # Once read, the tolerance is frozen — later rows cannot shift
        # strict-band decisions mid-build.
        fresh = MetricView(g, mode="lazy")
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

    def test_next_hop_matches_reference(self, monkeypatch):
        # Integer weights make the tight-edge test and every distance tie
        # exact, so the brute-force rule needs no tolerance; vertex n-1
        # is isolated, so some targets are unreachable.  Two-row neighbour
        # blocks put tied neighbours in different blocks.
        rng = random.Random(41)
        base = erdos_renyi(39, 0.12, seed=40)
        g = Graph.from_edges(
            40,
            [(u, v, float(rng.randint(1, 3))) for u, v, _ in base.edges()],
        )
        dist = dict(nx.all_pairs_dijkstra_path_length(g.to_networkx()))

        def reference(u, v):
            return min(
                (dist[x][v], x)
                for x, w in g.neighbor_items(u)
                if v in dist[x] and w + dist[x][v] == dist[u][v]
            )[1]

        for block_bytes in (metric._HOP_BLOCK_BYTES, 2 * 8 * g.n):
            monkeypatch.setattr(metric, "_HOP_BLOCK_BYTES", block_bytes)
            for m in (
                MetricView(g, mode="dense"),
                MetricView(g, mode="lazy"),
                MetricView(g, mode="lazy", cache_rows=2),
            ):
                for u in range(g.n):
                    for v in range(g.n):
                        if u == v:
                            with pytest.raises(ValueError):
                                m.next_hop(u, v)
                        elif v not in dist[u]:
                            with pytest.raises(ValueError, match="unreachable"):
                                m.next_hop(u, v)
                        else:
                            assert m.next_hop(u, v) == reference(u, v), (
                                m.mode, block_bytes, u, v,
                            )

    @pytest.mark.parametrize("mode", ["dense", "lazy"])
    def test_next_hop_without_tight_edge_raises(self, mode):
        m = MetricView(grid(3, 3), mode=mode)
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


class TestSPTParents:
    def test_parents_consistent_with_distances(self):
        g = with_random_weights(erdos_renyi(40, 0.1, seed=13), seed=14)
        m = MetricView(g)
        parents = m.spt_parents(6)
        assert parents[6] == 6
        for v, p in parents.items():
            if v != 6:
                assert m.d(6, v) == pytest.approx(m.d(6, p) + g.weight(p, v))

    def test_restricted_rejects_non_closed(self):
        m = MetricView(grid(1, 5))  # path 0-1-2-3-4
        with pytest.raises(ValueError):
            m.restricted_spt_parents(0, [0, 4])  # 4's parent 3 missing


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
    """Scheme builds through the per-source next-hop rows."""

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
        pytest.importorskip("scipy")
        n = 110
        g = erdos_renyi(n, 0.07, seed=61)
        if weighted:
            g = with_random_weights(g, seed=62)

        def build(mode):
            scheme = spec.factory(
                g, metric=MetricView(g, mode=mode), **spec.defaults()
            )
            blobs = [encode_node_table(r) for r in scheme.compile_tables()]
            labels = [scheme.label_of(v) for v in range(n)]
            return blobs, labels

        assert build("lazy") == build("dense")

    def test_lazy_thm11_row_count(self):
        # A count, not a time: repeats exactly.  Recomputing every
        # neighbour's distance row per next_hop call took 3820 rows here.
        g = with_random_weights(erdos_renyi(120, 0.05, seed=7), seed=8)
        spec = get_spec("thm11")
        m = MetricView(g, mode="lazy")
        spec.factory(g, metric=m, **spec.defaults())
        if use_kernel():
            assert m.rows_computed <= 2158
        else:
            # The pure dispatch computes every row it reads in Python,
            # the bounded cluster scans included.
            assert m.rows_computed <= 2390
