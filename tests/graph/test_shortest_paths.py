"""Shortest-path algorithms, differentially tested against networkx."""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.core import Graph, GraphError
from repro.graph.generators import (
    erdos_renyi,
    grid,
    path,
    with_random_weights,
)
from repro.graph.metric import MetricView
from repro.graph.shortest_paths import (
    all_balls,
    bounded_distance,
    dijkstra_py,
    reset_kernel_choice,
    truncated_dijkstra_py,
)
from repro.graph.trees import cluster_parents
from repro.structures.bunches import BunchStructure


def _nx_distances(g: Graph, source: int):
    return nx.single_source_dijkstra_path_length(g.to_networkx(), source)


class TestBFS:
    """Hop distances on unit weights: the dispatch and the bfs ball sweep."""

    def test_matches_networkx_on_grid(self):
        g = grid(5, 6)
        ref = nx.single_source_shortest_path_length(g.to_networkx(), 0)
        got = MetricView(g).row(0)
        for v in g.vertices():
            assert got[v] == ref[v]
        balls, radii = all_balls(g, g.n, with_radii=True, engine="bfs")
        assert balls[0] == sorted(g.vertices(), key=lambda v: (ref[v], v))
        assert radii[0] == max(ref.values())

    def test_unreachable_is_inf(self):
        g = Graph.from_edges(3, [(0, 1)])
        dist = MetricView(g).row(0)
        assert dist[2] == math.inf
        balls, _ = all_balls(g, 3, engine="bfs")
        assert balls[0] == [0, 1]


class TestDijkstra:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_networkx_weighted(self, seed):
        g = with_random_weights(erdos_renyi(40, 0.12, seed=seed), seed=seed + 100)
        ref = _nx_distances(g, 0)
        dist = MetricView(g).row(0)
        for v in g.vertices():
            assert dist[v] == pytest.approx(ref[v])

    def test_parents_form_shortest_paths(self):
        g = with_random_weights(erdos_renyi(40, 0.12, seed=9), seed=19)
        m = MetricView(g)
        dist, parent = m.row(0), m.spt_parents(0)
        for v in g.vertices():
            if v == 0:
                assert parent[v] == 0
                continue
            p = parent[v]
            assert dist[v] == pytest.approx(dist[p] + g.weight(p, v))


class TestTruncatedDijkstra:
    """The per-source pure reference behind the pure ``all_balls``."""

    def test_ball_is_dist_id_prefix(self):
        g = erdos_renyi(50, 0.1, seed=3)
        full, _ = dijkstra_py(g, 7)
        order = sorted(g.vertices(), key=lambda v: (full[v], v))
        for ell in (1, 5, 17, 50):
            ball, dist = truncated_dijkstra_py(g, 7, ell)
            assert ball == order[:ell]
            for v in ball:
                assert dist[v] == pytest.approx(full[v])

    def test_zero_ell(self):
        g = grid(3, 3)
        ball, dist = truncated_dijkstra_py(g, 0, 0)
        assert ball == [] and dist == {}

    def test_ell_beyond_n(self):
        g = grid(3, 3)
        ball, _ = truncated_dijkstra_py(g, 0, 100)
        assert len(ball) == 9

    @given(seed=st.integers(0, 30), ell=st.integers(1, 25))
    @settings(max_examples=25, deadline=None)
    def test_source_always_first(self, seed, ell):
        g = erdos_renyi(25, 0.15, seed=seed)
        ball, _ = truncated_dijkstra_py(g, 4, ell)
        assert ball[0] == 4


class TestShortestPathTree:
    """Full trees come from :meth:`MetricView.spt_parents`, cluster trees
    from a cluster scan's distances (``cluster_parents``)."""

    def test_full_tree_distances(self):
        g = with_random_weights(erdos_renyi(35, 0.15, seed=2), seed=8)
        tree = MetricView(g).spt_parents(0)
        dist, _ = dijkstra_py(g, 0)
        # walk each vertex to the root; the accumulated weight must match
        for v in g.vertices():
            total, cur = 0.0, v
            while cur != 0:
                p = tree[cur]
                total += g.weight(cur, p)
                cur = p
            assert total == pytest.approx(dist[v])

    def test_root_not_member_raises(self):
        g = grid(3, 3)
        with pytest.raises(ValueError):
            cluster_parents(g, 0, [1, 2], [1.0, 2.0])

    def test_unreachable_member_raises(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            cluster_parents(g, 0, [0, 2], [0.0, math.inf])


def _nearest(g, sources):
    """``(d(v, A), p_A(v))`` for every vertex, from :class:`BunchStructure`
    — the one implementation of the paper's nearest-source rule."""
    bs = BunchStructure(MetricView(g), sources)
    return (
        [bs.distance_to_landmarks(v) for v in g.vertices()],
        [bs.pivot(v) for v in g.vertices()],
    )


class TestMultiSource:
    def test_matches_min_over_sources(self):
        g = with_random_weights(erdos_renyi(40, 0.12, seed=4), seed=14)
        sources = [3, 17, 29]
        dist, nearest = _nearest(g, sources)
        per_source = {s: dijkstra_py(g, s)[0] for s in sources}
        for v in g.vertices():
            expect = min((per_source[s][v], s) for s in sources)
            assert dist[v] == pytest.approx(expect[0])
            assert nearest[v] == expect[1]

    def test_tie_breaks_to_smaller_source(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        _, nearest = _nearest(g, [0, 2])
        assert nearest[1] == 0  # equidistant; smaller id wins

    def test_duplicate_sources_equivalent(self):
        """Sources are deduplicated up front; repeats change nothing."""
        g = with_random_weights(erdos_renyi(30, 0.15, seed=6), seed=16)
        unique = [4, 11, 27]
        dup = [27, 4, 11, 4, 27, 27]
        assert _nearest(g, dup) == _nearest(g, unique)

    def test_single_duplicated_source(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        dist, nearest = _nearest(g, [1, 1, 1])
        assert dist == [1.0, 0.0, 1.0]
        assert nearest == [1, 1, 1]


def _out_of_range_calls(g, bad):
    return {
        # the distance-row dispatch: the kernel's scan or dijkstra_py
        "dijkstra": lambda: MetricView(g).rows([bad]),
        "bounded_distance": lambda: bounded_distance(g, bad, 3, 10.0),
        "threshold_rows": lambda: list(
            MetricView(g).iter_bounded_rows(np.full(g.n, np.inf), [bad])
        ),
        "spt_parents": lambda: MetricView(g).spt_parents(bad),
    }


@pytest.mark.parametrize("kernel", ["kernel", "pure"])
@pytest.mark.parametrize("where", ["minus-one", "n"])
@pytest.mark.parametrize(
    "fn", ["dijkstra", "bounded_distance", "threshold_rows", "spt_parents"]
)
def test_out_of_range_source_raises(fn, where, kernel, monkeypatch):
    """A vertex id outside ``[0, n)`` raises ``GraphError`` on every
    dispatch path — never another vertex's answer or a bare IndexError."""
    from repro.graph.csr import csr_graph

    if kernel == "pure":
        monkeypatch.setenv("REPRO_KERNEL", "pure")
        reset_kernel_choice()
    g = path(5)
    csr_graph(g)  # a cached mirror, so bounded_distance may use it
    bad = -1 if where == "minus-one" else g.n
    with pytest.raises(GraphError):
        _out_of_range_calls(g, bad)[fn]()
