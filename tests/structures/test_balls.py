"""Vicinity balls: ordering, Property 1, radii, boundary edges."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.core import Graph
from repro.graph.generators import erdos_renyi, grid, with_random_weights
from repro.graph.metric import HopWalkError, MetricView
from repro.structures.balls import BallFamily, ball_size_parameter


class TestBallSizeParameter:
    def test_basic_growth(self):
        assert ball_size_parameter(1000, 10, 1.0) >= 10

    def test_clamped_to_n(self):
        assert ball_size_parameter(20, 100, 5.0) == 20

    def test_at_least_one(self):
        assert ball_size_parameter(100, 0.01, 0.01) == 1

    def test_zero_n(self):
        assert ball_size_parameter(0, 5, 1.0) == 0


class TestBallFamily:
    def test_orders_and_membership(self, metric_er):
        fam = BallFamily(metric_er, 9)
        for u in (0, 13, 55):
            ball = fam.ball(u)
            assert len(ball) == 9
            assert ball[0] == u
            keys = [(metric_er.d(u, v), v) for v in ball]
            assert keys == sorted(keys)
            assert fam.ball_set(u) == frozenset(ball)
            assert fam.contains(u, ball[-1])

    def test_invalid_size_rejected(self, metric_er):
        with pytest.raises(ValueError):
            BallFamily(metric_er, 0)

    def test_size_clamped(self, metric_er):
        fam = BallFamily(metric_er, 10_000)
        assert fam.ell == metric_er.n

    def test_radius_is_covered(self, metric_er):
        """Every vertex within r_u is inside the ball."""
        fam = BallFamily(metric_er, 12)
        for u in range(metric_er.n):
            r = fam.radius(u)
            for v in range(metric_er.n):
                if metric_er.d(u, v) <= r:
                    assert fam.contains(u, v), (u, v, r)


class TestProperty1:
    """Property 1: v in B(u,l) and w on a shortest u-v path => v in B(w,l)."""

    @given(seed=st.integers(0, 40), ell=st.integers(2, 20))
    @settings(max_examples=30, deadline=None)
    def test_unweighted(self, seed, ell):
        g = erdos_renyi(30, 0.12, seed=seed)
        m = MetricView(g)
        fam = BallFamily(m, ell)
        for u in range(0, 30, 5):
            for v in fam.ball(u):
                if u == v:
                    continue
                for w in m.shortest_path(u, v)[1:-1]:
                    assert fam.contains(w, v)

    @given(seed=st.integers(0, 25), ell=st.integers(2, 15))
    @settings(max_examples=20, deadline=None)
    def test_weighted(self, seed, ell):
        g = with_random_weights(erdos_renyi(25, 0.15, seed=seed), seed=seed + 7)
        m = MetricView(g)
        fam = BallFamily(m, ell)
        for u in range(0, 25, 4):
            for v in fam.ball(u):
                if u == v:
                    continue
                for w in m.shortest_path(u, v)[1:-1]:
                    assert fam.contains(w, v)


class TestBoundaryEdge:
    def test_boundary_edge_properties(self, metric_er):
        fam = BallFamily(metric_er, 8)
        for u in range(0, metric_er.n, 7):
            for v in range(metric_er.n):
                if fam.contains(u, v):
                    continue
                y, z = fam.boundary_edge(u, v)
                assert fam.contains(u, y)
                assert not fam.contains(u, z)
                assert metric_er.graph.has_edge(y, z)
                # both endpoints on a shortest u-v path
                assert metric_er.on_shortest_path(u, y, v)
                assert metric_er.on_shortest_path(u, z, v)

    def test_inside_ball_rejected(self, metric_er):
        fam = BallFamily(metric_er, 8)
        u = 0
        inside = fam.ball(u)[1]
        with pytest.raises(ValueError):
            fam.boundary_edge(u, inside)

    def test_cycling_column_raises_typed(self):
        # (0, 3) weighs 1e20, so the float distances to 0 from 1, 2 and
        # 3 tie and 1 and 2 are each other's first hop toward 0.
        g = Graph.from_edges(
            4, [(0, 3, 1e20), (3, 1, 1.0), (3, 2, 1.0), (1, 2, 1.0)]
        )
        fam = BallFamily(MetricView(g), 3)  # B(1) = {1, 2, 3}
        with pytest.raises(HopWalkError, match="from 1 toward 0"):
            fam.boundary_edge(1, 0)

    def test_target_adjacent_outside(self):
        m = MetricView(grid(1, 5))  # path 0-1-2-3-4
        fam = BallFamily(m, 2)  # B(0) = {0, 1}
        y, z = fam.boundary_edge(0, 4)
        assert (y, z) == (1, 2)
