"""Stress shapes: barbell graphs, deep binary trees, and one larger graph.

Barbells concentrate landmarks in the cliques and force every cross-bar
route through the schemes' far-case branches; complete binary trees push
heavy-path labels to their logarithmic worst case; the marked-slow test
checks a theorem bound at n=800 (the benchmark scale).
"""

import math

import pytest

from repro.baselines.thorup_zwick import ThorupZwickScheme
from repro.graph.generators import (
    barbell,
    complete_binary_tree,
    erdos_renyi,
    with_random_weights,
)
from repro.graph.metric import MetricView
from repro.routing.ports import PortAssignment
from repro.routing.simulator import measure_stretch
from repro.routing.tree_routing import full_tree_routings
from repro.schemes import Stretch2Plus1Scheme, Stretch5PlusScheme, Warmup3Scheme


def _pairs(n, a=4, b=6):
    return [(u, v) for u in range(0, n, a) for v in range(1, n, b) if u != v]


def _check(scheme, metric, pairs):
    bound = scheme.stretch_bound()
    alpha, beta = bound if isinstance(bound, tuple) else (bound, 0.0)
    rep = measure_stretch(scheme, metric, pairs, multiplicative_slack=alpha)
    assert rep.max_additive_over <= beta + 1e-6, rep.worst
    return rep


class TestBarbell:
    @pytest.fixture(scope="class")
    def world(self):
        g = barbell(18, 30)  # 66 vertices, bar of 30
        return g, MetricView(g)

    def test_generator_shape(self, world):
        g, m = world
        assert g.n == 66
        # cross-bar distance = path + 2 clique hops
        assert m.d(0, g.n - 1) >= 30

    def test_thm10_across_the_bar(self, world):
        g, m = world
        s = Stretch2Plus1Scheme(g, eps=0.5, metric=m, seed=8)
        _check(s, m, _pairs(g.n, 3, 5))

    def test_warmup_across_the_bar(self, world):
        g, m = world
        _check(Warmup3Scheme(g, eps=0.5, metric=m, seed=8), m, _pairs(g.n, 3, 5))

    def test_tz_across_the_bar(self, world):
        g, m = world
        _check(ThorupZwickScheme(g, k=3, metric=m, seed=8), m, _pairs(g.n, 3, 5))


class TestCompleteBinaryTree:
    def test_tree_labels_hit_log_depth(self):
        g = complete_binary_tree(7)  # 255 vertices
        m = MetricView(g)
        (tr,) = full_tree_routings(m, PortAssignment(g), [0])
        max_lights = max(len(tr.label_of(v)[1]) for v in g.vertices())
        # a complete binary tree needs close to log2(n) light stops...
        assert max_lights >= 4
        # ...but never more (Lemma 3's label bound)
        assert max_lights <= math.log2(g.n) + 1

    def test_scheme_on_tree_topology(self):
        g = complete_binary_tree(5)  # 63 vertices
        m = MetricView(g)
        _check(Warmup3Scheme(g, eps=0.5, metric=m, seed=9), m, _pairs(g.n, 3, 5))


@pytest.mark.slow
class TestBenchmarkScale:
    def test_thm11_at_n800(self):
        g = with_random_weights(erdos_renyi(800, 7.0 / 799, seed=1101), seed=1102)
        m = MetricView(g)
        s = Stretch5PlusScheme(g, eps=0.6, metric=m, seed=10)
        rep = _check(s, m, _pairs(g.n, 23, 31))
        # n^{1/3}-type tables: far below n words per vertex
        assert s.stats().avg_table_words < g.n
