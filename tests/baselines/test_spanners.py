"""Spanner constructions: stretch property and size tradeoff."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.spanners import (
    baswana_sen_spanner,
    greedy_spanner,
    spanner_stretch_ok,
)
from repro.graph.generators import (
    complete,
    erdos_renyi,
    random_tree,
    with_random_weights,
)
from repro.graph.metric import MetricView


class TestGreedySpanner:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_stretch_property(self, k):
        g = with_random_weights(erdos_renyi(40, 0.2, seed=1), seed=2)
        h = greedy_spanner(g, k)
        assert spanner_stretch_ok(g, h, 2 * k - 1)

    def test_k1_keeps_everything_needed(self):
        """A 1-spanner must preserve distances exactly."""
        g = with_random_weights(erdos_renyi(30, 0.2, seed=3), seed=4)
        h = greedy_spanner(g, 1)
        mg = MetricView(g)
        mh = MetricView(h)
        for u in range(0, 30, 3):
            for v in range(1, 30, 4):
                assert mh.d(u, v) == pytest.approx(mg.d(u, v))

    def test_tree_is_its_own_spanner(self):
        g = random_tree(40, seed=5)
        h = greedy_spanner(g, 2)
        assert h.m == g.m

    def test_size_decreases_with_k(self):
        g = complete(30)
        sizes = [greedy_spanner(g, k).m for k in (1, 2, 3)]
        assert sizes[0] == g.m  # unit weights, k=1 keeps all edges
        assert sizes[0] > sizes[1] >= sizes[2]

    def test_k2_size_bound_on_clique(self):
        """On K_n the 3-spanner has O(n^{3/2}) edges; generous check."""
        n = 40
        g = complete(n)
        h = greedy_spanner(g, 2)
        assert h.m <= 3 * n ** 1.5

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            greedy_spanner(complete(4), 0)

    @given(seed=st.integers(0, 25), k=st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_property_random_weighted(self, seed, k):
        g = with_random_weights(
            erdos_renyi(24, 0.25, seed=seed), seed=seed + 50
        )
        h = greedy_spanner(g, k)
        assert spanner_stretch_ok(g, h, 2 * k - 1)


class TestBaswanaSen:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_stretch_property(self, k):
        g = with_random_weights(erdos_renyi(40, 0.2, seed=6), seed=7)
        h = baswana_sen_spanner(g, k, seed=8)
        assert spanner_stretch_ok(g, h, 2 * k - 1)

    @given(seed=st.integers(0, 25), k=st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_property_random(self, seed, k):
        g = erdos_renyi(26, 0.25, seed=seed)
        h = baswana_sen_spanner(g, k, seed=seed + 1)
        assert spanner_stretch_ok(g, h, 2 * k - 1)

    def test_sparser_than_input_on_clique(self):
        g = complete(40)
        h = baswana_sen_spanner(g, 2, seed=9)
        assert h.m < g.m

    def test_deterministic_for_seed(self):
        g = erdos_renyi(30, 0.3, seed=10)
        h1 = baswana_sen_spanner(g, 2, seed=11)
        h2 = baswana_sen_spanner(g, 2, seed=11)
        assert sorted(h1.edges()) == sorted(h2.edges())

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            baswana_sen_spanner(complete(4), 0)
