"""Interval routing baseline vs heavy-path tree routing (Lemma 3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import random_tree, star
from repro.graph.metric import MetricView
from repro.graph.trees import RootedTree
from repro.routing.interval_routing import IntervalTreeRouting
from repro.routing.model import words_of
from repro.routing.ports import PortAssignment
from repro.routing.tree_routing import tree_step
from tree_reference import routing_of, spt_parents, tree_path


def _tree(g, root=0):
    return RootedTree(spt_parents(MetricView(g), root))


def _route(ir: IntervalTreeRouting, ports: PortAssignment, s: int, t: int):
    label = ir.label_of(t)
    cur, trail = s, [s]
    for _ in range(5000):
        port = IntervalTreeRouting.step(ir.record_of(cur), label)
        if port is None:
            return trail
        cur = ports.neighbor(cur, port)
        trail.append(cur)
    raise AssertionError("interval routing did not terminate")


class TestCorrectness:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exact_tree_paths(self, seed):
        g = random_tree(60, seed=seed)
        tree = _tree(g)
        ports = PortAssignment(g)
        ir = IntervalTreeRouting(tree, ports)
        for s in range(0, 60, 5):
            for t in range(0, 60, 7):
                assert _route(ir, ports, s, t) == tree_path(tree, s, t)

    @given(port_seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_port_independence(self, port_seed):
        g = random_tree(40, seed=9)
        tree = _tree(g)
        ports = PortAssignment(g, seed=port_seed)
        ir = IntervalTreeRouting(tree, ports)
        for s, t in [(0, 39), (20, 5), (7, 7)]:
            assert _route(ir, ports, s, t) == tree_path(tree, s, t)

    def test_outside_tree_raises_at_root(self):
        g = random_tree(10, seed=4)
        ir = IntervalTreeRouting(_tree(g), PortAssignment(g))
        with pytest.raises(ValueError):
            IntervalTreeRouting.step(ir.record_of(0), 10_000)


class TestStorageComparison:
    """The reason the schemes use Lemma 3: O(1) vs O(deg) per vertex."""

    def test_star_center_pays_degree(self):
        g = star(101)
        tree = _tree(g)
        ports = PortAssignment(g)
        interval = IntervalTreeRouting(tree, ports)
        heavy = routing_of(tree, ports)
        center_interval = words_of(interval.record_of(0))
        center_heavy = words_of(heavy.record_of(0))
        assert center_interval >= 3 * 100  # one triple per leaf
        assert center_heavy == 6          # constant
        # ...but interval labels are smaller:
        assert words_of(interval.label_of(55)) == 1
        assert words_of(heavy.label_of(55)) >= 1

    def test_same_routes_different_costs(self):
        g = random_tree(80, seed=6)
        tree = _tree(g)
        ports = PortAssignment(g)
        interval = IntervalTreeRouting(tree, ports)
        heavy = routing_of(tree, ports)
        # identical paths
        for s, t in [(0, 79), (40, 13), (7, 66)]:
            trail_i = _route(interval, ports, s, t)
            label = heavy.label_of(t)
            cur, trail_h = s, [s]
            while True:
                port = tree_step(heavy.record_of(cur), label)
                if port is None:
                    break
                cur = ports.neighbor(cur, port)
                trail_h.append(cur)
            assert trail_i == trail_h == tree_path(tree, s, t)
        # heavy-path records are uniformly constant; interval ones are not
        max_interval = max(
            words_of(interval.record_of(v)) for v in g.vertices()
        )
        assert all(
            words_of(heavy.record_of(v)) == 6 for v in g.vertices()
        )
        assert max_interval > 6
