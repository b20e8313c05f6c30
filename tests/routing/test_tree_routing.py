"""Tree routing (Lemma 3): exactness, compactness, port independence."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import (
    caterpillar,
    erdos_renyi,
    path,
    random_tree,
    star,
    with_random_weights,
)
from repro.graph.metric import MetricView
from repro.graph.trees import RootedTree, cluster_parents
from repro.routing.ports import PortAssignment
from repro.routing.tree_routing import TreeRouting, tree_step


def _route_in_tree(tr: TreeRouting, ports: PortAssignment, s: int, t: int):
    """Drive tree_step by hand; returns the traversed vertex path."""
    label = tr.label_of(t)
    cur = s
    trail = [cur]
    for _ in range(5000):
        port = tree_step(tr.record_of(cur), label)
        if port is None:
            return trail
        cur = ports.neighbor(cur, port)
        trail.append(cur)
    raise AssertionError("tree routing did not terminate")


def _tree_from_graph(g, root=0):
    m = MetricView(g)
    return RootedTree(m.spt_parents(root))


@pytest.mark.parametrize(
    "graph_factory",
    [
        lambda: random_tree(60, seed=3),
        lambda: path(40),
        lambda: star(30),
        lambda: caterpillar(8, 3),
    ],
)
def test_exact_tree_paths(graph_factory):
    g = graph_factory()
    tree = _tree_from_graph(g)
    ports = PortAssignment(g)
    tr = TreeRouting(tree, ports)
    for s in range(0, g.n, 5):
        for t in range(0, g.n, 7):
            trail = _route_in_tree(tr, ports, s, t)
            assert trail == tree.tree_path(s, t)


def test_exact_on_spt_of_dense_graph():
    g = with_random_weights(erdos_renyi(50, 0.15, seed=4), seed=5)
    tree = _tree_from_graph(g, root=10)
    ports = PortAssignment(g)
    tr = TreeRouting(tree, ports)
    for s in range(0, 50, 6):
        for t in range(1, 50, 7):
            assert _route_in_tree(tr, ports, s, t) == tree.tree_path(s, t)


@given(seed=st.integers(0, 50), port_seed=st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_port_numbering_independence(seed, port_seed):
    """The scheme must work for any (adversarial) port numbering."""
    g = random_tree(40, seed=seed)
    tree = _tree_from_graph(g)
    ports = PortAssignment(g, seed=port_seed)
    tr = TreeRouting(tree, ports)
    for s, t in [(0, 39), (17, 3), (5, 5), (39, 20)]:
        assert _route_in_tree(tr, ports, s, t) == tree.tree_path(s, t)


def test_record_is_constant_size():
    g = random_tree(200, seed=7)
    tr = TreeRouting(_tree_from_graph(g), PortAssignment(g))
    for v in g.vertices():
        assert len(tr.record_of(v)) == 6


def test_label_light_entries_logarithmic():
    g = random_tree(300, seed=8)
    tr = TreeRouting(_tree_from_graph(g), PortAssignment(g))
    bound = math.log2(300) + 1
    for v in g.vertices():
        _, stops = tr.label_of(v)
        assert len(stops) <= bound


def test_heavy_path_label_is_empty_on_path_graph():
    g = path(50)
    tr = TreeRouting(_tree_from_graph(g), PortAssignment(g))
    # A path is one heavy path: no light stops anywhere.
    for v in g.vertices():
        assert tr.label_of(v)[1] == ()


def test_subtree_restricted_tree():
    """Trees over vertex subsets (cluster trees) route correctly."""
    g = erdos_renyi(40, 0.15, seed=9)
    m = MetricView(g)
    members = sorted(m.ball(0, 15))
    parents = cluster_parents(g, 0, members, m.row(0)[members].tolist())
    tree = RootedTree(parents)
    ports = PortAssignment(g)
    tr = TreeRouting(tree, ports)
    for s in members[::3]:
        for t in members[::4]:
            assert _route_in_tree(tr, ports, s, t) == tree.tree_path(s, t)


def test_members_listing():
    g = random_tree(20, seed=10)
    tree = _tree_from_graph(g)
    tr = TreeRouting(tree, PortAssignment(g))
    assert sorted(tr.members()) == list(range(20))


def test_target_outside_tree_raises_at_root():
    g = path(5)
    m = MetricView(g)
    members = [0, 1, 2]
    tree = RootedTree(cluster_parents(g, 0, members, m.row(0)[members]))
    tr = TreeRouting(tree, PortAssignment(g))
    fake_label = (999, ())
    with pytest.raises(ValueError):
        tree_step(tr.record_of(0), fake_label)
