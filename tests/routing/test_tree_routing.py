"""Tree routing (Lemma 3): exactness, compactness, port independence."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Substrate, build, get_spec, scheme_names
from repro.graph.core import Graph
from repro.graph.generators import (
    caterpillar,
    erdos_renyi,
    path,
    random_tree,
    star,
    with_random_weights,
)
from repro.graph.metric import HopWalkError, MetricView
from repro.graph.trees import RootedTree, cluster_parents
from repro.routing.ports import PortAssignment
from repro.routing.tree_routing import TreeRouting, tree_routings, tree_step
from tree_reference import (
    reference_tree_routing,
    routing_of,
    spt_parents,
    tree_path,
)


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
    return RootedTree(spt_parents(MetricView(g), root))


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
    tr = routing_of(tree, ports)
    for s in range(0, g.n, 5):
        for t in range(0, g.n, 7):
            trail = _route_in_tree(tr, ports, s, t)
            assert trail == tree_path(tree, s, t)


def test_exact_on_spt_of_dense_graph():
    g = with_random_weights(erdos_renyi(50, 0.15, seed=4), seed=5)
    tree = _tree_from_graph(g, root=10)
    ports = PortAssignment(g)
    tr = routing_of(tree, ports)
    for s in range(0, 50, 6):
        for t in range(1, 50, 7):
            assert _route_in_tree(tr, ports, s, t) == tree_path(tree, s, t)


@given(seed=st.integers(0, 50), port_seed=st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_port_numbering_independence(seed, port_seed):
    """The scheme must work for any (adversarial) port numbering."""
    g = random_tree(40, seed=seed)
    tree = _tree_from_graph(g)
    ports = PortAssignment(g, seed=port_seed)
    tr = routing_of(tree, ports)
    for s, t in [(0, 39), (17, 3), (5, 5), (39, 20)]:
        assert _route_in_tree(tr, ports, s, t) == tree_path(tree, s, t)


def test_record_is_constant_size():
    g = random_tree(200, seed=7)
    tr = routing_of(_tree_from_graph(g), PortAssignment(g))
    for v in g.vertices():
        assert len(tr.record_of(v)) == 6


def test_label_light_entries_logarithmic():
    g = random_tree(300, seed=8)
    tr = routing_of(_tree_from_graph(g), PortAssignment(g))
    bound = math.log2(300) + 1
    for v in g.vertices():
        _, stops = tr.label_of(v)
        assert len(stops) <= bound


def test_heavy_path_label_is_empty_on_path_graph():
    g = path(50)
    tr = routing_of(_tree_from_graph(g), PortAssignment(g))
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
    tr = routing_of(tree, ports)
    for s in members[::3]:
        for t in members[::4]:
            assert _route_in_tree(tr, ports, s, t) == tree_path(tree, s, t)


def test_records_cover_every_member():
    g = random_tree(20, seed=10)
    tree = _tree_from_graph(g)
    tr = routing_of(tree, PortAssignment(g))
    assert sorted(tr.record_of(v)[0] for v in range(20)) == list(range(20))


def test_target_outside_tree_raises_at_root():
    g = path(5)
    m = MetricView(g)
    members = [0, 1, 2]
    tree = RootedTree(cluster_parents(g, 0, members, m.row(0)[members]))
    tr = routing_of(tree, PortAssignment(g))
    fake_label = (999, ())
    with pytest.raises(ValueError):
        tree_step(tr.record_of(0), fake_label)


# ----------------------------------------------------------------------
# Parity with the DFS construction (tests/tree_reference.py)
# ----------------------------------------------------------------------
def _assert_matches_reference(tree, ports, tr=None):
    tr = routing_of(tree, ports) if tr is None else tr
    assert isinstance(tr, TreeRouting)
    records, labels = reference_tree_routing(tree, ports)
    assert tr.root == tree.root
    assert {v: tr.record_of(v) for v in tree.parent} == records
    assert {v: tr.label_of(v) for v in tree.parent} == labels
    return tr


@given(
    n=st.integers(1, 60),
    seed=st.integers(0, 10_000),
    root_pick=st.integers(0, 10_000),
    port_seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_parity_random_trees_adversarial_ports(n, seed, root_pick, port_seed):
    g = random_tree(n, seed=seed)
    tree = _tree_from_graph(g, root=root_pick % n)
    _assert_matches_reference(tree, PortAssignment(g, seed=port_seed))


@pytest.mark.parametrize(
    "graph_factory",
    [lambda: path(40), lambda: star(30), lambda: caterpillar(8, 3)],
    ids=["path", "star", "caterpillar"],
)
@pytest.mark.parametrize("port_seed", [None, 1, 2])
def test_parity_named_shapes(graph_factory, port_seed):
    g = graph_factory()
    for root in (0, g.n // 2, g.n - 1):
        _assert_matches_reference(
            _tree_from_graph(g, root), PortAssignment(g, seed=port_seed)
        )


def _equal_siblings():
    # Root 4 has children 1, 6 and 8, each heading a subtree of 3
    # vertices: the heavy child is the smallest id, 1.
    edges = [(4, 8), (4, 6), (4, 1), (8, 9), (8, 0), (6, 7), (6, 2),
             (1, 5), (1, 3)]
    g = Graph.from_edges(10, edges)
    return g, _tree_from_graph(g, root=4)


def test_parity_equal_size_siblings():
    g, tree = _equal_siblings()
    assert [tree.size[c] for c in tree.children[4]] == [3, 3, 3]
    for port_seed in (None, 3, 4):
        _assert_matches_reference(tree, PortAssignment(g, seed=port_seed))


def test_heavy_port_goes_to_largest_subtree():
    # Root 0 has children 1 (subtree of 4) and 2 (subtree of 2); 1's
    # children are 3 (subtree of 2) and 4 (a leaf).
    edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 6)]
    g = Graph.from_edges(7, edges)
    ports = PortAssignment(g)
    tr = routing_of(_tree_from_graph(g), ports)
    assert tr.record_of(0)[3] == ports.port_to(0, 1)
    assert tr.record_of(1)[3] == ports.port_to(1, 3)
    assert tr.record_of(6)[3:] == (-1, 0, 0)


def test_heavy_port_tie_goes_to_smallest_id():
    g, tree = _equal_siblings()
    ports = PortAssignment(g, seed=5)
    record = routing_of(tree, ports).record_of(4)
    assert record[3] == ports.port_to(4, 1)
    assert record[4:] == (1, 4)


def test_parity_cluster_tree_non_contiguous_ids():
    g = with_random_weights(erdos_renyi(60, 0.1, seed=11), seed=12)
    m = MetricView(g)
    members = sorted(m.ball(7, 20))
    assert members != list(range(members[0], members[0] + len(members)))
    parents = cluster_parents(g, 7, members, m.row(7)[members].tolist())
    for port_seed in (None, 8):
        _assert_matches_reference(
            RootedTree(parents), PortAssignment(g, seed=port_seed)
        )


def test_parity_one_vertex_tree():
    g = path(10)
    tr = _assert_matches_reference(RootedTree({7: 7}), PortAssignment(g))
    assert tr.record_of(7) == (0, 1, -1, -1, 0, 0)
    assert tr.label_of(7) == (0, ())


@pytest.mark.parametrize("weighted", [False, True], ids=["unw", "w"])
def test_parity_every_tree_in_a_substrate_memo(weighted):
    """Every tree the registered schemes build on one graph, rebuilt
    from its memo key: the full SPT for ``(root, None)`` (the parents
    off the root's hop column), the cluster tree of the member set
    otherwise."""
    g = erdos_renyi(90, 7.0 / 89, seed=17)
    if weighted:
        g = with_random_weights(g, seed=18, low=1.0, high=8.0)
    sub = Substrate(g)
    for name in scheme_names():
        if weighted and not get_spec(name).weighted_capable:
            continue
        build(name, g, substrate=sub, seed=4)
    memo = sub._trees
    assert any(members is None for _, members in memo)
    assert any(members is not None for _, members in memo)
    m = sub.metric
    for (root, members), tr in memo.items():
        if members is None:
            tree = RootedTree(spt_parents(m, root))
        else:
            dists = [m.d(root, v) for v in members]
            tree = RootedTree(cluster_parents(g, root, members, dists))
        _assert_matches_reference(tree, sub.ports, tr)


@pytest.mark.parametrize(
    "parent",
    [{0: 0, 1: 2, 2: 1}, {0: 0, 1: 1, 2: 0}, {0: 0, 1: 9}],
    ids=["cycle", "two-roots", "foreign-parent"],
)
def test_malformed_parent_maps_still_rejected(parent):
    with pytest.raises(ValueError):
        RootedTree(parent)
    g = Graph.from_edges(10, [(0, 1), (1, 2), (0, 2), (1, 9)])
    with pytest.raises(ValueError):
        tree_routings([(0, parent)], PortAssignment(g))
    # the same map beside a well-formed tree in one batch
    with pytest.raises(ValueError):
        tree_routings([(1, {1: 1, 0: 1}), (0, parent)], PortAssignment(g))


def test_malformed_parent_map_errors_name_the_fault():
    g = Graph.from_edges(10, [(0, 1), (1, 2), (0, 2), (1, 9)])
    ports = PortAssignment(g)
    with pytest.raises(HopWalkError, match="from 1 toward 0"):
        tree_routings([(0, {0: 0, 1: 2, 2: 1})], ports)
    with pytest.raises(ValueError, match="exactly that one root, found"):
        tree_routings([(0, {0: 0, 1: 1, 2: 0})], ports)
    with pytest.raises(ValueError, match="exactly that one root, found"):
        tree_routings([(1, {0: 0, 1: 0})], ports)  # 1 is no root
    with pytest.raises(ValueError, match="exactly that one root, found"):
        tree_routings([(5, {0: 0, 1: 0})], ports)  # 5 is no member
    with pytest.raises(ValueError, match="parent 9 of 1 is not a vertex"):
        tree_routings([(0, {0: 0, 1: 9})], ports)


def test_tree_edge_missing_from_graph_rejected():
    g = path(4)  # 0-1-2-3: 0-2 is no edge
    for ports in (PortAssignment(g), PortAssignment(g, seed=1)):
        with pytest.raises(ValueError, match="not a neighbour"):
            routing_of(RootedTree({0: 0, 1: 0, 2: 0}), ports)
        with pytest.raises(ValueError, match="not a neighbour"):
            tree_routings([(3, {3: 3, 2: 3}), (0, {0: 0, 1: 0, 2: 0})],
                          ports)
