"""The one array pass that builds every Lemma 3 tree.

:func:`repro.routing.tree_routing.tree_routings` builds a batch of trees
at once, full-graph shortest-path trees (a root's hop column) and
cluster trees (a ``child -> parent`` map) mixed, and
:class:`~repro.routing.tree_routing.TreeRouting` builds labels on
demand.  Both are held to the DFS construction of
``tests/tree_reference.py`` over the same tree: every member's record,
and every label asked for in random order so that later labels start
from memoized ancestors.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Substrate, build, get_spec, scheme_names
from repro.graph.core import Graph
from repro.graph.generators import (
    erdos_renyi,
    random_sparse,
    with_random_weights,
)
from repro.graph.metric import HopWalkError, MetricView
from repro.graph.trees import RootedTree
from repro.routing import tree_routing
from repro.routing.ports import PortAssignment
from repro.routing.tree_routing import full_tree_routings, tree_routings
from repro.structures.bunches import BunchStructure
from tree_reference import reference_tree_routing, spt_parents


def _graph(n, extra, seed, weights):
    """A connected graph; ``weights`` is ``None`` (unweighted) or the
    largest integer weight (small ranges tie many paths)."""
    g = random_sparse(n, n - 1 + extra, seed=seed)
    if weights is None:
        return g
    rng = random.Random(seed)
    out = Graph(n)
    for u, v, _ in g.edges():
        out.add_edge(u, v, float(rng.randint(1, weights)))
    return out


def _assert_matches(parents, ports, trees, rng):
    """Each ``trees[i]`` against the reference over ``parents[i]``."""
    assert len(trees) == len(parents)
    for parent, tr in zip(parents, trees):
        tree = RootedTree(parent)
        assert tr.root == tree.root
        records, labels = reference_tree_routing(tree, ports)
        assert {v: tr.record_of(v) for v in parent} == records
        order = list(parent)
        rng.shuffle(order)
        assert {v: tr.label_of(v) for v in order} == labels


def _assert_batch_matches(m, ports, roots, trees, rng):
    parents = [spt_parents(m, root) for root in roots]
    _assert_matches(parents, ports, trees, rng)


@pytest.mark.parametrize("weights", [None, 3], ids=["unw", "int-w"])
@given(
    n=st.integers(1, 45),
    extra=st.integers(0, 60),
    seed=st.integers(0, 10_000),
    port_seed=st.integers(0, 10_000),
    cache_rows=st.integers(1, 5),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_parity_random_graphs(
    weights, n, extra, seed, port_seed, cache_rows, data
):
    """Random connected graphs, several roots per batch; with
    ``cache_rows`` below the root count the batches split at chunk
    boundaries."""
    g = _graph(n, extra, seed, weights)
    m = MetricView(g, cache_rows=cache_rows)
    ports = PortAssignment(g, seed=port_seed)
    roots = data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=9, unique=True)
    )
    trees = full_tree_routings(m, ports, roots)
    _assert_batch_matches(m, ports, roots, trees, random.Random(seed))


@pytest.mark.parametrize("weights", [None, 3], ids=["unw", "int-w"])
@given(
    n=st.integers(1, 40),
    extra=st.integers(0, 50),
    seed=st.integers(0, 10_000),
    port_seed=st.integers(0, 10_000),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_parity_mixed_batch(weights, n, extra, seed, port_seed, data):
    """One batch of full-graph trees and the cluster trees of a
    :class:`BunchStructure` over random landmarks, in random order."""
    g = _graph(n, extra, seed, weights)
    m = MetricView(g)
    ports = PortAssignment(g, seed=port_seed)
    ids = st.integers(0, n - 1)
    b = BunchStructure(
        m, data.draw(st.lists(ids, min_size=1, max_size=n, unique=True))
    )
    clusters = [(w, b.cluster_tree(w)) for w in range(n) if b.cluster(w)]
    full = [
        (r, m.hop_column(r))
        for r in data.draw(st.lists(ids, max_size=5, unique=True))
    ]
    batch = data.draw(st.permutations(clusters + full))
    trees = tree_routings(batch, ports)
    parents = [
        p if isinstance(p, dict) else spt_parents(m, r) for r, p in batch
    ]
    _assert_matches(parents, ports, trees, random.Random(seed))


def test_parity_every_root_in_one_batch():
    g = _graph(120, 200, 5, None)
    m = MetricView(g, cache_rows=200)
    ports = PortAssignment(g, seed=9)
    roots = list(range(g.n))
    trees = tree_routings([(r, m.hop_column(r)) for r in roots], ports)
    _assert_batch_matches(m, ports, roots, trees, random.Random(1))


def test_equal_size_siblings_heavy_child_is_smallest_id():
    # Root 4 has children 1, 6 and 8, each heading a subtree of 3.
    edges = [(4, 8), (4, 6), (4, 1), (8, 9), (8, 0), (6, 7), (6, 2),
             (1, 5), (1, 3)]
    g = Graph.from_edges(10, edges)
    m = MetricView(g)
    for port_seed in (None, 3, 4):
        ports = PortAssignment(g, seed=port_seed)
        (tr,) = full_tree_routings(m, ports, [4])
        assert tr.record_of(4)[3] == ports.port_to(4, 1)
        assert tr.record_of(4)[4:] == (1, 4)
        _assert_batch_matches(m, ports, [4], [tr], random.Random(port_seed))


def test_one_vertex_graph():
    g = Graph(1)
    (tr,) = full_tree_routings(MetricView(g), PortAssignment(g), [0])
    assert tr.record_of(0) == (0, 1, -1, -1, 0, 0)
    assert tr.label_of(0) == (0, ())


def test_no_roots_is_no_trees():
    g = _graph(5, 2, 1, None)
    m = MetricView(g)
    assert full_tree_routings(m, PortAssignment(g), []) == []
    assert m.rows_computed == 0


def test_cycling_column_raises_hop_walk_error():
    # toward 0: 3 -> 0, and 1 and 2 are each other's first hop
    g = Graph.from_edges(4, [(0, 3), (3, 1), (3, 2), (1, 2)])
    cols = np.array([[0, 2, 1, 0], [1, 1, 1, 1]])
    with pytest.raises(HopWalkError, match="from 1 toward 0 .* 4 steps"):
        tree_routings(list(zip([0, 1], cols)), PortAssignment(g))


def test_unreachable_vertex_is_reported():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError, match="2 has no first hop toward 0"):
        tree_routings([(0, np.array([0, 0, -1]))], PortAssignment(g))


def test_non_edge_parent_rejected():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="not a neighbour"):
        tree_routings([(0, np.array([0, 0, 0]))], PortAssignment(g))


class TestSubstrateBatch:
    """``Substrate.tree_routing(roots, None)``: memoized per root, one
    hit or one miss per root asked for."""

    def test_hits_and_misses_per_root(self):
        g = _graph(40, 60, 2, None)
        sub = Substrate(g)
        first = sub.tree_routing([3, 7, 3], None)
        assert first[0] is first[2]
        assert sub.stats()["trees"]["misses"] == 2
        assert sub.stats()["trees"]["hits"] == 1
        again = sub.tree_routing([7, 11], None)
        assert again[0] is first[1]
        assert sub.stats()["trees"]["misses"] == 3
        assert sub.stats()["trees"]["hits"] == 2

    def test_batches_read_columns_in_chunks(self, monkeypatch):
        g = _graph(60, 90, 3, None)
        m = MetricView(g, cache_rows=4)
        sub = Substrate(g, metric=m)
        batches = []

        def spy(trees, ports):
            batches.append([r for r, _ in trees])
            return tree_routings(trees, ports)

        monkeypatch.setattr(tree_routing, "tree_routings", spy)
        roots = list(range(1, 60, 5))
        trees = sub.tree_routing(roots, None)
        assert batches == [roots[:4], roots[4:8], roots[8:]]
        assert m.rows_computed == 1 + len(roots)  # + row(0), for tol
        _assert_batch_matches(m, sub.ports, roots, trees, random.Random(3))


@pytest.mark.parametrize(
    "weighted, hits, misses", [(False, 436, 420), (True, 194, 235)],
    ids=["unw", "w"],
)
def test_shared_handle_tree_counts(weighted, hits, misses):
    """Every registered scheme on one handle: a batch counts one hit or
    one miss per key, as asking key by key does (the pinned counts are
    the key-by-key ones), and every miss leaves one memoized tree."""
    g = erdos_renyi(90, 7.0 / 89, seed=17)
    if weighted:
        g = with_random_weights(g, seed=18, low=1.0, high=8.0)
    sub = Substrate(g)
    for name in scheme_names():
        if weighted and not get_spec(name).weighted_capable:
            continue
        build(name, g, substrate=sub, seed=4)
    stats = sub.stats()["trees"]
    assert (stats["hits"], stats["misses"]) == (hits, misses)
    assert len(sub._trees) == misses
