"""The array pass for full-graph shortest-path trees (Lemma 3).

:func:`repro.routing.tree_routing.spt_routings` builds a batch of
full-graph trees at once and :class:`SPTRouting` builds labels on
demand.  Both are held to the DFS construction of
``tests/tree_reference.py`` over the tree the roots' hop columns give:
every vertex's record, and every label asked for in random order so
that later labels start from memoized ancestors.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Substrate
from repro.graph.core import Graph
from repro.graph.generators import random_sparse
from repro.graph.metric import HopWalkError, MetricView
from repro.graph.trees import RootedTree
from repro.routing import tree_routing
from repro.routing.ports import PortAssignment
from repro.routing.tree_routing import full_tree_routings, spt_routings
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


def _assert_batch_matches(m, ports, roots, trees, rng):
    assert len(trees) == len(roots)
    for root, tr in zip(roots, trees):
        assert tr.root == root
        records, labels = reference_tree_routing(
            RootedTree(spt_parents(m, root)), ports
        )
        assert {v: tr.record_of(v) for v in range(m.n)} == records
        order = list(range(m.n))
        rng.shuffle(order)
        assert {v: tr.label_of(v) for v in order} == labels


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


def test_parity_every_root_in_one_batch():
    g = _graph(120, 200, 5, None)
    m = MetricView(g, cache_rows=200)
    ports = PortAssignment(g, seed=9)
    roots = list(range(g.n))
    trees = spt_routings(
        np.stack([m.hop_column(r) for r in roots]), roots, ports
    )
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
        spt_routings(cols, [0, 1], PortAssignment(g))


def test_unreachable_vertex_is_reported():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError, match="2 has no first hop toward 0"):
        spt_routings(np.array([[0, 0, -1]]), [0], PortAssignment(g))


def test_non_edge_parent_rejected():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="not a neighbour"):
        spt_routings(np.array([[0, 0, 0]]), [0], PortAssignment(g))


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

        def spy(cols, roots, ports):
            batches.append(list(roots))
            return spt_routings(cols, roots, ports)

        monkeypatch.setattr(tree_routing, "spt_routings", spy)
        roots = list(range(1, 60, 5))
        trees = sub.tree_routing(roots, None)
        assert batches == [roots[:4], roots[4:8], roots[8:]]
        assert m.rows_computed == 1 + len(roots)  # + row(0), for tol
        _assert_batch_matches(m, sub.ports, roots, trees, random.Random(3))
