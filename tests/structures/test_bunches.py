"""Bunches, clusters, pivots and cluster trees."""

import random

import pytest

from repro.graph.core import Graph
from repro.graph.generators import erdos_renyi
from repro.graph.metric import MetricView
from repro.structures.bunches import BunchStructure
from repro.structures.sampling import sample_cluster_bounded
from sp_reference import subgraph_dijkstra_py


def _tie_heavy():
    """Weights from {1, 2, 3} and from {0.1, 0.2, 0.3}: exact and
    ulp-broken equal-length paths."""
    rng = random.Random(3)
    base = erdos_renyi(70, 0.08, seed=3)
    edges = list(base.edges())
    return {
        "small-int": Graph.from_edges(
            70, [(u, v, float(rng.choice((1, 2, 3)))) for u, v, _ in edges]
        ),
        "inexact": Graph.from_edges(
            70, [(u, v, rng.choice((0.1, 0.2, 0.3))) for u, v, _ in edges]
        ),
    }


@pytest.fixture(scope="module")
def bunches_er(metric_er):
    a = sample_cluster_bounded(metric_er, 10.0, seed=1)
    return BunchStructure(metric_er, a), a


class TestPivots:
    def test_pivot_is_nearest_landmark(self, metric_er, bunches_er):
        b, a = bunches_er
        for v in range(metric_er.n):
            p = b.pivot(v)
            assert p in a
            d = b.distance_to_landmarks(v)
            assert d == pytest.approx(min(metric_er.d(v, x) for x in a))
            assert metric_er.d(v, p) == pytest.approx(d)

    def test_pivot_tie_break_smallest_id(self, metric_grid):
        # path inside grid has symmetric landmarks; check lexicographic rule
        b = BunchStructure(metric_grid, [0, metric_grid.n - 1])
        for v in range(metric_grid.n):
            d0 = metric_grid.d(v, 0)
            d1 = metric_grid.d(v, metric_grid.n - 1)
            if d0 == d1:
                assert b.pivot(v) == 0

    def test_landmark_is_own_pivot(self, metric_er, bunches_er):
        b, a = bunches_er
        for x in a:
            assert b.pivot(x) == x
            assert b.distance_to_landmarks(x) == 0.0

    def test_empty_landmarks_rejected(self, metric_er):
        with pytest.raises(ValueError):
            BunchStructure(metric_er, [])


class TestBunchesClusters:
    def test_transposition(self, metric_er, bunches_er):
        b, _ = bunches_er
        for v in range(metric_er.n):
            for w in b.bunch(v):
                assert v in b.cluster(w)
        for w in range(metric_er.n):
            for v in b.cluster(w):
                assert w in b.bunch(v)

    def test_definition(self, metric_er, bunches_er):
        b, _ = bunches_er
        for w in range(metric_er.n):
            expect = [
                v
                for v in range(metric_er.n)
                if metric_er.d(w, v) < b.distance_to_landmarks(v)
            ]
            assert b.cluster(w) == expect

    def test_landmark_clusters_empty(self, metric_er, bunches_er):
        b, a = bunches_er
        for x in a:
            assert b.cluster(x) == []

    def test_nonlandmark_in_own_cluster(self, metric_er, bunches_er):
        b, a = bunches_er
        for w in range(metric_er.n):
            if w not in a:
                assert w in b.cluster(w)

    def test_in_cluster_matches_lists(self, metric_er, bunches_er):
        b, _ = bunches_er
        for w in range(0, metric_er.n, 9):
            members = set(b.cluster(w))
            for v in range(metric_er.n):
                assert b.in_cluster(w, v) == (v in members)


class TestValidate:
    def test_validate_unweighted(self, bunches_er):
        bunches_er[0].validate()

    def test_validate_weighted(self, metric_er_weighted):
        a = sample_cluster_bounded(metric_er_weighted, 10.0, seed=2)
        BunchStructure(metric_er_weighted, a).validate()

    @pytest.mark.parametrize("kind", ["small-int", "inexact"])
    def test_validate_tie_heavy(self, kind):
        m = MetricView(_tie_heavy()[kind])
        BunchStructure(m, sample_cluster_bounded(m, 8.0, seed=4)).validate()

    def test_validate_catches_a_wrong_cluster(self, metric_er):
        b = BunchStructure(metric_er, [0, 5, 9])
        w = next(w for w in range(metric_er.n) if len(b.cluster(w)) > 1)
        b._clusters[w] = b._clusters[w][:-1]
        with pytest.raises(AssertionError):
            b.validate()


def _absorbed():
    """Float absorption: 1e20 + 1 == 1e20, so vertices 1, 2 and 3 all
    sit at 1e20 from 0 and the tight edges 3-1, 3-2 and 1-2 join one
    distance level; landmark 4 is far enough that C_A(0) is all of
    0..3."""
    return Graph.from_edges(
        5,
        [(0, 3, 1e20), (3, 1, 1.0), (3, 2, 1.0), (1, 2, 1.0), (0, 4, 1e22)],
    )


class TestClusterTrees:
    @pytest.mark.parametrize(
        "kind", ["unweighted", "small-int", "inexact", "absorbed"]
    )
    def test_parents_equal_induced_subgraph_dijkstra(self, kind, metric_er):
        if kind == "unweighted":
            m = metric_er
        elif kind == "absorbed":
            m = MetricView(_absorbed())
        else:
            m = MetricView(_tie_heavy()[kind])
        if kind == "absorbed":
            b = BunchStructure(m, [4])
            assert b.cluster(0) == [0, 1, 2, 3]
            assert b.cluster_tree(0).parent == {0: 0, 1: 3, 2: 1, 3: 0}
        else:
            b = BunchStructure(m, sample_cluster_bounded(m, 8.0, seed=5))
        trees = 0
        for w in range(m.n):
            members = b.cluster(w)
            if not members:
                continue
            dist, parent = subgraph_dijkstra_py(m.graph, w, members)
            assert b.cluster_tree(w).parent == parent
            assert b.cluster_distances(w) == [dist[v] for v in members]
            trees += 1
        assert trees > 0

    def test_tree_spans_cluster_with_exact_distances(
        self, metric_er, bunches_er
    ):
        b, a = bunches_er
        g = metric_er.graph
        for w in range(metric_er.n):
            members = b.cluster(w)
            if not members:
                continue
            tree = b.cluster_tree(w)
            assert set(tree.parent) == set(members)
            for v in members:
                # walk to the root accumulating weights = exact distance
                total, cur = 0.0, v
                while cur != w:
                    p = tree.parent[cur]
                    total += g.weight(cur, p)
                    cur = p
                assert total == pytest.approx(metric_er.d(w, v))

    def test_weighted_cluster_trees(self, metric_er_weighted):
        a = sample_cluster_bounded(metric_er_weighted, 10.0, seed=2)
        b = BunchStructure(metric_er_weighted, a)
        g = metric_er_weighted.graph
        for w in range(0, metric_er_weighted.n, 11):
            members = b.cluster(w)
            if not members:
                continue
            tree = b.cluster_tree(w)
            for v in members:
                total, cur = 0.0, v
                while cur != w:
                    p = tree.parent[cur]
                    total += g.weight(cur, p)
                    cur = p
                assert total == pytest.approx(metric_er_weighted.d(w, v))

    def test_empty_cluster_tree_rejected(self, metric_er, bunches_er):
        b, a = bunches_er
        with pytest.raises(ValueError):
            b.cluster_tree(a[0])

    def test_max_sizes_reported(self, metric_er, bunches_er):
        b, _ = bunches_er
        assert b.max_cluster_size() == max(
            len(b.cluster(w)) for w in range(metric_er.n)
        )
        assert b.max_bunch_size() == max(
            len(b.bunch(v)) for v in range(metric_er.n)
        )
