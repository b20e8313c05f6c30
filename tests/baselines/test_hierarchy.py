"""The Thorup–Zwick sampled hierarchy."""

import numpy as np
import pytest

from repro.baselines.hierarchy import SampledHierarchy
from repro.graph.generators import erdos_renyi, with_random_weights
from repro.graph.metric import MetricView
from sp_reference import (
    kernel_dispatch,
    subgraph_dijkstra_py,
    threshold_reference,
)


@pytest.fixture(scope="module")
def h3(metric_er):
    return SampledHierarchy(metric_er, 3, seed=1)


class TestLevels:
    def test_monotone_and_nonempty(self, h3, metric_er):
        assert h3.level(0) == list(range(metric_er.n))
        assert set(h3.level(2)) <= set(h3.level(1)) <= set(h3.level(0))
        assert h3.level(2)
        assert h3.level(3) == []

    def test_level_of(self, h3, metric_er):
        for w in range(metric_er.n):
            lvl = h3.level_of(w)
            assert w in h3.level(lvl)
            assert lvl + 1 >= 3 or w not in h3.level(lvl + 1)

    def test_invalid_k_rejected(self, metric_er):
        with pytest.raises(ValueError):
            SampledHierarchy(metric_er, 1)

    def test_deterministic(self, metric_er):
        a = SampledHierarchy(metric_er, 3, seed=9)
        b = SampledHierarchy(metric_er, 3, seed=9)
        for i in range(3):
            assert a.level(i) == b.level(i)


class TestPivots:
    def test_pivot_distance_matches(self, h3, metric_er):
        for v in range(metric_er.n):
            for i in range(3):
                d = h3.pivot_distance(i, v)
                assert d == pytest.approx(
                    min(metric_er.d(v, w) for w in h3.level(i))
                )

    def test_collapse_invariant(self, h3):
        h3.validate()  # checks v in C(p_i(v)) for all i, among others

    def test_pivot_in_level(self, h3):
        for v in range(h3.n):
            for i in range(3):
                assert h3.pivot(i, v) in h3.level(i) or h3.pivot(
                    i, v
                ) in h3.level(i + 1)


class TestClusters:
    def test_transposition(self, h3):
        for v in range(h3.n):
            for w in h3.bunch(v):
                assert v in h3.cluster(w)

    def test_cluster_definition(self, h3, metric_er):
        for w in range(0, h3.n, 7):
            lvl = h3.level_of(w)
            nxt = h3.level(lvl + 1)
            for v in range(h3.n):
                if nxt:
                    bound = min(metric_er.d(v, x) for x in nxt)
                else:
                    bound = float("inf")
                assert (v in h3.cluster(w)) == (metric_er.d(w, v) < bound)

    def test_level0_cluster_bound_from_lemma4(self, h3, metric_er):
        """Lemma 4 bounds level-0 clusters by 4n/s, s = n^{1-1/k}."""
        n = metric_er.n
        bound = 4 * n / (n ** (1 - 1 / 3))
        level1 = set(h3.level(1))
        for w in range(n):
            if w not in level1:
                assert len(h3.cluster(w)) <= bound

    def test_top_level_clusters_are_everything(self, h3):
        for w in h3.level(2):
            assert len(h3.cluster(w)) == h3.n

    def test_max_bunch_size(self, h3):
        assert h3.max_bunch_size() == max(
            len(h3.bunch(v)) for v in range(h3.n)
        )


class TestWeighted:
    def test_validate_on_weighted(self, metric_er_weighted):
        h = SampledHierarchy(metric_er_weighted, 4, seed=2)
        h.validate()


class TestThresholdScans:
    """Each owner level's clusters come from one threshold scan with
    ``d(·, A_{i+1})`` (``inf`` on the top level)."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_level_scans_match_full_rows_on_every_mode(self, k):
        from repro import native

        g = with_random_weights(erdos_renyi(60, 0.1, seed=7), seed=8)
        modes = ["numpy", "pure"]
        if native.try_kernels() is not None:
            modes.append("native")
        scans = {}
        for mode in modes:
            with kernel_dispatch(mode):
                h = SampledHierarchy(MetricView(g), k, seed=3)
                scans[mode] = [
                    (
                        w, h.cluster(w),
                        np.asarray(h._cluster_dists[w]).tobytes(),
                    )
                    for w, _ in h.clusters()
                ]
            for i in range(k):
                thr = np.array(
                    [h.pivot_distance(i + 1, v) for v in range(g.n)]
                )
                if i + 1 == k:
                    assert np.isinf(thr).all()
                for w in range(g.n):
                    if h.level_of(w) != i:
                        continue
                    ref_v, _ = threshold_reference(g, w, thr)
                    assert h.cluster(w) == ref_v.tolist()
        for mode in modes:
            assert scans[mode] == scans["pure"], mode

    def test_cluster_trees_equal_induced_subgraph_dijkstra(self, h3):
        for w, members in h3.clusters():
            _, parent = subgraph_dijkstra_py(h3.metric.graph, w, members)
            assert h3.cluster_tree(w) == parent

    def test_every_vertex_roots_its_cluster_tree(self, h3):
        # level_of(w) = i means w is not in A_{i+1}, so w is in C(w)
        for w in range(h3.n):
            tree = h3.cluster_tree(w)
            assert [v for v, p in tree.items() if v == p] == [w]
            assert sorted(tree) == h3.cluster(w)
