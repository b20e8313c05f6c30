"""Cluster-bounded sampling (Lemma 4)."""

import numpy as np
import pytest

from repro.graph.generators import erdos_renyi, with_random_weights
from repro.graph.metric import MetricView
from repro.structures.sampling import cluster_sizes, sample_cluster_bounded


class TestClusterSizes:
    def test_empty_landmarks_gives_full_clusters(self, metric_er):
        sizes = cluster_sizes(metric_er, [])
        assert all(s == metric_er.n for s in sizes)

    def test_all_landmarks_gives_empty_clusters(self, metric_er):
        sizes = cluster_sizes(metric_er, list(range(metric_er.n)))
        assert all(s == 0 for s in sizes)

    def test_landmark_clusters_empty(self, metric_er):
        a = [0, 5, 9]
        sizes = cluster_sizes(metric_er, a)
        for w in a:
            assert sizes[w] == 0


class TestSampling:
    @pytest.mark.parametrize("s", [4.0, 8.0, 20.0])
    def test_postcondition_holds(self, metric_er, s):
        a = sample_cluster_bounded(metric_er, s, seed=1)
        sizes = cluster_sizes(metric_er, a)
        assert sizes.max() <= 4.0 * metric_er.n / s

    def test_postcondition_weighted(self, metric_er_weighted):
        a = sample_cluster_bounded(metric_er_weighted, 10.0, seed=2)
        sizes = cluster_sizes(metric_er_weighted, a)
        assert sizes.max() <= 4.0 * metric_er_weighted.n / 10.0

    def test_deterministic_for_seed(self, metric_er):
        assert sample_cluster_bounded(metric_er, 8.0, seed=5) == \
            sample_cluster_bounded(metric_er, 8.0, seed=5)

    def test_size_scales_with_s(self, metric_er):
        small = sample_cluster_bounded(metric_er, 4.0, seed=3)
        large = sample_cluster_bounded(metric_er, 30.0, seed=3)
        assert len(small) <= len(large) + 5  # generous slack for randomness

    def test_invalid_s_rejected(self, metric_er):
        with pytest.raises(ValueError):
            sample_cluster_bounded(metric_er, 0.0)

    def test_custom_bound_factor(self, metric_er):
        a = sample_cluster_bounded(metric_er, 8.0, seed=4, bound_factor=2.0)
        sizes = cluster_sizes(metric_er, a)
        assert sizes.max() <= 2.0 * metric_er.n / 8.0

    def test_huge_s_means_dense_sample(self, metric_er):
        n = metric_er.n
        a = sample_cluster_bounded(metric_er, float(n), seed=6)
        sizes = cluster_sizes(metric_er, a)
        assert sizes.max() <= 4


class TestCrossRoundCache:
    """The cluster-size cache must be invisible: identical samples,
    identical RNG stream, on every metric mode — only fewer row scans."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_cache_matches_rescan_reference(self, metric_er_weighted, seed):
        cached = sample_cluster_bounded(
            metric_er_weighted, 9.0, seed=seed, use_cache=True
        )
        rescan = sample_cluster_bounded(
            metric_er_weighted, 9.0, seed=seed, use_cache=False
        )
        assert cached == rescan

    def test_cache_matches_across_modes(self, request):
        # the kernel's bounded engine vs the reference threshold scans
        g = with_random_weights(erdos_renyi(50, 0.12, seed=31), seed=32)
        seeds = (1, 7)
        kernel = [sample_cluster_bounded(MetricView(g), 7.0, s) for s in seeds]
        request.getfixturevalue("reference_engine")
        for s, got in zip(seeds, kernel):
            assert sample_cluster_bounded(MetricView(g), 7.0, s) == got

    def test_cache_matches_on_disconnected_graph(self):
        g = with_random_weights(
            erdos_renyi(60, 0.04, seed=33, connected=False), seed=34
        )
        m = MetricView(g)
        assert sample_cluster_bounded(m, 6.0, seed=2) == (
            sample_cluster_bounded(m, 6.0, seed=2, use_cache=False)
        )

    def test_cache_skips_repeated_full_scans(self):
        g = with_random_weights(erdos_renyi(120, 0.06, seed=35), seed=36)
        rescan = MetricView(g)
        sample_cluster_bounded(rescan, 11.0, seed=4, use_cache=False)
        cached = MetricView(g)
        sample_cluster_bounded(cached, 11.0, seed=4, use_cache=True)
        swept_rescan = rescan.rows_computed + rescan.bounded_rows_computed
        swept_cached = cached.rows_computed + cached.bounded_rows_computed
        # The reference pays ~n bounded rows per round; the cache pays n
        # once (round two) plus the shrinking suspect sets.
        assert swept_cached < swept_rescan

    def test_count_rows_below_sources_subset(self, metric_er_weighted):
        m = metric_er_weighted
        thr = m.columns([3, 17]).min(axis=1)
        full = m.count_rows_below(thr)
        subset = m.count_rows_below(thr, sources=[5, 40, 71])
        assert np.array_equal(subset, full[[5, 40, 71]])
