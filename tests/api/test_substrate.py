"""Substrate sharing: one metric/ports/balls per graph across schemes."""

import pytest

from repro.api import (
    Substrate,
    SubstrateCache,
    TABLE1_SCHEMES,
    build,
    get_spec,
    scheme_names,
)
from repro.eval.harness import evaluate_scheme
from repro.graph.generators import erdos_renyi, with_random_weights
from repro.routing.shard_codec import encode_node_table
from repro.routing.simulator import route


def _encoded_tables(scheme):
    return [encode_node_table(t) for t in scheme.compile_tables()]


def _alone(session):
    """The session's scheme rebuilt with no substrate handle."""
    spec = get_spec(session.spec_name)
    return spec.factory(session.graph, seed=session.seed, **session.params)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(90, 7.0 / 89, seed=17)


class TestSubstrateHandle:
    def test_metric_and_ports_built_once_and_stamped(self, graph):
        sub = Substrate(graph)
        m1, m2 = sub.metric, sub.metric
        p1, p2 = sub.ports, sub.ports
        assert m1 is m2
        assert p1 is p2
        assert m1.substrate_stamp == sub.generation
        assert p1.substrate_stamp == sub.generation

    def test_generations_are_unique_per_handle(self, graph):
        assert Substrate(graph).generation != Substrate(graph).generation

    def test_adopted_artifact_keeps_original_stamp(self, graph):
        # Stamps prove which substrate BUILT an artifact: adopting a
        # metric from another handle must not forge its provenance.
        first = Substrate(graph)
        metric = first.metric
        second = Substrate(graph, metric=metric)
        assert second.metric is metric
        assert metric.substrate_stamp == first.generation

    def test_ball_family_memoized_per_ell(self, graph):
        sub = Substrate(graph)
        f1 = sub.ball_family(12)
        f2 = sub.ball_family(12)
        f3 = sub.ball_family(13)
        assert f1 is f2
        assert f3 is not f1
        assert sub.stats()["balls"]["hits"] == 1
        assert sub.stats()["balls"]["misses"] == 2

    def test_landmarks_memoized_on_s_and_seed(self, graph):
        sub = Substrate(graph)
        a = sub.landmark_sample(9.0, 3)
        b = sub.landmark_sample(9.0, 3)
        sub.landmark_sample(9.0, 4)
        assert a == b
        stats = sub.stats()["landmarks"]
        # same (s, seed) -> cache hit; different seed -> its own entry
        assert stats["hits"] == 1
        assert stats["misses"] == 2

    def test_hierarchy_memoized_on_k_and_seed(self, graph):
        sub = Substrate(graph)
        h1 = sub.hierarchy(3, 5)
        h2 = sub.hierarchy(3, 5)
        h3 = sub.hierarchy(4, 5)
        assert h1 is h2
        assert h3 is not h1

    def test_coloring_memoized_on_ell_q_seed(self, graph):
        sub = Substrate(graph)
        c1 = sub.coloring(20, 5, 3)
        c2 = sub.coloring(20, 5, 3)
        sub.coloring(20, 5, 4)
        assert c1 == c2
        assert c1 is not c2  # defensive copy per caller
        stats = sub.stats()["coloring"]
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        # memoization is invisible in the result
        from repro.structures.coloring import find_coloring

        cold = find_coloring(
            sub.ball_family(20).balls(), graph.n, 5, seed=3
        )
        assert c1 == cold

    def test_hash_coloring_memoized(self, graph):
        sub = Substrate(graph)
        s1, c1 = sub.hash_coloring(20, 5, 3)
        s2, c2 = sub.hash_coloring(20, 5, 3)
        assert (s1, c1) == (s2, c2)
        assert sub.stats()["coloring"]["hits"] == 1

    def test_hitting_set_memoized_per_ell(self, graph):
        sub = Substrate(graph)
        h1 = sub.hitting_set(20)
        h2 = sub.hitting_set(20)
        sub.hitting_set(21)
        assert h1 == h2
        stats = sub.stats()["hitting"]
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        from repro.structures.hitting_set import greedy_hitting_set

        assert h1 == greedy_hitting_set(sub.ball_family(20).balls())


class TestTechnique1StateSharing:
    """The eps-independent Technique 1 state (coloring, hitting set,
    global hub trees) is shared on the substrate: an eps-resweep of a
    Technique 1 scheme rebuilds none of it, and the shared build is
    bit-identical to a cold one."""

    def test_resweep_hits_coloring_hitting_and_trees(self, graph):
        cache = SubstrateCache()
        build("warmup3", graph, cache=cache, seed=5, eps=0.5)
        sub = cache.substrate(graph)
        before = sub.stats()
        build("warmup3", graph, cache=cache, seed=5, eps=0.9)
        after = sub.stats()
        for kind in ("coloring", "hitting", "trees"):
            assert after[kind]["hits"] > before[kind].get("hits", 0), kind
            assert after[kind]["misses"] == before[kind]["misses"], kind

    def test_thm10_hub_trees_hit_the_landmark_trees(self, graph):
        """thm10 builds its landmark trees first; each hub tree then
        counts one hit if the hub is a landmark and one miss if not."""
        sub = Substrate(graph)
        scheme = build("thm10", graph, substrate=sub, seed=5).scheme
        landmarks, hubs = set(scheme.landmarks), set(scheme.technique.hitting)
        assert landmarks & hubs
        clusters = sum(1 for (_, members) in sub._trees if members)
        trees = sub.stats()["trees"]
        assert trees["hits"] == len(landmarks & hubs)
        assert trees["misses"] == len(landmarks | hubs) + clusters

    def test_shared_technique1_build_equals_cold(self, graph):
        cache = SubstrateCache()
        build("thm11", graph, cache=cache, seed=5)  # warms cluster trees
        after_thm11 = build("thm10", graph, cache=cache, seed=5)
        assert cache.substrate(graph).stats()["trees"]["hits"] > 0
        resweep = build("thm10", graph, cache=cache, seed=5, eps=0.8)
        for shared, params in ((after_thm11, {}), (resweep, {"eps": 0.8})):
            cold = build("thm10", graph, seed=5, **params)
            assert (
                cold.stats().total_table_words
                == shared.stats().total_table_words
            )
            assert (
                cold.stats().table_breakdown_max
                == shared.stats().table_breakdown_max
            )
            for pair in [(0, 50), (3, 88), (12, 45)]:
                assert cold.route(*pair).path == shared.route(*pair).path


class TestSubstrateCache:
    def test_one_handle_per_graph(self, graph):
        cache = SubstrateCache()
        assert cache.substrate(graph) is cache.substrate(graph)

    def test_distinct_graphs_distinct_handles(self, graph):
        other = erdos_renyi(40, 0.2, seed=3)
        cache = SubstrateCache()
        assert cache.substrate(graph) is not cache.substrate(other)

    def test_mutated_graph_gets_fresh_handle(self):
        g = erdos_renyi(30, 0.3, seed=9)
        cache = SubstrateCache()
        first = cache.substrate(g)
        missing = next(
            (u, v)
            for u in g.vertices()
            for v in g.vertices()
            if u < v and not g.has_edge(u, v)
        )
        g.add_edge(*missing)
        assert cache.substrate(g) is not first


class TestFacadeSharing:
    """The acceptance-criterion test: all five Table-1 schemes on one
    n≈1000 graph through the facade reuse one metric + port assignment,
    proven by the substrate generation stamps."""

    @pytest.fixture(scope="class")
    def sessions(self):
        g = erdos_renyi(1000, 7.0 / 999, seed=23)
        cache = SubstrateCache()
        return [
            build(name, g, cache=cache, seed=11) for name in TABLE1_SCHEMES
        ], cache.substrate(g)

    def test_one_generation_stamp_across_all_five(self, sessions):
        built, substrate = sessions
        assert len(built) == 5
        stamps = {s.scheme.metric.substrate_stamp for s in built}
        stamps |= {s.scheme.ports.substrate_stamp for s in built}
        assert stamps == {substrate.generation}

    def test_metric_and_ports_identical_objects(self, sessions):
        built, substrate = sessions
        for session in built:
            assert session.scheme.metric is substrate.metric
            assert session.scheme.ports is substrate.ports

    def test_metric_built_once(self, sessions):
        _, substrate = sessions
        assert substrate.stats()["metric"]["misses"] == 1
        assert substrate.stats()["ports"]["misses"] == 1

    def test_ball_structures_reused_across_schemes(self, sessions):
        _, substrate = sessions
        # thm10 and thm11 request the same q = n^(1/3) ball family; the
        # second request must be a cache hit, not a rebuild.
        assert substrate.stats()["balls"]["hits"] >= 1
        assert substrate.stats()["ball_ports"]["hits"] >= 1

    def test_shared_equals_cold_build(self, sessions):
        built, _ = sessions
        # Sharing must be invisible in the result: each scheme built
        # with no substrate on the same graph compiles to byte-identical
        # tables, so words and routes agree too.
        for shared in built:
            cold = _alone(shared)
            assert cold.substrate is not shared.substrate
            assert (
                cold.stats().total_table_words
                == shared.stats().total_table_words
            ), shared.spec_name
            assert _encoded_tables(cold) == _encoded_tables(
                shared.scheme
            ), shared.spec_name
            for pair in [(0, 500), (3, 997), (123, 456)]:
                assert (
                    route(cold, *pair).path == shared.route(*pair).path
                ), (shared.spec_name, pair)


class TestOneBuildPath:
    """Every scheme builds through one ``Substrate``: the caller's, or a
    private one.  A build with no handle runs the same builders as one
    on a shared cache and compiles to the same bytes."""

    @pytest.fixture(scope="class")
    def shared(self, graph):
        weighted = with_random_weights(graph, seed=18, low=1.0, high=8.0)
        cache = SubstrateCache()
        return {
            name: build(
                name,
                weighted if get_spec(name).weighted_capable else graph,
                cache=cache, seed=4,
            )
            for name in scheme_names()
        }

    @pytest.mark.parametrize("name", scheme_names())
    def test_no_substrate_build_equals_shared_bytes(self, shared, name):
        session = shared[name]
        alone = _alone(session)
        assert alone.substrate is not session.substrate
        assert _encoded_tables(alone) == _encoded_tables(session.scheme)

    def test_lone_build_memoizes_on_a_private_handle(self, graph):
        from repro.schemes import Warmup3Scheme

        scheme = Warmup3Scheme(graph, seed=2)
        assert scheme.substrate.graph is graph
        assert scheme.metric is scheme.substrate.built_metric
        assert scheme.ports is scheme.substrate.built_ports
        assert scheme.substrate.stats()["balls"]["misses"] == 1


class TestInjectionSafety:
    def test_foreign_substrate_rejected(self, graph):
        other = erdos_renyi(40, 0.2, seed=3)
        sub = Substrate(other)
        with pytest.raises(ValueError, match="different graph"):
            build("tz2", graph, substrate=sub)

    def test_explicit_metric_disables_memoization(self, graph):
        from repro.graph.metric import MetricView
        from repro.schemes import Warmup3Scheme

        sub = Substrate(graph)
        own_metric = MetricView(graph)
        scheme = Warmup3Scheme(
            graph, metric=own_metric, substrate=sub, seed=2
        )
        # The scheme kept the caller's metric and must not have pulled
        # ball families computed against the substrate's metric.
        assert scheme.metric is own_metric
        assert "balls" not in sub.stats()

    def test_evaluate_scheme_counts_no_metric_hit(self, graph):
        # Reading the metric ensure_core just built is no reuse.
        sub = Substrate(graph)
        evaluate_scheme(graph, "tz2", [(0, 50), (3, 88)], substrate=sub)
        assert sub.stats()["metric"]["hits"] == 0
        assert sub.stats()["metric"]["misses"] == 1
