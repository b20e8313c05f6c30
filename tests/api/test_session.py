"""RoutingSession lifecycle: build, measure, persist, restore.

The core guarantee: for EVERY registered scheme, build → ``save`` (a
directory of checksummed packs) → ``load`` produces a scheme that makes
identical ``step`` decisions (same paths, same header sizes) and reports
identical word counts on a sampled workload — without re-running
preprocessing.
"""

import json
import os

import pytest

from repro.api import (
    SubstrateCache,
    build,
    get_spec,
    load,
    scheme_names,
)
from repro.eval.workloads import sample_pairs
from repro.graph.generators import erdos_renyi, with_random_weights
from repro.routing.serving import RetiredLayoutError

N = 70


@pytest.fixture(scope="module")
def graphs():
    gu = erdos_renyi(N, 8.0 / (N - 1), seed=33)
    gw = with_random_weights(gu, seed=34, low=1.0, high=8.0)
    return {"unweighted": gu, "weighted": gw}


@pytest.fixture(scope="module")
def caches():
    return {"unweighted": SubstrateCache(), "weighted": SubstrateCache()}


def _session_for(name, graphs, caches):
    spec = get_spec(name)
    kind = "weighted" if spec.weighted_capable else "unweighted"
    return build(name, graphs[kind], cache=caches[kind], seed=6)


@pytest.mark.parametrize("name", scheme_names())
def test_roundtrip_identical_decisions_and_words(
    name, graphs, caches, tmp_path
):
    session = _session_for(name, graphs, caches)
    path = session.save(str(tmp_path / name))
    restored = load(path)

    assert restored.loaded
    assert restored.spec_name == name
    assert restored.name == session.name
    assert restored.graph.n == session.graph.n

    # identical step decisions on a sampled workload
    for s, t in sample_pairs(session.graph.n, 40, seed=91):
        original = session.route(s, t)
        again = restored.route(s, t)
        assert again.path == original.path, (name, s, t)
        assert again.length == pytest.approx(original.length)
        assert again.max_header_words == original.max_header_words

    # identical word accounting
    st1, st2 = session.stats(), restored.stats()
    assert st2.total_table_words == st1.total_table_words
    assert st2.max_table_words == st1.max_table_words
    assert st2.max_label_words == st1.max_label_words
    assert st2.table_breakdown_max == st1.table_breakdown_max


@pytest.mark.parametrize("name", ["thm11", "tz3"])
def test_loaded_session_measures_within_bound(name, graphs, caches, tmp_path):
    session = _session_for(name, graphs, caches)
    path = session.save(str(tmp_path / name))
    restored = load(path)
    report = restored.measure(count=60, seed=5)
    alpha, beta = restored.stretch_bound()
    assert report.max_additive_over <= beta + 1e-9


class TestSessionSurface:
    def test_build_times_separated(self, graphs):
        session = build("tz2", graphs["weighted"], seed=1)
        assert session.build_seconds > 0.0
        assert session.substrate_seconds > 0.0  # cold facade build
        warm = build(
            "tz3", graphs["weighted"],
            substrate=session.substrate, seed=1,
        )
        assert warm.substrate_seconds < session.substrate_seconds

    def test_validate_passes_for_built_scheme(self, graphs, caches):
        session = _session_for("warmup3", graphs, caches)
        result = session.validate(sample=50)
        assert result.ok, result.problems

    def test_measure_rejects_empty_sample(self, graphs, caches):
        session = _session_for("tz2", graphs, caches)
        for count in (0, -5):
            with pytest.raises(ValueError, match="count >= 1"):
                session.measure(count=count)
        # explicit pairs never consult count
        assert session.measure([(0, 5)], count=0).pairs == 1

    def test_graph_serialization_preserves_port_order(self, graphs, caches,
                                                      tmp_path):
        for name in scheme_names():
            session = _session_for(name, graphs, caches)
            restored = load(session.save(str(tmp_path / name)))
            g1, g2 = session.graph, restored.graph
            assert g2.n == g1.n and g2.m == g1.m
            for u in g1.vertices():
                # insertion order — not just the neighbour sets —
                # survives, so the deterministic port numbering is
                # reproduced exactly
                assert g2.neighbors(u) == g1.neighbors(u), (name, u)
                for v in g1.neighbors(u):
                    assert g2.weight(u, v) == g1.weight(u, v)
                for port in range(session.scheme.ports.degree(u)):
                    assert restored.scheme.ports.neighbor(u, port) == \
                        session.scheme.ports.neighbor(u, port)


def _edit_manifest(path, **fields):
    manifest_path = os.path.join(path, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    manifest.update(fields)
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)


class TestPayloadValidation:
    def test_wrong_format_rejected(self, graphs, caches, tmp_path):
        session = _session_for("tz2", graphs, caches)
        path = session.save(str(tmp_path / "tz2"))
        _edit_manifest(path, format="something-else")
        with pytest.raises(ValueError, match="format"):
            load(path)

    def test_spec_class_mismatch_rejected(self, graphs, caches, tmp_path):
        session = _session_for("tz2", graphs, caches)
        path = session.save(str(tmp_path / "tz2"))
        _edit_manifest(path, spec="thm11")  # wrong family for the class
        with pytest.raises(ValueError, match="compiled by"):
            load(path)


class TestLoadValidation:
    def test_file_rejected_as_retired_layout(self, tmp_path):
        path = tmp_path / "session.json"
        path.write_text('{"format": "repro.api.session", "version": 1}')
        with pytest.raises(RetiredLayoutError, match="repro shard"):
            load(str(path))

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load(str(tmp_path / "nope"))

    def test_save_has_no_shards_knob(self, graphs, caches, tmp_path):
        session = _session_for("tz2", graphs, caches)
        with pytest.raises(TypeError):
            session.save(str(tmp_path / "x"), shards=True)
