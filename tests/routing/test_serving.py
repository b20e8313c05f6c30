"""Serving engine: local-knowledge routing on per-vertex shards.

The acceptance bar for the sharded deployment path, asserted for EVERY
registered scheme on a seeded n >= 200 graph:

* **identical decisions** — the :class:`LocalRouter` (step-only scheme
  over lazily loaded shards) makes byte-identical step decisions, hop
  sequences, lengths and header sizes as the monolithic in-memory
  scheme, checked hop by hop,
* **local knowledge** — a route executed against a store holding *only*
  the shards of the vertices that route actually visits reproduces the
  exact same trace; every other vertex's pack entry (and, with small
  groups, every non-visited *group* file) is deleted first,
* serve statistics account exactly the shards a route touched, and the
  optional LRU bound keeps residency at the configured budget,
* **replica equivalence** — a replicated layout serves the same
  workload with identical serve counters and word accounting,
* retired layouts (one file per vertex, packs without checksums) are
  refused with a typed error naming the rebuild command.
"""

import os
import shutil
from pathlib import Path

import pytest

from repro.api import (
    RoutingSession,
    SubstrateCache,
    build,
    get_spec,
    load,
    scheme_names,
)
from repro.eval.workloads import sample_pairs
from repro.graph.generators import erdos_renyi, with_random_weights
from repro.routing.model import Deliver, Forward
from repro.routing.serving import (
    DirectIO,
    LocalRouter,
    RetiredLayoutError,
    ShardIntegrityError,
    ShardStore,
    WireContractError,
    open_store,
    write_shards,
)
from repro.routing.shard_codec import (
    ShardCodecError,
    encode_pack,
    encode_value,
    iter_pack_entries,
)

N = 220  # the local-knowledge invariant is asserted at n >= 200
PAIRS = 25


@pytest.fixture(scope="module")
def graphs():
    gu = erdos_renyi(N, 7.0 / (N - 1), seed=17)
    gw = with_random_weights(gu, seed=18, low=1.0, high=8.0)
    return {"unweighted": gu, "weighted": gw}


@pytest.fixture(scope="module")
def caches():
    return {"unweighted": SubstrateCache(), "weighted": SubstrateCache()}


@pytest.fixture(scope="module")
def shard_root(tmp_path_factory):
    return tmp_path_factory.mktemp("shards")


#: packed-group size for the tests: small enough that n=220 spans many
#: groups, so group-level deletion (local knowledge) means something
GROUP_SIZE = 16


@pytest.fixture(scope="module")
def served(graphs, caches, shard_root):
    """session + shard dir per scheme, built once for the module."""
    out = {}
    for name in scheme_names():
        spec = get_spec(name)
        kind = "weighted" if spec.weighted_capable else "unweighted"
        session = build(name, graphs[kind], cache=caches[kind], seed=6)
        path = str(shard_root / name)
        session.save(path)
        out[name] = (session, path)
    return out


def _write_small_groups(served, shard_root, suffix, replicas):
    out = {}
    for name, (session, _) in served.items():
        path = str(shard_root / f"{name}.{suffix}")
        write_shards(
            session.scheme, path,
            spec_name=session.spec_name, params=session.params,
            seed=session.seed, group_size=GROUP_SIZE, replicas=replicas,
        )
        out[name] = path
    return out


@pytest.fixture(scope="module")
def served_packed(served, shard_root):
    """GROUP_SIZE-vertex groups per scheme, from the same sessions."""
    return _write_small_groups(served, shard_root, "packed", 1)


@pytest.fixture(scope="module")
def served_replicated(served, shard_root):
    """The same small groups, each written to two replica roots."""
    return _write_small_groups(served, shard_root, "replicated", 2)


def _keep_entries(src, dst, keep):
    """Re-encode pack ``src`` into ``dst`` with only the vertices in
    ``keep`` — a structurally sound, checksummed pack that holds nothing
    else."""
    buf = src.read_bytes()
    dst.write_bytes(encode_pack([
        (v, bytes(memoryview(buf)[off:off + length]))
        for v, off, length in iter_pack_entries(buf)
        if v in keep
    ]))


def _dual_step_route(scheme, router, s, t, max_hops=None):
    """Drive both engines in lockstep, asserting every decision matches.

    Returns the common path.  This is stronger than comparing final
    routes: a pair of off-by-one errors that cancelled out would still
    fail here.
    """
    if max_hops is None:
        max_hops = 8 * scheme.graph.n + 64
    label = scheme.label_of(t)
    assert router.label_of(t) == label
    header = None
    u = s
    path = [s]
    for _ in range(max_hops + 1):
        a1 = scheme.step(u, header, label)
        a2 = router.step(u, header, label)
        assert type(a1) is type(a2), (u, a1, a2)
        if isinstance(a1, Deliver):
            assert u == t
            return path
        assert isinstance(a1, Forward)
        assert a1.port == a2.port, (u, a1, a2)
        assert a1.header == a2.header, (u, a1, a2)
        # the serving engine's bool-free header contract, checked for
        # every hop of every registered scheme (see LocalRouter._wire_len)
        from repro.routing.serving import _contains_bool

        assert not _contains_bool(a1.header), (u, a1.header)
        nxt = scheme.ports.neighbor(u, a1.port)
        assert router.local_edge(u, a1.port) == (
            nxt, scheme.graph.weight(u, nxt),
        )
        header = a1.header
        path.append(nxt)
        u = nxt
    raise AssertionError(f"route {s}->{t} not delivered")


#: upper bounds on the distance rows (``MetricView.rows_computed``) one
#: build of each registered scheme computes on a fresh substrate over
#: the ``graphs`` fixture (seed 6).  Cluster trees and Lemma 4 counts come
#: from threshold scans and read no rows; before that, each cluster
#: tree read its owner's row (tz2 234 rows, thm13 2 125, thm15 1 494,
#: thm16 500).  A full shortest-path tree reads its root's row (for the
#: hop column), so each global tree counts.  thm10 builds its Lemma 7
#: sequences class by class inside its one sweep (502 rows when they
#: took two sweeps of their own): 287 rows, under 1.2 n = 264 plus its
#: 46 global-tree roots.  A scheme without an entry fails, so a new one
#: gets a bound when it is registered.
FRESH_BUILD_ROWS = {
    "name-indep": 435,
    "thm10": 287,
    "thm11": 255,
    "thm13": 1577,
    "thm15": 1160,
    "thm16": 271,
    "tz2": 16,
    "tz3": 42,
    "tz4": 56,
    "warmup3": 435,
}


@pytest.mark.parametrize("name", scheme_names())
def test_fresh_build_row_count_bounded(name, graphs):
    kind = "weighted" if get_spec(name).weighted_capable else "unweighted"
    session = build(name, graphs[kind], cache=SubstrateCache(), seed=6)
    assert name in FRESH_BUILD_ROWS, f"no row bound for scheme {name!r}"
    assert session.scheme.metric.rows_computed <= FRESH_BUILD_ROWS[name]


@pytest.mark.parametrize("name", scheme_names())
def test_identical_step_decisions_hop_by_hop(name, served):
    session, path = served[name]
    router = LocalRouter(ShardStore(path))
    for s, t in sample_pairs(N, PAIRS, seed=77):
        _dual_step_route(session.scheme, router, s, t)


@pytest.mark.parametrize("name", scheme_names())
def test_local_knowledge_invariant(name, served, tmp_path):
    """Routes survive deletion of every shard the route does not visit.

    The paper's deployment claim made operational: the only state a
    route needs is the tables of the vertices it traverses (plus the
    destination label, and the destination is traversed).  Every other
    vertex's entry is cut out of the packs before the route runs.
    """
    session, path = served[name]
    full = load(path)
    groups = sorted(os.listdir(os.path.join(path, "groups")))
    for i, (s, t) in enumerate(sample_pairs(N, 8, seed=131)):
        reference = session.route(s, t)
        visited = set(reference.path) | {s, t}

        trimmed = tmp_path / f"{name}-{i}"
        os.makedirs(trimmed / "groups")
        shutil.copy(
            os.path.join(path, "manifest.json"),
            trimmed / "manifest.json",
        )
        for pack in groups:
            _keep_entries(
                Path(path) / "groups" / pack, trimmed / "groups" / pack,
                visited,
            )

        lonely = load(str(trimmed))
        result = lonely.route(s, t)
        assert result.path == reference.path, (name, s, t)
        assert result.length == pytest.approx(reference.length)
        assert result.hops == reference.hops
        assert result.max_header_words == reference.max_header_words
        # and the full shard set was genuinely not consulted
        stats = lonely.serve_stats()
        assert stats["loads"] <= len(visited)

    # sanity: a route through a deleted vertex fails loudly, it does not
    # silently reroute
    ref = full.route(0, N - 1)
    if len(ref.path) > 2:
        middle = ref.path[len(ref.path) // 2]
        broken_dir = tmp_path / f"{name}-broken"
        shutil.copytree(path, broken_dir)
        for pack in groups:
            _keep_entries(
                broken_dir / "groups" / pack, broken_dir / "groups" / pack,
                set(range(N)) - {middle},
            )
        broken = load(str(broken_dir))
        with pytest.raises(
            ShardIntegrityError, match=rf"no entry for vertex {middle}\b"
        ):
            broken.route(0, N - 1)


@pytest.mark.parametrize("name", ["thm11", "tz3"])
def test_routes_and_stats_match_via_session(name, served):
    session, path = served[name]
    restored = load(path)
    assert restored.loaded
    assert restored.spec_name == name
    assert restored.name == session.name
    for s, t in sample_pairs(N, 15, seed=5):
        r1 = session.route(s, t)
        r2 = restored.route(s, t)
        assert r1.path == r2.path
        assert r2.length == pytest.approx(r1.length)
        assert r1.max_header_words == r2.max_header_words
    st1, st2 = session.stats(), restored.stats()
    assert st2.total_table_words == st1.total_table_words
    assert st2.max_table_words == st1.max_table_words
    assert st2.max_label_words == st1.max_label_words
    assert st2.table_breakdown_max == st1.table_breakdown_max


def test_serve_stats_count_only_visited(served):
    _, path = served["tz2"]
    session = RoutingSession.from_shards(path)
    assert session.serve_stats()["loads"] == 0  # manifest only
    result = session.route(1, 100)
    stats = session.serve_stats()
    assert 0 < stats["loads"] <= len(set(result.path)) + 1
    assert stats["bytes_read"] > 0
    # warm repeat: no new loads
    session.route(1, 100)
    assert session.serve_stats()["loads"] == stats["loads"]
    assert session.serve_stats()["hits"] > stats["hits"]


def test_max_resident_bounds_memory(served):
    _, path = served["warmup3"]
    store = ShardStore(path, max_resident=4)
    router = LocalRouter(store)
    for s, t in sample_pairs(N, 10, seed=3):
        from repro.routing.simulator import route as sim_route

        sim_route(router, s, t)
        assert len(store._resident) <= 4


def test_measure_works_on_shard_session(served):
    session, path = served["warmup3"]
    restored = load(path)
    report = restored.measure(count=30, seed=8)
    alpha, beta = restored.stretch_bound()
    assert report.max_additive_over <= beta + 1e-9


def test_reshard_roundtrip(served, tmp_path):
    """A shard-backed session can re-export itself (rolling re-deploy)."""
    _, path = served["tz2"]
    restored = load(path)
    again = str(tmp_path / "re-export")
    write_shards(
        restored.scheme, again,
        spec_name=restored.spec_name, params=restored.params,
        seed=restored.seed,
    )
    twice = load(again)
    r1, r2 = restored.route(3, 50), twice.route(3, 50)
    assert r1.path == r2.path


# ----------------------------------------------------------------------
# small groups: one or two copies
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", scheme_names())
def test_packed_identical_step_decisions(name, served, served_packed):
    session, _ = served[name]
    router = LocalRouter(ShardStore(served_packed[name]))
    for s, t in sample_pairs(N, PAIRS, seed=77):
        _dual_step_route(session.scheme, router, s, t)


@pytest.mark.parametrize("name", scheme_names())
def test_replicated_equals_single_copy_serve_counters(
    name, served_packed, served_replicated
):
    """Same workload, same counters: the layouts differ only in copies."""
    single = LocalRouter(ShardStore(served_packed[name]))
    replicated = LocalRouter(ShardStore(served_replicated[name]))
    from repro.routing.simulator import route as sim_route

    for s, t in sample_pairs(N, 10, seed=41):
        r1 = sim_route(single, s, t)
        r2 = sim_route(replicated, s, t)
        assert r1.path == r2.path, (name, s, t)
        assert r2.length == pytest.approx(r1.length)
        assert r1.max_header_words == r2.max_header_words
    s1, s2 = single.store.stats(), replicated.store.stats()
    for key in ("n", "loads", "hits", "bytes_read", "resident",
                "groups_mapped", "failovers", "quarantined"):
        assert s1[key] == s2[key], (name, key, s1, s2)
    assert (s1["replicas"], s2["replicas"]) == (1, 2)
    assert single.header_stats() == replicated.header_stats()
    # manifests account identical payload bytes and words
    m1, m2 = single.store.manifest, replicated.store.manifest
    assert m1["bytes"] == m2["bytes"]
    assert m1["words"] == m2["words"]


@pytest.mark.parametrize("name", ["thm11", "tz3"])
def test_packed_word_accounting_matches(name, served, served_packed):
    session, _ = served[name]
    restored = load(served_packed[name])
    st1, st2 = session.stats(), restored.stats()
    assert st2.total_table_words == st1.total_table_words
    assert st2.max_table_words == st1.max_table_words
    assert st2.max_label_words == st1.max_label_words


@pytest.mark.parametrize("name", scheme_names())
def test_packed_local_knowledge_invariant(
    name, served, served_packed, tmp_path
):
    """Routes survive deletion of every *group* the route does not visit."""
    session, _ = served[name]
    path = served_packed[name]
    for i, (s, t) in enumerate(sample_pairs(N, 5, seed=131)):
        reference = session.route(s, t)
        visited = set(reference.path) | {s, t}
        store = ShardStore(path)
        groups = {store.group_of(v) for v in visited}

        trimmed = tmp_path / f"{name}-{i}"
        os.makedirs(trimmed / "groups")
        shutil.copy(
            os.path.join(path, "manifest.json"), trimmed / "manifest.json"
        )
        for g in groups:
            shutil.copy(
                store.group_path(g),
                trimmed / "groups" / os.path.basename(store.group_path(g)),
            )

        lonely = load(str(trimmed))
        result = lonely.route(s, t)
        assert result.path == reference.path, (name, s, t)
        assert result.length == pytest.approx(reference.length)
        assert result.max_header_words == reference.max_header_words
        stats = lonely.serve_stats()
        assert stats["loads"] <= len(visited)
        assert stats["groups_mapped"] <= len(groups)

    # a route through a deleted group fails loudly, never reroutes
    full = load(path)
    ref = full.route(0, N - 1)
    if len(ref.path) > 2:
        middle = ref.path[len(ref.path) // 2]
        store = ShardStore(path)
        broken_dir = tmp_path / f"{name}-broken"
        shutil.copytree(path, broken_dir)
        victim = os.path.basename(store.group_path(store.group_of(middle)))
        os.remove(broken_dir / "groups" / victim)
        broken = load(str(broken_dir))
        with pytest.raises(FileNotFoundError, match="group"):
            broken.route(0, N - 1)


def test_packed_session_autodetects_layout(served, served_packed):
    """`load` on a packed dir serves without being told the layout."""
    session, _ = served["thm11"]
    restored = load(served_packed["thm11"])
    assert restored.loaded
    assert restored.spec_name == "thm11"
    assert isinstance(restored.scheme.store, ShardStore)
    r1, r2 = session.route(3, 50), restored.route(3, 50)
    assert r1.path == r2.path


def test_open_store_dispatches_by_manifest(served_packed, served_replicated):
    """The manifest's replica count decides each group's candidates."""
    single = open_store(served_packed["tz2"])
    replicated = open_store(served_replicated["tz2"])
    assert (single.replicas, replicated.replicas) == (1, 2)
    assert single.copies(1) == [
        os.path.join(served_packed["tz2"], "groups", "0001.pack")
    ]
    assert replicated.copies(1) == [
        os.path.join(served_replicated["tz2"], "replica", str(r),
                     "groups", "0001.pack")
        for r in (0, 1)
    ]


def _retire(path, target, version):
    """Copy shard dir ``path`` to ``target`` and rewrite its manifest as
    retired layout ``version`` (1: one file per vertex, 2: packs without
    checksums)."""
    import json

    shutil.copytree(path, target)
    manifest = json.loads((target / "manifest.json").read_text())
    manifest["version"] = version
    if version == 1:
        manifest["layout"] = "files"
        manifest["fanout"] = 256
        for key in ("group_size", "checksums", "replicas"):
            del manifest[key]
    else:
        manifest["checksums"] = False
    (target / "manifest.json").write_text(json.dumps(manifest))
    return str(target)


@pytest.mark.parametrize("version", [1, 2])
def test_retired_layout_refused_everywhere(served_packed, tmp_path,
                                           capsys, version):
    """v1 (per-file) and v2 (unchecksummed) manifests raise one typed
    error — a ServingError that is also a ValueError — naming the
    rebuild command, from every entry point that reads a manifest."""
    import json
    import re

    from repro.__main__ import main
    from repro.cluster import Placement
    from repro.routing.serving import ServingError

    path = _retire(served_packed["tz2"], tmp_path / "old", version)
    rebuild = f"python -m repro shard --scheme tz2 --seed 6 --out {path}"
    for opener in (open_store, ShardStore, load):
        with pytest.raises(RetiredLayoutError) as info:
            opener(path)
        assert rebuild in str(info.value)
        assert f"layout version {version}" in str(info.value)
    assert issubclass(RetiredLayoutError, ServingError)
    assert issubclass(RetiredLayoutError, ValueError)
    with pytest.raises(SystemExit, match=re.escape(rebuild)):
        main(["shard", "--verify", path])
    manifest = json.loads((tmp_path / "old" / "manifest.json").read_text())
    with pytest.raises(RetiredLayoutError, match="python -m repro shard"):
        Placement.from_manifest(manifest, workers=2)


@pytest.mark.parametrize("field,value", [
    ("replicas", 0), ("group_size", 0), ("group_size", -3),
])
def test_bad_write_arguments_keep_existing_layout(
    served, served_packed, tmp_path, field, value
):
    """Arguments are checked before the directory is touched: a bad
    call raises ValueError and the layout already there still serves."""
    session, _ = served["tz2"]
    target = tmp_path / "kept"
    shutil.copytree(served_packed["tz2"], target)
    before = load(str(target)).route(1, 50)
    with pytest.raises(ValueError, match=field):
        write_shards(
            session.scheme, str(target), spec_name="tz2",
            **{"group_size": 8, "replicas": 1, field: value},
        )
    after = load(str(target))
    assert after.scheme.store.group_size == GROUP_SIZE
    assert after.route(1, 50).path == before.path


class _CountingIO(DirectIO):
    """A DirectIO that counts the maps it hands out and unmaps."""

    def __init__(self):
        super().__init__()
        self.mapped = self.released = 0

    @property
    def live(self):
        return self.mapped - self.released

    def map_group(self, path, *, sequential=False):
        self.mapped += 1
        return super().map_group(path, sequential=sequential)

    def release(self, view):
        self.released += 1
        super().release(view)


@pytest.mark.parametrize("layout", ["packed", "replicated"])
def test_verify_sweeps_release_their_maps(
    served_packed, served_replicated, layout
):
    """Every sweep maps each copy, checks it and unmaps it again: no
    live map outlives a sweep, and none becomes a serving map."""
    path = (served_packed if layout == "packed" else served_replicated)["tz2"]
    io = _CountingIO()
    store = ShardStore(path, io=io)
    store.node(0)
    live, serving = io.live, store.groups_mapped
    copies = store.group_count() * store.replicas
    for sweep in range(1, 4):
        assert store.verify() == store.group_count()
        assert all(v == "ok" for v in store.verify_report().values())
        assert io.mapped == live + 2 * copies * sweep
        assert io.live == live
        assert len(io._maps) == live
        assert store.groups_mapped == serving
    store.close()


def test_packed_max_resident_bounds_memory(served_packed):
    store = ShardStore(served_packed["warmup3"], max_resident=4)
    router = LocalRouter(store)
    from repro.routing.simulator import route as sim_route

    for s, t in sample_pairs(N, 10, seed=3):
        sim_route(router, s, t)
        assert len(store._resident) <= 4


def test_serve_stats_report_header_bytes(served_packed):
    """The wire codec is on the serving path: serve_stats shows bytes."""
    session = RoutingSession.from_shards(served_packed["thm11"])
    stats = session.serve_stats()
    assert stats["headers_encoded"] == 0 and stats["header_bytes"] == 0
    routed = 0
    for s, t in sample_pairs(N, 10, seed=9):
        routed += session.route(s, t).hops
    stats = session.serve_stats()
    assert stats["headers_encoded"] == routed  # one header per hop
    assert stats["header_bytes"] > 0
    assert 0 < stats["max_header_bytes"] <= stats["header_bytes"]


def test_wire_cache_refuses_bool_header_leaves(served_packed):
    """True/1 hash-collide in the value-keyed wire cache, so headers
    must be bool-free: the miss path refuses bool leaves, and the
    dual-step harness asserts the contract for every scheme's every
    forwarded header (a per-lookup deep check would cost more than the
    encode the cache avoids)."""
    from repro.routing.serving import _contains_bool

    router = LocalRouter(ShardStore(served_packed["tz2"]))
    with pytest.raises(RuntimeError, match="bool leaf"):
        router._wire_len(("tree", True, (0, ())))
    assert router._wire_len(("tree", 1, (0, ()))) > 0
    assert _contains_bool(("t1", (0, (False,))))  # nested leaves found
    assert not _contains_bool(("t1", (0, 1), None, "tag"))


def test_unforwardable_headers_raise_wire_contract_error(served_packed):
    """Every header the value codec cannot carry fails with the one
    typed error, chained to the codec's or the cache's own error."""
    router = LocalRouter(ShardStore(served_packed["tz2"]))
    deep = 0
    for _ in range(201):
        deep = (deep,)
    for header, cause in [
        (("tree", frozenset({1})), ShardCodecError),  # no tag for it
        (deep, ShardCodecError),  # past MAX_VALUE_DEPTH
        (("tree", {1}), TypeError),  # unhashable: no cache key
    ]:
        with pytest.raises(WireContractError) as err:
            router._wire_len(header)
        assert isinstance(err.value.__cause__, cause)
    header = ("t1", (3, -7, "x"), None)
    assert router._wire_len(header) == len(encode_value(header))


def test_packed_vertex_out_of_range(served_packed):
    store = ShardStore(served_packed["tz2"])
    with pytest.raises(ValueError, match="outside"):
        store.node(N)


def test_packed_close_releases_maps(served_packed):
    store = ShardStore(served_packed["tz2"])
    store.node(0)
    assert store.groups_mapped == 1
    # the cold start reads one payload, nothing else
    pack = Path(served_packed["tz2"], "groups", "0000.pack").read_bytes()
    payload_len = next(
        length for v, _, length in iter_pack_entries(pack) if v == 0
    )
    assert store.loads == 1
    assert store.bytes_read == payload_len
    store.close()
    assert store.groups_mapped == 0


def test_packed_verify_checks_every_group(served_packed):
    store = ShardStore(served_packed["tz2"])
    assert store.verify() == (N + GROUP_SIZE - 1) // GROUP_SIZE


def test_packed_corrupt_index_fails_loudly(served_packed, tmp_path):
    """A lying index surfaces check_pack's precise error, not garbage."""
    import struct

    from repro.routing.shard_codec import ShardCodecError

    target = tmp_path / "corrupt"
    shutil.copytree(served_packed["tz2"], target)
    group0 = target / "groups" / "0000.pack"
    buf = bytearray(group0.read_bytes())
    # first index entry (<IQI at byte 10): point its offset past the file
    struct.pack_into("<Q", buf, 14, 1 << 40)
    group0.write_bytes(bytes(buf))

    store = ShardStore(str(target))
    with pytest.raises(
        ShardCodecError, match="overlaps|past the payload|checksum"
    ):
        store.node(0)
    with pytest.raises(
        ShardCodecError, match="overlaps|past the payload|checksum"
    ):
        ShardStore(str(target)).verify()


def test_interrupted_reshard_leaves_no_stale_manifest(served, tmp_path):
    """A write that dies mid-stream must not leave the OLD manifest
    describing deleted shards — the directory reads as 'not a shard
    directory' until the new manifest lands atomically at the end."""
    from repro.routing.serving import write_shard_records

    session, path = served["tz2"]
    target = tmp_path / "reshard"
    shutil.copytree(path, target)
    assert load(str(target)).route(1, 50).path  # valid before

    def exploding_records():
        for i, record in enumerate(session.scheme.compile_tables()):
            if i == 5:
                raise RuntimeError("disk full")
            yield record

    with pytest.raises(RuntimeError, match="disk full"):
        write_shard_records(
            exploding_records(), str(target),
            identity={"spec": "tz2"},
        )
    assert not os.path.exists(target / "manifest.json")
    with pytest.raises((FileNotFoundError, ValueError)):
        load(str(target))


def test_interrupted_manifest_write_leaves_no_tmp(served, tmp_path,
                                                  monkeypatch):
    """A crash *inside the manifest dump itself* (shards fully written)
    must leave neither a manifest nor a half-written tmp file — the dir
    reads as not-a-shard-dir, and a re-run starts clean."""
    import json as json_module

    from repro.routing import serving
    from repro.routing.serving import write_shard_records

    session, _ = served["tz2"]
    target = tmp_path / "mcrash"

    def exploding_dump(*args, **kwargs):
        raise OSError("disk full during manifest dump")

    monkeypatch.setattr(serving.json, "dump", exploding_dump)
    with pytest.raises(OSError, match="manifest dump"):
        write_shard_records(
            session.scheme.compile_tables(), str(target),
            identity={"spec": "tz2"},
        )
    monkeypatch.undo()
    leftovers = [f for f in os.listdir(target) if "manifest" in f]
    assert leftovers == [], leftovers
    with pytest.raises((FileNotFoundError, ValueError)):
        load(str(target))


@pytest.mark.parametrize("layout", ["packed", "replicated"])
def test_interrupted_group_write_leaves_no_tmp(served, tmp_path, monkeypatch,
                                               layout):
    """A group write (of the first copy or a later replica) that fails
    partway must not leave its ``.tmp.<pid>`` file behind, nor any
    manifest."""
    from repro.routing import serving
    from repro.routing.serving import write_shard_records

    session, _ = served["tz2"]
    target = tmp_path / f"gcrash-{layout}"
    replicas = 1 if layout == "packed" else 2
    victim = os.path.join(str(replicas - 1), "groups", "0000.pack")
    real_replace = os.replace

    def failing_replace(src, dst):
        if str(dst).endswith(victim if replicas > 1 else ".pack"):
            raise OSError(f"disk full writing {dst}")
        return real_replace(src, dst)

    monkeypatch.setattr(serving.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        write_shard_records(
            session.scheme.compile_tables(), str(target),
            identity={"spec": "tz2"}, replicas=replicas,
        )
    monkeypatch.undo()
    leftovers = [
        os.path.join(root, f)
        for root, _, files in os.walk(target)
        for f in files
        if ".tmp." in f or f == "manifest.json"
    ]
    assert leftovers == [], leftovers
    with pytest.raises((FileNotFoundError, ValueError)):
        load(str(target))


@pytest.mark.parametrize("name", scheme_names())
def test_manifest_word_totals_match_scheme_stats(name, served,
                                                 served_packed):
    """Both layouts' manifests carry the scheme's own word accounting."""
    import json

    session, path = served[name]
    stats = session.scheme.stats()
    for root in (path, served_packed[name]):
        with open(os.path.join(root, "manifest.json")) as fh:
            words = json.load(fh)["words"]
        assert words["total_table_words"] == stats.total_table_words
        assert words["max_table_words"] == stats.max_table_words


def test_accounting_drift_raises_and_publishes_no_manifest(
    served, tmp_path, monkeypatch
):
    """Compiled records that lost an entry disagree with SchemeStats:
    write_shards raises naming both counts and publishes no manifest,
    so the directory reads as not-a-shard-dir."""
    from repro.routing.model import words_of
    from repro.routing.serving import ShardAccountingError

    session, _ = served["tz2"]
    scheme = session.scheme
    expected = scheme.stats().total_table_words
    honest = scheme.compile_tables
    dropped = []

    def lossy_compile_tables():
        records = honest()
        for record in records:
            for entries in record.categories.values():
                if entries:
                    key = next(iter(entries))
                    dropped.append(
                        words_of(key) + words_of(entries.pop(key))
                    )
                    return records
        raise AssertionError("no table entry to drop")

    monkeypatch.setattr(scheme, "compile_tables", lossy_compile_tables)
    target = tmp_path / "drift"
    with pytest.raises(ShardAccountingError) as info:
        write_shards(scheme, str(target), spec_name="tz2")
    monkeypatch.undo()
    assert dropped and dropped[0] > 0
    message = str(info.value)
    assert f"hold {expected - dropped[0]} table words" in message
    assert f"reports {expected}" in message
    assert not os.path.exists(target / "manifest.json")
    with pytest.raises((FileNotFoundError, ValueError)):
        load(str(target))


class TestManifestValidation:
    """_load_manifest rejects malformed manifests with precise errors."""

    def _write(self, tmp_path, manifest):
        import json

        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        return str(tmp_path)

    def _valid(self, replicas=1):
        return {
            "format": "repro.routing.shards", "version": 3,
            "layout": "packed", "n": 10, "codec": 1, "spec": "tz2",
            "scheme": "X", "group_size": 16, "checksums": True,
            "replicas": replicas,
        }

    def test_not_json(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{nope")
        from repro.routing.serving import _load_manifest

        with pytest.raises(ValueError, match="not valid JSON"):
            _load_manifest(str(tmp_path))

    @pytest.mark.parametrize("field", ["n", "spec", "scheme", "version"])
    def test_missing_required_field(self, tmp_path, field):
        from repro.routing.serving import _load_manifest

        manifest = self._valid()
        del manifest[field]
        with pytest.raises(ValueError, match=f"missing required.*{field}"):
            _load_manifest(self._write(tmp_path, manifest))

    @pytest.mark.parametrize("field,value", [
        ("n", -1), ("n", "ten"), ("n", True),
        ("spec", ""), ("scheme", 7),
    ])
    def test_invalid_field_value(self, tmp_path, field, value):
        from repro.routing.serving import _load_manifest

        manifest = self._valid()
        manifest[field] = value
        with pytest.raises(ValueError, match=f"invalid {field}"):
            _load_manifest(self._write(tmp_path, manifest))

    def test_layout_params_checked_per_version(self, tmp_path):
        from repro.routing.serving import _load_manifest

        bad_groups = self._valid()
        bad_groups["group_size"] = 0
        with pytest.raises(ValueError, match="invalid group_size"):
            _load_manifest(self._write(tmp_path, bad_groups))
        bad_replicas = self._valid(2)
        bad_replicas["replicas"] = "two"
        with pytest.raises(ValueError, match="invalid replicas"):
            _load_manifest(self._write(tmp_path, bad_replicas))
        unchecked = self._valid()
        unchecked["checksums"] = False
        with pytest.raises(ValueError, match="invalid checksums"):
            _load_manifest(self._write(tmp_path, unchecked))

    def test_valid_manifests_pass(self, tmp_path):
        from repro.routing.serving import _load_manifest

        for replicas in (1, 2):
            loaded = _load_manifest(
                self._write(tmp_path, self._valid(replicas))
            )
            assert loaded["replicas"] == replicas


def test_packed_inrange_index_miss_is_integrity_error(served_packed,
                                                      tmp_path):
    """An in-range vertex absent from a structurally sound index is an
    integrity failure, NOT FileNotFoundError: telling an operator the
    'file is missing' for a vertex the manifest covers misleads them
    into deleting a pack whose other entries are intact."""
    target = tmp_path / "holey"
    shutil.copytree(served_packed["tz2"], target)
    group0 = target / "groups" / "0000.pack"
    # re-encode group 0 WITHOUT vertex 0: a structurally sound,
    # checksum-valid pack that simply lacks a vertex the manifest covers
    # (a torn/incomplete write that finished cleanly)
    buf = group0.read_bytes()
    kept = [
        (v, bytes(memoryview(buf)[off:off + length]))
        for v, off, length in iter_pack_entries(buf)
        if v != 0
    ]
    group0.write_bytes(encode_pack(kept))

    store = ShardStore(str(target))
    with pytest.raises(ShardIntegrityError, match="no entry for vertex 0"):
        store.node(0)
    with pytest.raises(FileNotFoundError):
        # the FileNotFoundError contract still holds for what IS a
        # missing file: a deleted group
        os.remove(target / "groups" / "0001.pack")
        store.node(GROUP_SIZE)
    store.close()


def test_packed_tampered_version_rejected_at_map(served_packed, tmp_path):
    from repro.routing.shard_codec import ShardCodecError

    target = tmp_path / "future"
    shutil.copytree(served_packed["tz2"], target)
    group0 = target / "groups" / "0000.pack"
    buf = bytearray(group0.read_bytes())
    buf[4] = 99  # pack version byte
    group0.write_bytes(bytes(buf))
    store = ShardStore(str(target))
    with pytest.raises(ShardCodecError, match="version"):
        store.node(0)


class TestStoreValidation:
    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            ShardStore(str(tmp_path))

    def test_load_on_plain_dir_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="without a shard manifest"):
            load(str(tmp_path))

    def test_foreign_manifest_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"format": "other"}')
        with pytest.raises(ValueError, match="format"):
            ShardStore(str(tmp_path))

    def test_vertex_out_of_range(self, served):
        _, path = served["tz2"]
        store = ShardStore(path)
        with pytest.raises(ValueError, match="outside"):
            store.node(N)

    def test_wrong_spec_class_rejected(self, served, tmp_path):
        import json

        _, path = served["tz2"]
        target = tmp_path / "tampered"
        shutil.copytree(path, target)
        manifest = json.loads((target / "manifest.json").read_text())
        manifest["spec"] = "thm11"  # wrong family for the shard class
        (target / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="compiled by"):
            load(str(target))

    def test_unknown_spec_rejected(self, served, tmp_path):
        import json

        from repro.api import UnknownSchemeError

        _, path = served["tz2"]
        target = tmp_path / "unknown"
        shutil.copytree(path, target)
        manifest = json.loads((target / "manifest.json").read_text())
        manifest["spec"] = "never-registered"
        (target / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(UnknownSchemeError, match="registered schemes"):
            load(str(target))
