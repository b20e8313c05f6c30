"""Differential suite of the native C kernel tier.

The tier's contract is the same one the parallel tier carries:
``REPRO_KERNEL`` changes wall-clock, never a single byte of any result.
Every test here races the native engine against its differential
references (numpy, and the pure-Python Dijkstras of
``tests/sp_reference.py``) on seeded inputs — graphs for the
delta-stepping batch engine, real and fuzzed shard payloads for the
pack scanner — and asserts bit/byte identity.  The fallback half
simulates a compiler-less host (``REPRO_NATIVE_CC=off`` + an empty
cache): ``auto`` must fall back to numpy with the reason recorded,
``native`` must raise the typed :class:`NativeUnavailableError`.
"""

import os
import random

import numpy as np
import pytest

from repro import native
from repro.api import all_specs
from repro.graph import shortest_paths as sp
from repro.graph.core import Graph
from repro.graph.csr import csr_graph
from repro.graph.generators import (
    erdos_renyi,
    grid,
    random_geometric,
    ring_with_chords,
    with_random_weights,
)
from repro.graph.metric import MetricView
from repro.graph.shortest_paths import all_balls, kernel_mode
from repro.routing.shard_codec import (
    MAX_VALUE_DEPTH,
    ShardCodecError,
    decode_node_table,
    decode_node_table_fast,
    encode_node_table,
    encode_value,
)
from repro.routing.tables import NodeTable
from sp_reference import (
    dijkstra_py,
    distance_to_set,
    reference_all_balls,
)


def _set_mode(monkeypatch, mode: str) -> None:
    monkeypatch.setenv("REPRO_KERNEL", mode)
    sp.reset_kernel_choice()


@pytest.fixture
def fresh_native(monkeypatch):
    """Re-resolve the native load outcome around env-twiddling tests."""
    native.reset_native()
    yield monkeypatch
    native.reset_native()
    sp.reset_kernel_choice()


def _require_native() -> None:
    if native.try_kernels() is None:
        pytest.skip(f"native tier unavailable: {native.fallback_reason()}")


# ----------------------------------------------------------------------
# dispatch resolution
# ----------------------------------------------------------------------
def test_kernel_mode_names(monkeypatch):
    want = "native" if native.try_kernels() is not None else "numpy"
    for raw, mode in (("numpy", "numpy"), (" NumPy ", "numpy"),
                      ("auto", want), ("", want)):
        _set_mode(monkeypatch, raw)
        assert kernel_mode() == mode
    monkeypatch.delenv("REPRO_KERNEL")
    sp.reset_kernel_choice()
    assert kernel_mode() == want


def test_auto_prefers_native_when_available(monkeypatch):
    _require_native()
    _set_mode(monkeypatch, "auto")
    assert kernel_mode() == "native"
    _set_mode(monkeypatch, "native")
    assert kernel_mode() == "native"


def test_unknown_engine_is_a_typed_config_error(monkeypatch):
    """Unknown names and the retired spellings of the pure-Python engine
    and of numpy raise, naming the engines there are."""
    for raw in ("fortran", "pure", "py", "python", "np", "kernel", "PURE"):
        _set_mode(monkeypatch, raw)
        with pytest.raises(sp.KernelConfigError) as info:
            kernel_mode()
        for name in ("auto", "native", "numpy"):
            assert name in str(info.value), raw


def test_masked_compiler_auto_falls_back_with_reason(
    fresh_native, tmp_path
):
    fresh_native.setenv("REPRO_NATIVE_CC", "off")
    fresh_native.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "empty"))
    native.reset_native()
    assert native.try_kernels() is None
    reason = native.fallback_reason()
    assert reason is not None and "compiler" in reason
    status = native.native_status()
    assert status["available"] is False
    assert status["compiler"] is None
    _set_mode(fresh_native, "auto")
    assert kernel_mode() == "numpy"


def test_masked_compiler_forced_native_raises_typed(fresh_native, tmp_path):
    fresh_native.setenv("REPRO_NATIVE_CC", "off")
    fresh_native.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "empty"))
    native.reset_native()
    _set_mode(fresh_native, "native")
    g = with_random_weights(erdos_renyi(60, 0.1, seed=3), seed=4)
    with pytest.raises(native.NativeUnavailableError):
        all_balls(g, 4)


def test_cold_cache_builds_content_hashed_library(fresh_native, tmp_path):
    if native.compiler() is None:
        pytest.skip("no C compiler on this host")
    cache = tmp_path / "cache"
    fresh_native.setenv("REPRO_NATIVE_CACHE", str(cache))
    native.reset_native()
    kernels = native.try_kernels()
    assert kernels is not None
    expected = cache / f"repro_kernels-{native.source_hash()}.so"
    assert kernels.path == str(expected)
    assert expected.exists()
    # no stranded compile tempdirs next to the published library
    assert [p.name for p in cache.iterdir()] == [expected.name]


# ----------------------------------------------------------------------
# delta-stepping engine: native vs numpy vs the reference on seeded graphs
# ----------------------------------------------------------------------
_GRAPHS = {
    "er-weighted": lambda: with_random_weights(
        erdos_renyi(300, 0.02, seed=11), seed=12
    ),
    "grid": lambda: grid(14, 14),
    "geo-weighted": lambda: with_random_weights(
        random_geometric(220, 0.14, seed=21), seed=22
    ),
    "ring-chords": lambda: with_random_weights(
        ring_with_chords(260, 90, seed=31), seed=32, low=0.5, high=3.0
    ),
}


@pytest.mark.parametrize("name", sorted(_GRAPHS))
def test_all_balls_identical_across_engines(monkeypatch, name):
    _require_native()
    g = _GRAPHS[name]()
    results = {}
    for mode in ("numpy", "native"):
        _set_mode(monkeypatch, mode)
        results[mode] = all_balls(g, 14, with_radii=True)
    assert results["native"] == results["numpy"]
    assert results["native"] == reference_all_balls(g, 14, with_radii=True)


@pytest.mark.parametrize("name", sorted(_GRAPHS))
def test_bounded_rows_identical_native_vs_numpy(monkeypatch, name):
    _require_native()
    g = _GRAPHS[name]()
    thr = distance_to_set(g, random.Random(3).sample(range(g.n), 4))

    def sweep():
        csr = csr_graph(g)
        return [
            (s, v.copy().tobytes(), d.copy().tobytes())
            for s, v, d in csr.bounded_rows(range(g.n), thr)
        ]

    _set_mode(monkeypatch, "native")
    nat = sweep()
    _set_mode(monkeypatch, "numpy")
    ref = sweep()
    assert nat == ref


def test_lazy_metric_counts_identical(monkeypatch):
    """The zero-stride broadcast regression: lazy MetricView bounded
    counts go through broadcast views of a scalar limit — the native
    kernel walks raw buffers, so these must stay bit-identical."""
    _require_native()
    g = _GRAPHS["er-weighted"]()
    counts = {}
    thresholds = np.linspace(2.0, 11.0, g.n)
    for mode in ("numpy", "native"):
        _set_mode(monkeypatch, mode)
        view = MetricView(g)
        counts[mode] = view.count_rows_below(thresholds)
    assert np.array_equal(counts["native"], counts["numpy"])


def _tie_heavy_with_isolated_vertex() -> Graph:
    """Weights from {0.1, 0.2, 0.3} (ulp-broken ties); vertex n-1 isolated."""
    rng = random.Random(5)
    base = erdos_renyi(80, 0.06, seed=4)
    return Graph.from_edges(
        81,
        [(u, v, rng.choice((0.1, 0.2, 0.3))) for u, v, _ in base.edges()],
    )


@pytest.mark.parametrize("name", sorted(_GRAPHS) + ["ties-isolated"])
def test_hop_column_identical_native_vs_numpy(monkeypatch, name):
    _require_native()
    g = (
        _tie_heavy_with_isolated_vertex()
        if name == "ties-isolated"
        else _GRAPHS[name]()
    )
    _set_mode(monkeypatch, "native")
    csr = csr_graph(g)
    rows = np.array([dijkstra_py(g, v)[0] for v in range(g.n)])
    tol = 1e-9 * float(rows[np.isfinite(rows)].max())
    seen = set()
    for v, row in enumerate(rows):
        nat = csr.hop_column(row, v, tol)
        ref = csr._hop_column_numpy(row, v, tol)
        assert nat.dtype == ref.dtype == np.int32
        assert np.array_equal(nat, ref), v
        seen.update(np.unique(nat).tolist())
    if name == "ties-isolated":
        assert -1 in seen  # the isolated vertex, as source and as target
    assert -2 not in seen
    # A negative tolerance admits no tight edge: every reachable u != v
    # reads -2 on both paths.
    row = rows[0]
    nat = csr.hop_column(row, 0, -1.0)
    assert np.array_equal(nat, csr._hop_column_numpy(row, 0, -1.0))
    assert nat[0] == 0
    assert set(nat[1:].tolist()) <= {-1, -2} and -2 in nat


# ----------------------------------------------------------------------
# registered schemes: byte-identical builds under the native engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
def test_registered_schemes_identical_under_native(monkeypatch, spec):
    _require_native()
    n = 140
    gu = erdos_renyi(n, 0.055, seed=71)
    g = with_random_weights(gu, seed=72) if spec.prefers_weighted else gu

    def build():
        scheme = spec.factory(
            g, metric=MetricView(g), **spec.defaults()
        )
        blobs = [encode_node_table(r) for r in scheme.compile_tables()]
        labels = [scheme.label_of(v) for v in range(n)]
        return blobs, labels

    _set_mode(monkeypatch, "native")
    nat = build()
    _set_mode(monkeypatch, "numpy")
    ref = build()
    assert nat == ref


@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
def test_scheme_payload_decode_parity(monkeypatch, spec):
    """Every registered scheme's real encoded tables decode identically
    through the native scanner and the pure decoder."""
    _require_native()
    n = 120
    gu = erdos_renyi(n, 0.06, seed=81)
    g = with_random_weights(gu, seed=82) if spec.prefers_weighted else gu
    _set_mode(monkeypatch, "numpy")
    scheme = spec.factory(
        g, metric=MetricView(g), **spec.defaults()
    )
    payloads = [encode_node_table(r) for r in scheme.compile_tables()]
    pure = [decode_node_table(p) for p in payloads]
    _set_mode(monkeypatch, "native")
    fast = [decode_node_table_fast(p) for p in payloads]
    assert fast == pure


# ----------------------------------------------------------------------
# pack decode: fuzzed payloads, fallback values, error parity
# ----------------------------------------------------------------------
def _rand_key(rng):
    return rng.choice(
        [
            lambda: rng.randrange(-(2 ** 40), 2 ** 40),
            lambda: "k" + str(rng.randrange(1000)),
            lambda: (rng.randrange(100), rng.randrange(100)),
            lambda: rng.choice([True, False, None]),
        ]
    )()


def _rand_value(rng, depth=0):
    kinds = ["int", "float", "str", "none", "bool"]
    if depth < 3:
        kinds += ["tuple", "list", "dict"]
    kind = rng.choice(kinds)
    if kind == "int":
        # includes magnitudes past int64 — the C scanner must punt
        # those to the pure decoder, invisibly to the caller
        return rng.choice(
            [
                rng.randrange(-(2 ** 30), 2 ** 30),
                rng.randrange(2 ** 62, 2 ** 70),
                -rng.randrange(2 ** 62, 2 ** 70),
                -(2 ** 63),
                2 ** 63 - 1,
            ]
        )
    if kind == "float":
        return rng.choice([rng.random() * 1e6, -0.0, 1e-308, float("inf")])
    if kind == "str":
        return rng.choice(["", "plain", "naïve—ünïcode", "x" * 300])
    if kind == "none":
        return None
    if kind == "bool":
        return rng.choice([True, False])
    if kind == "tuple":
        return tuple(
            _rand_value(rng, depth + 1) for _ in range(rng.randrange(4))
        )
    if kind == "list":
        return [_rand_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {
        _rand_key(rng): _rand_value(rng, depth + 1)
        for _ in range(rng.randrange(4))
    }


def _rand_table(rng, owner):
    deg = rng.randrange(0, 12)
    unit = rng.random() < 0.5
    neighbors = tuple(
        (rng.randrange(10 ** 6), 1.0 if unit else rng.random() * 50 + 0.01)
        for _ in range(deg)
    )
    categories = {
        f"cat{c}": {
            _rand_key(rng): _rand_value(rng) for _ in range(rng.randrange(5))
        }
        for c in range(rng.randrange(4))
    }
    return NodeTable(
        owner=owner,
        neighbors=neighbors,
        label=_rand_value(rng),
        categories=categories,
    )


def test_fuzzed_payload_decode_parity(monkeypatch):
    _require_native()
    import random

    rng = random.Random(20260808)
    tables = [_rand_table(rng, i) for i in range(250)]
    payloads = [encode_node_table(t) for t in tables]
    pure = [decode_node_table(p) for p in payloads]
    _set_mode(monkeypatch, "native")
    fast = [decode_node_table_fast(p) for p in payloads]
    assert fast == pure
    assert pure == tables


def _hostile_table(label: bytes, categories: bytes = b"\x00") -> bytes:
    """A unit-weight, degree-0 payload of vertex 7 around raw value bytes."""
    return b"RT\x01\x01\x07\x00" + label + categories


#: payloads whose structure scans cleanly but whose values cannot be
#: built: each must raise a ShardCodecError, never a bare Python error
HOSTILE_PAYLOADS = {
    "invalid UTF-8 label": _hostile_table(b"\x05\x02\xff\xfe"),
    "invalid UTF-8 category": _hostile_table(
        b"\x00", b"\x01\x05\x01\xff\x00"
    ),
    "list as dict key": _hostile_table(b"\x08\x01\x07\x00\x00"),
    "dict as category key": _hostile_table(
        b"\x00", b"\x01\x05\x01c\x01\x08\x00\x00"
    ),
    "1000-deep nesting": _hostile_table(b"\x06\x01" * 1000 + b"\x00"),
    "one past the depth cap": _hostile_table(
        b"\x06\x01" * (MAX_VALUE_DEPTH + 1) + b"\x00"
    ),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_PAYLOADS))
def test_hostile_payloads_raise_typed_errors(name):
    """The pure decoder refuses each hostile payload with its own error
    type on every host; ``test_decode_error_parity`` holds the native
    path to the same message."""
    with pytest.raises(ShardCodecError):
        decode_node_table(HOSTILE_PAYLOADS[name])


def test_depth_cap_matches_the_scanner(monkeypatch):
    """Nesting at the cap decodes on the scanner's own path; one level
    deeper the scanner stands down to the pure decoder, which refuses
    it (``test_decode_error_parity``)."""
    _require_native()
    deepest = None
    for _ in range(MAX_VALUE_DEPTH):
        deepest = (deepest,)
    at_cap = _hostile_table(b"\x06\x01" * MAX_VALUE_DEPTH + b"\x00")
    assert at_cap == _hostile_table(encode_value(deepest))

    def scans(blob):
        buf = np.frombuffer(blob, dtype=np.uint8)
        scratch = [np.empty(buf.size, dtype=t)
                   for t in (np.int64, np.float64, np.uint8, np.int64)]
        return native.try_kernels().scan_table(
            buf, *scratch, np.empty(4, dtype=np.int64)
        )

    _set_mode(monkeypatch, "native")
    assert scans(at_cap)
    assert decode_node_table_fast(at_cap).label == deepest
    assert decode_node_table(at_cap).label == deepest
    assert not scans(HOSTILE_PAYLOADS["one past the depth cap"])


def test_decode_error_parity(monkeypatch):
    """Malformed payloads raise the same typed error through the fast
    path as through the pure decoder — the scanner never guesses."""
    _require_native()
    good = encode_node_table(
        NodeTable(
            owner=7,
            neighbors=((1, 2.5), (4, 0.5)),
            label=("L", 7),
            categories={"ball": {3: (1.0, 2)}},
        )
    )
    corrupt = [
        good[:3],                       # truncated header
        b"XX" + good[2:],               # bad magic
        good[:2] + b"\x63" + good[3:],  # future codec version
        good + b"\x00\x01",             # trailing bytes
        good[: len(good) - 2],          # truncated value stream
        *HOSTILE_PAYLOADS.values(),
    ]
    _set_mode(monkeypatch, "native")
    for blob in corrupt:
        try:
            decode_node_table(blob)
            pure_exc = None
        except ShardCodecError as exc:
            pure_exc = str(exc)
        if pure_exc is None:
            assert decode_node_table_fast(blob) == decode_node_table(blob)
            continue
        with pytest.raises(ShardCodecError) as info:
            decode_node_table_fast(blob)
        assert str(info.value) == pure_exc


def test_fast_decode_outside_native_mode_is_pure(monkeypatch):
    """decode_node_table_fast is mode-gated: under numpy it must not
    touch the scanner at all (serving code calls it unconditionally)."""
    payload = encode_node_table(
        NodeTable(owner=1, neighbors=((2, 1.0),), label=None, categories={})
    )
    _set_mode(monkeypatch, "numpy")
    assert decode_node_table_fast(payload) == decode_node_table(payload)


# ----------------------------------------------------------------------
# composition with the parallel tier
# ----------------------------------------------------------------------
def test_native_composes_with_parallel(monkeypatch):
    _require_native()
    from repro.graph import parallel

    g = _GRAPHS["er-weighted"]()
    csr = csr_graph(g)
    monkeypatch.setattr(parallel, "_MIN_PARALLEL_WORK", 0)

    def balls():
        return csr.all_balls(12, tol=0.0, with_radii=True, as_arrays=True)

    _set_mode(monkeypatch, "native")
    monkeypatch.setenv("REPRO_PARALLEL", "2")
    parallel.reset_parallel_choice()
    try:
        par = balls()
    finally:
        monkeypatch.setenv("REPRO_PARALLEL", "off")
        parallel.reset_parallel_choice()
    _set_mode(monkeypatch, "numpy")
    ser = balls()
    for a, b in zip(par, ser):
        assert np.array_equal(a, b)
