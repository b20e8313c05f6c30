"""Compile layer + shard codec: word-exact records, lossless bytes.

The contracts the serving stack rests on, asserted for EVERY registered
scheme:

* compiling a built scheme yields one :class:`NodeTable` per vertex whose
  word accounting reproduces the scheme's own ``SchemeStats`` exactly
  (per vertex and in total),
* the binary codec round-trips every record losslessly (categories,
  labels, neighbour lists and weights), with the versioned header
  rejecting foreign and future bytes,
* the per-scheme ``shard_categories`` manifest rejects drifting state —
  a category present in tables but unknown to the decision function
  refuses to compile.
"""

import pytest

from repro.api import SubstrateCache, build, get_spec, scheme_names
from repro.graph.generators import erdos_renyi, with_random_weights
from repro.routing.model import words_of
from repro.routing.shard_codec import (
    CODEC_VERSION,
    ShardCodecError,
    decode_node_table,
    _encode_record,
    decode_value,
    encode_node_table,
    encode_value,
    encoded_size,
)
from repro.routing.tables import NodeTable, compile_tables

N = 64


@pytest.fixture(scope="module")
def graphs():
    gu = erdos_renyi(N, 8.0 / (N - 1), seed=51)
    gw = with_random_weights(gu, seed=52, low=1.0, high=8.0)
    return {"unweighted": gu, "weighted": gw}


@pytest.fixture(scope="module")
def caches():
    return {"unweighted": SubstrateCache(), "weighted": SubstrateCache()}


@pytest.fixture(scope="module")
def sessions(graphs, caches):
    out = {}
    for name in scheme_names():
        spec = get_spec(name)
        kind = "weighted" if spec.weighted_capable else "unweighted"
        out[name] = build(name, graphs[kind], cache=caches[kind], seed=9)
    return out


@pytest.mark.parametrize("name", scheme_names())
def test_word_accounting_reconciles(name, sessions):
    """Per-vertex and total words match SizedTable/SchemeStats exactly."""
    scheme = sessions[name].scheme
    records = scheme.compile_tables()
    assert len(records) == scheme.graph.n
    stats = scheme.stats()
    for record in records:
        table = scheme.table_of(record.owner)
        assert record.table_words() == table.total_words()
        assert record.label_words() == words_of(
            scheme.label_of(record.owner)
        )
        # the rebuilt SizedTable carries identical accounting, category
        # by category
        rebuilt = record.sized_table()
        assert rebuilt.owner == record.owner
        assert rebuilt.words_by_category() == table.words_by_category()
    assert (
        sum(r.table_words() for r in records) == stats.total_table_words
    )
    assert max(r.table_words() for r in records) == stats.max_table_words
    assert max(r.label_words() for r in records) == stats.max_label_words


@pytest.mark.parametrize("name", scheme_names())
def test_codec_roundtrip_lossless(name, sessions):
    scheme = sessions[name].scheme
    for record in scheme.compile_tables():
        blob = encode_node_table(record)
        assert encoded_size(record) == len(blob)
        back = decode_node_table(blob)
        assert back.owner == record.owner
        assert back.neighbors == record.neighbors
        assert back.label == record.label
        assert back.categories == record.categories
        # word accounting survives the byte round trip
        assert back.table_words() == record.table_words()


@pytest.mark.parametrize("name", scheme_names())
def test_encoder_counts_table_words(name, sessions):
    """The encoding pass's word count is ``table_words()`` exactly."""
    for record in sessions[name].scheme.compile_tables():
        blob, words = _encode_record(record)
        assert blob == encode_node_table(record)
        assert words == record.table_words()


@pytest.mark.parametrize("name", scheme_names())
def test_neighbors_are_port_ordered(name, sessions):
    scheme = sessions[name].scheme
    record = scheme.compile_tables()[3]
    for port, (nb, w) in enumerate(record.neighbors):
        assert scheme.ports.neighbor(3, port) == nb
        assert scheme.graph.weight(3, nb) == w
        assert record.port_to(nb) == port
        assert record.neighbor(port) == nb
        assert record.edge(port) == (nb, w)
    with pytest.raises(ValueError, match="no port"):
        record.neighbor(record.degree())
    with pytest.raises(ValueError, match="not a neighbour"):
        record.port_to(3)  # self is never a neighbour


class TestCategoryManifest:
    def test_undeclared_category_refuses_to_compile(self, sessions):
        scheme = sessions["warmup3"].scheme
        scheme.table_of(0).put("rogue", 1, 2)
        try:
            with pytest.raises(ValueError, match="rogue"):
                scheme.compile_tables()
        finally:
            scheme.table_of(0)._data.pop("rogue", None)

    def test_manifest_covers_built_categories(self, sessions):
        for name, session in sessions.items():
            declared = session.scheme.shard_categories()
            assert declared is not None, name
            built = set()
            for v in session.graph.vertices():
                built.update(session.scheme.table_of(v).categories())
            assert built <= declared, (name, built - declared)


class TestCodecValidation:
    def _record(self):
        return NodeTable(
            owner=5,
            neighbors=((1, 1.0), (2, 2.5)),
            label=(5, 0, None, ("x", -3)),
            categories={"ball": {1: 0, (2, 3): [1.5, True]}},
        )

    def test_weighted_and_exotic_values_roundtrip(self):
        back = decode_node_table(encode_node_table(self._record()))
        assert back == self._record()

    def test_bad_magic_rejected(self):
        with pytest.raises(ShardCodecError, match="magic"):
            decode_node_table(b"XX\x01\x00junk")

    def test_future_version_rejected(self):
        blob = bytearray(encode_node_table(self._record()))
        blob[2] = CODEC_VERSION + 1
        with pytest.raises(ShardCodecError, match="version"):
            decode_node_table(bytes(blob))

    def test_trailing_bytes_rejected(self):
        blob = encode_node_table(self._record()) + b"\x00"
        with pytest.raises(ShardCodecError, match="trailing"):
            decode_node_table(blob)

    def test_truncation_rejected(self):
        blob = encode_node_table(self._record())
        with pytest.raises(ShardCodecError):
            decode_node_table(blob[: len(blob) // 2])

    def test_unencodable_value_rejected(self):
        record = self._record()
        record.categories["ball"][9] = object()
        with pytest.raises(ShardCodecError, match="cannot encode"):
            encode_node_table(record)


class TestGoldenBytes:
    """Exact bytes, not just round trips: an encoder emitting
    non-minimal varints or reordered fields would still round-trip.

    One record covers every value tag, the 1/2-byte varint boundaries
    (zigzag and unsigned), 64- and 77-bit ints, floats and non-ASCII
    strings, in unit-weight and weighted form.
    """

    CATEGORIES = {
        "ball": {
            0: 63, 64: -64, 127: -1, 128: 2**63,
            (1, "x"): [True, False, None],
        },
        "ñame": {"héllo → ✓": 1.5, -2**75: {3: (4.25, "")}},
    }
    VALUES = (
        None, True, False, 0, 63, 64, 127, 128, -1, -64, -65, 2**63,
        -2**75, 1.5, "", "plain", "héllo → ✓", (1, "x"), [2, None],
        {3: 4.25, "k": ()},
    )
    BODY = (
        "060505036c626c03810100070104000000000000e03f0800020504"
        "62616c6c050300037e038001037f03fe01030103800203808080808080"
        "808080020602030205017807030201000505c3b1616d6502050e68c3a9"
        "6c6c6f20e2869220e29c9304000000000000f83f03ffffffffffffffff"
        "ffff3f0801030606020400000000000011400500"
    )
    UNIT = "52540101800103007f8001" + BODY
    WEIGHTED = (
        "52540100800103007f8001000000000000f03f00000000000004400000"
        "00000000c03f" + BODY
    )
    VALUE = (
        "06140002010300037e03800103fe010380020301037f03810103808080"
        "8080808080800203ffffffffffffffffffff3f04000000000000f83f05"
        "000505706c61696e050e68c3a96c6c6f20e2869220e29c930602030205"
        "017807020304000802030604000000000000114005016b0600"
    )

    def _record(self, weights):
        return NodeTable(
            owner=128,
            neighbors=tuple(zip((0, 127, 128), weights)),
            label=("lbl", -65, None, [0.5], {}),
            categories=self.CATEGORIES,
        )

    @pytest.mark.parametrize("weights,expected", [
        ((1.0, 1.0, 1.0), "UNIT"),
        ((1.0, 2.5, 0.125), "WEIGHTED"),
    ])
    def test_node_table_bytes_pinned(self, weights, expected):
        record = self._record(weights)
        blob = encode_node_table(record)
        assert blob.hex() == getattr(self, expected)
        assert decode_node_table(blob) == record
        assert _encode_record(record)[1] == record.table_words() == 16

    def test_value_bytes_pinned(self):
        blob = encode_value(self.VALUES)
        assert blob.hex() == self.VALUE
        assert decode_value(blob) == self.VALUES

    @pytest.mark.parametrize("value", [2**76, -2**76 - 1])
    def test_ints_past_the_varint_range_rejected(self, value):
        # zigzag maps 2**76 to 2**77 and -2**76 - 1 to 2**77 + 1: the
        # first values whose varint needs a 12th byte
        with pytest.raises(ShardCodecError, match="77-bit varint range"):
            encode_value(value)
        record = self._record((1.0, 1.0, 1.0))
        record.categories = {"ball": {0: value}}
        with pytest.raises(ShardCodecError, match="77-bit varint range"):
            encode_node_table(record)

    @pytest.mark.parametrize("value", [2**76 - 1, -2**76])
    def test_varint_range_edges_roundtrip(self, value):
        blob = encode_value(value)
        assert len(blob) == 12  # tag + 11 varint bytes
        assert decode_value(blob) == value


def test_compile_tables_standalone_matches_method(sessions):
    scheme = sessions["tz2"].scheme
    assert compile_tables(scheme) == scheme.compile_tables()
