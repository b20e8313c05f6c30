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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SubstrateCache, build, get_spec, scheme_names
from repro.graph.generators import erdos_renyi, with_random_weights
from repro.routing.model import words_of
from repro.routing.shard_codec import (
    CODEC_VERSION,
    MAX_VALUE_DEPTH,
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

    class _Sized:
        """Counted by words_of, outside the codec's value domain."""

        def words(self):
            return 3

    @pytest.mark.parametrize(
        "value", [object(), {1, 2}, _Sized()], ids=["object", "set", "words"]
    )
    def test_unencodable_value_rejected(self, value):
        record = self._record()
        record.categories["ball"][9] = value
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

    #: values equal to one another (True == 1 == 1.0) that encode apart,
    #: the edges of the 1/2/3-byte varints and of the encoder's
    #: small-int table (2**17)
    TWINS = (1, True, 1.0, 0, False, -64, -65, 16383, 16384)
    TWIN_CATEGORIES = {
        "ball": {0: 1, 1: True, 2: 0, 63: 64, 16383: 16384},
        "xsect": {0: 63, 64: 8191, 8192: 16383, 16384: 65535},
        "colorrep": {-65: -64, 65536: 1, 2**17 - 1: 2**17},
    }
    TWIN_VALUE = "060903020204000000000000f03f030001037f03810103feff0103808002"
    TWIN_RECORD = (
        "5254010101020002" + TWIN_VALUE
        + "03050462616c6c050300030203020203040300037e03800103feff0103"
        "80800205057873656374040300037e03800103fe7f0380800103feff01"
        "0380800203feff070508636f6c6f7272657003038101037f0380800803"
        "0203feff0f03808010"
    )

    def test_equality_twins_bytes_pinned(self):
        assert encode_value(self.TWINS).hex() == self.TWIN_VALUE
        record = NodeTable(
            owner=1, neighbors=((0, 1.0), (2, 1.0)), label=self.TWINS,
            categories=self.TWIN_CATEGORIES,
        )
        blob = encode_node_table(record)
        assert blob.hex() == self.TWIN_RECORD
        _assert_same_shape(decode_node_table(blob).label, self.TWINS)
        assert _encode_record(record)[1] == record.table_words() == 23

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


#: every value shape a table or label may hold, nested arbitrarily
_keys = (
    st.integers(-(2**50), 2**50)
    | st.text(max_size=6)
    | st.tuples(st.integers(0, 2**20), st.integers(0, 2**20))
)
_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**50), 2**50)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda children: st.tuples(children, children)
    | st.tuples(children)
    | st.lists(children, max_size=3)
    | st.dictionaries(_keys, children, max_size=3),
    max_leaves=12,
)


def _assert_same_shape(out, value):
    """``out == value`` with every container and leaf of the same type
    (equality alone conflates ``True``/``1`` and lists/tuples)."""
    assert type(out) is type(value)
    assert out == value
    if isinstance(value, (tuple, list)):
        for a, b in zip(out, value):
            _assert_same_shape(a, b)
    elif isinstance(value, dict):
        assert list(out) == list(value)
        for k in value:
            _assert_same_shape(out[k], value[k])


class TestValueCodec:
    @given(_values)
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, value):
        _assert_same_shape(decode_value(encode_value(value)), value)

    def test_dict_values_round_trip(self):
        # generalized-scheme labels carry per-level dicts
        value = {1: (3, 0, 4, None), 2: (5, 1, 2, 9)}
        _assert_same_shape(decode_value(encode_value(value)), value)

    def test_rejects_unknown_types(self):
        with pytest.raises(ShardCodecError, match="cannot encode"):
            encode_value({1, 2})

    @pytest.mark.parametrize("blob, match", [
        (b"\x05\x02\xff\xfe", "not valid UTF-8"),
        (bytes.fromhex("0801070000"), "dict key of type list"),
        (bytes.fromhex("08010800000000"), "dict key of type dict"),
        (b"\x06\x01" * 1000 + b"\x00", "deeper than 200"),
        (b"\x08\x01\x00" * 1000 + b"\x00", "deeper than 200"),
        (encode_value(("t1", 1234567))[:-1], "truncated"),
        (encode_value(5) + b"\x00", "trailing bytes"),
    ], ids=["utf8", "list-key", "dict-key", "deep-tuple", "deep-dict",
            "truncated", "trailing"])
    def test_hostile_bytes_raise_codec_errors(self, blob, match):
        with pytest.raises(ShardCodecError, match=match):
            decode_value(blob)

    def test_depth_cap_is_one_bound_for_both_directions(self):
        def nested(depth):
            value = 0
            for _ in range(depth):
                value = (value,)
            return value

        at_cap = nested(MAX_VALUE_DEPTH)
        assert decode_value(encode_value(at_cap)) == at_cap
        assert encode_value(at_cap) == b"\x06\x01" * MAX_VALUE_DEPTH + (
            b"\x03\x00"
        )
        with pytest.raises(ShardCodecError, match="deeper than 200"):
            encode_value(nested(MAX_VALUE_DEPTH + 1))
        with pytest.raises(ShardCodecError, match="deeper than 200"):
            decode_value(b"\x06\x01" + encode_value(at_cap))
        with pytest.raises(ShardCodecError, match="deeper than 200"):
            encode_value(nested(1000))  # not a RecursionError
        deep_dict = {}
        for _ in range(MAX_VALUE_DEPTH + 1):
            deep_dict = {0: deep_dict}
        with pytest.raises(ShardCodecError, match="deeper than 200"):
            encode_value(deep_dict)


def test_compile_tables_standalone_matches_method(sessions):
    scheme = sessions["tz2"].scheme
    assert compile_tables(scheme) == scheme.compile_tables()
