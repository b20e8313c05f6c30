"""Differential suite: the value decoder against the recursive reference.

``shard_codec._read_value`` reads short ints and floats inline; the
plain recursive walk it replaced lives in ``tests/codec_reference.py``.
For every input here both must give the same value (compared by
``repr``, so types, ``-0.0`` and NaN count) or raise
:class:`ShardCodecError` with the same message.
"""

import random

import pytest

from codec_reference import decode_value_reference
from repro.routing.shard_codec import (
    MAX_VALUE_DEPTH,
    ShardCodecError,
    decode_value,
    encode_value,
)

#: ints on both sides of the one-, two- and three-byte varint edges
EDGE_INTS = [
    0, 1, -1, 63, 64, -64, -65, 127, 128, 8191, 8192, -8192, -8193,
    16383, 16384, 2 ** 31, -(2 ** 31), 2 ** 75, -(2 ** 75),
]
FLOATS = [0.0, -0.0, 1.5, -2.25, 1e300, float("inf"), float("nan")]


def _outcome(decode, data):
    try:
        return ("ok", repr(decode(data)))
    except ShardCodecError as exc:
        return ("error", type(exc).__name__, str(exc))


def _assert_same(data):
    for blob in (bytes(data), memoryview(bytes(data))):
        assert _outcome(decode_value, blob) == _outcome(
            decode_value_reference, blob
        ), bytes(data).hex()


def _value(rng, depth=0):
    """A random value biased towards the decoder's inline paths."""
    kind = rng.randrange(11 if depth < 4 else 6)
    if kind == 0:
        return rng.choice(EDGE_INTS)
    if kind == 1:
        return rng.randint(-9000, 9000)
    if kind == 2:
        return rng.choice(FLOATS)
    if kind == 3:
        return rng.choice(["", "tree", "ball", "junké"])
    if kind == 4:
        return None
    if kind == 5:
        return rng.random() < 0.5
    items = [_value(rng, depth + 1) for _ in range(rng.randrange(6))]
    if kind in (6, 7):
        return items
    if kind in (8, 9):
        return tuple(items)
    return {rng.randint(-3, 9): item for item in items}


@pytest.mark.parametrize("seed", range(4))
def test_random_values_decode_alike(seed):
    rng = random.Random(seed)
    for _ in range(400):
        blob = encode_value(_value(rng))
        _assert_same(blob)
        assert repr(decode_value(blob)) == repr(decode_value_reference(blob))


@pytest.mark.parametrize("seed", range(4))
def test_truncated_and_flipped_bytes_fail_alike(seed):
    rng = random.Random(1000 + seed)
    for _ in range(150):
        blob = bytearray(encode_value(_value(rng)))
        for cut in range(len(blob)):
            _assert_same(blob[:cut])
        for _ in range(8):
            flipped = bytearray(blob)
            flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
            _assert_same(flipped)
        _assert_same(blob + bytes([rng.randrange(256)]))


@pytest.mark.parametrize("value", EDGE_INTS + FLOATS)
def test_varint_and_float_edges(value):
    for wrapped in (value, [value], (1, value, 2), [[value] * 3]):
        _assert_same(encode_value(wrapped))


@pytest.mark.parametrize("blob", [
    "0380", "038000", "03ff00", "03808000", "038080", "0380ff00",
    "0704038000", "070403ff7f", "0701038000", "07010380", "070103",
    "0701", "07010480", "070204000000000000f03f04", "0602038001",
    "06020300038000",
], ids=lambda hex_: hex_)
def test_non_canonical_and_truncated_scalars(blob):
    _assert_same(bytes.fromhex(blob))


@pytest.mark.parametrize("depth", [
    MAX_VALUE_DEPTH - 1, MAX_VALUE_DEPTH, MAX_VALUE_DEPTH + 1,
])
@pytest.mark.parametrize("leaf", [7, 8191, 2.5, None, "t"])
def test_depth_boundary(depth, leaf):
    for tag in (b"\x06\x01", b"\x07\x01"):
        blob = tag * depth + encode_value([leaf, leaf])
        _assert_same(blob)
        _assert_same(tag * depth + b"\x07\x00")
