"""Test-side value-codec reference: the plain recursive decoder.

:func:`repro.routing.shard_codec._read_value` reads one- and two-byte
ints and floats inline; this is the walk it replaced, one call per
value, kept so the differential suite
(``tests/routing/test_value_decoder.py``) can hold the library's
decoder to it: the same value, or the same :class:`ShardCodecError`
message, for every input.  The varint readers and error constructors
are the library's own, so only the value walk is under test.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.routing.shard_codec import (
    MAX_VALUE_DEPTH,
    ShardCodecError,
    _DOUBLE,
    _T_DICT,
    _T_FALSE,
    _T_FLOAT,
    _T_INT,
    _T_LIST,
    _T_NONE,
    _T_STR,
    _T_TRUE,
    _T_TUPLE,
    Buffer,
    _not_utf8,
    _read_svarint,
    _read_uvarint,
    _too_deep,
    _unhashable_key,
)

__all__ = ["decode_value_reference", "read_value_reference"]


def read_value_reference(
    data: Buffer, pos: int, depth: int = 0
) -> Tuple[Any, int]:
    """One tagged value at nesting ``depth`` from ``data[pos:]``; the
    value and the position after it.  Every malformed input raises
    :class:`ShardCodecError`."""
    if pos >= len(data):
        raise ShardCodecError("truncated value")
    tag = data[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_INT:
        return _read_svarint(data, pos)
    if tag == _T_FLOAT:
        end = pos + 8
        if end > len(data):
            raise ShardCodecError("truncated float")
        return _DOUBLE.unpack_from(data, pos)[0], end
    if tag == _T_STR:
        length, pos = _read_uvarint(data, pos)
        end = pos + length
        if end > len(data):
            raise ShardCodecError("truncated string")
        try:
            return bytes(data[pos:end]).decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise _not_utf8(exc) from None
    if tag in (_T_TUPLE, _T_LIST):
        count, pos = _read_uvarint(data, pos)
        if count and depth >= MAX_VALUE_DEPTH:
            raise _too_deep()
        items = []
        for _ in range(count):
            item, pos = read_value_reference(data, pos, depth + 1)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), pos
    if tag == _T_DICT:
        count, pos = _read_uvarint(data, pos)
        if count and depth >= MAX_VALUE_DEPTH:
            raise _too_deep()
        return _read_entries_reference(data, pos, count, depth + 1)
    raise ShardCodecError(f"unknown value tag 0x{tag:02x}")


def _read_entries_reference(
    data: Buffer, pos: int, count: int, depth: int = 0
) -> Tuple[Dict[Any, Any], int]:
    """``count`` key/value pairs at nesting ``depth``, as a dict."""
    result = {}
    for _ in range(count):
        k, pos = read_value_reference(data, pos, depth)
        v, pos = read_value_reference(data, pos, depth)
        try:
            result[k] = v
        except TypeError:
            raise _unhashable_key(k) from None
    return result, pos


def decode_value_reference(data: Buffer) -> Any:
    """The reference :func:`repro.routing.shard_codec.decode_value`."""
    value, pos = read_value_reference(data, 0)
    if pos != len(data):
        raise ShardCodecError(
            f"{len(data) - pos} trailing bytes after encoded value"
        )
    return value
