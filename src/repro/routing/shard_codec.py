"""Versioned binary codec for per-vertex :class:`NodeTable` shards.

A node that only needs *its own* table should not parse (or even read)
megabytes of everyone else's.  This codec packs one
:class:`~repro.routing.tables.NodeTable` into one compact byte string —
the unit every persisted session is made of:

* 4-byte header: magic ``RT`` + format version + flags,
* varint-packed structure (zigzag for signed ints, ``struct``-packed
  IEEE doubles for floats, UTF-8 for strings),
* a tag byte per value over the domain ``None``, bool, int, float, str,
  tuple, list and dict, nested arbitrarily (subclasses encode as their
  base type); ``set``/``frozenset`` and ``.words()`` objects, which
  :func:`repro.routing.model.words_of` also counts, raise
  :class:`ShardCodecError`,
* unit-weight neighbour lists (unweighted graphs) skip the 8-byte
  weights entirely (flag bit 0).

Decoding validates the magic and version and fails loudly on anything
else — a shard written by a future codec is rejected, never misread.
Hostile bytes meet the same error type: a string that is not UTF-8, an
unhashable dict key or nesting deeper than ``MAX_VALUE_DEPTH`` raises
:class:`ShardCodecError`, never a bare Python error.
:func:`decode_node_table` accepts a :class:`memoryview` as well as
``bytes`` and never copies the payload while parsing, so a store that
maps a packed group file (``mmap``) can decode a vertex's record straight
from the mapped buffer (the zero-copy hot path of
:class:`repro.routing.serving.ShardStore`).

Packed groups
-------------
One file per *vertex* costs an inode each — a non-starter at
``n >= 10^5``.  The packed group format concatenates many shard
payloads into one ``<g>.pack`` file (pack version 2):

* 10-byte header: magic ``RTPK`` + version + flags + entry count,
* a *sorted*, fixed-width per-vertex index (``vertex, offset, length,
  crc32(payload)`` little-endian structs) that binary-searches directly
  over the mapped buffer — no parsing, no allocation,
* a ``crc32(header + index)`` trailer, verified on every mapping
  (:func:`parse_pack_header`), so a lying index is caught before the
  first binary search trusts it,
* the concatenated shard payloads (each still self-validating).

A flipped bit in a stored double decodes to a structurally valid but
*wrong* table — the self-validating payload cannot catch it, its CRC32
can: :func:`find_pack_entry` hands the per-entry checksum to the store,
which verifies the payload bytes *before* decoding them
(:func:`payload_checksum_ok`) — a corrupted table is never silently
decoded.  :func:`find_in_pack` locates one vertex's payload in
``O(log count)`` buffer reads; :func:`check_pack` is the full O(count)
index validation (sorted, in-bounds, non-overlapping) the store runs on
first anomaly; :func:`verify_pack` is the offline sweep: full index
validation plus every payload checksum.  Pack version 1 — the same
layout without any checksum — is refused.

Size accounting
---------------
``encoded_size`` reports the exact byte cost of a record.  The encoding
pass also counts the record's table words by the rules of
:func:`~repro.routing.model.words_of`; the shard manifest's word totals
come from that count.  The shard tests reconcile this against the word
accounting of :class:`~repro.routing.model.SizedTable`/``SchemeStats``:
decoded shards must reproduce the exact per-vertex word counts, and the
bytes-per-word ratio is recorded in the shard manifest so the benchmark
tables can show real on-disk cost next to the paper's word bounds.
"""

from __future__ import annotations

import struct
import threading
import zlib
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .tables import NodeTable

__all__ = [
    "CODEC_VERSION",
    "PACK_VERSION",
    "PACK_VERSION_CRC",
    "ShardCodecError",
    "ChecksumError",
    "encode_node_table",
    "decode_node_table",
    "decode_node_table_fast",
    "encoded_size",
    "encode_value",
    "decode_value",
    "header_bits",
    "encode_pack",
    "parse_pack_header",
    "check_pack",
    "verify_pack",
    "find_in_pack",
    "find_pack_entry",
    "payload_checksum_ok",
    "iter_pack_entries",
]

#: anything the decoders accept without copying
Buffer = Union[bytes, bytearray, memoryview]

MAGIC = b"RT"
CODEC_VERSION = 1

PACK_MAGIC = b"RTPK"
#: retired pack format without checksums (refused by _pack_bounds)
PACK_VERSION = 1
#: pack format with per-entry payload CRC32s and a whole-index CRC32
PACK_VERSION_CRC = 2
#: the retired pack v1 entry: (vertex, payload offset, payload length)
_PACK_ENTRY = struct.Struct("<IQI")
#: pack v2 entry: (vertex, offset, length, crc32 of the payload bytes),
#: little-endian, fixed width so binary search reads straight out of an
#: mmap without parsing
_PACK_ENTRY_CRC = struct.Struct("<IQII")
#: pack v2 index trailer: crc32 of header + index entries
_INDEX_CRC = struct.Struct("<I")
#: magic + version byte + flags byte + entry count
_PACK_HEADER = struct.Struct("<4sBBI")

#: flag bit 0: every incident edge weight is exactly 1.0 (skip weights)
_FLAG_UNIT_WEIGHTS = 0x01

# value tag bytes
_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_TUPLE = 0x06
_T_LIST = 0x07
_T_DICT = 0x08

_DOUBLE = struct.Struct("<d")
_unpack_double = _DOUBLE.unpack_from

#: deepest value nesting either direction of the codec accepts: the
#: top-level value is depth 0, and a value at depth ``MAX_VALUE_DEPTH +
#: 1`` is refused (by the encoder, so everything written decodes back,
#: and by the decoder, so hostile bytes cannot exhaust the stack) —
#: mirrored by ``MAX_VALUE_DEPTH`` in ``_kernels.c``, whose scanner
#: stands down at the same depth
MAX_VALUE_DEPTH = 200


class ShardCodecError(ValueError):
    """Raised on malformed, foreign or future-versioned shard bytes."""


class ChecksumError(ShardCodecError):
    """Stored CRC32 disagrees with the bytes — corruption, not format."""


# ----------------------------------------------------------------------
# varints
# ----------------------------------------------------------------------
#: decode stops at shift 70, i.e. 11 varint bytes = 77 payload bits;
#: encoding enforces the same bound so everything written decodes back
_UVARINT_LIMIT = 1 << 77


def _put_uvarint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ShardCodecError(f"uvarint cannot encode {value}")
    if value >= _UVARINT_LIMIT:
        raise ShardCodecError(
            f"int {value} exceeds the codec's 77-bit varint range"
        )
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise ShardCodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise ShardCodecError("varint too long")


def _read_svarint(data: bytes, pos: int) -> Tuple[int, int]:
    raw, pos = _read_uvarint(data, pos)
    return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1), pos


# ----------------------------------------------------------------------
# values
# ----------------------------------------------------------------------
#: ``_T_INT`` encodings of 0, 1, 2, ...: grown in powers of two to
#: cover the largest int encoded so far (never past ``_SMALL_INT_CAP``),
#: and rebound rather than mutated, so a table a reader holds stays valid
_small_ints: Tuple[bytes, ...] = ()
_SMALL_INT_CAP = 1 << 17
#: a subclass value (``IntEnum``, ``np.float64``, a named tuple, a str
#: enum) encodes as the exact base-type value it holds
_BASE_VALUE: Tuple[Tuple[type, Any], ...] = (
    (int, int.__int__),
    (float, float.__float__),
    (str, str.__str__),
    (tuple, tuple),
    (list, list),
)


def _grow_small_ints(value: int) -> Tuple[bytes, ...]:
    """The small-int table, grown to cover ``value < _SMALL_INT_CAP``."""
    global _small_ints
    table = _small_ints
    if value >= len(table):
        end = min(1 << value.bit_length(), _SMALL_INT_CAP)
        grown = []
        for i in range(len(table), end):
            one = bytearray((_T_INT,))
            _put_uvarint(one, i << 1)
            grown.append(bytes(one))
        table = _small_ints = table + tuple(grown)
    return table


def _too_deep() -> ShardCodecError:
    return ShardCodecError(
        f"value nested deeper than {MAX_VALUE_DEPTH} levels"
    )


def _put_value(out: bytearray, value: Any, depth: int = 0) -> int:
    """Append ``value``'s tagged encoding to ``out``; return its word
    count (the rules of :func:`repro.routing.model.words_of`).

    Dispatches on the exact type first.  Ints in ``[0,
    _SMALL_INT_CAP)`` are appended pre-encoded from the small-int table;
    the loops over tuple items and mapping entries (see
    :func:`_put_entries`) read it inline.  ``depth`` is ``value``'s
    nesting depth; a non-empty container at ``MAX_VALUE_DEPTH`` is
    refused.
    """
    t = type(value)
    if t is tuple or t is list:
        if depth >= MAX_VALUE_DEPTH and value:
            raise _too_deep()
        out.append(_T_TUPLE if t is tuple else _T_LIST)
        count = len(value)
        if count <= 0x7F:
            out.append(count)
        else:
            _put_uvarint(out, count)
        small = _small_ints
        size = len(small)
        words = 0
        for item in value:
            if type(item) is int and 0 <= item < size:
                out += small[item]
                words += 1
            elif item is None:
                out.append(_T_NONE)
            else:
                words += _put_value(out, item, depth + 1)
        return words
    if t is int:
        if 0 <= value < _SMALL_INT_CAP:
            small = _small_ints
            if value >= len(small):
                small = _grow_small_ints(value)
            out += small[value]
            return 1
        out.append(_T_INT)
        # zigzag: non-negative -> even, negative -> odd
        zigzag = value << 1 if value >= 0 else ((-value) << 1) - 1
        if zigzag <= 0x7F:
            out.append(zigzag)
        else:
            _put_uvarint(out, zigzag)
        return 1
    if t is str:
        raw = value.encode("utf-8")
        out.append(_T_STR)
        _put_uvarint(out, len(raw))
        out += raw
        return 1
    if value is None:
        out.append(_T_NONE)
        return 0
    if t is float:
        out.append(_T_FLOAT)
        out += _DOUBLE.pack(value)
        return 1
    if t is bool:
        out.append(_T_TRUE if value else _T_FALSE)
        return 0
    if isinstance(value, dict):
        if depth >= MAX_VALUE_DEPTH and value:
            raise _too_deep()
        out.append(_T_DICT)
        return _put_entries(out, value, depth + 1)
    for base, exact in _BASE_VALUE:
        if isinstance(value, base):
            return _put_value(out, exact(value), depth)
    raise ShardCodecError(f"cannot encode value of type {type(value)!r}")


def _put_entries(
    out: bytearray, entries: Dict[Any, Any], depth: int = 0
) -> int:
    """Append a count and the key/value pairs of ``entries`` (each at
    nesting ``depth``); return their words.

    Int keys and values (all of an int-to-int category, the commonest)
    are appended straight from the small-int table.  A bytecode loop:
    one ``b"".join`` over ``map``/``chain`` iterators measured slower.
    """
    _put_uvarint(out, len(entries))
    small = _small_ints
    size = len(small)
    words = 0
    for k, v in entries.items():
        if type(k) is int and 0 <= k < size:
            out += small[k]
            words += 1
        else:
            words += _put_value(out, k, depth)
        if type(v) is int and 0 <= v < size:
            out += small[v]
            words += 1
        else:
            words += _put_value(out, v, depth)
    return words


def _not_utf8(exc: UnicodeDecodeError) -> ShardCodecError:
    return ShardCodecError(f"string value is not valid UTF-8 ({exc.reason})")


def _unhashable_key(key: Any) -> ShardCodecError:
    return ShardCodecError(
        f"dict key of type {type(key).__name__} is not hashable"
    )


def _read_value(data: Buffer, pos: int, depth: int = 0) -> Tuple[Any, int]:
    """One tagged value at nesting ``depth`` from ``data[pos:]``; the
    value and the position after it.  Every malformed input raises
    :class:`ShardCodecError`.

    Ints whose varint is one or two bytes (``-8192 <= v < 8192``: every
    vertex id of a fleet that size) are read inline, at the top level
    and inside the tuple/list loop, and so are floats inside that loop:
    wire payloads are mostly flat columns of them.  Anything else,
    truncated input included, takes the general path, so values and
    error messages are those of the plain recursive walk (kept as the
    reference in ``tests/codec_reference.py``).
    """
    size = len(data)
    if pos >= size:
        raise ShardCodecError("truncated value")
    tag = data[pos]
    pos += 1
    if tag == _T_INT:
        if pos < size:
            b = data[pos]
            if b < 0x80:
                return (b >> 1) ^ -(b & 1), pos + 1
            if pos + 1 < size and data[pos + 1] < 0x80:
                raw = (b & 0x7F) | (data[pos + 1] << 7)
                return (raw >> 1) ^ -(raw & 1), pos + 2
        return _read_svarint(data, pos)
    if tag == _T_TUPLE or tag == _T_LIST:
        count, pos = _read_uvarint(data, pos)
        if count and depth >= MAX_VALUE_DEPTH:
            raise _too_deep()
        items: List[Any] = []
        append = items.append
        for _ in range(count):
            if pos + 1 < size:
                t = data[pos]
                if t == _T_INT:
                    b = data[pos + 1]
                    if b < 0x80:
                        append((b >> 1) ^ -(b & 1))
                        pos += 2
                        continue
                    if pos + 2 < size and data[pos + 2] < 0x80:
                        raw = (b & 0x7F) | (data[pos + 2] << 7)
                        append((raw >> 1) ^ -(raw & 1))
                        pos += 3
                        continue
                elif t == _T_FLOAT and pos + 9 <= size:
                    append(_unpack_double(data, pos + 1)[0])
                    pos += 9
                    continue
            item, pos = _read_value(data, pos, depth + 1)
            append(item)
        return (tuple(items) if tag == _T_TUPLE else items), pos
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_FLOAT:
        end = pos + 8
        if end > size:
            raise ShardCodecError("truncated float")
        return _unpack_double(data, pos)[0], end
    if tag == _T_STR:
        length, pos = _read_uvarint(data, pos)
        end = pos + length
        if end > size:
            raise ShardCodecError("truncated string")
        # bytes() copies only the string payload itself (str objects own
        # their storage anyway); the surrounding buffer is never copied.
        try:
            return bytes(data[pos:end]).decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise _not_utf8(exc) from None
    if tag == _T_DICT:
        count, pos = _read_uvarint(data, pos)
        if count and depth >= MAX_VALUE_DEPTH:
            raise _too_deep()
        return _read_entries(data, pos, count, depth + 1)
    raise ShardCodecError(f"unknown value tag 0x{tag:02x}")


def _read_entries(
    data: Buffer, pos: int, count: int, depth: int = 0
) -> Tuple[Dict[Any, Any], int]:
    """``count`` key/value pairs at nesting ``depth``, as a dict."""
    result = {}
    for _ in range(count):
        k, pos = _read_value(data, pos, depth)
        v, pos = _read_value(data, pos, depth)
        try:
            result[k] = v
        except TypeError:
            raise _unhashable_key(k) from None
    return result, pos


# ----------------------------------------------------------------------
# node tables
# ----------------------------------------------------------------------
def encode_node_table(record: NodeTable) -> bytes:
    """Pack one :class:`NodeTable` into versioned shard bytes."""
    return _encode_record(record)[0]


def _encode_record(record: NodeTable) -> Tuple[bytes, int]:
    """Shard bytes of ``record`` and its ``table_words()``, in one pass."""
    unit = all(w == 1.0 for _, w in record.neighbors)
    flags = _FLAG_UNIT_WEIGHTS if unit else 0
    out = bytearray((*MAGIC, CODEC_VERSION, flags))
    _put_uvarint(out, record.owner)
    _put_uvarint(out, len(record.neighbors))
    for nb, _ in record.neighbors:
        _put_uvarint(out, nb)
    if not unit:
        for _, w in record.neighbors:
            out += _DOUBLE.pack(w)
    _put_value(out, record.label)
    _put_uvarint(out, len(record.categories))
    words = 0
    for cat, entries in record.categories.items():
        _put_value(out, cat)
        words += _put_entries(out, entries)
    return bytes(out), words


def decode_node_table(data: Buffer) -> NodeTable:
    """Inverse of :func:`encode_node_table` (validates magic + version).

    Accepts ``bytes`` or a ``memoryview``; a view (e.g. a slice of an
    ``mmap``-ed pack file) is parsed in place — integers, floats and
    structure are read straight out of the buffer and only leaf string
    payloads are materialized.
    """
    if len(data) < 4 or data[:2] != MAGIC:
        raise ShardCodecError("not a routing-table shard (bad magic)")
    version, flags = data[2], data[3]
    if version != CODEC_VERSION:
        raise ShardCodecError(
            f"unsupported shard codec version {version} "
            f"(this build reads version {CODEC_VERSION})"
        )
    pos = 4
    owner, pos = _read_uvarint(data, pos)
    degree, pos = _read_uvarint(data, pos)
    ids = []
    for _ in range(degree):
        nb, pos = _read_uvarint(data, pos)
        ids.append(nb)
    if flags & _FLAG_UNIT_WEIGHTS:
        weights = [1.0] * degree
    else:
        end = pos + 8 * degree
        if end > len(data):
            raise ShardCodecError("truncated weights")
        weights = [
            _DOUBLE.unpack_from(data, pos + 8 * i)[0] for i in range(degree)
        ]
        pos = end
    label, pos = _read_value(data, pos)
    cat_count, pos = _read_uvarint(data, pos)
    categories = {}
    for _ in range(cat_count):
        cat, pos = _read_value(data, pos)
        if not isinstance(cat, str):
            raise ShardCodecError(f"category name {cat!r} is not a string")
        entry_count, pos = _read_uvarint(data, pos)
        categories[cat], pos = _read_entries(data, pos, entry_count)
    if pos != len(data):
        raise ShardCodecError(
            f"{len(data) - pos} trailing bytes after shard payload"
        )
    return NodeTable(
        owner=owner,
        neighbors=tuple(zip(ids, weights)),
        label=label,
        categories=categories,
    )


# ----------------------------------------------------------------------
# native-accelerated decode
# ----------------------------------------------------------------------
#: string-span packing of the native scanner's aux words (offset in the
#: low bits, length above) — mirrored by STR_OFFSET_BITS in _kernels.c
_STR_OFFSET_BITS = 40
_STR_OFFSET_MASK = (1 << _STR_OFFSET_BITS) - 1
#: pseudo-tag the native scanner emits for bare (untagged) counts
_T_COUNT = 0xF1


class _ScanScratch(threading.local):
    """Per-thread reusable buffers for the native payload scanner.

    The serving stores decode under a threaded TCP server, so the
    scratch is thread-local; buffers grow to the largest payload seen
    and are reused for every later decode on that thread.
    """

    def __init__(self) -> None:
        self.size = 0
        self.ids: Any = None
        self.wts: Any = None
        self.tags: Any = None
        self.aux: Any = None
        self.meta: Any = None

    def ensure(self, n: int) -> "_ScanScratch":
        if self.size < n:
            import numpy as np

            cap = max(1024, 1 << max(1, (n - 1).bit_length()))
            self.ids = np.empty(cap, dtype=np.int64)
            self.wts = np.empty(cap, dtype=np.float64)
            self.tags = np.empty(cap, dtype=np.uint8)
            self.aux = np.empty(cap, dtype=np.int64)
            self.meta = np.empty(4, dtype=np.int64)
            self.size = cap
        return self


_SCRATCH = _ScanScratch()


def _native_scanner() -> Any:
    """The native kernel handle, iff the resolved kernel mode is native."""
    from ..graph.shortest_paths import kernel_mode

    if kernel_mode() != "native":
        return None
    from .. import native

    return native.try_kernels()


def _build_value(
    tags: List[int], aux: List[int], data: Buffer, i: int
) -> Tuple[Any, int]:
    """One value from the scanner's preorder token stream.

    The scanner already validated structure, bounds and depth, so this
    walker only materialises: ints/floats/bools straight from the aux
    word, strings from their (offset, length) span over the original
    buffer.  The two faults a scan cannot see (a string that is not
    UTF-8, an unhashable dict key) raise what :func:`_read_value` raises.
    """
    tag = tags[i]
    a = aux[i]
    i += 1
    # ints and floats are the bulk of real payloads (bunch/cluster
    # dicts); their aux words are already the final Python values —
    # floats were bulk bit-cast before the walk (see the caller).
    if tag == _T_INT or tag == _T_FLOAT:
        return a, i
    if tag == _T_STR:
        off = a & _STR_OFFSET_MASK
        end = off + (a >> _STR_OFFSET_BITS)
        try:
            return bytes(data[off:end]).decode("utf-8"), i
        except UnicodeDecodeError as exc:
            raise _not_utf8(exc) from None
    if tag == _T_NONE:
        return None, i
    if tag == _T_TRUE:
        return True, i
    if tag == _T_FALSE:
        return False, i
    if tag in (_T_TUPLE, _T_LIST):
        items = []
        for _ in range(a):
            item, i = _build_value(tags, aux, data, i)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), i
    # _T_DICT: the scanner admits no other tag into the stream
    return _build_entries(tags, aux, data, i, a)


def _build_entries(
    tags: List[int], aux: List[int], data: Buffer, i: int, count: int
) -> Tuple[Dict[Any, Any], int]:
    """``count`` key/value pairs from the token stream, as a dict."""
    result = {}
    for _ in range(count):
        k, i = _build_value(tags, aux, data, i)
        v, i = _build_value(tags, aux, data, i)
        try:
            result[k] = v
        except TypeError:
            raise _unhashable_key(k) from None
    return result, i


def decode_node_table_fast(data: Buffer) -> NodeTable:
    """:func:`decode_node_table` through the native scanner when on.

    Dispatches on the resolved ``REPRO_KERNEL`` mode: under ``native``
    the payload is tokenised by the C scanner (varints, zigzag
    unpacking, weight block, string spans) in one pass and assembled
    here from the token stream.  *Any* anomaly the scanner meets —
    truncation, foreign version, a non-string category name, an unknown
    tag — makes it stand down and this function re-run the pure
    decoder, so error messages and edge-case behaviour stay identical
    across kernel modes.  Pure/numpy modes call the pure decoder
    directly.
    """
    kernels = _native_scanner()
    if kernels is None:
        return decode_node_table(data)
    import numpy as np

    buf = np.frombuffer(data, dtype=np.uint8)
    scratch = _SCRATCH.ensure(buf.size)
    ok = kernels.scan_table(
        buf, scratch.ids, scratch.wts, scratch.tags, scratch.aux,
        scratch.meta,
    )
    if not ok:
        return decode_node_table(data)
    owner = int(scratch.meta[0])
    degree = int(scratch.meta[1])
    unit = bool(scratch.meta[2])
    ntok = int(scratch.meta[3])
    ids = scratch.ids[:degree].tolist()
    weights = [1.0] * degree if unit else scratch.wts[:degree].tolist()
    tags_arr = scratch.tags[:ntok]
    aux_arr = scratch.aux[:ntok]
    tags = tags_arr.tolist()
    aux = aux_arr.tolist()
    # Bulk bit-cast every float token's aux word to its Python float up
    # front — the walker then reads finals only (no per-token struct).
    is_float = tags_arr == _T_FLOAT
    if is_float.any():
        for j, val in zip(
            np.flatnonzero(is_float).tolist(),
            aux_arr.view(np.float64)[is_float].tolist(),
        ):
            aux[j] = val
    label, i = _build_value(tags, aux, data, 0)
    cat_count = aux[i]  # _T_COUNT
    i += 1
    categories = {}
    for _ in range(cat_count):
        cat, i = _build_value(tags, aux, data, i)
        entry_count = aux[i]  # _T_COUNT
        categories[cat], i = _build_entries(tags, aux, data, i + 1,
                                            entry_count)
    return NodeTable(
        owner=owner,
        neighbors=tuple(zip(ids, weights)),
        label=label,
        categories=categories,
    )


def encoded_size(record: NodeTable) -> int:
    """Exact on-disk byte cost of ``record``."""
    return len(encode_node_table(record))


def encode_value(value: Any) -> bytes:
    """Encode one value with the codec's self-describing tag scheme.

    The public face of the tagged value encoding the shard payloads use
    internally (``None``/bool/int/float/str/tuple/list/dict, nested
    arbitrarily) — the cluster wire protocol
    (:mod:`repro.cluster.wire`) frames every RPC body with it, so
    headers, labels and status dicts cross the wire in the exact format
    the shards already commit to (and CODEC001 already audits).  Serving
    measures forwarded header bytes with it too
    (``LocalRouter.header_stats()``, :func:`header_bits`).
    """
    out = bytearray()
    _put_value(out, value)
    return bytes(out)


def header_bits(header: Any) -> int:
    """The true wire size of a routing header, in bits."""
    return 8 * len(encode_value(header))


def decode_value(data: Buffer) -> Any:
    """Inverse of :func:`encode_value`; rejects trailing bytes."""
    value, pos = _read_value(data, 0)
    if pos != len(data):
        raise ShardCodecError(
            f"{len(data) - pos} trailing bytes after encoded value"
        )
    return value


# ----------------------------------------------------------------------
# packed groups: many shard payloads in one mmap-able file
# ----------------------------------------------------------------------
def encode_pack(entries: Sequence[Tuple[int, bytes]]) -> bytes:
    """Pack ``(vertex, shard bytes)`` pairs into one group-file blob.

    Entries are index-sorted by vertex id; payloads are laid out in the
    same order, concatenated directly after the index.  Each payload is
    an unmodified shard (:func:`encode_node_table` output).  Every index
    entry carries the CRC32 of its payload, and the index itself is
    sealed with a CRC32 trailer — the integrity substrate of the
    fault-tolerant serving layer.
    """
    ordered = sorted(entries, key=lambda e: e[0])
    for (v, _), (w, _) in zip(ordered, ordered[1:]):
        if v == w:
            raise ShardCodecError(f"vertex {v} appears twice in the pack")
    out: List[bytes] = [
        _PACK_HEADER.pack(PACK_MAGIC, PACK_VERSION_CRC, 0, len(ordered))
    ]
    offset = 0
    for v, blob in ordered:
        out.append(
            _PACK_ENTRY_CRC.pack(v, offset, len(blob), zlib.crc32(blob))
        )
        offset += len(blob)
    out.append(_INDEX_CRC.pack(zlib.crc32(b"".join(out))))
    out.extend(blob for _, blob in ordered)
    return b"".join(out)


def parse_pack_header(buf: Buffer) -> Tuple[int, int]:
    """Validate the pack header; return ``(count, payload_start)``.

    The cheap half of validation run on every mapping: magic, version,
    that the claimed index fits in the buffer, and the index CRC32 (one
    crc sweep of the index region, ~20 bytes/entry), so a mapped group's
    index is known-good before the first binary search trusts it.
    :func:`check_pack` is the full structural index check.
    """
    count, payload_start = _pack_bounds(buf)
    _check_index_crc(buf, payload_start)
    return count, payload_start


def _check_index_crc(buf: Buffer, payload_start: int) -> None:
    """Verify the index trailer (crc32 of header + entries)."""
    crc_at = payload_start - _INDEX_CRC.size
    (stored,) = _INDEX_CRC.unpack_from(buf, crc_at)
    actual = zlib.crc32(memoryview(buf)[:crc_at])
    if stored != actual:
        raise ChecksumError(
            f"pack index checksum mismatch (stored 0x{stored:08x}, "
            f"bytes hash to 0x{actual:08x}) — the index is corrupt"
        )


def _pack_bounds(buf: Buffer) -> Tuple[int, int]:
    """Validate the pack header; return ``(count, payload_start)``."""
    if len(buf) < _PACK_HEADER.size:
        raise ShardCodecError("truncated pack header")
    magic, version, _flags, count = _PACK_HEADER.unpack_from(buf, 0)
    if magic != PACK_MAGIC:
        raise ShardCodecError("not a shard pack (bad magic)")
    if version == PACK_VERSION:
        raise ShardCodecError(
            f"pack version {PACK_VERSION} (no checksums) is retired; "
            f"this build reads only checksummed pack version "
            f"{PACK_VERSION_CRC}.  Rebuild the shard directory with "
            f"`python -m repro shard --scheme <spec> --seed <seed> "
            f"--out <dir>`"
        )
    if version != PACK_VERSION_CRC:
        raise ShardCodecError(
            f"unsupported pack version {version} (this build reads "
            f"version {PACK_VERSION_CRC})"
        )
    payload_start = (
        _PACK_HEADER.size + count * _PACK_ENTRY_CRC.size + _INDEX_CRC.size
    )
    if payload_start > len(buf):
        raise ShardCodecError(
            f"pack index claims {count} entries but the file is too short"
        )
    return count, payload_start


_PACK_INDEX_DTYPE = [
    ("v", "<u4"), ("off", "<u8"), ("len", "<u4"), ("crc", "<u4"),
]


def check_pack(buf: Buffer) -> int:
    """Validate a whole pack index; returns the entry count.

    Vectorized (numpy view over the index region — ~50us for a
    4096-entry group): the index must match its CRC32 trailer, be
    strictly sorted by vertex, every payload must lie inside the payload
    region, payloads must not overlap, and the payload region must end
    where the last payload does.  The store keeps its cold path
    syscall-light by running only :func:`parse_pack_header` per mapping
    and deferring this full check to the first anomaly (a failed lookup
    or decode) and to explicit ``verify()`` calls — every corruption the
    index can carry still fails loudly, with this function's precise
    error.
    """
    import numpy as np

    count, payload_start = parse_pack_header(buf)
    payload_size = len(buf) - payload_start
    index = np.frombuffer(
        buf, dtype=_PACK_INDEX_DTYPE, count=count, offset=_PACK_HEADER.size,
    )
    vertices = index["v"].astype(np.int64)
    ends = index["off"].astype(np.int64) + index["len"]
    if count and not (np.diff(vertices) > 0).all():
        i = int(np.argmax(np.diff(vertices) <= 0)) + 1
        raise ShardCodecError(
            f"pack index not strictly sorted at entry {i} "
            f"(vertex {int(vertices[i])} after {int(vertices[i - 1])})"
        )
    if count and not (index["off"][1:] >= ends[:-1]).all():
        i = int(np.argmax(index["off"][1:] < ends[:-1])) + 1
        raise ShardCodecError(
            f"pack entry for vertex {int(vertices[i])} overlaps the "
            f"previous payload"
        )
    if count and not (ends <= payload_size).all():
        i = int(np.argmax(ends > payload_size))
        raise ShardCodecError(
            f"pack entry for vertex {int(vertices[i])} runs past the "
            f"payload region"
        )
    # payloads are written back to back, so the exact file size is
    # known — trailing bytes mean appended garbage or a torn rewrite
    expected = int(ends[-1]) if count else 0
    if payload_size != expected:
        raise ShardCodecError(
            f"pack holds {payload_size} payload bytes but the "
            f"index accounts for {expected} — trailing garbage "
            f"or a torn rewrite"
        )
    return count


def verify_pack(buf: Buffer) -> int:
    """The offline integrity sweep: index *and* every payload.

    Runs :func:`check_pack`, then verifies each payload against its
    stored CRC32 (:class:`ChecksumError` names the first corrupt
    vertex).  Returns the entry count.  ``ShardStore.verify()``, the
    replicated store's map-time check and ``shard --verify`` run this
    per group copy.
    """
    count = check_pack(buf)
    view = memoryview(buf)
    for v, offset, length, crc in _iter_entries_crc(buf):
        if zlib.crc32(view[offset:offset + length]) != crc:
            raise ChecksumError(
                f"payload of vertex {v} fails its CRC32 — "
                f"{length} bytes at offset {offset} are corrupt"
            )
    return count


def payload_checksum_ok(
    buf: Buffer, offset: int, length: int, crc: int
) -> bool:
    """Whether ``buf[offset:offset+length]`` hashes to ``crc``."""
    return zlib.crc32(memoryview(buf)[offset:offset + length]) == crc


def find_pack_entry(buf: Buffer, v: int) -> Optional[Tuple[int, int, int]]:
    """Binary-search the index for vertex ``v``.

    Returns ``(absolute offset, length, crc)`` of the payload inside
    ``buf`` — ``crc`` is the stored payload CRC32 — or ``None`` when the
    pack holds no shard for ``v``.  Assumes a sorted index (what
    :func:`encode_pack` writes and :func:`check_pack` certifies); on an
    unsorted or corrupt index the search can only miss or surface a
    payload whose checksum or self-validating decode fails — callers
    diagnose that with :func:`check_pack`.
    """
    count, payload_start = _pack_bounds(buf)
    entry = _PACK_ENTRY_CRC
    lo, hi = 0, count
    while lo < hi:
        mid = (lo + hi) // 2
        vertex, offset, length, crc = entry.unpack_from(
            buf, _PACK_HEADER.size + mid * entry.size
        )
        if vertex == v:
            return payload_start + offset, length, crc
        if vertex < v:
            lo = mid + 1
        else:
            hi = mid
    return None


def find_in_pack(buf: Buffer, v: int) -> Optional[Tuple[int, int]]:
    """:func:`find_pack_entry` without the checksum field."""
    found = find_pack_entry(buf, v)
    return None if found is None else found[:2]


def _iter_entries_crc(buf: Buffer) -> Iterator[Tuple[int, int, int, int]]:
    """Yield ``(vertex, absolute offset, length, crc)``."""
    count, payload_start = _pack_bounds(buf)
    for i in range(count):
        v, offset, length, crc = _PACK_ENTRY_CRC.unpack_from(
            buf, _PACK_HEADER.size + i * _PACK_ENTRY_CRC.size
        )
        yield v, payload_start + offset, length, crc


def iter_pack_entries(buf: Buffer) -> Iterator[Tuple[int, int, int]]:
    """Yield ``(vertex, absolute offset, length)`` in index order."""
    for v, offset, length, _ in _iter_entries_crc(buf):
        yield v, offset, length
