"""Pack-group codec: round-trips and loud rejection.

The store trusts the index after one :func:`check_pack` pass, so that
pass must catch everything a corrupt or foreign file could carry: wrong
magic, retired or future versions, truncated headers/indexes, unsorted
or overlapping entries, payloads running past the file.  The zero-copy
decode path (``memoryview`` in, no intermediate ``bytes``) must agree
bit for bit with the plain ``bytes`` path.
"""

import struct
import zlib

import pytest

from repro.routing.shard_codec import (
    PACK_VERSION,
    PACK_VERSION_CRC,
    ChecksumError,
    ShardCodecError,
    check_pack,
    decode_node_table,
    encode_node_table,
    encode_pack,
    find_in_pack,
    find_pack_entry,
    iter_pack_entries,
    parse_pack_header,
    verify_pack,
)
from repro.routing.tables import NodeTable

_PACK_HEADER = struct.Struct("<4sBBI")
_PACK_ENTRY = struct.Struct("<IQI")
_PACK_ENTRY_CRC = struct.Struct("<IQII")


def _record(v: int) -> NodeTable:
    return NodeTable(
        owner=v,
        neighbors=((v + 1, 1.5), (v + 2, 2.5)),
        label=(v, "label", (v, ((1, 2),))),
        categories={"ball": {v + 1: 0, v + 2: 1}, "seq": {7: (1, 2, 3)}},
    )


def _pack(vertices):
    return encode_pack(
        [(v, encode_node_table(_record(v))) for v in vertices]
    )


class TestRoundTrip:
    def test_find_and_decode_every_entry(self):
        vertices = [3, 9, 17, 42, 1000]
        buf = _pack(vertices)
        assert check_pack(buf) == len(vertices)
        for v in vertices:
            offset, length = find_in_pack(buf, v)
            record = decode_node_table(
                memoryview(buf)[offset:offset + length]
            )
            assert record == _record(v)

    def test_absent_vertex_returns_none(self):
        buf = _pack([3, 9, 17])
        assert find_in_pack(buf, 4) is None
        assert find_in_pack(buf, 0) is None
        assert find_in_pack(buf, 18) is None

    def test_entries_are_index_sorted_regardless_of_input_order(self):
        buf = _pack([42, 3, 17])
        assert [v for v, _, _ in iter_pack_entries(buf)] == [3, 17, 42]

    def test_memoryview_decode_matches_bytes_decode(self):
        blob = encode_node_table(_record(5))
        assert decode_node_table(memoryview(blob)) == decode_node_table(blob)

    def test_empty_pack(self):
        buf = encode_pack([])
        assert check_pack(buf) == 0
        assert find_in_pack(buf, 0) is None

    def test_duplicate_vertex_rejected_at_encode(self):
        blob = encode_node_table(_record(3))
        with pytest.raises(ShardCodecError, match="twice"):
            encode_pack([(3, blob), (3, blob)])


class TestRejection:
    def test_foreign_magic(self):
        buf = bytearray(_pack([1, 2]))
        buf[:4] = b"NOPE"
        with pytest.raises(ShardCodecError, match="magic"):
            check_pack(bytes(buf))

    def test_future_version(self):
        buf = bytearray(_pack([1, 2]))
        buf[4] = PACK_VERSION_CRC + 1
        with pytest.raises(ShardCodecError, match="version"):
            check_pack(bytes(buf))

    def test_truncated_header(self):
        with pytest.raises(ShardCodecError, match="truncated"):
            check_pack(_pack([1])[:6])

    def test_truncated_index(self):
        buf = bytearray(_pack([1, 2]))
        # claim more entries than the file holds
        struct.pack_into("<I", buf, 6, 1000)
        with pytest.raises(ShardCodecError, match="too short"):
            check_pack(bytes(buf))

    def _handcrafted(self, entries, payload):
        """A pack with the given (vertex, offset, length) index, every
        checksum valid — only the structure is wrong."""
        out = [
            _PACK_HEADER.pack(b"RTPK", PACK_VERSION_CRC, 0, len(entries))
        ]
        out.extend(
            _PACK_ENTRY_CRC.pack(
                v, off, length, zlib.crc32(payload[off:off + length])
            )
            for v, off, length in entries
        )
        out.append(struct.pack("<I", zlib.crc32(b"".join(out))))
        out.append(payload)
        return b"".join(out)

    def test_unsorted_index(self):
        buf = self._handcrafted(
            [(9, 0, 4), (3, 4, 4)], b"\x00" * 8
        )
        with pytest.raises(ShardCodecError, match="sorted"):
            check_pack(buf)

    def test_overlapping_payloads(self):
        buf = self._handcrafted(
            [(3, 0, 6), (9, 4, 4)], b"\x00" * 8
        )
        with pytest.raises(ShardCodecError, match="overlap"):
            check_pack(buf)

    def test_payload_out_of_bounds(self):
        buf = self._handcrafted(
            [(3, 0, 4), (9, 4, 100)], b"\x00" * 8
        )
        with pytest.raises(ShardCodecError, match="past the payload"):
            check_pack(buf)

    def test_truncated_payload_slice_fails_in_decode(self):
        """A wrong length yields a slice the shard decoder rejects."""
        blob = encode_node_table(_record(3))
        with pytest.raises(ShardCodecError):
            decode_node_table(memoryview(blob)[: len(blob) - 2])


class TestChecksummedPack:
    """Packs carry a CRC32 per entry plus one over header+index."""

    def test_round_trip_and_verify(self):
        vertices = [3, 9, 17, 42, 1000]
        buf = _pack(vertices)
        assert buf[4] == PACK_VERSION_CRC
        assert check_pack(buf) == len(vertices)
        assert verify_pack(buf) == len(vertices)
        for v in vertices:
            offset, length, crc = find_pack_entry(buf, v)
            assert crc is not None
            record = decode_node_table(
                memoryview(buf)[offset:offset + length]
            )
            assert record == _record(v)

    def test_plain_pack_refused(self):
        """Pack-v1 bytes (no checksums) raise ShardCodecError naming the
        rebuild command, from every reader."""
        blob = encode_node_table(_record(3))
        buf = b"".join([
            _PACK_HEADER.pack(b"RTPK", PACK_VERSION, 0, 1),
            _PACK_ENTRY.pack(3, 0, len(blob)),
            blob,
        ])
        for reader in (check_pack, verify_pack, parse_pack_header,
                       lambda b: find_pack_entry(b, 3)):
            with pytest.raises(ShardCodecError, match="retired") as info:
                reader(buf)
            assert "python -m repro shard" in str(info.value)

    def test_empty_checksummed_pack(self):
        buf = _pack([])
        assert check_pack(buf) == 0
        assert verify_pack(buf) == 0

    def test_index_bit_flip_raises_checksum_error(self):
        buf = bytearray(_pack([3, 9, 17]))
        buf[12] ^= 0x01  # inside the first index entry
        with pytest.raises(ChecksumError, match="index"):
            check_pack(bytes(buf))

    def test_payload_bit_flip_caught_by_verify(self):
        buf = bytearray(_pack([3, 9, 17]))
        buf[-1] ^= 0x80  # last payload byte
        assert check_pack(bytes(buf)) == 3  # index is still sound
        with pytest.raises(ChecksumError, match="payload"):
            verify_pack(bytes(buf))

    def test_truncation_always_detected(self):
        buf = _pack([3, 9, 17])
        for cut in (1, 2, 5, len(buf) // 2, len(buf) - 1):
            with pytest.raises(ShardCodecError):
                verify_pack(buf[:-cut])
