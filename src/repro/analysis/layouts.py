"""The single declared layout table the CODEC001 rule cross-checks.

Every magic byte string, format-version integer and ``struct`` format
the on-disk codecs commit to is declared here, once.  CODEC001 parses
the codec modules and verifies that each module-level constant still
holds exactly its declared value, and that no *undeclared* struct
format string appears in a ``struct`` call — so changing a wire layout
without updating this table (or vice versa) fails the static gate
instead of silently forking the format.

This is deliberately data, not imports: importing the codec modules and
reading the live values would make the check a tautology.  The table is
the reviewable, diffable statement of the wire contract; the modules
are the implementation under test.
"""

from __future__ import annotations

from typing import Dict, Union

__all__ = ["DECLARED_LAYOUTS"]

#: per-module layout contract: ``constants`` are module-level names with
#: their exact values (bytes, int or str), ``structs`` are names bound
#: to ``struct.Struct(<format>)`` with the exact format string.
LayoutTable = Dict[str, Dict[str, Dict[str, Union[bytes, int, str]]]]

DECLARED_LAYOUTS: LayoutTable = {
    "repro/routing/shard_codec.py": {
        "constants": {
            # shard payload header (layout v1 payloads, all pack versions)
            "MAGIC": b"RT",
            "CODEC_VERSION": 1,
            # packed group files
            "PACK_MAGIC": b"RTPK",
            "PACK_VERSION": 1,
            "PACK_VERSION_CRC": 2,
            # weight-layout flag bits in the shard payload header
            "_FLAG_UNIT_WEIGHTS": 0x01,
            # value tag bytes of the self-describing payload encoding
            "_T_NONE": 0x00,
            "_T_FALSE": 0x01,
            "_T_TRUE": 0x02,
            "_T_INT": 0x03,
            "_T_FLOAT": 0x04,
            "_T_STR": 0x05,
            "_T_TUPLE": 0x06,
            "_T_LIST": 0x07,
            "_T_DICT": 0x08,
            # native-scanner token-stream contract (decode_node_table_fast):
            # mirrored by RT_T_COUNT / STR_OFFSET_BITS in _kernels.c
            "_T_COUNT": 0xF1,
            "_STR_OFFSET_BITS": 40,
            # deepest value nesting the encoder writes and the decoders
            # read: mirrors MAX_VALUE_DEPTH in _kernels.c, where the
            # scanner stands down to the pure decoder at the same depth
            "MAX_VALUE_DEPTH": 200,
        },
        "structs": {
            "_PACK_ENTRY": "<IQI",
            "_PACK_ENTRY_CRC": "<IQII",
            "_INDEX_CRC": "<I",
            "_PACK_HEADER": "<4sBBI",
            "_DOUBLE": "<d",
        },
    },
    # the native scanner's mirror of the shard_codec.py layout above:
    # CODEC001's text mode parses these as `#define NAME VALUE` lines,
    # so C-side drift from the committed wire format fails the gate the
    # same way Python-side drift does (RT_MAGIC_0/1 are the bytes of
    # MAGIC = b"RT"; the RT_T_* tags are the _T_* tag bytes)
    "repro/native/_kernels.c": {
        "constants": {
            "RT_MAGIC_0": 0x52,
            "RT_MAGIC_1": 0x54,
            "RT_CODEC_VERSION": 1,
            "RT_FLAG_UNIT_WEIGHTS": 0x01,
            "RT_T_NONE": 0x00,
            "RT_T_FALSE": 0x01,
            "RT_T_TRUE": 0x02,
            "RT_T_INT": 0x03,
            "RT_T_FLOAT": 0x04,
            "RT_T_STR": 0x05,
            "RT_T_TUPLE": 0x06,
            "RT_T_LIST": 0x07,
            "RT_T_DICT": 0x08,
            # pseudo-tag of the token stream (never in shard bytes) and
            # the aux-word split of the string tokens — both halves of
            # the scanner/assembler contract with shard_codec.py
            "RT_T_COUNT": 0xF1,
            "STR_OFFSET_BITS": 40,
            # the scanner's nesting cap: the same depth as
            # MAX_VALUE_DEPTH in shard_codec.py
            "MAX_VALUE_DEPTH": 200,
        },
        "structs": {},
    },
    "repro/routing/serving.py": {
        "constants": {
            "MANIFEST_NAME": "manifest.json",
            "FORMAT": "repro.routing.shards",
            "FORMAT_VERSION": 1,
            "PACKED_FORMAT_VERSION": 2,
            "CHECKSUM_FORMAT_VERSION": 3,
        },
        "structs": {},
    },
    "repro/cluster/wire.py": {
        "constants": {
            # RPC frame header: magic, version, msg type, payload length
            "WIRE_MAGIC": b"RC",
            "WIRE_VERSION": 2,
            "FRAME_BYTES": 8,
            "MAX_PAYLOAD": 67108864,
            # message / reply type bytes
            "MSG_STATUS": 1,
            "MSG_LABEL": 2,
            "MSG_LOOKUP": 3,
            "MSG_FORWARD": 4,
            "MSG_SHUTDOWN": 5,
            "MSG_ROUTE": 6,
            "REPLY_OK": 32,
            "REPLY_ERROR": 33,
        },
        "structs": {
            "_FRAME": "<2sBBI",
        },
    },
}
