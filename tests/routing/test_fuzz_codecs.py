"""Fuzz: every bit flip and truncation of a checksummed pack is caught.

The v3 pack layout covers every byte with a CRC32: header + index under
the index checksum, each payload under its entry checksum.  So the
property is absolute, not probabilistic — ANY single-bit flip and ANY
truncation of an encoded pack must raise
:class:`~repro.routing.shard_codec.ShardCodecError` (usually its
:class:`~repro.routing.shard_codec.ChecksumError` subclass) from the
offline sweep, and must never decode into a structurally valid but
*wrong* :class:`NodeTable`.  The corpus is every registered scheme's
real compiled shards (shapes differ per scheme: different categories,
label tuples, sequence payloads), plus a seeded position sample large
enough to hit header, index and payload bytes of every pack.

The serving counterpart (the store refusing to hand corrupted bytes to
the decoder) is asserted here too: a flipped pack behind a
:class:`ShardStore` raises on the affected vertex — the table
either arrives intact or not at all.
"""

import random

import pytest

from repro.api import SubstrateCache, build, get_spec, scheme_names
from repro.graph.generators import erdos_renyi, with_random_weights
from repro.routing.shard_codec import (
    ChecksumError,
    ShardCodecError,
    decode_node_table,
    decode_node_table_fast,
    decode_value,
    encode_node_table,
    encode_pack,
    find_pack_entry,
    iter_pack_entries,
    verify_pack,
)

N = 60
FLIPS_PER_PACK = 120
TRUNCATIONS_PER_PACK = 40


@pytest.fixture(scope="module")
def packs():
    """One checksummed pack of real compiled shards per registered scheme."""
    gu = erdos_renyi(N, 0.12, seed=51)
    gw = with_random_weights(gu, seed=52)
    caches = {True: SubstrateCache(), False: SubstrateCache()}
    out = {}
    for name in scheme_names():
        spec = get_spec(name)
        weighted = spec.weighted_capable
        session = build(
            name, gw if weighted else gu,
            cache=caches[weighted], seed=5,
        )
        records = session.scheme.compile_tables()
        out[name] = encode_pack(
            [(r.owner, encode_node_table(r)) for r in records]
        )
    return out


def _flip(buf: bytes, byte: int, bit: int) -> bytes:
    out = bytearray(buf)
    out[byte] ^= 1 << bit
    return bytes(out)


class TestBitFlips:
    def test_every_scheme_every_flip_detected(self, packs):
        """Seeded single-bit flips across the whole pack always raise."""
        for name, pack in packs.items():
            rng = random.Random(hash(name) & 0xFFFF)
            positions = {
                (rng.randrange(len(pack)), rng.randrange(8))
                for _ in range(FLIPS_PER_PACK)
            }
            # make sure the sample covers all three regions
            positions |= {(0, 0), (4, 1), (7, 2), (len(pack) - 1, 7)}
            for byte, bit in positions:
                flipped = _flip(pack, byte, bit)
                with pytest.raises(ShardCodecError):
                    verify_pack(flipped)

    def test_no_silent_wrong_table(self, packs):
        """A flip that *decodes* must still be refused by the checksum:
        compare what the decoder would return against the truth — any
        structurally valid decode of flipped bytes is either identical
        (impossible for CRC32 on a single flip) or caught upstream."""
        pack = packs["tz2"]
        truth = {
            v: decode_node_table(memoryview(pack)[off:off + length])
            for v, off, length in iter_pack_entries(pack)
        }
        rng = random.Random(77)
        silent = []
        for _ in range(FLIPS_PER_PACK):
            byte, bit = rng.randrange(len(pack)), rng.randrange(8)
            flipped = _flip(pack, byte, bit)
            try:
                verify_pack(flipped)
            except ShardCodecError:
                continue  # detected — the required outcome
            # verify passed: every entry must decode to the exact truth
            for v, off, length in iter_pack_entries(flipped):
                record = decode_node_table(
                    memoryview(flipped)[off:off + length]
                )
                if record != truth[v]:
                    silent.append((byte, bit, v))
        assert silent == [], silent

    def test_index_flip_raises_checksum_error(self, packs):
        pack = packs["tz2"]
        with pytest.raises(ChecksumError):
            verify_pack(_flip(pack, 11, 3))  # inside the index region


class TestTruncations:
    def test_every_scheme_every_truncation_detected(self, packs):
        for name, pack in packs.items():
            rng = random.Random(hash(name) & 0xFFF)
            cuts = {rng.randrange(1, len(pack))
                    for _ in range(TRUNCATIONS_PER_PACK)}
            cuts |= {1, 2, len(pack) - 1, len(pack) // 2}
            for keep in sorted(cuts):
                with pytest.raises(ShardCodecError):
                    verify_pack(pack[:keep])

    def test_appended_garbage_detected(self, packs):
        """Extra trailing bytes shift nothing structurally — only the
        payload bounds check can see them."""
        pack = packs["tz2"]
        with pytest.raises(ShardCodecError):
            verify_pack(pack + b"\x00garbage")


class TestDecodersRaiseOnlyCodecErrors:
    """Seeded fuzz over the value and payload decoders themselves (no
    CRC in front): random and mutated bytes either decode or raise
    :class:`ShardCodecError` — never ``UnicodeDecodeError``,
    ``TypeError``, ``RecursionError`` or any other bare error."""

    CASES = 3000

    def _corpus(self, packs):
        """Real payloads of every scheme plus small tagged values."""
        corpus = [
            bytes(memoryview(pack)[off:off + length])
            for pack in packs.values()
            for _, off, length in list(iter_pack_entries(pack))[:8]
        ]
        corpus += [
            b"\x05\x03abc", bytes.fromhex("08020300060203000501780000"),
            b"\x06\x02\x04" + bytes(8) + b"\x07\x01\x00",
        ]
        return corpus

    def _mutate(self, rng, blob):
        out = bytearray(blob)
        for _ in range(rng.randrange(1, 4)):
            op = rng.randrange(4)
            pos = rng.randrange(len(out) + 1)
            if op == 0 and out:  # overwrite a byte (often with a tag)
                out[min(pos, len(out) - 1)] = rng.choice(
                    [rng.randrange(256), *range(9), 0xFF, 0xFE, 0x80]
                )
            elif op == 1:  # insert tag-ish bytes
                out[pos:pos] = bytes(
                    rng.choice([0, 5, 6, 7, 8, 0xFF, 0x80])
                    for _ in range(rng.randrange(1, 4))
                )
            elif op == 2:  # delete a run
                del out[pos:pos + rng.randrange(1, 4)]
            else:  # truncate
                del out[pos:]
        return bytes(out)

    def _decoders(self):
        from repro import native

        decoders = [decode_value, decode_node_table]
        if native.try_kernels() is not None:
            decoders.append(decode_node_table_fast)
        return decoders

    def test_random_and_mutated_bytes(self, packs, monkeypatch):
        from repro.graph import shortest_paths as sp

        monkeypatch.setenv("REPRO_KERNEL", "auto")
        sp.reset_kernel_choice()
        rng = random.Random(4242)
        corpus = self._corpus(packs)
        decoders = self._decoders()
        outcomes = {"decoded": 0, "refused": 0}
        for case in range(self.CASES):
            if case % 3 == 0:
                blob = bytes(
                    rng.randrange(256) for _ in range(rng.randrange(1, 40))
                )
                if rng.random() < 0.5:
                    blob = b"RT\x01" + blob
            else:
                blob = self._mutate(rng, rng.choice(corpus))
            for decode in decoders:
                try:
                    decode(blob)
                    outcomes["decoded"] += 1
                except ShardCodecError:
                    outcomes["refused"] += 1
        # the corpus reaches both outcomes
        assert min(outcomes.values()) > 100, outcomes


class TestStoreRefusesCorruptBytes:
    """The serving-path half: a store over a flipped pack never hands
    corrupt bytes to the decoder."""

    def test_payload_flip_raises_on_affected_vertex(self, packs, tmp_path):
        import json
        import os

        from repro.routing.serving import (
            ShardStore, ServingError, ShardIntegrityError,
        )

        pack = bytearray(packs["tz2"])
        entries = list(iter_pack_entries(bytes(pack)))
        victim, off, length = entries[len(entries) // 2]
        pack[off + length // 2] ^= 0x10

        root = tmp_path / "store"
        os.makedirs(root / "groups")
        (root / "groups" / "0000.pack").write_bytes(bytes(pack))
        (root / "manifest.json").write_text(json.dumps({
            "format": "repro.routing.shards", "version": 3,
            "layout": "packed", "group_size": 4096, "checksums": True,
            "replicas": 1, "n": N, "codec": 1,
            "spec": "tz2", "scheme": "TZUniversalScheme",
            "name": "fuzz", "seed": 0, "params": {},
            "routing_params": {},
        }))
        store = ShardStore(str(root))
        with pytest.raises(ShardIntegrityError, match="CRC32"):
            store.node(victim)
        assert store.checksum_failures == 1
        # the typed error is also a ServingError for degraded-mode
        # handlers and a ShardCodecError for legacy ones
        assert issubclass(ShardIntegrityError, ServingError)
        # healthy vertices in the same group still serve after the
        # quarantined mapping is re-mapped
        other = entries[0][0]
        if other != victim:
            assert store.node(other).owner == other
        store.close()
