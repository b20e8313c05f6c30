"""Routing-state persistence as packs: exact round trips, deployable tables.

Every vertex's routing state (table, label, port-ordered links) persists
as one binary shard inside a checksummed pack.  A table must survive the
shard codec word for word, and a scheme's tables and labels read back
from its packs must route exactly as the built ones.
"""

import pytest

from repro.graph.generators import erdos_renyi, with_random_weights
from repro.graph.metric import MetricView
from repro.routing.model import SizedTable
from repro.routing.serving import ShardStore, write_shards
from repro.routing.shard_codec import decode_node_table, encode_node_table
from repro.routing.simulator import route
from repro.routing.tables import NodeTable
from repro.schemes import Stretch5PlusScheme, Warmup3Scheme


def _through_shard(table):
    """``table`` encoded into a shard and decoded back."""
    record = NodeTable(
        owner=table.owner,
        neighbors=(),
        label=None,
        categories={
            cat: dict(table.category(cat)) for cat in table.categories()
        },
    )
    return decode_node_table(encode_node_table(record)).sized_table()


def _packed_records(scheme, path, spec_name):
    """Every record of ``scheme`` after a write to packs and a read back."""
    write_shards(scheme, str(path), spec_name=spec_name)
    store = ShardStore(str(path))
    try:
        return list(store.iter_nodes())
    finally:
        store.close()


class TestTableRoundTrip:
    def test_exact_words_preserved(self):
        table = SizedTable(7)
        table.put("ball", 3, 2)
        table.put("seq", 12, ((1, 2, 3), None))
        table.put("const", "hash_seed", 99)
        table.put("xsect", (1, 2), 5)
        rebuilt = _through_shard(table)
        assert rebuilt.owner == 7
        assert rebuilt.words_by_category() == table.words_by_category()
        assert rebuilt.get("seq", 12) == ((1, 2, 3), None)
        assert rebuilt.get("xsect", (1, 2)) == 5

    def test_empty_table(self):
        rebuilt = _through_shard(SizedTable(0))
        assert rebuilt.total_words() == 0


class TestSchemeRoundTrip:
    @pytest.fixture(scope="class")
    def scheme(self):
        g = with_random_weights(erdos_renyi(60, 0.09, seed=701), seed=702)
        return Warmup3Scheme(g, eps=0.5, metric=MetricView(g), seed=3)

    @pytest.fixture(scope="class")
    def records(self, scheme, tmp_path_factory):
        path = tmp_path_factory.mktemp("warmup3") / "packs"
        return _packed_records(scheme, path, "warmup3")

    def test_state_survives_packs(self, scheme, records):
        assert [r.owner for r in records] == list(range(60))
        assert records == scheme.compile_tables()  # exactly what was written
        for v, record in enumerate(records):
            assert record.label == scheme.label_of(v)
            assert (
                record.sized_table().words_by_category()
                == scheme.table_of(v).words_by_category()
            )

    def test_deployed_tables_route_identically(self, scheme, records):
        """Swap the scheme's tables for ones read back from its packs;
        routes and lengths must be identical — the state is
        self-contained."""
        reference = [route(scheme, s, t).path for s, t in [(0, 41), (5, 59)]]
        original = scheme._tables
        scheme._tables = [r.sized_table() for r in records]
        try:
            replayed = [route(scheme, s, t).path for s, t in [(0, 41), (5, 59)]]
        finally:
            scheme._tables = original
        assert replayed == reference

    def test_thm11_state_round_trips(self, tmp_path):
        g = with_random_weights(erdos_renyi(50, 0.1, seed=703), seed=704)
        scheme = Stretch5PlusScheme(g, eps=0.6, metric=MetricView(g), seed=4)
        records = _packed_records(scheme, tmp_path / "packs", "thm11")
        total_original = sum(
            scheme.table_of(v).total_words() for v in range(50)
        )
        total_rebuilt = sum(r.table_words() for r in records)
        assert total_rebuilt == total_original
