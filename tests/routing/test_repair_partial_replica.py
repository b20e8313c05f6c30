"""Partially-written replica dirs surface typed, and repair() heals them.

The bugfix under test: a ``replica/<r>`` root whose ``groups/`` subdir
is missing (an interrupted ``write_shards`` or botched rsync) used to
surface as a raw ``FileNotFoundError``/``OSError`` from deep inside the
store.  It must instead surface as
:class:`~repro.routing.serving.ShardUnavailableError` *naming the
replica* — from ``repair()``'s per-copy causes, from serving-time
failover, and from cluster-worker startup (covered in
``tests/cluster``).
"""

import os
import shutil

import pytest

from repro.api import SubstrateCache, build
from repro.graph.generators import erdos_renyi, with_random_weights
from repro.routing.serving import (
    ReplicaExhaustedError,
    ShardStore,
    ShardUnavailableError,
    write_shards,
)

N = 120
GROUP_SIZE = 16


@pytest.fixture(scope="module")
def replicated_dir(tmp_path_factory):
    g = with_random_weights(
        erdos_renyi(N, 7.0 / (N - 1), seed=17), seed=18, low=1.0, high=8.0
    )
    session = build("tz2", g, cache=SubstrateCache(), seed=6)
    path = str(tmp_path_factory.mktemp("repair") / "shards")
    write_shards(
        session.scheme, path,
        spec_name=session.spec_name, params=session.params,
        seed=session.seed, packed=True, group_size=GROUP_SIZE,
        replicas=2,
    )
    return path


@pytest.fixture()
def broken_copy(replicated_dir, tmp_path):
    """A copy of the replicated layout to break per-test."""
    dst = str(tmp_path / "copy")
    shutil.copytree(replicated_dir, dst)
    return dst


def _groups_dir(root, r):
    return os.path.join(root, "replica", str(r), "groups")


def test_repair_rebuilds_partially_written_replica(broken_copy):
    shutil.rmtree(_groups_dir(broken_copy, 1))
    store = ShardStore(broken_copy)
    try:
        counters = store.repair()
        assert counters["repaired"] == store.group_count()
        assert os.path.isdir(_groups_dir(broken_copy, 1))
        # the rebuilt replica is byte-for-byte servable
        assert store.verify() == store.group_count()
    finally:
        store.close()


def test_repair_names_the_partial_replica_when_no_copy_survives(
    broken_copy,
):
    shutil.rmtree(_groups_dir(broken_copy, 0))
    shutil.rmtree(_groups_dir(broken_copy, 1))
    store = ShardStore(broken_copy)
    try:
        with pytest.raises(ReplicaExhaustedError) as err:
            store.repair()
        causes = err.value.causes
        assert set(causes) == {0, 1}
        for r, cause in causes.items():
            # the typed, replica-named translation — not a raw OSError
            assert isinstance(cause, ShardUnavailableError)
            assert f"replica {r}" in str(cause)
            assert "partially written" in str(cause)
            assert "groups/ directory is missing" in str(cause)
    finally:
        store.close()


def test_serving_reads_fail_over_past_partial_replica(broken_copy):
    shutil.rmtree(_groups_dir(broken_copy, 0))
    store = ShardStore(broken_copy)
    try:
        # copy 0 is partially written; every read lands on copy 1
        table = store.node(0)
        assert table is not None
        assert store.stats()["failovers"] >= 1
    finally:
        store.close()
