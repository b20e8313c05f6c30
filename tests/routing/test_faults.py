"""Chaos suite: serving under injected disk faults.

The fault-tolerance acceptance gate (ISSUE 6): with ``replicas=2`` and a
seeded fault schedule injecting every fault kind on >= 1% of reads,

* every route completes with hop decisions **identical** to the
  fault-free run (the store fails over / retries under the router,
  invisibly to the routing layer),
* every injected corruption is **detected** — zero corrupted tables are
  silently decoded; each non-transient fault produces exactly one
  observable failover, so the counters reconcile with the schedule,
* ``serve_stats()`` / ``health()`` expose what happened, and
  ``repair()`` restores full redundancy from the healthy copies.

The injector is deterministic (seeded) and bounded (at most one fault
per group file), which is what turns "chaos" into exact assertions: see
:mod:`repro.routing.faults`.
"""

import os
import shutil

import pytest

from repro.api import build, load
from repro.eval.workloads import sample_pairs
from repro.graph.generators import erdos_renyi, with_random_weights
from repro.routing.faults import FAULT_KINDS, FaultInjector, TransientIOError
from repro.routing.serving import (
    LocalRouter,
    ReplicaExhaustedError,
    ShardStore,
    ShardIntegrityError,
    open_store,
    write_shards,
)
from repro.routing.simulator import route

N = 220
#: small groups: n=220 spans ~28 group files, so a per-file fault
#: schedule has real surface to hit
GROUP_SIZE = 8
PAIRS = 40
SCHEME = "tz2"


@pytest.fixture(scope="module")
def session():
    g = with_random_weights(erdos_renyi(N, 7.0 / (N - 1), seed=17), seed=18)
    return build(SCHEME, g, seed=6)


@pytest.fixture(scope="module")
def replicated(session, tmp_path_factory):
    """A replicas=2 checksummed shard dir, written once per module."""
    path = str(tmp_path_factory.mktemp("chaos") / "replicated")
    write_shards(
        session.scheme, path,
        spec_name="tz2", params={}, seed=6,
        packed=True, group_size=GROUP_SIZE, replicas=2,
    )
    return path


@pytest.fixture(scope="module")
def baseline(session):
    """Fault-free hop decisions for the chaos workload."""
    pairs = sample_pairs(N, PAIRS, seed=23)
    return {
        (s, t): route(session.scheme, s, t).path for s, t in pairs
    }


def _fresh_copy(replicated, tmp_path, name="copy"):
    target = tmp_path / name
    shutil.copytree(replicated, target)
    return str(target)


class TestFaultInjector:
    def test_deterministic_schedule(self, replicated):
        """Same seed + same access sequence => identical fault events."""
        def events(seed):
            inj = FaultInjector(seed=seed, rates={"bitflip": 0.5})
            store = ShardStore(replicated, io=inj)
            for v in range(0, N, GROUP_SIZE):
                store.node(v)
            store.close()
            return [(e["kind"], e["path"]) for e in inj.events]

        assert events(3) == events(3)
        assert events(3) != events(4)  # and the seed actually matters

    def test_at_most_one_fault_per_group_file(self, replicated):
        inj = FaultInjector(seed=1, rates={"missing": 1.0})
        store = ShardStore(replicated, io=inj)
        for v in range(0, N, GROUP_SIZE):
            store.node(v)
            store.node(v)  # second touch: resident, no IO at all
        store.close()
        basenames = [os.path.basename(e["path"]) for e in inj.events]
        assert len(basenames) == len(set(basenames))
        # rate 1.0: every group's first map faulted, failover served it
        assert len(basenames) == (N + GROUP_SIZE - 1) // GROUP_SIZE

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kinds"):
            FaultInjector(rates={"gremlins": 0.5})

    def test_transient_raises_eio_once(self, replicated, tmp_path):
        import errno

        inj = FaultInjector(seed=2, rates={"transient": 1.0})
        path = os.path.join(replicated, "replica", "0", "groups",
                            "0000.pack")
        with pytest.raises(TransientIOError) as info:
            inj.map_group(path)
        assert info.value.errno == errno.EIO
        # retry (same basename, now protected) succeeds
        view = inj.map_group(path)
        assert len(view) > 0
        inj.close()


class TestChaosGate:
    """The acceptance gate: >= 1% faults, all kinds, exact reconciliation."""

    RATES = {kind: 0.05 for kind in FAULT_KINDS}

    def _chaos_run(self, replicated, seed):
        inj = FaultInjector(seed=seed, rates=self.RATES)
        store = ShardStore(replicated, io=inj)
        return inj, store, LocalRouter(store)

    def test_routes_identical_under_faults(self, replicated, baseline):
        inj, store, router = self._chaos_run(replicated, seed=9)
        for (s, t), path in baseline.items():
            assert route(router, s, t).path == path, (s, t)
        counts = inj.fault_counts()
        assert sum(counts.values()) >= 3, counts  # the schedule fired
        store.close()

    def test_counters_reconcile_with_schedule(self, replicated, baseline):
        inj, store, router = self._chaos_run(replicated, seed=9)
        for (s, t), _ in baseline.items():
            route(router, s, t)
        counts = inj.fault_counts()
        corruptions = (
            counts["missing"] + counts["truncate"] + counts["bitflip"]
        )
        # every non-transient fault => exactly one failover (detection),
        # every transient => exactly one successful retry, and each
        # failover quarantined exactly one replica copy
        assert store.failovers == corruptions
        assert store.retries == counts["transient"]
        assert store.stats()["quarantined"] == corruptions
        assert store.repairs == 0
        health = store.health()
        if sum(counts.values()):
            assert health["status"] == "degraded"
        store.close()

    def test_every_fault_kind_fires_across_seeds(self, replicated, baseline):
        """The gate covers all four kinds (across a few seeds, since one
        seeded schedule need not draw every kind)."""
        seen = {kind: 0 for kind in FAULT_KINDS}
        for seed in (9, 10, 11, 12):
            inj, store, router = self._chaos_run(replicated, seed=seed)
            for (s, t), path in baseline.items():
                assert route(router, s, t).path == path, (seed, s, t)
            for kind, count in inj.fault_counts().items():
                seen[kind] += count
            store.close()
        assert all(count > 0 for count in seen.values()), seen

    def test_serve_stats_surface_fault_counters(self, replicated, baseline):
        inj, store, router = self._chaos_run(replicated, seed=9)
        for (s, t), _ in baseline.items():
            route(router, s, t)
        stats = store.stats()
        for key in ("retries", "checksum_failures", "failovers",
                    "repairs", "quarantined"):
            assert key in stats
        assert stats["failovers"] == store.failovers
        store.close()


class TestQuarantineRepair:
    def _corrupt(self, root, group, replica, flip=-3):
        path = os.path.join(
            root, "replica", str(replica), "groups", f"{group:04x}.pack"
        )
        with open(path, "rb") as fh:
            buf = bytearray(fh.read())
        buf[flip] ^= 0x20
        with open(path, "wb") as fh:
            fh.write(bytes(buf))
        return path

    def test_on_disk_corruption_fails_over_and_repairs(
        self, replicated, baseline, tmp_path
    ):
        root = _fresh_copy(replicated, tmp_path)
        # group 0 / replica 0: on the serving path => observed failover;
        # group 2 / replica 1: dormant (replica 0 serves it) => only the
        # verify/repair sweep can see it
        self._corrupt(root, 0, 0)
        self._corrupt(root, 2, 1)
        store = open_store(root)
        assert isinstance(store, ShardStore)
        router = LocalRouter(store)
        for (s, t), path in baseline.items():
            assert route(router, s, t).path == path, (s, t)
        assert store.failovers == 1
        assert store.quarantined() == {0: (0,)}
        report = store.verify_report()
        bad = sorted(k for k, v in report.items() if v != "ok")
        assert bad == ["group 0000 replica 0", "group 0002 replica 1"]
        out = store.repair()
        assert out["repaired"] == 2
        assert store.quarantined() == {}
        # the rewritten copies verify end to end
        assert store.verify() == (N + GROUP_SIZE - 1) // GROUP_SIZE
        # and the store keeps serving correctly after repair
        for (s, t), path in list(baseline.items())[:5]:
            assert route(router, s, t).path == path
        store.close()

    def test_missing_replica_file_repaired(self, replicated, baseline,
                                           tmp_path):
        root = _fresh_copy(replicated, tmp_path)
        victim = os.path.join(root, "replica", "1", "groups", "0001.pack")
        os.remove(victim)
        store = open_store(root)
        with pytest.raises(Exception):
            store.verify()  # the sweep sees the hole
        assert store.repair()["repaired"] == 1
        assert os.path.exists(victim)
        assert store.verify() == (N + GROUP_SIZE - 1) // GROUP_SIZE
        store.close()

    def test_transient_quarantine_is_requalified(self, replicated,
                                                 baseline, tmp_path):
        """A replica quarantined for a *transient* reason (injected
        missing file — healthy on disk) is requalified, not rewritten."""
        root = _fresh_copy(replicated, tmp_path)
        inj = FaultInjector(seed=1, rates={"missing": 1.0})
        store = ShardStore(root, io=inj)
        store.node(0)  # replica 0 of group 0 faults, replica 1 serves
        assert store.quarantined() == {0: (1,)} or store.quarantined() == {
            0: (0,)
        }
        out = store.repair()
        assert out == {"repaired": 0, "requalified": 1}
        assert store.quarantined() == {}
        store.close()

    def test_all_replicas_bad_raises_with_causes(self, replicated,
                                                 baseline, tmp_path):
        root = _fresh_copy(replicated, tmp_path)
        self._corrupt(root, 1, 0)
        self._corrupt(root, 1, 1)
        store = open_store(root)
        with pytest.raises(ReplicaExhaustedError) as info:
            store.node(GROUP_SIZE)  # first vertex of group 1
        assert set(info.value.causes) == {0, 1}
        with pytest.raises(ReplicaExhaustedError):
            store.repair()  # nothing healthy to repair group 1 from
        store.close()

    def test_routes_outside_damaged_group_unaffected(
        self, replicated, session, tmp_path
    ):
        root = _fresh_copy(replicated, tmp_path)
        self._corrupt(root, 3, 0)
        self._corrupt(root, 3, 1)
        store = open_store(root)
        router = LocalRouter(store)
        # a pair whose route never enters group 3 still serves
        for s, t in sample_pairs(N, 30, seed=29):
            expected = route(session.scheme, s, t).path
            if any(v // GROUP_SIZE == 3 for v in expected):
                continue
            try:
                assert route(router, s, t).path == expected
            except ReplicaExhaustedError:
                # legitimate: the scheme consulted a group-3 vertex's
                # table mid-route even though the path avoids it
                continue
        store.close()


class TestDegradedObservability:
    def test_session_health_and_degraded_status(self, replicated,
                                                baseline, tmp_path):
        root = _fresh_copy(replicated, tmp_path)
        served = load(root)
        assert served.health()["status"] == "ok"
        # a fault-free pass is clean: no failover, no retry
        for (s, t), expected in baseline.items():
            assert served.route(s, t).path == expected
        health = served.health()
        assert health["status"] == "ok"
        assert health["failovers"] == 0 and health["retries"] == 0
        served.scheme.store.close()

        # corrupt a copy, reload: still serves, reports degraded
        path = os.path.join(root, "replica", "0", "groups", "0000.pack")
        with open(path, "rb") as fh:
            buf = bytearray(fh.read())
        buf[-1] ^= 0x01
        with open(path, "wb") as fh:
            fh.write(bytes(buf))
        served = load(root)
        for (s, t), expected in baseline.items():
            assert served.route(s, t).path == expected
        health = served.health()
        assert health["status"] == "degraded"
        assert health["failovers"] == 1
        assert health["quarantined"] == 1
        stats = served.serve_stats()
        assert stats["failovers"] == 1
        served.scheme.store.close()

    def test_in_memory_session_has_no_health(self, session):
        assert session.health() is None

    def test_integrity_error_is_typed_and_catchable(self, replicated,
                                                    tmp_path):
        """ShardIntegrityError keeps the legacy ShardCodecError contract
        while being a ServingError — both handler styles work."""
        from repro.routing.serving import ServingError
        from repro.routing.shard_codec import ShardCodecError

        assert issubclass(ShardIntegrityError, ServingError)
        assert issubclass(ShardIntegrityError, ShardCodecError)
