"""Cluster serving acceptance: the multi-process fleet is
indistinguishable from the single-process serving stack.

For EVERY registered scheme on a seeded n >= 200 graph, a 4-worker
fleet with 2 replicas over the same packed shard directory must:

* produce **hop-identical** :class:`RouteResult`\\ s — same paths, same
  float lengths (weights re-summed hop by hop in simulator order), same
  header-word and phase accounting — as the single-process
  ``LocalRouter`` loop,
* account **identical serve counters** — the per-worker store counters
  summed across the fleet equal the single store's (loads, hits, bytes
  read), and likewise the header accounting,
* raise the **same typed errors with the same messages** when a route
  exhausts its hop budget,
* survive a **SIGKILL of a worker mid-batch**: every route still
  completes identically via replica failover, and the client's
  per-worker RPC ledger reconciles exactly against the surviving
  workers' own request counters.
"""

import os
import shutil

import pytest

from repro.api import SubstrateCache, build, get_spec, scheme_names
from repro.cluster import Placement, start_cluster
from repro.cluster.wire import NotOwnerError, WorkerUnavailableError
from repro.cluster.worker import build_worker_store
from repro.eval.workloads import sample_pairs
from repro.graph.generators import erdos_renyi, with_random_weights
from repro.routing.serving import (
    LocalRouter,
    ShardUnavailableError,
    open_store,
    write_shards,
)
from repro.routing.simulator import RoutingLoopError, route as sim_route

N = 220
GROUP_SIZE = 16  # n=220 spans 14 groups — every worker owns several
WORKERS = 4
REPLICAS = 2
PAIRS = 20

#: store counters that must sum exactly across the fleet
STORE_KEYS = ("loads", "hits", "bytes_read", "retries",
              "checksum_failures", "failovers", "repairs")


@pytest.fixture(scope="module")
def graphs():
    gu = erdos_renyi(N, 7.0 / (N - 1), seed=17)
    gw = with_random_weights(gu, seed=18, low=1.0, high=8.0)
    return {"unweighted": gu, "weighted": gw}


@pytest.fixture(scope="module")
def caches():
    return {"unweighted": SubstrateCache(), "weighted": SubstrateCache()}


@pytest.fixture(scope="module")
def shard_root(tmp_path_factory):
    return tmp_path_factory.mktemp("cluster-shards")


@pytest.fixture(scope="module")
def served(graphs, caches, shard_root):
    """A replicated packed shard dir per scheme (the cluster layout)."""
    out = {}
    for name in scheme_names():
        spec = get_spec(name)
        kind = "weighted" if spec.weighted_capable else "unweighted"
        session = build(name, graphs[kind], cache=caches[kind], seed=6)
        path = str(shard_root / name)
        write_shards(
            session.scheme, path,
            spec_name=session.spec_name, params=session.params,
            seed=session.seed, packed=True, group_size=GROUP_SIZE,
            replicas=REPLICAS,
        )
        out[name] = path
    return out


@pytest.fixture(scope="module")
def workload():
    return sample_pairs(N, PAIRS, seed=101)


@pytest.fixture(scope="module")
def reference(served, workload):
    """Single-process ground truth: routes + final serve counters."""
    out = {}
    for name, path in served.items():
        store = open_store(path)
        router = LocalRouter(store)
        results = [sim_route(router, s, t) for s, t in workload]
        out[name] = (results, store.stats(), router.header_stats())
        store.close()
    return out


@pytest.mark.parametrize("name", scheme_names())
def test_cluster_routes_and_counters_match_single_process(
    name, served, reference, workload
):
    ref_results, ref_store, ref_header = reference[name]
    with start_cluster(served[name], workers=WORKERS) as handle:
        with handle.router() as router:
            got = router.route_batch(list(workload))
            assert len(got) == len(ref_results)
            for ref, res in zip(ref_results, got):
                assert res.path == ref.path
                assert res.length == ref.length  # bit-identical float
                assert res.hops == ref.hops
                assert res.max_header_words == ref.max_header_words
                assert res.phase_hops == ref.phase_hops
                assert res.delivered
            stats = router.cluster_stats()
            for key in STORE_KEYS:
                assert stats["store"][key] == ref_store[key], key
            for key in ("headers_encoded", "header_bytes",
                        "max_header_bytes"):
                assert stats["header"][key] == ref_header[key], key
            assert stats["failovers"] == 0
            assert stats["routes"] == len(workload)
            assert stats["total_hops"] == sum(r.hops for r in ref_results)
            health = router.health()
            assert health["status"] == "ok"
            assert health["serving"] is True


def test_loop_budget_error_message_matches_simulator(served, workload):
    path = served["tz2"]
    # a pair the scheme needs more than one hop for
    store = open_store(path)
    try:
        single = LocalRouter(store)
        pair = next(
            (s, t) for s, t in workload
            if sim_route(single, s, t).hops > 1
        )
        with pytest.raises(RoutingLoopError) as single_err:
            sim_route(LocalRouter(store), pair[0], pair[1], max_hops=1)
    finally:
        store.close()
    with start_cluster(path, workers=WORKERS) as handle:
        with handle.router() as router:
            with pytest.raises(RoutingLoopError) as cluster_err:
                router.route(pair[0], pair[1], max_hops=1)
    assert str(cluster_err.value) == str(single_err.value)
    assert (
        cluster_err.value.result.path == single_err.value.result.path
    )


def test_kill_a_worker_mid_batch(served, reference, workload):
    """SIGKILL one worker while a batch is in flight: every route still
    completes hop-identically via replica failover, and the counters
    reconcile exactly."""
    name = "tz2"
    ref_results, _, _ = reference[name]
    victim = 1
    with start_cluster(served[name], workers=WORKERS) as handle:
        with handle.router() as router:
            killed = []

            def chaos(index, result):
                if len(killed) == 0 and index >= len(workload) // 4:
                    handle.kill_worker(victim)
                    killed.append(victim)

            got = router.route_batch(
                list(workload), on_route_done=chaos, batch_size=4
            )
            assert killed == [victim]
            # 1) every route survived, hop-identical to fault-free
            assert len(got) == len(ref_results)
            for ref, res in zip(ref_results, got):
                assert res.path == ref.path
                assert res.length == ref.length
                assert res.phase_hops == ref.phase_hops
            # 2) the loss was observed and failed over
            assert victim in router.dead_workers
            assert router.failovers >= 1
            stats = router.cluster_stats()
            assert stats["per_worker"][victim] is None
            # 3) client/worker ledgers reconcile exactly: each
            # surviving worker served precisely the requests the
            # client accounted to it
            for w in range(WORKERS):
                status = stats["per_worker"][w]
                if status is None:
                    assert w == victim
                    continue
                assert sum(status["requests"].values()) == (
                    router.rpcs_by_worker.get(w, 0)
                ), f"worker {w} ledger mismatch"
            health = router.health()
            assert health["status"] == "degraded"
            assert health["serving"] is True  # every group still owned
        assert victim not in handle.alive()


def test_worker_store_is_restricted_to_its_assignment(served):
    path = served["tz2"]
    placement = Placement(
        n=N, group_size=GROUP_SIZE, workers=WORKERS, replicas=REPLICAS
    )
    assignment = placement.assignment(0)
    store = build_worker_store(path, assignment)
    try:
        owned = set(store.owned_groups())
        assert owned == set(assignment)
        inside = next(
            v for v in range(N) if v // GROUP_SIZE in owned
        )
        outside = next(
            v for v in range(N) if v // GROUP_SIZE not in owned
        )
        assert store.owns(inside) and not store.owns(outside)
        store.node(inside)  # serves its own groups
        with pytest.raises(ShardUnavailableError, match="owner"):
            store.node(outside)  # refuses, pointing at the owner
    finally:
        store.close()


def test_partially_written_replica_fails_worker_startup_typed(
    served, tmp_path
):
    """The satellite-6 bugfix, startup half: a replica root missing its
    groups/ subdir surfaces as ShardUnavailableError naming the
    replica — not a raw OSError — and fails start_cluster typed."""
    broken = str(tmp_path / "broken")
    shutil.copytree(served["tz2"], broken)
    shutil.rmtree(os.path.join(broken, "replica", "1", "groups"))
    with pytest.raises(ShardUnavailableError) as err:
        start_cluster(broken, workers=WORKERS)
    message = str(err.value)
    assert "replica 1" in message
    assert "partially written" in message
    assert "repair()" in message


def test_unreachable_worker_address_is_typed(served):
    placement = Placement(
        n=N, group_size=GROUP_SIZE, workers=1, replicas=1
    )
    from repro.cluster import ClusterRouter

    router = ClusterRouter(
        {0: ("127.0.0.1", 1)},  # port 1: nothing listens there
        placement,
        timeout_s=2.0,
    )
    with router:
        with pytest.raises(WorkerUnavailableError, match="worker 0"):
            router.worker_status(0)


def test_misrouted_request_is_not_owner_error(served):
    """A worker asked about a vertex outside its assignment answers
    NotOwnerError — a placement bug signal, not a data fault."""
    path = served["tz2"]
    with start_cluster(path, workers=WORKERS) as handle:
        with handle.router() as router:
            placement = handle.placement
            # find a vertex whose owner chain excludes worker 0
            outside = next(
                v for v in range(N)
                if 0 not in placement.owners(placement.group_of(v))
            )
            from repro.cluster.wire import MSG_LABEL

            with pytest.raises(NotOwnerError):
                router._request(0, MSG_LABEL, [outside])


#: FORWARD payloads the value codec must refuse with a typed error
MALFORMED_PAYLOADS = [
    bytes.fromhex("0801070000"),         # a list as a dict key
    b"\x05\x02\xff\xfe",                 # a string that is not UTF-8
    b"\x06\x01" * 1000 + b"\x00",        # nesting past the depth cap
]


def test_malformed_forward_gets_typed_error_and_connection_survives(
    served,
):
    """A FORWARD whose payload cannot be decoded is answered with a
    typed REPLY_ERROR and counted; the handler thread lives on, so a
    STATUS on the same socket still answers."""
    import socket

    from repro.cluster.wire import (
        MSG_FORWARD,
        MSG_STATUS,
        REPLY_ERROR,
        REPLY_OK,
        decode_error,
        recv_frame,
        send_frame,
    )
    from repro.routing.shard_codec import decode_value

    with start_cluster(served["tz2"], workers=REPLICAS) as handle:
        with socket.create_connection(
            handle.addresses[0], timeout=10
        ) as sock:
            for payload in MALFORMED_PAYLOADS:
                send_frame(sock, MSG_FORWARD, payload)
                msg, body = recv_frame(sock)
                assert msg == REPLY_ERROR
                assert decode_error(body)[0] == "ShardCodecError"
            send_frame(sock, MSG_STATUS, b"")
            msg, body = recv_frame(sock)
            assert msg == REPLY_OK
            status = decode_value(body)
            assert status["error_replies"] == len(MALFORMED_PAYLOADS)
            assert status["dropped_connections"] == 0
