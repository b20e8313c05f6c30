"""Worker-driven routing: the peer ledger and the per-worker step lock.

Workers forward packets to each other while driving ROUTE frames.  Each
worker's STATUS counts the FORWARDs its pumps sent, per target
(``peer_rpcs``), and the FORWARDs its peers sent it
(``peer_requests``); the client's requests stay under ``requests``.
Summed over the fleet, what each worker was sent equals what its peers
say they sent it, and ``requests`` still equals the client's own
per-worker RPC count.

A worker steps its own packets and answers its peers' FORWARDs on
different threads, so its store is shared between them.  Several
clients routing at once through an in-process fleet must still get the
single-process routes and store counters: a lost ``hits`` update or a
record loaded twice would show in the sums.
"""

import sys
import threading

import pytest

from repro.api import SubstrateCache, build
from repro.cluster import ClusterRouter, Placement, start_cluster
from repro.cluster.worker import WorkerServer, build_worker_store
from repro.eval.workloads import sample_pairs
from repro.graph.generators import erdos_renyi, with_random_weights
from repro.routing.serving import LocalRouter, open_store, write_shards
from repro.routing.simulator import route as sim_route

N = 160
GROUP_SIZE = 16
WORKERS = 3


@pytest.fixture(scope="module")
def shards(tmp_path_factory):
    g = with_random_weights(
        erdos_renyi(N, 6.0 / (N - 1), seed=23), seed=24, low=1.0, high=8.0
    )
    session = build("tz2", g, cache=SubstrateCache(), seed=2)
    path = str(tmp_path_factory.mktemp("peer-ledger") / "shards")
    write_shards(
        session.scheme, path,
        spec_name=session.spec_name, params=session.params,
        seed=session.seed, group_size=GROUP_SIZE, replicas=2,
    )
    return path


def test_peer_rpcs_sent_equal_peer_requests_received(shards):
    pairs = sample_pairs(N, 40, seed=5)
    with start_cluster(shards, workers=WORKERS) as handle:
        with handle.router() as router:
            results = router.route_batch(pairs, batch_size=8)
            assert all(r.delivered for r in results)
            stats = router.cluster_stats()
    per_worker = stats["per_worker"]
    received_total = 0
    for v in range(WORKERS):
        sent_to_v = sum(
            per_worker[w]["peer_rpcs"].get(v, 0) for w in range(WORKERS)
        )
        received = per_worker[v]["peer_requests"].get("FORWARD", 0)
        assert sent_to_v == received, f"worker {v} peer ledger"
        assert per_worker[v]["peer_rpcs"].get(v, 0) == 0  # never itself
        # the client speaks LABEL, ROUTE and STATUS, never FORWARD
        assert "FORWARD" not in per_worker[v]["requests"]
        assert sum(per_worker[v]["requests"].values()) == (
            stats["rpcs_by_worker"][v]
        )
        received_total += received
    assert received_total > 0  # routes really crossed between workers
    assert stats["peer_rpcs"] == received_total
    assert stats["failovers"] == 0


def test_concurrent_clients_share_a_fleet(shards):
    """More client threads than cores, a shortened switch interval:
    every client gets the single-process routes, and the fleet's store
    counters equal a single store's over the same routes."""
    clients, passes = 4, 3
    pairs = sample_pairs(N, 24, seed=9)
    store = open_store(shards)
    single = LocalRouter(store)
    for _ in range(clients * passes):
        reference = [sim_route(single, s, t) for s, t in pairs]
    expected = store.stats()
    store.close()

    placement = Placement(n=N, group_size=GROUP_SIZE, workers=2, replicas=2)
    stores = [
        build_worker_store(shards, placement.assignment(w)) for w in (0, 1)
    ]
    servers = [
        WorkerServer(
            ("127.0.0.1", 0), worker_id=w, store=stores[w],
            engine=LocalRouter(stores[w]), placement=placement,
        )
        for w in (0, 1)
    ]
    addresses = {w: servers[w].server_address for w in (0, 1)}
    serving = []
    for server in servers:
        server.set_peers(addresses)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        serving.append(thread)
    got = {}

    def client(c):
        with ClusterRouter(addresses, placement, timeout_s=30.0) as router:
            got[c] = [
                router.route_batch(pairs, batch_size=8)
                for _ in range(passes)
            ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=client, args=(c,)) for c in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        for server, thread in zip(servers, serving):
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
    totals = {
        key: sum(s.stats()[key] for s in stores)
        for key in ("loads", "hits", "bytes_read")
    }
    for s in stores:
        s.close()
    assert sorted(got) == list(range(clients))
    for runs in got.values():
        for results in runs:
            assert [(r.path, r.length) for r in results] == [
                (r.path, r.length) for r in reference
            ]
    for key, total in totals.items():
        assert total == expected[key], key
