"""Seeded dispatch fuzz: a worker answers every request or raises one of
the error types its connection handler turns into a typed REPLY_ERROR.

One restricted worker over a small thm11 pack gets LABEL, LOOKUP,
FORWARD and ROUTE payloads of three kinds — random bytes, random values
from a small grammar, and mutations of a valid request that replace one
envelope or packet field — straight through ``WorkerServer.dispatch``.
Its peer, the other half of a 2-worker placement, serves on a thread,
so a ROUTE that leaves the worker's groups is forwarded for real.
Any other exception would escape the handler and kill its thread.

The other direction is a peer's FORWARD reply: seeded mutations of a
valid columnar reply (wrong column types, ragged columns, hop counts
past the hop total, positions off the graph, phase indices out of
range, malformed error entries) reach ``RoutePump._apply``, which may
raise only ``WireProtocolError`` or the typed errors ``raise_remote``
re-raises.
"""

import random
import threading

import pytest

from repro.api import build
from repro.cluster import Placement
from repro.cluster.pump import ERROR, Packet, RoutePump, live_owner
from repro.cluster.wire import (
    MSG_FORWARD,
    MSG_LABEL,
    MSG_LOOKUP,
    MSG_ROUTE,
    ClusterError,
    RpcClient,
    WireProtocolError,
)
from repro.cluster.worker import WorkerServer, build_worker_store
from repro.graph.generators import erdos_renyi, with_random_weights
from repro.routing.serving import (
    LocalRouter,
    ServingError,
    open_store,
    write_shards,
)
from repro.routing.shard_codec import (
    ShardCodecError,
    decode_value,
    encode_value,
)

N = 80
GROUP_SIZE = 16
#: exactly what ``_RequestHandler.handle`` catches around ``dispatch``
HANDLED = (ServingError, ShardCodecError, ValueError)
CASES = 300


@pytest.fixture(scope="module")
def worker(tmp_path_factory):
    g = with_random_weights(
        erdos_renyi(N, 6.0 / (N - 1), seed=41), seed=42, low=1.0, high=8.0
    )
    session = build("thm11", g, seed=3)
    path = str(tmp_path_factory.mktemp("fuzz-shards") / "thm11")
    write_shards(
        session.scheme, path,
        spec_name=session.spec_name, params=session.params,
        seed=session.seed, group_size=GROUP_SIZE,
    )
    placement = Placement(n=N, group_size=GROUP_SIZE, workers=2, replicas=1)
    stores = [
        build_worker_store(path, placement.assignment(w)) for w in (0, 1)
    ]
    server, peer = (
        WorkerServer(
            ("127.0.0.1", 0), worker_id=w, store=stores[w],
            engine=LocalRouter(stores[w]), placement=placement,
        )
        for w in (0, 1)
    )
    addresses = {0: server.server_address, 1: peer.server_address}
    for s in (server, peer):
        s.set_peers(addresses)
    serving = threading.Thread(target=peer.serve_forever, daemon=True)
    serving.start()
    owned = sorted(stores[0].owned_groups())
    v = owned[0] * GROUP_SIZE
    far = N - 1  # in the peer's groups: its route crosses to the peer
    assert not stores[0].owns(far)
    full = open_store(path)  # the target may live outside this worker
    label = LocalRouter(full).label_of((v + 37) % N)
    far_label = LocalRouter(full).label_of(far)
    full.close()
    yield {
        "server": server,
        "peer": peer,
        "placement": placement,
        "store": stores[0],
        "drive": tuple(owned),
        "vertex": v,
        "label": label,
        "far": far,
        "far_label": far_label,
    }
    peer.shutdown()
    serving.join()
    for s in (server, peer):
        s.server_close()
    for store in stores:
        store.close()


def _value(rng, depth=0):
    """A random value from a small grammar the value codec can carry."""
    kind = rng.randrange(10 if depth < 3 else 6)
    if kind == 0:
        return rng.randint(-5, N + 5)
    if kind == 1:
        return rng.choice([-(2 ** 70), -1, 2 ** 31, 2 ** 64, 2 ** 70])
    if kind == 2:
        return rng.choice([0.0, -1.5, 3.25, 1e300, float("inf")])
    if kind == 3:
        return rng.choice(["", "t1", "ball", "tree", "junké"])
    if kind == 4:
        return None
    if kind == 5:
        return rng.random() < 0.5
    items = [_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 6:
        return items
    if kind == 7:
        return tuple(items)
    if kind == 8:
        return {rng.randint(-3, 9): item for item in items}
    return tuple([rng.randint(-2, N)] + items)


def _replace(value, path, replacement):
    if not path:
        return replacement
    items = list(value)
    items[path[0]] = _replace(items[path[0]], path[1:], replacement)
    return tuple(items) if isinstance(value, tuple) else items


def _requests(worker):
    """``{msg: (valid payload, the field paths a mutation may replace)}``;
    a path indexes into nested lists/tuples, ``()`` is the whole
    payload."""
    v, label = worker["vertex"], worker["label"]
    assert isinstance(label, tuple)
    packet = [(1, 0, i) for i in range(4)]
    leaves = [(1, 0, 2, i) for i in range(len(label))]
    route = [(0, i) for i in range(4)]
    route_leaves = [(0, 2, i) for i in range(len(worker["far_label"]))]
    return {
        MSG_ROUTE: (
            [(v, worker["far"], worker["far_label"], 60)],
            [(), (0,)] + route + route_leaves,
        ),
        MSG_FORWARD: (
            (worker["drive"], [(v, None, label, 60)]),
            [(), (0,), (1,), (0, 0), (1, 0)] + packet + leaves,
        ),
        MSG_LABEL: ([v, v + 1], [(), (0,), (1,)]),
        MSG_LOOKUP: (v, [()]),
    }


@pytest.mark.parametrize(
    "msg", [MSG_LABEL, MSG_LOOKUP, MSG_FORWARD, MSG_ROUTE],
    ids=["label", "lookup", "forward", "route"],
)
def test_dispatch_raises_only_handled_errors(worker, msg):
    server = worker["server"]
    valid, fields = _requests(worker)[msg]
    server.dispatch(msg, encode_value(valid))  # the unmutated request
    rng = random.Random(7919 + msg)
    for case in range(CASES):
        kind = case % 3
        if kind == 0:
            payload = rng.randbytes(rng.randrange(1, 48))
        elif kind == 1:
            payload = encode_value(_value(rng))
        else:
            path = rng.choice(fields)
            payload = encode_value(_replace(valid, path, _value(rng)))
        try:  # anything else escapes: `pytest -l` shows the payload
            server.dispatch(msg, payload)
        except HANDLED:
            pass


def test_unhashable_drive_group_is_a_protocol_error(worker):
    with pytest.raises(WireProtocolError, match="drive group"):
        worker["server"].dispatch(MSG_FORWARD, encode_value(([[0]], [])))


@pytest.mark.parametrize("header, junk_label", [
    (7, False),    # an int where the scheme reads a tuple header
    (None, True),  # a str where the scheme reads a label
], ids=["int-header", "str-label"])
def test_unreadable_packet_gets_a_per_packet_error(
    worker, header, junk_label
):
    v = worker["vertex"]
    label = "junk" if junk_label else worker["label"]
    payload = encode_value((worker["drive"], [(v, header, label, 5)]))
    reply = decode_value(worker["server"].dispatch(MSG_FORWARD, payload)[1])
    states, errors = reply[1], reply[10]
    assert states == [ERROR]
    assert len(errors) == 1
    index, name, message = errors[0]
    assert (index, name) == (0, "WireProtocolError")
    assert f"step at {v}" in message


def test_valid_route_is_delivered_through_the_peer(worker):
    forwards = worker["peer"].peer_requests.get("FORWARD", 0)
    reply = decode_value(worker["server"].dispatch(
        MSG_ROUTE, encode_value(_requests(worker)[MSG_ROUTE][0])
    )[1])
    outcome, _, path, _, _, _, _ = reply["routes"][0]
    assert outcome == "delivered"
    assert path[0] == worker["vertex"] and path[-1] == worker["far"]
    assert reply["dead"] == [] and reply["failovers"] == 0
    assert worker["peer"].peer_requests["FORWARD"] > forwards


@pytest.mark.parametrize("field, bad, error", [
    (None, "not a list", WireProtocolError),
    (None, [(1, 2, 3)], WireProtocolError),
    (0, True, WireProtocolError),
    (0, -1, ValueError),
    (1, N, ValueError),
    (1, False, WireProtocolError),
    (2, "junk", WireProtocolError),
    (2, (7,), WireProtocolError),
    (3, -1, WireProtocolError),
    (3, 2 ** 70, WireProtocolError),
    (3, True, WireProtocolError),
], ids=[
    "payload-shape", "packet-shape", "bool-source", "negative-source",
    "target-out-of-range", "bool-target", "str-label", "short-label",
    "negative-budget", "oversized-budget", "bool-budget",
])
def test_route_refuses_bad_packets_typed(worker, field, bad, error):
    packet = list(_requests(worker)[MSG_ROUTE][0][0])
    if field is None:
        payload = bad
    else:
        packet[field] = bad
        payload = [tuple(packet)]
    with pytest.raises(error):
        worker["server"].dispatch(MSG_ROUTE, encode_value(payload))


def test_route_before_the_peer_map_is_a_typed_error(worker):
    store = worker["store"]
    early = WorkerServer(
        ("127.0.0.1", 0), worker_id=0, store=store,
        engine=LocalRouter(store), placement=worker["placement"],
    )
    try:
        with pytest.raises(ClusterError, match="no peer map"):
            early.dispatch(
                MSG_ROUTE, encode_value(_requests(worker)[MSG_ROUTE][0])
            )
    finally:
        early.server_close()


# -- junk FORWARD replies: what RoutePump._apply lets escape ---------------
def _forward_case(worker):
    """Fresh packets and the worker's valid columnar reply to them."""
    v, n = worker["vertex"], N
    sent = [
        (v, (v + 37) % n, worker["label"], 60),
        (v, worker["far"], worker["far_label"], 60),
        (v + 1, worker["far"], worker["far_label"], 60),
        (v + 1, (v + 37) % n, worker["label"], 1),
    ]
    reply = worker["server"]._forward((
        list(worker["drive"]),
        [(s, None, label, budget) for s, _, label, budget in sent],
    ))
    packets = [Packet(i, *packet) for i, packet in enumerate(sent)]
    return packets, reply


def _pump(worker):
    return RoutePump(
        worker_id=1, placement=worker["placement"], step=None,
        peers=RpcClient({}, timeout_s=1.0),
    )


def _apply(worker, packets, reply):
    routes = [None] * len(packets)
    still = []
    _pump(worker)._apply(0, packets, reply, still, routes)
    return routes, still


#: cells that break a column's contract, whatever the column
_JUNK_CELLS = [
    -1, N, 2 ** 70, True, None, 1.5, "3", (0,), [1], {0: 1}, float("nan"),
]


def _mutate(rng, reply, segments):
    """One seeded mutation of a valid reply's columns."""
    columns = [list(column) for column in reply]
    k = rng.randrange(len(columns))
    kind = rng.randrange(7)
    if kind == 0:  # a column of the wrong type
        columns[k] = rng.choice([None, 3, "col", {0: 1}])
    elif kind == 1:  # ragged: one cell more or fewer
        if columns[k] and rng.random() < 0.5:
            columns[k].pop(rng.randrange(len(columns[k])))
        else:
            columns[k].append(rng.choice(columns[k] or [0]))
    elif kind == 2 and columns[k]:  # one junk cell
        i = rng.randrange(len(columns[k]))
        columns[k][i] = rng.choice(_JUNK_CELLS + [_value(rng)])
    elif kind == 3:  # hop counts past the hop total, steps past budget
        i = rng.randrange(segments)
        extra = rng.choice([1, 2, 60, 10 ** 6])
        for column in rng.choice([(4,), (5,), (4, 5)]):
            columns[column][i] += extra
    elif kind == 4:  # a segment turned error, with a good or bad entry
        i = rng.randrange(segments)
        columns[1][i] = 3
        columns[10].append(rng.choice([
            (i, "ShardUnavailableError", "gone"),
            (i, "WireProtocolError", "bad header"),
            (i, "NoSuchError", "odd"),
            (i, "ShardUnavailableError"),
            (i, 7, "message"),
            (i, "WireProtocolError", 7),
            (i, "ShardUnavailableError", None),
            (-1, "ShardUnavailableError", "gone"),
            (segments, "ShardUnavailableError", "gone"),
            [i, "ShardUnavailableError", "gone"],
            (True, "ShardUnavailableError", "gone"),
        ]))
        if rng.random() < 0.2:  # the same failure twice
            columns[10].append(columns[10][-1])
    elif kind == 5:  # phase indices out of range, names not str
        if columns[9] and rng.random() < 0.7:
            i = rng.randrange(len(columns[9]))
            columns[9][i] = rng.choice([-1, -len(columns[0]), len(columns[0])])
        else:
            columns[0] = [rng.choice([1, None, b"t", ("t",)])] + columns[0]
    else:  # positions and hops off the graph
        column = rng.choice([2, 6])
        if columns[column]:
            i = rng.randrange(len(columns[column]))
            columns[column][i] = rng.choice([-1, -N, N, True, 2 ** 64])
    return tuple(columns)


def test_valid_forward_reply_applies(worker):
    packets, reply = _forward_case(worker)
    assert len(reply[1]) == len(packets) and reply[10] == []
    routes, still = _apply(worker, packets, reply)
    # replayed over the codec too: the same outcome
    again, _ = _forward_case(worker)
    routes_wire, still_wire = _apply(
        worker, again, decode_value(encode_value(reply))
    )
    assert routes == routes_wire
    assert [p.index for p in still] == [p.index for p in still_wire]
    for p, q in zip(packets, again):
        assert (p.path, p.length, p.phase_hops, p.current) == (
            q.path, q.length, q.phase_hops, q.current
        )
    assert sum(len(p.path) - 1 for p in packets) == len(reply[6])


@pytest.mark.parametrize("column, cell", [
    (9, -1), (2, -1), (6, -1), (4, -1), (5, -1),
], ids=["phase", "at", "next", "steps", "count"])
def test_negative_indices_do_not_wrap(worker, column, cell):
    packets, reply = _forward_case(worker)
    columns = [list(c) for c in reply]
    assert columns[column], "the valid reply must have such a cell"
    columns[column][0] = cell
    with pytest.raises(WireProtocolError, match="FORWARD reply"):
        _apply(worker, packets, tuple(columns))


@pytest.mark.parametrize("seed", range(3))
def test_junk_forward_replies_raise_only_protocol_errors(worker, seed):
    """Only WireProtocolError or what ``raise_remote`` re-raises
    (ServingError or ShardCodecError subclasses) may leave ``_apply``."""
    rng = random.Random(104729 + seed)
    escaped = (ServingError, ShardCodecError)
    for case in range(200):
        packets, reply = _forward_case(worker)
        if case % 10 == 0:
            junk = _value(rng)
        else:
            junk = _mutate(rng, reply, len(packets))
            if rng.random() < 0.5:
                try:  # through the codec as a peer's reply would come
                    junk = decode_value(encode_value(junk))
                except ShardCodecError:
                    pass
        try:
            _apply(worker, packets, junk)
        except escaped:
            pass


def test_owner_map_follows_deaths_and_quarantines():
    placement = Placement(n=N, group_size=GROUP_SIZE, workers=2, replicas=2)
    pump = RoutePump(
        worker_id=0, placement=placement, step=None,
        peers=RpcClient({}, timeout_s=1.0),
    )

    def expected():
        owner = {}
        for g in range(placement.groups):
            try:
                owner[g] = live_owner(
                    placement, g, pump.dead, pump.quarantined
                )
            except ServingError:
                pass
        return owner

    first = pump._owners()
    assert pump._owners()[0] is first[0]  # unchanged sets: no recompute
    assert first[0] == expected() and set(first[0].values()) == {0, 1}
    pump.quarantined.add((0, placement.owners(0)[0]))
    assert pump._owners()[0] == expected()
    pump.dead.add(1)
    owner, drive = pump._owners()
    assert owner == expected() and set(owner.values()) == {0}
    assert sorted(drive[0]) == sorted(owner)
