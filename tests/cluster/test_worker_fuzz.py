"""Seeded dispatch fuzz: a worker answers every request or raises one of
the error types its connection handler turns into a typed REPLY_ERROR.

One restricted worker over a small thm11 pack gets LABEL, LOOKUP and
FORWARD payloads of three kinds — random bytes, random values from a
small grammar, and mutations of a valid request that replace one
envelope or packet field — straight through ``WorkerServer.dispatch``.
Any other exception would escape the handler and kill its thread.
"""

import random

import pytest

from repro.api import build
from repro.cluster import Placement
from repro.cluster.wire import (
    MSG_FORWARD,
    MSG_LABEL,
    MSG_LOOKUP,
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
    store = build_worker_store(path, placement.assignment(0))
    server = WorkerServer(
        ("127.0.0.1", 0), worker_id=0, store=store,
        engine=LocalRouter(store),
    )
    owned = sorted(store.owned_groups())
    v = owned[0] * GROUP_SIZE
    full = open_store(path)  # the target may live outside this worker
    label = LocalRouter(full).label_of((v + 37) % N)
    full.close()
    yield {
        "server": server,
        "drive": tuple(owned),
        "vertex": v,
        "label": label,
    }
    server.server_close()
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
    return {
        MSG_FORWARD: (
            (worker["drive"], [(v, None, label, 60)]),
            [(), (0,), (1,), (0, 0), (1, 0)] + packet + leaves,
        ),
        MSG_LABEL: ([v, v + 1], [(), (0,), (1,)]),
        MSG_LOOKUP: (v, [()]),
    }


@pytest.mark.parametrize("msg", [MSG_LABEL, MSG_LOOKUP, MSG_FORWARD],
                         ids=["label", "lookup", "forward"])
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
    assert reply[0]["state"] == "error"
    assert reply[0]["error"][0] == "WireProtocolError"
    assert f"step at {v}" in reply[0]["error"][1]
