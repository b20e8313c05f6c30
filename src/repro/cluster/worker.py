"""A cluster worker: one process serving its owned pack groups over RPC.

Each worker owns the slice of the packed layout its
:class:`~repro.cluster.placement.Placement` assignment names — group
``g`` as replica copy ``k`` is mapped from
``replica/<k>/groups/<g>.pack`` — through a
:class:`~repro.routing.serving.ShardStore` restricted to exactly
those paths (``group_paths``), stepped by the very same
:class:`~repro.routing.serving.LocalRouter` the single-process serving
stack uses.  That reuse is the whole correctness argument: a worker's
step decisions, header accounting and store counters are produced by
the identical code the hop-parity tests already pin against the
in-memory schemes — the cluster only changes *where* each step runs.

Stepping contract: ``MSG_ROUTE`` and peer ``MSG_FORWARD``
--------------------------------------------------------
A client sends each packet ``(source, target, dest_label, budget)`` once,
in a ``MSG_ROUTE`` frame, to the live owner of its source's group.  The
worker's :class:`~repro.cluster.pump.RoutePump` drives the frame to
completion: it steps its own groups in-process and sends the packets
in foreign groups as ``MSG_FORWARD`` straight to the owning peer, then
replies with each packet's finished trace.  Only ROUTE handlers issue
RPCs; a FORWARD handler never calls out, so two workers forwarding to
each other cannot wait on each other.

A FORWARD payload is ``(drive groups, packets)``: the groups the
receiving worker is the *currently preferred* owner of, given which
workers the sender has seen alive.  Driving strictly inside that set
(instead of everything the worker could serve) keeps serve-counter
parity with the single process exact: absent failures the drive set is
the worker's primary range, so every vertex is loaded and stepped on
exactly one worker, and summed per-worker store counters equal the
single store's.  For each packet ``(current, header, dest_label,
budget)`` the worker replays the simulator's routing loop (see
:func:`repro.routing.simulator.route`) while the current vertex stays
inside the drive set and step budget remains:

* each loop iteration consumes one ``step()`` call from ``budget`` —
  exactly the simulator's ``max_hops + 1`` accounting,
* a ``Forward`` appends one cell to each of the reply's four hop
  columns: next vertex, edge weight, header words and the index of the
  header's phase tag among the reply's phase names.  The pump replays
  them in hop order to reconstruct ``length`` / ``max_header_words`` /
  ``phase_hops`` bit-for-bit (weights are summed hop by hop, so float
  accumulation order matches the single-process loop exactly),
* the segment ends in state ``DELIVERED`` (a ``Deliver`` action;
  misdelivery is judged by the pump, the stepping worker never learns
  the target), ``HANDOFF`` (next vertex owned elsewhere) or
  ``EXHAUSTED`` (budget spent), with its stop vertex, header, step
  count and hop count in the per-segment columns.  A per-packet serving
  failure ends it in state ``ERROR``, its partial hops kept and a
  typed ``(segment index, type, message)`` entry in the errors column,
  so one bad shard fails over without poisoning its batch.

:class:`~repro.cluster.pump.ForwardReply` builds the reply and the
pump reads it (the layout is documented with ``MSG_FORWARD`` in
:mod:`repro.cluster.wire`); the pump's in-process bucket gets the very
same tuple without the codec.

Local stepping and peer FORWARDs run on different handler threads; one
step lock per worker serialises everything that touches the store and
the engine (their counters and the resident LRU are not thread-safe).
STATUS counts client requests under ``requests`` and the FORWARDs
peers sent under ``peer_requests``; ``peer_rpcs`` counts the FORWARDs
this worker sent, per target, so both ledgers reconcile exactly.

Startup reports over the spawn pipe: ``("ready", port)`` once the
server is bound, or ``("error", type name, message)`` for typed
failures — notably :class:`~repro.routing.serving.ShardUnavailableError`
for a partially-written replica directory (missing ``groups/`` subdir),
which the driver re-raises typed instead of a raw ``OSError``.  Once
every worker is ready the driver sends ``("peers", {worker: (host,
port)})`` down the same pipe; the worker starts serving only after it,
so ROUTE payloads never carry addresses and a worker never dials an
address a client names.
"""

from __future__ import annotations

import os
import socket
import socketserver
import threading
from typing import Any, Dict, List, Optional, Tuple

from ..routing.faults import FaultInjector
from ..routing.model import Deliver, Forward, words_of
from ..routing.serving import (
    LocalRouter,
    ServingError,
    ShardStore,
    _load_manifest,
    pack_paths,
    partial_replica_error,
)
from ..routing.shard_codec import (
    ShardCodecError,
    decode_value,
    encode_node_table,
    encode_value,
)
from .placement import Placement
from .pump import (
    DELIVERED,
    ERROR,
    EXHAUSTED,
    HANDOFF,
    ForwardReply,
    Packet,
    RoutePump,
    budget_cap,
)
from .wire import (
    MSG_FORWARD,
    MSG_LABEL,
    MSG_LOOKUP,
    MSG_ROUTE,
    MSG_SHUTDOWN,
    MSG_STATUS,
    ClusterError,
    NotOwnerError,
    REPLY_ERROR,
    REPLY_OK,
    RpcClient,
    RpcLedger,
    WireProtocolError,
    WorkerUnavailableError,
    error_payload,
    msg_name,
    recv_frame,
    send_frame,
)

__all__ = [
    "WorkerServer",
    "build_worker_store",
    "run_worker",
    "phase_of",
]

#: socket timeout of a worker's peer connections: shorter than the
#: client's default 30 s, so a hung peer fails over before the client
#: gives up on the ROUTE waiting for it
PEER_TIMEOUT_S = 10.0


def phase_of(header: Any) -> str:
    """The routing-phase tag of a header — the simulator's convention
    (``header[0]`` when it is a str-tagged tuple, else ``"?"``),
    duplicated bit-for-bit so ``phase_hops`` reconciles across the
    wire."""
    if isinstance(header, tuple) and header and isinstance(header[0], str):
        return header[0]
    return "?"


def build_worker_store(
    shard_dir: str,
    assignment: Dict[int, int],
    *,
    max_resident: Optional[int] = None,
    fault_spec: Optional[Dict[str, Any]] = None,
) -> ShardStore:
    """The restricted store serving one worker's assignment.

    Validates — before mapping anything — that every replica root the
    assignment touches actually finished landing: a ``replica/<r>``
    directory without its ``groups/`` subdir is a partially-written
    replica set (an interrupted ``write_shards`` or botched copy) and
    surfaces as :class:`ShardUnavailableError` naming the replica, the
    same typed translation :class:`ShardStore` applies when serving.
    """
    manifest = _load_manifest(shard_dir)
    replicas = int(manifest["replicas"])
    group_paths: Dict[int, str] = {}
    checked = set()
    for g, k in sorted(assignment.items()):
        if not 0 <= k < replicas:
            raise ValueError(
                f"assignment places group {g} as replica copy {k} "
                f"but {shard_dir!r} has replicas 0..{replicas - 1}"
            )
        group_paths[g] = pack_paths(shard_dir, g, replicas)[k]
        groups_dir = os.path.dirname(group_paths[g])
        if groups_dir not in checked:
            if not os.path.isdir(groups_dir):
                raise partial_replica_error(shard_dir, k, groups_dir)
            checked.add(groups_dir)
    io = None
    if fault_spec is not None:
        io = FaultInjector.from_spec(fault_spec)
    return ShardStore(
        shard_dir,
        manifest=manifest,
        max_resident=max_resident,
        group_paths=group_paths,
        io=io,
    )


class _RequestHandler(socketserver.BaseRequestHandler):
    """One client connection: a loop of request/reply frames."""

    def handle(self) -> None:
        server: "WorkerServer" = self.server  # type: ignore[assignment]
        # request/reply ping-pong: never let Nagle hold a reply back
        # waiting for a delayed ACK
        self.request.setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
        )
        # this connection's route pump (and its peer sockets), made at
        # the first ROUTE
        pump: Optional[RoutePump] = None
        try:
            while True:
                try:
                    got = recv_frame(self.request)
                except (WireProtocolError, WorkerUnavailableError):
                    server.count_drop()
                    return
                if got is None:
                    return  # clean close: session over
                msg, payload = got
                try:
                    if msg == MSG_ROUTE and pump is None:
                        pump = server.new_pump()
                    reply = server.dispatch(msg, payload, pump)
                except (ServingError, ShardCodecError, ValueError) as exc:
                    server.count_error(exc)
                    reply = (REPLY_ERROR, error_payload(exc))
                try:
                    send_frame(self.request, reply[0], reply[1])
                except (WireProtocolError, WorkerUnavailableError):
                    server.count_drop()
                    return
                if msg == MSG_SHUTDOWN:
                    # shutdown() blocks until serve_forever returns, so
                    # it must not run on this handler thread
                    threading.Thread(
                        target=server.shutdown, daemon=True
                    ).start()
                    return
        finally:
            if pump is not None:
                pump.close()


class WorkerServer(socketserver.ThreadingTCPServer):
    """The worker's TCP server over its restricted store + engine.

    ``placement`` and the peer map (:meth:`set_peers`) are what ROUTE
    frames need; without them the worker still answers STATUS, LABEL,
    LOOKUP and FORWARD.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        *,
        worker_id: int,
        store: ShardStore,
        engine: LocalRouter,
        placement: Optional[Placement] = None,
    ) -> None:
        super().__init__(address, _RequestHandler)
        self.worker_id = worker_id
        self.store = store
        self.engine = engine
        self.placement = placement
        self.peers: Optional[Dict[int, Tuple[str, int]]] = None
        #: the FORWARDs this worker's route pumps sent, per target
        self.peer_ledger = RpcLedger()
        # serialises everything that touches the store and the engine:
        # local stepping and peer FORWARDs run on different threads
        self._step_lock = threading.Lock()
        self._lock = threading.Lock()
        self.requests: Dict[str, int] = {}
        self.peer_requests: Dict[str, int] = {}
        self.error_replies = 0
        self.dropped_connections = 0

    def set_peers(self, addresses: Dict[int, Tuple[str, int]]) -> None:
        """Install the fleet's address map (from the driver)."""
        self.peers = dict(addresses)

    def new_pump(self) -> RoutePump:
        """A route pump with its own peer sockets, for one connection."""
        if self.placement is None or self.peers is None:
            raise ClusterError(
                f"worker {self.worker_id} has no peer map yet, so it "
                f"cannot drive ROUTE frames"
            )
        return RoutePump(
            worker_id=self.worker_id,
            placement=self.placement,
            step=self._forward,
            peers=RpcClient(
                self.peers, timeout_s=PEER_TIMEOUT_S,
                ledger=self.peer_ledger,
            ),
        )

    # -- counters ------------------------------------------------------
    def count_error(self, exc: BaseException) -> None:
        with self._lock:
            self.error_replies += 1

    def count_drop(self) -> None:
        with self._lock:
            self.dropped_connections += 1

    def _count(self, msg: int) -> None:
        name = msg_name(msg)
        # FORWARD is the worker-to-worker message: peers send it, the
        # client never does
        counts = self.peer_requests if msg == MSG_FORWARD else self.requests
        with self._lock:
            counts[name] = counts.get(name, 0) + 1

    # -- dispatch ------------------------------------------------------
    def dispatch(
        self, msg: int, payload: bytes, pump: Optional[RoutePump] = None
    ) -> Tuple[int, bytes]:
        """Answer one request.  ``pump`` drives a ROUTE frame (the
        connection's own; a one-off pump when ``None``)."""
        self._count(msg)
        if msg == MSG_STATUS:
            return REPLY_OK, encode_value(self.status())
        if msg == MSG_SHUTDOWN:
            return REPLY_OK, encode_value(True)
        value = decode_value(payload)
        if msg == MSG_LABEL:
            return REPLY_OK, encode_value(self._labels(value))
        if msg == MSG_LOOKUP:
            return REPLY_OK, self._lookup(value)
        if msg == MSG_FORWARD:
            return REPLY_OK, encode_value(self._forward(value))
        if msg == MSG_ROUTE:
            return REPLY_OK, encode_value(self._route(value, pump))
        raise WireProtocolError(
            f"worker {self.worker_id} does not speak {msg_name(msg)}"
        )

    # -- request implementations --------------------------------------
    def _require_vertex(self, v: Any) -> int:
        if not isinstance(v, int) or isinstance(v, bool):
            raise WireProtocolError(
                f"vertex must be an int, got {v!r}"
            )
        if not 0 <= v < self.store.n:
            raise ValueError(
                f"vertex {v} outside 0..{self.store.n - 1}"
            )
        return v

    def _require_owned(self, v: Any) -> int:
        self._require_vertex(v)
        if not self.store.owns(v):
            raise NotOwnerError(
                f"worker {self.worker_id} does not own vertex {v} "
                f"(group {self.store.group_of(v)}) — the client's "
                f"placement disagrees with this worker's assignment"
            )
        return v

    def _labels(self, value: Any) -> List[Any]:
        if not isinstance(value, (list, tuple)):
            raise WireProtocolError(
                f"LABEL payload must be a vertex list, got "
                f"{type(value).__name__}"
            )
        # one label_of per requested entry, duplicates preserved — the
        # exact node() call count the single-process simulator makes
        with self._step_lock:
            return [
                self.engine.label_of(self._require_owned(v))
                for v in value
            ]

    def _lookup(self, value: Any) -> bytes:
        v = self._require_owned(value)
        with self._step_lock:
            return encode_node_table(self.store.node(v))

    def _route(
        self, value: Any, pump: Optional[RoutePump]
    ) -> Dict[str, Any]:
        """Drive a ROUTE frame's packets to completion."""
        if not isinstance(value, (list, tuple)):
            raise WireProtocolError(
                f"ROUTE payload must be a packet list, got "
                f"{type(value).__name__}"
            )
        cap = budget_cap(self.store.n)
        packets: List[Packet] = []
        for index, packet in enumerate(value):
            if not (isinstance(packet, tuple) and len(packet) == 4):
                raise WireProtocolError(
                    f"ROUTE packet must be (source, target, dest_label, "
                    f"budget), got {packet!r}"
                )
            source, target, dest_label, budget = packet
            self._require_vertex(source)
            self._require_vertex(target)
            if (
                not isinstance(budget, int)
                or isinstance(budget, bool)
                or not 0 <= budget <= cap
            ):
                raise WireProtocolError(
                    f"packet budget must be an int in 0..{cap}, got "
                    f"{budget!r}"
                )
            packets.append(Packet(index, source, target, dest_label, budget))
        if pump is not None:
            return pump.run(packets)
        pump = self.new_pump()
        try:
            return pump.run(packets)
        finally:
            pump.close()

    def _forward(self, value: Any) -> Tuple[List[Any], ...]:
        with self._step_lock:
            return self._forward_locked(value)

    def _forward_locked(self, value: Any) -> Tuple[List[Any], ...]:
        if not (isinstance(value, tuple) and len(value) == 2):
            raise WireProtocolError(
                f"FORWARD payload must be (drive groups, packets), got "
                f"{type(value).__name__}"
            )
        raw_drive, packets = value
        if not isinstance(raw_drive, (list, tuple)) or not isinstance(
            packets, (list, tuple)
        ):
            raise WireProtocolError(
                f"FORWARD payload must be (drive groups, packets), got "
                f"({type(raw_drive).__name__}, "
                f"{type(packets).__name__})"
            )
        owned = set(self.store.owned_groups() or ())
        for g in raw_drive:
            if not isinstance(g, int) or isinstance(g, bool):
                raise WireProtocolError(
                    f"drive group must be an int, got {g!r}"
                )
            if g not in owned:
                raise NotOwnerError(
                    f"worker {self.worker_id} does not own drive group "
                    f"{g!r} — the client's placement disagrees with "
                    f"this worker's assignment"
                )
        drive = frozenset(raw_drive)
        reply = ForwardReply()
        for packet in packets:
            self._drive(packet, drive, reply)
        return reply.columns()

    def _drive(
        self, packet: Any, drive: "frozenset", reply: ForwardReply
    ) -> None:
        """Step one packet until delivery, handoff, or budget end, and
        add its segment to ``reply``."""
        if not (isinstance(packet, tuple) and len(packet) == 4):
            raise WireProtocolError(
                f"FORWARD packet must be (current, header, dest_label, "
                f"budget), got {packet!r}"
            )
        current, header, dest_label, budget = packet
        self._require_owned(current)
        if not isinstance(budget, int) or isinstance(budget, bool):
            raise WireProtocolError(
                f"packet budget must be an int, got {budget!r}"
            )
        engine = self.engine
        group_of = self.store.group_of
        steps = 0
        state = EXHAUSTED
        error = None
        try:
            while True:
                if group_of(current) not in drive:
                    state = HANDOFF
                    break
                if steps >= budget:
                    state = EXHAUSTED
                    break
                try:
                    action = engine.step(current, header, dest_label)
                    if isinstance(action, Forward):
                        nxt, weight = engine.local_edge(
                            current, action.port
                        )
                except (ServingError, ShardCodecError):
                    raise  # a pack fault: the per-packet failover below
                except (
                    TypeError, IndexError, KeyError, AttributeError,
                    ValueError, RuntimeError,
                ) as exc:
                    # a header or label of the wrong shape, read by the
                    # scheme's step: the sender's fault, not a crash
                    raise WireProtocolError(
                        f"scheme step at {current} cannot read the "
                        f"packet's header or destination label: "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
                steps += 1
                if isinstance(action, Deliver):
                    state = DELIVERED
                    break
                if not isinstance(action, Forward):
                    raise WireProtocolError(
                        f"scheme step at {current} returned "
                        f"{action!r}, not Deliver/Forward"
                    )
                header = action.header
                reply.hop(nxt, weight, words_of(header), phase_of(header))
                current = nxt
        except (ServingError, ShardCodecError) as exc:
            # isolate the fault to this packet: its partial segment is
            # reported with the typed error, the rest of the batch
            # proceeds, and the pump fails this packet over
            self.count_error(exc)
            state = ERROR
            error = (type(exc).__name__, str(exc))
        reply.end(state, current, header, steps, error)

    # -- status --------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        owned = self.store.owned_groups()
        with self._step_lock:
            store_stats = self.store.stats()
            header_stats = self.engine.header_stats()
            health = self.store.health()
        with self._lock:
            requests = dict(self.requests)
            peer_requests = dict(self.peer_requests)
            error_replies = self.error_replies
            dropped = self.dropped_connections
        peer_rpcs = self.peer_ledger.by_worker()
        return {
            "worker": self.worker_id,
            "spec": self.engine.spec_name,
            "name": self.engine.name,
            "n": self.store.n,
            "owned_groups": list(owned) if owned is not None else None,
            "store": store_stats,
            "header": header_stats,
            "requests": requests,
            "peer_requests": peer_requests,
            "peer_rpcs": peer_rpcs,
            "error_replies": error_replies,
            "dropped_connections": dropped,
            "health": health,
        }


def run_worker(
    conn: Any,
    *,
    shard_dir: str,
    worker_id: int,
    placement: Placement,
    host: str = "127.0.0.1",
    port: int = 0,
    max_resident: Optional[int] = None,
    fault_spec: Optional[Dict[str, Any]] = None,
) -> None:
    """Worker process entry point (a ``multiprocessing`` target).

    Builds the restricted store of ``placement.assignment(worker_id)``
    and the serving engine, binds the RPC server (``port=0`` =
    ephemeral), reports ``("ready", port)`` or a typed ``("error", type
    name, message)`` over ``conn``, waits for the driver's ``("peers",
    addresses)``, then serves until
    :data:`~repro.cluster.wire.MSG_SHUTDOWN` (or the process is killed —
    the chaos case the pumps' failover covers).  A driver that goes
    away before sending the peer map ends the worker.
    """
    store: Optional[ShardStore] = None
    server: Optional[WorkerServer] = None
    try:
        store = build_worker_store(
            shard_dir,
            placement.assignment(worker_id),
            max_resident=max_resident,
            fault_spec=fault_spec,
        )
        engine = LocalRouter(store)
        server = WorkerServer(
            (host, port),
            worker_id=worker_id,
            store=store,
            engine=engine,
            placement=placement,
        )
    except (ServingError, ShardCodecError, ValueError, OSError) as exc:
        conn.send(("error", type(exc).__name__, str(exc)))
        conn.close()
        if server is not None:
            server.server_close()
        if store is not None:
            store.close()
        return
    conn.send(("ready", server.server_address[1]))
    try:
        peers = conn.recv()
    except EOFError:
        peers = None
    conn.close()
    if not (
        isinstance(peers, tuple) and len(peers) == 2 and peers[0] == "peers"
    ):
        server.server_close()
        store.close()
        return
    server.set_peers(peers[1])
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
        store.close()
