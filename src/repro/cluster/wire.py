"""Length-prefixed binary RPC protocol of the cluster: client to worker,
worker to worker.

One frame per message, in either direction::

    <2s magic "RC"> <B version> <B msg type> <I payload length> <payload>

The 8-byte header is packed with ``_FRAME`` (``"<2sBBI"``, declared in
:mod:`repro.analysis.layouts` and audited by CODEC001, exactly like the
shard codec's pack header) and versioned like the shard layouts: a
reader refuses a frame whose magic or version it does not speak, so a
protocol revision bumps ``WIRE_VERSION`` and old/new processes fail
loudly instead of misparsing each other.

Payloads reuse the shard codec's self-describing tagged value encoding
(:func:`repro.routing.shard_codec.encode_value`): headers, labels,
status dicts and per-hop traces cross the wire in the exact format the
shards on disk already commit to — no second serialization dialect to
audit.  The one exception is the ``MSG_LOOKUP`` reply, whose payload is
the raw :func:`encode_node_table` bytes of the requested shard (the
value codec carries no bytes leaf, and the shard codec already *is* the
byte encoding of a record).

Message types
-------------
``MSG_STATUS``
    ``()`` -> the worker's status dict (store counters, header stats,
    request counters, health).
``MSG_LABEL``
    ``[v, ...]`` -> ``[label, ...]``, answered from the worker's owned
    shards (duplicates preserved — the counter-parity tests depend on
    one ``node(v)`` call per requested label, exactly like the
    single-process simulator).
``MSG_LOOKUP``
    ``v`` -> raw shard bytes of vertex ``v`` (spot checks, tooling).
``MSG_ROUTE``
    ``[(source, target, dest_label, budget), ...]`` -> ``{"routes":
    [(outcome, message, path, length, max header words, phase hops,
    last header), ...], "dead": [...], "quarantined": [(group, worker),
    ...], "failovers": int}``.  Client to worker: the worker drives
    every packet to completion (see :mod:`repro.cluster.pump`) and
    reports the peer deaths, quarantines and failovers it saw.
``MSG_FORWARD``
    ``([drive group, ...], [(current, header, dest_label, budget),
    ...])`` -> per-packet segment results.  Worker to worker: the
    drive-group list names the groups the receiving worker should step
    through (see :mod:`repro.cluster.worker` for the stepping
    contract).  A FORWARD handler never calls out, so two workers
    forwarding to each other cannot wait on each other.
``MSG_SHUTDOWN``
    ``()`` -> ``True``; the worker stops serving after replying.

Every reply is ``REPLY_OK`` or ``REPLY_ERROR``; an error payload is the
``(type name, message)`` of a **typed** exception —
:class:`~repro.routing.serving.ServingError` /
:class:`~repro.routing.shard_codec.ShardCodecError` subclasses or the
cluster errors below — and :func:`raise_remote` re-raises it as the
same type client-side (the contract ERR001 statically enforces on every
``raise`` in these modules).  An unknown type degrades to
:class:`ClusterError`, never to a silent string.

:class:`RpcClient` is the one requesting side of the protocol — the
client's connections to the workers and each worker's connections to
its peers — and records every request in a :class:`RpcLedger`.
"""

from __future__ import annotations

import socket
import struct
import threading
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple, Type

from ..routing.serving import (
    ReplicaExhaustedError,
    ServingError,
    ShardAccountingError,
    ShardIntegrityError,
    ShardUnavailableError,
    WireContractError,
)
from ..routing.shard_codec import (
    ChecksumError,
    ShardCodecError,
    decode_value,
    encode_value,
)

__all__ = [
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "FRAME_BYTES",
    "MAX_PAYLOAD",
    "MSG_STATUS",
    "MSG_LABEL",
    "MSG_LOOKUP",
    "MSG_FORWARD",
    "MSG_SHUTDOWN",
    "MSG_ROUTE",
    "REPLY_OK",
    "REPLY_ERROR",
    "ClusterError",
    "WireProtocolError",
    "NotOwnerError",
    "WorkerUnavailableError",
    "send_frame",
    "recv_frame",
    "send_value",
    "decode_error",
    "error_payload",
    "raise_remote",
    "msg_name",
    "RpcLedger",
    "RpcClient",
]

WIRE_MAGIC = b"RC"
WIRE_VERSION = 1
#: frame header: magic, version, message type, payload byte length
_FRAME = struct.Struct("<2sBBI")
FRAME_BYTES = 8
#: refuse absurd frames before allocating for them (64 MiB)
MAX_PAYLOAD = 67108864

MSG_STATUS = 1
MSG_LABEL = 2
MSG_LOOKUP = 3
MSG_FORWARD = 4
MSG_SHUTDOWN = 5
MSG_ROUTE = 6
REPLY_OK = 32
REPLY_ERROR = 33

_MSG_NAMES = {
    MSG_STATUS: "STATUS",
    MSG_LABEL: "LABEL",
    MSG_LOOKUP: "LOOKUP",
    MSG_FORWARD: "FORWARD",
    MSG_SHUTDOWN: "SHUTDOWN",
    MSG_ROUTE: "ROUTE",
    REPLY_OK: "OK",
    REPLY_ERROR: "ERROR",
}


def msg_name(msg: int) -> str:
    """Human name of a message type byte (diagnostics only)."""
    return _MSG_NAMES.get(msg, f"msg 0x{msg:02x}")


class ClusterError(ServingError):
    """Base of cluster-serving failures (a :class:`ServingError`, so
    degraded-mode callers keyed on the serving hierarchy keep working
    across the RPC boundary)."""


class WireProtocolError(ClusterError):
    """A frame violates the protocol: bad magic, unknown version, a
    lying length, or a mid-frame disconnect."""


class NotOwnerError(ClusterError):
    """A worker was asked about a vertex outside its assignment — a
    routing/placement bug, never a data fault (failover will not
    help)."""


class WorkerUnavailableError(ClusterError, ConnectionError):
    """A worker cannot be reached: connection refused, reset, or closed.
    The client-side failover trigger, exactly as
    :class:`~repro.routing.serving.ShardUnavailableError` is for a
    replica file."""


#: exception types allowed to cross the wire by name — everything the
#: serving stack can legitimately raise at the RPC boundary
_WIRE_ERRORS: Dict[str, Type[Exception]] = {
    cls.__name__: cls
    for cls in (
        ServingError,
        ShardUnavailableError,
        ShardIntegrityError,
        WireContractError,
        ShardAccountingError,
        ReplicaExhaustedError,
        ShardCodecError,
        ChecksumError,
        ClusterError,
        WireProtocolError,
        NotOwnerError,
    )
}


def error_payload(exc: BaseException) -> bytes:
    """Encode ``exc`` for a ``REPLY_ERROR`` frame: (type name, message)."""
    return encode_value((type(exc).__name__, str(exc)))


def raise_remote(
    name: str, message: str, *, worker: Optional[int] = None
) -> "None":
    """Re-raise a remote error client-side as its typed class.

    ``worker`` (when known) is prefixed into the message so an operator
    reading a traceback knows *which* process failed.  An unrecognised
    type name degrades to :class:`ClusterError` — still typed, still a
    :class:`ServingError` — rather than losing the failure.
    """
    prefix = f"[worker {worker}] " if worker is not None else ""
    cls = _WIRE_ERRORS.get(name)
    if cls is None:
        raise ClusterError(f"{prefix}{name}: {message}")
    if cls is ReplicaExhaustedError:
        # its constructor requires the per-replica causes map, which
        # does not cross the wire (exceptions are not values) — the
        # textual message carries what the worker knew
        raise ReplicaExhaustedError(prefix + message, {})
    raise cls(prefix + message)


def send_frame(sock: socket.socket, msg: int, payload: bytes) -> int:
    """Send one frame; returns the total bytes written.

    A connection-level failure (peer gone, pipe broken) surfaces as
    :class:`WorkerUnavailableError` — the typed signal the router's
    failover is keyed on.
    """
    if len(payload) > MAX_PAYLOAD:
        raise WireProtocolError(
            f"{msg_name(msg)} payload of {len(payload)} bytes exceeds "
            f"the {MAX_PAYLOAD}-byte frame limit"
        )
    frame = _FRAME.pack(WIRE_MAGIC, WIRE_VERSION, msg, len(payload))
    try:
        sock.sendall(frame + payload)
    except OSError as exc:
        raise WorkerUnavailableError(
            f"connection lost sending {msg_name(msg)}: {exc}"
        ) from exc
    return len(frame) + len(payload)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Exactly ``count`` bytes, ``None`` on clean EOF at byte 0.

    EOF *mid-read* is a torn frame (:class:`WireProtocolError`) — the
    peer died between header and payload, and whatever arrived cannot
    be trusted.
    """
    chunks = []
    got = 0
    while got < count:
        try:
            chunk = sock.recv(count - got)
        except OSError as exc:
            raise WorkerUnavailableError(
                f"connection lost receiving: {exc}"
            ) from exc
        if not chunk:
            if got == 0:
                return None
            raise WireProtocolError(
                f"connection closed mid-frame ({got}/{count} bytes)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Tuple[int, bytes]]:
    """Receive one frame: ``(msg type, payload)``, or ``None`` on a
    clean close at a frame boundary (how a peer ends the session)."""
    header = _recv_exact(sock, FRAME_BYTES)
    if header is None:
        return None
    magic, version, msg, length = _FRAME.unpack(header)
    if magic != WIRE_MAGIC:
        raise WireProtocolError(
            f"bad frame magic {magic!r} (want {WIRE_MAGIC!r}) — not a "
            f"cluster wire peer"
        )
    if version != WIRE_VERSION:
        raise WireProtocolError(
            f"unsupported wire version {version} (this build speaks "
            f"{WIRE_VERSION})"
        )
    if length > MAX_PAYLOAD:
        raise WireProtocolError(
            f"{msg_name(msg)} frame declares {length} payload bytes, "
            f"over the {MAX_PAYLOAD}-byte limit — refusing to allocate"
        )
    payload = b"" if length == 0 else _recv_exact(sock, length)
    if payload is None:
        raise WireProtocolError(
            f"connection closed before the {length}-byte "
            f"{msg_name(msg)} payload"
        )
    return msg, payload


def send_value(sock: socket.socket, msg: int, value: Any) -> int:
    """``send_frame`` of a value-codec payload; returns bytes written."""
    return send_frame(sock, msg, encode_value(value))


def decode_error(payload: bytes) -> Tuple[str, str]:
    """Validate and unpack a ``REPLY_ERROR`` payload."""
    value = decode_value(payload)
    if not (
        isinstance(value, tuple)
        and len(value) == 2
        and isinstance(value[0], str)
        and isinstance(value[1], str)
    ):
        raise WireProtocolError(
            f"malformed error payload {value!r} (want (type, message))"
        )
    return value


class RpcLedger:
    """What one caller's requests put on the wire, safe to share across
    threads: replies per worker, frames and payload bytes both ways, and
    request latencies (``perf_counter`` durations — instrumentation,
    never algorithmic input)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.rpcs = 0
        self.rpc_errors = 0
        self.rpcs_by_worker: Dict[int, int] = {}
        self.frames_sent = 0
        self.frames_received = 0
        self.payload_bytes_sent = 0
        self.payload_bytes_received = 0
        self.latencies: List[float] = []

    def sent(self, payload_bytes: int) -> None:
        with self._lock:
            self.frames_sent += 1
            self.payload_bytes_sent += payload_bytes

    def replied(
        self, w: int, payload_bytes: int, seconds: float, error: bool
    ) -> None:
        with self._lock:
            self.latencies.append(seconds)
            self.frames_received += 1
            self.payload_bytes_received += payload_bytes
            self.rpcs += 1
            self.rpcs_by_worker[w] = self.rpcs_by_worker.get(w, 0) + 1
            if error:
                self.rpc_errors += 1

    def by_worker(self) -> Dict[int, int]:
        """Replies received per worker, in worker order."""
        with self._lock:
            return dict(sorted(self.rpcs_by_worker.items()))

    def latency_percentiles(self) -> Dict[str, float]:
        with self._lock:
            ordered = sorted(self.latencies)
        if not ordered:
            return {"count": 0}
        count = len(ordered)

        def at(q: float) -> float:
            return ordered[int(q * (count - 1))] * 1000.0

        return {
            "count": count,
            "p50_ms": at(0.50),
            "p90_ms": at(0.90),
            "p99_ms": at(0.99),
            "max_ms": ordered[-1] * 1000.0,
        }


class RpcClient:
    """One persistent request/reply socket per worker, every request
    recorded in a :class:`RpcLedger` (pass one to share it).

    Requests to different workers may run on different threads; two
    concurrent requests to the same worker must not.  :meth:`send` and
    :meth:`receive` split a request so a caller can work while the
    worker does.  A connection-level failure closes that worker's
    socket and raises :class:`WorkerUnavailableError`; a ``REPLY_ERROR``
    re-raises the worker's typed error.
    """

    def __init__(
        self,
        addresses: Dict[int, Tuple[str, int]],
        *,
        timeout_s: float,
        ledger: Optional[RpcLedger] = None,
    ) -> None:
        self.addresses = dict(addresses)
        self.timeout_s = timeout_s
        self.ledger = ledger if ledger is not None else RpcLedger()
        self._socks: Dict[int, socket.socket] = {}

    def _sock(self, w: int) -> socket.socket:
        sock = self._socks.get(w)
        if sock is None:
            host, port = self.addresses[w]
            try:
                sock = socket.create_connection(
                    (host, port), timeout=self.timeout_s
                )
                # request/reply ping-pong: don't let Nagle queue a
                # small request behind an unacked reply
                sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
            except OSError as exc:
                raise WorkerUnavailableError(
                    f"worker {w} unreachable at {host}:{port}: {exc}"
                ) from exc
            self._socks[w] = sock
        return sock

    def drop(self, w: int) -> None:
        """Close worker ``w``'s socket (the next request reconnects)."""
        sock = self._socks.pop(w, None)
        if sock is not None:
            sock.close()

    def close(self) -> None:
        socks, self._socks = self._socks, {}
        for w in sorted(socks):
            socks[w].close()

    def send(self, w: int, msg: int, value: Any) -> float:
        """Send one request; returns its start time for :meth:`receive`."""
        payload = encode_value(value)
        started = perf_counter()
        try:
            sock = self._sock(w)
            self.ledger.sent(len(payload))
            send_frame(sock, msg, payload)
        except (WireProtocolError, WorkerUnavailableError) as exc:
            self.drop(w)
            raise WorkerUnavailableError(
                f"worker {w} lost during {msg_name(msg)}: {exc}"
            ) from exc
        return started

    def receive(self, w: int, msg: int, started: float) -> Any:
        """The reply to the request :meth:`send` put on ``w``'s socket."""
        try:
            got = recv_frame(self._socks[w])
        except (WireProtocolError, WorkerUnavailableError) as exc:
            self.drop(w)
            raise WorkerUnavailableError(
                f"worker {w} lost during {msg_name(msg)}: {exc}"
            ) from exc
        if got is None:
            self.drop(w)
            raise WorkerUnavailableError(
                f"worker {w} closed the connection during "
                f"{msg_name(msg)}"
            )
        reply, reply_payload = got
        self.ledger.replied(
            w, len(reply_payload), perf_counter() - started,
            reply == REPLY_ERROR,
        )
        if reply == REPLY_ERROR:
            name, message = decode_error(reply_payload)
            raise_remote(name, message, worker=w)
        if reply != REPLY_OK:
            raise WireProtocolError(
                f"worker {w} replied {msg_name(reply)} to "
                f"{msg_name(msg)}"
            )
        return decode_value(reply_payload)

    def request(self, w: int, msg: int, value: Any) -> Any:
        """One request/reply on worker ``w``."""
        return self.receive(w, msg, self.send(w, msg, value))
