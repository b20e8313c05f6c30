"""The cluster client: drives routes hop by hop across worker processes.

:class:`ClusterRouter` is the wire-side twin of the single-process
routing loop in :func:`repro.routing.simulator.route`.  It holds one
persistent connection per worker, forwards each packet to the owner of
its current vertex's group (``MSG_FORWARD`` segments, batched per
worker to amortise round trips), and replays every returned hop tuple —
``(next vertex, weight, header words, phase)`` — through exactly the
simulator's accumulation order, so the :class:`RouteResult` it returns
is bit-identical to the one the single-process loop produces: same
path, same float ``length`` (weights summed hop by hop, never
re-associated), same ``max_header_words`` / ``phase_hops``, same
``RoutingLoopError`` / ``MisdeliveryError`` on the same step.

Failover is client-side, mirroring
the replicated :class:`~repro.routing.serving.ShardStore` one layer up: a
connection loss (:class:`WorkerUnavailableError`) marks the worker dead
and every affected packet re-targets the next owner in the group's
placement order; a typed integrity/unavailability error from a worker
quarantines that ``(group, worker)`` copy only.  Either way the
``failovers`` counter ticks once per re-targeted packet — the same
unit the replicated store counts per group — and a group whose owners
are all dead or quarantined raises
:class:`~repro.routing.serving.ReplicaExhaustedError` with per-worker
causes, exactly like a group whose replica files are all bad.

``cluster_stats()`` aggregates the serving picture end to end: summed
per-worker store counters and header bytes (fetched over
``MSG_STATUS``), client RPC counters, true wire cost (8-byte frame
headers and payload bytes, both directions) and request latency
percentiles (``perf_counter`` durations — instrumentation, never
algorithmic input).
"""

from __future__ import annotations

import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..routing.serving import (
    ReplicaExhaustedError,
    ShardIntegrityError,
    ShardUnavailableError,
)
from ..routing.shard_codec import decode_value, encode_value
from ..routing.simulator import (
    MisdeliveryError,
    RouteResult,
    RoutingLoopError,
)
from .placement import Placement
from .wire import (
    FRAME_BYTES,
    MSG_FORWARD,
    MSG_LABEL,
    MSG_SHUTDOWN,
    MSG_STATUS,
    REPLY_ERROR,
    REPLY_OK,
    WireProtocolError,
    WorkerUnavailableError,
    decode_error,
    msg_name,
    raise_remote,
    recv_frame,
    send_frame,
)

__all__ = ["ClusterRouter", "DEFAULT_BATCH_SIZE"]

#: packets per FORWARD frame: large enough to amortise the round trip,
#: small enough that one worker failure re-routes a bounded batch
DEFAULT_BATCH_SIZE = 32

#: remote typed errors that justify trying another replica owner —
#: the same set that drives ShardStore's on-disk failover
_FAILOVER_ERRORS = (
    WorkerUnavailableError,
    ShardUnavailableError,
    ShardIntegrityError,
    ReplicaExhaustedError,
)


class _Packet:
    """Client-side state of one in-flight route."""

    __slots__ = (
        "index", "source", "target", "dest_label", "current", "header",
        "steps_left", "path", "length", "max_header_words", "phase_hops",
    )

    def __init__(
        self, index: int, source: int, target: int, budget: int
    ) -> None:
        self.index = index
        self.source = source
        self.target = target
        self.dest_label: Any = None
        self.current = source
        self.header: Any = None
        self.steps_left = budget
        self.path: List[int] = [source]
        self.length = 0.0
        self.max_header_words = 0
        self.phase_hops: Dict[str, int] = {}

    def result(self, *, failed: bool = False, error: str = "") -> RouteResult:
        return RouteResult(
            source=self.source,
            target=self.target,
            path=self.path,
            length=self.length,
            hops=len(self.path) - 1,
            max_header_words=self.max_header_words,
            phase_hops=self.phase_hops,
            failed=failed,
            error=error,
            last_header=self.header if failed else None,
        )


class ClusterRouter:
    """Routes over a running worker fleet; see the module docstring.

    Parameters
    ----------
    addresses:
        ``worker id -> (host, port)`` for every placement worker.
    placement:
        The ownership map every worker derived from the same manifest.
    identity:
        Manifest identity fields (``spec``, ``scheme``, ``name``) for
        ``describe()``-style reporting.
    timeout_s:
        Per-socket timeout; a worker that stops answering looks exactly
        like a dead one (triggers failover) instead of hanging a route.
    """

    def __init__(
        self,
        addresses: Dict[int, Tuple[str, int]],
        placement: Placement,
        *,
        identity: Optional[Dict[str, Any]] = None,
        timeout_s: float = 30.0,
    ) -> None:
        missing = sorted(
            set(range(placement.workers)) - set(addresses)
        )
        if missing:
            raise ValueError(
                f"placement spans workers 0..{placement.workers - 1} "
                f"but addresses are missing for {missing}"
            )
        self.placement = placement
        self.addresses = dict(addresses)
        self.identity = dict(identity or {})
        #: session-facing identity (mirrors LocalRouter's attributes)
        self.spec_name = self.identity.get("spec")
        self.name = self.identity.get("name")
        self.n = placement.n
        self.timeout_s = timeout_s
        self._socks: Dict[int, socket.socket] = {}
        #: workers unreachable this session (connection-level failures)
        self.dead_workers: set = set()
        #: (group, worker) copies disqualified by typed data faults
        self.quarantined: set = set()
        # client-side counters
        self.routes = 0
        self.total_hops = 0
        self.failovers = 0
        self.rpcs = 0
        self.rpc_errors = 0
        self.rpcs_by_worker: Dict[int, int] = {}
        self.frames_sent = 0
        self.frames_received = 0
        self.payload_bytes_sent = 0
        self.payload_bytes_received = 0
        self._latencies: List[float] = []
        # counter guard: _pump_once issues the per-worker FORWARD
        # requests concurrently (one thread per worker, each on its own
        # socket), so the shared counters above need a lock
        self._lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None

    # -- connections ---------------------------------------------------
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

    def _drop_worker(self, w: int) -> None:
        sock = self._socks.pop(w, None)
        if sock is not None:
            sock.close()
        self.dead_workers.add(w)

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        socks, self._socks = self._socks, {}
        for w in sorted(socks):
            socks[w].close()

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- one RPC -------------------------------------------------------
    def _request(self, w: int, msg: int, value: Any) -> Any:
        """One request/reply on worker ``w``; connection-level failures
        mark the worker dead and re-raise typed."""
        payload = encode_value(value)
        started = perf_counter()
        try:
            sock = self._sock(w)
            with self._lock:
                self.frames_sent += 1
                self.payload_bytes_sent += len(payload)
            send_frame(sock, msg, payload)
            got = recv_frame(sock)
        except (WireProtocolError, WorkerUnavailableError) as exc:
            self._drop_worker(w)
            raise WorkerUnavailableError(
                f"worker {w} lost during {msg_name(msg)}: {exc}"
            ) from exc
        if got is None:
            self._drop_worker(w)
            raise WorkerUnavailableError(
                f"worker {w} closed the connection during "
                f"{msg_name(msg)}"
            )
        reply, reply_payload = got
        with self._lock:
            self._latencies.append(perf_counter() - started)
            self.frames_received += 1
            self.payload_bytes_received += len(reply_payload)
            self.rpcs += 1
            self.rpcs_by_worker[w] = self.rpcs_by_worker.get(w, 0) + 1
        if reply == REPLY_ERROR:
            with self._lock:
                self.rpc_errors += 1
            name, message = decode_error(reply_payload)
            raise_remote(name, message, worker=w)
        if reply != REPLY_OK:
            raise WireProtocolError(
                f"worker {w} replied {msg_name(reply)} to "
                f"{msg_name(msg)}"
            )
        return decode_value(reply_payload)

    # -- failover-aware group requests --------------------------------
    def _live_owner(self, g: int) -> int:
        """First owner of ``g`` that is neither dead nor quarantined
        for this group."""
        causes: Dict[int, Exception] = {}
        for w in self.placement.owners(g):
            if w in self.dead_workers:
                causes[w] = WorkerUnavailableError(
                    f"worker {w} is marked dead"
                )
                continue
            if (g, w) in self.quarantined:
                causes[w] = ShardUnavailableError(
                    f"copy of group {g} on worker {w} was quarantined"
                )
                continue
            return w
        raise ReplicaExhaustedError(
            f"every owner of group {g} is dead or quarantined "
            f"({sorted(self.placement.owners(g))})",
            causes,
        )

    def _group_request(self, g: int, msg: int, value: Any) -> Any:
        """Request against group ``g``'s owner chain with failover."""
        causes: Dict[int, Exception] = {}
        for w in self.placement.owners(g):
            if w in self.dead_workers or (g, w) in self.quarantined:
                causes[w] = WorkerUnavailableError(
                    f"worker {w} is dead or group {g} quarantined on it"
                )
                continue
            try:
                return self._request(w, msg, value)
            except _FAILOVER_ERRORS as exc:
                causes[w] = exc
                if not isinstance(exc, WorkerUnavailableError):
                    self.quarantined.add((g, w))
                self.failovers += 1
        raise ReplicaExhaustedError(
            f"every owner of group {g} failed "
            f"({sorted(self.placement.owners(g))})",
            causes,
        )

    # -- labels --------------------------------------------------------
    def label_of(self, v: int) -> Any:
        """Destination label of ``v``, served by its group's owner."""
        g = self.placement.group_of(v)
        return self._group_request(g, MSG_LABEL, [v])[0]

    def _fetch_labels(self, packets: List[_Packet]) -> None:
        """Dest labels for every packet, one LABEL RPC per live owner
        worker (targets in group order, duplicates preserved — counter
        parity with the simulator's one ``label_of`` per route).

        Each target group's labels are still served by that group's
        *currently preferred* owner — the same worker its FORWARD
        segments will land on — so batching across groups changes the
        RPC count, never which store serves which vertex.  When a
        worker's batched call fails, its groups fall back to per-group
        :meth:`_group_request`, which isolates the faulty copy and
        fails over replica by replica."""
        by_group: Dict[int, List[_Packet]] = {}
        for p in packets:
            g = self.placement.group_of(p.target)
            by_group.setdefault(g, []).append(p)
        by_worker: Dict[int, List[int]] = {}
        for g in sorted(by_group):
            by_worker.setdefault(self._live_owner(g), []).append(g)
        for w in sorted(by_worker):
            groups = by_worker[w]
            worker_packets = [p for g in groups for p in by_group[g]]
            try:
                labels = self._request(
                    w, MSG_LABEL, [p.target for p in worker_packets]
                )
            except _FAILOVER_ERRORS:
                # the batch reply cannot say which group is at fault;
                # retry group by group so _group_request can quarantine
                # the bad copy and fail over to the next replica
                self.failovers += 1
                for g in groups:
                    self._fetch_group_labels(g, by_group[g])
                continue
            self._assign_labels(labels, worker_packets, f"worker {w}")

    def _fetch_group_labels(
        self, g: int, group_packets: List[_Packet]
    ) -> None:
        """Per-group label fetch along ``g``'s replica owner chain."""
        labels = self._group_request(
            g, MSG_LABEL, [p.target for p in group_packets]
        )
        self._assign_labels(labels, group_packets, f"group {g}")

    def _assign_labels(
        self, labels: Any, packets: List[_Packet], origin: str
    ) -> None:
        if not isinstance(labels, (list, tuple)) or len(labels) != len(
            packets
        ):
            raise WireProtocolError(
                f"LABEL reply for {origin} has "
                f"{len(labels) if isinstance(labels, (list, tuple)) else '?'} "
                f"entries, want {len(packets)}"
            )
        for p, label in zip(packets, labels):
            p.dest_label = label

    # -- routing -------------------------------------------------------
    def route(
        self, source: int, target: int, max_hops: Optional[int] = None
    ) -> RouteResult:
        """Route one message; same contract as ``simulator.route``."""
        return self.route_batch([(source, target)], max_hops=max_hops)[0]

    def route_batch(
        self,
        pairs: List[Tuple[int, int]],
        *,
        max_hops: Optional[int] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        on_route_done: Optional[Callable[[int, RouteResult], None]] = None,
    ) -> List[RouteResult]:
        """Route every pair, batching FORWARD segments per worker.

        ``on_route_done(index, result)`` fires as each route completes
        (the chaos harness's deterministic kill point).  Raises
        :class:`RoutingLoopError` / :class:`MisdeliveryError` exactly
        where the single-process loop would.
        """
        if max_hops is None:
            max_hops = 8 * self.n + 64
        for s, t in pairs:
            for v in (s, t):
                if not 0 <= v < self.n:
                    raise ValueError(
                        f"vertex {v} outside 0..{self.n - 1}"
                    )
        # the simulator's loop runs max_hops + 1 step() calls
        packets = [
            _Packet(i, s, t, max_hops + 1)
            for i, (s, t) in enumerate(pairs)
        ]
        self._fetch_labels(packets)
        results: List[Optional[RouteResult]] = [None] * len(pairs)
        active = list(packets)
        while active:
            active = self._pump_once(
                active, results, max_hops, batch_size, on_route_done
            )
        return [r for r in results if r is not None]

    def _pump_once(
        self,
        active: List[_Packet],
        results: List[Optional[RouteResult]],
        max_hops: int,
        batch_size: int,
        on_route_done: Optional[Callable[[int, RouteResult], None]],
    ) -> List[_Packet]:
        """One pump iteration: bucket packets by live owner, send one
        batched FORWARD per worker, apply segments.  Returns the
        packets still in flight."""
        # Per-worker drive sets: every group the worker is *currently
        # preferred* owner of.  The worker steps packets only inside
        # its drive set, so — absent failures — every vertex is loaded
        # and stepped on exactly one worker and summed serve counters
        # match the single-process store exactly.  A set staled by a
        # mid-iteration death costs one extra handoff, never a wrong
        # hop.
        drive_sets: Dict[int, List[int]] = {}
        for g in range(self.placement.groups):
            try:
                drive_sets.setdefault(self._live_owner(g), []).append(g)
            except ReplicaExhaustedError:
                continue  # raises below iff a packet actually needs it
        buckets: Dict[int, List[_Packet]] = {}
        for p in active:
            w = self._live_owner(self.placement.group_of(p.current))
            buckets.setdefault(w, []).append(p)
        plans = [
            (
                w,
                [
                    buckets[w][start:start + batch_size]
                    for start in range(0, len(buckets[w]), batch_size)
                ],
            )
            for w in sorted(buckets)
        ]
        # Issue the per-worker FORWARDs concurrently — each worker has
        # its own socket and steps its own packets, so the round trips
        # and the workers' step/codec work overlap; segments are then
        # applied serially in worker order, keeping results and
        # failover decisions deterministic.  Unexpected exceptions
        # propagate through Future.result() in that same order.
        if len(plans) > 1:
            if self._pool is None:
                # persistent: spawning threads per pump iteration costs
                # more than the round trips it overlaps
                self._pool = ThreadPoolExecutor(
                    max_workers=self.placement.workers,
                    thread_name_prefix="cluster-router",
                )
            futures = [
                (
                    w,
                    chunks,
                    self._pool.submit(
                        self._drive_chunks,
                        w,
                        chunks,
                        drive_sets.get(w, []),
                    ),
                )
                for w, chunks in plans
            ]
            outcomes = [
                (w, chunks, f.result()) for w, chunks, f in futures
            ]
        else:
            outcomes = [
                (w, chunks, self._drive_chunks(
                    w, chunks, drive_sets.get(w, [])
                ))
                for w, chunks in plans
            ]
        still_active: List[_Packet] = []
        for w, chunks, entries in outcomes:
            for chunk, replies in zip(chunks, entries):
                if replies is None:
                    # connection-level loss (or a death earlier in this
                    # iteration): every packet of the chunk fails over
                    # to its group's next owner on the next pump
                    self.failovers += len(chunk)
                    still_active.extend(chunk)
                    continue
                if not isinstance(replies, (list, tuple)) or len(
                    replies
                ) != len(chunk):
                    raise WireProtocolError(
                        f"FORWARD reply from worker {w} has "
                        f"{len(replies) if isinstance(replies, (list, tuple)) else '?'} "
                        f"segments, want {len(chunk)}"
                    )
                for p, segment in zip(chunk, replies):
                    done = self._apply_segment(
                        p, segment, w, max_hops, results, on_route_done
                    )
                    if not done:
                        still_active.append(p)
        return still_active

    def _drive_chunks(
        self,
        w: int,
        chunks: List[List[_Packet]],
        drive: List[int],
    ) -> List[Optional[Any]]:
        """Send worker ``w`` its FORWARD chunks sequentially on its own
        socket; ``None`` marks a chunk lost to a connection failure
        (the serial phase re-buckets it)."""
        entries: List[Optional[Any]] = []
        for chunk in chunks:
            if w in self.dead_workers:
                entries.append(None)
                continue
            payload = (
                drive,
                [
                    (p.current, p.header, p.dest_label, p.steps_left)
                    for p in chunk
                ],
            )
            try:
                entries.append(self._request(w, MSG_FORWARD, payload))
            except WorkerUnavailableError:
                entries.append(None)
        return entries

    def _apply_segment(
        self,
        p: _Packet,
        segment: Any,
        w: int,
        max_hops: int,
        results: List[Optional[RouteResult]],
        on_route_done: Optional[Callable[[int, RouteResult], None]],
    ) -> bool:
        """Replay one worker segment onto packet ``p``; True when the
        route finished (result recorded)."""
        if not isinstance(segment, dict):
            raise WireProtocolError(
                f"FORWARD segment from worker {w} is "
                f"{type(segment).__name__}, want a dict"
            )
        state = segment.get("state")
        if state == "error":
            # typed per-packet fault: quarantine this copy and retry
            # the packet elsewhere — but first replay the partial
            # segment the worker completed before failing, so the
            # packet's position and accounting stay exact
            self._replay_hops(p, segment, w)
            name, _message = segment.get("error", ("?", "?"))
            g = self.placement.group_of(p.current)
            if name in ("ShardUnavailableError", "ShardIntegrityError",
                        "ReplicaExhaustedError"):
                self.quarantined.add((g, w))
                self.failovers += 1
                return False
            raise_remote(name, _message, worker=w)
        self._replay_hops(p, segment, w)
        if state == "delivered":
            if p.current != p.target:
                reason = (
                    f"scheme delivered at {p.current}, expected "
                    f"{p.target}"
                )
                raise MisdeliveryError(
                    reason,
                    partial_path=p.path,
                    last_header=p.header,
                    result=p.result(failed=True, error=reason),
                )
            result = p.result()
            results[p.index] = result
            self.routes += 1
            self.total_hops += result.hops
            if on_route_done is not None:
                on_route_done(p.index, result)
            return True
        if state not in ("handoff", "exhausted"):
            raise WireProtocolError(
                f"FORWARD segment from worker {w} has unknown state "
                f"{state!r}"
            )
        if p.steps_left <= 0:
            reason = (
                f"message {p.source}->{p.target} not delivered within "
                f"{max_hops} hops; path prefix: {p.path[:20]}..."
            )
            raise RoutingLoopError(
                reason,
                partial_path=p.path,
                last_header=p.header,
                result=p.result(failed=True, error=reason),
            )
        return False

    def _replay_hops(self, p: _Packet, segment: Any, w: int) -> None:
        """Apply a segment's per-hop trace with the simulator's exact
        accumulation order."""
        hops = segment.get("hops", [])
        if not isinstance(hops, (list, tuple)):
            raise WireProtocolError(
                f"segment hops from worker {w} is "
                f"{type(hops).__name__}, want a list"
            )
        for hop in hops:
            if not (isinstance(hop, tuple) and len(hop) == 4):
                raise WireProtocolError(
                    f"segment hop {hop!r} from worker {w} is not "
                    f"(next, weight, words, phase)"
                )
            nxt, weight, words, phase = hop
            p.path.append(nxt)
            p.length += weight
            if words > p.max_header_words:
                p.max_header_words = words
            p.phase_hops[phase] = p.phase_hops.get(phase, 0) + 1
        steps = segment.get("steps", 0)
        if not isinstance(steps, int) or isinstance(steps, bool):
            raise WireProtocolError(
                f"segment steps {steps!r} from worker {w} is not an int"
            )
        p.steps_left -= steps
        p.current = segment.get("at", p.current)
        p.header = segment.get("header")

    # -- aggregation ---------------------------------------------------
    def _latency_percentiles(self) -> Dict[str, float]:
        if not self._latencies:
            return {"count": 0}
        ordered = sorted(self._latencies)
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

    def worker_status(self, w: int) -> Dict[str, Any]:
        """One worker's ``MSG_STATUS`` dict (raises if unreachable)."""
        return self._request(w, MSG_STATUS, ())

    def cluster_stats(self) -> Dict[str, Any]:
        """The end-to-end serving picture: client counters, true wire
        cost, latency percentiles, and per-worker serve stats summed
        across the live fleet."""
        per_worker: Dict[int, Any] = {}
        for w in range(self.placement.workers):
            if w in self.dead_workers:
                per_worker[w] = None
                continue
            try:
                per_worker[w] = self.worker_status(w)
            except WorkerUnavailableError:
                per_worker[w] = None
        live = [s for s in per_worker.values() if s is not None]
        store_totals: Dict[str, int] = {}
        for key in (
            "loads", "hits", "bytes_read", "retries",
            "checksum_failures", "failovers", "repairs",
        ):
            store_totals[key] = sum(s["store"][key] for s in live)
        header_totals: Dict[str, int] = {}
        for key in ("headers_encoded", "header_bytes"):
            header_totals[key] = sum(s["header"][key] for s in live)
        header_totals["max_header_bytes"] = max(
            (s["header"]["max_header_bytes"] for s in live), default=0
        )
        return {
            "workers": self.placement.workers,
            "replicas": self.placement.replicas,
            "groups": self.placement.groups,
            "n": self.n,
            "dead_workers": sorted(self.dead_workers),
            "quarantined": sorted(self.quarantined),
            "routes": self.routes,
            "total_hops": self.total_hops,
            "failovers": self.failovers,
            "rpcs": self.rpcs,
            "rpc_errors": self.rpc_errors,
            "rpcs_by_worker": dict(sorted(self.rpcs_by_worker.items())),
            "wire": {
                "frames_sent": self.frames_sent,
                "frames_received": self.frames_received,
                "frame_header_bytes": (
                    (self.frames_sent + self.frames_received)
                    * FRAME_BYTES
                ),
                "payload_bytes_sent": self.payload_bytes_sent,
                "payload_bytes_received": self.payload_bytes_received,
            },
            "latency": self._latency_percentiles(),
            "store": store_totals,
            "header": header_totals,
            "per_worker": per_worker,
        }

    def health(self) -> Dict[str, Any]:
        """One-look cluster health, same vocabulary as store health.

        ``status`` degrades when any worker is dead/quarantined or any
        live store reports degradation; ``serving`` stays True as long
        as every group still has a live, unquarantined owner.
        """
        serving = True
        for g in range(self.placement.groups):
            owners = self.placement.owners(g)
            if all(
                w in self.dead_workers or (g, w) in self.quarantined
                for w in owners
            ):
                serving = False
                break
        worker_health: Dict[int, Any] = {}
        degraded = bool(
            self.dead_workers or self.quarantined or self.failovers
        )
        for w in range(self.placement.workers):
            if w in self.dead_workers:
                worker_health[w] = {"status": "dead"}
                degraded = True
                continue
            try:
                status = self.worker_status(w)
            except WorkerUnavailableError:
                worker_health[w] = {"status": "dead"}
                degraded = True
                continue
            worker_health[w] = status["health"]
            if status["health"].get("status") != "ok":
                degraded = True
        return {
            "status": "degraded" if degraded else "ok",
            "serving": serving,
            "workers": worker_health,
            "dead_workers": sorted(self.dead_workers),
            "quarantined": sorted(self.quarantined),
            "failovers": self.failovers,
        }

    def shutdown_workers(self) -> List[int]:
        """Best-effort ``MSG_SHUTDOWN`` to every live worker; returns
        the ids that acknowledged."""
        acknowledged: List[int] = []
        for w in range(self.placement.workers):
            if w in self.dead_workers:
                continue
            try:
                if self._request(w, MSG_SHUTDOWN, ()) is True:
                    acknowledged.append(w)
            except (WorkerUnavailableError, WireProtocolError):
                continue
        return acknowledged

    def __repr__(self) -> str:
        return (
            f"ClusterRouter(workers={self.placement.workers}, "
            f"replicas={self.placement.replicas}, n={self.n}, "
            f"routes={self.routes}, failovers={self.failovers})"
        )
