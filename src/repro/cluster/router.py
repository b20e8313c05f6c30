"""The cluster client: fetches labels, injects each packet once, and
collects finished routes.

:class:`ClusterRouter` is the wire-side twin of the single-process
routing loop in :func:`repro.routing.simulator.route`, with the loop
itself running inside the workers.  The client holds one persistent
connection per worker.  For a batch it fetches every destination label
(one ``MSG_LABEL`` per live owner), then sends each packet once, in a
``MSG_ROUTE`` frame, to the live owner of its source's group.  That
worker's :class:`~repro.cluster.pump.RoutePump` drives the packet to
delivery, stepping its own groups in-process and forwarding the rest
straight to the owning peers, and replies with the finished trace: the
path, the float ``length`` summed hop by hop in simulator order, and
the header-word and phase accounting.  The :class:`RouteResult` the
client returns is therefore bit-identical to the single-process loop's,
and a route that exhausts its budget or is delivered at the wrong
vertex raises the same ``RoutingLoopError`` / ``MisdeliveryError`` with
the same message and ``.result``.

ROUTE frames hold at most ``batch_size`` packets and each worker has at
most one frame in flight: the next frame to a worker goes out only after
the previous frame's results have fired ``on_route_done``, so a frame
sent after a kill observes the death.  A connection loss
(:class:`WorkerUnavailableError`) marks the worker dead and its frames
re-target the next live owner of each packet's source group; routes are
deterministic, so they come out hop-identical.  Peer deaths, copy
quarantines and failovers that workers saw while forwarding come back
in every ROUTE reply and merge into ``dead_workers``, ``quarantined``
and ``failovers``.  A group whose owners are all dead or quarantined
raises :class:`~repro.routing.serving.ReplicaExhaustedError` with
per-worker causes, exactly like a group whose replica files are all
bad.

``cluster_stats()`` aggregates the serving picture end to end: summed
per-worker store counters and header bytes (fetched over
``MSG_STATUS``), the client's RPC counters (client RPCs only — the
workers' FORWARDs to each other appear as each worker's
``peer_requests`` and ``peer_rpcs``), true wire cost (8-byte frame
headers and payload bytes, both directions) and request latency
percentiles (``perf_counter`` durations — instrumentation, never
algorithmic input).
"""

from __future__ import annotations

from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ThreadPoolExecutor,
    wait,
)
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..routing.serving import ReplicaExhaustedError
from ..routing.simulator import (
    MisdeliveryError,
    RouteResult,
    RoutingLoopError,
)
from .placement import Placement
from .pump import FAILOVER_ERRORS, OUTCOMES, Packet, budget_cap, live_owner
from .wire import (
    FRAME_BYTES,
    MSG_LABEL,
    MSG_ROUTE,
    MSG_SHUTDOWN,
    MSG_STATUS,
    RpcClient,
    WireProtocolError,
    WorkerUnavailableError,
)

__all__ = ["ClusterRouter", "DEFAULT_BATCH_SIZE"]

#: packets per ROUTE frame: large enough to amortise the round trip
#: and the driving worker's rounds (a 100-route batch on 2 workers goes
#: out as one frame each: 4 client RPCs, against 6 with 32-packet
#: frames), small enough that one worker failure re-routes a bounded
#: batch
DEFAULT_BATCH_SIZE = 64

#: remote errors that justify trying another replica owner
_FAILOVER_ERRORS = (WorkerUnavailableError,) + FAILOVER_ERRORS

#: per-worker ROUTE frames still to send
_Queues = Dict[int, List[List[Packet]]]


def _ledger_field(name: str) -> property:
    return property(
        lambda self: getattr(self._rpc.ledger, name),
        doc=f"Client-side ``{name}`` (client RPCs only).",
    )


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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

    rpcs = _ledger_field("rpcs")
    rpc_errors = _ledger_field("rpc_errors")
    rpcs_by_worker = _ledger_field("rpcs_by_worker")
    frames_sent = _ledger_field("frames_sent")
    frames_received = _ledger_field("frames_received")
    payload_bytes_sent = _ledger_field("payload_bytes_sent")
    payload_bytes_received = _ledger_field("payload_bytes_received")

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
        self._rpc = RpcClient(addresses, timeout_s=timeout_s)
        #: workers unreachable this session (connection-level failures)
        self.dead_workers: set = set()
        #: (group, worker) copies disqualified by typed data faults
        self.quarantined: set = set()
        # client-side counters
        self.routes = 0
        self.total_hops = 0
        self.failovers = 0
        self._pool: Optional[ThreadPoolExecutor] = None

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        self._rpc.close()

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- one RPC -------------------------------------------------------
    def _request(self, w: int, msg: int, value: Any) -> Any:
        """One request/reply on worker ``w``; connection-level failures
        mark the worker dead and re-raise typed."""
        try:
            return self._rpc.request(w, msg, value)
        except WorkerUnavailableError:
            self.dead_workers.add(w)
            raise

    # -- failover-aware group requests --------------------------------
    def _live_owner(self, g: int) -> int:
        """First owner of ``g`` that is neither dead nor quarantined
        for this group."""
        return live_owner(
            self.placement, g, self.dead_workers, self.quarantined
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

    def _fetch_labels(self, packets: List[Packet]) -> None:
        """Dest labels for every packet, one LABEL RPC per live owner
        worker (targets in group order, duplicates preserved — counter
        parity with the simulator's one ``label_of`` per route).

        Each target group's labels are still served by that group's
        *currently preferred* owner — the same worker that steps the
        packet's last hops — so batching across groups changes the
        RPC count, never which store serves which vertex.  When a
        worker's batched call fails, its groups fall back to per-group
        :meth:`_group_request`, which isolates the faulty copy and
        fails over replica by replica."""
        by_group: Dict[int, List[Packet]] = {}
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
        self, g: int, group_packets: List[Packet]
    ) -> None:
        """Per-group label fetch along ``g``'s replica owner chain."""
        labels = self._group_request(
            g, MSG_LABEL, [p.target for p in group_packets]
        )
        self._assign_labels(labels, group_packets, f"group {g}")

    def _assign_labels(
        self, labels: Any, packets: List[Packet], origin: str
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
        """Route every pair in ROUTE frames of at most ``batch_size``
        packets.

        ``on_route_done(index, result)`` fires as each route completes
        (the chaos harness's deterministic kill point).  Raises
        :class:`RoutingLoopError` / :class:`MisdeliveryError` exactly
        where the single-process loop would.  ``max_hops`` may reach
        ``budget_cap(n) - 1``, eight times the default.
        """
        if max_hops is None:
            max_hops = 8 * self.n + 64
        # the simulator's loop runs max_hops + 1 step() calls
        budget = max_hops + 1
        if not 0 < budget <= budget_cap(self.n):
            raise ValueError(
                f"max_hops {max_hops} outside 0..{budget_cap(self.n) - 1}"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        for s, t in pairs:
            for v in (s, t):
                if not 0 <= v < self.n:
                    raise ValueError(
                        f"vertex {v} outside 0..{self.n - 1}"
                    )
        packets = [
            Packet(i, s, t, None, budget) for i, (s, t) in enumerate(pairs)
        ]
        self._fetch_labels(packets)
        results: List[Optional[RouteResult]] = [None] * len(pairs)
        queues: _Queues = {}
        self._enqueue(packets, queues, batch_size)
        in_flight: Dict["Future[Any]", Tuple[int, List[Packet]]] = {}
        try:
            while queues or in_flight:
                busy = {w for w, _ in in_flight.values()}
                for w in sorted(queues):
                    if w in self.dead_workers:
                        # reported dead by a peer: never sent to it
                        lost = [p for frame in queues.pop(w) for p in frame]
                        self._retarget(lost, queues, batch_size)
                    elif w not in busy:
                        frame = queues[w].pop(0)
                        if not queues[w]:
                            del queues[w]
                        future = self._executor().submit(
                            self._request, w, MSG_ROUTE,
                            [
                                (p.source, p.target, p.dest_label, budget)
                                for p in frame
                            ],
                        )
                        in_flight[future] = (w, frame)
                if not in_flight:
                    continue
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in sorted(done, key=lambda f: in_flight[f][0]):
                    w, frame = in_flight.pop(future)
                    try:
                        reply = future.result()
                    except WorkerUnavailableError:
                        # the origin is lost: this frame and the frames
                        # queued behind it go to the next live owners
                        lost = frame + [
                            p for queued in queues.pop(w, []) for p in queued
                        ]
                        self._retarget(lost, queues, batch_size)
                        continue
                    self._collect(w, frame, reply, results, on_route_done)
        finally:
            # an error cut the batch short: let every in-flight reply
            # land, so no socket keeps an unread reply, and drop it
            for future in in_flight:
                future.exception()
        return [r for r in results if r is not None]

    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            # persistent: one thread per worker, each on its own socket
            self._pool = ThreadPoolExecutor(
                max_workers=self.placement.workers,
                thread_name_prefix="cluster-router",
            )
        return self._pool

    def _enqueue(
        self, packets: List[Packet], queues: _Queues, batch_size: int
    ) -> None:
        """Queue ``packets`` as ROUTE frames to the live owner of each
        packet's source group."""
        owner: Dict[int, int] = {}
        by_worker: Dict[int, List[Packet]] = {}
        for p in packets:
            g = self.placement.group_of(p.source)
            if g not in owner:
                owner[g] = self._live_owner(g)
            by_worker.setdefault(owner[g], []).append(p)
        for w in sorted(by_worker):
            mine = by_worker[w]
            queues.setdefault(w, []).extend(
                mine[i:i + batch_size]
                for i in range(0, len(mine), batch_size)
            )

    def _retarget(
        self, packets: List[Packet], queues: _Queues, batch_size: int
    ) -> None:
        """Fail ``packets`` over to their source groups' next owners."""
        self.failovers += len(packets)
        self._enqueue(packets, queues, batch_size)

    def _collect(
        self,
        w: int,
        frame: List[Packet],
        reply: Any,
        results: List[Optional[RouteResult]],
        on_route_done: Optional[Callable[[int, RouteResult], None]],
    ) -> None:
        """Merge a ROUTE reply's failover report, then record its
        routes in frame order."""
        if not isinstance(reply, dict):
            raise WireProtocolError(
                f"ROUTE reply from worker {w} is "
                f"{type(reply).__name__}, want a dict"
            )
        routes = reply.get("routes")
        dead = reply.get("dead")
        quarantined = reply.get("quarantined")
        failovers = reply.get("failovers")
        workers = range(self.placement.workers)
        if not (
            isinstance(routes, (list, tuple))
            and len(routes) == len(frame)
            and isinstance(dead, (list, tuple))
            and all(_is_int(v) and v in workers for v in dead)
            and isinstance(quarantined, (list, tuple))
            and all(
                isinstance(q, tuple) and len(q) == 2
                and all(_is_int(x) for x in q)
                for q in quarantined
            )
            and _is_int(failovers)
            and failovers >= 0
        ):
            raise WireProtocolError(
                f"ROUTE reply from worker {w} is not {len(frame)} routes "
                f"plus a failover report"
            )
        self.dead_workers.update(dead)
        self.quarantined.update(quarantined)
        self.failovers += failovers
        for p, entry in zip(frame, routes):
            result = self._result(p, entry, w)
            results[p.index] = result
            self.routes += 1
            self.total_hops += result.hops
            if on_route_done is not None:
                on_route_done(p.index, result)

    def _result(self, p: Packet, entry: Any, w: int) -> RouteResult:
        """The :class:`RouteResult` of one ROUTE reply entry; a failed
        route raises the simulator's typed error."""
        if not (isinstance(entry, tuple) and len(entry) == 7):
            raise WireProtocolError(
                f"ROUTE entry from worker {w} is not (outcome, message, "
                f"path, length, header words, phase hops, last header)"
            )
        outcome, message, path, length, words, phases, header = entry
        if not (
            outcome in OUTCOMES
            and isinstance(message, str)
            and isinstance(path, list)
            and path
            and path[0] == p.source
            and all(_is_int(v) for v in path)
            and isinstance(length, float)
            and _is_int(words)
            and isinstance(phases, dict)
        ):
            raise WireProtocolError(
                f"ROUTE entry from worker {w} for "
                f"{p.source}->{p.target} is malformed"
            )
        failed = outcome != "delivered"
        result = RouteResult(
            source=p.source,
            target=p.target,
            path=path,
            length=length,
            hops=len(path) - 1,
            max_header_words=words,
            phase_hops=phases,
            failed=failed,
            error=message,
            last_header=header if failed else None,
        )
        if outcome == "loop":
            raise RoutingLoopError(
                message, partial_path=path, last_header=header,
                result=result,
            )
        if outcome == "misdelivered":
            raise MisdeliveryError(
                message, partial_path=path, last_header=header,
                result=result,
            )
        return result

    # -- aggregation ---------------------------------------------------
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
            "rpcs_by_worker": self._rpc.ledger.by_worker(),
            "peer_rpcs": sum(
                sum(s["peer_rpcs"].values()) for s in live
            ),
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
            "latency": self._rpc.ledger.latency_percentiles(),
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
