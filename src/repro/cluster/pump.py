"""Route driving inside a worker: the one routing loop of the cluster.

A client hands each packet once, in a ``MSG_ROUTE`` frame, to the live
owner of its source's group.  That worker's :class:`RoutePump` then
drives the frame to completion in rounds:

* it maps every group to its live owner once per round (the first
  owner in :class:`~repro.cluster.placement.Placement` order that is
  neither dead nor quarantined, as this pump has seen them) and buckets
  the packets by the owner of their current vertex's group,
* it sends each peer's bucket as one stateless ``MSG_FORWARD`` straight
  to that peer, steps its own bucket in-process through the worker's
  FORWARD implementation (no codec), then collects the peers' replies,
* it replays every returned hop tuple ``(next vertex, weight, header
  words, phase)`` in hop order, exactly the accumulation order of
  :func:`repro.routing.simulator.route`, so path, float ``length``,
  ``max_header_words`` and ``phase_hops`` are bit-identical to the
  single-process loop.

Each packet drives only inside its owner's *drive set* — the groups
that worker is the preferred live owner of — so absent failures every
vertex is loaded and stepped on exactly one worker and the fleet's
summed store counters equal the single store's.

Failover happens here.  A peer whose connection fails is marked dead
and its bucket re-buckets onto the next owners; a typed data fault in
one packet's segment (:class:`~repro.routing.serving.ShardUnavailableError`,
:class:`~repro.routing.serving.ShardIntegrityError`,
:class:`~repro.routing.serving.ReplicaExhaustedError`) quarantines that
``(group, worker)`` copy after the partial hops are replayed.
``failovers`` ticks once per re-targeted packet, and a group whose
owners are all gone raises :class:`ReplicaExhaustedError` with
per-worker causes.  A route that runs out of budget or is delivered at
the wrong vertex finishes as data — outcome, message, partial path and
last header — which the client re-raises as the simulator's typed
error.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..routing.serving import (
    ReplicaExhaustedError,
    ShardIntegrityError,
    ShardUnavailableError,
)
from .placement import Placement
from .wire import (
    MSG_FORWARD,
    RpcClient,
    WireProtocolError,
    WorkerUnavailableError,
    raise_remote,
)

__all__ = ["Packet", "RoutePump", "budget_cap", "live_owner"]

#: typed data faults that justify trying the next replica owner — the
#: same set that drives ShardStore's on-disk failover
FAILOVER_ERRORS = (
    ShardUnavailableError, ShardIntegrityError, ReplicaExhaustedError
)
_FAILOVER_NAMES = frozenset(cls.__name__ for cls in FAILOVER_ERRORS)

#: what a finished route's outcome may be, on the wire
OUTCOMES = ("delivered", "loop", "misdelivered")

#: local stepping: ``(drive groups, FORWARD packet tuples) -> segments``
StepFn = Callable[[Tuple[List[int], List[Tuple[Any, ...]]]], List[Any]]


def budget_cap(n: int) -> int:
    """The largest step budget one packet may carry on an ``n``-vertex
    fleet: eight times the simulator's default ``8 n + 64``, so a
    looping route cannot pin a worker for long."""
    return 8 * (8 * n + 65)


def live_owner(
    placement: Placement,
    g: int,
    dead: Set[int],
    quarantined: Set[Tuple[int, int]],
) -> int:
    """First owner of group ``g`` that is neither dead nor quarantined
    for ``g``; :class:`ReplicaExhaustedError` with per-worker causes
    when there is none."""
    causes: Dict[int, Exception] = {}
    owners = placement.owners(g)
    for w in owners:
        if w in dead:
            causes[w] = WorkerUnavailableError(f"worker {w} is marked dead")
        elif (g, w) in quarantined:
            causes[w] = ShardUnavailableError(
                f"copy of group {g} on worker {w} was quarantined"
            )
        else:
            return w
    raise ReplicaExhaustedError(
        f"every owner of group {g} is dead or quarantined "
        f"({sorted(owners)})",
        causes,
    )


class Packet:
    """One route in flight: where it is and the trace so far."""

    __slots__ = (
        "index", "source", "target", "dest_label", "budget", "current",
        "header", "steps_left", "path", "length", "max_header_words",
        "phase_hops",
    )

    def __init__(
        self,
        index: int,
        source: int,
        target: int,
        dest_label: Any,
        budget: int,
    ) -> None:
        self.index = index
        self.source = source
        self.target = target
        self.dest_label = dest_label
        #: ``step()`` calls allowed: the simulator's ``max_hops + 1``
        self.budget = budget
        self.current = source
        self.header: Any = None
        self.steps_left = budget
        self.path: List[int] = [source]
        self.length = 0.0
        self.max_header_words = 0
        self.phase_hops: Dict[str, int] = {}

    def forwarded(self) -> Tuple[Any, ...]:
        """The ``MSG_FORWARD`` packet tuple of the current position."""
        return (self.current, self.header, self.dest_label, self.steps_left)

    def finished(self, outcome: str) -> Tuple[Any, ...]:
        """The ``MSG_ROUTE`` reply entry of a finished route."""
        message = ""
        if outcome == "loop":
            message = (
                f"message {self.source}->{self.target} not delivered "
                f"within {self.budget - 1} hops; path prefix: "
                f"{self.path[:20]}..."
            )
        elif outcome == "misdelivered":
            message = (
                f"scheme delivered at {self.current}, expected "
                f"{self.target}"
            )
        return (
            outcome,
            message,
            self.path,
            self.length,
            self.max_header_words,
            self.phase_hops,
            self.header if message else None,
        )


class RoutePump:
    """Drives ``MSG_ROUTE`` frames from one worker; see the module
    docstring.

    One pump belongs to one client connection: it owns that
    connection's peer sockets (two concurrent ROUTE handlers never
    share one) and remembers the peer deaths and quarantines it has
    seen across frames.
    """

    def __init__(
        self,
        *,
        worker_id: int,
        placement: Placement,
        step: StepFn,
        peers: RpcClient,
    ) -> None:
        self.worker_id = worker_id
        self.placement = placement
        self.step = step
        self.peers = peers
        self.dead: Set[int] = set()
        self.quarantined: Set[Tuple[int, int]] = set()
        #: packets re-targeted during the current frame
        self.failovers = 0

    def close(self) -> None:
        self.peers.close()

    def run(self, packets: List[Packet]) -> Dict[str, Any]:
        """Drive ``packets`` (indexed by frame position) to completion;
        the ``MSG_ROUTE`` reply."""
        self.failovers = 0
        routes: List[Optional[Tuple[Any, ...]]] = [None] * len(packets)
        active = packets
        while active:
            active = self._round(active, routes)
        return {
            "routes": routes,
            "dead": sorted(self.dead),
            "quarantined": sorted(self.quarantined),
            "failovers": self.failovers,
        }

    def _round(
        self,
        active: List[Packet],
        routes: List[Optional[Tuple[Any, ...]]],
    ) -> List[Packet]:
        """One round: bucket by live owner, FORWARD the peers' buckets,
        step our own, apply every segment.  Returns the packets still
        in flight."""
        placement = self.placement
        owner: Dict[int, int] = {}
        drive: Dict[int, List[int]] = {}
        for g in range(placement.groups):
            try:
                w = live_owner(placement, g, self.dead, self.quarantined)
            except ReplicaExhaustedError:
                continue  # raised below iff a packet actually needs it
            owner[g] = w
            drive.setdefault(w, []).append(g)
        buckets: Dict[int, List[Packet]] = {}
        for p in active:
            g = placement.group_of(p.current)
            w = owner.get(g)
            if w is None:  # every owner gone: raises with the causes
                w = live_owner(placement, g, self.dead, self.quarantined)
            buckets.setdefault(w, []).append(p)
        still: List[Packet] = []
        pending: List[Tuple[int, float]] = []
        try:
            for w in sorted(buckets):
                if w == self.worker_id:
                    continue
                request = (drive[w], [p.forwarded() for p in buckets[w]])
                try:
                    pending.append(
                        (w, self.peers.send(w, MSG_FORWARD, request))
                    )
                except WorkerUnavailableError:
                    self._lost(w, buckets[w], still)
            local = buckets.get(self.worker_id)
            if local:
                segments = self.step(
                    (drive[self.worker_id], [p.forwarded() for p in local])
                )
                self._apply(self.worker_id, local, segments, still, routes)
            while pending:
                w, started = pending.pop(0)
                try:
                    segments = self.peers.receive(w, MSG_FORWARD, started)
                except WorkerUnavailableError:
                    self._lost(w, buckets[w], still)
                    continue
                self._apply(w, buckets[w], segments, still, routes)
        finally:
            # a reply left unread would answer this socket's next request
            for w, _ in pending:
                self.peers.drop(w)
        return still

    def _lost(
        self, w: int, packets: List[Packet], still: List[Packet]
    ) -> None:
        """Peer ``w`` is unreachable: mark it dead and re-bucket its
        packets onto the next owners."""
        self.dead.add(w)
        self.failovers += len(packets)
        still.extend(packets)

    def _apply(
        self,
        w: int,
        packets: List[Packet],
        segments: Any,
        still: List[Packet],
        routes: List[Optional[Tuple[Any, ...]]],
    ) -> None:
        """Replay worker ``w``'s segments onto ``packets``."""
        if not isinstance(segments, (list, tuple)):
            raise WireProtocolError(
                f"FORWARD reply from worker {w} is "
                f"{type(segments).__name__}, want a segment list"
            )
        if len(segments) != len(packets):
            raise WireProtocolError(
                f"FORWARD reply from worker {w} has {len(segments)} "
                f"segments, want {len(packets)}"
            )
        for p, segment in zip(packets, segments):
            if not isinstance(segment, dict):
                raise WireProtocolError(
                    f"FORWARD segment from worker {w} is "
                    f"{type(segment).__name__}, want a dict"
                )
            state = segment.get("state")
            # a failed segment's partial hops are replayed first, so the
            # packet's position and accounting stay exact
            self._replay(p, segment, w)
            if state == "error":
                error = segment.get("error")
                if not (
                    isinstance(error, tuple)
                    and len(error) == 2
                    and all(isinstance(part, str) for part in error)
                ):
                    raise WireProtocolError(
                        f"error segment from worker {w} carries "
                        f"{error!r}, want (type, message)"
                    )
                if error[0] not in _FAILOVER_NAMES:
                    raise_remote(error[0], error[1], worker=w)
                self.quarantined.add((self.placement.group_of(p.current), w))
                self.failovers += 1
                still.append(p)
            elif state == "delivered":
                routes[p.index] = p.finished(
                    "delivered" if p.current == p.target else "misdelivered"
                )
            elif state in ("handoff", "exhausted"):
                if p.steps_left <= 0:
                    routes[p.index] = p.finished("loop")
                else:
                    still.append(p)
            else:
                raise WireProtocolError(
                    f"FORWARD segment from worker {w} has unknown state "
                    f"{state!r}"
                )

    def _replay(self, p: Packet, segment: Dict[str, Any], w: int) -> None:
        """Apply a segment's per-hop trace with the simulator's exact
        accumulation order."""
        hops = segment.get("hops", [])
        if not isinstance(hops, (list, tuple)):
            raise WireProtocolError(
                f"segment hops from worker {w} is "
                f"{type(hops).__name__}, want a list"
            )
        steps = segment.get("steps", 0)
        if not isinstance(steps, int) or isinstance(steps, bool):
            raise WireProtocolError(
                f"segment steps {steps!r} from worker {w} is not an int"
            )
        at = segment.get("at", p.current)
        if not isinstance(at, int) or isinstance(at, bool) or not (
            0 <= at < self.placement.n
        ):
            raise WireProtocolError(
                f"segment position {at!r} from worker {w} is not a vertex"
            )
        for hop in hops:
            if not (isinstance(hop, tuple) and len(hop) == 4):
                raise WireProtocolError(
                    f"segment hop {hop!r} from worker {w} is not "
                    f"(next, weight, words, phase)"
                )
            nxt, weight, words, phase = hop
            try:
                p.length += weight
                if words > p.max_header_words:
                    p.max_header_words = words
                p.phase_hops[phase] = p.phase_hops.get(phase, 0) + 1
            except TypeError as exc:
                raise WireProtocolError(
                    f"segment hop {hop!r} from worker {w} is not "
                    f"(next, weight, words, phase): {exc}"
                ) from exc
            p.path.append(nxt)
        p.steps_left -= steps
        p.current = at
        p.header = segment.get("header")
