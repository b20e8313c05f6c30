"""Route driving inside a worker: the one routing loop of the cluster.

A client hands each packet once, in a ``MSG_ROUTE`` frame, to the live
owner of its source's group.  That worker's :class:`RoutePump` then
drives the frame to completion in rounds:

* it buckets the packets by the live owner of their current vertex's
  group (the first owner in :class:`~repro.cluster.placement.Placement`
  order that is neither dead nor quarantined, as this pump has seen
  them; the group-to-owner map is recomputed only when a death or a
  quarantine changes it),
* it sends each peer's bucket as one stateless ``MSG_FORWARD`` straight
  to that peer, steps its own bucket in-process through the worker's
  FORWARD implementation (no codec), then collects the peers' replies,
* it replays every reply's hop columns (next vertices, weights, header
  words, phase indices into the reply's phase names) in hop order,
  exactly the accumulation order of :func:`repro.routing.simulator.route`,
  so path, float ``length``, ``max_header_words`` and ``phase_hops`` are
  bit-identical to the single-process loop.

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

__all__ = [
    "DELIVERED",
    "ERROR",
    "EXHAUSTED",
    "HANDOFF",
    "ForwardReply",
    "Packet",
    "RoutePump",
    "budget_cap",
    "live_owner",
]

#: typed data faults that justify trying the next replica owner — the
#: same set that drives ShardStore's on-disk failover
FAILOVER_ERRORS = (
    ShardUnavailableError, ShardIntegrityError, ReplicaExhaustedError
)
_FAILOVER_NAMES = frozenset(cls.__name__ for cls in FAILOVER_ERRORS)

#: what a finished route's outcome may be, on the wire
OUTCOMES = ("delivered", "loop", "misdelivered")

#: how a FORWARD segment ended, the ``states`` column of its reply
DELIVERED, HANDOFF, EXHAUSTED, ERROR = 0, 1, 2, 3
#: columns of a FORWARD reply: phase names, then five per-segment
#: columns (states, ats, headers, steps, hop counts), then four per-hop
#: columns (nexts, weights, words, phase indices), then the errors
REPLY_COLUMNS = 11

#: local stepping: ``(drive groups, FORWARD packet tuples) -> reply``
StepFn = Callable[[Tuple[List[int], List[Tuple[Any, ...]]]], Tuple[Any, ...]]


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


class ForwardReply:
    """One FORWARD reply, built segment by segment by the stepping
    worker: the columns :meth:`RoutePump._apply` reads (the layout is
    documented with ``MSG_FORWARD`` in :mod:`repro.cluster.wire`)."""

    __slots__ = (
        "phases", "states", "ats", "headers", "steps", "counts",
        "nexts", "weights", "words", "phase_ids", "errors", "_start",
    )

    def __init__(self) -> None:
        #: phase name -> its index, in order of first use
        self.phases: Dict[str, int] = {}
        self.states: List[int] = []
        self.ats: List[int] = []
        self.headers: List[Any] = []
        self.steps: List[int] = []
        self.counts: List[int] = []
        self.nexts: List[int] = []
        self.weights: List[float] = []
        self.words: List[int] = []
        self.phase_ids: List[int] = []
        self.errors: List[Tuple[int, str, str]] = []
        # where the open segment's hops start in the hop columns
        self._start = 0

    def hop(self, nxt: int, weight: float, words: int, phase: str) -> None:
        """One hop of the open segment."""
        phase_id = self.phases.get(phase)
        if phase_id is None:
            phase_id = self.phases[phase] = len(self.phases)
        self.nexts.append(nxt)
        self.weights.append(weight)
        self.words.append(words)
        self.phase_ids.append(phase_id)

    def end(
        self,
        state: int,
        at: int,
        header: Any,
        steps: int,
        error: Optional[Tuple[str, str]] = None,
    ) -> None:
        """Close the open segment; ``error`` is the ``(type name,
        message)`` of an ``ERROR`` segment."""
        if error is not None:
            self.errors.append((len(self.states), error[0], error[1]))
        self.states.append(state)
        self.ats.append(at)
        self.headers.append(header)
        self.steps.append(steps)
        self.counts.append(len(self.nexts) - self._start)
        self._start = len(self.nexts)

    def columns(self) -> Tuple[List[Any], ...]:
        """The reply, in wire order."""
        return (
            list(self.phases), self.states, self.ats, self.headers,
            self.steps, self.counts, self.nexts, self.weights,
            self.words, self.phase_ids, self.errors,
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
        # group -> live owner and owner -> drive groups, with the sizes
        # of ``dead`` and ``quarantined`` they were computed at: both
        # sets only grow, so their sizes name their contents
        self._owner: Dict[int, int] = {}
        self._drive: Dict[int, List[int]] = {}
        self._owners_at: Optional[Tuple[int, int]] = None

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
        owner, drive = self._owners()
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
                reply = self.step(
                    (drive[self.worker_id], [p.forwarded() for p in local])
                )
                self._apply(self.worker_id, local, reply, still, routes)
            while pending:
                w, started = pending.pop(0)
                try:
                    reply = self.peers.receive(w, MSG_FORWARD, started)
                except WorkerUnavailableError:
                    self._lost(w, buckets[w], still)
                    continue
                self._apply(w, buckets[w], reply, still, routes)
        finally:
            # a reply left unread would answer this socket's next request
            for w, _ in pending:
                self.peers.drop(w)
        return still

    def _owners(self) -> Tuple[Dict[int, int], Dict[int, List[int]]]:
        """Every group's live owner and every owner's drive groups,
        recomputed only when ``dead`` or ``quarantined`` grew.  A group
        with no live owner is left out; bucketing a packet there raises
        :class:`ReplicaExhaustedError` with the causes."""
        at = (len(self.dead), len(self.quarantined))
        if at != self._owners_at:
            placement = self.placement
            owner: Dict[int, int] = {}
            drive: Dict[int, List[int]] = {}
            for g in range(placement.groups):
                try:
                    w = live_owner(
                        placement, g, self.dead, self.quarantined
                    )
                except ReplicaExhaustedError:
                    continue
                owner[g] = w
                drive.setdefault(w, []).append(g)
            self._owner, self._drive, self._owners_at = owner, drive, at
        return self._owner, self._drive

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
        reply: Any,
        still: List[Packet],
        routes: List[Optional[Tuple[Any, ...]]],
    ) -> None:
        """Replay worker ``w``'s FORWARD reply onto ``packets``: each
        segment's hops in hop order (a failed segment's partial hops
        too, so the packet's position and accounting stay exact), then
        its outcome.  A reply of the wrong shape raises
        :class:`WireProtocolError`; a segment's non-failover error is
        re-raised typed."""
        (
            names, states, ats, headers, steps, counts,
            nexts, weights, words, phase_ids, errors,
        ) = _columns(w, reply, len(packets))
        failed = _errors(w, errors, states)
        n = self.placement.n
        phase_count = len(names)
        total = len(nexts)
        hop = 0
        for i, p in enumerate(packets):
            state = states[i]
            at = ats[i]
            step = steps[i]
            count = counts[i]
            if type(state) is not int or not 0 <= state <= ERROR:
                raise _malformed(w, f"segment {i} state {state!r}")
            if type(at) is not int or not 0 <= at < n:
                raise _malformed(w, f"segment {i} position {at!r}")
            if type(step) is not int or not 0 <= step <= p.steps_left:
                raise _malformed(
                    w, f"segment {i} steps {step!r} (budget "
                    f"{p.steps_left})"
                )
            if (
                type(count) is not int
                or not 0 <= count <= step
                or hop + count > total
            ):
                raise _malformed(
                    w, f"segment {i} hop count {count!r} ({step} steps, "
                    f"{total - hop} hops left)"
                )
            if count:
                length = p.length
                most = p.max_header_words
                tally = p.phase_hops
                path = p.path
                for j in range(hop, hop + count):
                    nxt = nexts[j]
                    weight = weights[j]
                    word = words[j]
                    phase = phase_ids[j]
                    if (
                        type(nxt) is not int
                        or not 0 <= nxt < n
                        or (type(weight) is not float
                            and type(weight) is not int)
                        or type(word) is not int
                        or type(phase) is not int
                        or not 0 <= phase < phase_count
                    ):
                        raise _malformed(
                            w, f"hop {j} ({nxt!r}, {weight!r}, {word!r}, "
                            f"{phase!r}) is not (vertex, weight, words, "
                            f"phase index)"
                        )
                    length += weight
                    if word > most:
                        most = word
                    name = names[phase]
                    tally[name] = tally.get(name, 0) + 1
                    path.append(nxt)
                p.length = length
                p.max_header_words = most
                hop += count
            p.steps_left -= step
            p.current = at
            p.header = headers[i]
            if state == ERROR:
                name, message = failed[i]
                if name not in _FAILOVER_NAMES:
                    raise_remote(name, message, worker=w)
                self.quarantined.add((self.placement.group_of(at), w))
                self.failovers += 1
                still.append(p)
            elif state == DELIVERED:
                routes[p.index] = p.finished(
                    "delivered" if at == p.target else "misdelivered"
                )
            elif p.steps_left <= 0:
                routes[p.index] = p.finished("loop")
            else:
                still.append(p)
        if hop != total:
            raise _malformed(w, f"{total - hop} hops past the last segment")


def _malformed(w: int, what: str) -> WireProtocolError:
    return WireProtocolError(f"FORWARD reply from worker {w}: {what}")


def _columns(w: int, reply: Any, segments: int) -> Tuple[Any, ...]:
    """``reply``'s columns, checked for type and length only (their
    cells are checked as :meth:`RoutePump._apply` reads them)."""
    if type(reply) is not tuple or len(reply) != REPLY_COLUMNS:
        raise _malformed(
            w, f"a {type(reply).__name__}, want a tuple of "
            f"{REPLY_COLUMNS} columns"
        )
    for k, column in enumerate(reply):
        if type(column) is not list and type(column) is not tuple:
            raise _malformed(
                w, f"column {k} is a {type(column).__name__}, want a list"
            )
    if not all(type(name) is str for name in reply[0]):
        raise _malformed(w, f"phase names {reply[0]!r} are not all str")
    for k in range(1, 6):
        if len(reply[k]) != segments:
            raise _malformed(
                w, f"column {k} has {len(reply[k])} segments, want "
                f"{segments}"
            )
    hops = len(reply[6])
    for k in range(7, 10):
        if len(reply[k]) != hops:
            raise _malformed(
                w, f"column {k} has {len(reply[k])} hops, want {hops}"
            )
    return reply


def _errors(
    w: int, errors: Any, states: Any
) -> Dict[int, Tuple[str, str]]:
    """The ``(type name, message)`` of every failed segment, by segment
    index: exactly one entry per ``ERROR`` state."""
    failed: Dict[int, Tuple[str, str]] = {}
    for entry in errors:
        if not (
            type(entry) is tuple
            and len(entry) == 3
            and type(entry[0]) is int
            and 0 <= entry[0] < len(states)
            and states[entry[0]] == ERROR
            and entry[0] not in failed
            and type(entry[1]) is str
            and type(entry[2]) is str
        ):
            raise _malformed(
                w, f"error entry {entry!r} is not (failed segment, "
                f"type, message)"
            )
        failed[entry[0]] = (entry[1], entry[2])
    if len(failed) != sum(1 for state in states if state == ERROR):
        raise _malformed(w, "a failed segment has no error entry")
    return failed
