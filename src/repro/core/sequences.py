"""Waypoint-sequence construction — the combinatorial core of Lemmas 7 and 8.

Both routing techniques store, per (source, destination) pair, a short
sequence of *waypoints* along a shortest path.  Every waypoint is reachable
from the routing position either through ball routing (it lies in the
current vertex's vicinity) or over a single direct link, so a constant
number of words per waypoint suffices to follow an (almost) shortest path
arbitrarily far.

:func:`build_lemma7_sequence`
    The Lemma 7 process: walk the shortest path ``u -> v``; while the
    remaining step to the ball boundary advances at least ``s = d(u,v)/b``,
    record the boundary edge ``(y, z)`` and continue from ``z``; otherwise
    finish, either at ``v`` itself or at a *hitting-set* vertex ``w ∈ H``
    inside the current ball (the message then rides the global shortest-path
    tree ``T(w)``).  At most ``2b + 2`` waypoints.

:func:`build_lemma8_sequence`
    The Lemma 8 process: the first two path vertices, then *subsequences*
    with geometrically doubling thresholds ``s_k = 2^k * lam / b`` (``lam``
    is the minimum shortest-path edge weight, the paper's normalization).
    A subsequence ends at ``w``, or at a *relay* vertex of the source's own
    partition class (which owns its own stored sequence for ``w`` —
    Claim 9 guarantees the relay is strictly closer to ``w``), or fills up
    (``2b`` vertices) and hands over to the next threshold.  At most
    ``O(log (n * D))`` subsequences.

Sequences never contain the source itself; consecutive duplicates are
impossible by construction but the routing loop skips them defensively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..graph.metric import MetricView
from ..structures.balls import BallFamily

__all__ = [
    "Lemma7Sequence",
    "Lemma8Sequence",
    "build_lemma7_sequence",
    "build_lemma8_sequence",
]


@dataclass(frozen=True)
class Lemma7Sequence:
    """Stored routing information of one Lemma 7 pair ``(u, v)``.

    ``waypoints`` is the paper's ``<x_1 .. x_b'>``; when ``hub`` is not
    ``None`` the sequence ends at that hitting-set vertex and the message
    finishes on the global shortest-path tree rooted there.  The routing
    loop identifies the hub as "the vertex where the waypoints ran out", so
    the hub id itself need not travel in the header.
    """

    waypoints: Tuple[int, ...]
    hub: Optional[int]

    @property
    def via_hub(self) -> bool:
        return self.hub is not None

    def words(self) -> int:
        return len(self.waypoints) + 1


@dataclass(frozen=True)
class Lemma8Sequence:
    """Stored routing information of one Lemma 8 pair ``(u, w)``.

    When ``to_relay`` is set the final waypoint is a relay in the source's
    partition class; the relay continues with its own stored sequence.
    """

    waypoints: Tuple[int, ...]
    to_relay: bool

    def words(self) -> int:
        return len(self.waypoints) + 1


def build_lemma7_sequence(
    metric: MetricView,
    family: BallFamily,
    hitting: Sequence[int],
    u: int,
    v: int,
    b: int,
    *,
    d_uv: float,
) -> Lemma7Sequence:
    """Compute the Lemma 7 waypoint sequence from ``u`` to ``v``.

    Parameters
    ----------
    hitting:
        A hitting set for all balls of ``family`` (Lemma 5).  Passing a
        ``set``/``frozenset`` avoids the per-call O(|H|) conversion — this
        function runs once per same-class (source, destination) pair.
    b:
        The paper's ``b = ceil(2 / eps)``; the progress threshold is
        ``s = d(u, v) / b``.
    d_uv:
        ``d(u, v)``, read from ``u``'s row: callers building many
        sequences gather it in one batched sweep.
    """
    if u == v:
        raise ValueError("no sequence for a vertex to itself")
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    hitting_set = (
        hitting if isinstance(hitting, (set, frozenset)) else set(hitting)
    )
    s = d_uv / b
    waypoints: List[int] = []
    x = u

    def push(vertex: int) -> None:
        # Never store the source; the routing loop starts at u.
        if vertex != u and (not waypoints or waypoints[-1] != vertex):
            waypoints.append(vertex)

    for _ in range(b + 2):
        if family.contains(x, v):
            push(v)
            return Lemma7Sequence(tuple(waypoints), hub=None)
        y, z = family.boundary_edge(x, v)
        if z == v:
            push(y)
            push(v)
            return Lemma7Sequence(tuple(waypoints), hub=None)
        # z lies outside B(x), so d(x, z) >= r(x): s <= r(x) settles the
        # test without reading x's distance row (as in Lemma 8 below).
        if s > family.radius(x) and metric.d(x, z) < s:
            hub = next(
                (h for h in family.ball(x) if h in hitting_set), None
            )
            if hub is None:
                raise RuntimeError(
                    f"hitting set misses B({x}); Lemma 5 postcondition broken"
                )
            push(hub)
            return Lemma7Sequence(tuple(waypoints), hub=hub)
        push(y)
        push(z)
        x = z
    raise RuntimeError(
        f"Lemma 7 sequence for ({u},{v}) exceeded {b} rounds; "
        "threshold accounting is broken"
    )


def _lemma8_subsequence(
    metric: MetricView,
    family: BallFamily,
    relay_pool: Callable[[int], Optional[int]],
    x: int,
    w: int,
    s: float,
    b: int,
    push: Callable[[int], None],
) -> Tuple[str, int]:
    """One Lemma 8 subsequence from start vertex ``x`` with threshold ``s``.

    Returns ``(state, last_vertex)`` where state is ``"w"`` (reached the
    target), ``"relay"`` (ended at a relay) or ``"full"`` (2b vertices
    added; continue with a doubled threshold from ``last_vertex``).
    """
    added = 0
    xi = x
    while True:
        if family.contains(xi, w):
            push(w)
            return "w", w
        y, z = family.boundary_edge(xi, w)
        if z == w:
            push(y)
            push(w)
            return "w", w
        # z lies outside B(xi), a (dist, id) prefix, so d(xi, z) is at
        # least the ball's radius: s <= r(xi) settles the test without
        # reading xi's distance row.
        if s > family.radius(xi) and metric.d(xi, z) < s:
            relay = relay_pool(xi)
            if relay is None:
                raise RuntimeError(
                    f"no relay of the source class in B({xi}); "
                    "Lemma 6 hitting property broken"
                )
            push(relay)
            return "relay", relay
        push(y)
        push(z)
        added += 2
        xi = z
        if added >= 2 * b:
            return "full", z


def build_lemma8_sequence(
    metric: MetricView,
    family: BallFamily,
    relay_pool: Callable[[int], Optional[int]],
    u: int,
    w: int,
    b: int,
    lam: float,
) -> Lemma8Sequence:
    """Compute the Lemma 8 sequence from ``u`` toward ``w``.

    Parameters
    ----------
    relay_pool:
        ``x -> relay`` returning a vertex of the *source's* partition class
        inside ``B(x)`` (or ``None``, which is a construction error because
        the class hits every ball by Lemma 6).
    b:
        The paper's ``b = ceil(2/eps) + 1``.
    lam:
        Minimum shortest-path edge weight (``omega_min``); thresholds are
        ``s_k = 2^k * lam / b``.
    """
    if u == w:
        raise ValueError("no sequence for a vertex to itself")
    if lam <= 0:
        raise ValueError(f"normalization weight must be positive, got {lam}")
    waypoints: List[int] = []

    def push(vertex: int) -> None:
        if vertex != u and (not waypoints or waypoints[-1] != vertex):
            waypoints.append(vertex)

    u1 = metric.next_hop(u, w)
    push(u1)
    if u1 == w:
        return Lemma8Sequence(tuple(waypoints), to_relay=False)
    u2 = metric.next_hop(u1, w)
    push(u2)
    if u2 == w:
        return Lemma8Sequence(tuple(waypoints), to_relay=False)

    # Subsequence cap: path lengths are below n * max-distance, thresholds
    # double, so log2(n * D) + slack rounds always suffice.  Only a cap,
    # so any upper bound on D serves: the O(m) weight sum, not a scan.
    diameter = max(metric.diameter_bound(), lam)
    max_rounds = int(math.log2(max(2.0, metric.n * diameter / lam))) + 4
    x = u2
    s = 2.0 * lam / b
    for _ in range(max_rounds):
        state, last = _lemma8_subsequence(
            metric, family, relay_pool, x, w, s, b, push
        )
        if state == "w":
            return Lemma8Sequence(tuple(waypoints), to_relay=False)
        if state == "relay":
            return Lemma8Sequence(tuple(waypoints), to_relay=True)
        x = last
        s *= 2.0
    raise RuntimeError(
        f"Lemma 8 sequence for ({u},{w}) exceeded {max_rounds} subsequences; "
        "geometric threshold accounting is broken"
    )
