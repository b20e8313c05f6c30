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

Both walk the shortest path toward the target along the target's hop
column (:meth:`~repro.graph.metric.MetricView.hop_column`), read as a
Python list once per target: callers building every sequence toward one
target pass it as ``hops``.  Each boundary edge ``(y, z)`` is the last
step of one :func:`~repro.graph.metric.hop_path` over it, the walk of
:meth:`~repro.structures.balls.BallFamily.boundary_edge`, bounded at
``n`` steps.  So a walk step is a list index, not a hop-column lookup,
and a cycling column raises :class:`~repro.graph.metric.HopWalkError`
instead of hanging.

Sequences never contain the source itself; consecutive duplicates are
impossible by construction but the routing loop skips them defensively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Container, List, Optional, Sequence, Tuple

from ..graph.metric import MetricView, hop_path
from ..structures.balls import BallFamily

__all__ = [
    "Lemma7Sequence",
    "Lemma8Sequence",
    "build_lemma7_sequence",
    "build_lemma8_sequence",
    "lemma7_waypoints",
    "lemma8_waypoints",
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
    hops: Optional[Sequence[int]] = None,
) -> Lemma7Sequence:
    """Compute the Lemma 7 waypoint sequence from ``u`` to ``v``.

    Parameters
    ----------
    hitting:
        A hitting set for all balls of ``family`` (Lemma 5).  Passing a
        ``set``/``frozenset`` avoids the per-call O(|H|) conversion.
    b:
        The paper's ``b = ceil(2 / eps)``; the progress threshold is
        ``s = d(u, v) / b``.
    d_uv:
        ``d(u, v)``, read from ``u``'s row: callers building many
        sequences gather it in one batched sweep.
    hops:
        ``v``'s hop column as a list; read here when omitted, so callers
        walking toward one ``v`` from many sources pass it once.
    """
    if u == v:
        raise ValueError("no sequence for a vertex to itself")
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    hitting_set = (
        hitting if isinstance(hitting, (set, frozenset)) else set(hitting)
    )
    if hops is None:
        hops = metric.hop_column(v).tolist()
    waypoints, hub = lemma7_waypoints(
        metric, family, hitting_set, u, v, b, d_uv, hops
    )
    return Lemma7Sequence(waypoints, hub)


def lemma7_waypoints(
    metric: MetricView,
    family: BallFamily,
    hitting_set: Container[int],
    u: int,
    v: int,
    b: int,
    d_uv: float,
    hops: Sequence[int],
) -> Tuple[Tuple[int, ...], Optional[int]]:
    """The Lemma 7 process behind :func:`build_lemma7_sequence`, as
    ``(waypoints, hub)`` and without its argument checks: the form
    :class:`~repro.core.technique1.Technique1` runs once per same-class
    pair."""
    ball_sets = family.ball_sets()
    radii = family.radii()
    s = d_uv / b
    waypoints: List[int] = []
    last = u  # never store the source (the routing loop starts at u)

    x = u
    for _ in range(b + 2):
        ball = ball_sets[x]
        if v in ball:
            if v != last:
                waypoints.append(v)
            return tuple(waypoints), None
        path = hop_path(hops, x, v, ball)
        y, z = path[-2], path[-1]
        # z lies outside B(x), so d(x, z) >= r(x): s <= r(x) settles the
        # test without reading x's distance row (as in Lemma 8 below).
        if z != v and s > radii[x] and metric.d(x, z) < s:
            hub = next(
                (h for h in family.ball(x) if h in hitting_set), None
            )
            if hub is None:
                raise RuntimeError(
                    f"hitting set misses B({x}); Lemma 5 postcondition broken"
                )
            if hub != u and hub != last:
                waypoints.append(hub)
            return tuple(waypoints), hub
        for w in (y, z):
            if w != u and w != last:
                waypoints.append(w)
                last = w
        if z == v:
            return tuple(waypoints), None
        x = z
    raise RuntimeError(
        f"Lemma 7 sequence for ({u},{v}) exceeded {b + 2} rounds; "
        "threshold accounting is broken"
    )


def build_lemma8_sequence(
    metric: MetricView,
    family: BallFamily,
    relay_pool: Callable[[int], Optional[int]],
    u: int,
    w: int,
    b: int,
    lam: float,
    *,
    hops: Optional[Sequence[int]] = None,
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
    hops:
        ``w``'s hop column as a list, as in :func:`build_lemma7_sequence`.
    """
    if u == w:
        raise ValueError("no sequence for a vertex to itself")
    if lam <= 0:
        raise ValueError(f"normalization weight must be positive, got {lam}")
    if hops is None:
        hops = metric.hop_column(w).tolist()
    return Lemma8Sequence(
        *lemma8_waypoints(metric, family, relay_pool, u, w, b, lam, hops)
    )


def lemma8_waypoints(
    metric: MetricView,
    family: BallFamily,
    relay_pool: Callable[[int], Optional[int]],
    u: int,
    w: int,
    b: int,
    lam: float,
    hops: Sequence[int],
) -> Tuple[Tuple[int, ...], bool]:
    """The Lemma 8 process behind :func:`build_lemma8_sequence`, as
    ``(waypoints, to_relay)`` and without its argument checks: the form
    :class:`~repro.core.technique2.Technique2` runs once per pair."""
    waypoints: List[int] = []
    last = u  # never store the source (the routing loop starts at u)

    # The first two path vertices: one-step walks from u, then from u1.
    x = u
    for _ in range(2):
        x = hop_path(hops, x, w, (x,))[1]
        if x != u and x != last:
            waypoints.append(x)
            last = x
        if x == w:
            return tuple(waypoints), False

    # Subsequence cap: path lengths are below n * max-distance, thresholds
    # double, so log2(n * D) + slack rounds always suffice.  Only a cap,
    # so any upper bound on D serves: the O(m) weight sum, not a scan.
    diameter = max(metric.diameter_bound(), lam)
    max_rounds = int(math.log2(max(2.0, metric.n * diameter / lam))) + 4
    ball_sets = family.ball_sets()
    radii = family.radii()
    s = 2.0 * lam / b
    for _ in range(max_rounds):
        # One subsequence with threshold s: it ends at w, at a relay, or
        # full (2b vertices added), handing over to a doubled threshold.
        added = 0
        while added < 2 * b:
            ball = ball_sets[x]
            if w in ball:
                if w != last:
                    waypoints.append(w)
                return tuple(waypoints), False
            path = hop_path(hops, x, w, ball)
            y, z = path[-2], path[-1]
            # z lies outside B(x), a (dist, id) prefix, so d(x, z) is at
            # least the ball's radius: s <= r(x) settles the test without
            # reading x's distance row.
            if z != w and s > radii[x] and metric.d(x, z) < s:
                relay = relay_pool(x)
                if relay is None:
                    raise RuntimeError(
                        f"no relay of the source class in B({x}); "
                        "Lemma 6 hitting property broken"
                    )
                if relay != u and relay != last:
                    waypoints.append(relay)
                return tuple(waypoints), True
            for p in (y, z):
                if p != u and p != last:
                    waypoints.append(p)
                    last = p
            if z == w:
                return tuple(waypoints), False
            added += 2
            x = z
        s *= 2.0
    raise RuntimeError(
        f"Lemma 8 sequence for ({u},{w}) exceeded {max_rounds} subsequences; "
        "geometric threshold accounting is broken"
    )
