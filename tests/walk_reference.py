"""Test-side references for the Lemma 7 and Lemma 8 waypoint walks.

These are the walks the library once ran: every step a
:meth:`~repro.graph.metric.MetricView.next_hop` call, which looks the
target's hop column up in the metric's LRU.  The library now reads the
column once per target as a list and walks it with
:func:`repro.graph.metric.hop_path`
(:func:`repro.core.sequences.build_lemma7_sequence`,
:func:`repro.core.sequences.build_lemma8_sequence`,
:meth:`repro.structures.balls.BallFamily.boundary_edge`); the parity
tests hold it to these references.  They have no step bound: on a
cycling hop column they walk forever, so only run them on graphs whose
columns are trees.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.sequences import Lemma7Sequence, Lemma8Sequence
from repro.graph.metric import MetricView
from repro.structures.balls import BallFamily


def reference_boundary_edge(
    family: BallFamily, u: int, v: int
) -> Tuple[int, int]:
    """``(y, z)``: the first edge of the ``u``–``v`` walk leaving
    ``B(u)``, one ``next_hop`` per step."""
    if family.contains(u, v):
        raise ValueError(f"{v} is inside B({u}); no boundary edge")
    prev = u
    cur = u
    while family.contains(u, cur):
        prev = cur
        cur = family.metric.next_hop(cur, v)
    return prev, cur


def reference_lemma7_sequence(
    metric: MetricView,
    family: BallFamily,
    hitting: Sequence[int],
    u: int,
    v: int,
    b: int,
    *,
    d_uv: float,
) -> Lemma7Sequence:
    """The Lemma 7 process over :func:`reference_boundary_edge`."""
    hitting_set = set(hitting)
    s = d_uv / b
    waypoints: List[int] = []
    x = u

    def push(vertex: int) -> None:
        if vertex != u and (not waypoints or waypoints[-1] != vertex):
            waypoints.append(vertex)

    for _ in range(b + 2):
        if family.contains(x, v):
            push(v)
            return Lemma7Sequence(tuple(waypoints), hub=None)
        y, z = reference_boundary_edge(family, x, v)
        if z == v:
            push(y)
            push(v)
            return Lemma7Sequence(tuple(waypoints), hub=None)
        if s > family.radius(x) and metric.d(x, z) < s:
            hub = next(h for h in family.ball(x) if h in hitting_set)
            push(hub)
            return Lemma7Sequence(tuple(waypoints), hub=hub)
        push(y)
        push(z)
        x = z
    raise RuntimeError(f"Lemma 7 sequence for ({u},{v}) did not end")


def reference_lemma8_sequence(
    metric: MetricView,
    family: BallFamily,
    relay_pool: Callable[[int], Optional[int]],
    u: int,
    w: int,
    b: int,
    lam: float,
) -> Lemma8Sequence:
    """The Lemma 8 process over :func:`reference_boundary_edge`."""
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

    diameter = max(metric.diameter_bound(), lam)
    max_rounds = int(math.log2(max(2.0, metric.n * diameter / lam))) + 4
    x = u2
    s = 2.0 * lam / b
    for _ in range(max_rounds):
        added = 0
        xi = x
        while True:
            if family.contains(xi, w):
                push(w)
                return Lemma8Sequence(tuple(waypoints), to_relay=False)
            y, z = reference_boundary_edge(family, xi, w)
            if z == w:
                push(y)
                push(w)
                return Lemma8Sequence(tuple(waypoints), to_relay=False)
            if s > family.radius(xi) and metric.d(xi, z) < s:
                push(relay_pool(xi))
                return Lemma8Sequence(tuple(waypoints), to_relay=True)
            push(y)
            push(z)
            added += 2
            xi = z
            if added >= 2 * b:
                break
        x = xi
        s *= 2.0
    raise RuntimeError(f"Lemma 8 sequence for ({u},{w}) did not end")
