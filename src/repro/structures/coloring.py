"""The coloring technique (Lemma 6, after Abraham et al. / Abraham–Gavoille).

Given vertex sets ``S_1..S_k`` (in this repository: the balls
``B(u, q̃)``), color ``V`` with ``q`` colors such that

1. every set contains every color (so each ball holds a representative of
   every color class), and
2. every color class has ``O(n/q)`` vertices (the classes form the balanced
   partition ``U`` fed to the routing techniques).

The paper shows a uniformly random coloring works w.h.p. when the sets have
size ``Ω(q log n)``.  At reproduction scale we random-color, *verify* both
requirements, run a local repair pass for stragglers and retry with fresh
seeds; a coloring is only ever returned after verification, so downstream
code may rely on the two properties unconditionally.

:func:`find_hash_coloring` is the name-independent variant: the color of a
vertex is a seeded hash of its id, so any vertex can evaluate ``c(v)``
knowing only ``v``'s name and the (O(1)-word) seed.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ColoringError",
    "verify_coloring",
    "find_coloring",
    "find_hash_coloring",
    "color_classes",
    "color_reps",
    "hash_color",
]


class ColoringError(RuntimeError):
    """No valid Lemma-6 coloring was found; increase ball size (alpha)."""


def verify_coloring(
    colors: Sequence[int],
    sets: Sequence[Sequence[int]],
    q: int,
    *,
    max_class_size: Optional[float] = None,
) -> bool:
    """Check Lemma 6's two requirements for a candidate coloring."""
    for s in sets:
        present = {colors[v] for v in s}
        if len(present) < q:
            return False
    if max_class_size is not None:
        counts = [0] * q
        for c in colors:
            counts[c] += 1
        if max(counts, default=0) > max_class_size:
            return False
    return True


def _repair(
    colors: List[int],
    sets: Sequence[Sequence[int]],
    q: int,
    rng: random.Random,
    rounds: int = 20,
) -> None:
    """Local repair: recolor duplicated-in-set vertices to missing colors."""
    for _ in range(rounds):
        deficient = False
        for s in sets:
            present: dict[int, List[int]] = {}
            for v in s:
                present.setdefault(colors[v], []).append(v)
            missing = [c for c in range(q) if c not in present]
            if not missing:
                continue
            deficient = True
            donors = [
                v
                for c, members in present.items()
                if len(members) > 1
                for v in members[1:]
            ]
            rng.shuffle(donors)
            for c, v in zip(missing, donors):
                colors[v] = c
        if not deficient:
            return


def find_coloring(
    sets: Sequence[Sequence[int]],
    n: int,
    q: int,
    seed: int = 0,
    *,
    balance_factor: float = 4.0,
    max_tries: int = 48,
) -> List[int]:
    """Lemma 6 coloring of ``0..n-1`` with colors ``0..q-1``.

    Every set in ``sets`` will contain all ``q`` colors and every color
    class will have at most ``balance_factor * n / q`` vertices (never less
    than ``q`` vertices of slack, so tiny instances remain feasible).
    Raises :class:`ColoringError` when the sets are too small for ``q``
    colors — the caller should increase the ball-size constant ``alpha``.
    """
    if q < 1:
        raise ValueError(f"need at least one color, got {q}")
    if any(len(s) < q for s in sets):
        raise ColoringError(
            f"a set of size {min(len(s) for s in sets)} cannot contain "
            f"{q} distinct colors; increase ball size"
        )
    max_class = max(balance_factor * n / q, float(q))
    for attempt in range(max_tries):
        rng = random.Random(seed + 7919 * attempt)
        colors = [rng.randrange(q) for _ in range(n)]
        _repair(colors, sets, q, rng)
        if verify_coloring(colors, sets, q, max_class_size=max_class):
            return colors
    raise ColoringError(
        f"no valid coloring with q={q} after {max_tries} attempts; "
        f"increase ball size (alpha)"
    )


def hash_color(v: int, q: int, seed: int) -> int:
    """Deterministic seeded hash color of vertex ``v`` (name-independent)."""
    # splitmix64-style mixing; stable across processes (unlike hash()).
    x = (v + seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x = x ^ (x >> 31)
    return x % q


def find_hash_coloring(
    sets: Sequence[Sequence[int]],
    n: int,
    q: int,
    seed: int = 0,
    *,
    balance_factor: float = 4.0,
    max_tries: int = 256,
) -> Tuple[int, List[int]]:
    """Name-independent Lemma 6 coloring: ``c(v) = hash(v; seed) mod q``.

    Returns ``(hash_seed, colors)``.  Unlike :func:`find_coloring` there is
    no repair pass (the color must be computable from the name alone), so we
    only search over seeds.
    """
    if any(len(s) < q for s in sets):
        raise ColoringError(
            "sets too small to contain all colors; increase ball size"
        )
    max_class = max(balance_factor * n / q, float(q))
    for attempt in range(max_tries):
        hash_seed = seed + attempt + 1
        colors = [hash_color(v, q, hash_seed) for v in range(n)]
        if verify_coloring(colors, sets, q, max_class_size=max_class):
            return hash_seed, colors
    raise ColoringError(
        f"no valid hash coloring with q={q} after {max_tries} seeds; "
        f"increase ball size (alpha)"
    )


def color_classes(colors: Sequence[int], q: int) -> List[List[int]]:
    """The partition ``U = {U_1..U_q}`` induced by a coloring."""
    classes: List[List[int]] = [[] for _ in range(q)]
    for v, c in enumerate(colors):
        classes[c].append(v)
    return classes


def color_reps(
    ball: Sequence[int], colors: Sequence[int], q: int
) -> Dict[int, int]:
    """``color -> w`` for the first ``w`` of each of the ``q`` colors in
    ``B(u)`` (``ball``, ``u`` first), in ball order."""
    reps: Dict[int, int] = {}
    for w in ball:
        reps.setdefault(colors[w], w)
    if len(reps) < q:
        missing = sorted(set(range(q)) - set(reps))
        raise RuntimeError(
            f"B({ball[0]}) misses colors {missing} despite Lemma 6"
        )
    return reps
