"""Cluster-bounded sampling (Lemma 4, Thorup–Zwick's ``center`` algorithm).

Given a parameter ``s``, construct ``A ⊆ V`` with expected size
``O(s log n)`` such that every cluster ``C_A(w) = {v : d(w,v) < d(v,A)}``
has at most ``4n/s`` vertices.  The algorithm repeatedly samples, from the
current set of "oversized-cluster owners" ``W``, each vertex with
probability ``s/|W|``, adds the sample to ``A``, and recomputes ``W``; the
expected number of rounds is ``O(log n)``.

Cross-round cluster-size cache
------------------------------
Growing ``A`` only shrinks clusters (``A ⊆ A'`` implies
``C_{A'}(w) ⊆ C_A(w)``, because ``d(v, A)`` is pointwise non-increasing and
the membership comparison is strict), so a vertex whose cluster fits the
bound once can never become oversized again.  The sampler exploits this:
each round re-counts only the *previously oversized* owners, with the
metric's threshold scan over ``d(·, A)`` (each search settles exactly
``C_A(w)``, nothing beyond it), and maintains ``d(v, A)`` incrementally
from the freshly sampled members' rows.  The first round needs no
distance scan at all — with ``A = ∅`` every cluster is its owner's
connected component.  The candidate set and the RNG stream are *identical* to the rescan-everything
reference (``use_cache=False``), so both paths return the same set for the
same seed.

The returned set's postcondition (all clusters within the bound) is checked
before returning — a failed sample is retried, never silently accepted.
"""

from __future__ import annotations

import random
from typing import List, Optional

import numpy as np

from ..graph.metric import MetricView

__all__ = ["cluster_sizes", "sample_cluster_bounded"]


def _distance_to_set(metric: MetricView, members: List[int]) -> np.ndarray:
    """``d(v, A)`` for every vertex ``v`` (``inf`` for empty ``A``)."""
    if not members:
        return np.full(metric.n, np.inf)
    # Landmark columns are the landmark rows transposed (the canonical
    # row orientation), which keeps this O(|A| * n) memory.
    return metric.columns(members).min(axis=1)


def cluster_sizes(metric: MetricView, members: List[int]) -> np.ndarray:
    """``|C_A(w)|`` for every ``w`` with ``A = members``.

    ``C_A(w) = {v : d(w, v) < d(v, A)}`` (strict, following the paper).
    Counted by the metric's threshold scan, which settles each cluster
    and nothing else, so no row is read and no ``n x n`` comparison
    matrix is ever materialized.
    """
    d_to_a = _distance_to_set(metric, members)
    return metric.count_rows_below(d_to_a)


def sample_cluster_bounded(
    metric: MetricView,
    s: float,
    seed: int = 0,
    *,
    bound_factor: float = 4.0,
    max_rounds: int = 200,
    use_cache: bool = True,
) -> List[int]:
    """Lemma 4: a set ``A`` with ``|C_A(w)| <= bound_factor * n / s`` for all w.

    Parameters
    ----------
    metric:
        Exact metric of the graph.
    s:
        Size parameter; the expected size of ``A`` is ``O(s log n)``.
    bound_factor:
        The ``4`` of the paper's ``4n/s`` bound.
    use_cache:
        Keep the cross-round cluster-size cache (see the module
        docstring).  ``False`` re-counts every vertex from scratch each
        round — the reference path, kept for differential tests and
        benchmarks; both paths draw identical samples for the same seed.
    """
    n = metric.n
    if n == 0:
        return []
    if s <= 0:
        raise ValueError(f"sample parameter s must be positive, got {s}")
    bound = bound_factor * n / s
    rng = random.Random(seed)
    a: set[int] = set()
    # Cross-round state: d(v, A) so far, and the still-suspect owners
    # (None = first round, where cluster sizes are component sizes).
    thr = np.full(n, np.inf)
    candidates: Optional[List[int]] = None
    for _ in range(max_rounds):
        if not use_cache:
            sizes = cluster_sizes(metric, sorted(a))
            oversized = [w for w in range(n) if sizes[w] > bound]
        elif candidates is None:
            # A = ∅: every cluster is its owner's connected component —
            # component sizes need no distance computation at all.
            comp_sizes = np.zeros(n, dtype=np.int64)
            for comp in metric.graph.connected_components():
                comp_sizes[comp] = len(comp)
            oversized = [w for w in range(n) if comp_sizes[w] > bound]
        else:
            sizes = metric.count_rows_below(thr, sources=candidates)
            oversized = [
                w for w, sz in zip(candidates, sizes) if sz > bound
            ]
        if not oversized:
            return sorted(a)
        p = min(1.0, s / len(oversized))
        newly = {w for w in oversized if rng.random() < p}
        if not newly:
            # Guarantee progress on unlucky draws.
            newly = {rng.choice(oversized)}
        a |= newly
        if use_cache:
            # Fold the fresh members into d(v, A) — |newly| rows instead
            # of re-deriving the whole landmark set — and shrink the
            # suspect set (cluster sizes only ever decrease).
            new_rows = metric.rows(sorted(newly))
            np.minimum(thr, new_rows.min(axis=0), out=thr)
            candidates = oversized
    raise RuntimeError(
        f"cluster-bounded sampling did not converge in {max_rounds} rounds "
        f"(n={n}, s={s})"
    )
