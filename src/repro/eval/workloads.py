"""Workload generation: which (source, target) pairs to route.

The paper's guarantees are worst case over all pairs, so the default
evaluation routes either *all* ordered pairs (small graphs) or a seeded
uniform sample; a distance-stratified sampler is provided so stretch can be
reported per distance regime (local traffic exercises ball routing, distant
traffic exercises the techniques).
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Tuple

from ..graph.core import Graph
from ..graph.metric import MetricView

__all__ = [
    "FAMILIES",
    "family_graph",
    "all_pairs",
    "sample_pairs",
    "stratified_pairs",
]

#: the benchmark/CLI graph families (also the preset names of the specs)
FAMILIES = ["er", "grid", "ba", "geo"]


def family_graph(
    family: str, n: int, seed: int = 0, *, weighted: bool = False
) -> Graph:
    """The canonical test graph of one family at size ``n``.

    One definition shared by the CLI, the preset-frontier recorder and
    the benchmarks, so "thm11 on er at n=200" means the same graph
    everywhere.  ``geo`` graphs are intrinsically weighted (Euclidean
    edge lengths); the ``weighted`` flag is ignored there.
    """
    from ..graph.generators import (
        erdos_renyi,
        grid,
        preferential_attachment,
        random_geometric,
        with_random_weights,
    )

    if family == "er":
        g = erdos_renyi(n, 7.0 / max(n - 1, 1), seed=seed)
    elif family == "grid":
        side = max(2, int(round(n ** 0.5)))
        g = grid(side, side)
    elif family == "ba":
        g = preferential_attachment(n, 2, seed=seed)
    elif family == "geo":
        return random_geometric(n, 2.6 / n ** 0.5, seed=seed)
    else:
        raise ValueError(
            f"unknown graph family {family!r}; expected one of {FAMILIES}"
        )
    if weighted:
        g = with_random_weights(g, seed=seed + 1, low=1.0, high=8.0)
    return g


def all_pairs(n: int) -> Iterator[Tuple[int, int]]:
    """Every ordered pair of distinct vertices."""
    for u in range(n):
        for v in range(n):
            if u != v:
                yield (u, v)


def sample_pairs(n: int, count: int, seed: int = 0) -> List[Tuple[int, int]]:
    """``count`` uniform ordered pairs of distinct vertices (seeded)."""
    if n < 2:
        return []
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        pairs.append((u, v))
    return pairs


def stratified_pairs(
    metric: MetricView,
    per_bucket: int,
    buckets: int = 4,
    seed: int = 0,
) -> Dict[str, List[Tuple[int, int]]]:
    """Pairs grouped into ``buckets`` distance quantiles.

    Returns ``{"q1": [...], ...}`` with up to ``per_bucket`` pairs each,
    from nearest (``q1``) to farthest (``q<buckets>``).  On small-diameter
    unweighted graphs adjacent quantile edges can coincide; buckets that end
    up empty because their range collapsed are dropped from the result.
    """
    import numpy as np

    n = metric.n
    rng = random.Random(seed)
    # Blockwise row scan: quantile edges come from the row-oriented API,
    # so no n x n matrix is ever materialized (or pinned) here.
    positive_blocks = []
    for _, block in metric.iter_row_blocks():
        finite = block[np.isfinite(block)]
        positive_blocks.append(finite[finite > 0])
    positive = (
        np.concatenate(positive_blocks)
        if positive_blocks
        else np.zeros(0)
    )
    if positive.size == 0:
        return {}
    edges = np.quantile(positive, np.linspace(0, 1, buckets + 1))
    out: Dict[str, List[Tuple[int, int]]] = {
        f"q{i+1}": [] for i in range(buckets)
    }
    attempts = 0
    max_attempts = 200 * per_bucket * buckets
    while attempts < max_attempts and any(
        len(v) < per_bucket for v in out.values()
    ):
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        d = metric.d(u, v)
        # rightmost bucket whose interval contains d
        idx = int(np.searchsorted(edges, d, side="right")) - 1
        idx = min(max(idx, 0), buckets - 1)
        bucket = out[f"q{idx+1}"]
        if len(bucket) < per_bucket:
            bucket.append((u, v))
    return {key: pairs for key, pairs in out.items() if pairs}
