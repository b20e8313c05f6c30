"""Metric memory: peak allocation grows sub-quadratically in n.

``MetricView`` keeps only an LRU of rows, so building the ball family on
it must scale well below an all-pairs float64 matrix.  Measured with
``tracemalloc`` over metric + ``BallFamily`` construction on the
paper-style workload (``m ~ 4n``, ``ell = ceil(sqrt(n log2 n))``), the
peak's scaling exponent ``log2(peak(2n) / peak(n))`` stays below 1.9,
and the peak at the larger n stays below that matrix's ``8 n^2`` bytes.

The sizes are n = 1000 -> 2000, where the default row LRU is full; at
n = 500 -> 1000 it is not, and the exponent reads about 2.  Each graph
is built and its ball family computed once untraced, so process-wide
buffers are at their steady size before tracing and the result does not
depend on what ran earlier in the process.
"""

import math
import tracemalloc

from repro.graph.generators import erdos_renyi
from repro.graph.metric import MetricView
from repro.structures.balls import BallFamily


def _workload(n):
    g = erdos_renyi(n, 8.0 / (n - 1), seed=7)
    return g, max(1, int(math.ceil(math.sqrt(n * math.log2(n)))))


def _traced_peak(g, ell):
    tracemalloc.start()
    try:
        family = BallFamily(MetricView(g), ell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert family.n == g.n
    return peak


def test_lazy_peak_memory_is_subquadratic():
    small, large = _workload(1000), _workload(2000)
    for g, ell in (small, large):
        BallFamily(MetricView(g), ell)  # warm, untraced
    lazy_small = _traced_peak(*small)
    lazy_large = _traced_peak(*large)
    exponent = math.log(lazy_large / lazy_small, 2)
    assert exponent < 1.9, (lazy_small, lazy_large)
    assert lazy_large < 8 * large[0].n ** 2, lazy_large
