"""Builds whose first-hop rule cycles raise instead of hanging.

Where float addition absorbs a weight (a ratio above about 2^53), two
tight neighbours can share a distance and the hop columns can cycle.
Every walk along a column stops after ``n`` steps with
:class:`~repro.graph.metric.HopWalkError`, so these builds fail fast.
Once the first-hop rule always gives a tree, they become "builds within
its stretch bound".
"""

from __future__ import annotations

import random

import pytest

from repro.api import build
from repro.graph.core import Graph
from repro.graph.generators import random_sparse
from repro.graph.metric import HopWalkError


def _absorbed_weight_graph():
    # d(1, 0) = d(2, 0) = d(3, 0) = 1e20 in float64: 1 and 2 are each
    # other's first hop toward 0.
    return Graph.from_edges(
        4, [(0, 3, 1e20), (3, 1, 1.0), (3, 2, 1.0), (1, 2, 1.0)]
    )


def test_thm16_on_absorbed_weight_raises():
    # a Lemma 8 walk from 1 toward 0 cycles
    with pytest.raises(HopWalkError, match="toward 0"):
        build("thm16", _absorbed_weight_graph(), seed=1)


@pytest.mark.parametrize("name", ["warmup3", "name-indep"])
def test_hub_tree_on_absorbed_weight_raises(name):
    # the full-graph tree at hub 0 would hang 1 and 2 from each other
    with pytest.raises(HopWalkError, match="from 1 toward 0"):
        build(name, _absorbed_weight_graph(), seed=1)


@pytest.mark.parametrize("seed", [1, 2])
def test_warmup3_on_1_or_1e17_weights_raises(seed):
    base = random_sparse(120, 480, seed=1)
    rng = random.Random(seed)
    g = Graph(base.n)
    for u, v, _ in base.edges():
        g.add_edge(u, v, rng.choice((1.0, 1e17)))
    with pytest.raises(HopWalkError, match="did not end within 120 steps"):
        build("warmup3", g)
