"""The list walks of Lemmas 7 and 8 against the one-``next_hop``-per-step
reference walks (``tests/walk_reference.py``).

Every ordered pair of every colour class is compared, on the native (or
numpy, where no compiler is present) and numpy engines and on the
``"pure"`` path, whose rows come from the pure-Python references: the
sequence functions with a hop column read once per target, the
techniques that call them from their sweeps, and the boundary edges
they walk.  Lemma 7 runs on unweighted and tie-heavy graphs, Lemma 8 on
weighted and ``{1, 2, 3}``-weight ones.
"""

from __future__ import annotations

import random

import pytest

from repro.core.sequences import build_lemma7_sequence, build_lemma8_sequence
from repro.core.technique1 import Technique1
from repro.core.technique2 import Technique2
from repro.graph.core import Graph
from repro.graph.generators import (
    erdos_renyi,
    grid,
    ring_with_chords,
    torus,
    with_random_weights,
)
from repro.graph.metric import MetricView
from repro.graph.shortest_paths import reset_kernel_choice
from repro.routing.model import SizedTable
from repro.routing.ports import PortAssignment
from repro.structures.balls import BallFamily
from repro.structures.coloring import color_classes, find_coloring
from repro.structures.hitting_set import greedy_hitting_set
from sp_reference import patch_references
from walk_reference import (
    reference_boundary_edge,
    reference_lemma7_sequence,
    reference_lemma8_sequence,
)


@pytest.fixture(params=["auto", "numpy", "pure"])
def kernel(request, monkeypatch):
    """Every test runs once per engine (``auto`` is the native kernel
    where it builds; ``pure`` patches in the reference rows)."""
    if request.param == "pure":
        patch_references(monkeypatch)
    else:
        monkeypatch.setenv("REPRO_KERNEL", request.param)
        reset_kernel_choice()
    return request.param


def _small_weights(seed: int) -> Graph:
    """A ring with chords, weights drawn from {1, 2, 3}: long paths with
    many equal-length alternatives."""
    base = ring_with_chords(80, 6, seed=seed)
    rng = random.Random(seed)
    g = Graph(base.n)
    for u, v, _ in base.edges():
        g.add_edge(u, v, rng.choice((1.0, 2.0, 3.0)))
    return g


UNWEIGHTED = {
    "er": lambda: erdos_renyi(70, 0.07, seed=21),
    "grid": lambda: grid(8, 8),
    "torus": lambda: torus(6, 7),
}
WEIGHTED = {
    "uniform": lambda: with_random_weights(
        erdos_renyi(60, 0.08, seed=22), seed=23
    ),
    "123": lambda: _small_weights(2),
}


def _substrate(g: Graph, ell: int, q: int):
    m = MetricView(g)
    fam = BallFamily(m, ell)
    colors = find_coloring(fam.balls(), g.n, q, seed=1)
    return m, fam, color_classes(colors, q)


def _relay_pool(fam: BallFamily, members):
    member_set = set(members)

    def pool(x):
        return next((y for y in fam.ball(x) if y in member_set), None)

    return pool


def _tables(g: Graph):
    return [SizedTable(u) for u in g.vertices()]


@pytest.mark.parametrize("graph", sorted(UNWEIGHTED))
@pytest.mark.parametrize("b", [1, 4])
def test_lemma7_matches_reference(kernel, graph, b):
    g = UNWEIGHTED[graph]()
    m, fam, classes = _substrate(g, 8, 4)
    hitting = frozenset(greedy_hitting_set(fam.balls()))
    pairs = hubs = 0
    for cls in classes:
        for v in cls:
            hops = m.hop_column(v).tolist()
            for u in cls:
                if u == v:
                    continue
                d_uv = m.d(u, v)
                ref = reference_lemma7_sequence(
                    m, fam, hitting, u, v, b, d_uv=d_uv
                )
                got = build_lemma7_sequence(
                    m, fam, hitting, u, v, b, d_uv=d_uv, hops=hops
                )
                assert got == ref, (u, v)
                pairs += 1
                hubs += ref.hub is not None
    assert pairs > 0
    if b == 1:
        assert hubs > 0  # the hub ending is compared too


@pytest.mark.parametrize("graph", sorted(UNWEIGHTED))
def test_technique1_sweep_matches_reference(kernel, graph):
    """Sequences built class by class inside the technique's sweep equal
    the reference; the hub trees come after the sweep."""
    g = UNWEIGHTED[graph]()
    m, fam, classes = _substrate(g, 8, 4)
    ports = PortAssignment(g)
    tech = Technique1(m, fam, ports, classes, 0.5)
    seen = [u for u, _, _ in tech.sweep()]
    assert sorted(seen) == list(g.vertices())
    assert seen == [u for cls in classes for u in cls]
    tables = _tables(g)
    for t in tables:
        tech.install(t)
    for cls in classes:
        for u in cls:
            for v in cls:
                if u == v:
                    continue
                ref = reference_lemma7_sequence(
                    m, fam, tech.hitting, u, v, tech.b, d_uv=m.d(u, v)
                )
                waypoints, tlabel = tables[u].get(tech.cat_seq, v)
                assert waypoints == ref.waypoints, (u, v)
                assert (tlabel is None) == (ref.hub is None), (u, v)


@pytest.mark.parametrize("graph", sorted(WEIGHTED))
@pytest.mark.parametrize("b", [2, 4])
def test_lemma8_matches_reference(kernel, graph, b):
    g = WEIGHTED[graph]()
    m, fam, classes = _substrate(g, 6, 2)
    lam = m.tight_min_weight()
    pairs = relays = 0
    for cls in classes:
        pool = _relay_pool(fam, cls)
        for w in cls:
            hops = m.hop_column(w).tolist()
            for u in cls:
                if u == w:
                    continue
                ref = reference_lemma8_sequence(m, fam, pool, u, w, b, lam)
                got = build_lemma8_sequence(
                    m, fam, pool, u, w, b, lam, hops=hops
                )
                assert got == ref, (u, w)
                pairs += 1
                relays += ref.to_relay
    assert pairs > 0
    if (graph, b) == ("123", 2):
        assert relays > 0  # the relay ending is compared too


@pytest.mark.parametrize("graph", sorted(WEIGHTED))
def test_technique2_walks_match_reference(kernel, graph):
    """Technique 2 walks toward each target from the column its own
    sweep holds (``walk_target(w, col)`` through ``finish``)."""
    g = WEIGHTED[graph]()
    m, fam, classes = _substrate(g, 6, 2)
    tech = Technique2(
        m, fam, PortAssignment(g), classes, classes, 0.5,
        validate_hitting=False,
    )
    tables = _tables(g)
    for t in tables:
        tech.install(t)
    for cls in classes:
        pool = _relay_pool(fam, cls)
        for w in cls:
            for u in cls:
                if u == w:
                    continue
                ref = reference_lemma8_sequence(
                    m, fam, pool, u, w, tech.b, tech.lam
                )
                assert tables[u].get(tech.cat_seq, w) == ref.waypoints


@pytest.mark.parametrize("graph", sorted(UNWEIGHTED) + sorted(WEIGHTED))
def test_boundary_edge_matches_reference(kernel, graph):
    g = {**UNWEIGHTED, **WEIGHTED}[graph]()
    m = MetricView(g)
    fam = BallFamily(m, 6)
    for v in range(0, g.n, 3):
        for u in g.vertices():
            if not fam.contains(u, v):
                ref = reference_boundary_edge(fam, u, v)
                assert fam.boundary_edge(u, v) == ref, (u, v)
