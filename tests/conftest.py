"""Shared fixtures: canonical small graphs with cached metrics.

Scheme constructions are quadratic-ish, so tests use small graphs; the
fixtures are session-scoped so each shared MetricView keeps the rows it
has computed.
"""

from __future__ import annotations

import pytest

from repro.graph.core import Graph
from repro.graph.generators import (
    erdos_renyi,
    grid,
    path,
    random_geometric,
    ring_with_chords,
    with_random_weights,
)
from repro.graph.metric import MetricView
from repro.graph.shortest_paths import reset_kernel_choice
from sp_reference import reference_engine  # noqa: F401  (a fixture)


@pytest.fixture(autouse=True)
def _fresh_kernel_choice():
    """Re-resolve the once-per-process REPRO_KERNEL choice around each test.

    The dispatch caches the choice for the life of a process; tests that
    monkeypatch the environment variable call
    :func:`reset_kernel_choice` themselves, and this fixture guarantees
    no cached override leaks into the next test.
    """
    reset_kernel_choice()
    yield
    reset_kernel_choice()


@pytest.fixture(autouse=True)
def _fresh_parallel_choice():
    """Same discipline for the once-per-process REPRO_PARALLEL choice.

    Imported lazily: the parallel tier needs numpy, and the pure-python
    test environment must keep collecting without it.
    """
    try:
        from repro.graph.parallel import reset_parallel_choice
    except ImportError:
        yield
        return
    reset_parallel_choice()
    yield
    reset_parallel_choice()


@pytest.fixture(scope="session")
def er_unweighted():
    """Connected Erdős–Rényi graph, 80 vertices, unweighted."""
    return erdos_renyi(80, 0.07, seed=42)


@pytest.fixture(scope="session")
def er_weighted(er_unweighted):
    """The same topology with uniform random weights in [1, 10]."""
    return with_random_weights(er_unweighted, seed=43)


@pytest.fixture(scope="session")
def grid_graph():
    """9x9 grid: large diameter, slow ball growth."""
    return grid(9, 9)


@pytest.fixture(scope="session")
def geometric_graph():
    """Random geometric graph with Euclidean weights."""
    return random_geometric(80, 0.2, seed=7)


@pytest.fixture(scope="session")
def ring_graph():
    """Ring with chords: small-world-ish."""
    return ring_with_chords(70, 25, seed=5)


@pytest.fixture(scope="session")
def metric_er(er_unweighted):
    return MetricView(er_unweighted)


@pytest.fixture(scope="session")
def metric_er_weighted(er_weighted):
    return MetricView(er_weighted)


@pytest.fixture(scope="session")
def metric_grid(grid_graph):
    return MetricView(grid_graph)


@pytest.fixture(scope="session")
def metric_geometric(geometric_graph):
    return MetricView(geometric_graph)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running construction tests"
    )
